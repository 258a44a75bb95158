//! The shared analysis context: everything the passes need, built once.
//!
//! Before the pass-based pipeline, every analysis rescanned the dataset
//! for itself: the dispersion and prediction passes each geolocated every
//! attack source (twice per family in total), the shift analysis resolved
//! them a third time, and four separate analyses rebuilt and re-sorted
//! the same per-target attack index. [`AnalysisContext`] hoists those
//! shared joins into one construction step so each is computed exactly
//! once and borrowed by every pass.
//!
//! Since the columnar substrate ([`crate::columnar`]) the build itself is
//! the hot kernel treated as such: the `Botlist` becomes a [`BotTable`]
//! (sorted IP column + precomputed trig), the attack→source join becomes
//! a [`SourceTable`] (every source list as dense `u32` dictionary ids),
//! the per-snapshot dispersion runs through the `*_precomp` kernels of
//! `ddos-geo` that read cached `sin`/`cos` instead of recomputing each
//! bot's trigonometry per attack-participation, and the per-family
//! resolution fans out on scoped threads in deterministic chunks.
//! [`AnalysisContext::build_reference`] keeps the pre-columnar serial
//! path as the equivalence/benchmark baseline.
//!
//! # Invariants
//!
//! The context is *read-only* and derived purely from its records (plus
//! the chosen ARIMA order), which is what lets the scheduler run passes
//! against it from multiple threads:
//!
//! * `durations[i]` and `all_starts[i]` describe `records.attacks()[i]`;
//!   both vectors share the trace order (sorted by start time).
//! * `target_timelines` is sorted by target IP; each timeline's attack
//!   indices are ascending, hence in start order.
//! * The per-family slots ([`FamilyContext`]) follow [`Family::ACTIVE`]
//!   order (slot `i` holds `Family::ACTIVE[i]`, whose dense
//!   [`Family::index`] is also `i`). Each family's `starts` are
//!   ascending; its `dispersion` is bit-identical to what
//!   [`FamilyDispersion::compute`] produces; its `weekly_bots` maps hold
//!   exactly the resolvable `(bot, country)` participations per window
//!   week.
//! * Parallel and serial builds are **bit-identical**: chunks merge in
//!   (family, chunk) order, and the precomp kernels evaluate the exact
//!   scalar expressions (see `ddos_geo::trig`). The pipeline-equivalence
//!   suite enforces this against [`AnalysisContext::build_reference`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use ddos_geo::{
    dispersion, dispersion_precomp_indexed_counted, dispersion_precomp_indexed_presummed,
    CenterSum, KernelCounters,
};
use ddos_obs::Obs;
use ddos_schema::{CountryCode, Dataset, Family, IpAddr4, Records, Timestamp};
use ddos_stats::ArimaSpec;

use crate::columnar::{
    chunk_ranges, radix_sort_by_ip, worker_count, BotTable, SourceTable, NO_BOT,
};
use crate::kernels::KernelPolicy;
use crate::source::dispersion::FamilyDispersion;
use crate::util::{BotIndex, IpMap};

/// One target's attack history: indices into `Dataset::attacks()`,
/// ascending (therefore in start order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetTimeline {
    /// The victim IP.
    pub target: IpAddr4,
    /// Indices of the attacks on this target, ascending.
    pub attacks: Vec<usize>,
}

/// Per-family precomputation, one slot per [`Family::ACTIVE`] entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyContext {
    /// The family.
    pub family: Family,
    /// Start times of the family's attacks, ascending.
    pub starts: Vec<Timestamp>,
    /// The family's dispersion series (identical to
    /// [`FamilyDispersion::compute`], but sharing the context's single
    /// geolocation join).
    pub dispersion: FamilyDispersion,
    /// Per window week: the distinct resolvable bots participating in
    /// the family's attacks that week, with their countries.
    pub weekly_bots: Vec<IpMap<CountryCode>>,
}

/// Everything the analysis passes share, built once per dataset.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    /// The records under analysis: the whole trace for a batch build,
    /// the appended epochs' prefix for a mid-stream fold. Passes read
    /// raw records only through this view, so every context derived
    /// from a prefix fold answers exactly like a build over that prefix.
    pub records: Records<'a>,
    /// ARIMA order for the prediction pass.
    pub spec: ArimaSpec,
    /// The `Botlist` as a columnar table: sorted IPs, countries, and
    /// per-bot precomputed trigonometry.
    pub bot_table: BotTable,
    /// The trace-wide attack→source join: every attack's source list as
    /// dense dictionary ids, with an id → bot-row column.
    pub sources: SourceTable,
    /// Duration in seconds of each attack, in trace order.
    pub durations: Vec<f64>,
    /// Start time of each attack, in trace order.
    pub all_starts: Vec<Timestamp>,
    /// Per-target attack histories, sorted by target IP.
    pub target_timelines: Vec<TargetTimeline>,
    /// Which pass-body kernels the passes run against this context
    /// (reference algorithms vs chunked partial-merge kernels — the
    /// report bytes are identical either way; see [`crate::kernels`]).
    pub kernels: KernelPolicy,
    /// Per-family precomputation in [`Family::ACTIVE`] order.
    families: Vec<FamilyContext>,
}

/// A reusable last-seen-week stamp buffer, one slot per dictionary id.
///
/// Each chunk gets a fresh, disjoint tag range (`tag_base + week`), so
/// the buffer is valid across chunks without re-zeroing — a worker
/// allocates it once instead of clearing `dict_len` slots per family.
#[derive(Default)]
struct WeekStamp {
    tags: Vec<u32>,
    next_base: u32,
}

impl WeekStamp {
    /// Starts a new chunk: sizes the buffer on first use and claims an
    /// unused tag range. Tag 0 is reserved as "never stamped".
    fn begin(&mut self, dict_len: usize, num_weeks: usize) -> u32 {
        if self.tags.len() < dict_len {
            self.tags.resize(dict_len, 0);
        }
        let span = num_weeks.max(1) as u32;
        if self.next_base == 0 {
            // First use: the buffer is already zeroed.
            self.next_base = 1;
        } else if self.next_base > u32::MAX - span {
            // Theoretical tag exhaustion: start over.
            self.tags.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += span;
        base
    }
}

/// One chunk's share of a family's resolution: everything the merge
/// needs, accumulated in the chunk's attack order.
struct FamilyChunk {
    starts: Vec<Timestamp>,
    series: Vec<(Timestamp, f64)>,
    /// Day indices of snapshots that produced a dispersion value (may
    /// repeat; deduplicated at merge).
    days: Vec<usize>,
    weekly: Vec<IpMap<CountryCode>>,
}

/// Resolves one chunk of a family's attacks through the columnar
/// substrate in one sweep that drives both substreams: the weekly stamp
/// dedup (bots recur across many attacks of a week, so one stamp per
/// dictionary id records each week's first participations flat, and the
/// maps then build reserved at exactly their final size) and the
/// dispersion snapshot. For the common fully-resolved attack the sweep
/// fuses element-for-element: one loop over the id slice both stamps
/// the weekly dedup and folds the dispersion center sum (a resolved id
/// *is* its trig row), so each id slice is walked once. The center
/// fold pushes in id order and [`dispersion_precomp_indexed_presummed`]
/// finishes with the one-call kernel's exact expressions, so every
/// output bit matches [`AnalysisContext::build_reference`]; the context
/// equivalence suite pins that for every chunking. At paper scale this
/// is the context build's hottest loop.
///
/// `ids_of(i)` mirrors `attacks[i].sources` one-to-one, so a
/// first-of-the-week record reads its IP from the attack's own list
/// rather than through the dictionary column.
fn resolve_family_chunk(
    dataset: &Dataset,
    bots: &BotTable,
    sources: &SourceTable,
    attack_indices: &[u32],
    num_weeks: usize,
    stamp: &mut WeekStamp,
    kernel: &KernelCounters,
) -> FamilyChunk {
    let window = dataset.window();
    let attacks = dataset.attacks();
    let trigs = bots.trigs();
    let mut out = FamilyChunk {
        starts: Vec::with_capacity(attack_indices.len()),
        series: Vec::with_capacity(attack_indices.len()),
        days: Vec::new(),
        weekly: vec![IpMap::default(); num_weeks],
    };
    let tag_base = stamp.begin(sources.dict_len(), num_weeks);
    let tags = &mut stamp.tags[..];
    let mut per_week = vec![0usize; num_weeks];
    let mut firsts: Vec<(IpAddr4, CountryCode, u32)> = Vec::new();
    let mut rows: Vec<u32> = Vec::new();
    for &ai in attack_indices {
        let a = &attacks[ai as usize];
        let ids = sources.ids_of(ai as usize);
        out.starts.push(a.start);
        let d = if sources.unresolved_in(ai as usize) == 0 {
            // Fully resolved: ids are the kernel's row list, so one
            // fused loop stamps the weekly dedup and folds the center
            // sum together. Every id resolves, so no `bot_row` check.
            let mut sum = CenterSum::default();
            if let Some(w) = window.week_index(a.start) {
                let tag = tag_base + w as u32;
                for (k, &id) in ids.iter().enumerate() {
                    sum.push(&trigs[id as usize]);
                    if tags[id as usize] != tag {
                        tags[id as usize] = tag;
                        per_week[w] += 1;
                        firsts.push((a.sources[k], bots.country(id), w as u32));
                    }
                }
            } else {
                for &id in ids {
                    sum.push(&trigs[id as usize]);
                }
            }
            dispersion_precomp_indexed_presummed(trigs, ids, sum, kernel)
        } else {
            // Unresolvable sources present: stamp the week, then
            // filter the resolved ids into the scratch row list.
            if let Some(w) = window.week_index(a.start) {
                let tag = tag_base + w as u32;
                for (k, &id) in ids.iter().enumerate() {
                    if tags[id as usize] == tag {
                        continue;
                    }
                    tags[id as usize] = tag;
                    let row = sources.bot_row(id);
                    if row != NO_BOT {
                        per_week[w] += 1;
                        firsts.push((a.sources[k], bots.country(row), w as u32));
                    }
                }
            }
            rows.clear();
            rows.extend(
                ids.iter()
                    .copied()
                    .filter(|&id| sources.bot_row(id) != NO_BOT),
            );
            dispersion_precomp_indexed_counted(trigs, &rows, kernel)
        };
        let Some(d) = d else {
            continue;
        };
        if let Some(day) = window.day_index(a.start) {
            if out.days.last() != Some(&day) {
                out.days.push(day);
            }
        }
        out.series.push((a.start, d.value()));
    }
    for (w, &n) in per_week.iter().enumerate() {
        out.weekly[w].reserve(n);
    }
    for &(ip, country, w) in &firsts {
        out.weekly[w as usize].insert(ip, country);
    }
    out
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context with the default ARIMA order.
    pub fn new(dataset: &'a Dataset) -> AnalysisContext<'a> {
        Self::build(dataset, ArimaSpec::DEFAULT)
    }

    /// Builds the context on the columnar substrate with the build
    /// phases parallelized (see [`AnalysisContext::build_opts`]).
    pub fn build(dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        Self::build_opts(dataset, spec, true)
    }

    /// Builds the context on the columnar substrate.
    ///
    /// Phases: (1) the [`BotTable`] (sort + one trig precompute per
    /// distinct bot), (2) the [`SourceTable`] CSR join (data-parallel
    /// over disjoint output slices when `parallel`), (3) the global
    /// per-attack vectors and target timelines, (4) per-family source
    /// resolution — each family's attack list is cut into chunks that
    /// scoped worker threads drain from a shared queue, and the chunk
    /// results merge in (family, chunk) order, so the output is
    /// bit-identical to the serial build.
    pub fn build_opts(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
    ) -> AnalysisContext<'a> {
        Self::build_obs(dataset, spec, parallel, &Obs::disabled())
    }

    /// [`AnalysisContext::build_opts`] with the build stages telemetered
    /// into `obs`: one `context/<stage>` span per phase, gauges for the
    /// table sizes, a `context/chunk_us` histogram of per-chunk
    /// resolution time, and `geo/dispersion_*` counters of kernel work.
    /// Recording is relaxed-atomic handles on the worker paths, so the
    /// built context is bit-identical with telemetry on, off, serial,
    /// or parallel.
    pub fn build_obs(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
        obs: &Obs,
    ) -> AnalysisContext<'a> {
        Self::build_kernels(dataset, spec, parallel, KernelPolicy::Auto, obs)
    }

    /// [`AnalysisContext::build_obs`] with an explicit [`KernelPolicy`].
    ///
    /// The policy overrides the chunk granularity of the family jobs
    /// when `Chunked`, and is recorded on the context so the gated pass
    /// bodies pick their kernels accordingly. Every policy builds a
    /// bit-identical context and report.
    pub fn build_kernels(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
        policy: KernelPolicy,
        obs: &Obs,
    ) -> AnalysisContext<'a> {
        let bot_span = obs.span("context/bot_table");
        let bot_table = BotTable::build(dataset);
        drop(bot_span);
        let src_span = obs.span("context/source_table");
        let sources = SourceTable::build(dataset, &bot_table, parallel);
        drop(src_span);
        let window = dataset.window();
        let attacks = dataset.attacks();
        obs.gauge("context/attacks").set(attacks.len() as u64);
        obs.gauge("context/bots").set(bot_table.len() as u64);
        obs.gauge("context/source_dict_ips")
            .set(sources.dict_len() as u64);
        obs.gauge("context/participations")
            .set(sources.participations() as u64);
        obs.gauge("context/unresolved_sources")
            .set(sources.unresolved_total());

        let timeline_span = obs.span("context/timelines");
        let mut durations = Vec::with_capacity(attacks.len());
        let mut all_starts = Vec::with_capacity(attacks.len());
        for a in attacks {
            durations.push(a.duration().as_f64());
            all_starts.push(a.start);
        }
        // Target timelines columnar-style: radix-sort packed
        // `(target, index)` keys and slice the runs, instead of a hash
        // map of growing vectors. The stable sort keeps each target's
        // attack indices ascending — the same order the hash-map build
        // produces after its final sort by target.
        let mut keyed: Vec<u64> = attacks
            .iter()
            .enumerate()
            .map(|(i, a)| (u64::from(a.target_ip.value()) << 32) | i as u64)
            .collect();
        radix_sort_by_ip(&mut keyed);
        let mut target_timelines: Vec<TargetTimeline> = Vec::new();
        let mut run = 0;
        while run < keyed.len() {
            let target = (keyed[run] >> 32) as u32;
            let mut end = run;
            while end < keyed.len() && (keyed[end] >> 32) as u32 == target {
                end += 1;
            }
            target_timelines.push(TargetTimeline {
                target: IpAddr4(target),
                attacks: keyed[run..end].iter().map(|&k| k as u32 as usize).collect(),
            });
            run = end;
        }
        drop(timeline_span);

        let num_weeks = window.num_weeks();

        // Per-family fan-out with chunked intra-family resolution: the
        // big families split into enough chunks to keep every worker
        // busy; a shared counter hands out chunks dynamically.
        let family_span = obs.span("context/family_resolution");
        let kernel = KernelCounters::default();
        let chunk_hist = obs.histogram("context/chunk_us");
        let pieces = if parallel { worker_count() } else { 1 };
        let mut jobs: Vec<(usize, &[u32])> = Vec::new();
        for (slot, family) in Family::ACTIVE.into_iter().enumerate() {
            let indices = dataset.attack_indices_of(family);
            let ranges = match policy {
                // A forced chunk length overrides the per-worker cut —
                // the proptests force degenerate chunkings through it.
                KernelPolicy::Chunked(_) => policy.chunks(indices.len()),
                _ => chunk_ranges(indices.len(), pieces),
            };
            for r in ranges {
                jobs.push((slot, &indices[r]));
            }
        }
        // Each worker owns one reusable week-stamp buffer across all the
        // chunks it drains ([`WeekStamp`] hands every chunk a fresh tag
        // range, so no re-zeroing between chunks).
        let run_job = |&(slot, indices): &(usize, &[u32]), stamp: &mut WeekStamp| {
            let t0 = obs.now_us();
            let chunk = resolve_family_chunk(
                dataset, &bot_table, &sources, indices, num_weeks, stamp, &kernel,
            );
            chunk_hist.record(obs.now_us().saturating_sub(t0));
            (slot, chunk)
        };
        let workers = worker_count().min(jobs.len());
        obs.gauge("context/family_jobs").set(jobs.len() as u64);
        obs.gauge("context/workers")
            .set(if parallel && workers > 1 {
                workers as u64
            } else {
                1
            });
        let mut outs: Vec<(usize, usize, FamilyChunk)> = if parallel && workers > 1 {
            let next = AtomicUsize::new(0);
            let mut collected: Vec<(usize, usize, FamilyChunk)> =
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            scope.spawn(|_| {
                                let mut local = Vec::new();
                                let mut stamp = WeekStamp::default();
                                loop {
                                    let j = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(job) = jobs.get(j) else {
                                        break;
                                    };
                                    let (slot, chunk) = run_job(job, &mut stamp);
                                    local.push((j, slot, chunk));
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("family resolution panicked"))
                        .collect()
                })
                .expect("family resolution scope panicked");
            collected.sort_unstable_by_key(|&(j, _, _)| j);
            collected
        } else {
            let mut stamp = WeekStamp::default();
            jobs.iter()
                .enumerate()
                .map(|(j, job)| {
                    let (slot, chunk) = run_job(job, &mut stamp);
                    (j, slot, chunk)
                })
                .collect()
        };

        // Deterministic merge: jobs are slot-major and sorted by job id,
        // so each family's chunks concatenate in its trace order.
        let mut families: Vec<FamilyContext> = Family::ACTIVE
            .into_iter()
            .map(|family| FamilyContext {
                family,
                starts: Vec::new(),
                dispersion: FamilyDispersion {
                    family,
                    series: Vec::new(),
                    active_days: 0,
                },
                weekly_bots: vec![IpMap::default(); num_weeks],
            })
            .collect();
        let mut day_sets: Vec<HashSet<usize>> = vec![HashSet::new(); families.len()];
        for (_, slot, chunk) in outs.drain(..) {
            let fc = &mut families[slot];
            fc.starts.extend(chunk.starts);
            fc.dispersion.series.extend(chunk.series);
            day_sets[slot].extend(chunk.days);
            for (w, map) in chunk.weekly.into_iter().enumerate() {
                if fc.weekly_bots[w].is_empty() {
                    fc.weekly_bots[w] = map;
                } else {
                    fc.weekly_bots[w].extend(map);
                }
            }
        }
        for (fc, days) in families.iter_mut().zip(day_sets) {
            fc.dispersion.active_days = days.len();
        }
        drop(family_span);
        obs.counter("geo/dispersion_snapshots")
            .add(kernel.snapshots());
        obs.counter("geo/dispersion_points").add(kernel.points());
        obs.counter("geo/dispersion_degenerate")
            .add(kernel.degenerate());

        AnalysisContext {
            records: dataset.into(),
            spec,
            bot_table,
            sources,
            durations,
            all_starts,
            target_timelines,
            kernels: policy,
            families,
        }
    }

    /// The pre-columnar build: per-lookup hash join through
    /// [`BotIndex`], scalar trigonometry per attack-participation,
    /// serial per-family loop. Kept as the reference the equivalence
    /// suite holds the columnar build bit-equal to, and as the baseline
    /// of `repro --ctx-bench`. (The columnar tables are still attached
    /// so the context stays fully functional for every pass.)
    pub fn build_reference(dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        let bots = BotIndex::build(dataset);
        let bot_table = BotTable::build(dataset);
        let sources = SourceTable::build(dataset, &bot_table, false);
        let window = dataset.window();
        let attacks = dataset.attacks();

        let mut durations = Vec::with_capacity(attacks.len());
        let mut all_starts = Vec::with_capacity(attacks.len());
        let mut by_target: IpMap<Vec<usize>> = IpMap::default();
        for (i, a) in attacks.iter().enumerate() {
            durations.push(a.duration().as_f64());
            all_starts.push(a.start);
            by_target.entry(a.target_ip).or_default().push(i);
        }
        let mut target_timelines: Vec<TargetTimeline> = by_target
            .into_iter()
            .map(|(target, attacks)| TargetTimeline { target, attacks })
            .collect();
        target_timelines.sort_by_key(|t| t.target);

        let num_weeks = window.num_weeks();
        let families = Family::ACTIVE
            .into_iter()
            .map(|family| {
                let mut starts = Vec::new();
                let mut series = Vec::new();
                let mut days = HashSet::new();
                let mut weekly: Vec<IpMap<CountryCode>> = vec![IpMap::default(); num_weeks];
                for a in dataset.attacks_of(family) {
                    starts.push(a.start);
                    let week = window.week_index(a.start);
                    let mut coords = Vec::with_capacity(a.sources.len());
                    for &ip in &a.sources {
                        let Some((cc, c)) = bots.lookup(ip) else {
                            continue;
                        };
                        coords.push(c);
                        if let Some(w) = week {
                            weekly[w].insert(ip, cc);
                        }
                    }
                    let Some(d) = dispersion(&coords) else {
                        continue;
                    };
                    if let Some(day) = window.day_index(a.start) {
                        days.insert(day);
                    }
                    series.push((a.start, d.value()));
                }
                FamilyContext {
                    family,
                    starts,
                    dispersion: FamilyDispersion {
                        family,
                        series,
                        active_days: days.len(),
                    },
                    weekly_bots: weekly,
                }
            })
            .collect();

        AnalysisContext {
            records: dataset.into(),
            spec,
            bot_table,
            sources,
            durations,
            all_starts,
            target_timelines,
            kernels: KernelPolicy::Reference,
            families,
        }
    }

    /// Assembles a context from precomputed parts — the exit point of
    /// the epoch fold ([`crate::epoch::EpochContext`]). Callers are
    /// responsible for upholding the module invariants; the epoch
    /// equivalence suite pins the fold's output bit-equal to
    /// [`AnalysisContext::build`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        records: Records<'a>,
        spec: ArimaSpec,
        bot_table: BotTable,
        sources: SourceTable,
        durations: Vec<f64>,
        all_starts: Vec<Timestamp>,
        target_timelines: Vec<TargetTimeline>,
        families: Vec<FamilyContext>,
    ) -> AnalysisContext<'a> {
        AnalysisContext {
            records,
            spec,
            bot_table,
            sources,
            durations,
            all_starts,
            target_timelines,
            kernels: KernelPolicy::Auto,
            families,
        }
    }

    /// Sets the pass-body kernel policy (builder style) — the epoch
    /// fold's exit points assemble contexts through
    /// [`AnalysisContext::from_parts`] and stamp the pipeline's policy
    /// on afterwards.
    pub fn with_kernels(mut self, kernels: KernelPolicy) -> AnalysisContext<'a> {
        self.kernels = kernels;
        self
    }

    /// The per-family slots, in [`Family::ACTIVE`] order.
    pub fn families(&self) -> &[FamilyContext] {
        &self.families
    }

    /// One active family's slot (`None` for inactive families).
    ///
    /// `Family::ACTIVE` is a prefix of `Family::ALL`, so an active
    /// family's dense [`Family::index`] *is* its slot position; inactive
    /// families index past the end of the slot vector.
    pub fn family(&self, family: Family) -> Option<&FamilyContext> {
        let fc = self.families.get(family.index())?;
        debug_assert_eq!(fc.family, family);
        Some(fc)
    }

    /// One active family's dispersion series.
    pub fn dispersion_of(&self, family: Family) -> Option<&FamilyDispersion> {
        self.family(family).map(|fc| &fc.dispersion)
    }

    /// Asserts that `self` and `other` carry the same analysis inputs,
    /// with the dispersion series compared **bit-for-bit**. Used by the
    /// equivalence suite and `repro --ctx-bench --smoke` to hold the
    /// parallel and reference builds to the serial columnar build.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first divergence.
    pub fn assert_same_analysis(&self, other: &AnalysisContext<'_>) {
        assert_eq!(self.durations, other.durations, "durations diverged");
        assert_eq!(self.all_starts, other.all_starts, "all_starts diverged");
        assert_eq!(
            self.target_timelines, other.target_timelines,
            "target timelines diverged"
        );
        assert_eq!(self.families.len(), other.families.len());
        for (a, b) in self.families.iter().zip(&other.families) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.starts, b.starts, "{:?}: starts diverged", a.family);
            assert_eq!(
                a.dispersion.active_days, b.dispersion.active_days,
                "{:?}: active days diverged",
                a.family
            );
            assert_eq!(
                a.dispersion.series.len(),
                b.dispersion.series.len(),
                "{:?}: series length diverged",
                a.family
            );
            for (x, y) in a.dispersion.series.iter().zip(&b.dispersion.series) {
                assert_eq!(x.0, y.0, "{:?}: series timestamps diverged", a.family);
                assert_eq!(
                    x.1.to_bits(),
                    y.1.to_bits(),
                    "{:?}: dispersion bits diverged ({} vs {})",
                    a.family,
                    x.1,
                    y.1
                );
            }
            assert_eq!(
                a.weekly_bots, b.weekly_bots,
                "{:?}: weekly bot maps diverged",
                a.family
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use crate::source::dispersion::qualifying_families;
    use crate::source::shift::ShiftAnalysis;

    #[test]
    fn vectors_follow_trace_order() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Dirtjumper, 3, 5_000, 900, 2),
        ]);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.durations, vec![600.0, 700.0, 900.0]);
        assert_eq!(
            ctx.all_starts,
            ds.attacks().iter().map(|a| a.start).collect::<Vec<_>>()
        );
        // Two targets, sorted by IP, indices ascending.
        assert_eq!(ctx.target_timelines.len(), 2);
        assert!(ctx.target_timelines[0].target < ctx.target_timelines[1].target);
        assert_eq!(ctx.target_timelines[0].attacks, vec![0, 1]);
        assert_eq!(ctx.target_timelines[1].attacks, vec![2]);
        // The CSR join covers every participation.
        assert_eq!(
            ctx.sources.participations(),
            ds.attacks().iter().map(|a| a.sources.len()).sum::<usize>()
        );
    }

    #[test]
    fn family_slots_cover_active_families() {
        let ds = dataset(vec![attack(Family::Pandora, 1, 100, 60, 1)]);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.families().len(), Family::ACTIVE.len());
        let fc = ctx.family(Family::Pandora).unwrap();
        assert_eq!(fc.starts, vec![Timestamp(100)]);
        assert!(ctx.dispersion_of(Family::Pandora).is_some());
        // The slot lookup is a direct index: every active family's slot
        // holds that family, inactive families have none.
        for family in Family::ACTIVE {
            assert_eq!(ctx.family(family).unwrap().family, family);
        }
        for family in &Family::ALL[Family::ACTIVE.len()..] {
            assert!(ctx.family(*family).is_none());
        }
    }

    #[test]
    fn dispersion_matches_standalone_compute() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let bots = BotIndex::build(&ds);
        for family in Family::ACTIVE {
            let standalone = FamilyDispersion::compute(&ds, &bots, family);
            assert_eq!(ctx.dispersion_of(family), Some(&standalone));
        }
        // And the shared join agrees with the standalone shift analysis.
        assert_eq!(
            ShiftAnalysis::compute_ctx(&ctx),
            ShiftAnalysis::compute(&ds, &bots)
        );
        assert_eq!(
            crate::source::dispersion::qualifying_families_ctx(&ctx),
            qualifying_families(&ds, &bots)
        );
    }

    #[test]
    fn parallel_serial_and_reference_builds_agree() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Dirtjumper, 2, 150, 600, 1),
            attack(Family::Pandora, 3, 120, 700, 1),
            attack(Family::Pandora, 4, 900, 700, 2),
            attack(Family::Optima, 5, 1_500, 300, 2),
        ]);
        let serial = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, false);
        let parallel = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, true);
        let reference = AnalysisContext::build_reference(&ds, ArimaSpec::DEFAULT);
        serial.assert_same_analysis(&parallel);
        serial.assert_same_analysis(&reference);
    }

    #[test]
    fn instrumented_build_is_identical_and_records_stages() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Pandora, 3, 900, 700, 2),
        ]);
        let obs = Obs::enabled();
        let instrumented = AnalysisContext::build_obs(&ds, ArimaSpec::DEFAULT, true, &obs);
        let quiet = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, true);
        instrumented.assert_same_analysis(&quiet);
        let t = obs.finish(true);
        for stage in [
            "context/bot_table",
            "context/source_table",
            "context/timelines",
            "context/family_resolution",
        ] {
            assert!(t.span(stage).is_some(), "missing build stage span {stage}");
        }
        assert_eq!(
            t.metrics.gauge("context/attacks"),
            Some(ds.attacks().len() as u64)
        );
        assert_eq!(
            t.metrics.gauge("context/participations"),
            Some(instrumented.sources.participations() as u64)
        );
        // Every chunk landed in the histogram, and the kernel tallied
        // one snapshot per series point (plus any degenerate ones).
        let jobs = t.metrics.gauge("context/family_jobs").unwrap();
        let hist = t
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "context/chunk_us")
            .unwrap();
        assert_eq!(hist.histogram.count, jobs);
        let series: u64 = instrumented
            .families()
            .iter()
            .map(|fc| fc.dispersion.series.len() as u64)
            .sum();
        let snaps = t.metrics.counter("geo/dispersion_snapshots").unwrap();
        let degen = t.metrics.counter("geo/dispersion_degenerate").unwrap();
        assert_eq!(snaps - degen, series);
    }

    #[test]
    fn empty_dataset_builds() {
        let ds = dataset(vec![]);
        let ctx = AnalysisContext::new(&ds);
        assert!(ctx.durations.is_empty());
        assert!(ctx.target_timelines.is_empty());
        assert_eq!(ctx.families().len(), Family::ACTIVE.len());
        assert!(ctx.bot_table.is_empty());
        assert_eq!(ctx.sources.participations(), 0);
    }
}
