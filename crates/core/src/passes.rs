//! The analysis-pass registry and scheduler.
//!
//! Every section of the report is produced by one [`PassSpec`]: a named
//! pure function from the shared [`AnalysisContext`] (plus any
//! already-finished passes it depends on) to one [`PassOutput`]. The
//! [`execute`] driver schedules the registry in dependency stages and —
//! when asked — runs the passes of a stage on scoped threads. Because
//! passes are pure functions of the context and their declared
//! dependencies, the parallel schedule produces a report byte-identical
//! to the serial one; only the recorded telemetry differs.
//!
//! Observability: [`execute`] records one `passes/<name>` span per pass
//! and one `scheduler/stage<i>` span per dependency stage into the
//! [`Obs`] it is handed, plus a `scheduler/wait_us` histogram of
//! spawn-to-start latency on threaded stages — the run's scheduler
//! behavior, captured without touching report bytes.
//!
//! # Adding a pass
//!
//! 1. Add the output variant to [`PassOutput`] and a slot to
//!    [`PartialReport`] (and wire it through `PartialReport::apply`).
//! 2. Write the pass function (`fn(&AnalysisContext, &PartialReport) ->
//!    PassOutput`) and append a [`PassSpec`] to [`REGISTRY`], listing in
//!    `deps` the names of any passes whose output it reads.
//! 3. Consume the slot in `AnalysisReport`'s assembly
//!    (`PartialReport::into_report`).

use std::collections::HashSet;

use ddos_obs::Obs;
use ddos_schema::{CountryCode, Family};

use crate::collab::concurrent::{CollabAnalysis, PairFocus};
use crate::collab::multistage::MultistageAnalysis;
use crate::context::AnalysisContext;
use crate::defense::{latency_sweep_from_durations, BlacklistSim, LatencyPoint};
use crate::fault::{self, PipelineError};
use crate::overview::activity::{activity_levels, FamilyActivity};
use crate::overview::daily::DailyDistribution;
use crate::overview::duration::DurationAnalysis;
use crate::overview::intervals::{starts_to_intervals, ConcurrencyAnalysis, IntervalStats};
use crate::overview::protocols::{protocol_preferences, ProtocolFamilyRow, ProtocolPopularity};
use crate::source::dispersion::{qualifying_families_ctx, FamilyDispersion};
use crate::source::prediction::PredictionAnalysis;
use crate::source::shift::ShiftAnalysis;
use crate::summary::SummaryComparison;
use crate::target::country::{all_profiles_ctx, overall_top_countries_ctx, FamilyCountryProfile};
use crate::target::recurrence::RecurrenceAnalysis;

/// The detection-latency grid of the report (§III-D: 1 min, 10 min,
/// 1 h, 4 h, 1 day).
pub const LATENCY_GRID_S: &[f64] = &[60.0, 600.0, 3_600.0, 4.0 * 3_600.0, 86_400.0];

/// One independently-invalidated part of the [`AnalysisContext`].
///
/// Every pass declares which parts it reads ([`PassSpec::reads`]); the
/// incremental pipeline tracks which parts an epoch append changed and
/// re-runs only the passes whose inputs moved ([`passes_dirtied_by`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxPart {
    /// The attack records themselves (`ctx.records.attacks()`,
    /// `ctx.all_starts`, and everything derived per-attack on the fly).
    Attacks,
    /// The bot roster (`ctx.records.bots()`, `ctx.bot_table`).
    Bots,
    /// The per-attack duration column (`ctx.durations`).
    Durations,
    /// The per-target attack timelines (`ctx.target_timelines`).
    Timelines,
    /// The per-family contexts: starts, dispersion series, weekly bot
    /// maps (`ctx.families()`).
    Families,
    /// The attack→source join (`ctx.sources`).
    Sources,
}

/// The output of one pass — one report section.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant names mirror the report fields
pub enum PassOutput {
    Protocols(ProtocolPopularity),
    ProtocolRows(Vec<ProtocolFamilyRow>),
    Summary(SummaryComparison),
    Daily(DailyDistribution),
    IntervalStats(Vec<(Family, Option<IntervalStats>)>),
    AllIntervalStats(Option<IntervalStats>),
    Concurrency(ConcurrencyAnalysis),
    Durations(Option<DurationAnalysis>),
    Shifts(ShiftAnalysis),
    Dispersion(Vec<FamilyDispersion>),
    Prediction(PredictionAnalysis),
    TargetCountries(Vec<FamilyCountryProfile>),
    OverallTargets(Vec<(CountryCode, usize)>),
    Collaborations(CollabAnalysis),
    FlagshipPair(Option<PairFocus>),
    Multistage(MultistageAnalysis),
    Activity(Vec<FamilyActivity>),
    Recurrence(RecurrenceAnalysis),
    Blacklist(BlacklistSim),
    Latency(Vec<LatencyPoint>),
}

/// The report under construction: one optional slot per section.
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)] // field names mirror the report fields
pub struct PartialReport {
    pub protocols: Option<ProtocolPopularity>,
    pub protocol_rows: Option<Vec<ProtocolFamilyRow>>,
    pub summary: Option<SummaryComparison>,
    pub daily: Option<DailyDistribution>,
    pub interval_stats: Option<Vec<(Family, Option<IntervalStats>)>>,
    pub all_interval_stats: Option<Option<IntervalStats>>,
    pub concurrency: Option<ConcurrencyAnalysis>,
    pub durations: Option<Option<DurationAnalysis>>,
    pub shifts: Option<ShiftAnalysis>,
    pub dispersion: Option<Vec<FamilyDispersion>>,
    pub prediction: Option<PredictionAnalysis>,
    pub target_countries: Option<Vec<FamilyCountryProfile>>,
    pub overall_targets: Option<Vec<(CountryCode, usize)>>,
    pub collaborations: Option<CollabAnalysis>,
    pub flagship_pair: Option<Option<PairFocus>>,
    pub multistage: Option<MultistageAnalysis>,
    pub activity: Option<Vec<FamilyActivity>>,
    pub recurrence: Option<RecurrenceAnalysis>,
    pub blacklist: Option<BlacklistSim>,
    pub latency: Option<Vec<LatencyPoint>>,
}

impl PartialReport {
    /// Stores one pass's output in its slot.
    pub fn apply(&mut self, output: PassOutput) {
        match output {
            PassOutput::Protocols(v) => self.protocols = Some(v),
            PassOutput::ProtocolRows(v) => self.protocol_rows = Some(v),
            PassOutput::Summary(v) => self.summary = Some(v),
            PassOutput::Daily(v) => self.daily = Some(v),
            PassOutput::IntervalStats(v) => self.interval_stats = Some(v),
            PassOutput::AllIntervalStats(v) => self.all_interval_stats = Some(v),
            PassOutput::Concurrency(v) => self.concurrency = Some(v),
            PassOutput::Durations(v) => self.durations = Some(v),
            PassOutput::Shifts(v) => self.shifts = Some(v),
            PassOutput::Dispersion(v) => self.dispersion = Some(v),
            PassOutput::Prediction(v) => self.prediction = Some(v),
            PassOutput::TargetCountries(v) => self.target_countries = Some(v),
            PassOutput::OverallTargets(v) => self.overall_targets = Some(v),
            PassOutput::Collaborations(v) => self.collaborations = Some(v),
            PassOutput::FlagshipPair(v) => self.flagship_pair = Some(v),
            PassOutput::Multistage(v) => self.multistage = Some(v),
            PassOutput::Activity(v) => self.activity = Some(v),
            PassOutput::Recurrence(v) => self.recurrence = Some(v),
            PassOutput::Blacklist(v) => self.blacklist = Some(v),
            PassOutput::Latency(v) => self.latency = Some(v),
        }
    }
}

/// One registered analysis pass.
pub struct PassSpec {
    /// Unique pass name (also the `deps` vocabulary).
    pub name: &'static str,
    /// Names of the passes whose output this pass reads.
    pub deps: &'static [&'static str],
    /// The context parts this pass reads. The incremental pipeline
    /// re-runs the pass only when one of them changed; an understated
    /// list here silently serves stale sections, so when in doubt list
    /// the superset.
    pub reads: &'static [CtxPart],
    /// The pass body. Must be a pure function of the context and the
    /// declared dependencies' slots in the partial report; the observer
    /// is for `kernels/*` telemetry only and never changes the output.
    pub run: fn(&AnalysisContext, &PartialReport, &Obs) -> PassOutput,
}

/// Records one gated pass body's kernel telemetry: how many chunks its
/// policy splits `items` into (`kernels/chunks`), skipped under
/// [`KernelPolicy::Reference`] where no chunked kernel runs.
///
/// [`KernelPolicy::Reference`]: crate::kernels::KernelPolicy::Reference
fn record_kernel_chunks(ctx: &AnalysisContext, obs: &Obs, items: usize) {
    if !ctx.kernels.is_reference() {
        obs.histogram("kernels/chunks")
            .record(ctx.kernels.chunks(items).len() as u64);
    }
}

fn pass_protocols(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Protocols(ProtocolPopularity::compute(ctx.records))
}

fn pass_protocol_rows(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::ProtocolRows(protocol_preferences(ctx.records))
}

fn pass_summary(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Summary(SummaryComparison::compute(ctx.records))
}

fn pass_daily(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/daily");
    record_kernel_chunks(ctx, obs, ctx.all_starts.len());
    PassOutput::Daily(DailyDistribution::compute_ctx(ctx))
}

fn pass_interval_stats(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::IntervalStats(
        ctx.families()
            .iter()
            .map(|fc| {
                let ivs = starts_to_intervals(&fc.starts);
                (fc.family, IntervalStats::compute(&ivs))
            })
            .collect(),
    )
}

fn pass_all_interval_stats(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    let ivs = starts_to_intervals(&ctx.all_starts);
    PassOutput::AllIntervalStats(IntervalStats::compute(&ivs))
}

fn pass_concurrency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Concurrency(ConcurrencyAnalysis::compute_ctx(ctx))
}

fn pass_durations(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/durations");
    record_kernel_chunks(ctx, obs, ctx.durations.len());
    PassOutput::Durations(DurationAnalysis::compute_ctx(ctx))
}

fn pass_shifts(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/shifts");
    record_kernel_chunks(ctx, obs, ctx.records.window().num_weeks());
    PassOutput::Shifts(ShiftAnalysis::compute_ctx(ctx))
}

fn pass_dispersion(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Dispersion(qualifying_families_ctx(ctx))
}

fn pass_prediction(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Prediction(PredictionAnalysis::compute_ctx(ctx))
}

fn pass_target_countries(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/target_countries");
    record_kernel_chunks(ctx, obs, ctx.records.len());
    PassOutput::TargetCountries(all_profiles_ctx(ctx))
}

fn pass_overall_targets(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/overall_targets");
    record_kernel_chunks(ctx, obs, ctx.records.len());
    PassOutput::OverallTargets(overall_top_countries_ctx(ctx, 5))
}

fn pass_collaborations(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/collaborations");
    record_kernel_chunks(ctx, obs, ctx.target_timelines.len());
    PassOutput::Collaborations(CollabAnalysis::compute_ctx(ctx))
}

fn pass_flagship_pair(ctx: &AnalysisContext, partial: &PartialReport, _obs: &Obs) -> PassOutput {
    let collab = partial
        .collaborations
        .as_ref()
        .expect("scheduler ran flagship_pair before its collaborations dependency");
    PassOutput::FlagshipPair(PairFocus::compute(
        ctx.records,
        collab,
        Family::Dirtjumper,
        Family::Pandora,
    ))
}

fn pass_multistage(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Multistage(MultistageAnalysis::compute_ctx(ctx))
}

fn pass_activity(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Activity(activity_levels(ctx.records))
}

fn pass_recurrence(ctx: &AnalysisContext, _: &PartialReport, obs: &Obs) -> PassOutput {
    let _k = obs.span("kernels/recurrence");
    record_kernel_chunks(ctx, obs, ctx.target_timelines.len());
    PassOutput::Recurrence(RecurrenceAnalysis::compute_ctx(ctx))
}

fn pass_blacklist(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Blacklist(BlacklistSim::run_ctx(ctx))
}

fn pass_latency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Latency(latency_sweep_from_durations(&ctx.durations, LATENCY_GRID_S))
}

/// Every pass of the report, in registry order. The only inter-pass
/// dependency is `flagship_pair` → `collaborations`; everything else
/// reads the context alone.
pub const REGISTRY: &[PassSpec] = &[
    PassSpec {
        name: "protocols",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_protocols,
    },
    PassSpec {
        name: "protocol_rows",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_protocol_rows,
    },
    PassSpec {
        name: "summary",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Bots],
        run: pass_summary,
    },
    PassSpec {
        name: "daily",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_daily,
    },
    PassSpec {
        name: "interval_stats",
        deps: &[],
        reads: &[CtxPart::Families],
        run: pass_interval_stats,
    },
    PassSpec {
        name: "all_interval_stats",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_all_interval_stats,
    },
    PassSpec {
        name: "concurrency",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Timelines],
        run: pass_concurrency,
    },
    PassSpec {
        name: "durations",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Durations],
        run: pass_durations,
    },
    PassSpec {
        name: "shifts",
        deps: &[],
        reads: &[CtxPart::Families],
        run: pass_shifts,
    },
    PassSpec {
        name: "dispersion",
        deps: &[],
        reads: &[CtxPart::Families],
        run: pass_dispersion,
    },
    PassSpec {
        name: "prediction",
        deps: &[],
        reads: &[CtxPart::Families],
        run: pass_prediction,
    },
    PassSpec {
        name: "target_countries",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_target_countries,
    },
    PassSpec {
        name: "overall_targets",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_overall_targets,
    },
    PassSpec {
        name: "collaborations",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Timelines],
        run: pass_collaborations,
    },
    PassSpec {
        name: "flagship_pair",
        deps: &["collaborations"],
        reads: &[CtxPart::Attacks],
        run: pass_flagship_pair,
    },
    PassSpec {
        name: "multistage",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Timelines],
        run: pass_multistage,
    },
    PassSpec {
        name: "activity",
        deps: &[],
        reads: &[CtxPart::Attacks],
        run: pass_activity,
    },
    PassSpec {
        name: "recurrence",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Timelines],
        run: pass_recurrence,
    },
    PassSpec {
        name: "blacklist",
        deps: &[],
        reads: &[CtxPart::Attacks, CtxPart::Sources, CtxPart::Timelines],
        run: pass_blacklist,
    },
    PassSpec {
        name: "latency",
        deps: &[],
        reads: &[CtxPart::Durations],
        run: pass_latency,
    },
];

/// What one pass run yields: `(name, output, start_us, end_us)`.
type PassRun = (&'static str, PassOutput, u64, u64);

/// Runs one pass, stamping its start/end offsets off the observer's
/// clock (offsets are recorded by the driver after the join, so worker
/// threads never contend on the span sink mid-stage).
fn run_pass(
    pass: &'static PassSpec,
    ctx: &AnalysisContext,
    partial: &PartialReport,
    obs: &Obs,
) -> PassRun {
    let start_us = obs.now_us();
    let out = (pass.run)(ctx, partial, obs);
    (pass.name, out, start_us, obs.now_us())
}

/// The set of passes whose inputs a change to `parts` invalidates.
///
/// A pass is dirtied directly when one of its [`PassSpec::reads`] parts
/// changed, and transitively when one of its `deps` is dirtied (its
/// input *report slots* moved even if its context parts did not). The
/// closure is computed to a fixpoint, so chains of dependencies any
/// length re-run together.
pub fn passes_dirtied_by(parts: &[CtxPart]) -> HashSet<&'static str> {
    let mut dirty: HashSet<&'static str> = REGISTRY
        .iter()
        .filter(|p| p.reads.iter().any(|r| parts.contains(r)))
        .map(|p| p.name)
        .collect();
    loop {
        let before = dirty.len();
        for p in REGISTRY {
            if p.deps.iter().any(|d| dirty.contains(d)) {
                dirty.insert(p.name);
            }
        }
        if dirty.len() == before {
            return dirty;
        }
    }
}

/// Runs the whole registry against a context, recording telemetry into
/// `obs` (hand it [`Obs::disabled`] for an uninstrumented run).
///
/// Passes are grouped into stages: a stage holds every not-yet-run pass
/// whose dependencies have all finished. With `parallel` set, the passes
/// of a stage run on scoped threads ([`crossbeam::thread::scope`]);
/// results are joined in registry order, so the assembled report — and
/// even the order of the recorded pass spans — does not depend on thread
/// interleaving. Serial execution is the fallback and runs the exact
/// same functions in the exact same order.
pub fn execute(ctx: &AnalysisContext, parallel: bool, obs: &Obs) -> PartialReport {
    fault::infallible(try_execute(ctx, parallel, obs))
}

/// Fallible [`execute`]: returns `Err` instead of panicking when the
/// `scheduler/pass` failpoint injects a failure mid-run. On `Err` the
/// partially filled report is discarded; re-running without the fault
/// plan reproduces the golden report (the scheduler holds no state
/// across calls).
pub fn try_execute(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
) -> Result<PartialReport, PipelineError> {
    let mut partial = PartialReport::default();
    let include: HashSet<&'static str> = REGISTRY.iter().map(|p| p.name).collect();
    try_execute_filtered(ctx, parallel, obs, &mut partial, &include)?;
    Ok(partial)
}

/// Runs only the passes named in `include` against a context, updating
/// `partial` in place and leaving every other slot untouched.
///
/// This is [`execute`] restricted to a subset: the incremental pipeline
/// hands it the dirty set after each epoch append, so clean sections
/// keep their previous output. A dependency of an included pass counts
/// as satisfied when it has either run in this call or is *not*
/// included (its slot still holds the previous — clean — output).
/// Telemetry shape is unchanged: one `passes/<name>` span per pass run,
/// one `scheduler/stage<i>` span per stage.
pub fn execute_filtered(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
    partial: &mut PartialReport,
    include: &HashSet<&'static str>,
) {
    fault::infallible(try_execute_filtered(ctx, parallel, obs, partial, include))
}

/// Fallible [`execute_filtered`]: the `scheduler/pass` failpoint is
/// consulted once per pass, in registry order on the calling thread
/// before the stage runs, and an injection surfaces as `Err` with the
/// whole stage discarded — `partial` keeps the slots of every
/// *completed* stage but none from the failed one, so a caller either
/// finishes cleanly or throws the partial away. Error selection and hit
/// indices are deterministic: within a failing stage the error of the
/// earliest pass in registry order wins, regardless of scheduling.
pub fn try_execute_filtered(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
    partial: &mut PartialReport,
    include: &HashSet<&'static str>,
) -> Result<(), PipelineError> {
    let wait_hist = obs.histogram("scheduler/wait_us");
    let stage_counter = obs.counter("scheduler/stages");
    let mut done: HashSet<&'static str> = HashSet::new();
    let mut remaining: Vec<&'static PassSpec> = REGISTRY
        .iter()
        .filter(|p| include.contains(p.name))
        .collect();
    let mut stage_idx = 0usize;
    while !remaining.is_empty() {
        let (stage, rest): (Vec<_>, Vec<_>) = remaining.into_iter().partition(|p| {
            p.deps
                .iter()
                .all(|d| done.contains(d) || !include.contains(d))
        });
        assert!(
            !stage.is_empty(),
            "pass registry has a dependency cycle or an unknown dep name"
        );
        remaining = rest;
        // Every pass of the stage consults the failpoint before any runs
        // (the fold keeps the first error but consults them all), so a
        // failed stage contributes no slots and `partial` never mixes
        // outputs with an error.
        stage
            .iter()
            .map(|_| fault::check(fault::SCHEDULER_PASS, obs))
            .fold(Ok(()), Result::and)?;
        let stage_start = obs.now_us();
        let threaded = parallel && stage.len() > 1;
        let results: Vec<PassRun> = if threaded {
            let partial_ref: &PartialReport = partial;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = stage
                    .iter()
                    .map(|&p| scope.spawn(move |_| run_pass(p, ctx, partial_ref, obs)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("analysis pass panicked"))
                    .collect()
            })
            .expect("analysis pass scope panicked")
        } else {
            stage
                .iter()
                .map(|&p| run_pass(p, ctx, partial, obs))
                .collect()
        };
        for (name, out, start_us, end_us) in results {
            if threaded {
                // Spawn-to-start latency: how long the pass sat between
                // the stage opening and its thread actually running it.
                wait_hist.record(start_us.saturating_sub(stage_start));
            }
            obs.record_span(format!("passes/{name}"), start_us, end_us);
            partial.apply(out);
            done.insert(name);
        }
        obs.record_span(
            format!("scheduler/stage{stage_idx}"),
            stage_start,
            obs.now_us(),
        );
        stage_counter.inc();
        stage_idx += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn every_pass_declares_its_reads() {
        for p in REGISTRY {
            assert!(!p.reads.is_empty(), "{} declares no context reads", p.name);
        }
    }

    #[test]
    fn dirtiness_propagates_through_pass_deps() {
        // flagship_pair reads only Attacks, but depends on
        // collaborations, which reads Timelines: a Timelines-only
        // change must re-run both.
        let dirty = passes_dirtied_by(&[CtxPart::Timelines]);
        assert!(dirty.contains("collaborations"));
        assert!(dirty.contains("flagship_pair"));
        assert!(!dirty.contains("protocols"));
        // A Durations-only change touches exactly the duration readers.
        let dirty = passes_dirtied_by(&[CtxPart::Durations]);
        assert_eq!(
            dirty,
            HashSet::from(["durations", "latency"]),
            "unexpected Durations readers"
        );
        assert!(passes_dirtied_by(&[]).is_empty());
    }

    #[test]
    fn execute_filtered_reruns_only_the_included_passes() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let mut partial = execute(&ctx, false, &Obs::disabled());
        let stale_summary = partial.summary;
        partial.daily = None; // sentinel: not included, must stay None
        let obs = Obs::enabled();
        let include = HashSet::from(["flagship_pair", "protocols"]);
        execute_filtered(&ctx, false, &obs, &mut partial, &include);
        let t = obs.finish(false);
        assert_eq!(t.spans_under("passes").count(), include.len());
        assert!(t.span("passes/flagship_pair").is_some());
        assert!(partial.daily.is_none(), "excluded pass ran");
        assert_eq!(partial.summary, stale_summary, "excluded slot changed");
        // flagship_pair's collaborations dep was satisfied by the
        // existing slot, not re-run.
        assert!(t.span("passes/collaborations").is_none());
    }

    #[test]
    fn registry_names_are_unique_and_deps_resolve() {
        let names: HashSet<&str> = REGISTRY.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        for p in REGISTRY {
            for d in p.deps {
                assert!(names.contains(d), "{}: unknown dep {d}", p.name);
                assert_ne!(*d, p.name, "{} depends on itself", p.name);
            }
        }
    }

    #[test]
    fn execute_fills_every_slot() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        for parallel in [false, true] {
            let obs = Obs::enabled();
            let partial = execute(&ctx, parallel, &obs);
            assert!(partial.protocols.is_some());
            assert!(partial.flagship_pair.is_some());
            assert!(partial.latency.is_some());
            let t = obs.finish(parallel);
            assert_eq!(t.spans_under("passes").count(), REGISTRY.len());
            // flagship_pair must run after collaborations (spans are
            // sorted by start time, so position order is run order).
            let pos = |n: &str| {
                t.spans
                    .iter()
                    .position(|s| s.path == format!("passes/{n}"))
                    .unwrap()
            };
            assert!(pos("flagship_pair") > pos("collaborations"));
            assert_eq!(
                t.metrics.counter("scheduler/stages"),
                Some(t.spans_under("scheduler").count() as u64)
            );
        }
    }

    #[test]
    fn disabled_observer_runs_identical_passes() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let on = Obs::enabled();
        let off = Obs::disabled();
        let a = execute(&ctx, true, &on);
        let b = execute(&ctx, true, &off);
        assert_eq!(a.protocols, b.protocols);
        assert_eq!(a.flagship_pair, b.flagship_pair);
        assert!(off.finish(true).is_empty());
    }
}
