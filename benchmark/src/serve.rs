//! `serve`: the service's read side. Set-up ingests every epoch untimed;
//! the loop sends typed queries at a fixed rate against the complete
//! snapshot while the writer is idle.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use ddos_analytics::target::recurrence::TargetTrain;
use ddos_analytics::{Analysis, AnalysisReport, PipelineOptions};
use ddos_obs::Obs;
use ddos_schema::{Dataset, IpAddr4};
use ddos_serve::{AnalysisService, Answer};
use ddos_sim::generate;
use serde::Serialize;

use crate::gate::{expect_eq, json, report_digest};
use crate::loadgen::{open_loop, Slot};
use crate::{
    derive_seed, median, percentile, reset_peak_rss, splitmix64, Args, Measured, Metric, Outcome,
    Workload, EPOCH, QUERY_RATE, SETUPS,
};

/// The query tail: a 30 s run sends 120,000 queries, 1,200 of them
/// beyond the 99th percentile.
const TAIL: f64 = 99.0;

/// The query kinds and their weights in the mix. The weights put the
/// median among the 2–3 µs point queries (8 of 13), well clear of the
/// 13 µs `target_timeline` scan (2 of 13), and the 99th percentile among
/// the 150–250 µs clone-heavy queries (3 of 13). A 3:2:3 split of the
/// first three would put exactly half the mix in the fastest mode, and
/// the median would fall on the boundary between two modes.
pub const MIX: [(Kind, u64); 7] = [
    (Kind::TopTargets, 4),
    (Kind::FamilyBreakdown, 3),
    (Kind::TargetTimeline, 2),
    (Kind::ShiftSeries, 1),
    (Kind::DispersionSeries, 1),
    (Kind::BlacklistVerdicts, 1),
    (Kind::CollaborationGroups, 1),
];

/// One typed query of `AnalysisService`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `top_targets(5)`.
    TopTargets,
    /// `family_breakdown()`.
    FamilyBreakdown,
    /// `target_timeline(target)`, targets drawn from the trace.
    TargetTimeline,
    /// `shift_series()`.
    ShiftSeries,
    /// `dispersion_series()`.
    DispersionSeries,
    /// `blacklist_verdicts()`.
    BlacklistVerdicts,
    /// `collaboration_groups()`.
    CollaborationGroups,
}

impl Kind {
    /// The query's name, as the service's own spans call it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TopTargets => "top_targets",
            Kind::FamilyBreakdown => "family_breakdown",
            Kind::TargetTimeline => "target_timeline",
            Kind::ShiftSeries => "shift_series",
            Kind::DispersionSeries => "dispersion_series",
            Kind::BlacklistVerdicts => "blacklist_verdicts",
            Kind::CollaborationGroups => "collaboration_groups",
        }
    }
}

/// One scheduled query.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// What is asked.
    pub kind: Kind,
    /// The target of a `target_timeline` query.
    pub target: IpAddr4,
}

/// `count` queries drawn from [`MIX`] with `seed`; timeline targets are
/// drawn uniformly from the trace's distinct targets.
pub fn schedule(ds: &Dataset, seed: u64, count: usize) -> Vec<Query> {
    let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
    let targets = ds.targets();
    let mut state = seed;
    let mut draw = || {
        state = splitmix64(state);
        state
    };
    (0..count)
        .map(|_| {
            let mut pick = draw() % total;
            let kind = MIX
                .iter()
                .find(|&&(_, w)| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .map(|&(k, _)| k)
                .expect("pick < total");
            let target = targets[(draw() % targets.len() as u64) as usize];
            Query { kind, target }
        })
        .collect()
}

/// A query's answer, kept until it is checked.
pub enum Reply {
    TopTargets(Option<Answer<Vec<(ddos_schema::CountryCode, usize)>>>),
    FamilyBreakdown(Option<Answer<Vec<ddos_analytics::overview::activity::FamilyActivity>>>),
    TargetTimeline(IpAddr4, Option<Answer<Option<TargetTrain>>>),
    ShiftSeries(Option<Answer<ddos_analytics::source::shift::ShiftAnalysis>>),
    DispersionSeries(Option<Answer<Vec<ddos_analytics::source::dispersion::FamilyDispersion>>>),
    BlacklistVerdicts(Option<Answer<ddos_analytics::defense::BlacklistSim>>),
    CollaborationGroups(Option<Answer<ddos_analytics::collab::concurrent::CollabAnalysis>>),
}

/// Sends one query to the service.
pub fn ask(service: &AnalysisService<'_>, q: Query) -> Reply {
    match q.kind {
        Kind::TopTargets => Reply::TopTargets(service.top_targets(5)),
        Kind::FamilyBreakdown => Reply::FamilyBreakdown(service.family_breakdown()),
        Kind::TargetTimeline => Reply::TargetTimeline(q.target, service.target_timeline(q.target)),
        Kind::ShiftSeries => Reply::ShiftSeries(service.shift_series()),
        Kind::DispersionSeries => Reply::DispersionSeries(service.dispersion_series()),
        Kind::BlacklistVerdicts => Reply::BlacklistVerdicts(service.blacklist_verdicts()),
        Kind::CollaborationGroups => Reply::CollaborationGroups(service.collaboration_groups()),
    }
}

/// The report fields each query projects, taken from a fresh
/// monolithic run over the whole trace.
pub struct Expected<'r> {
    report: &'r AnalysisReport,
    /// Each recurrence train, by target.
    trains: HashMap<IpAddr4, &'r TargetTrain>,
}

impl<'r> Expected<'r> {
    /// Indexes `report` for checking answers.
    pub fn new(report: &'r AnalysisReport) -> Expected<'r> {
        let trains = report
            .recurrence
            .trains
            .iter()
            .map(|t| (t.target, t))
            .collect();
        Expected { report, trains }
    }

    /// Checks `reply` in full against the field it projects: `Ok(true)`
    /// for a complete-snapshot answer equal to it, `Ok(false)` for no
    /// answer (nothing published: a failed query), `Err` for a wrong one.
    pub fn check(&self, reply: &Reply) -> Result<bool, String> {
        let r = self.report;
        match reply {
            Reply::DispersionSeries(a) => {
                matches("dispersion_series", a, |v| same(v, &r.dispersion))
            }
            Reply::BlacklistVerdicts(a) => {
                matches("blacklist_verdicts", a, |v| same(v, &r.blacklist))
            }
            Reply::CollaborationGroups(a) => {
                matches("collaboration_groups", a, |v| same(v, &r.collaborations))
            }
            point => self.check_quick(point),
        }
    }

    /// [`Expected::check`] at a cost far below the query's: point
    /// answers are compared in full; a clone-heavy answer's watermark,
    /// lengths and first, middle and last elements are.
    pub fn check_quick(&self, reply: &Reply) -> Result<bool, String> {
        let r = self.report;
        match reply {
            Reply::TopTargets(a) => matches("top_targets", a, |v| {
                v.as_slice() == &r.overall_targets[..r.overall_targets.len().min(5)]
            }),
            Reply::FamilyBreakdown(a) => matches("family_breakdown", a, |v| same(v, &r.activity)),
            Reply::TargetTimeline(target, a) => matches("target_timeline", a, |v| {
                match (v, self.trains.get(target)) {
                    (None, None) => true,
                    (Some(got), Some(want)) => {
                        got.target == want.target
                            && got.starts == want.starts
                            && got.families == want.families
                    }
                    _ => false,
                }
            }),
            Reply::ShiftSeries(a) => matches("shift_series", a, |v| same(v, &r.shifts)),
            Reply::DispersionSeries(a) => matches("dispersion_series", a, |v| {
                v.len() == r.dispersion.len()
                    && v.iter().zip(&r.dispersion).all(|(got, want)| {
                        got.family == want.family
                            && got.active_days == want.active_days
                            && ends_match(&got.series, &want.series)
                    })
            }),
            Reply::BlacklistVerdicts(a) => matches("blacklist_verdicts", a, |v| {
                ends_match(&v.hits, &r.blacklist.hits)
            }),
            Reply::CollaborationGroups(a) => matches("collaboration_groups", a, |v| {
                let want = &r.collaborations;
                ends_match(&v.pairs, &want.pairs)
                    && ends_match(&v.events, &want.events)
                    && v.intra_pairs == want.intra_pairs
                    && v.inter_pairs == want.inter_pairs
            }),
        }
    }
}

fn matches<T>(
    kind: &str,
    answer: &Option<Answer<T>>,
    ok: impl FnOnce(&T) -> bool,
) -> Result<bool, String> {
    match answer {
        None => Ok(false),
        Some(a) if a.watermark == a.epochs && ok(&a.value) => Ok(true),
        Some(a) => Err(format!(
            "{kind} answer at watermark {}/{} differs from the report field it projects",
            a.watermark, a.epochs
        )),
    }
}

/// Same length, and the same first, middle and last element.
fn ends_match<T: PartialEq + Serialize>(got: &[T], want: &[T]) -> bool {
    got.len() == want.len()
        && (got.is_empty()
            || [0, got.len() / 2, got.len() - 1]
                .into_iter()
                .all(|i| same(&got[i], &want[i])))
}

/// Sends `queries` at [`QUERY_RATE`] from the calling thread, checking
/// every answer. Comparing a clone-heavy answer in full costs as much as
/// the query (a few MB read from memory); done for every answer, that
/// work would push later queries past their due time and read as service
/// latency. So each answer gets [`Expected::check_quick`] inline, and
/// the first and last answer of each kind, kept aside, get the full
/// [`Expected::check`] after the timed loop; the snapshot they all
/// clone is immutable. One untimed query of each kind, fully checked,
/// warms the read path first. `on_slot` sees each query's timing.
/// Returns how many queries got no answer, or the first wrong answer.
pub(crate) fn drive(
    service: &AnalysisService<'_>,
    queries: &[Query],
    expected: &Expected<'_>,
    mut on_slot: impl FnMut(&Slot, Kind),
) -> Result<u64, String> {
    for (kind, _) in MIX {
        let warm = Query { kind, ..queries[0] };
        expected.check(&ask(service, warm))?;
    }
    let mut unanswered = 0;
    let mut mismatch = Ok(());
    let mut first: HashMap<Kind, Reply> = HashMap::new();
    let mut last: HashMap<Kind, Reply> = HashMap::new();
    open_loop(
        QUERY_RATE,
        queries.len(),
        |i| ask(service, queries[i]),
        |slot, reply| {
            let kind = queries[slot.index].kind;
            on_slot(slot, kind);
            match expected.check_quick(&reply) {
                Ok(answered) => unanswered += u64::from(!answered),
                Err(e) if mismatch.is_ok() => mismatch = Err(e),
                Err(_) => {}
            }
            match first.entry(kind) {
                Entry::Vacant(slot) => {
                    slot.insert(reply);
                }
                Entry::Occupied(_) => {
                    last.insert(kind, reply);
                }
            }
        },
    );
    mismatch?;
    for reply in first.values().chain(last.values()) {
        expected.check(reply)?;
    }
    Ok(unanswered)
}

/// Equal values, or equal serializations (so a NaN section still
/// compares equal to itself).
fn same<T: PartialEq + Serialize>(a: &T, b: &T) -> bool {
    a == b || json(a) == json(b)
}

/// The complete snapshot equals `reference`, a fresh batch run over the
/// same trace.
pub(crate) fn check_snapshot(
    service: &AnalysisService<'_>,
    reference: &AnalysisReport,
) -> Result<(), String> {
    let snap = service
        .snapshot()
        .filter(|s| s.is_complete())
        .ok_or("serve set-up left no complete snapshot")?;
    expect_eq(
        "complete snapshot vs batch",
        &report_digest(&snap.report),
        &report_digest(reference),
    )
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let seed = derive_seed(args.seed, Workload::Serve);
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t = Instant::now();
        let ds = generate(&args.scale.config(seed)).dataset;
        let obs = Obs::enabled();
        let service = AnalysisService::new(&ds, PipelineOptions::default(), EPOCH, &obs);
        service
            .ingest_all()
            .map_err(|e| format!("serve set-up ingest failed: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return measure(args, seed, &ds, &service, &obs, setup_s);
        }
    }
    unreachable!("SETUPS > 0")
}

fn measure(
    args: &Args,
    seed: u64,
    ds: &Dataset,
    service: &AnalysisService<'_>,
    obs: &Obs,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let reference = Analysis::new(ds).run();
    check_snapshot(service, &reference)?;
    let queries = schedule(ds, seed, (QUERY_RATE * args.seconds).ceil() as usize);
    let expected = Expected::new(&reference);

    let mut m = Measured {
        setup_s,
        op: "query",
        ops: "queries",
        op_ms: Vec::with_capacity(queries.len()),
        busy_s: 0.0,
        tail: TAIL,
        attempted: 0,
        failed: 0,
        extra: Vec::new(),
    };
    let mut late_us: Vec<f64> = Vec::with_capacity(queries.len());
    reset_peak_rss()?;
    m.failed = drive(service, &queries, &expected, |slot, _| {
        m.attempted += 1;
        m.op_ms.push(slot.latency().as_secs_f64() * 1e3);
        m.busy_s += slot.service().as_secs_f64();
        late_us.push(slot.late().as_secs_f64() * 1e6);
    })?;
    let spans = obs.finish(true).spans.len();
    m.extra = vec![
        Metric::new("late_p50_us", median(&late_us), "us"),
        Metric::new("late_p90_us", percentile(&late_us, 90.0), "us"),
        Metric::new("late_max_us", percentile(&late_us, 100.0), "us"),
        Metric::new("spans_retained", spans as f64, "count"),
    ];
    Ok(m.finish(Workload::Serve))
}
