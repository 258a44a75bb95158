//! The pre-columnar context build, kept as the context-input oracle.
//!
//! The engine builds its [`AnalysisContext`] on the columnar substrate:
//! a radix-sorted bot table, a dense-id source join, precomputed
//! trigonometry, and chunked family resolution on scoped threads.
//! [`reference_context_parts`] computes the same analysis inputs the
//! way the engine did before any of that: a per-lookup hash join
//! through [`BotIndex`], scalar [`dispersion`] per attack, a hash map
//! of per-target vectors, and one serial loop per family. It is built
//! only from public API, so it shares no code with the columnar build
//! it checks.
//!
//! [`assert_context_matches_reference`] holds a context's inputs to it
//! with the dispersion series compared bit for bit — report digests
//! check the *outputs*; this checks the intermediate inputs, so a
//! compensating double bug cannot slip through.

use std::collections::HashSet;

use ddos_analytics::context::{FamilyContext, TargetTimeline};
use ddos_analytics::source::dispersion::FamilyDispersion;
use ddos_analytics::util::{BotIndex, IpMap};
use ddos_analytics::AnalysisContext;
use ddos_geo::dispersion;
use ddos_schema::{CountryCode, Dataset, Family, Timestamp};

/// The analysis inputs of a context, as the pre-columnar build
/// computes them (field meanings as on [`AnalysisContext`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ContextParts {
    /// Duration in seconds of each attack, in trace order.
    pub durations: Vec<f64>,
    /// Start time of each attack, in trace order.
    pub all_starts: Vec<Timestamp>,
    /// Per-target attack histories, sorted by target IP.
    pub target_timelines: Vec<TargetTimeline>,
    /// Per-family inputs in [`Family::ACTIVE`] order.
    pub families: Vec<FamilyContext>,
}

/// The pre-columnar build: per-lookup hash join through [`BotIndex`],
/// scalar trigonometry per attack-participation, serial per-family
/// loop.
pub fn reference_context_parts(dataset: &Dataset) -> ContextParts {
    let bots = BotIndex::build(dataset);
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

    ContextParts {
        durations,
        all_starts,
        target_timelines,
        families,
    }
}

/// Asserts that `ctx` carries the analysis inputs
/// [`reference_context_parts`] computes for `ds`: durations, starts,
/// target timelines, and every family slot, with the dispersion series
/// compared **bit for bit**.
///
/// # Panics
///
/// Panics with a description of the first divergence.
pub fn assert_context_matches_reference(ds: &Dataset, ctx: &AnalysisContext<'_>) {
    let got = ContextParts {
        durations: ctx.durations.clone(),
        all_starts: ctx.all_starts.clone(),
        target_timelines: ctx.target_timelines.clone(),
        families: ctx.families().to_vec(),
    };
    assert_parts_match(&got, &reference_context_parts(ds));
}

fn assert_parts_match(got: &ContextParts, want: &ContextParts) {
    assert_eq!(got.durations, want.durations, "durations diverged");
    assert_eq!(got.all_starts, want.all_starts, "all_starts diverged");
    assert_eq!(
        got.target_timelines, want.target_timelines,
        "target timelines diverged"
    );
    assert_eq!(got.families.len(), want.families.len());
    let bits = |fc: &FamilyContext| -> Vec<(Timestamp, u64)> {
        let series = &fc.dispersion.series;
        series.iter().map(|&(t, v)| (t, v.to_bits())).collect()
    };
    for (got, want) in got.families.iter().zip(&want.families) {
        let family = want.family;
        assert_eq!(got.family, family);
        assert_eq!(got.starts, want.starts, "{family:?}: starts diverged");
        assert_eq!(
            got.dispersion.active_days, want.dispersion.active_days,
            "{family:?}: active days diverged"
        );
        assert_eq!(
            bits(got),
            bits(want),
            "{family:?}: dispersion bits diverged"
        );
        assert_eq!(
            got.weekly_bots, want.weekly_bots,
            "{family:?}: weekly bot maps diverged"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_stats::ArimaSpec;

    #[test]
    fn serial_and_parallel_builds_match_the_reference() {
        let ds = crate::small_dataset();
        for parallel in [false, true] {
            let ctx = AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, parallel);
            assert_context_matches_reference(ds, &ctx);
        }
    }

    #[test]
    #[should_panic(expected = "dispersion bits diverged")]
    fn a_one_ulp_dispersion_drift_is_caught() {
        let want = reference_context_parts(crate::small_dataset());
        let mut got = want.clone();
        let fc = got
            .families
            .iter_mut()
            .find(|fc| !fc.dispersion.series.is_empty())
            .expect("small trace has a dispersion series");
        let v = &mut fc.dispersion.series[0].1;
        *v = f64::from_bits(v.to_bits() + 1);
        assert_parts_match(&got, &want);
    }
}
