//! Kernel-equivalence property suite (DESIGN.md §12).
//!
//! The chunked pass kernels promise byte-identical reports to the
//! serial algorithms they replaced for *any* chunking. Those algorithms
//! are the public `compute(ds)` functions, and
//! `ddos_testkit::baseline_report` runs exactly them. The golden-report
//! suite pins that on the canonical trace; this suite extends it to
//! arbitrary simulated traces and adversarial chunk sizes — size 1
//! (every element its own chunk), a size that never divides the input
//! evenly, and a size larger than any input (one chunk, exercising the
//! single-partial merge path).
//!
//! Equivalence is asserted on serialized report bytes, so it covers
//! every kernel at once — the snapshot scans (dispersion, weekly
//! shifts), the sort-sweep collaboration detector, the overview
//! histogram merges, and the dense country rankings — including each
//! one's f64 ordering contract.

use ddos_analytics::collab::concurrent::CollabAnalysis;
use ddos_analytics::{Analysis, AnalysisContext, KernelPolicy};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::baseline_report;
use proptest::prelude::*;

fn report_json(ds: &ddos_schema::Dataset, kernels: KernelPolicy, parallel: bool) -> String {
    let report = Analysis::new(ds)
        .kernels(kernels)
        .parallel(parallel)
        .telemetry(false)
        .run();
    serde_json::to_string(&report).expect("report serializes")
}

proptest! {
    // Trace generation and six full pipeline runs per case dominate the
    // cost; a handful of configurations across seeds, scales, and
    // injection toggles covers the kernels' merge paths (the unit tests
    // in each module already sweep chunk sizes on crafted fixtures).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every kernel policy — auto, and forced chunk sizes including 1
    /// and one larger than the trace — produces the baseline report's
    /// bytes, serial and parallel.
    #[test]
    fn chunked_kernels_match_reference_bytes_for_any_config(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.01,
        spike in any::<bool>(),
        collaborations in any::<bool>(),
        chains in any::<bool>(),
        chunk in 1usize..64,
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            spike,
            collaborations,
            chains,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        let ds = &trace.dataset;
        let want = serde_json::to_string(&baseline_report(ds, ArimaSpec::DEFAULT))
            .expect("report serializes");
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(chunk),
            KernelPolicy::Chunked(1),
            // Larger than any input slice: one chunk per kernel, so the
            // partial-merge path degenerates to a single partial.
            KernelPolicy::Chunked(ds.len() + ds.bots().len() + 1),
        ] {
            let got = report_json(ds, policy, true);
            prop_assert!(got == want, "{policy:?} parallel diverged from the baseline bytes");
        }
        // Serial scheduling must not interact with chunking either.
        prop_assert_eq!(&report_json(ds, KernelPolicy::Chunked(chunk), false), &want);
    }

    /// The sort-sweep concurrent-attack detector reproduces the
    /// pairwise scan of `CollabAnalysis::compute` exactly on arbitrary
    /// traces (the unit
    /// suite pins crafted chain/window fixtures; this covers simulated
    /// collaboration injection).
    #[test]
    fn sweep_matches_pairwise_on_arbitrary_traces(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.01,
        collaborations in any::<bool>(),
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            collaborations,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        let ctx = AnalysisContext::build(&trace.dataset, ArimaSpec::DEFAULT);
        let sweep = CollabAnalysis::compute_ctx(&ctx);
        let pairwise = CollabAnalysis::compute(&trace.dataset);
        prop_assert_eq!(
            serde_json::to_string(&sweep).expect("collab serializes"),
            serde_json::to_string(&pairwise).expect("collab serializes")
        );
    }
}
