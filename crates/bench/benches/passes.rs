//! Benches for the intra-pass chunked kernels (DESIGN.md §12): the
//! snapshot-scan pass bodies (dispersion, weekly shifts) and the
//! sort-sweep concurrent-collaboration detector, at paper scale. The
//! `repro --pass-bench` harness covers the whole registry, holds it to
//! the baseline report and asserts the end-to-end target; these benches
//! give criterion-grade numbers for the three named kernels.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::collab::concurrent::CollabAnalysis;
use ddos_analytics::{passes, AnalysisContext};
use ddos_obs::Obs;
use ddos_stats::ArimaSpec;

fn bench_passes(c: &mut Criterion) {
    let trace = bench_trace();
    let ds = &trace.dataset;
    let ctx = AnalysisContext::build(ds, ArimaSpec::DEFAULT);
    let obs = Obs::disabled();
    // A fully populated partial report satisfies every pass's
    // dependency slots, so each body can run in isolation.
    let partial = passes::execute(&ctx, false, &obs);

    let mut g = c.benchmark_group("pass_kernels");
    g.sample_size(10);
    for name in ["dispersion", "shifts"] {
        let pass = passes::REGISTRY
            .iter()
            .find(|p| p.name == name)
            .expect("pass registered");
        g.bench_function(name, |b| {
            b.iter(|| black_box((pass.run)(&ctx, &partial, &obs)))
        });
    }
    g.bench_function("concurrent_collab_sort_sweep", |b| {
        b.iter(|| black_box(CollabAnalysis::compute_ctx(&ctx)))
    });
    g.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
