//! `stream`: the service's write side. Set-up generates the trace; the
//! loop is one closed-loop writer appending every weekly epoch to a
//! fresh `AnalysisService` with no readers, one ingest after another.

use std::time::Instant;

use ddos_analytics::{Analysis, PipelineOptions};
use ddos_obs::Obs;
use ddos_serve::AnalysisService;
use ddos_sim::generate;

use crate::gate::{expect_eq, prefix_digests, report_digest};
use crate::{
    derive_seed, median, reset_peak_rss, Args, Measured, Metric, Outcome, Workload, EPOCH, SETUPS,
};

/// The append tail: a 30 s run holds five ingests of 30 epochs, 150
/// appends, fifteen of them beyond the 90th percentile.
const TAIL: f64 = 90.0;

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let ds = generate(&args.scale.config(derive_seed(args.seed, Workload::Stream))).dataset;
        let obs = Obs::enabled();
        let service = AnalysisService::new(&ds, PipelineOptions::default(), EPOCH, &obs);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(service);
        kept = Some(ds);
    }
    let ds = kept.expect("SETUPS > 0");
    let want = prefix_digests(&ds);
    let batch = report_digest(&Analysis::new(&ds).run());

    let mut m = Measured {
        setup_s,
        op: "append",
        ops: "appends",
        op_ms: Vec::new(),
        busy_s: 0.0,
        tail: TAIL,
        attempted: 0,
        failed: 0,
        extra: Vec::new(),
    };
    let (mut ingest_s, mut max_ms) = (Vec::new(), Vec::new());
    reset_peak_rss()?;
    let deadline = Instant::now() + args.duration();
    while ingest_s.is_empty() || Instant::now() < deadline {
        let obs = Obs::enabled();
        let service = AnalysisService::new(&ds, PipelineOptions::default(), EPOCH, &obs);
        let mut published = 0;
        let mut last = String::new();
        let (mut total, mut max) = (0.0f64, 0.0f64);
        loop {
            m.attempted += 1;
            let t = Instant::now();
            let appended = service.try_append();
            let elapsed = t.elapsed().as_secs_f64();
            match appended {
                Ok(Some(_)) => {
                    m.op_ms.push(elapsed * 1e3);
                    (total, max) = (total + elapsed, max.max(elapsed));
                    // Each watermark against a fresh prefix run, outside
                    // the timing; the snapshot is dropped once checked,
                    // so the loop holds no more than the service does.
                    let Some(snap) = service.snapshot() else {
                        m.failed += 1;
                        continue;
                    };
                    published += 1;
                    if snap.watermark != published {
                        return Err(format!(
                            "snapshot {published} has watermark {}",
                            snap.watermark
                        ));
                    }
                    let want = want.get(published - 1).ok_or(format!(
                        "stream published {published} snapshots for {} epochs",
                        want.len()
                    ))?;
                    last = report_digest(&snap.report);
                    let what = format!("stream snapshot digest at watermark {published}");
                    expect_eq(&what, &last, want)?;
                }
                // The call that finds no epoch left is not an append.
                Ok(None) => {
                    m.attempted -= 1;
                    break;
                }
                Err(e) => {
                    eprintln!("stream: append failed: {e}");
                    m.failed += 1;
                }
            }
        }
        m.busy_s += total;
        ingest_s.push(total);
        max_ms.push(max * 1e3);
        if published != want.len() {
            return Err(format!(
                "stream published {published} snapshots for {} epochs",
                want.len()
            ));
        }
        expect_eq("final stream snapshot vs batch", &last, &batch)?;
    }
    m.extra = vec![
        Metric::new("ingest_s", median(&ingest_s), "s"),
        Metric::new("append_max_ms", median(&max_ms), "ms"),
        Metric::new("ingests", ingest_s.len() as f64, "count"),
    ];
    Ok(m.finish(Workload::Stream))
}
