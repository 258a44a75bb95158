//! `batch`: the analyst's path. Set-up writes the framed-v2 trace to a
//! file; the loop is one client opening it and running the default
//! analysis, one report after another.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ddos_analytics::Analysis;
use ddos_schema::{framed, Dataset};
use ddos_sim::generate;

use crate::gate::{expect_eq, report_digest};
use crate::{derive_seed, reset_peak_rss, Args, Measured, Outcome, Workload, SETUPS};

/// The report tail: about 80 reports fit a 30 s run on a 2-core host,
/// so the 80th percentile keeps ten or more samples beyond it from 50
/// reports up.
const TAIL: f64 = 80.0;

/// A trace file that is removed when dropped.
pub(crate) struct TraceFile(pub PathBuf);

impl TraceFile {
    /// Generates the workload's trace and writes it as framed v2.
    pub(crate) fn write(args: &Args, workload: Workload) -> Result<(Dataset, TraceFile), String> {
        let seed = derive_seed(args.seed, workload);
        let ds = generate(&args.scale.config(seed)).dataset;
        let path = args.out_dir.join(format!(
            "{}-{seed:016x}-{}.ddtl",
            workload.name(),
            std::process::id()
        ));
        std::fs::write(&path, framed::encode(&ds))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok((ds, TraceFile(path)))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so only one trace is resident.
        drop(kept.take());
        let t = Instant::now();
        let written = TraceFile::write(args, Workload::Batch)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(written);
    }
    let (ds, file) = kept.expect("SETUPS > 0");
    let want = report_digest(&Analysis::new(&ds).run());
    drop(ds);

    let mut m = Measured {
        setup_s,
        op: "report",
        ops: "reports",
        op_ms: Vec::new(),
        busy_s: 0.0,
        tail: TAIL,
        attempted: 0,
        failed: 0,
        extra: Vec::new(),
    };
    reset_peak_rss()?;
    let deadline = Instant::now() + args.duration();
    while m.attempted == 0 || Instant::now() < deadline {
        m.attempted += 1;
        let t = Instant::now();
        let report = Dataset::open(file.path()).map(|ds| Analysis::new(&ds).run());
        let elapsed = t.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                m.op_ms.push(elapsed * 1e3);
                m.busy_s += elapsed;
                expect_eq("batch report digest", &report_digest(&report), &want)?;
            }
            Err(e) => {
                eprintln!("batch: open failed: {e}");
                m.failed += 1;
            }
        }
    }
    Ok(m.finish(Workload::Batch))
}
