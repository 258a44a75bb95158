//! End-to-end and per-layer benchmark of the three ways the engine is
//! driven: a batch report from a trace file (`batch`), weekly epochs
//! folded into a live `AnalysisService` (`stream`), and typed queries
//! against the published snapshot (`serve`).
//!
//! Every workload generates its own trace from
//! [`derive_seed`]`(seed, workload)`, sets up [`SETUPS`] times, runs
//! its loop for the requested seconds, and passes its correctness gate
//! before a number is reported. A traced run (`--trace 1`) replays the
//! same path step by step around the public calls of each layer and
//! reports per-layer numbers instead (see `trace.rs`).

pub mod gate;
pub mod loadgen;

mod batch;
mod serve;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use ddos_schema::Seconds;
use ddos_sim::SimConfig;

/// Epoch length of the stream and serve workloads (30 epochs over the
/// paper's 207-day window).
pub(crate) const EPOCH: Seconds = Seconds::WEEK;

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 3;

/// Open-loop query rate of the `serve` workload, queries per second.
pub(crate) const QUERY_RATE: f64 = 4_000.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Trace file → `Dataset::open` → `Analysis::run`, one report after another.
    Batch,
    /// All epochs appended to a fresh `AnalysisService`, one ingest after another.
    Stream,
    /// Open-loop typed queries against the complete snapshot.
    Serve,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::Stream, Workload::Serve];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Stream => "stream",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Trace volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `SimConfig::paper()`: 50,704 attacks, 325,434 bot records.
    Paper,
    /// `SimConfig::small()`: about 5% of the paper's volume, for tests.
    Small,
}

impl Scale {
    /// The generator configuration at this scale for `seed`.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            Scale::Paper => SimConfig::paper(),
            Scale::Small => SimConfig::small(),
        }
        .with_seed(seed)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// The benchmark seed; each workload derives its own from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Trace volume.
    pub scale: Scale,
    /// Where trace files and span files are written.
    pub out_dir: PathBuf,
}

impl Args {
    /// The measured loop's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run reports once its gate has passed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed (an error, or no answer after publish).
    pub failed: u64,
    /// The metrics of the final JSON line: every `end_to_end` metric
    /// of `BENCHMARK.json` untraced, every `per_layer` metric traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The final result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload: set-up, measured loop, correctness gate.
///
/// `Err` means the run must not report: a correctness mismatch, or a
/// set-up that could not complete.
pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    gate::golden_small(&gate::golden_file()?)?;
    let mut out = if args.trace {
        trace::run(workload, args)?
    } else {
        match workload {
            Workload::Batch => batch::run(args)?,
            Workload::Stream => stream::run(args)?,
            Workload::Serve => serve::run(args)?,
        }
    };
    out.lines.insert(0, run_header(workload, args));
    Ok(out)
}

/// The run's provenance, printed with every result.
fn run_header(workload: Workload, args: &Args) -> String {
    format!(
        "# workload={} seed={} derived_seed={:#018x} rev={} nproc={} scale={:?} \
         epochs=weekly query_rate={}/s seconds={} trace={}",
        workload.name(),
        args.seed,
        derive_seed(args.seed, workload),
        git_rev(),
        nproc(),
        args.scale,
        QUERY_RATE,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The workload's own seed: the trace and every draw it makes come
/// from this, so the same benchmark seed gives every workload the same
/// inputs run after run, and different workloads different traces.
pub(crate) fn derive_seed(seed: u64, workload: Workload) -> u64 {
    splitmix64(seed ^ ddos_obs::digest::fnv1a_64(workload.name().as_bytes()))
}

/// One step of SplitMix64.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Threads this host offers; the engine never uses more.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, or `unknown` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that [`peak_rss_mb`] covers only what runs after
/// the call: each workload calls it right before its measured loop,
/// after set-up and the gate's reference work.
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The `p`-th percentile (0–100) of `values` by nearest rank, or NaN
/// when empty.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `n` samples lie above the nearest-rank `p`-th percentile.
pub(crate) fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// One workload's measured loop, before it is turned into metrics.
pub(crate) struct Measured {
    /// Wall time of each set-up, seconds.
    setup_s: Vec<f64>,
    /// What one operation is called in the printed lines (`report`, ...).
    op: &'static str,
    /// Its plural.
    ops: &'static str,
    /// End-to-end latency of each operation, milliseconds (from the due
    /// time for an open loop).
    op_ms: Vec<f64>,
    /// Time spent inside the timed calls, seconds.
    busy_s: f64,
    /// The tail percentile, chosen so a normal run has at least ten
    /// samples beyond it.
    tail: f64,
    attempted: u64,
    failed: u64,
    /// Workload-specific metrics printed by name (not in the JSON line).
    extra: Vec<Metric>,
}

impl Measured {
    /// The end-to-end metrics and the printed lines.
    fn finish(self, workload: Workload) -> Outcome {
        let n = self.op_ms.len();
        let p50 = median(&self.op_ms);
        let tail = percentile(&self.op_ms, self.tail);
        let ops_per_s = n as f64 / self.busy_s;
        let metrics = vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("tail_ms", tail, "ms"),
            Metric::new("ops_per_s", ops_per_s, "1/s"),
        ];
        // The serve workload's latencies are printed in microseconds.
        let (scale, unit) = if workload == Workload::Serve {
            (1e3, "us")
        } else {
            (1.0, "ms")
        };
        let op = self.op;
        let named = [
            Metric::new(format!("{op}_p50_{unit}"), p50 * scale, unit),
            Metric::new(format!("{op}_p{}_{unit}", self.tail), tail * scale, unit),
            Metric::new(format!("{}_per_s", self.ops), ops_per_s, "1/s"),
        ];
        let mut lines = vec![format!(
            "{} {}={n} beyond_p{}={} setups={:?}",
            workload.name(),
            self.ops,
            self.tail,
            beyond(n, self.tail),
            self.setup_s
        )];
        let error_ratio = Metric::new(
            "error_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        for m in metrics[..2]
            .iter()
            .chain(&named)
            .chain(&self.extra)
            .chain([&error_ratio])
        {
            lines.push(format!(
                "{} {} {} {}",
                workload.name(),
                m.name,
                m.value,
                m.unit
            ));
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            lines,
        }
    }
}
