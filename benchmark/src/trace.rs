//! The traced run (`--trace 1`): the whole path replayed step by step,
//! with a span around every public call into a layer.
//!
//! A traced run walks one trace through three segments: `batch` (file →
//! `Dataset::open` → `AnalysisContext::build` → each `PassSpec::run` in
//! stage order), `stream` (every epoch appended to an `AnalysisService`,
//! with the append's public steps replayed beside it) and `serve` (the
//! query mix against the complete snapshot). The selected workload's
//! segment runs for `--seconds`; the other two run once, so every
//! per-layer metric is measured on every workload. Spans are kept in
//! memory and written as JSON lines when the run ends.
//!
//! A span is named `<layer>.<call>`; its layer is the text before the
//! first dot. A span's self time is its duration minus its children's;
//! the unaccounted share of a segment is `1 - Σ self / wall`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ddos_analytics::passes::{PartialReport, PassSpec, REGISTRY};
use ddos_analytics::{
    Analysis, AnalysisContext, AnalysisReport, EpochContext, FoldScratch, IncrementalPipeline,
    PipelineOptions,
};
use ddos_obs::Obs;
use ddos_schema::Dataset;
use ddos_serve::AnalysisService;
use ddos_stats::ArimaSpec;

use crate::batch::TraceFile;
use crate::gate::{expect_eq, partial_matches, prefix_digests, report_digest};
use crate::serve::{check_snapshot, drive, schedule, Expected, MIX};
use crate::{derive_seed, median, percentile, Args, Metric, Outcome, Workload, EPOCH, QUERY_RATE};

/// The serve segment's shortest run: 12,000 queries, about 900 of each
/// of the rarest kinds, enough for their 99th percentiles.
const SERVE_ONCE: Duration = Duration::from_secs(3);

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The operation (report, append or query) the span belongs to.
    pub op: u64,
    /// The segment the span was recorded in.
    pub segment: Workload,
    /// The report or ingest within the segment.
    pub round: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    segment: Workload,
    round: u32,
    /// Each segment's wall interval, nanoseconds since `t0`.
    walls: Vec<(Workload, u64, u64)>,
    /// Counts recorded beside the spans: (segment, round, name, value).
    counts: Vec<(Workload, u32, &'static str, u64)>,
}

impl Tracer {
    /// An empty recorder anchored at now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            segment: Workload::Batch,
            round: 0,
            walls: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Starts a segment; spans recorded until [`Tracer::end_segment`]
    /// belong to it.
    pub fn begin_segment(&mut self, segment: Workload) {
        let now = self.ns(Instant::now());
        self.segment = segment;
        self.round = 0;
        self.walls.push((segment, now, now));
    }

    /// Ends the current segment.
    pub fn end_segment(&mut self) {
        let now = self.ns(Instant::now());
        self.walls.last_mut().expect("a segment was begun").2 = now;
    }

    /// Starts the next report or ingest of the segment.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Starts the next operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.push(name.into(), start_ns, start_ns);
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval measured elsewhere, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name.into(), start_ns, end_ns);
    }

    fn push(&mut self, name: String, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            segment: self.segment,
            round: self.round,
        });
    }

    /// Records a count at the current round.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((self.segment, self.round, name, value));
    }

    /// Operations started so far: reports, appends and queries.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the segment's rounds of each round's summed
    /// duration of spans named `name`, in milliseconds.
    pub fn round_ms(&self, segment: Workload, name: &str) -> f64 {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.segment == segment && s.name == name)
        {
            *sums.entry(s.round).or_default() += s.ns();
        }
        median(&sums.values().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
    }

    /// The `p`-th percentile of the durations of spans named `name` in
    /// `segment`, in microseconds.
    pub fn span_us(&self, segment: Workload, name: &str, p: f64) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.segment == segment && s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        percentile(&us, p)
    }

    /// Median over the segment's rounds of each round's summed count.
    pub fn round_count(&self, segment: Workload, name: &str) -> f64 {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for &(seg, round, n, v) in &self.counts {
            if seg == segment && n == name {
                *sums.entry(round).or_default() += v;
            }
        }
        median(&sums.values().map(|&v| v as f64).collect::<Vec<_>>())
    }

    /// Self time per layer in `segment` (nanoseconds) and the segment's
    /// wall time.
    pub fn self_times(&self, segment: Workload) -> (BTreeMap<String, u64>, u64) {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.ns();
            }
        }
        let mut layers: BTreeMap<String, u64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            if s.segment == segment {
                let layer = s.name.split('.').next().unwrap_or_default();
                *layers.entry(layer.to_string()).or_default() += s.ns().saturating_sub(*kids);
            }
        }
        let wall = self
            .walls
            .iter()
            .filter(|w| w.0 == segment)
            .map(|w| w.2 - w.1)
            .sum();
        (layers, wall)
    }

    /// Writes every span and count as JSON lines after `header`.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"segment\":\"{}\",\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.segment.name(), s.round
            )?;
        }
        for (segment, round, name, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{name}\",\"value\":{value},\"segment\":\"{}\",\"round\":{round}}}",
                segment.name()
            )?;
        }
        out.flush()
    }
}

/// The registry in stage order: each pass after every pass it depends on.
fn stage_order() -> Vec<&'static PassSpec> {
    let mut done: Vec<&'static PassSpec> = Vec::with_capacity(REGISTRY.len());
    while done.len() < REGISTRY.len() {
        let stage: Vec<&'static PassSpec> = REGISTRY
            .iter()
            .filter(|p| !done.iter().any(|d| d.name == p.name))
            .filter(|p| p.deps.iter().all(|dep| done.iter().any(|d| d.name == *dep)))
            .collect();
        assert!(!stage.is_empty(), "pass dependencies form a cycle");
        done.extend(stage);
    }
    done
}

/// One report from the trace file, a span around each public call.
fn batch_round(tr: &mut Tracer, path: &Path, reference: &AnalysisReport) -> Result<(), String> {
    tr.next_round();
    tr.next_op();
    let root = tr.enter("bench.report");
    let ds = tr
        .time("schema.open", || Dataset::open(path))
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    let obs = Obs::enabled();
    let ctx = tr.time("context.build", || {
        AnalysisContext::build_obs(&ds, ArimaSpec::DEFAULT, true, &obs)
    });
    let mut partial = PartialReport::default();
    for pass in stage_order() {
        let out = tr.time(format!("passes.{}", pass.name), || {
            (pass.run)(&ctx, &partial, &obs)
        });
        partial.apply(out);
    }
    tr.time("obs.finish", || obs.finish(true));
    tr.exit(root);
    tr.time("check.report", || partial_matches(&partial, reference))
}

/// One ingest: every epoch appended to `service`, and beside it to an
/// `IncrementalPipeline` and through the append's public steps.
fn stream_round(
    tr: &mut Tracer,
    ds: &Dataset,
    service: &AnalysisService<'_>,
    want: &[String],
    reference: &AnalysisReport,
) -> Result<(), String> {
    tr.next_round();
    let pipe_obs = Obs::enabled();
    let mut pipeline =
        IncrementalPipeline::with_obs(ds, PipelineOptions::default(), EPOCH, &pipe_obs)
            .prefix_exact();
    let obs = Obs::enabled();
    let mut scratch = FoldScratch::default();
    let mut acc: Option<EpochContext> = None;
    let mut prefix: Option<Dataset> = None;
    let mut partial = PartialReport::default();
    let mut peak = 0;
    let order = stage_order();
    for (i, shard) in ds.shards(EPOCH).iter().enumerate() {
        tr.next_op();
        let root = tr.enter("bench.append");
        let stats = tr
            .time("serve.append", || service.try_append())
            .map_err(|e| format!("service append {i} failed: {e}"))?
            .ok_or_else(|| format!("service ran out of epochs at {i}"))?;
        let piped = tr
            .time("pipeline.append", || pipeline.try_append_epoch())
            .map_err(|e| format!("pipeline append {i} failed: {e}"))?
            .ok_or_else(|| format!("pipeline ran out of epochs at {i}"))?;
        let snapshot = tr.time("pipeline.snapshot", || pipeline.snapshot_report());

        let incoming = shard.attacks().len() + shard.bots().count();
        peak = peak.max(incoming + acc.as_ref().map_or(0, |a| a.len() + a.bot_rows()));
        let built = tr.time("epoch.build", || {
            EpochContext::build_scratch(shard, &obs, &mut scratch)
        });
        let attacks = built.len();
        acc = Some(match acc.take() {
            None => built,
            Some(prev) => tr.time("epoch.merge", || prev.merge_scratch(built, &mut scratch).0),
        });
        let new_bots = shard
            .bots()
            .any(|(_, b)| b.first_seen >= shard.span().start);
        if i == 0 || attacks > 0 || new_bots {
            prefix = Some(tr.time("schema.epoch_prefix", || ds.epoch_prefix(EPOCH, i + 1)));
        }
        if !stats.reran.is_empty() {
            let fold = acc.as_ref().expect("an epoch was folded");
            let pre = prefix.as_ref().expect("the first epoch builds the prefix");
            let ctx = tr.time("epoch.materialize", || {
                fold.to_context(pre, ArimaSpec::DEFAULT)
            });
            for pass in order.iter().filter(|p| stats.reran.contains(&p.name)) {
                let out = tr.time(format!("passes.{}.rerun", pass.name), || {
                    (pass.run)(&ctx, &partial, &obs)
                });
                partial.apply(out);
            }
        }
        tr.exit(root);
        tr.count("passes.reruns", stats.reran.len() as u64);

        let check = tr.enter("check.append");
        let published = service
            .snapshot()
            .filter(|s| s.watermark == i + 1)
            .ok_or_else(|| format!("no snapshot published at watermark {}", i + 1))?;
        let what = format!("stream snapshot digest at watermark {}", i + 1);
        expect_eq(&what, &report_digest(&published.report), &want[i])?;
        let snapshot = snapshot.ok_or("pipeline has no snapshot after a clean append")?;
        let what = format!("pipeline snapshot digest at watermark {}", i + 1);
        expect_eq(&what, &report_digest(&snapshot), &want[i])?;
        if piped.reran != stats.reran {
            return Err(format!(
                "pipeline and service re-ran different passes at {i}"
            ));
        }
        tr.exit(check);
    }
    tr.count("epoch.peak_resident_rows", peak as u64);
    tr.time("check.replay", || partial_matches(&partial, reference))
}

/// What the serve segment measured outside the spans.
struct ServeStats {
    late_max_us: f64,
    sent: u64,
    failed: u64,
    due_p50_ms: f64,
}

/// The query mix at [`QUERY_RATE`] for `duration`, a span around each
/// query, each wait and each check.
fn serve_segment(
    tr: &mut Tracer,
    ds: &Dataset,
    service: &AnalysisService<'_>,
    reference: &AnalysisReport,
    seed: u64,
    duration: Duration,
) -> Result<ServeStats, String> {
    tr.next_round();
    let queries = schedule(
        ds,
        seed,
        (QUERY_RATE * duration.as_secs_f64()).ceil() as usize,
    );
    let names: BTreeMap<_, String> = MIX
        .iter()
        .map(|&(k, _)| (k.name(), format!("serve.query.{}", k.name())))
        .collect();
    let mut stats = ServeStats {
        late_max_us: 0.0,
        sent: 0,
        failed: 0,
        due_p50_ms: 0.0,
    };
    let mut due_ms = Vec::with_capacity(queries.len());
    let mut idle_from = Instant::now();
    let expected = Expected::new(reference);
    stats.failed = drive(service, &queries, &expected, |slot, kind| {
        tr.next_op();
        tr.record("loadgen.wait", idle_from, slot.start);
        tr.record(names[kind.name()].clone(), slot.start, slot.end);
        stats.sent += 1;
        stats.late_max_us = stats.late_max_us.max(slot.late().as_secs_f64() * 1e6);
        due_ms.push(slot.latency().as_secs_f64() * 1e3);
        idle_from = Instant::now();
    })?;
    stats.due_p50_ms = median(&due_ms);
    Ok(stats)
}

/// Runs the traced replay for `workload` and reports every per-layer metric.
pub(crate) fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let seed = derive_seed(args.seed, workload);
    let (ds, file) = TraceFile::write(args, workload)?;
    let reference = Analysis::new(&ds).run();
    let want = prefix_digests(&ds);
    expect_eq(
        "final prefix digest vs batch",
        want.last().expect("at least one epoch"),
        &report_digest(&reference),
    )?;
    let mut tr = Tracer::new();
    // The selected segment repeats for `--seconds`; the others run once.
    let length = |segment: Workload| {
        if segment == workload {
            args.duration()
        } else {
            Duration::ZERO
        }
    };

    tr.begin_segment(Workload::Batch);
    let until = Instant::now() + length(Workload::Batch);
    loop {
        batch_round(&mut tr, file.path(), &reference)?;
        if Instant::now() >= until {
            break;
        }
    }
    tr.end_segment();
    drop(file);

    tr.begin_segment(Workload::Stream);
    let until = Instant::now() + length(Workload::Stream);
    let serve = loop {
        let obs = Obs::enabled();
        let service = AnalysisService::new(&ds, PipelineOptions::default(), EPOCH, &obs);
        stream_round(&mut tr, &ds, &service, &want, &reference)?;
        if Instant::now() < until {
            continue;
        }
        tr.end_segment();
        check_snapshot(&service, &reference)?;
        tr.begin_segment(Workload::Serve);
        let serve_for = length(Workload::Serve).max(SERVE_ONCE);
        let stats = serve_segment(&mut tr, &ds, &service, &reference, seed, serve_for)?;
        let retained = tr.time("obs.finish", || obs.finish(true)).spans.len();
        tr.count("obs.spans_retained", retained as u64);
        tr.end_segment();
        break stats;
    };
    report(workload, args, &tr, &serve)
}

/// The per-layer metrics, the self-time table and the span file.
fn report(
    workload: Workload,
    args: &Args,
    tr: &Tracer,
    serve: &ServeStats,
) -> Result<Outcome, String> {
    use Workload::{Batch, Serve, Stream};
    let mut metrics = vec![
        Metric::new("schema.open_ms", tr.round_ms(Batch, "schema.open"), "ms"),
        Metric::new(
            "schema.epoch_prefix_ms",
            tr.round_ms(Stream, "schema.epoch_prefix"),
            "ms",
        ),
        Metric::new(
            "context.build_ms",
            tr.round_ms(Batch, "context.build"),
            "ms",
        ),
    ];
    for pass in REGISTRY {
        let name = format!("passes.{}", pass.name);
        metrics.push(Metric::new(
            format!("{name}_ms"),
            tr.round_ms(Batch, &name),
            "ms",
        ));
    }
    for pass in REGISTRY {
        let name = format!("passes.{}.rerun", pass.name);
        metrics.push(Metric::new(
            format!("{name}_ms"),
            tr.round_ms(Stream, &name),
            "ms",
        ));
    }
    metrics.push(Metric::new(
        "passes.reruns",
        tr.round_count(Stream, "passes.reruns"),
        "count",
    ));
    for step in ["build", "merge", "materialize"] {
        let name = format!("epoch.{step}");
        metrics.push(Metric::new(
            format!("{name}_ms"),
            tr.round_ms(Stream, &name),
            "ms",
        ));
    }
    metrics.push(Metric::new(
        "epoch.peak_resident_rows",
        tr.round_count(Stream, "epoch.peak_resident_rows"),
        "count",
    ));
    for name in ["pipeline.append", "pipeline.snapshot", "serve.append"] {
        metrics.push(Metric::new(
            format!("{name}_ms"),
            tr.round_ms(Stream, name),
            "ms",
        ));
    }
    for (kind, _) in MIX {
        let name = format!("serve.query.{}", kind.name());
        for p in [50.0, 99.0] {
            metrics.push(Metric::new(
                format!("{name}_p{p}_us"),
                tr.span_us(Serve, &name, p),
                "us",
            ));
        }
    }
    metrics.push(Metric::new(
        "obs.spans_retained",
        tr.round_count(Serve, "obs.spans_retained"),
        "count",
    ));
    metrics.push(Metric::new("loadgen.late_max_us", serve.late_max_us, "us"));
    metrics.push(Metric::new("loadgen.sent", serve.sent as f64, "count"));

    let mut lines = Vec::new();
    let mut unaccounted = 0.0;
    for segment in Workload::ALL {
        let (layers, wall) = tr.self_times(segment);
        let accounted: u64 = layers.values().sum();
        let share = 1.0 - accounted as f64 / wall.max(1) as f64;
        if segment == workload {
            unaccounted = share;
        }
        let mut line = format!(
            "trace segment={} wall_ms={:.3} unaccounted_share={share:.6} self_ms:",
            segment.name(),
            wall as f64 / 1e6
        );
        for (layer, ns) in &layers {
            let _ = write!(line, " {layer}={:.3}", *ns as f64 / 1e6);
        }
        lines.push(line);
    }
    metrics.push(Metric::new("trace.unaccounted_share", unaccounted, "ratio"));
    let op_p50_ms = match workload {
        Batch => tr.span_us(Batch, "bench.report", 50.0) / 1e3,
        Stream => tr.span_us(Stream, "serve.append", 50.0) / 1e3,
        Serve => serve.due_p50_ms,
    };
    metrics.push(Metric::new("trace.op_p50_ms", op_p50_ms, "ms"));

    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"spans\":{}}}",
        workload.name(),
        args.seed,
        args.seconds,
        tr.spans().len()
    );
    tr.write(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    lines.push(format!(
        "trace spans={} file={}",
        tr.spans().len(),
        path.display()
    ));
    for m in &metrics {
        lines.push(format!(
            "{} {} {} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        ));
    }
    Ok(Outcome {
        attempted: tr.ops(),
        failed: serve.failed,
        metrics,
        lines,
    })
}
