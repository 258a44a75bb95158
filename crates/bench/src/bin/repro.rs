//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                 # full-scale trace, all experiments
//! repro t4 f12 f13      # only the listed experiments
//! repro --scale 0.1 f7  # scaled-down trace
//! repro --md            # emit EXPERIMENTS.md content (paper vs measured)
//! repro --out DIR       # write each artifact to DIR/<id>.txt
//! repro --list          # list experiment ids
//! repro --epoch-bench   # time monolithic vs epoch-folded vs incremental,
//!                       # emit BENCH_epochs.json
//! repro --epoch-bench --smoke  # same on the small trace (CI mode)
//! repro --pass-bench    # hold the chunked kernels to the baseline report,
//!                       # time each pass body, emit BENCH_passes.json
//! repro --pass-bench --smoke  # same on the small trace (CI mode)
//! repro --ingest-bench  # time v1 serial vs framed v2 decode and serial
//!                       # vs chunked CSV parse, emit BENCH_ingest.json
//! repro --ingest-bench --smoke  # same on the small trace (CI mode)
//! repro --serve-bench   # concurrent query throughput over the snapshot
//!                       # service, snapshot-isolation hard gate,
//!                       # emit BENCH_serve.json
//! repro --serve-bench --smoke  # same on the small trace (CI mode)
//! repro --telemetry-json FILE  # write the run's span/metric telemetry
//! repro --report-digest # print the golden-trace report digest
//! repro --soak N        # N seeded differential rounds over the variant
//!                       # matrix; writes SOAK_FAILURE.json on divergence
//! repro --soak N --soak-seed 0xBEEF  # replay a specific seed
//! repro --soak N --soak-full --scale 1.0  # weekly paper-scale soak
//! ```
//!
//! Unknown flags, unknown experiment ids, missing flag values and a
//! scale that is not a finite number above 0 exit with status 1 before
//! any trace is generated.

use ddos_analytics::collab::concurrent::CollabAnalysis;
use ddos_analytics::{
    passes, Analysis, AnalysisContext, AnalysisReport, IncrementalPipeline, KernelPolicy,
    PipelineOptions, StreamFold,
};
use ddos_obs::Obs;
use ddos_report::{compare, paper_comparisons, render, EXPERIMENTS};
use ddos_schema::{codec, csv, framed, Seconds};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::baseline_report;

/// One `repro` invocation, parsed.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// `--scale`; each mode picks its own default when absent.
    scale: Option<f64>,
    /// Experiment ids to render (all when empty).
    ids: Vec<String>,
    md: bool,
    list: bool,
    epoch_bench: bool,
    pass_bench: bool,
    ingest_bench: bool,
    serve_bench: bool,
    smoke: bool,
    report_digest: bool,
    soak_rounds: Option<u32>,
    soak_seed: Option<u64>,
    soak_full: bool,
    out_dir: Option<String>,
    telemetry_out: Option<String>,
}

/// The value following `flag`; a missing value or another flag is an
/// error.
fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} takes a value"))
}

/// Parses the command line (without the program name). Everything is
/// checked here, before any trace is generated: unknown flags and
/// experiment ids, missing values, unparsable numbers, and a scale that
/// is not a finite number above 0.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let raw = flag_value(arg, &mut it)?;
                let scale: f64 = raw
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad scale {raw:?}: {e}"))?;
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(format!(
                        "bad scale {raw:?}: must be a finite number above 0"
                    ));
                }
                args.scale = Some(scale);
            }
            "--out" => args.out_dir = Some(flag_value(arg, &mut it)?.clone()),
            "--telemetry-json" => args.telemetry_out = Some(flag_value(arg, &mut it)?.clone()),
            "--md" => args.md = true,
            "--list" => args.list = true,
            "--epoch-bench" => args.epoch_bench = true,
            "--pass-bench" => args.pass_bench = true,
            "--ingest-bench" => args.ingest_bench = true,
            "--serve-bench" => args.serve_bench = true,
            "--smoke" => args.smoke = true,
            "--report-digest" => args.report_digest = true,
            "--soak" => {
                let raw = flag_value(arg, &mut it)?;
                let rounds = raw
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad round count {raw:?}: {e}"))?;
                args.soak_rounds = Some(rounds);
            }
            "--soak-seed" => {
                let raw = flag_value(arg, &mut it)?;
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => raw.parse().ok(),
                };
                let seed = parsed
                    .ok_or_else(|| format!("bad seed {raw:?}: want a decimal or 0x-hex u64"))?;
                args.soak_seed = Some(seed);
            }
            "--soak-full" => args.soak_full = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id if EXPERIMENTS.iter().any(|e| e.id == id) => args.ids.push(id.to_string()),
            id => return Err(format!("unknown experiment id {id:?} (try --list)")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(1);
    });
    if args.list {
        for e in EXPERIMENTS {
            println!("{:<4} {} — {}", e.id, e.title, e.description);
        }
        return;
    }
    let scale = args.scale.unwrap_or(1.0);
    if args.epoch_bench {
        run_epoch_bench(scale, args.smoke);
        return;
    }
    if args.pass_bench {
        run_pass_bench(scale, args.smoke);
        return;
    }
    if args.ingest_bench {
        run_ingest_bench(scale, args.smoke);
        return;
    }
    if args.serve_bench {
        run_serve_bench(scale, args.smoke);
        return;
    }
    if args.report_digest {
        run_report_digest();
        return;
    }
    if let Some(rounds) = args.soak_rounds {
        // Soak defaults to the CI smoke scale unless --scale overrides
        // it (weekly paper-scale runs pass --scale 1.0 explicitly).
        let soak_scale = args.scale.unwrap_or(0.05);
        run_soak_mode(
            rounds,
            args.soak_seed,
            soak_scale,
            args.soak_full,
            args.telemetry_out,
        );
        return;
    }

    eprintln!("generating trace at scale {scale}...");
    let t0 = std::time::Instant::now();
    let trace = generate(&SimConfig {
        scale,
        ..SimConfig::default()
    });
    eprintln!(
        "generated {} attacks in {:?}; running analyses...",
        trace.dataset.len(),
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let report = AnalysisReport::run(&trace.dataset);
    eprintln!("analysis pipeline finished in {:?}\n", t1.elapsed());

    if let Some(path) = &args.telemetry_out {
        let json = serde_json::to_string_pretty(&report.telemetry).expect("telemetry serializes");
        std::fs::write(path, json).expect("writing telemetry json");
        eprintln!("wrote {path}");
        // Telemetry-only invocation: done once the artifact is written.
        if args.ids.is_empty() && !args.md && args.out_dir.is_none() {
            return;
        }
    }

    if args.md {
        print!("{}", experiments_markdown(scale, &trace, &report));
        return;
    }

    let selected: Vec<&str> = if args.ids.is_empty() {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("creating --out directory");
    }
    for id in selected {
        let out = render(id, &trace, &report).expect("ids are checked at parse time");
        if let Some(dir) = &args.out_dir {
            let path = format!("{dir}/{id}.txt");
            std::fs::write(&path, &out).expect("writing artifact");
            eprintln!("wrote {path}");
        } else {
            println!("======================================================");
            println!("=== {id}");
            println!("======================================================");
            println!("{out}");
        }
    }
    if let Some(dir) = &args.out_dir {
        // The comparison summary rides along for free.
        let md = experiments_markdown(scale, &trace, &report);
        let path = format!("{dir}/EXPERIMENTS.md");
        std::fs::write(&path, md).expect("writing comparison");
        eprintln!("wrote {path}");
    }
}

/// Times the epoch-sharded engine against the monolithic rebuild —
/// batch fold, incremental total, and the marginal cost of appending
/// one more epoch to an already-folded prefix — asserts every variant
/// serializes byte-identically, and writes `BENCH_epochs.json` (in
/// smoke mode too, flagged `"smoke": true`, so CI uploads a real
/// artifact).
///
/// The headline ratio is `append_one_epoch_s / monolithic_s`: what one
/// more week of trace costs with the epoch engine versus re-running the
/// pre-refactor monolithic pipeline ([`baseline_report`]) from scratch.
fn run_epoch_bench(scale: f64, smoke: bool) {
    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    let epoch_len = Seconds::WEEK;
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let epochs = ds.shards(epoch_len).len();
    eprintln!(
        "generated {} attacks, {} bot records, {} weekly epochs",
        ds.len(),
        ds.bots().len(),
        epochs
    );
    let opts = PipelineOptions::new().telemetry(false);

    // Correctness first: every epoch-engine spelling must serialize
    // byte-identically to the batch pipeline.
    let json = |r: &AnalysisReport| serde_json::to_string(r).expect("report serializes");
    let want = json(&Analysis::new(ds).options(opts).run());
    assert_eq!(
        json(&Analysis::new(ds).options(opts).epochs(epoch_len).run()),
        want,
        "epoch-folded report diverged from batch"
    );
    assert_eq!(
        json(
            &Analysis::new(ds)
                .options(opts)
                .epochs(epoch_len)
                .incremental()
                .run()
        ),
        want,
        "incremental report diverged from batch"
    );
    eprintln!("report equivalence: batch == epoch-folded == incremental");

    // Peak residency of the bounded-memory streaming fold, versus the
    // raw row count a monolithic build holds resident.
    let obs = Obs::enabled();
    let mut fold = StreamFold::new(ds.window());
    for batch in ddos_sim::feed::replay_epochs(ds, epoch_len) {
        fold.push(&batch, &obs);
    }
    let peak_rows = fold.peak_resident_rows();
    let monolithic_rows = (ds.len() + ds.bots().len()) as u64;
    let streamed_ctx = fold
        .finish()
        .expect("trace has at least one epoch")
        .into_context(ds, ArimaSpec::DEFAULT);
    assert_eq!(
        json(&Analysis::over(&streamed_ctx).run()),
        want,
        "streamed report diverged from batch"
    );
    drop(streamed_ctx);
    eprintln!("report equivalence: batch == streamed fold");

    // Warm-up, then interleaved best-of-N rounds: systematic drift hits
    // every variant alike instead of whichever ran last.
    let _ = baseline_report(ds, ArimaSpec::DEFAULT);
    let rounds = if smoke { 1 } else { 3 };
    let mut monolithic_s = f64::MAX;
    let mut folded_s = f64::MAX;
    let mut incremental_s = f64::MAX;
    let mut append_one_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let r = baseline_report(ds, ArimaSpec::DEFAULT);
        monolithic_s = monolithic_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = Analysis::new(ds).options(opts).epochs(epoch_len).run();
        folded_s = folded_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = Analysis::new(ds)
            .options(opts)
            .epochs(epoch_len)
            .incremental()
            .run();
        incremental_s = incremental_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        // The marginal epoch: fold everything but the last epoch
        // untimed, then time appending the final one (context build,
        // merge, and the dirty-pass re-run included).
        let mut inc = IncrementalPipeline::new(ds, opts, epoch_len);
        while inc.appended() + 1 < inc.epochs() {
            inc.append_epoch();
        }
        let t = std::time::Instant::now();
        inc.append_epoch();
        append_one_s = append_one_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(inc));
    }

    println!("epoch engine (weekly epochs, best of {rounds}):");
    println!("  monolithic rebuild:        {monolithic_s:>8.3} s");
    println!("  epoch-folded batch:        {folded_s:>8.3} s");
    println!("  incremental (all epochs):  {incremental_s:>8.3} s");
    println!("  append one epoch:          {append_one_s:>8.3} s");
    println!(
        "  append/monolithic ratio:   {:>8.3}  (want < 0.25)",
        append_one_s / monolithic_s
    );
    println!("  peak resident rows:        {peak_rows:>8}  (monolithic holds {monolithic_rows})");
    if !smoke {
        assert!(
            append_one_s < monolithic_s / 4.0,
            "appending one epoch ({append_one_s:.3} s) is not under a quarter \
             of the monolithic rebuild ({monolithic_s:.3} s)"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"bot_records\": {},\n    \"epochs\": {}\n  }},\n  \
         \"epoch_len_s\": {},\n  \"rounds\": {},\n  \
         \"monolithic_s\": {:.6},\n  \"epoch_folded_s\": {:.6},\n  \
         \"incremental_total_s\": {:.6},\n  \"append_one_epoch_s\": {:.6},\n  \
         \"append_vs_monolithic\": {:.4},\n  \
         \"peak_resident_rows\": {},\n  \"monolithic_resident_rows\": {}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        ds.bots().len(),
        epochs,
        epoch_len.get(),
        rounds,
        monolithic_s,
        folded_s,
        incremental_s,
        append_one_s,
        append_one_s / monolithic_s,
        peak_rows,
        monolithic_rows,
    );
    std::fs::write("BENCH_epochs.json", &out).expect("writing BENCH_epochs.json");
    eprintln!("wrote BENCH_epochs.json");
}

/// The PR 6 baseline for the end-to-end parallel pipeline at paper
/// scale: `full_pipeline_parallel_s` from `BENCH_context.json` as
/// committed by the PR 6 epoch-engine change (`git show
/// 39da03f:BENCH_context.json`), measured by the context-build bench
/// mode this binary had then, on the container of that time. The
/// pass-bench asserts the current kernel pipeline beats it by >= 1.5x.
/// (The in-binary [`baseline_report`] is a weaker baseline: it reruns
/// the pre-kernel algorithms but inherits the later infrastructure
/// wins, so it understates the release-over-release delta.)
const PR6_PIPELINE_PARALLEL_S: f64 = 0.308603;

/// Holds the chunked-kernel engine to the pre-kernel algorithms, times
/// every registered pass body and the end-to-end pipeline against
/// [`baseline_report`], and writes `BENCH_passes.json` (in smoke mode
/// too, flagged `"smoke": true`).
///
/// Correctness gates run before any timing, in smoke mode too: the
/// serialized report must be byte-identical across [`baseline_report`]
/// (the public `compute(ds)` bodies the kernels replaced) and the auto
/// and forced-chunked policies, and the sort-sweep concurrent
/// collaboration detector must reproduce the pairwise scan of
/// [`CollabAnalysis::compute`] exactly. In full mode the run
/// additionally asserts the end-to-end speedup target (>= 1.5x vs the
/// committed PR 6 baseline, and no regression vs [`baseline_report`])
/// and that the sweep scales sub-quadratically (half-trace vs
/// full-trace timing ratio).
fn run_pass_bench(scale: f64, smoke: bool) {
    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    eprintln!("generated {} attacks", ds.len());

    // Correctness first: the chunked kernels must not move a single
    // report byte, under any chunking.
    let json = |r: &AnalysisReport| serde_json::to_string(r).expect("report serializes");
    let run_with =
        |kernels: KernelPolicy| Analysis::new(ds).telemetry(false).kernels(kernels).run();
    let want = json(&baseline_report(ds, ArimaSpec::DEFAULT));
    for policy in [
        KernelPolicy::Auto,
        KernelPolicy::Chunked(1),
        KernelPolicy::Chunked(3),
    ] {
        assert_eq!(
            json(&run_with(policy)),
            want,
            "{policy:?} report diverged from the baseline report"
        );
    }
    eprintln!("report equivalence: baseline == auto == chunked(1) == chunked(3)");

    // The sweep detector must reproduce the pairwise scan exactly —
    // same pairs, same events, same histogram maps.
    let ctx = AnalysisContext::build(ds, ArimaSpec::DEFAULT);
    let sweep =
        serde_json::to_string(&CollabAnalysis::compute_ctx(&ctx)).expect("collab serializes");
    let pairwise = serde_json::to_string(&CollabAnalysis::compute(ds)).expect("collab serializes");
    assert_eq!(
        sweep, pairwise,
        "sort-sweep diverged from the pairwise scan"
    );
    eprintln!("collaboration equivalence: sort-sweep == pairwise scan");

    // Per-pass timings: run every registered pass body against a fully
    // populated partial report (so dependency slots are present),
    // best-of-N.
    let obs = Obs::disabled();
    let partial = passes::execute(&ctx, false, &obs);
    let rounds = if smoke { 1 } else { 5 };
    let n = passes::REGISTRY.len();
    let mut kernel_mins = vec![f64::MAX; n];
    for _ in 0..rounds {
        for (i, pass) in passes::REGISTRY.iter().enumerate() {
            let t = std::time::Instant::now();
            let out = (pass.run)(&ctx, &partial, &obs);
            kernel_mins[i] = kernel_mins[i].min(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(out));
        }
    }

    // End to end: two baselines. The in-binary one is
    // [`baseline_report`] — the pre-kernel algorithms with no shared
    // context, the same denominator `--epoch-bench` uses. The asserted
    // one is PR 6's committed end-to-end figure (see
    // `PR6_PIPELINE_PARALLEL_S`). Interleaved best-of-N after a
    // warm-up of each.
    let _ = baseline_report(ds, ArimaSpec::DEFAULT);
    let _ = run_with(KernelPolicy::Auto);
    let mut baseline_s = f64::MAX;
    let mut pipeline_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let r = baseline_report(ds, ArimaSpec::DEFAULT);
        baseline_s = baseline_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = run_with(KernelPolicy::Auto);
        pipeline_s = pipeline_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));
    }
    let end_to_end = baseline_s / pipeline_s;
    let vs_pr6 = PR6_PIPELINE_PARALLEL_S / pipeline_s;

    // Scaling check: the sweep's cost on a half-size trace versus the
    // full trace. A quadratic detector doubles its ratio with size; the
    // sweep must stay near-linear in the per-target slice lengths.
    let half_trace = generate(&SimConfig {
        scale: cfg.scale * 0.5,
        ..cfg
    });
    let half_ctx = AnalysisContext::build(&half_trace.dataset, ArimaSpec::DEFAULT);
    let mut half_s = f64::MAX;
    let mut full_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let c = CollabAnalysis::compute_ctx(&half_ctx);
        half_s = half_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(c));

        let t = std::time::Instant::now();
        let c = CollabAnalysis::compute_ctx(&ctx);
        full_s = full_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(c));
    }
    let n_half = half_trace.dataset.len();
    let n_full = ds.len();
    let size_ratio = n_full as f64 / n_half as f64;
    let time_ratio = full_s / half_s;

    println!("pass kernels (best of {rounds}):");
    println!("  {:<22} {:>12}", "pass", "kernel_us");
    for (i, pass) in passes::REGISTRY.iter().enumerate() {
        println!("  {:<22} {:>12.1}", pass.name, kernel_mins[i] * 1e6);
    }
    println!("end to end:");
    println!("  baseline report (in-binary):  {baseline_s:>8.3} s");
    println!("  chunked kernels (auto):       {pipeline_s:>8.3} s");
    println!("  speedup (in-binary):          {end_to_end:>8.2}x  (want >= 1.0)");
    println!("  PR 6 committed baseline:      {PR6_PIPELINE_PARALLEL_S:>8.3} s");
    println!("  speedup vs PR 6:              {vs_pr6:>8.2}x  (want >= 1.5)");
    println!("collaboration sweep scaling:");
    println!("  half trace ({n_half} attacks):  {:>10.6} s", half_s);
    println!("  full trace ({n_full} attacks):  {:>10.6} s", full_s);
    println!(
        "  time ratio {time_ratio:.2} for size ratio {size_ratio:.2} \
         (quadratic would give {:.2})",
        size_ratio * size_ratio
    );
    if !smoke {
        assert!(
            vs_pr6 >= 1.5,
            "end-to-end speedup vs the PR 6 baseline is {vs_pr6:.2}x \
             ({pipeline_s:.3} s vs {PR6_PIPELINE_PARALLEL_S:.3} s), under the 1.5x target"
        );
        assert!(
            end_to_end >= 1.0,
            "chunked kernels regressed below the baseline report \
             ({pipeline_s:.3} s vs {baseline_s:.3} s)"
        );
        assert!(
            time_ratio < size_ratio * size_ratio * 0.75,
            "sweep time ratio {time_ratio:.2} for size ratio {size_ratio:.2} \
             is not clearly sub-quadratic"
        );
    }

    let mut rows = String::new();
    for (i, pass) in passes::REGISTRY.iter().enumerate() {
        rows.push_str(&format!(
            "    {{ \"name\": \"{}\", \"kernel_s\": {:.6} }}{}\n",
            pass.name,
            kernel_mins[i],
            if i + 1 == n { "" } else { "," }
        ));
    }
    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {}\n  }},\n  \"rounds\": {},\n  \"passes\": [\n{}  ],\n  \
         \"end_to_end\": {{\n    \"baseline_report_s\": {:.6},\n    \
         \"kernel_policy_s\": {:.6},\n    \"speedup_in_binary\": {:.3},\n    \
         \"pr6_baseline_s\": {:.6},\n    \"speedup_vs_pr6\": {:.3}\n  }},\n  \
         \"collab_scaling\": {{\n    \"half_attacks\": {},\n    \
         \"full_attacks\": {},\n    \"half_s\": {:.6},\n    \"full_s\": {:.6},\n    \
         \"size_ratio\": {:.3},\n    \"time_ratio\": {:.3}\n  }}\n}}\n",
        smoke,
        cfg.scale,
        n_full,
        rounds,
        rows,
        baseline_s,
        pipeline_s,
        end_to_end,
        PR6_PIPELINE_PARALLEL_S,
        vs_pr6,
        n_half,
        n_full,
        half_s,
        full_s,
        size_ratio,
        time_ratio,
    );
    std::fs::write("BENCH_passes.json", &out).expect("writing BENCH_passes.json");
    eprintln!("wrote BENCH_passes.json");
}

/// Times trace ingest across the v1 serial codec, the framed v2
/// container, and the CSV importer (serial vs chunked), and writes
/// `BENCH_ingest.json` (in smoke mode too, flagged `"smoke": true`).
///
/// Correctness gates run before any timing, in smoke mode too: the v1
/// decode, the v2 decode (auto and forced multi-worker), and the
/// memory-mapped [`Dataset::open`] of both on-disk formats must all
/// yield bit-identical datasets (pinned by re-encoding through the v1
/// codec), and the chunked CSV parse must match the serial parse row
/// for row. In full mode the run additionally hard-asserts the framed
/// v2 decode beats the v1 serial decode by >= 2x.
fn run_ingest_bench(scale: f64, smoke: bool) {
    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    eprintln!("generated {} attacks", ds.len());

    let v1 = codec::encode(ds);
    let v2 = framed::encode(ds);

    // Correctness first: every ingest path must reproduce the dataset
    // bit for bit. Re-encoding through the v1 codec is the canonical
    // fingerprint — identical bytes mean identical records in
    // identical order.
    let fingerprint = |d: &ddos_schema::Dataset| codec::encode(d);
    let d1 = codec::decode(&v1).expect("v1 decode");
    assert_eq!(fingerprint(&d1), v1, "v1 round trip diverged");
    let (d2, stats) = framed::decode_with_stats(&v2).expect("v2 decode");
    assert_eq!(fingerprint(&d2), v1, "framed v2 decode diverged from v1");
    let (d2mt, _) = framed::decode_with_workers(&v2, 4).expect("v2 multi-worker decode");
    assert_eq!(
        fingerprint(&d2mt),
        v1,
        "multi-worker v2 decode diverged from serial"
    );
    let dir = std::env::temp_dir();
    let p1 = dir.join("repro_ingest_v1.ddtl");
    let p2 = dir.join("repro_ingest_v2.ddtl");
    std::fs::write(&p1, &v1).expect("writing v1 temp trace");
    std::fs::write(&p2, &v2).expect("writing v2 temp trace");
    for p in [&p1, &p2] {
        let d = ddos_schema::Dataset::open(p).expect("mmap open");
        assert_eq!(
            fingerprint(&d),
            v1,
            "mmap decode of {} diverged",
            p.display()
        );
    }
    eprintln!("decode equivalence: v1 == v2 == v2(workers=4) == mmap(v1) == mmap(v2)");

    let csv_text = csv::attacks_to_csv(ds.attacks());
    let serial = csv::attacks_from_csv(&csv_text).expect("serial CSV parse");
    let chunked = csv::attacks_from_csv_chunked_with(&csv_text, 4).expect("chunked CSV parse");
    assert_eq!(serial, chunked, "chunked CSV parse diverged from serial");
    assert_eq!(
        serial.as_slice(),
        ds.attacks(),
        "CSV round trip diverged from the original records"
    );
    eprintln!("csv equivalence: serial == chunked == original records");

    // Interleaved best-of-N: one warm-up pass of every path, then each
    // round times every path back to back so cache and allocator state
    // stay comparable.
    let rounds = if smoke { 1 } else { 5 };
    drop(std::hint::black_box(codec::decode(&v1).unwrap()));
    drop(std::hint::black_box(framed::decode(&v2).unwrap()));
    drop(std::hint::black_box(
        ddos_schema::Dataset::open(&p2).unwrap(),
    ));
    drop(std::hint::black_box(
        csv::attacks_from_csv(&csv_text).unwrap(),
    ));
    drop(std::hint::black_box(
        csv::attacks_from_csv_chunked(&csv_text).unwrap(),
    ));
    let mut v1_s = f64::MAX;
    let mut v2_s = f64::MAX;
    let mut mmap_s = f64::MAX;
    let mut csv_serial_s = f64::MAX;
    let mut csv_chunked_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let d = codec::decode(&v1).unwrap();
        v1_s = v1_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let d = framed::decode(&v2).unwrap();
        v2_s = v2_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let d = ddos_schema::Dataset::open(&p2).unwrap();
        mmap_s = mmap_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let r = csv::attacks_from_csv(&csv_text).unwrap();
        csv_serial_s = csv_serial_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = csv::attacks_from_csv_chunked(&csv_text).unwrap();
        csv_chunked_s = csv_chunked_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));
    }
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);

    let decode_speedup = v1_s / v2_s;
    let csv_speedup = csv_serial_s / csv_chunked_s;
    println!("ingest (best of {rounds}):");
    println!(
        "  trace: {} attacks, v1 {} KiB, v2 {} KiB in {} frames",
        ds.len(),
        v1.len() / 1024,
        v2.len() / 1024,
        stats.frames
    );
    println!("  v1 serial decode:   {:>10.6} s", v1_s);
    println!(
        "  v2 framed decode:   {:>10.6} s  ({decode_speedup:.2}x vs v1, {} workers)",
        v2_s, stats.workers
    );
    println!("  v2 mmap open:       {:>10.6} s", mmap_s);
    println!("  csv serial parse:   {:>10.6} s", csv_serial_s);
    println!(
        "  csv chunked parse:  {:>10.6} s  ({csv_speedup:.2}x vs serial)",
        csv_chunked_s
    );
    if !smoke {
        assert!(
            decode_speedup >= 2.0,
            "framed v2 decode speedup is {decode_speedup:.2}x \
             ({v2_s:.6} s vs {v1_s:.6} s), under the 2x target"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"v1_bytes\": {},\n    \"v2_bytes\": {},\n    \
         \"v2_frames\": {}\n  }},\n  \"rounds\": {},\n  \"decode\": {{\n    \
         \"v1_serial_s\": {:.6},\n    \"v2_framed_s\": {:.6},\n    \
         \"v2_mmap_open_s\": {:.6},\n    \"workers\": {},\n    \
         \"speedup\": {:.3}\n  }},\n  \"csv\": {{\n    \
         \"serial_s\": {:.6},\n    \"chunked_s\": {:.6},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        v1.len(),
        v2.len(),
        stats.frames,
        rounds,
        v1_s,
        v2_s,
        mmap_s,
        stats.workers,
        decode_speedup,
        csv_serial_s,
        csv_chunked_s,
        csv_speedup,
    );
    std::fs::write("BENCH_ingest.json", &out).expect("writing BENCH_ingest.json");
    eprintln!("wrote BENCH_ingest.json");
}

/// Benchmarks the snapshot service under concurrent load and hard-gates
/// its isolation contract, writing `BENCH_serve.json` (in smoke mode
/// too, flagged `"smoke": true`, so CI uploads a real artifact).
///
/// Correctness gates run before any number is reported, in smoke mode
/// too:
///
/// 1. **Snapshot isolation under concurrency** — reader threads hammer
///    queries while the writer appends every epoch; every watermark any
///    reader observed must digest byte-identically to a fresh
///    monolithic run over the same epoch prefix.
/// 2. **Fault atomicity** (debug builds; the seam is compiled out of
///    release) — an `epoch/merge` fault injected mid-serve leaves the
///    published snapshot byte-identical, and the retry converges to the
///    clean full report.
fn run_serve_bench(scale: f64, smoke: bool) {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    use ddos_serve::AnalysisService;

    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    let epoch_len = Seconds::WEEK;
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let epochs = ds.shards(epoch_len).len();
    eprintln!(
        "generated {} attacks, {} bot records, {} weekly epochs",
        ds.len(),
        ds.bots().len(),
        epochs
    );
    let digest = |r: &AnalysisReport| {
        ddos_obs::fnv1a_64_hex(
            serde_json::to_string(r)
                .expect("report serializes")
                .as_bytes(),
        )
    };

    // Phase 1: concurrent append + query. The writer ingests every
    // epoch; readers answer typed queries throughout and record the
    // snapshot digest of each watermark they observe.
    let obs = Obs::enabled();
    let service = AnalysisService::new(ds, PipelineOptions::default(), epoch_len, &obs);
    let reader_threads = 4usize;
    let done = AtomicBool::new(false);
    let t0 = std::time::Instant::now();
    let (append_total_s, reader_results) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let t = std::time::Instant::now();
            service.ingest_all().expect("clean ingest");
            done.store(true, Ordering::Release);
            t.elapsed().as_secs_f64()
        });
        let readers: Vec<_> = (0..reader_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut typed_queries = 0u64;
                    let mut last = 0usize;
                    let mut digests: BTreeMap<usize, String> = BTreeMap::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        // One rotating typed query per spin, answered
                        // from whatever snapshot is published.
                        let answered = match typed_queries % 4 {
                            0 => service.top_targets(5).map(|a| a.watermark),
                            1 => service.family_breakdown().map(|a| a.watermark),
                            2 => service.shift_series().map(|a| a.watermark),
                            _ => service.blacklist_verdicts().map(|a| a.watermark),
                        };
                        if let Some(watermark) = answered {
                            typed_queries += 1;
                            assert!(watermark >= last, "watermark went backwards");
                            last = watermark;
                        }
                        if let Some(snap) = service.snapshot() {
                            digests
                                .entry(snap.watermark)
                                .or_insert_with(|| digest(&snap.report));
                        }
                        if finished {
                            break;
                        }
                    }
                    (typed_queries, digests)
                })
            })
            .collect();
        let append_total_s = writer.join().expect("writer thread");
        let results: Vec<_> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect();
        (append_total_s, results)
    });
    let concurrent_s = t0.elapsed().as_secs_f64();
    let typed_queries: u64 = reader_results.iter().map(|(n, _)| n).sum();
    let mut observed: BTreeMap<usize, String> = BTreeMap::new();
    for (_, digests) in &reader_results {
        for (w, d) in digests {
            match observed.get(w) {
                None => {
                    observed.insert(*w, d.clone());
                }
                Some(seen) => {
                    assert_eq!(seen, d, "two readers saw different bytes at watermark {w}")
                }
            }
        }
    }
    assert!(
        observed.contains_key(&epochs),
        "no reader observed the final watermark"
    );

    // The hard gate: every observed watermark must answer exactly like
    // a fresh monolithic run over the same epoch prefix.
    for (w, got) in &observed {
        let fresh = digest(&Analysis::new(&ds.epoch_prefix(epoch_len, *w)).run());
        assert_eq!(
            got, &fresh,
            "watermark {w} served under concurrent append diverged from a \
             fresh {w}-epoch monolithic run"
        );
    }
    eprintln!(
        "snapshot isolation: {} watermarks observed under concurrent \
         append, all byte-identical to fresh prefix runs",
        observed.len()
    );

    // Phase 2: fault atomicity through the serve path (debug only —
    // the failpoint seam is compiled out of release builds).
    if ddos_failpoints::ACTIVE {
        let fault_obs = Obs::enabled();
        let faulted = AnalysisService::new(ds, PipelineOptions::default(), epoch_len, &fault_obs);
        faulted
            .try_append()
            .expect("clean append")
            .expect("epoch 0");
        faulted
            .try_append()
            .expect("clean append")
            .expect("epoch 1");
        let before = faulted.snapshot().expect("published");
        let before_digest = digest(&before.report);
        {
            let _scope = ddos_failpoints::FailPlan::new()
                .fail_nth(ddos_failpoints::names::EPOCH_MERGE, 0)
                .install();
            faulted
                .try_append()
                .expect_err("injected epoch/merge fault must surface");
        }
        let after = faulted.snapshot().expect("still published");
        assert_eq!(
            after.watermark, before.watermark,
            "fault moved the watermark"
        );
        assert_eq!(
            digest(&after.report),
            before_digest,
            "fault disturbed the published snapshot"
        );
        faulted.ingest_all().expect("clean retry");
        assert_eq!(
            digest(&faulted.snapshot().expect("published").report),
            *observed.get(&epochs).expect("final watermark verified"),
            "post-fault recovery diverged from the clean full report"
        );
        eprintln!("fault atomicity: faulted append left the snapshot untouched, retry converged");
    } else {
        eprintln!("fault atomicity: skipped (release build: fault seam compiled out)");
    }

    let queries_answered = obs.counter(ddos_obs::names::SERVE_QUERIES_ANSWERED).get();
    let queries_per_sec = typed_queries as f64 / concurrent_s;
    let appends_per_sec = epochs as f64 / append_total_s;
    println!("serve bench (weekly epochs, {reader_threads} readers):");
    println!("  append all {epochs} epochs:      {append_total_s:>8.3} s");
    println!("  typed queries answered:    {typed_queries:>8}");
    println!("  query throughput:          {queries_per_sec:>8.0} /s (concurrent with appends)");
    println!("  watermarks verified:       {:>8}", observed.len());
    if !smoke {
        assert!(
            queries_per_sec > 1_000.0,
            "snapshot queries under concurrent append fell below 1k/s \
             ({queries_per_sec:.0}/s) — reads are blocking on the writer"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"bot_records\": {},\n    \"epochs\": {}\n  }},\n  \
         \"epoch_len_s\": {},\n  \"reader_threads\": {},\n  \
         \"append_total_s\": {:.6},\n  \"appends_per_sec\": {:.3},\n  \
         \"typed_queries\": {},\n  \"queries_answered\": {},\n  \
         \"queries_per_sec\": {:.1},\n  \"verified_watermarks\": {}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        ds.bots().len(),
        epochs,
        epoch_len.get(),
        reader_threads,
        append_total_s,
        appends_per_sec,
        typed_queries,
        queries_answered,
        queries_per_sec,
        observed.len(),
    );
    std::fs::write("BENCH_serve.json", &out).expect("writing BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
}

/// Prints the FNV-1a 64 digest of the golden trace's full report — the
/// value `tests/golden/report_small.digest` pins. Regenerate the file
/// with `repro --report-digest > tests/golden/report_small.digest`
/// after an intentional report change.
fn run_report_digest() {
    let cfg = SimConfig::small();
    let trace = generate(&cfg);
    let report = AnalysisReport::run(&trace.dataset);
    let json = serde_json::to_string(&report).expect("report serializes");
    println!("{}", ddos_obs::fnv1a_64_hex(json.as_bytes()));
    eprintln!(
        "golden trace: scale {}, seed {:#x}, {} attacks, {} report bytes",
        cfg.scale,
        cfg.seed,
        trace.dataset.len(),
        json.len()
    );
}

/// `--soak N`: seeded differential soak over the variant matrix (see
/// `ddos-testkit`). Green rounds print a table row each; the first
/// divergence writes `SOAK_FAILURE.json` (the CI artifact), prints the
/// one-line repro command, and exits non-zero.
fn run_soak_mode(
    rounds: u32,
    base_seed: Option<u64>,
    scale: f64,
    full_matrix: bool,
    telemetry_out: Option<String>,
) {
    let opts = ddos_testkit::SoakOptions {
        rounds,
        base_seed: base_seed.unwrap_or(ddos_testkit::SoakOptions::default().base_seed),
        scale,
        full_matrix,
        faults: true,
    };
    eprintln!(
        "soak: {} rounds, base seed {:#x}, scale {}, {} matrix, faults {}",
        opts.rounds,
        opts.base_seed,
        opts.scale,
        if opts.full_matrix { "full" } else { "curated" },
        if ddos_testkit::failpoints::ACTIVE {
            "on"
        } else {
            "off (release build)"
        },
    );
    let obs = Obs::enabled();
    println!("round  seed                cells  serve  probe                  digest");
    let result = ddos_testkit::run_soak(&opts, &obs, |r| {
        println!(
            "{:<5}  {:#018x}  {:<5}  {:<5}  {:<21}  {}",
            r.round,
            r.seed,
            r.cells,
            r.serve_epochs,
            r.probed.as_deref().unwrap_or("-"),
            r.digest
        );
    });
    if let Some(path) = &telemetry_out {
        let telemetry = obs.finish(false);
        let json = serde_json::to_string_pretty(&telemetry).expect("telemetry serializes");
        std::fs::write(path, json).expect("writing telemetry json");
        eprintln!("wrote {path}");
    }
    match result {
        Ok(summary) => {
            eprintln!(
                "soak green: {} rounds, all cells agreed",
                summary.rounds.len()
            );
        }
        Err(failure) => {
            failure
                .write_bundle("SOAK_FAILURE.json")
                .expect("writing SOAK_FAILURE.json");
            eprintln!(
                "soak FAILED at round {} (cell `{}`): {}",
                failure.round, failure.cell, failure.detail
            );
            eprintln!("  expected: {}", failure.expected);
            eprintln!("  got:      {}", failure.got);
            eprintln!("  bundle:   SOAK_FAILURE.json");
            eprintln!("  {}", failure.repro_hint());
            std::process::exit(1);
        }
    }
}

/// Renders the EXPERIMENTS.md body from the comparison rows.
fn experiments_markdown(
    scale: f64,
    trace: &ddos_sim::GeneratedTrace,
    report: &AnalysisReport,
) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs measured\n\n");
    out.push_str(&format!(
        "Generated by `cargo run --release -p bench --bin repro -- --md` \
         on a scale-{scale} trace (seed {:#x}, {} attacks).\n\n",
        SimConfig::default().seed,
        trace.dataset.len()
    ));
    out.push_str(
        "The dataset is synthetic (see DESIGN.md §1): quantities marked as \
         *calibrated* in DESIGN.md §5 match by construction; everything else \
         is emergent from the generative model and the analysis pipeline. \
         The `verdict` column applies the tolerance listed per quantity — \
         tight for calibrated inputs, loose for emergent results where only \
         the *shape* (who wins, rough factor) is claimed.\n\n",
    );
    let sections = paper_comparisons(trace, report);
    let mut ok = 0usize;
    let mut total = 0usize;
    for (title, rows) in &sections {
        out.push_str(&compare::render_markdown(title, rows));
        out.push('\n');
        ok += rows.iter().filter(|r| r.holds()).count();
        total += rows.len();
    }
    out.push_str(&format!(
        "## Overall\n\n{ok} of {total} compared quantities within tolerance.\n\n\
         Known deviations and paper inconsistencies are discussed in \
         DESIGN.md (calibration rules) and the module docs of \
         `ddos-sim::calibration`.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn parse_args_rejects_what_it_does_not_know() {
        let ok = parse(&["--scale", "0.05", "t4", "f12", "--smoke"]).unwrap();
        assert_eq!(ok.scale, Some(0.05));
        assert_eq!(ok.ids, ["t4", "f12"]);
        assert!(ok.smoke);
        let soak = parse(&["--soak", "3", "--soak-seed", "0xBEEF", "--soak-full"]).unwrap();
        assert_eq!(soak.soak_rounds, Some(3));
        assert_eq!(soak.soak_seed, Some(0xBEEF));
        assert!(soak.soak_full);
        assert_eq!(parse(&["--soak-seed", "42"]).unwrap().soak_seed, Some(42));
        assert_eq!(parse(&[]).unwrap(), Args::default());
        for bad in [
            &["--ctx-bench"][..],
            &["--ctx-bnech", "--smoke"],
            &["--scale", "abc"],
            &["--scale", "0", "t4"],
            &["--scale", "-1"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--scale"],
            &["--scale", "--smoke"],
            &["--out"],
            &["--telemetry-json"],
            &["--soak", "many"],
            &["--soak-seed", "0xZZ"],
            &["t99"],
            &["-h"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
