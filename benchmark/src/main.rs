//! `ddos-benchmark --workload <batch|stream|serve|all> --seed <n>
//! --seconds <n> --trace <0|1> [--out <dir>]`
//!
//! Prints the run's provenance and every metric by name and unit, then
//! one JSON result line. Exits non-zero, printing no result, when a
//! correctness gate fails.

use std::path::PathBuf;
use std::process::ExitCode;

use ddos_benchmark::{run, Args, Metric, Outcome, Scale, Workload};

fn parse() -> Result<(Vec<Workload>, Args), String> {
    let mut workloads = None;
    let mut args = Args {
        seed: 0,
        seconds: 30.0,
        trace: false,
        scale: Scale::Paper,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?
                ])
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workloads.ok_or("--workload is required")?, args))
}

fn main() -> ExitCode {
    let (workloads, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ddos-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &workloads {
        match run(workload, &args) {
            Ok(out) => {
                for line in &out.lines {
                    println!("{line}");
                }
                outcomes.push((workload, out));
            }
            Err(e) => {
                eprintln!(
                    "ddos-benchmark: {} failed its correctness gate: {e}",
                    workload.name()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match outcomes.as_slice() {
        [(_, one)] => one.clone(),
        many => Outcome {
            attempted: many.iter().map(|(_, o)| o.attempted).sum(),
            failed: many.iter().map(|(_, o)| o.failed).sum(),
            metrics: many
                .iter()
                .flat_map(|(w, o)| {
                    o.metrics.iter().map(move |m| Metric {
                        name: format!("{}.{}", w.name(), m.name),
                        ..m.clone()
                    })
                })
                .collect(),
            lines: Vec::new(),
        },
    };
    println!("{}", result.json());
    ExitCode::SUCCESS
}
