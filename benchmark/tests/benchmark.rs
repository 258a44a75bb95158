//! Tests of the benchmark itself, at `SimConfig::small()` scale.

use std::path::PathBuf;
use std::time::Duration;

use ddos_benchmark::loadgen::{open_loop, Slot};
use ddos_benchmark::{gate, run, Args, Outcome, Scale, Workload};
use serde::Deserialize;

#[derive(Deserialize)]
struct Contract {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn small(trace: bool) -> Args {
    Args {
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Small,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_out"),
    }
}

/// The JSON line carries exactly the declared metrics, each with its
/// declared unit and a measured value.
fn assert_reports(out: &Outcome, declared: &[Declared], what: &str) {
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let want: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(got, want, "{what}: metrics differ from BENCHMARK.json");
    let json = out.json();
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
        let printed = format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
        assert!(
            json.contains(&printed),
            "{what}: {printed} missing from {json}"
        );
    }
    assert!(out.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(out.failed, 0, "{what}: operations failed");
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let contract = contract();
    for workload in Workload::ALL {
        let out = run(workload, &small(false)).expect("untraced run passes its gate");
        assert_reports(&out, &contract.end_to_end, workload.name());
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is not positive",
                workload.name(),
                m.name
            );
        }
        let traced = run(workload, &small(true)).expect("traced run passes its gate");
        assert_reports(&traced, &contract.per_layer, workload.name());
    }
}

#[test]
fn a_tampered_digest_fails_the_gate() {
    let golden = gate::golden_file().expect("golden digest is readable");
    gate::golden_small(&golden).expect("the committed digest passes");
    let mut tampered = golden.into_bytes();
    let last = tampered.last_mut().expect("digest is not empty");
    *last = if *last == b'0' { b'1' } else { b'0' };
    let tampered = String::from_utf8(tampered).expect("hex stays ASCII");
    let err = gate::golden_small(&tampered).expect_err("a tampered digest must fail");
    assert!(err.contains("mismatch"), "{err}");
}

#[test]
fn open_loop_times_each_query_from_its_due_time() {
    // 1,000/s: query i is due at i ms. Query 0 stalls for 30 ms, so
    // queries 1..30 are due while it runs and are sent late.
    let stall = Duration::from_millis(30);
    let mut slots: Vec<Slot> = Vec::new();
    open_loop(
        1_000.0,
        40,
        |i| {
            if i == 0 {
                std::thread::sleep(stall);
            }
        },
        |slot, ()| slots.push(*slot),
    );
    assert_eq!(slots.len(), 40);
    for s in &slots {
        assert!(s.start >= s.due, "query {} sent before it was due", s.index);
        assert_eq!(s.latency(), s.late() + s.service());
    }
    // Query 5 is due at 5 ms and waits behind the stall until at least
    // 30 ms. The upper bounds below compare against that wait rather
    // than a fixed few milliseconds, so a test thread preempted on a
    // busy host does not fail them.
    let queued = &slots[5];
    assert!(queued.late() >= stall - Duration::from_millis(6));
    assert!(queued.service() < queued.late());
    assert!(
        queued.latency() >= queued.late(),
        "latency must count the wait behind the stall, not just the call"
    );
    // Once the backlog drains, queries go out closer to on time again.
    assert!(slots[39].late() < queued.late());
}
