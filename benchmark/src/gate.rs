//! Correctness gates. Each returns `Err` with a description on the
//! first mismatch; a failed gate stops the run before any number is
//! printed.

use ddos_analytics::passes::PartialReport;
use ddos_analytics::{Analysis, AnalysisReport};
use ddos_obs::fnv1a_64_hex;
use ddos_schema::Dataset;
use ddos_sim::{generate, SimConfig};
use serde::Serialize;

use crate::EPOCH;

/// The committed small-trace digest, read from the repository.
pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/report_small.digest"
);

/// FNV-1a 64 over the report's JSON, in the `fnv1a64:<hex>` form of the
/// committed golden file.
pub fn report_digest(report: &AnalysisReport) -> String {
    fnv1a_64_hex(json(report).as_bytes())
}

/// JSON of a serializable value (report sections serialize infallibly).
pub fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("report sections serialize")
}

/// Reads the committed small-trace digest.
pub fn golden_file() -> Result<String, String> {
    std::fs::read_to_string(GOLDEN_PATH)
        .map(|s| s.trim().to_string())
        .map_err(|e| format!("reading {GOLDEN_PATH}: {e}"))
}

/// The engine still produces the committed report on the canonical
/// small trace.
pub fn golden_small(want: &str) -> Result<(), String> {
    let trace = generate(&SimConfig::small());
    let got = report_digest(&Analysis::new(&trace.dataset).run());
    expect_eq("small-trace report digest", &got, want)
}

/// `Err` naming `what` unless `got == want`.
pub fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} mismatch: got {got}, want {want}"))
    }
}

/// The digest of a fresh monolithic run over each epoch prefix: entry
/// `w - 1` is what a snapshot at watermark `w` must digest to.
pub fn prefix_digests(ds: &Dataset) -> Vec<String> {
    let epochs = ds.shards(EPOCH).len();
    (1..=epochs)
        .map(|w| report_digest(&Analysis::new(&ds.epoch_prefix(EPOCH, w)).run()))
        .collect()
}

/// Every slot of a replayed pass run serializes exactly like the
/// matching section of `report`.
pub fn partial_matches(partial: &PartialReport, report: &AnalysisReport) -> Result<(), String> {
    macro_rules! same {
        ($($field:ident),* $(,)?) => {$(
            if json(&partial.$field) != json(&Some(&report.$field)) {
                return Err(format!(
                    "replayed pass output `{}` differs from the report",
                    stringify!($field)
                ));
            }
        )*};
    }
    same!(
        protocols,
        protocol_rows,
        summary,
        daily,
        interval_stats,
        all_interval_stats,
        concurrency,
        durations,
        shifts,
        dispersion,
        prediction,
        target_countries,
        overall_targets,
        collaborations,
        flagship_pair,
        multistage,
        activity,
        recurrence,
        blacklist,
        latency,
    );
    Ok(())
}
