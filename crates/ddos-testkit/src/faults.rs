//! Drive each named failpoint to an `Err` and prove clean recovery.
//!
//! [`inject_and_recover`] is the one-call form of the fault contract
//! every hot path must satisfy:
//!
//! 1. run the operation that consults the failpoint with a plan that
//!    fails its first hit — it must return `Err` (never panic), and
//!    the error must carry the failpoint name;
//! 2. run the identical operation again with no plan installed — it
//!    must succeed and reproduce the byte-identical clean result.
//!
//! The helper returns `Err(description)` instead of panicking so the
//! soak loop can fold a violation into its failure bundle; test suites
//! simply `unwrap()`. In release builds the seam is compiled out
//! (`ddos_failpoints::ACTIVE`), so the helper is a no-op.

use std::sync::atomic::{AtomicU64, Ordering};

use ddos_analytics::Analysis;
use ddos_failpoints::{names, FailPlan, ACTIVE};
use ddos_schema::{codec, csv, framed, Dataset, Seconds};

use crate::conformance::report_digest;

const WEEK_S: i64 = 7 * 24 * 3600;

/// `Err` unless `got` is an error mentioning the injected failpoint.
fn expect_injected<T, E: std::fmt::Display>(
    got: Result<T, E>,
    name: &str,
    op: &str,
) -> Result<(), String> {
    match got {
        Ok(_) => Err(format!(
            "{op}: fault injected at `{name}` but the operation succeeded"
        )),
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("injected fault at") && msg.contains(name) {
                Ok(())
            } else {
                Err(format!(
                    "{op}: expected an injected fault at `{name}`, got: {msg}"
                ))
            }
        }
    }
}

/// Injects a failure at the first hit of failpoint `name`, asserts the
/// covering operation errors (never panics) with the failpoint named
/// in the message, then retries without the fault and asserts the
/// clean result is byte-identical to a run that never saw the plan.
pub fn inject_and_recover(name: &str, ds: &Dataset) -> Result<(), String> {
    if !ACTIVE {
        return Ok(()); // release build: the seam is compiled out.
    }
    match name {
        names::INGEST_OPEN => {
            // One file per call: concurrent callers in one process must
            // not remove each other's trace.
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "ddos-testkit-fault-open-{}-{}.ddtl",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, framed::encode(ds)).map_err(|e| e.to_string())?;
            let clean = codec::encode(&Dataset::open(&path).map_err(|e| e.to_string())?);
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(Dataset::open(&path), name, "Dataset::open")?;
            }
            let retried = codec::encode(&Dataset::open(&path).map_err(|e| e.to_string())?);
            let _ = std::fs::remove_file(&path);
            if retried != clean {
                return Err("Dataset::open retry diverged from the clean decode".into());
            }
        }
        names::INGEST_V1_DECODE => {
            let bytes = codec::encode(ds);
            let clean = codec::encode(&codec::decode(&bytes).map_err(|e| e.to_string())?);
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(codec::decode(&bytes), name, "codec::decode")?;
            }
            let retried = codec::encode(&codec::decode(&bytes).map_err(|e| e.to_string())?);
            if retried != clean {
                return Err("codec::decode retry diverged from the clean decode".into());
            }
        }
        names::INGEST_FRAMED_HEADER | names::INGEST_FRAMED_FRAME => {
            let bytes = framed::encode_with(ds, 64);
            let clean = codec::encode(&framed::decode(&bytes).map_err(|e| e.to_string())?);
            for workers in [1, 4] {
                let _scope = FailPlan::new().fail_always(name).install();
                expect_injected(
                    framed::decode_with_workers(&bytes, workers),
                    name,
                    "framed::decode_with_workers",
                )?;
            }
            let retried = codec::encode(&framed::decode(&bytes).map_err(|e| e.to_string())?);
            if retried != clean {
                return Err("framed::decode retry diverged from the clean decode".into());
            }
        }
        names::INGEST_CSV_CHUNK => {
            let text = csv::attacks_to_csv(ds.attacks());
            let clean = csv::attacks_from_csv(&text).map_err(|e| e.to_string())?;
            {
                let _scope = FailPlan::new().fail_always(name).install();
                expect_injected(csv::attacks_from_csv(&text), name, "attacks_from_csv")?;
                expect_injected(
                    csv::attacks_from_csv_chunked_with(&text, 4),
                    name,
                    "attacks_from_csv_chunked_with",
                )?;
            }
            let retried =
                csv::attacks_from_csv_chunked_with(&text, 4).map_err(|e| e.to_string())?;
            if retried != clean {
                return Err("chunked CSV retry diverged from the serial parse".into());
            }
        }
        names::EPOCH_MERGE => {
            let folded = || Analysis::new(ds).parallel(false).epochs(Seconds(WEEK_S));
            let clean = report_digest(&folded().run());
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(folded().try_run(), name, "epoch-folded try_run")?;
            }
            let retried = report_digest(&folded().run());
            if retried != clean {
                return Err("epoch fold retry diverged from the clean report".into());
            }
        }
        names::SCHEDULER_PASS => {
            let batch = || Analysis::new(ds).parallel(false);
            let clean = report_digest(&batch().run());
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(batch().try_run(), name, "monolithic try_run")?;
            }
            let retried = report_digest(&batch().run());
            if retried != clean {
                return Err("pass scheduler retry diverged from the clean report".into());
            }
        }
        other => return Err(format!("unknown failpoint `{other}`")),
    }
    Ok(())
}
