//! Correctness tooling for the ddos workspace: the differential
//! conformance driver and the fault-injection harness.
//!
//! The workspace has accumulated many ways to compute the same report —
//! serial vs crossbeam scheduling, per-worker vs forced kernel chunkings,
//! monolithic vs epoch-folded vs incremental vs streamed builds, v1 vs
//! framed-v2 vs memory-mapped ingest. The paper's findings only hold if
//! every combination agrees byte for byte. This crate makes that a
//! first-class, reusable check instead of point-wise suites:
//!
//! * [`baseline`] — the pre-refactor monolithic pipeline
//!   ([`baseline_report`]), the one oracle that shares no code with
//!   the context-based engine. Its `compute(ds)` bodies are the serial
//!   algorithms every chunked pass kernel is held byte-equal to.
//! * [`reference`] — the pre-columnar context build
//!   ([`reference_context_parts`]) and the check that holds a context's
//!   analysis inputs to it bit for bit
//!   ([`assert_context_matches_reference`]).
//! * [`variant`] — the lattice itself: a [`Cell`] names one point
//!   (ingest × build × scheduler × kernels), [`matrix`] enumerates the
//!   curated ≥24-cell coverage set, [`matrix_full`] the exhaustive
//!   cross product for soak runs.
//! * [`conformance`] — digest plumbing ([`report_digest`], the
//!   committed [`golden_digest`]), the shared small trace, and the
//!   assertion helpers the integration suites build on.
//! * [`faults`] — drive any named failpoint (see [`failpoints`]) to an
//!   `Err`, then prove the retry without the fault reproduces the
//!   clean result.
//! * [`serve`] — the snapshot-isolation probe: replay a trace through
//!   an `AnalysisService` and pin its published watermarks to fresh
//!   epoch-prefix runs.
//! * [`soak`] — N seeded rounds of the full differential check
//!   (`repro --soak N`), emitting a reproducible failure bundle on the
//!   first divergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod conformance;
pub mod faults;
pub mod reference;
pub mod serve;
pub mod soak;
pub mod variant;

/// Re-export of the seam crate, so tests depending on `ddos-testkit`
/// build `FailPlan`s without naming `ddos-failpoints` themselves.
pub use ddos_failpoints as failpoints;

pub use baseline::baseline_report;
pub use conformance::{
    assert_cells_agree, assert_cells_match_golden, check_telemetry_purity, golden_digest,
    report_digest, small_dataset, small_trace,
};
pub use faults::inject_and_recover;
pub use reference::{assert_context_matches_reference, reference_context_parts, ContextParts};
pub use serve::check_serve_conformance;
pub use soak::{run_soak, SoakFailure, SoakOptions, SoakRound, SoakSummary};
pub use variant::{matrix, matrix_full, Build, Cell, CellError, Ingest, Kernels, Scheduler};
