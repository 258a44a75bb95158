//! The variant lattice: every way the workspace can compute a report.
//!
//! A [`Cell`] fixes one point on four axes — how the dataset is
//! ingested, how the analysis context is built, how the pass scheduler
//! runs, and which kernel policy the pass bodies use. [`Cell::run`]
//! executes that exact combination; the conformance driver then
//! asserts every cell of a matrix serializes to the same bytes.
//!
//! [`matrix`] is the curated coverage set (every axis value exercised,
//! ≥24 cells) pinned against the committed golden digest by
//! `crates/ddos-testkit/tests/matrix_golden.rs`; [`matrix_full`] is
//! the exhaustive cross product the soak loop can opt into.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ddos_analytics::{Analysis, AnalysisReport, KernelPolicy, PipelineError, StreamFold};
use ddos_obs::Obs;
use ddos_schema::{codec, framed, Dataset, SchemaError, Seconds};
use ddos_stats::ArimaSpec;

/// How the dataset reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Analyze the in-memory dataset as-is.
    Native,
    /// Round-trip through the v1 serial codec first.
    V1RoundTrip,
    /// Round-trip through the framed v2 container with an explicit
    /// frame length and decode worker count.
    V2RoundTrip {
        /// Records per frame at encode time (1 maximizes seams).
        frame_len: usize,
        /// Decode workers (1 pins the serial fast path).
        workers: usize,
    },
    /// Write the framed v2 container to disk and memory-map it back
    /// through `Dataset::open`.
    V2Mmap,
}

/// How the analysis context comes together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// One-shot context build (the `Analysis` builder's default).
    Monolithic,
    /// The pre-refactor monolithic reference
    /// ([`crate::baseline_report`]); ignores the scheduler and kernel
    /// axes by construction.
    Baseline,
    /// Epoch-sharded batch fold (`Analysis::epochs`).
    EpochFolded {
        /// Epoch length in seconds.
        epoch_len_s: i64,
    },
    /// One-epoch-at-a-time appends (`Analysis::incremental`).
    Incremental {
        /// Epoch length in seconds.
        epoch_len_s: i64,
    },
    /// Bounded-memory streaming fold over `replay_epochs`.
    Streamed {
        /// Epoch length in seconds.
        epoch_len_s: i64,
    },
}

/// Pass scheduler mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Passes run one after another in registry order.
    Serial,
    /// Stages fan out on crossbeam scoped threads.
    Parallel,
}

/// Kernel policy for the pass bodies (mirrors
/// [`ddos_analytics::KernelPolicy`] so cells print compactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// Chunked kernels, one chunk per available worker.
    Auto,
    /// Chunked kernels with a fixed chunk size.
    Chunked(usize),
}

impl Kernels {
    fn policy(self) -> KernelPolicy {
        match self {
            Kernels::Auto => KernelPolicy::Auto,
            Kernels::Chunked(n) => KernelPolicy::Chunked(n),
        }
    }
}

/// One point of the variant lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Ingest axis.
    pub ingest: Ingest,
    /// Context-build axis.
    pub build: Build,
    /// Scheduler axis.
    pub scheduler: Scheduler,
    /// Kernel-policy axis.
    pub kernels: Kernels,
}

/// What a cell run can fail with: the ingest layer's error or the
/// pipeline's (only reachable under an installed `FailPlan`).
#[derive(Debug)]
pub enum CellError {
    /// Ingest (codec/framed/mmap) failure.
    Schema(SchemaError),
    /// Pipeline (scheduler/epoch fold) failure.
    Pipeline(PipelineError),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Schema(e) => write!(f, "ingest: {e}"),
            CellError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

impl From<SchemaError> for CellError {
    fn from(e: SchemaError) -> Self {
        CellError::Schema(e)
    }
}

impl From<PipelineError> for CellError {
    fn from(e: PipelineError) -> Self {
        CellError::Pipeline(e)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ingest = match self.ingest {
            Ingest::Native => "native".to_string(),
            Ingest::V1RoundTrip => "v1".to_string(),
            Ingest::V2RoundTrip { frame_len, workers } => {
                format!("v2(frame={frame_len},workers={workers})")
            }
            Ingest::V2Mmap => "v2-mmap".to_string(),
        };
        let build = match self.build {
            Build::Monolithic => "monolithic".to_string(),
            Build::Baseline => "baseline".to_string(),
            Build::EpochFolded { epoch_len_s } => format!("epochs({epoch_len_s}s)"),
            Build::Incremental { epoch_len_s } => format!("incremental({epoch_len_s}s)"),
            Build::Streamed { epoch_len_s } => format!("streamed({epoch_len_s}s)"),
        };
        let sched = match self.scheduler {
            Scheduler::Serial => "serial",
            Scheduler::Parallel => "parallel",
        };
        let kernels = match self.kernels {
            Kernels::Auto => "auto".to_string(),
            Kernels::Chunked(n) => format!("chunked({n})"),
        };
        write!(f, "{ingest} | {build} | {sched} | {kernels}")
    }
}

impl Cell {
    /// A short stable label (the `Display` form).
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Runs this cell, panicking on error — the common case for
    /// conformance tests with no fault plan installed.
    pub fn run(&self, ds: &Dataset) -> AnalysisReport {
        self.try_run(ds)
            .unwrap_or_else(|e| panic!("cell `{self}` failed: {e}"))
    }

    /// Runs this cell, surfacing ingest and pipeline errors (which only
    /// occur under an installed `FailPlan`) instead of panicking.
    pub fn try_run(&self, ds: &Dataset) -> Result<AnalysisReport, CellError> {
        let ingested;
        let ds = match self.ingest {
            Ingest::Native => ds,
            Ingest::V1RoundTrip => {
                ingested = codec::decode(&codec::encode(ds))?;
                &ingested
            }
            Ingest::V2RoundTrip { frame_len, workers } => {
                let bytes = framed::encode_with(ds, frame_len);
                ingested = framed::decode_with_workers(&bytes, workers)?.0;
                &ingested
            }
            Ingest::V2Mmap => {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "ddos-testkit-{}-{}.ddtl",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::write(&path, framed::encode(ds))
                    .map_err(|e| SchemaError::Io(format!("{}: {e}", path.display())))?;
                let opened = Dataset::open(&path);
                let _ = std::fs::remove_file(&path);
                ingested = opened?;
                &ingested
            }
        };
        let parallel = matches!(self.scheduler, Scheduler::Parallel);
        let base = || {
            Analysis::new(ds)
                .parallel(parallel)
                .kernels(self.kernels.policy())
        };
        let report = match self.build {
            Build::Monolithic => base().try_run()?,
            Build::Baseline => crate::baseline_report(ds, ArimaSpec::DEFAULT),
            Build::EpochFolded { epoch_len_s } => base().epochs(Seconds(epoch_len_s)).try_run()?,
            Build::Incremental { epoch_len_s } => base()
                .epochs(Seconds(epoch_len_s))
                .incremental()
                .try_run()?,
            Build::Streamed { epoch_len_s } => {
                let obs = Obs::disabled();
                let mut fold = StreamFold::new(ds.window());
                for batch in ddos_sim::feed::replay_epochs(ds, Seconds(epoch_len_s)) {
                    fold.try_push(&batch, &obs)?;
                }
                let ctx = fold
                    .finish()
                    .expect("a dataset always yields at least one epoch batch")
                    .into_context(ds, ArimaSpec::DEFAULT)
                    .with_kernels(self.kernels.policy());
                Analysis::over(&ctx).parallel(parallel).try_run()?
            }
        };
        Ok(report)
    }
}

/// Default cell: the pipeline exactly as `AnalysisReport::run` runs it.
pub const NATIVE_PARALLEL: Cell = Cell {
    ingest: Ingest::Native,
    build: Build::Monolithic,
    scheduler: Scheduler::Parallel,
    kernels: Kernels::Auto,
};

const WEEK_S: i64 = 7 * 24 * 3600;
/// An epoch length that divides nothing evenly — exercises ragged
/// shard boundaries the same way the golden suite always has.
const ODD_EPOCH_S: i64 = 100_000;

const BUILDS: [Build; 4] = [
    Build::Monolithic,
    Build::EpochFolded {
        epoch_len_s: WEEK_S,
    },
    Build::Incremental {
        epoch_len_s: WEEK_S,
    },
    Build::Streamed {
        epoch_len_s: WEEK_S,
    },
];

/// `Chunked(usize::MAX)` is the one-chunk cut: every kernel merges a
/// single partial.
const KERNELS: [Kernels; 4] = [
    Kernels::Auto,
    Kernels::Chunked(1),
    Kernels::Chunked(3),
    Kernels::Chunked(usize::MAX),
];

const INGESTS: [Ingest; 4] = [
    Ingest::V1RoundTrip,
    Ingest::V2RoundTrip {
        frame_len: 1,
        workers: 4,
    },
    Ingest::V2RoundTrip {
        frame_len: framed::DEFAULT_FRAME_LEN,
        workers: 1,
    },
    Ingest::V2Mmap,
];

/// The curated coverage matrix: ≥24 cells touching every value of
/// every axis, cheap enough for `cargo test` on every push.
///
/// * every build × every kernel policy (scheduler alternating so both
///   modes cover each axis value) on the native dataset — 16 cells;
/// * every non-native ingest × both schedulers on the default
///   build/kernels — 8 cells;
/// * the monolithic baseline and a ragged epoch length — 2 more.
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, &build) in BUILDS.iter().enumerate() {
        for (j, &kernels) in KERNELS.iter().enumerate() {
            let scheduler = if (i + j) % 2 == 0 {
                Scheduler::Parallel
            } else {
                Scheduler::Serial
            };
            cells.push(Cell {
                ingest: Ingest::Native,
                build,
                scheduler,
                kernels,
            });
        }
    }
    for &ingest in &INGESTS {
        for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
            cells.push(Cell {
                ingest,
                build: Build::Monolithic,
                scheduler,
                kernels: Kernels::Auto,
            });
        }
    }
    cells.push(Cell {
        ingest: Ingest::Native,
        build: Build::Baseline,
        scheduler: Scheduler::Serial,
        kernels: Kernels::Auto,
    });
    cells.push(Cell {
        ingest: Ingest::Native,
        build: Build::EpochFolded {
            epoch_len_s: ODD_EPOCH_S,
        },
        scheduler: Scheduler::Serial,
        kernels: Kernels::Auto,
    });
    cells
}

/// The exhaustive lattice: every ingest × every build × both
/// schedulers × every kernel policy (plus one baseline per ingest).
/// Soak rounds opt into this; it is too slow for per-push CI.
pub fn matrix_full() -> Vec<Cell> {
    let mut cells = Vec::new();
    let ingests = [Ingest::Native]
        .into_iter()
        .chain(INGESTS)
        .collect::<Vec<_>>();
    for &ingest in &ingests {
        for &build in &BUILDS {
            for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
                for &kernels in &KERNELS {
                    cells.push(Cell {
                        ingest,
                        build,
                        scheduler,
                        kernels,
                    });
                }
            }
        }
        cells.push(Cell {
            ingest,
            build: Build::Baseline,
            scheduler: Scheduler::Serial,
            kernels: Kernels::Auto,
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_meets_the_coverage_floor() {
        let cells = matrix();
        assert!(cells.len() >= 24, "matrix has {} cells", cells.len());
        // Every axis value appears somewhere.
        assert!(cells.iter().any(|c| c.ingest == Ingest::Native));
        assert!(cells.iter().any(|c| c.ingest == Ingest::V1RoundTrip));
        assert!(cells.iter().any(|c| c.ingest == Ingest::V2Mmap));
        assert!(cells
            .iter()
            .any(|c| matches!(c.ingest, Ingest::V2RoundTrip { workers: 1, .. })));
        assert!(cells
            .iter()
            .any(|c| matches!(c.ingest, Ingest::V2RoundTrip { workers: 4, .. })));
        for build in BUILDS {
            assert!(cells.iter().any(|c| c.build == build), "missing {build:?}");
        }
        assert!(cells.iter().any(|c| c.build == Build::Baseline));
        for kernels in KERNELS {
            assert!(cells.iter().any(|c| c.kernels == kernels));
        }
        for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
            assert!(cells.iter().any(|c| c.scheduler == scheduler));
        }
        // Labels are unique — a failure names exactly one cell.
        let mut labels: Vec<String> = cells.iter().map(Cell::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "duplicate cell labels");
    }

    #[test]
    fn full_matrix_is_a_superset_scale() {
        assert!(matrix_full().len() > matrix().len() * 4);
    }
}
