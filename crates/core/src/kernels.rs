//! Kernel execution policy for the data-parallel pass bodies.
//!
//! The heavy pass bodies are *chunked*: a gated pass computes
//! per-chunk partials over the columnar substrate and merges them
//! deterministically in chunk order, so the report stays byte-identical
//! to the serial algorithms for any chunk size (DESIGN.md §12 states
//! the contract). [`KernelPolicy`] selects how the input is cut:
//!
//! * [`KernelPolicy::Auto`] — one chunk per available worker (the
//!   default).
//! * [`KernelPolicy::Chunked`] — a fixed chunk length, the override
//!   the proptests use to force degenerate chunkings (size 1, size
//!   larger than the input).
//!
//! The serial algorithms the kernels replaced are the public
//! `compute(ds)` functions of each analysis; `ddos_testkit`'s
//! `baseline_report` runs exactly those, and the kernels proptest and
//! `repro --pass-bench` hold every policy byte-equal to it. Passes
//! without a chunked kernel (`blacklist`, the two interval passes) run
//! one body under every policy.

use std::ops::Range;

use crate::columnar::{chunk_ranges, worker_count};
use ddos_schema::CountryCode;

/// How the gated pass kernels execute. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Chunked kernels, one chunk per available worker.
    #[default]
    Auto,
    /// Chunked kernels with a fixed chunk length (clamped to ≥ 1).
    Chunked(usize),
}

impl KernelPolicy {
    /// The contiguous chunk ranges this policy cuts an input of `len`
    /// elements into. Ranges cover `0..len` exactly, in order; an empty
    /// input yields no ranges.
    pub fn chunks(self, len: usize) -> Vec<Range<usize>> {
        match self {
            KernelPolicy::Auto => chunk_ranges(len, worker_count()),
            KernelPolicy::Chunked(c) => {
                let c = c.max(1);
                let mut out = Vec::with_capacity(len.div_ceil(c));
                let mut lo = 0;
                while lo < len {
                    let hi = (lo + c).min(len);
                    out.push(lo..hi);
                    lo = hi;
                }
                out
            }
        }
    }
}

/// Number of dense [`cc_slot`] values (26 × 26 two-letter codes).
pub(crate) const CC_SLOTS: usize = 26 * 26;

/// Dense array slot of a country code: both bytes are ASCII uppercase
/// by `CountryCode`'s invariant, so codes index `[0, 26 * 26)` — the
/// chunked shift kernel trades its per-week hash sets for flat arrays.
#[inline]
pub(crate) fn cc_slot(cc: CountryCode) -> usize {
    let b = cc.as_str().as_bytes();
    (b[0] - b'A') as usize * 26 + (b[1] - b'A') as usize
}

/// Inverse of [`cc_slot`]: the country code a dense slot denotes. Slots
/// come from `cc_slot`, so the two bytes are always uppercase ASCII.
#[inline]
pub(crate) fn cc_of_slot(slot: usize) -> CountryCode {
    CountryCode::new(b'A' + (slot / 26) as u8, b'A' + (slot % 26) as u8)
        .expect("dense slot maps to an uppercase ASCII pair")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_for_every_policy() {
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(0),
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(3),
            KernelPolicy::Chunked(100),
        ] {
            for len in [0usize, 1, 2, 7, 64] {
                let ranges = policy.chunks(len);
                let covered: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len, "{policy:?} over {len}");
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                if len > 0 {
                    assert_eq!(ranges.first().unwrap().start, 0);
                    assert_eq!(ranges.last().unwrap().end, len);
                } else {
                    assert!(ranges.is_empty());
                }
            }
        }
        // A fixed chunk length cuts exactly ceil(len / c) ranges.
        assert_eq!(KernelPolicy::Chunked(3).chunks(7).len(), 3);
        assert_eq!(KernelPolicy::Chunked(100).chunks(7).len(), 1);
    }

    #[test]
    fn cc_slots_are_dense_and_distinct() {
        let us = cc_slot("US".parse().unwrap());
        let ru = cc_slot("RU".parse().unwrap());
        assert!(us < CC_SLOTS && ru < CC_SLOTS);
        assert_ne!(us, ru);
        assert_eq!(cc_slot("AA".parse().unwrap()), 0);
        assert_eq!(cc_slot("ZZ".parse().unwrap()), CC_SLOTS - 1);
    }

    #[test]
    fn cc_of_slot_inverts_cc_slot() {
        for slot in 0..CC_SLOTS {
            assert_eq!(cc_slot(cc_of_slot(slot)), slot);
        }
    }
}
