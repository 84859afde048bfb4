//! Splitting an input into chunks for the heterogeneous sort.
//!
//! The chunk size is limited by the device memory: with the in-place
//! replacement strategy a chunk (plus its auxiliary double buffer and the
//! bookkeeping overhead of the on-GPU sort) may take up to roughly a third
//! of the device memory, without it only a quarter
//! ([`gpu_sim::DeviceMemoryPlanner::chunk_budget_bytes`]).  The paper's
//! example: a 12 GB GPU and 16 chunks of 4 GB allow sorting 64 GB with a
//! single merging pass.

use serde::{Deserialize, Serialize};

/// A plan describing how an input of `n` elements is split into chunks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPlan {
    /// Element ranges `[start, end)` of each chunk.
    pub ranges: Vec<(usize, usize)>,
}

impl ChunkPlan {
    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.ranges.len()
    }

    /// Number of elements in chunk `i`.
    pub fn chunk_len(&self, i: usize) -> usize {
        let (s, e) = self.ranges[i];
        e - s
    }

    /// The largest chunk length.
    pub fn max_chunk_len(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).max().unwrap_or(0)
    }

    /// Total number of elements covered.
    pub fn total_len(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }
}

/// Splits `n` elements into `s` chunks of (nearly) equal size.  The first
/// `n % s` chunks receive one extra element.
pub fn split_into_chunks(n: usize, s: usize) -> ChunkPlan {
    let s = s.max(1);
    let base = n / s;
    let extra = n % s;
    let mut ranges = Vec::with_capacity(s);
    let mut start = 0usize;
    for i in 0..s {
        let len = base + usize::from(i < extra);
        if len == 0 && start >= n {
            break;
        }
        ranges.push((start, start + len));
        start += len;
    }
    ChunkPlan { ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceMemoryPlanner;

    #[test]
    fn chunks_cover_the_input_without_overlap() {
        for (n, s) in [
            (100usize, 4usize),
            (101, 4),
            (7, 16),
            (0, 3),
            (1_000_000, 7),
        ] {
            let plan = split_into_chunks(n, s);
            assert_eq!(plan.total_len(), n, "n={n} s={s}");
            let mut expected_start = 0;
            for &(start, end) in &plan.ranges {
                assert_eq!(start, expected_start);
                assert!(end >= start);
                expected_start = end;
            }
            assert_eq!(expected_start, n);
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let plan = split_into_chunks(103, 4);
        let lens: Vec<usize> = (0..plan.num_chunks()).map(|i| plan.chunk_len(i)).collect();
        assert_eq!(lens, vec![26, 26, 26, 25]);
        assert_eq!(plan.max_chunk_len(), 26);
    }

    #[test]
    fn single_chunk_when_s_is_one_or_zero() {
        assert_eq!(split_into_chunks(50, 1).num_chunks(), 1);
        assert_eq!(split_into_chunks(50, 0).num_chunks(), 1);
    }

    #[test]
    fn paper_example_64_gb_on_a_12_gb_gpu() {
        // With the in-place replacement strategy (three slots) and ~5 %
        // bookkeeping, 64 GB needs 17 chunks of ≲ 3.9 GB; the paper rounds
        // this to "up to 64 GB using a single merging pass" with 16 chunks
        // of 4 GB by counting the aux buffer inside the slot.  The chunk
        // count is the sharded engine's: input bytes over the planner's
        // chunk budget, rounded up.
        let planner = DeviceMemoryPlanner::new(12_000_000_000);
        let chunks = |in_place| 64_000_000_000u64.div_ceil(planner.chunk_budget_bytes(in_place));
        assert!(
            (16..=18).contains(&chunks(true)),
            "chunks = {}",
            chunks(true)
        );
        // Without the strategy (four slots) more chunks are needed.
        assert!(chunks(false) > chunks(true));
    }
}
