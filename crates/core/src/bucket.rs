//! Bucket and block bookkeeping (Sections 4.2 and 4.5).
//!
//! The MSD radix sort maintains, per pass, the set of buckets that still
//! need partitioning (each subdivided into fixed-size key blocks so that
//! work can be distributed evenly over the SMs) and the set of buckets that
//! are small enough for a local sort.  Instead of launching one kernel per
//! bucket, the GPU implementation stores these descriptors in device memory
//! — the structures below mirror the paper's
//! `{k_offs, k_count, b_id, b_offs}` block assignments and
//! `{b_id, b_offs, is_merged}` local-sort assignments — and the same
//! descriptors drive this functional implementation.

use serde::{Deserialize, Serialize};

/// A bucket that still needs to be partitioned by a counting sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Offset of the bucket's first key within the key buffer.
    pub offset: usize,
    /// Number of keys in the bucket.
    pub len: usize,
    /// Digit index the next counting sort partitions this bucket on.
    pub pass: u32,
}

impl Bucket {
    /// The bucket covering a whole input of `n` keys, to be partitioned on
    /// the most-significant digit.
    pub fn root(n: usize) -> Bucket {
        Bucket {
            offset: 0,
            len: n,
            pass: 0,
        }
    }

    /// Number of `keys_per_block`-sized blocks the bucket decomposes into
    /// (rule R4 of the analytical model).
    pub fn num_blocks(&self, keys_per_block: usize) -> usize {
        self.len.div_ceil(keys_per_block.max(1))
    }

    /// End offset (exclusive).
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// A key block as scheduled by one counting pass — the paper's
/// `{k_offs, k_count}` block-assignment record, whose bucket fields
/// (`b_id`, `b_offs`) the pass keeps implicit: the unit of work of the
/// executor's histogram and scatter tasks.  Blocks are emitted
/// bucket-major, so a block's position in the pass's block list doubles as
/// the index of its histogram strip and scatter-base strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassBlock {
    /// Offset of the block's first key in the key buffer.
    pub key_offset: usize,
    /// Number of keys in the block.
    pub key_count: usize,
}

/// Tiles `buckets` into [`PassBlock`]s, bucket-major, reusing `out`'s
/// allocation.  Blocks never cross a bucket boundary (rule R4).
pub fn pass_blocks_into(buckets: &[Bucket], keys_per_block: usize, out: &mut Vec<PassBlock>) {
    out.clear();
    let keys_per_block = keys_per_block.max(1);
    for b in buckets {
        let mut offset = b.offset;
        while offset < b.end() {
            let count = keys_per_block.min(b.end() - offset);
            out.push(PassBlock {
                key_offset: offset,
                key_count: count,
            });
            offset += count;
        }
    }
}

/// A bucket that is ready for a local sort — the paper's
/// `{b_id:uint, b_offs:uint, is_merged:bool}` record, with the bucket
/// identified by its offset, and extended with the length and the number
/// of counting-sort passes already applied (the local sort only needs to
/// sort the remaining digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalBucket {
    /// Offset of the bucket's first key.
    pub offset: usize,
    /// Number of keys.
    pub len: usize,
    /// How many sub-buckets were merged to form this bucket (1 = not
    /// merged).
    pub merged_from: u32,
    /// Number of counting-sort passes already applied to these keys.
    pub sorted_passes: u32,
}

impl LocalBucket {
    /// Whether this bucket is the result of merging neighbouring
    /// sub-buckets (`is_merged` in the paper's record).
    pub fn is_merged(&self) -> bool {
        self.merged_from > 1
    }
}

/// A sub-bucket produced by partitioning a parent bucket — not yet
/// classified as "local sort" or "counting sort".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubBucket {
    /// Offset of the sub-bucket's first key.
    pub offset: usize,
    /// Number of keys.
    pub len: usize,
}

/// Outcome of classifying (and merging) the sub-buckets of one parent
/// bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Classified {
    /// Buckets small enough for a local sort (possibly merged).
    pub local: Vec<LocalBucket>,
    /// Buckets that need another counting-sort pass.
    pub counting: Vec<Bucket>,
}

/// Classifies the (non-empty) sub-buckets of one parent bucket according to
/// rules R1–R3 of the analytical model:
///
/// * neighbouring sub-buckets are merged while their combined size stays
///   below the merge threshold ∂ (if `merging` is enabled),
/// * buckets of at most ∂̂ keys go to the local sort,
/// * larger buckets are forwarded to the next counting-sort pass.
pub fn classify_sub_buckets(
    sub_buckets: &[SubBucket],
    next_pass: u32,
    local_threshold: usize,
    merge_threshold: usize,
    merging: bool,
) -> Classified {
    let mut out = Classified::default();
    classify_sub_buckets_into(
        sub_buckets,
        next_pass,
        local_threshold,
        merge_threshold,
        merging,
        &mut out.local,
        &mut out.counting,
    );
    out
}

/// Allocation-free variant of [`classify_sub_buckets`]: appends the
/// classified buckets to `out_local` / `out_counting` (typically the
/// scratch arena's reusable lists) instead of building fresh vectors.
#[allow(clippy::too_many_arguments)]
pub fn classify_sub_buckets_into(
    sub_buckets: &[SubBucket],
    next_pass: u32,
    local_threshold: usize,
    merge_threshold: usize,
    merging: bool,
    out_local: &mut Vec<LocalBucket>,
    out_counting: &mut Vec<Bucket>,
) {
    let mut pending: Option<(usize, usize, u32)> = None; // (offset, len, merged_from)

    let flush = |pending: &mut Option<(usize, usize, u32)>, out_local: &mut Vec<LocalBucket>| {
        if let Some((offset, len, merged_from)) = pending.take() {
            out_local.push(LocalBucket {
                offset,
                len,
                merged_from,
                sorted_passes: next_pass,
            });
        }
    };

    for sb in sub_buckets.iter().filter(|sb| sb.len > 0) {
        if merging {
            if let Some((offset, len, merged_from)) = pending {
                if len + sb.len < merge_threshold {
                    // Extend the pending merge group.
                    pending = Some((offset, len + sb.len, merged_from + 1));
                    continue;
                }
                flush(&mut pending, out_local);
            }
        }
        if merging && sb.len < merge_threshold {
            pending = Some((sb.offset, sb.len, 1));
        } else if sb.len <= local_threshold {
            out_local.push(LocalBucket {
                offset: sb.offset,
                len: sb.len,
                merged_from: 1,
                sorted_passes: next_pass,
            });
        } else {
            out_counting.push(Bucket {
                offset: sb.offset,
                len: sb.len,
                pass: next_pass,
            });
        }
    }
    flush(&mut pending, out_local);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_bucket_covers_input() {
        let b = Bucket::root(1_000);
        assert_eq!((b.offset, b.len, b.pass), (0, 1_000, 0));
        assert_eq!(b.end(), 1_000);
        assert_eq!(b.num_blocks(256), 4);
        assert_eq!(b.num_blocks(999), 2);
        assert_eq!(b.num_blocks(1_000), 1);
    }

    #[test]
    fn block_assignments_tile_each_bucket() {
        let buckets = vec![
            Bucket {
                offset: 0,
                len: 700,
                pass: 1,
            },
            Bucket {
                offset: 700,
                len: 300,
                pass: 1,
            },
        ];
        // Start from a stale list: the tiling replaces it.
        let mut blocks = vec![PassBlock::default(); 9];
        pass_blocks_into(&buckets, 256, &mut blocks);
        assert_eq!(blocks.len(), 3 + 2);
        // Blocks never cross bucket boundaries (rule R4), and they come
        // bucket-major: the first three tile bucket 0, the last two bucket 1.
        for (i, blk) in blocks.iter().enumerate() {
            let b = &buckets[usize::from(i >= 3)];
            assert!(blk.key_offset >= b.offset);
            assert!(blk.key_offset + blk.key_count <= b.end());
        }
        // The blocks exactly cover both buckets, in order.
        let mut next = 0;
        for blk in &blocks {
            assert_eq!(blk.key_offset, next);
            next += blk.key_count;
        }
        assert_eq!(next, 1_000);
    }

    #[test]
    fn classification_routes_by_size() {
        let subs = vec![
            SubBucket {
                offset: 0,
                len: 10_000,
            },
            SubBucket {
                offset: 10_000,
                len: 500,
            },
            SubBucket {
                offset: 10_500,
                len: 0,
            },
            SubBucket {
                offset: 10_500,
                len: 5_000,
            },
        ];
        let c = classify_sub_buckets(&subs, 1, 4_224, 1_400, true);
        // 10 000 and 5 000 exceed ∂̂ = 4 224 → counting; 500 is below the
        // merge threshold but has no mergeable neighbour → local.
        assert_eq!(c.counting.len(), 2);
        assert_eq!(c.local.len(), 1);
        assert_eq!(c.local[0].len, 500);
        assert!(!c.local[0].is_merged());
        assert_eq!(c.counting[0].pass, 1);
    }

    #[test]
    fn merging_combines_tiny_neighbours() {
        let subs: Vec<SubBucket> = (0..10)
            .map(|i| SubBucket {
                offset: i * 100,
                len: 100,
            })
            .collect();
        let c = classify_sub_buckets(&subs, 2, 4_224, 450, true);
        // Sequences of neighbours are merged while the total stays < 450,
        // i.e. groups of four 100-key sub-buckets.
        assert!(c.counting.is_empty());
        assert!(c.local.len() <= 3, "{:?}", c.local);
        let total: usize = c.local.iter().map(|l| l.len).sum();
        assert_eq!(total, 1_000);
        assert!(c.local.iter().any(|l| l.is_merged()));
        // Merged buckets respect the threshold.
        for l in &c.local {
            assert!(l.len < 450 || l.merged_from == 1);
        }
        // Offsets stay contiguous and ordered.
        for w in c.local.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn no_merging_leaves_sub_buckets_alone() {
        let subs: Vec<SubBucket> = (0..10)
            .map(|i| SubBucket {
                offset: i * 100,
                len: 100,
            })
            .collect();
        let c = classify_sub_buckets(&subs, 2, 4_224, 450, false);
        assert_eq!(c.local.len(), 10);
        assert!(c.local.iter().all(|l| !l.is_merged()));
    }

    #[test]
    fn pending_merge_group_flushes_before_large_bucket() {
        let subs = vec![
            SubBucket { offset: 0, len: 50 },
            SubBucket {
                offset: 50,
                len: 9_000,
            },
            SubBucket {
                offset: 9_050,
                len: 60,
            },
        ];
        let c = classify_sub_buckets(&subs, 1, 4_224, 1_000, true);
        assert_eq!(c.counting.len(), 1);
        assert_eq!(c.counting[0].len, 9_000);
        assert_eq!(c.local.len(), 2);
        assert_eq!(c.local[0].len, 50);
        assert_eq!(c.local[1].len, 60);
    }

    #[test]
    fn two_adjacent_merged_groups_respect_threshold_invariant() {
        // Rule I3's argument: any two subsequent merged buckets must hold at
        // least ∂ keys together, otherwise they would have been merged.
        let subs: Vec<SubBucket> = (0..20)
            .map(|i| SubBucket {
                offset: i * 30,
                len: 30,
            })
            .collect();
        let c = classify_sub_buckets(&subs, 1, 4_224, 100, true);
        for w in c.local.windows(2) {
            assert!(w[0].len + w[1].len >= 100, "{:?}", w);
        }
    }
}
