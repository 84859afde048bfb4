//! Parallel multiway merge (the CPU side of the heterogeneous sort).
//!
//! The sorted runs returned by the GPU are merged into the final sequence in
//! a single pass with a k-way merge.  The paper uses the parallel multiway
//! merge of the GNU stdlibc++ parallel extension; this module provides an
//! equivalent built on one sequential p-way merge kernel and a parallel
//! front end.
//!
//! The kernel merges structure-of-arrays runs — a key slice and an equally
//! long value slice per run; keys-only merges carry zero-sized values — and
//! writes keys and values straight into output slices the caller provides.
//! Each step takes the run with the lowest cached head key, found with a
//! branch-free scan; ties go to the lower run index, so the merge is stable.
//! The kernel runs `min(remaining)` steps between exhaustion checks, so no
//! run can run dry inside a batch and no sentinel key is needed (`u64::MAX`
//! is an ordinary key).  The front end splits the *output* into equally
//! sized ranges, locates the matching position in every run with a co-rank
//! (value-domain binary) search, and merges the ranges on independent
//! threads, each into its own sub-slices of the output.
//!
//! On the paper's six-core host the merge cannot keep up with more than
//! about four runs at a time — the reason Figure 8's end-to-end optimum sits
//! at s = 4 — and the same degradation with the run count is observable with
//! this implementation (see the benches).

use std::thread;
use workloads::SortKey;

/// Below this many elements in total a merge runs sequentially: spawning
/// threads costs more than it saves.
const SEQUENTIAL_CUTOFF: usize = 4_096;

/// Merges the structure-of-arrays `runs` — each a key slice sorted by radix
/// order and its value slice — into `out_keys` and `out_vals` with up to
/// `threads` threads.  Equal keys keep run order (lower run index first),
/// values travel with their keys.
///
/// # Panics
///
/// If a run's key and value slices differ in length, or either output's
/// length differs from the runs' total.
pub fn merge_pairs_into<K: SortKey, V: Copy + Send + Sync>(
    runs: &[(&[K], &[V])],
    threads: usize,
    out_keys: &mut [K],
    out_vals: &mut [V],
) {
    parallel_merge_into(runs, threads, |k: &K| k.to_radix(), out_keys, out_vals);
}

/// Merges `runs` (each sorted by the key's radix order) into a single sorted
/// vector using `threads` worker threads; one thread merges sequentially.
/// The output is partitioned into `threads` contiguous ranges; each worker
/// determines its input ranges with a value-domain binary search (so no two
/// workers touch the same elements) and merges them independently.
pub fn parallel_merge_sorted_runs<K: SortKey>(runs: &[&[K]], threads: usize) -> Vec<K> {
    let mut out = vec![K::default(); runs.iter().map(|r| r.len()).sum()];
    merge_keys_into(runs, threads, |k: &K| k.to_radix(), &mut out);
    out
}

/// Generalised parallel p-way merge over any copyable element type sorted by
/// `key_of`, with the same range-splitting front end as
/// [`parallel_merge_sorted_runs`].
pub fn parallel_merge_sorted_runs_by<T: Copy + Send + Sync + Default>(
    runs: &[&[T]],
    threads: usize,
    key_of: fn(&T) -> u64,
) -> Vec<T> {
    let mut out = vec![T::default(); runs.iter().map(|r| r.len()).sum()];
    merge_keys_into(runs, threads, key_of, &mut out);
    out
}

/// Merges keys-only `runs` into `out` (whose length must be the runs'
/// total) by running the kernel with zero-sized values alongside.
pub(crate) fn merge_keys_into<T, F>(runs: &[&[T]], threads: usize, key_of: F, out: &mut [T])
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Copy + Send + Sync,
{
    // `Vec<()>` never allocates, whatever its length.
    let units = vec![(); out.len()];
    let runs: Vec<(&[T], &[()])> = runs.iter().map(|&r| (r, &units[..r.len()])).collect();
    parallel_merge_into(&runs, threads, key_of, out, &mut vec![(); out.len()]);
}

/// The parallel front end: splits the output into `threads` ranges at
/// co-rank boundaries and runs the kernel on each range, writing into
/// disjoint sub-slices of `out_keys` / `out_vals`.
fn parallel_merge_into<T, V, F>(
    runs: &[(&[T], &[V])],
    threads: usize,
    key_of: F,
    out_keys: &mut [T],
    out_vals: &mut [V],
) where
    T: Copy + Send + Sync,
    V: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Copy + Send + Sync,
{
    let total: usize = runs.iter().map(|(ks, _)| ks.len()).sum();
    assert!(
        runs.iter().all(|(ks, vs)| ks.len() == vs.len()),
        "every run needs one value per key"
    );
    assert_eq!(out_keys.len(), total, "key output length");
    assert_eq!(out_vals.len(), total, "value output length");
    let threads = threads.clamp(1, total.max(1));
    if threads == 1 || total < SEQUENTIAL_CUTOFF {
        merge_into(runs, key_of, out_keys, out_vals);
        return;
    }

    // For each worker boundary, the split position in every run such that
    // exactly `total * t / threads` elements lie below it.
    let mut boundaries: Vec<Vec<usize>> = Vec::with_capacity(threads + 1);
    boundaries.push(vec![0; runs.len()]);
    for t in 1..threads {
        boundaries.push(split_positions(runs, total * t / threads, key_of));
    }
    boundaries.push(runs.iter().map(|(ks, _)| ks.len()).collect());

    thread::scope(|s| {
        let (mut rest_keys, mut rest_vals) = (out_keys, out_vals);
        for (t, bounds) in boundaries.windows(2).enumerate() {
            let (lo, hi) = (&bounds[0], &bounds[1]);
            let len: usize = lo.iter().zip(hi).map(|(a, b)| b - a).sum();
            let (keys, tail) = std::mem::take(&mut rest_keys).split_at_mut(len);
            rest_keys = tail;
            let (vals, tail) = std::mem::take(&mut rest_vals).split_at_mut(len);
            rest_vals = tail;
            let mut work = move || {
                let sub_runs: Vec<(&[T], &[V])> = runs
                    .iter()
                    .zip(lo.iter().zip(hi))
                    .map(|(&(ks, vs), (&a, &b))| (&ks[a..b], &vs[a..b]))
                    .collect();
                merge_into(&sub_runs, key_of, keys, vals);
            };
            // The calling thread merges the last range itself.
            if t + 1 == threads {
                work();
            } else {
                s.spawn(work);
            }
        }
    });
}

/// The sequential p-way merge kernel: merges `runs` (each sorted by
/// `key_of`) into `out_keys` / `out_vals`, whose lengths equal the runs'
/// total.  Ties go to the lower run index.
fn merge_into<T: Copy, V: Copy>(
    runs: &[(&[T], &[V])],
    key_of: impl Fn(&T) -> u64,
    out_keys: &mut [T],
    out_vals: &mut [V],
) {
    // The unmerged tails of the non-empty runs, in run order, and their
    // cached head keys.
    let mut live: Vec<(&[T], &[V])> = runs
        .iter()
        .copied()
        .filter(|(ks, _)| !ks.is_empty())
        .collect();
    let mut heads: Vec<u64> = live.iter().map(|(ks, _)| key_of(&ks[0])).collect();
    let mut at = 0;
    while live.len() > 1 {
        // No run can run dry before the last of these steps, so every
        // scanned head is a real key.
        let steps = live.iter().map(|(ks, _)| ks.len()).min().unwrap_or(0);
        let outs = out_keys[at..at + steps]
            .iter_mut()
            .zip(&mut out_vals[at..at + steps]);
        for (out_key, out_val) in outs {
            let mut best = 0;
            let mut best_key = heads[0];
            for (i, &key) in heads.iter().enumerate().skip(1) {
                let wins = key < best_key;
                best = if wins { i } else { best };
                best_key = if wins { key } else { best_key };
            }
            let (ks, vs) = &mut live[best];
            *out_key = ks[0];
            *out_val = vs[0];
            *ks = &ks[1..];
            *vs = &vs[1..];
            if let Some(next) = ks.first() {
                heads[best] = key_of(next);
            }
        }
        at += steps;
        // Drop the runs that ran dry, keeping the rest in run order.
        let mut r = 0;
        while r < live.len() {
            if live[r].0.is_empty() {
                live.remove(r);
                heads.remove(r);
            } else {
                r += 1;
            }
        }
    }
    if let Some(&(ks, vs)) = live.first() {
        out_keys[at..].copy_from_slice(ks);
        out_vals[at..].copy_from_slice(vs);
    }
}

/// Finds, for every run, the number of leading elements that belong to the
/// first `target` elements of the merged output (a co-rank / value-domain
/// binary search).
fn split_positions<T, V>(
    runs: &[(&[T], &[V])],
    target: usize,
    key_of: impl Fn(&T) -> u64,
) -> Vec<usize> {
    // Binary search over the key domain for the smallest key value `v` such
    // that at least `target` elements are <= v, then distribute the ties.
    let mut lo = 0u64;
    let mut hi = u64::MAX;
    let count_le = |v: u64| -> usize {
        runs.iter()
            .map(|(ks, _)| ks.partition_point(|k| key_of(k) <= v))
            .sum()
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count_le(mid) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let v = lo;
    // Elements strictly below v are always included; elements equal to v are
    // included left-to-right across runs until the target is reached.
    let mut positions: Vec<usize> = runs
        .iter()
        .map(|(ks, _)| ks.partition_point(|k| key_of(k) < v))
        .collect();
    let mut need = target - positions.iter().sum::<usize>().min(target);
    for (r, (ks, _)) in runs.iter().enumerate() {
        if need == 0 {
            break;
        }
        let ties = ks.partition_point(|k| key_of(k) <= v) - positions[r];
        let take = ties.min(need);
        positions[r] += take;
        need -= take;
    }
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{uniform_keys, KeyCodec, SplitMix64};

    fn make_runs(n: usize, k: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..k)
            .map(|_| {
                let mut run: Vec<u64> = (0..n / k).map(|_| rng.next_u64()).collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    /// Sorts each run by radix order and labels every element with its run
    /// and position, so a comparison of values also checks tie order.
    fn labelled<K: SortKey>(runs: Vec<Vec<K>>) -> Vec<(Vec<K>, Vec<u32>)> {
        runs.into_iter()
            .enumerate()
            .map(|(r, mut ks)| {
                ks.sort_by_key(|k| k.to_radix());
                let vs = (0..ks.len() as u32).map(|i| (r as u32) << 24 | i).collect();
                (ks, vs)
            })
            .collect()
    }

    /// Merges labelled `runs` with `threads` threads and checks keys and
    /// values against the stable reference: the runs concatenated in run
    /// order, then stable-sorted by radix key.
    fn assert_matches_stable_reference<K: SortKey>(runs: Vec<Vec<K>>, threads: usize) {
        let runs = labelled(runs);
        let mut expected: Vec<(u64, u32)> = runs
            .iter()
            .flat_map(|(ks, vs)| ks.iter().map(|k| k.to_radix()).zip(vs.iter().copied()))
            .collect();
        expected.sort_by_key(|&(k, _)| k);
        let refs: Vec<(&[K], &[u32])> = runs
            .iter()
            .map(|(ks, vs)| (ks.as_slice(), vs.as_slice()))
            .collect();
        let total = expected.len();
        let (mut keys, mut vals) = (vec![K::default(); total], vec![0u32; total]);
        merge_pairs_into(&refs, threads, &mut keys, &mut vals);
        let got: Vec<(u64, u32)> = keys.iter().map(|k| k.to_radix()).zip(vals).collect();
        let ctx = format!("runs={} threads={threads} total={total}", runs.len());
        assert!(got == expected, "{ctx}");
    }

    /// `total` elements cut into `k` runs of random, mostly unequal (and
    /// sometimes zero) lengths, each element drawn by `key`.
    fn random_runs<K>(
        total: usize,
        k: usize,
        rng: &mut SplitMix64,
        mut key: impl FnMut(&mut SplitMix64) -> K,
    ) -> Vec<Vec<K>> {
        let mut cuts: Vec<usize> = (1..k)
            .map(|_| rng.next_u64() as usize % (total + 1))
            .collect();
        cuts.push(0);
        cuts.push(total);
        cuts.sort_unstable();
        cuts.windows(2)
            .map(|w| (w[0]..w[1]).map(|_| key(rng)).collect())
            .collect()
    }

    #[test]
    fn sequential_merge_matches_sorted_concatenation() {
        let runs = make_runs(9_000, 3, 1);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = parallel_merge_sorted_runs(&refs, 1);
        assert_eq!(merged.len(), 9_000);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        let mut expected: Vec<u64> = runs.concat();
        expected.sort_unstable();
        assert_eq!(merged, expected);
    }

    #[test]
    fn pairs_merge_matches_the_stable_reference() {
        // A 40-key universe topped at u64::MAX forces ties within and
        // across runs; the totals straddle the sequential cutoff.
        let mut rng = SplitMix64::new(21);
        for total in [SEQUENTIAL_CUTOFF - 1, SEQUENTIAL_CUTOFF + 1, 30_000] {
            for k in [2usize, 3, 4, 5, 8, 16] {
                let runs = random_runs(total, k, &mut rng, |r| u64::MAX - r.next_u64() % 40);
                for threads in [1usize, 2, 3, 6] {
                    assert_matches_stable_reference(runs.clone(), threads);
                }
            }
        }
    }

    #[test]
    fn pairs_merge_orders_extreme_and_codec_keys() {
        let mut rng = SplitMix64::new(5);
        let total = 2 * SEQUENTIAL_CUTOFF;
        let floats = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            7.0,
            f64::INFINITY,
        ];
        for threads in [1usize, 3] {
            let max_heavy = random_runs(total, 4, &mut rng, |r| match r.next_u64() % 3 {
                0 => u64::MAX,
                1 => 0,
                _ => r.next_u64(),
            });
            assert_matches_stable_reference(max_heavy, threads);
            let signed = random_runs(total, 5, &mut rng, |r| match r.next_u64() % 3 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => r.next_u64() as i64 % 100,
            });
            assert_matches_stable_reference(signed, threads);
            let float = random_runs(total, 6, &mut rng, |r| {
                floats[r.next_u64() as usize % floats.len()]
            });
            assert_matches_stable_reference(float, threads);
        }
    }

    #[test]
    fn pairs_merge_handles_empty_single_and_no_runs() {
        let big = uniform_keys::<u64>(3 * SEQUENTIAL_CUTOFF, 4);
        for threads in [1usize, 2, 6] {
            assert_matches_stable_reference(Vec::<Vec<u64>>::new(), threads);
            assert_matches_stable_reference(vec![Vec::<u64>::new(); 3], threads);
            assert_matches_stable_reference(vec![vec![u64::MAX, 3, 3]], threads);
            assert_matches_stable_reference(vec![big.clone()], threads);
            // Empty runs around non-empty ones of very different lengths:
            // the short runs run dry long before the long ones.
            let runs = vec![
                Vec::new(),
                big[..7].to_vec(),
                Vec::new(),
                big.clone(),
                vec![u64::MAX; 3],
                Vec::new(),
            ];
            assert_matches_stable_reference(runs, threads);
        }
    }

    #[test]
    #[should_panic(expected = "one value per key")]
    fn pairs_merge_rejects_runs_short_of_values() {
        let (keys, vals) = ([1u64, 2], [0u32]);
        let (mut out_k, mut out_v) = ([0u64; 2], [0u32; 2]);
        merge_pairs_into(&[(&keys[..], &vals[..])], 1, &mut out_k, &mut out_v);
    }

    #[test]
    fn merge_handles_unbalanced_and_empty_runs() {
        let a: Vec<u32> = vec![1, 5, 9];
        let b: Vec<u32> = vec![];
        let c: Vec<u32> = vec![2, 2, 2, 2, 2, 2, 10];
        let merged = parallel_merge_sorted_runs(&[&a, &b, &c], 1);
        assert_eq!(merged, vec![1, 2, 2, 2, 2, 2, 2, 5, 9, 10]);
        let empty: Vec<&[u32]> = vec![];
        assert!(parallel_merge_sorted_runs(&empty, 1).is_empty());
    }

    #[test]
    fn parallel_merge_matches_sequential_merge() {
        for k in [2usize, 3, 4, 8, 16] {
            let runs = make_runs(40_000, k, k as u64);
            let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let seq = parallel_merge_sorted_runs(&refs, 1);
            for threads in [2usize, 3, 6] {
                let par = parallel_merge_sorted_runs(&refs, threads);
                assert_eq!(par, seq, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_merge_with_heavy_duplicates() {
        // Many equal keys stress the tie-splitting logic of the co-rank
        // search.
        let mut runs: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 20_000]).collect();
        runs[0].extend(vec![9u64; 5]);
        for r in &mut runs {
            r.sort_unstable();
        }
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = parallel_merge_sorted_runs(&refs, 5);
        assert_eq!(merged.len(), 80_005);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(merged.iter().filter(|&&k| k == 9).count(), 5);
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let a = vec![3u32, 4];
        let b = vec![1u32, 2];
        let merged = parallel_merge_sorted_runs(&[&a, &b], 8);
        assert_eq!(merged, vec![1, 2, 3, 4]);
    }

    #[test]
    fn signed_keys_merge_via_codec_order() {
        let mut a: Vec<i32> = vec![-5, 0, 3];
        let mut b: Vec<i32> = vec![-10, -1, 7];
        a.sort_unstable();
        b.sort_unstable();
        let merged = parallel_merge_sorted_runs(&[&a, &b], 1);
        assert_eq!(merged, vec![-10, -5, -1, 0, 3, 7]);
    }

    #[test]
    fn generalized_merge_carries_values_with_keys() {
        // Merge (key, value) records from several sorted runs and check the
        // values still ride with their keys — the multi-GPU recombination
        // path for key-value sorts.
        let mut rng = SplitMix64::new(77);
        let runs: Vec<Vec<(u32, u32)>> = (0..5)
            .map(|_| {
                let mut run: Vec<(u32, u32)> = (0..10_000)
                    .map(|_| {
                        let k = rng.next_u32();
                        (k, !k)
                    })
                    .collect();
                run.sort_unstable_by_key(|&(k, _)| k);
                run
            })
            .collect();
        let refs: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
        for threads in [1usize, 4] {
            let merged = parallel_merge_sorted_runs_by(&refs, threads, |p: &(u32, u32)| p.0 as u64);
            assert_eq!(merged.len(), 50_000);
            assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(merged.iter().all(|&(k, v)| v == !k));
        }
    }

    #[test]
    fn merging_real_gpu_style_runs() {
        // Simulate the heterogeneous pipeline's data flow: sort chunks
        // independently and merge them.
        let keys = uniform_keys::<u64>(100_000, 9);
        let expected = KeyCodec::std_sorted(&keys);
        let chunk = 25_000;
        let runs: Vec<Vec<u64>> = keys
            .chunks(chunk)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(parallel_merge_sorted_runs(&refs, 4), expected);
    }
}
