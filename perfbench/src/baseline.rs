//! Same-run reference sorts: `slice::sort_unstable` and a plain 8-bit LSD
//! radix sort.  They run on the identical input as the measured sort and
//! are reported next to it; they are never gated.

use crate::input::{Input, Key, Payload};
use std::time::{Duration, Instant};

/// A plain least-significant-digit radix sort: 8 bits per pass, every
/// pass a full count-and-scatter over all keys (values travel along).
pub fn lsd_radix_sort<K: Key, V: Payload>(keys: &mut Vec<K>, vals: &mut Vec<V>) {
    let n = keys.len();
    let mut tmp_keys = vec![K::default(); n];
    let mut tmp_vals = vec![V::default(); if V::PAIRS { n } else { 0 }];
    for pass in 0..K::BITS / 8 {
        let shift = 8 * pass;
        let digit = |k: &K| ((k.to_radix() >> shift) & 0xFF) as usize;
        let mut offsets = [0usize; 256];
        for k in keys.iter() {
            offsets[digit(k)] += 1;
        }
        let mut sum = 0;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = sum;
            sum += count;
        }
        for i in 0..n {
            let d = digit(&keys[i]);
            let pos = offsets[d];
            offsets[d] += 1;
            tmp_keys[pos] = keys[i];
            if V::PAIRS {
                tmp_vals[pos] = vals[i];
            }
        }
        std::mem::swap(keys, &mut tmp_keys);
        if V::PAIRS {
            std::mem::swap(vals, &mut tmp_vals);
        }
    }
}

/// `sort_unstable` on the keys, or on `(key, value)` records by key.
/// Returns the time of the sort alone (zipping is not timed).
pub fn std_sort<K: Key, V: Payload>(keys: &mut [K], vals: &mut [V]) -> Duration {
    if V::PAIRS {
        let mut records: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        let start = Instant::now();
        records.sort_unstable_by_key(|r| r.0);
        let elapsed = start.elapsed();
        for (i, (k, v)) in records.into_iter().enumerate() {
            keys[i] = k;
            vals[i] = v;
        }
        elapsed
    } else {
        let start = Instant::now();
        keys.sort_unstable();
        start.elapsed()
    }
}

/// Times both references on `input`; returns `(std, lsd)` sort times and
/// whether every reference output checked out.
pub fn time_references<K: Key, V: Payload>(input: &Input<K, V>) -> (Duration, Duration, bool) {
    let (mut keys, mut vals) = (Vec::new(), Vec::new());
    input.copy_into(&mut keys, &mut vals);
    let std_time = std_sort(&mut keys, &mut vals);
    let mut ok = input.check(&keys, &vals);
    input.copy_into(&mut keys, &mut vals);
    let start = Instant::now();
    lsd_radix_sort(&mut keys, &mut vals);
    let lsd_time = start.elapsed();
    ok &= input.check(&keys, &vals);
    (std_time, lsd_time, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsd_sorts_keys_and_pairs() {
        let keys: Vec<u64> = workloads::uniform_keys(5_000, 7);
        let input: Input<u64, u32> = Input::new(keys.clone());
        let (_, _, ok) = time_references(&input);
        assert!(ok);
        let input: Input<u32, ()> = Input::new(workloads::uniform_keys(5_000, 8));
        let (_, _, ok) = time_references(&input);
        assert!(ok);
    }
}
