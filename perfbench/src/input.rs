//! Generated inputs and their correctness checks.
//!
//! Inputs are made from the run's seed before any timed window opens; the
//! sorters only ever receive the generated vectors.  Key-only inputs are
//! checked against a `sort_unstable` reference, pair inputs (whose values
//! are row ids) with [`verify_indexed_pair_sort`].

use hrs_core::SortValue;
use sort_service::SortPayload;
use workloads::pairs::verify_indexed_pair_sort;
use workloads::SortKey;

/// Key types the benchmark sorts (`u32`, `u64`): radix order equals
/// numeric order, so `sort_unstable` is the reference.
pub trait Key: SortKey + Ord {}
impl<K: SortKey + Ord> Key for K {}

/// What travels with the keys: nothing (`()`) or a `u32` row id.
pub trait Payload: SortValue {
    /// Whether a value travels with every key.
    const PAIRS: bool;

    /// Values for `n` keys: row ids `0..n` for pairs.
    fn row_ids(n: usize) -> Vec<Self>;

    /// Reference output needed by [`Payload::check`] (a sorted copy of the
    /// keys for key-only inputs; nothing for pairs).
    fn reference<K: Key>(keys: &[K]) -> Vec<K>;

    /// Whether `(keys, vals)` is the sorted version of `original`.
    fn check<K: Key>(original: &[K], reference: &[K], keys: &[K], vals: &[Self]) -> bool;
}

impl Payload for () {
    const PAIRS: bool = false;

    fn row_ids(n: usize) -> Vec<()> {
        vec![(); n]
    }

    fn reference<K: Key>(keys: &[K]) -> Vec<K> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted
    }

    fn check<K: Key>(_original: &[K], reference: &[K], keys: &[K], _vals: &[()]) -> bool {
        keys == reference
    }
}

impl Payload for u32 {
    const PAIRS: bool = true;

    fn row_ids(n: usize) -> Vec<u32> {
        assert!(n <= u32::MAX as usize, "row ids must fit u32");
        (0..n as u32).collect()
    }

    fn reference<K: Key>(_keys: &[K]) -> Vec<K> {
        Vec::new()
    }

    fn check<K: Key>(original: &[K], _reference: &[K], keys: &[K], vals: &[u32]) -> bool {
        verify_indexed_pair_sort(original, keys, vals)
    }
}

/// One generated input: keys, values (row ids for pairs) and what the
/// check needs.
#[derive(Debug, Clone)]
pub struct Input<K: Key, V: Payload> {
    /// The unsorted keys.
    pub keys: Vec<K>,
    /// The values travelling with them (`()` for key-only inputs).
    pub vals: Vec<V>,
    reference: Vec<K>,
}

impl<K: Key, V: Payload> Input<K, V> {
    /// Wraps generated keys, adding row-id values and the reference.
    pub fn new(keys: Vec<K>) -> Self {
        let vals = V::row_ids(keys.len());
        let reference = V::reference(&keys);
        Input {
            keys,
            vals,
            reference,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the input holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Copies the input into reusable work buffers (no allocation once the
    /// buffers have grown).
    pub fn copy_into(&self, keys: &mut Vec<K>, vals: &mut Vec<V>) {
        keys.clear();
        keys.extend_from_slice(&self.keys);
        vals.clear();
        vals.extend_from_slice(&self.vals);
    }

    /// Whether `(keys, vals)` is this input, sorted.
    pub fn check(&self, keys: &[K], vals: &[V]) -> bool {
        V::check(&self.keys, &self.reference, keys, vals)
    }
}

/// One service request template: the payload to submit and how to check
/// the ticket's result.  Templates hold distinct random data, so a ticket
/// that returned another request's data fails its check.
#[derive(Debug, Clone)]
pub struct RequestTemplate {
    /// The unsorted payload (cloned for every submission).
    pub payload: SortPayload,
    reference: Option<SortPayload>,
}

impl RequestTemplate {
    /// Wraps a payload; key-only payloads get a sorted reference, pair
    /// payloads must carry row ids `0..len` as values.
    pub fn new(payload: SortPayload) -> Self {
        let reference = match &payload {
            SortPayload::U32Keys(k) => Some(SortPayload::U32Keys(<() as Payload>::reference(k))),
            SortPayload::U64Keys(k) => Some(SortPayload::U64Keys(<() as Payload>::reference(k))),
            SortPayload::U32Pairs { .. } | SortPayload::U64Pairs { .. } => None,
        };
        RequestTemplate { payload, reference }
    }

    /// Number of keys in the request.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the request holds no keys.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Whether `result` is this request's own data, sorted.
    pub fn check(&self, result: &SortPayload) -> bool {
        match (&self.payload, result) {
            (SortPayload::U32Keys(_), SortPayload::U32Keys(_))
            | (SortPayload::U64Keys(_), SortPayload::U64Keys(_)) => {
                self.reference.as_ref() == Some(result)
            }
            (SortPayload::U32Pairs { keys: orig, .. }, SortPayload::U32Pairs { keys, values }) => {
                verify_indexed_pair_sort(orig, keys, values)
            }
            (SortPayload::U64Pairs { keys: orig, .. }, SortPayload::U64Pairs { keys, values }) => {
                verify_indexed_pair_sort(orig, keys, values)
            }
            _ => false,
        }
    }
}

/// Mixes a template index into the run seed (SplitMix64 finaliser), so
/// every template draws from its own stream.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
