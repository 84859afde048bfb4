//! Most-significant-first digit extraction.
//!
//! The hybrid radix sort interprets a `k`-bit key as a sequence of `⌈k/d⌉`
//! digits of `d` bits each, processed from the most-significant digit
//! (pass 0) towards the least-significant digit.  When `k` is not a multiple
//! of `d`, the *last* digit is narrower.

/// Number of digits needed to cover `key_bits` bits with `digit_bits`-bit
/// digits.
#[inline]
pub fn num_digits(key_bits: u32, digit_bits: u32) -> u32 {
    key_bits.div_ceil(digit_bits)
}

/// Width in bits of the digit processed in `pass` (0 = most significant).
#[inline]
pub fn digit_width(key_bits: u32, digit_bits: u32, pass: u32) -> u32 {
    debug_assert!(pass < num_digits(key_bits, digit_bits));
    let consumed = digit_bits * pass;
    (key_bits - consumed).min(digit_bits)
}

/// Radix (number of possible values) of the digit processed in `pass`.
#[inline]
pub fn radix_of_pass(key_bits: u32, digit_bits: u32, pass: u32) -> usize {
    1usize << digit_width(key_bits, digit_bits, pass)
}

/// Extracts the digit value for `pass` from a key's radix representation.
///
/// Kernels that extract the same digit from many keys build a [`Digit`]
/// once instead.
#[inline]
pub fn digit_of(radix_bits: u64, key_bits: u32, digit_bits: u32, pass: u32) -> usize {
    Digit::of_pass(key_bits, digit_bits, pass).of(radix_bits)
}

/// One digit's position in a key's radix representation: the per-key work
/// of every kernel is `(radix >> shift) & mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digit {
    shift: u32,
    mask: u64,
}

impl Digit {
    /// The digit processed in MSD `pass` of `key_bits`-bit keys.
    #[inline]
    pub fn of_pass(key_bits: u32, digit_bits: u32, pass: u32) -> Self {
        let width = digit_width(key_bits, digit_bits, pass);
        Digit::at(key_bits - digit_bits * pass - width, width)
    }

    /// The `width`-bit digit starting at bit `shift` (bit 0 = least
    /// significant).
    #[inline]
    pub fn at(shift: u32, width: u32) -> Self {
        Digit {
            shift,
            mask: (1u64 << width) - 1,
        }
    }

    /// The digit's value in `radix_bits`.
    #[inline(always)]
    pub fn of(self, radix_bits: u64) -> usize {
        ((radix_bits >> self.shift) & self.mask) as usize
    }
}

/// The bins a counting pass partitions keys into: a digit of the key
/// ([`Digit`]), or any other function of the key that never decreases as
/// the key grows, so that bins in order hold the keys in order.  The pass
/// is monomorphised per implementation, so a digit pass compiles to the
/// same loop as a hand-written digit extraction.
///
/// # Safety
///
/// [`KeyBins::bin`] must return a value below [`KeyBins::bins`] for every
/// key: the staged scatter indexes its tables by bin without bounds
/// checks.
pub unsafe trait KeyBins<K>: Copy + Send + Sync {
    /// Number of bins; every key's bin is below it.
    fn bins(&self) -> usize;

    /// The bin of `key`.
    fn bin(&self, key: &K) -> usize;

    /// Adds one to `counts[bin(k)]` for every key `k` of `keys`.
    #[inline]
    fn count_into(&self, keys: &[K], counts: &mut [u32]) {
        for key in keys {
            counts[self.bin(key)] += 1;
        }
    }
}

// SAFETY: `of` masks the shifted radix to `mask`, so every bin is at most
// `mask`, below `bins() = mask + 1`.
unsafe impl<K: workloads::SortKey> KeyBins<K> for Digit {
    #[inline]
    fn bins(&self) -> usize {
        self.mask as usize + 1
    }

    #[inline(always)]
    fn bin(&self, key: &K) -> usize {
        self.of(key.to_radix())
    }
}

/// The number of low-order bits that remain unsorted after `passes`
/// counting-sort passes (used by the local sort to know which digits still
/// need sorting).
#[inline]
pub fn remaining_bits(key_bits: u32, digit_bits: u32, passes: u32) -> u32 {
    key_bits.saturating_sub(digit_bits * passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_partition_the_key() {
        // Reassembling the digits must reproduce the key, for both aligned
        // and unaligned digit widths.
        for &(key_bits, digit_bits) in &[(32u32, 8u32), (64, 8), (32, 5), (64, 5), (16, 3)] {
            let key: u64 = 0xDEAD_BEEF_CAFE_BABE & ((1u128 << key_bits) - 1) as u64;
            let mut rebuilt: u64 = 0;
            for pass in 0..num_digits(key_bits, digit_bits) {
                let width = digit_width(key_bits, digit_bits, pass);
                rebuilt = (rebuilt << width) | digit_of(key, key_bits, digit_bits, pass) as u64;
            }
            assert_eq!(rebuilt, key, "k={key_bits} d={digit_bits}");
        }
    }

    #[test]
    fn pass_zero_is_the_most_significant_digit() {
        assert_eq!(digit_of(0xFF00_0000, 32, 8, 0), 0xFF);
        assert_eq!(digit_of(0xFF00_0000, 32, 8, 1), 0x00);
        assert_eq!(digit_of(0x0000_00AB, 32, 8, 3), 0xAB);
        assert_eq!(digit_of(0xAB00_0000_0000_0000, 64, 8, 0), 0xAB);
    }

    #[test]
    fn unaligned_last_digit_is_narrower() {
        // 32-bit keys with 5-bit digits: 7 digits, the last covers 2 bits.
        assert_eq!(num_digits(32, 5), 7);
        assert_eq!(digit_width(32, 5, 0), 5);
        assert_eq!(digit_width(32, 5, 6), 2);
        assert_eq!(radix_of_pass(32, 5, 6), 4);
        assert_eq!(digit_of(0b11, 32, 5, 6), 0b11);
    }

    #[test]
    fn table_2_example_digits() {
        // Table 2 sorts 4-bit keys with 2-bit digits; key "31" in base 4 is
        // 0b1101 = 13: most-significant digit 3, least-significant digit 1.
        let key = 0b1101u64;
        assert_eq!(digit_of(key, 4, 2, 0), 3);
        assert_eq!(digit_of(key, 4, 2, 1), 1);
        assert_eq!(num_digits(4, 2), 2);
    }

    #[test]
    fn remaining_bits_counts_down() {
        assert_eq!(remaining_bits(64, 8, 0), 64);
        assert_eq!(remaining_bits(64, 8, 3), 40);
        assert_eq!(remaining_bits(64, 8, 8), 0);
        assert_eq!(remaining_bits(32, 5, 7), 0);
    }
}
