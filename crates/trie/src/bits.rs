//! Bit-string keys for the Patricia trie — inline 128-bit representation.
//!
//! A [`BitStr`] is an immutable sequence of up to 128 bits, MSB-first —
//! the natural order for network prefixes, where "the first `len` bits of
//! the address" is exactly the CIDR meaning.
//!
//! ## Why 128 bits is enough
//!
//! Every key type in the system fits: IPv6 EIDs are exactly 128 bits, MAC
//! EIDs 48, IPv4 EIDs 32, and trie *labels* (the bits between a node and
//! its parent) are sub-slices of keys, so they can never exceed the
//! longest key. That bound lets the whole bit string live inline as a
//! `(u128, u8)` pair: a left-aligned word of bits plus a length.
//!
//! ## Why inline matters
//!
//! A `Vec<u8>`-backed bit string would make every trie step of a lookup
//! materialize a heap-allocated copy via `slice()`. With the inline
//! representation:
//!
//! * `BitStr` is `Copy`; slicing is a shift + mask, concatenation a
//!   shift + or, and prefix comparison one `XOR` + `leading_zeros` —
//!   all word ops, **zero heap allocations** anywhere in the type.
//! * A borrowed "view" type is unnecessary: copying the key *is* the
//!   cheap path, so lookups simply walk a local `(u128, u8)` cursor.
//!
//! Bits are stored left-aligned: bit `i` of the string is bit `127 - i`
//! of the word. Bits at positions `>= len` are always zero (canonical
//! form), so derived `Eq`/`Ord`/`Hash` agree with logical equality.

use core::fmt;

/// Maximum key width in bits (IPv6 EIDs; see the module docs).
pub(crate) const MAX_BITS: usize = 128;

/// An inline bit string (MSB-first, at most 128 bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitStr {
    /// Left-aligned bits; everything past `len` is zero (canonical form).
    bits: u128,
    /// Length in bits, `0..=128`.
    len: u8,
}

/// All-ones mask over the first `n` (left-aligned) bits.
#[inline]
const fn mask(n: usize) -> u128 {
    match n {
        0 => 0,
        MAX_BITS.. => u128::MAX,
        _ => u128::MAX << (MAX_BITS - n),
    }
}

impl BitStr {
    /// The empty bit string (the trie root's label).
    #[inline]
    pub const fn empty() -> Self {
        BitStr { bits: 0, len: 0 }
    }

    /// Builds a bit string directly from a left-aligned word.
    ///
    /// # Panics
    /// Panics if `len > 128` or if bits beyond `len` are set.
    #[inline]
    pub(crate) const fn from_raw(bits: u128, len: usize) -> Self {
        assert!(len <= MAX_BITS, "bit length exceeds 128");
        assert!(bits & !mask(len) == 0, "non-canonical bits past len");
        BitStr {
            bits,
            len: len as u8,
        }
    }

    /// Builds a bit string from the first `len` bits of `bytes`.
    ///
    /// Trailing bits inside the last byte are zeroed so equal prefixes
    /// have equal representations regardless of the source buffer.
    ///
    /// # Panics
    /// Panics if `len > bytes.len() * 8` or `len > 128`.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(len <= bytes.len() * 8, "bit length exceeds buffer");
        assert!(len <= MAX_BITS, "bit length exceeds 128");
        let mut bits = 0u128;
        let nbytes = len.div_ceil(8);
        for (i, &b) in bytes[..nbytes].iter().enumerate() {
            bits |= u128::from(b) << (120 - 8 * i);
        }
        BitStr {
            bits: bits & mask(len),
            len: len as u8,
        }
    }

    /// The raw left-aligned word (bits past `len` are zero).
    #[inline]
    pub(crate) const fn raw(&self) -> u128 {
        self.bits
    }

    /// Writes the bits back out as big-endian bytes into `out`.
    ///
    /// Fills `ceil(len / 8)` bytes; the rest of `out` is untouched.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `ceil(len / 8)` bytes.
    pub(crate) fn write_bytes(&self, out: &mut [u8]) {
        let nbytes = (self.len as usize).div_ceil(8);
        let be = self.bits.to_be_bytes();
        out[..nbytes].copy_from_slice(&be[..nbytes]);
    }

    /// Length in bits.
    #[inline]
    pub(crate) const fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the string holds no bits.
    #[inline]
    pub(crate) const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i` (0 = most significant).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub(crate) fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range {}", self.len);
        (self.bits >> (MAX_BITS - 1 - i)) & 1 == 1
    }

    /// The sub-string `[start, end)` — a shift and a mask, no allocation.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    #[inline]
    pub fn slice(&self, start: usize, end: usize) -> BitStr {
        assert!(start <= end && end <= self.len(), "slice out of range");
        let n = end - start;
        // `start == 128` implies `n == 0`; keep the shift in range.
        let shifted = if start == 0 {
            self.bits
        } else if start >= MAX_BITS {
            0
        } else {
            self.bits << start
        };
        BitStr {
            bits: shifted & mask(n),
            len: n as u8,
        }
    }

    /// Appends one bit.
    ///
    /// # Panics
    /// Panics if the string is already 128 bits long.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        assert!(self.len() < MAX_BITS, "bit string full (128 bits)");
        if bit {
            self.bits |= 1 << (MAX_BITS - 1 - self.len());
        }
        self.len += 1;
    }

    /// Concatenation `self ++ other` — a shift and an or, no allocation.
    ///
    /// # Panics
    /// Panics if the combined length exceeds 128 bits.
    #[inline]
    pub(crate) fn concat(&self, other: &BitStr) -> BitStr {
        let total = self.len() + other.len();
        assert!(total <= MAX_BITS, "concatenation exceeds 128 bits");
        let tail = if self.is_empty() {
            other.bits
        } else if self.len() >= MAX_BITS {
            0
        } else {
            other.bits >> self.len()
        };
        BitStr {
            bits: self.bits | tail,
            len: total as u8,
        }
    }

    /// Number of leading bits shared with `other`: one `XOR` plus
    /// `leading_zeros`, the word-sized comparison the trie walk relies on.
    #[inline]
    pub(crate) fn common_prefix_len(&self, other: &BitStr) -> usize {
        let max = self.len().min(other.len());
        let diff = self.bits ^ other.bits;
        (diff.leading_zeros() as usize).min(max)
    }

    /// True when `self` is a prefix of `other`.
    #[inline]
    pub(crate) fn is_prefix_of(&self, other: &BitStr) -> bool {
        self.len <= other.len && (self.bits ^ other.bits) & mask(self.len()) == 0
    }
}

impl fmt::Debug for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStr(")?;
        for i in 0..self.len() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_canonicalizes_spare_bits() {
        let a = BitStr::from_bytes(&[0b1010_1111], 4);
        let b = BitStr::from_bytes(&[0b1010_0000], 4);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "1010");
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let s = BitStr::from_bytes(&[0b1000_0001, 0b0100_0000], 16);
        assert!(s.bit(0));
        assert!(!s.bit(1));
        assert!(s.bit(7));
        assert!(!s.bit(8));
        assert!(s.bit(9));
    }

    #[test]
    fn push_builds_same_as_from_bytes() {
        let mut s = BitStr::empty();
        for b in [true, false, true, true, false, false, true, false, true] {
            s.push(b);
        }
        assert_eq!(s, BitStr::from_bytes(&[0b1011_0010, 0b1000_0000], 9));
    }

    #[test]
    fn slice_and_concat_are_inverse() {
        let s = BitStr::from_bytes(&[0xDE, 0xAD, 0xBE], 22);
        let left = s.slice(0, 10);
        let right = s.slice(10, 22);
        assert_eq!(left.concat(&right), s);
    }

    #[test]
    fn common_prefix_len_cases() {
        let a = BitStr::from_bytes(&[0b1100_0000], 8);
        let b = BitStr::from_bytes(&[0b1101_0000], 8);
        assert_eq!(a.common_prefix_len(&b), 3);
        assert_eq!(a.common_prefix_len(&a), 8);
        let empty = BitStr::empty();
        assert_eq!(a.common_prefix_len(&empty), 0);
    }

    #[test]
    fn common_prefix_spans_byte_boundary() {
        let a = BitStr::from_bytes(&[0xFF, 0b1010_0000], 12);
        let b = BitStr::from_bytes(&[0xFF, 0b1011_0000], 12);
        assert_eq!(a.common_prefix_len(&b), 11);
    }

    #[test]
    fn is_prefix_of() {
        let p = BitStr::from_bytes(&[0b1010_0000], 4);
        let full = BitStr::from_bytes(&[0b1010_1111], 8);
        assert!(p.is_prefix_of(&full));
        assert!(!full.is_prefix_of(&p));
        assert!(BitStr::empty().is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        BitStr::from_bytes(&[0xff], 4).bit(4);
    }

    #[test]
    fn full_width_128_bit_key() {
        let bytes = [0xABu8; 16];
        let s = BitStr::from_bytes(&bytes, 128);
        assert_eq!(s.len(), 128);
        assert_eq!(s.slice(0, 128), s);
        assert_eq!(s.slice(128, 128), BitStr::empty());
        assert_eq!(s.common_prefix_len(&s), 128);
        assert!(s.is_prefix_of(&s));
        assert_eq!(BitStr::empty().concat(&s), s);
        assert_eq!(s.concat(&BitStr::empty()), s);
        let mut out = [0u8; 16];
        s.write_bytes(&mut out);
        assert_eq!(out, bytes);
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn concat_past_128_panics() {
        let a = BitStr::from_bytes(&[0xFF; 16], 128);
        let b = BitStr::from_bytes(&[0x80], 1);
        let _ = a.concat(&b);
    }

    #[test]
    fn write_bytes_roundtrip_partial_byte() {
        let s = BitStr::from_bytes(&[0b1011_0110, 0b1100_0000], 10);
        let mut out = [0u8; 2];
        s.write_bytes(&mut out);
        assert_eq!(BitStr::from_bytes(&out, 10), s);
    }

    #[test]
    fn raw_is_canonical() {
        let s = BitStr::from_bytes(&[0xFF, 0xFF], 10);
        assert_eq!(s.raw() & !super::mask(10), 0);
        assert_eq!(BitStr::from_raw(s.raw(), 10), s);
    }
}
