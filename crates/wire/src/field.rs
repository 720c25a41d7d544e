//! Byte-range helpers for header field definitions, smoltcp-style.
//!
//! Each wire module declares its header layout as `const` ranges into the
//! buffer, e.g. `pub const VNI: Field = 4..7;`. Keeping the layout in one
//! `field` module per format makes offsets reviewable against the RFC
//! figure in a single screen.

/// A fixed byte range within a header.
pub(crate) type Field = core::ops::Range<usize>;

/// Offset of the first byte after a fixed header (start of payload).
pub(crate) type Rest = core::ops::RangeFrom<usize>;

/// Reads a big-endian `u16` at `field`.
#[inline]
pub(crate) fn get_u16(data: &[u8], field: Field) -> u16 {
    u16::from_be_bytes([data[field.start], data[field.start + 1]])
}

/// Writes a big-endian `u16` at `field`.
#[inline]
pub(crate) fn set_u16(data: &mut [u8], field: Field, value: u16) {
    data[field].copy_from_slice(&value.to_be_bytes());
}

/// Reads a 24-bit big-endian value at `field` (3 bytes).
#[inline]
pub(crate) fn get_u24(data: &[u8], field: Field) -> u32 {
    let s = field.start;
    (u32::from(data[s]) << 16) | (u32::from(data[s + 1]) << 8) | u32::from(data[s + 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_roundtrip() {
        let mut buf = [0u8; 4];
        set_u16(&mut buf, 1..3, 0xBEEF);
        assert_eq!(buf, [0, 0xBE, 0xEF, 0]);
        assert_eq!(get_u16(&buf, 1..3), 0xBEEF);
    }

    #[test]
    fn u24_roundtrip() {
        let buf = [0xAB, 0xCD, 0xEF, 0];
        assert_eq!(get_u24(&buf, 0..3), 0x00AB_CDEF);
        assert_eq!(get_u24(&buf, 1..4), 0x00CD_EF00);
    }
}
