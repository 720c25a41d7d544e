//! # sda-wire
//!
//! Byte-accurate wire formats for the SDA data plane and control plane,
//! in the smoltcp idiom:
//!
//! 1. every packet format has a zero-copy **view**
//!    (`Packet<T: AsRef<[u8]>>`, `ethernet::Frame`) with `new_checked`
//!    validation and field getters, and
//! 2. a parsed **representation** (`parse`/`emit`) exists only where
//!    something composes the layer on its own: `ethernet::Repr` and
//!    `ipv4::Repr` (host frames, inner packets) and [`lisp::Message`]
//!    (control messages are parsed whole; they have no view).
//!
//! The underlay stack — outer IPv4, UDP 4789, VXLAN-GPO (Fig. 2) — is
//! written only by `sda_dataplane::encap::write_underlay` and read by
//! `sda_dataplane::encap::parse_underlay` through the views here, so
//! [`udp`] and [`vxlan`] have no `Repr` and the only setter between
//! them is [`udp::Packet::fill_checksum`].
//!
//! Formats implemented:
//!
//! * [`ethernet`] — Ethernet II frames.
//! * [`ipv4`] — overlay and underlay IP headers.
//! * [`udp`] — UDP (carries both VXLAN and LISP control messages).
//! * [`vxlan`] — VXLAN with the **Group Policy Option** extension: the
//!   paper's chosen encapsulation, carrying the 24-bit VN in the VNI field
//!   and the 16-bit source GroupId in the GPO group field (Fig. 2).
//! * [`lisp`] — the LISP control messages SDA relies on: Map-Request
//!   (+ the SMR bit used for data-triggered cache refresh), Map-Reply,
//!   Map-Register, Map-Notify, and the pub/sub subscription used by the
//!   border router.
//!
//! Malformed input is always an [`Error`], never a panic: `new_checked`
//! and `parse` validate lengths, version fields and checksums.
//!
//! ## Surface
//!
//! The crate **is** one public module per format — each a namespace
//! for its view, its representation where it has one, field enums and
//! header-length constants — plus [`EtherType`] and [`Error`]/[`Result`]
//! at the root. Field layouts and the checksum helpers stay private. It
//! **is not** a stack: no fragmentation, no IP options, no IPv6 codec
//! (`EtherType::Ipv6` only classifies a frame).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod ethernet;
mod field;
pub mod ipv4;
pub mod lisp;
pub mod udp;
pub mod vxlan;

pub use ethernet::EtherType;

/// Errors produced while parsing or emitting wire formats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Error {
    /// The buffer is shorter than the fixed header of the format.
    Truncated,
    /// A length field disagrees with the buffer size.
    BadLength,
    /// A version / flag / type field holds an unsupported value.
    Malformed,
    /// A checksum did not verify.
    BadChecksum,
    /// The buffer supplied to `emit` is too small.
    BufferTooSmall,
    /// An address family identifier we do not implement.
    UnknownAfi(u16),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => f.write_str("buffer truncated"),
            Error::BadLength => f.write_str("length field inconsistent with buffer"),
            Error::Malformed => f.write_str("malformed header field"),
            Error::BadChecksum => f.write_str("checksum mismatch"),
            Error::BufferTooSmall => f.write_str("emit buffer too small"),
            Error::UnknownAfi(afi) => write!(f, "unknown address family {afi}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for wire-format operations.
pub type Result<T> = core::result::Result<T, Error>;

/// The RFC 1071 Internet checksum over `data` (used by IPv4 and UDP).
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data, 0)
}

/// One's-complement sum folding helper; `init` seeds the accumulator so
/// pseudo-headers can be chained.
pub(crate) fn ones_complement_sum(data: &[u8], init: u32) -> u16 {
    let mut sum = init;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_zeros_is_all_ones() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut data = vec![0x45, 0x00, 0x00, 0x54, 0xa6, 0xf2, 0x40, 0x00, 0x40, 0x01];
        let c = internet_checksum(&data);
        data[3] ^= 0xff;
        assert_ne!(internet_checksum(&data), c);
    }

    #[test]
    fn checksum_handles_odd_length() {
        // Odd-length payload pads with a zero byte per RFC 1071.
        assert_eq!(internet_checksum(&[0xff]), internet_checksum(&[0xff, 0x00]));
    }

    #[test]
    fn errors_display() {
        assert_eq!(Error::Truncated.to_string(), "buffer truncated");
        assert_eq!(
            Error::UnknownAfi(99).to_string(),
            "unknown address family 99"
        );
    }
}
