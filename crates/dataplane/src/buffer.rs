//! Reusable packet buffers with encapsulation headroom.
//!
//! The whole zero-copy story rests on one layout decision: a frame is
//! loaded [`UNDERLAY_OVERHEAD`] bytes into its buffer, so
//! encapsulation *prepends* the outer IPv4 + UDP + VXLAN-GPO headers by
//! moving the start pointer back ([`PacketBuf::grow_front`]) and
//! decapsulation strips them by moving it forward
//! ([`PacketBuf::shrink_front`]). Payload bytes never move; headers are
//! written in place by [`crate::encap::write_underlay`].
//!
//! A buffer is allocated once and re-loaded round after round, so the
//! steady-state forwarding path performs zero heap allocations.

use crate::encap::UNDERLAY_OVERHEAD;

/// Largest frame a buffer accepts (inner Ethernet MTU + L2 header,
/// rounded up).
pub const MAX_FRAME: usize = 1600;

/// Default burst size: how many packets one [`crate::Switch`] processing
/// call handles. 32 matches the DPDK/VPP sweet spot — big enough to
/// amortize per-batch work, small enough to stay in L1.
pub const BATCH_SIZE: usize = 32;

/// One reusable packet buffer.
///
/// Valid bytes live at `data[start..start + len]`; `start` begins at
/// [`UNDERLAY_OVERHEAD`] after a [`PacketBuf::load`] and moves as headers
/// are pushed or stripped.
#[derive(Debug)]
pub struct PacketBuf {
    data: Box<[u8]>,
    start: usize,
    len: usize,
}

impl Default for PacketBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuf {
    /// Allocates an empty buffer (the only allocating operation here).
    pub fn new() -> Self {
        PacketBuf {
            data: vec![0u8; UNDERLAY_OVERHEAD + MAX_FRAME].into_boxed_slice(),
            start: UNDERLAY_OVERHEAD,
            len: 0,
        }
    }

    /// Copies `frame` in at the headroom offset (the simulated RX DMA).
    /// Fails when the frame exceeds [`MAX_FRAME`].
    pub fn load(&mut self, frame: &[u8]) -> bool {
        if frame.len() > MAX_FRAME {
            return false;
        }
        self.start = UNDERLAY_OVERHEAD;
        self.len = frame.len();
        self.data[UNDERLAY_OVERHEAD..UNDERLAY_OVERHEAD + frame.len()].copy_from_slice(frame);
        true
    }

    /// The valid bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }

    /// The valid bytes, mutably.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.start..self.start + self.len]
    }

    /// Current packet length.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// True when no packet is loaded.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining headroom in front of the packet.
    #[cfg(test)]
    fn headroom(&self) -> usize {
        self.start
    }

    /// Extends the packet `n` bytes to the front (encapsulation) and
    /// returns true on success. The new bytes are whatever the buffer
    /// last held there — callers must overwrite them.
    pub(crate) fn grow_front(&mut self, n: usize) -> bool {
        if n > self.start {
            return false;
        }
        self.start -= n;
        self.len += n;
        true
    }

    /// Strips `n` bytes from the front (decapsulation); true on success.
    pub(crate) fn shrink_front(&mut self, n: usize) -> bool {
        if n > self.len {
            return false;
        }
        self.start += n;
        self.len -= n;
        true
    }

    /// Truncates the packet to `n` bytes (drops trailing padding).
    pub(crate) fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_places_frame_at_headroom() {
        let mut b = PacketBuf::new();
        assert!(b.load(b"hello"));
        assert_eq!(b.bytes(), b"hello");
        assert_eq!(b.headroom(), UNDERLAY_OVERHEAD);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn grow_and_shrink_front_roundtrip() {
        let mut b = PacketBuf::new();
        b.load(b"payload");
        assert!(b.grow_front(8));
        assert_eq!(b.len(), 15);
        b.bytes_mut()[..8].copy_from_slice(b"HDRHDRHD");
        assert_eq!(&b.bytes()[8..], b"payload");
        assert!(b.shrink_front(8));
        assert_eq!(b.bytes(), b"payload");
    }

    #[test]
    fn grow_front_bounded_by_headroom() {
        let mut b = PacketBuf::new();
        b.load(b"x");
        assert!(b.grow_front(UNDERLAY_OVERHEAD));
        assert!(!b.grow_front(1), "no headroom left");
    }

    #[test]
    fn shrink_front_bounded_by_len() {
        let mut b = PacketBuf::new();
        b.load(b"abc");
        assert!(!b.shrink_front(4));
        assert!(b.shrink_front(3));
        assert!(b.is_empty());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut b = PacketBuf::new();
        assert!(!b.load(&vec![0u8; MAX_FRAME + 1]));
        assert!(b.load(&vec![0u8; MAX_FRAME]));
    }
}
