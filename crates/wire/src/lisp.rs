//! LISP control-plane messages (after draft-ietf-lisp-rfc6833bis and
//! draft-ietf-lisp-pubsub), as SDA uses them.
//!
//! The message set is exactly what the paper's control plane needs:
//!
//! * **Map-Request** — edge asks the routing server for the RLOC of an EID.
//!   With the `S` (SMR) bit set it becomes a *Solicit-Map-Request*: the
//!   data-triggered "your cache is stale, re-resolve" message of §3.4.
//! * **Map-Reply** — the answer; may be *negative* (EID unknown), which is
//!   what makes edges delete FIB entries at night (§4.2).
//! * **Map-Register** — edge publishes/updates an endpoint's location.
//! * **Map-Notify** — server tells the *previous* edge about a move so it
//!   can forward in-flight traffic (Fig. 5, step 2).
//! * **Subscribe / Publish** — the pub/sub extension the border router uses
//!   to stay synchronized with the full mapping database (§3.3). A
//!   Subscribe carries the border's sequence watermark and slice digest;
//!   the SubscribeAck says whether the server resumed the stream (what
//!   followed the watermark comes as deltas) or reset it (the VN is
//!   rebuilt, from deltas or a snapshot).
//!
//! Encoding: a 9-byte common header (type+flags, 64-bit nonce) followed by
//! a type-specific body. EIDs are encoded with a 16-bit address family
//! identifier — 1 (IPv4), 2 (IPv6) and 6 (48-bit MAC; real LISP would use
//! an LCAF, simplified here and documented as a divergence).
//!
//! ## Contract
//!
//! * [`Message::emit`] makes **one** heap allocation — the returned
//!   `Vec<u8>`, sized to the exact encoded length before the first byte
//!   is written (`len() == capacity()`) — and cannot fail: every
//!   `Message` value has an encoding.
//! * [`Message::parse`] makes **none**, on success or on error. Its input
//!   is untrusted: any byte string yields `Ok` or a typed [`Error`]
//!   (`Truncated`, `BadLength` for trailing bytes, `UnknownAfi`,
//!   `Malformed`), and `parse(emit(m)) == m` for every `m`. No length is
//!   read from the wire — field widths follow from the type nibble and
//!   the AFIs — so nothing in the input can size an allocation or a copy.
//! * Panics: none, in either direction.
//! * Not a transport: no retransmission, authentication or fragmentation;
//!   one message per UDP datagram on [`LISP_CONTROL_PORT`].
//!
//! `tests/prop_roundtrip.rs` holds the encoder to the frozen reference in
//! `tests/reference/` byte for byte; `tests/no_alloc.rs` counts the
//! allocations.

use std::net::Ipv4Addr;

use sda_types::{Eid, EidKind, EidPrefix, Ipv4Prefix, Ipv6Prefix, MacPrefix, Rloc, VnId};

use crate::{Error, Result};

/// UDP port carried alongside these messages; re-exported for convenience.
pub use crate::udp::LISP_CONTROL_PORT;

const TYPE_MAP_REQUEST: u8 = 1;
const TYPE_MAP_REPLY: u8 = 2;
const TYPE_MAP_REGISTER: u8 = 3;
const TYPE_MAP_NOTIFY: u8 = 4;
const TYPE_PUBLISH: u8 = 6;
const TYPE_SUBSCRIBE: u8 = 7;
const TYPE_SUBSCRIBE_ACK: u8 = 8;
const TYPE_SERVER_BUSY: u8 = 9;

const FLAG_SMR: u8 = 0x1;
const FLAG_NEGATIVE: u8 = 0x1;
const FLAG_WANT_NOTIFY: u8 = 0x1;
const FLAG_WITHDRAW: u8 = 0x1;
const FLAG_RESUMED: u8 = 0x1;

const AFI_IPV4: u16 = 1;
const AFI_IPV6: u16 = 2;
const AFI_MAC: u16 = 6;

/// Which admission-control budget a shed [`Message::ServerBusy`] charges.
///
/// Carried in the header flags nibble so the 9-byte common header stays
/// untouched; receivers use it to find the matching retry state
/// (requests match by `(vn, eid)`, registers by nonce, subscribes by VN).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusyClass {
    /// A Map-Request was shed; retry resolution later.
    Request,
    /// A Map-Register was shed; retry registration later.
    Register,
    /// A Subscribe was shed; retry subscription later.
    Subscribe,
}

impl BusyClass {
    fn flag(self) -> u8 {
        match self {
            BusyClass::Request => 0,
            BusyClass::Register => 1,
            BusyClass::Subscribe => 2,
        }
    }

    fn from_flag(flags: u8) -> Result<BusyClass> {
        match flags {
            0 => Ok(BusyClass::Request),
            1 => Ok(BusyClass::Register),
            2 => Ok(BusyClass::Subscribe),
            _ => Err(Error::Malformed),
        }
    }
}

/// A fully parsed LISP control message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// Resolve `eid` in `vn`; replies go to `itr_rloc`.
    MapRequest {
        /// Correlates the eventual Map-Reply.
        nonce: u64,
        /// Solicit-Map-Request: receiver should re-resolve, not answer.
        smr: bool,
        /// VN (LISP instance-id) scope.
        vn: VnId,
        /// The EID being resolved.
        eid: Eid,
        /// The requesting tunnel router's RLOC.
        itr_rloc: Rloc,
    },
    /// Answer to a Map-Request.
    MapReply {
        /// Echoed from the request.
        nonce: u64,
        /// VN scope.
        vn: VnId,
        /// Covering prefix for the answer (host route for endpoints).
        prefix: EidPrefix,
        /// Current locator; `None` together with `negative` means unknown.
        rloc: Option<Rloc>,
        /// Negative reply: EID not registered; cache the miss.
        negative: bool,
        /// Cache lifetime in seconds.
        ttl_secs: u32,
    },
    /// Register (or refresh) an EID-to-RLOC mapping.
    MapRegister {
        /// Correlates the Map-Notify acknowledgment.
        nonce: u64,
        /// VN scope.
        vn: VnId,
        /// The endpoint identifier.
        eid: Eid,
        /// The registering edge router's RLOC.
        rloc: Rloc,
        /// Registration lifetime in seconds.
        ttl_secs: u32,
        /// Request a Map-Notify acknowledgment.
        want_notify: bool,
    },
    /// Server-initiated notification (move handling + register ack).
    MapNotify {
        /// Echoed nonce (0 for unsolicited move notifications).
        nonce: u64,
        /// VN scope.
        vn: VnId,
        /// The moved EID.
        eid: Eid,
        /// The *new* RLOC now serving the EID.
        new_rloc: Rloc,
    },
    /// Subscribe to all mapping changes in `vn` (border router sync).
    ///
    /// States what the subscriber holds (zeros on a first subscription),
    /// so a server that can prove it in sync resumes the stream instead
    /// of sending a snapshot. Trust: the digest checks that two fabric
    /// nodes agree, not against an attacker — [`sda_types::KeyHasher`]
    /// is not hardened, so a forged digest can be made to match.
    Subscribe {
        /// Request nonce.
        nonce: u64,
        /// VN scope of the subscription.
        vn: VnId,
        /// Where publishes should be sent.
        subscriber: Rloc,
        /// The watermark: the subscriber holds `vn` as it stood after
        /// this publish sequence number (0: before the first change).
        have_seq: u64,
        /// Wrapping sum of [`sda_types::row_digest`] over the
        /// subscriber's synced rows of `vn`.
        digest: u64,
    },
    /// Acknowledges a Subscribe. Used by subscribers to retransmit
    /// Subscribes until one takes effect.
    SubscribeAck {
        /// Echoed from the Subscribe.
        nonce: u64,
        /// VN scope of the acknowledged subscription.
        vn: VnId,
        /// Stream resumed: keep the synced slice; whatever followed
        /// `have_seq` arrives as delta Publishes (nothing when the
        /// subscriber was current). When false the view of `vn` is reset
        /// and Publishes rebuild it — the VN's changes from the first, or
        /// a snapshot at the watermark. Carried in the flags nibble,
        /// where any value but 0 or 1 is `Malformed`.
        resumed: bool,
    },
    /// Shed-load reply: the server's admission budget for `class` is
    /// exhausted and the triggering message was dropped unprocessed.
    /// The sender should retry no sooner than `retry_after_ms` from now
    /// (plus its own jitter) instead of running its normal backoff.
    ServerBusy {
        /// Echoed from the shed message (registers match on this).
        nonce: u64,
        /// VN scope of the shed message.
        vn: VnId,
        /// EID of the shed request/register (requests match on
        /// `(vn, eid)` because retransmits regenerate nonces). For
        /// [`BusyClass::Subscribe`] this carries an all-zero
        /// placeholder; subscribes match on VN alone.
        eid: Eid,
        /// Which admission budget was exhausted.
        class: BusyClass,
        /// Retry-after hint in milliseconds.
        retry_after_ms: u32,
    },
    /// Push a mapping change to a subscriber.
    Publish {
        /// Monotonic publish sequence number (replaces nonce semantics).
        nonce: u64,
        /// VN scope.
        vn: VnId,
        /// The mapping's covering prefix.
        prefix: EidPrefix,
        /// New locator; meaningless when `withdraw`.
        rloc: Rloc,
        /// Mapping was removed rather than updated.
        withdraw: bool,
    },
}

impl Message {
    /// Serializes the message to bytes: one allocation of exactly the
    /// encoded length (every arm states its body length beside the
    /// writes that fill it).
    pub fn emit(&self) -> Vec<u8> {
        match self {
            Message::MapRequest {
                nonce,
                smr,
                vn,
                eid,
                itr_rloc,
            } => {
                let flags = if *smr { FLAG_SMR } else { 0 };
                let body = eid_len(eid.kind()) + RLOC_LEN;
                let mut w = Writer::new(TYPE_MAP_REQUEST, flags, *nonce, *vn, body);
                w.eid(*eid);
                w.rloc(*itr_rloc);
                w.finish()
            }
            Message::MapReply {
                nonce,
                vn,
                prefix,
                rloc,
                negative,
                ttl_secs,
            } => {
                let flags = if *negative { FLAG_NEGATIVE } else { 0 };
                let rloc_len = if rloc.is_some() { RLOC_LEN } else { 2 };
                let body = prefix_len(prefix.kind()) + rloc_len + 4;
                let mut w = Writer::new(TYPE_MAP_REPLY, flags, *nonce, *vn, body);
                w.prefix(*prefix);
                w.opt_rloc(*rloc);
                w.u32(*ttl_secs);
                w.finish()
            }
            Message::MapRegister {
                nonce,
                vn,
                eid,
                rloc,
                ttl_secs,
                want_notify,
            } => {
                let flags = if *want_notify { FLAG_WANT_NOTIFY } else { 0 };
                let body = eid_len(eid.kind()) + RLOC_LEN + 4;
                let mut w = Writer::new(TYPE_MAP_REGISTER, flags, *nonce, *vn, body);
                w.eid(*eid);
                w.rloc(*rloc);
                w.u32(*ttl_secs);
                w.finish()
            }
            Message::MapNotify {
                nonce,
                vn,
                eid,
                new_rloc,
            } => {
                let body = eid_len(eid.kind()) + RLOC_LEN;
                let mut w = Writer::new(TYPE_MAP_NOTIFY, 0, *nonce, *vn, body);
                w.eid(*eid);
                w.rloc(*new_rloc);
                w.finish()
            }
            Message::Subscribe {
                nonce,
                vn,
                subscriber,
                have_seq,
                digest,
            } => {
                let mut w = Writer::new(TYPE_SUBSCRIBE, 0, *nonce, *vn, RLOC_LEN + 16);
                w.rloc(*subscriber);
                w.u64(*have_seq);
                w.u64(*digest);
                w.finish()
            }
            Message::SubscribeAck { nonce, vn, resumed } => {
                let flags = if *resumed { FLAG_RESUMED } else { 0 };
                Writer::new(TYPE_SUBSCRIBE_ACK, flags, *nonce, *vn, 0).finish()
            }
            Message::ServerBusy {
                nonce,
                vn,
                eid,
                class,
                retry_after_ms,
            } => {
                let body = eid_len(eid.kind()) + 4;
                let mut w = Writer::new(TYPE_SERVER_BUSY, class.flag(), *nonce, *vn, body);
                w.eid(*eid);
                w.u32(*retry_after_ms);
                w.finish()
            }
            Message::Publish {
                nonce,
                vn,
                prefix,
                rloc,
                withdraw,
            } => {
                let flags = if *withdraw { FLAG_WITHDRAW } else { 0 };
                let body = prefix_len(prefix.kind()) + RLOC_LEN;
                let mut w = Writer::new(TYPE_PUBLISH, flags, *nonce, *vn, body);
                w.prefix(*prefix);
                w.rloc(*rloc);
                w.finish()
            }
        }
    }

    /// Parses a message from bytes.
    pub fn parse(data: &[u8]) -> Result<Message> {
        let mut r = Reader { data, pos: 0 };
        let (ty, flags, nonce) = r.header()?;
        let msg = match ty {
            TYPE_MAP_REQUEST => Message::MapRequest {
                nonce,
                smr: flags & FLAG_SMR != 0,
                vn: r.vn()?,
                eid: r.eid()?,
                itr_rloc: r.rloc()?,
            },
            TYPE_MAP_REPLY => Message::MapReply {
                nonce,
                negative: flags & FLAG_NEGATIVE != 0,
                vn: r.vn()?,
                prefix: r.prefix()?,
                rloc: r.opt_rloc()?,
                ttl_secs: r.u32()?,
            },
            TYPE_MAP_REGISTER => Message::MapRegister {
                nonce,
                want_notify: flags & FLAG_WANT_NOTIFY != 0,
                vn: r.vn()?,
                eid: r.eid()?,
                rloc: r.rloc()?,
                ttl_secs: r.u32()?,
            },
            TYPE_MAP_NOTIFY => Message::MapNotify {
                nonce,
                vn: r.vn()?,
                eid: r.eid()?,
                new_rloc: r.rloc()?,
            },
            TYPE_SUBSCRIBE => Message::Subscribe {
                nonce,
                vn: r.vn()?,
                subscriber: r.rloc()?,
                have_seq: r.u64()?,
                digest: r.u64()?,
            },
            TYPE_SUBSCRIBE_ACK => Message::SubscribeAck {
                nonce,
                resumed: match flags {
                    0 => false,
                    FLAG_RESUMED => true,
                    _ => return Err(Error::Malformed),
                },
                vn: r.vn()?,
            },
            TYPE_SERVER_BUSY => Message::ServerBusy {
                nonce,
                class: BusyClass::from_flag(flags)?,
                vn: r.vn()?,
                eid: r.eid()?,
                retry_after_ms: r.u32()?,
            },
            TYPE_PUBLISH => Message::Publish {
                nonce,
                withdraw: flags & FLAG_WITHDRAW != 0,
                vn: r.vn()?,
                prefix: r.prefix()?,
                rloc: r.rloc()?,
            },
            _ => return Err(Error::Malformed),
        };
        if r.pos != data.len() {
            return Err(Error::BadLength);
        }
        Ok(msg)
    }

    /// The nonce of any message variant.
    #[cfg(test)]
    fn nonce(&self) -> u64 {
        match self {
            Message::MapRequest { nonce, .. }
            | Message::MapReply { nonce, .. }
            | Message::MapRegister { nonce, .. }
            | Message::MapNotify { nonce, .. }
            | Message::Subscribe { nonce, .. }
            | Message::SubscribeAck { nonce, .. }
            | Message::ServerBusy { nonce, .. }
            | Message::Publish { nonce, .. } => *nonce,
        }
    }
}

/// Common header (type+flags, nonce) plus the 24-bit VN every body
/// starts with.
const HEADER_VN_LEN: usize = 9 + 3;
/// An RLOC on the wire: AFI + IPv4 address.
const RLOC_LEN: usize = 2 + 4;

/// An EID on the wire: AFI + canonical address bytes.
const fn eid_len(kind: EidKind) -> usize {
    2 + kind.byte_len()
}

/// A prefix on the wire: mask length + AFI + canonical network bytes.
const fn prefix_len(kind: EidKind) -> usize {
    1 + eid_len(kind)
}

fn afi_of(kind: EidKind) -> u16 {
    match kind {
        EidKind::V4 => AFI_IPV4,
        EidKind::V6 => AFI_IPV6,
        EidKind::Mac => AFI_MAC,
    }
}

/// Fills a buffer allocated once at the message's exact encoded length.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Allocates header + VN + `body_len` bytes and writes header and VN.
    fn new(ty: u8, flags: u8, nonce: u64, vn: VnId, body_len: usize) -> Self {
        debug_assert!(flags <= 0x0f);
        let mut buf = Vec::with_capacity(HEADER_VN_LEN + body_len);
        buf.push((ty << 4) | flags);
        buf.extend_from_slice(&nonce.to_be_bytes());
        buf.extend_from_slice(&vn.raw().to_be_bytes()[1..]);
        Writer { buf }
    }

    fn finish(self) -> Vec<u8> {
        debug_assert_eq!(
            self.buf.len(),
            self.buf.capacity(),
            "declared body length disagrees with the fields written"
        );
        self.buf
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn eid(&mut self, eid: Eid) {
        self.u16(afi_of(eid.kind()));
        self.buf
            .extend_from_slice(&eid.octets()[..eid.kind().byte_len()]);
    }

    fn prefix(&mut self, p: EidPrefix) {
        self.buf.push(p.len());
        self.u16(afi_of(p.kind()));
        self.buf
            .extend_from_slice(&p.addr_octets()[..p.kind().byte_len()]);
    }

    fn rloc(&mut self, r: Rloc) {
        self.u16(AFI_IPV4);
        self.buf.extend_from_slice(&r.addr().octets());
    }

    fn opt_rloc(&mut self, r: Option<Rloc>) {
        match r {
            Some(r) => self.rloc(r),
            // AFI 0 = "no address", as in real LISP.
            None => self.u16(0),
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(Error::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn header(&mut self) -> Result<(u8, u8, u64)> {
        let first = self.take(1)?[0];
        let nonce = u64::from_be_bytes(self.take(8)?.try_into().unwrap());
        Ok((first >> 4, first & 0x0f, nonce))
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?.try_into();
        Ok(u64::from_be_bytes(bytes.expect("take(8) returns 8 bytes")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn vn(&mut self) -> Result<VnId> {
        let b = self.take(3)?;
        let raw = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        VnId::new(raw).map_err(|_| Error::Malformed)
    }

    fn eid(&mut self) -> Result<Eid> {
        let afi = self.u16()?;
        let kind = kind_of_afi(afi)?;
        let bytes = self.take(kind.byte_len())?;
        Eid::from_bytes(kind, bytes).map_err(|_| Error::Malformed)
    }

    fn prefix(&mut self) -> Result<EidPrefix> {
        let len = self.take(1)?[0];
        let afi = self.u16()?;
        let kind = kind_of_afi(afi)?;
        let bytes = self.take(kind.byte_len())?;
        let eid = Eid::from_bytes(kind, bytes).map_err(|_| Error::Malformed)?;
        let prefix = match eid {
            Eid::V4(a) => EidPrefix::V4(Ipv4Prefix::new(a, len).map_err(|_| Error::Malformed)?),
            Eid::V6(a) => EidPrefix::V6(Ipv6Prefix::new(a, len).map_err(|_| Error::Malformed)?),
            Eid::Mac(m) => EidPrefix::Mac(MacPrefix::new(m, len).map_err(|_| Error::Malformed)?),
        };
        Ok(prefix)
    }

    fn rloc(&mut self) -> Result<Rloc> {
        let afi = self.u16()?;
        if afi != AFI_IPV4 {
            return Err(Error::UnknownAfi(afi));
        }
        let b = self.take(4)?;
        Ok(Rloc(Ipv4Addr::new(b[0], b[1], b[2], b[3])))
    }

    fn opt_rloc(&mut self) -> Result<Option<Rloc>> {
        let afi = self.u16()?;
        match afi {
            0 => Ok(None),
            AFI_IPV4 => {
                let b = self.take(4)?;
                Ok(Some(Rloc(Ipv4Addr::new(b[0], b[1], b[2], b[3]))))
            }
            other => Err(Error::UnknownAfi(other)),
        }
    }
}

fn kind_of_afi(afi: u16) -> Result<EidKind> {
    match afi {
        AFI_IPV4 => Ok(EidKind::V4),
        AFI_IPV6 => Ok(EidKind::V6),
        AFI_MAC => Ok(EidKind::Mac),
        other => Err(Error::UnknownAfi(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_types::MacAddr;

    fn sample_messages() -> Vec<Message> {
        let vn = VnId::new(100).unwrap();
        let eid4 = Eid::V4(Ipv4Addr::new(10, 1, 0, 5));
        let eid6 = Eid::V6("2001:db8::5".parse::<std::net::Ipv6Addr>().unwrap());
        let eidm = Eid::Mac(MacAddr::from_seed(5));
        let rloc = Rloc::for_router_index(3);
        vec![
            Message::MapRequest {
                nonce: 1,
                smr: false,
                vn,
                eid: eid4,
                itr_rloc: rloc,
            },
            Message::MapRequest {
                nonce: 2,
                smr: true,
                vn,
                eid: eidm,
                itr_rloc: rloc,
            },
            Message::MapReply {
                nonce: 1,
                vn,
                prefix: EidPrefix::host(eid4),
                rloc: Some(rloc),
                negative: false,
                ttl_secs: 1440,
            },
            Message::MapReply {
                nonce: 3,
                vn,
                prefix: EidPrefix::V4(Ipv4Prefix::new(Ipv4Addr::new(10, 9, 0, 0), 16).unwrap()),
                rloc: None,
                negative: true,
                ttl_secs: 60,
            },
            Message::MapRegister {
                nonce: 4,
                vn,
                eid: eid6,
                rloc,
                ttl_secs: 300,
                want_notify: true,
            },
            Message::MapNotify {
                nonce: 0,
                vn,
                eid: eid4,
                new_rloc: rloc,
            },
            Message::Subscribe {
                nonce: 9,
                vn,
                subscriber: rloc,
                have_seq: 41,
                digest: 0xDEAD_BEEF_0BAD_F00D,
            },
            Message::SubscribeAck {
                nonce: 9,
                vn,
                resumed: false,
            },
            Message::SubscribeAck {
                nonce: 10,
                vn,
                resumed: true,
            },
            Message::Publish {
                nonce: 77,
                vn,
                prefix: EidPrefix::host(eidm),
                rloc,
                withdraw: true,
            },
            Message::ServerBusy {
                nonce: 11,
                vn,
                eid: eid4,
                class: BusyClass::Request,
                retry_after_ms: 250,
            },
            Message::ServerBusy {
                nonce: 12,
                vn,
                eid: eidm,
                class: BusyClass::Register,
                retry_after_ms: 1000,
            },
            Message::ServerBusy {
                nonce: 13,
                vn,
                eid: Eid::V4(Ipv4Addr::UNSPECIFIED),
                class: BusyClass::Subscribe,
                retry_after_ms: 2000,
            },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in sample_messages() {
            let bytes = msg.emit();
            let parsed = Message::parse(&bytes).unwrap_or_else(|e| {
                panic!("failed to parse {msg:?}: {e}");
            });
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_messages()[0].emit();
        bytes.push(0);
        assert_eq!(Message::parse(&bytes).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        for msg in sample_messages() {
            let bytes = msg.emit();
            for cut in 0..bytes.len() {
                assert!(
                    Message::parse(&bytes[..cut]).is_err(),
                    "truncated {msg:?} at {cut} must not parse"
                );
            }
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = sample_messages()[0].emit();
        bytes[0] = 0xF0; // type 15
        assert_eq!(Message::parse(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn unknown_afi_rejected() {
        let msg = sample_messages().remove(0);
        let mut bytes = msg.emit();
        // EID AFI lives right after header (9) + vn (3).
        bytes[12] = 0x00;
        bytes[13] = 0x63; // AFI 99
        assert!(matches!(Message::parse(&bytes), Err(Error::UnknownAfi(99))));
    }

    #[test]
    fn nonce_accessor_matches() {
        for msg in sample_messages() {
            let bytes = msg.emit();
            assert_eq!(Message::parse(&bytes).unwrap().nonce(), msg.nonce());
        }
    }

    #[test]
    fn server_busy_unknown_class_rejected() {
        let busy = Message::ServerBusy {
            nonce: 11,
            vn: VnId::new(100).unwrap(),
            eid: Eid::V4(Ipv4Addr::new(10, 1, 0, 5)),
            class: BusyClass::Request,
            retry_after_ms: 250,
        };
        let mut bytes = busy.emit();
        bytes[0] = (TYPE_SERVER_BUSY << 4) | 0x7; // class 7 undefined
        assert_eq!(Message::parse(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn subscribe_ack_undefined_flags_rejected() {
        let ack = Message::SubscribeAck {
            nonce: 9,
            vn: VnId::new(100).unwrap(),
            resumed: true,
        };
        let mut bytes = ack.emit();
        assert_eq!(bytes[0] & 0x0f, FLAG_RESUMED);
        for flags in 2..=0x0f {
            bytes[0] = (TYPE_SUBSCRIBE_ACK << 4) | flags;
            assert_eq!(Message::parse(&bytes).unwrap_err(), Error::Malformed);
        }
    }

    #[test]
    fn smr_bit_is_preserved() {
        let msgs = sample_messages();
        let plain = msgs[0].emit();
        let smr = msgs[1].emit();
        assert_eq!(plain[0] & 0x0f, 0);
        assert_eq!(smr[0] & 0x0f, FLAG_SMR);
    }
}
