//! Frozen reference encoder for the LISP control messages: the
//! growing-`Vec` `Writer` that `sda_wire::lisp::Message::emit` used before
//! it learned to size its buffer up front (the deleted `Eid::to_bytes` /
//! `EidPrefix::addr_bytes` inlined as per-family matches), kept as the
//! oracle `prop_roundtrip.rs` holds the production encoder to, byte for
//! byte.
//!
//! Beside it, [`matrix`]: the message set both `prop_roundtrip.rs` and
//! `no_alloc.rs` run their checks over.
//!
//! Test support only. The encoder shares nothing with the production one but
//! the `Message` type: type codes, flag bits, AFIs and field order are
//! spelled out again here, so a slip in either copy shows as a mismatch.
//! Do not "fix" or speed this file up — a wire-format change is made in
//! `src/lisp.rs` and here, deliberately, in the same commit.

use std::net::{Ipv4Addr, Ipv6Addr};

use sda_types::{Eid, EidPrefix, Ipv4Prefix, Ipv6Prefix, MacAddr, MacPrefix, Rloc, VnId};
use sda_wire::lisp::{BusyClass, Message};

/// Messages [`matrix`] returns: two without an EID, and per family six
/// EID-keyed ones plus three per prefix shape.
pub const MATRIX_LEN: usize = 2 + 3 * (6 + 2 * 3);

/// Every `Message` variant over every EID family, built from raw field
/// values (so those, not opaque mapped strategies, are what the proptest
/// shim shrinks): `addr`'s leading 32 / 128 / 48 bits are the V4 / V6 /
/// MAC address, prefixes come as the host route and as a strictly shorter
/// mask `len % width`, Map-Replies with and without a locator.
pub fn matrix(
    nonce: u64,
    vn: VnId,
    addr: u128,
    len: u8,
    rloc: Rloc,
    word: u32,
    flag: bool,
) -> Vec<Message> {
    let be = addr.to_be_bytes();
    let v4 = Ipv4Addr::from(<[u8; 4]>::try_from(&be[..4]).unwrap());
    let v6 = Ipv6Addr::from(addr);
    let mac = MacAddr(<[u8; 6]>::try_from(&be[..6]).unwrap());
    let families: [(Eid, EidPrefix); 3] = [
        (Eid::V4(v4), Ipv4Prefix::new(v4, len % 32).unwrap().into()),
        (Eid::V6(v6), Ipv6Prefix::new(v6, len % 128).unwrap().into()),
        (Eid::Mac(mac), MacPrefix::new(mac, len % 48).unwrap().into()),
    ];
    let mut out = Vec::with_capacity(MATRIX_LEN);
    out.push(Message::Subscribe {
        nonce,
        vn,
        subscriber: rloc,
        have_seq: addr as u64,
        digest: (addr >> 64) as u64,
    });
    out.push(Message::SubscribeAck {
        nonce,
        vn,
        resumed: flag,
    });
    for (eid, short) in families {
        assert!(!short.is_host());
        out.push(Message::MapRequest {
            nonce,
            smr: flag,
            vn,
            eid,
            itr_rloc: rloc,
        });
        out.push(Message::MapRegister {
            nonce,
            vn,
            eid,
            rloc,
            ttl_secs: word,
            want_notify: flag,
        });
        out.push(Message::MapNotify {
            nonce,
            vn,
            eid,
            new_rloc: rloc,
        });
        for class in [
            BusyClass::Request,
            BusyClass::Register,
            BusyClass::Subscribe,
        ] {
            out.push(Message::ServerBusy {
                nonce,
                vn,
                eid,
                class,
                retry_after_ms: word,
            });
        }
        for prefix in [EidPrefix::host(eid), short] {
            for rloc in [Some(rloc), None] {
                out.push(Message::MapReply {
                    nonce,
                    vn,
                    prefix,
                    rloc,
                    negative: flag,
                    ttl_secs: word,
                });
            }
            out.push(Message::Publish {
                nonce,
                vn,
                prefix,
                rloc,
                withdraw: flag,
            });
        }
    }
    out
}

const TYPE_MAP_REQUEST: u8 = 1;
const TYPE_MAP_REPLY: u8 = 2;
const TYPE_MAP_REGISTER: u8 = 3;
const TYPE_MAP_NOTIFY: u8 = 4;
const TYPE_PUBLISH: u8 = 6;
const TYPE_SUBSCRIBE: u8 = 7;
const TYPE_SUBSCRIBE_ACK: u8 = 8;
const TYPE_SERVER_BUSY: u8 = 9;

const AFI_IPV4: u16 = 1;
const AFI_IPV6: u16 = 2;
const AFI_MAC: u16 = 6;

/// Serializes `msg` the way the pre-sizing encoder did.
pub fn emit(msg: &Message) -> Vec<u8> {
    let mut w = Writer::default();
    match msg {
        Message::MapRequest {
            nonce,
            smr,
            vn,
            eid,
            itr_rloc,
        } => {
            w.header(TYPE_MAP_REQUEST, u8::from(*smr), *nonce);
            w.vn(*vn);
            w.eid(*eid);
            w.rloc(*itr_rloc);
        }
        Message::MapReply {
            nonce,
            vn,
            prefix,
            rloc,
            negative,
            ttl_secs,
        } => {
            w.header(TYPE_MAP_REPLY, u8::from(*negative), *nonce);
            w.vn(*vn);
            w.prefix(*prefix);
            w.opt_rloc(*rloc);
            w.u32(*ttl_secs);
        }
        Message::MapRegister {
            nonce,
            vn,
            eid,
            rloc,
            ttl_secs,
            want_notify,
        } => {
            w.header(TYPE_MAP_REGISTER, u8::from(*want_notify), *nonce);
            w.vn(*vn);
            w.eid(*eid);
            w.rloc(*rloc);
            w.u32(*ttl_secs);
        }
        Message::MapNotify {
            nonce,
            vn,
            eid,
            new_rloc,
        } => {
            w.header(TYPE_MAP_NOTIFY, 0, *nonce);
            w.vn(*vn);
            w.eid(*eid);
            w.rloc(*new_rloc);
        }
        Message::Subscribe {
            nonce,
            vn,
            subscriber,
            have_seq,
            digest,
        } => {
            w.header(TYPE_SUBSCRIBE, 0, *nonce);
            w.vn(*vn);
            w.rloc(*subscriber);
            w.buf.extend_from_slice(&have_seq.to_be_bytes());
            w.buf.extend_from_slice(&digest.to_be_bytes());
        }
        Message::SubscribeAck { nonce, vn, resumed } => {
            w.header(TYPE_SUBSCRIBE_ACK, u8::from(*resumed), *nonce);
            w.vn(*vn);
        }
        Message::ServerBusy {
            nonce,
            vn,
            eid,
            class,
            retry_after_ms,
        } => {
            let flags = match class {
                BusyClass::Request => 0,
                BusyClass::Register => 1,
                BusyClass::Subscribe => 2,
            };
            w.header(TYPE_SERVER_BUSY, flags, *nonce);
            w.vn(*vn);
            w.eid(*eid);
            w.u32(*retry_after_ms);
        }
        Message::Publish {
            nonce,
            vn,
            prefix,
            rloc,
            withdraw,
        } => {
            w.header(TYPE_PUBLISH, u8::from(*withdraw), *nonce);
            w.vn(*vn);
            w.prefix(*prefix);
            w.rloc(*rloc);
        }
    }
    w.buf
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn header(&mut self, ty: u8, flags: u8, nonce: u64) {
        assert!(flags <= 0x0f);
        self.buf.push((ty << 4) | flags);
        self.buf.extend_from_slice(&nonce.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn vn(&mut self, vn: VnId) {
        let raw = vn.raw();
        self.buf.push((raw >> 16) as u8);
        self.buf.push((raw >> 8) as u8);
        self.buf.push(raw as u8);
    }

    fn eid(&mut self, eid: Eid) {
        match eid {
            Eid::V4(a) => {
                self.u16(AFI_IPV4);
                self.buf.extend_from_slice(&a.octets());
            }
            Eid::V6(a) => {
                self.u16(AFI_IPV6);
                self.buf.extend_from_slice(&a.octets());
            }
            Eid::Mac(m) => {
                self.u16(AFI_MAC);
                self.buf.extend_from_slice(&m.octets());
            }
        }
    }

    fn prefix(&mut self, p: EidPrefix) {
        self.buf.push(p.len());
        match p {
            EidPrefix::V4(p) => {
                self.u16(AFI_IPV4);
                self.buf.extend_from_slice(&p.addr().octets());
            }
            EidPrefix::V6(p) => {
                self.u16(AFI_IPV6);
                self.buf.extend_from_slice(&p.addr().octets());
            }
            EidPrefix::Mac(p) => {
                self.u16(AFI_MAC);
                self.buf.extend_from_slice(&p.addr().octets());
            }
        }
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
