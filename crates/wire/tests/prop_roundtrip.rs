//! Property-based round-trip and robustness tests for every wire format.
//!
//! Three invariant families:
//!
//! 1. **Round-trip**: for any valid `Repr` (Ethernet, IPv4, every LISP
//!    message), `parse(emit(repr)) == repr`. The underlay stack's round
//!    trip is `sda-dataplane`'s `prop_underlay`: `encap::write_underlay`
//!    is its only encoder.
//! 2. **No panic on garbage**: `new_checked`/`parse` over arbitrary bytes
//!    returns `Ok` or `Err`, never panics — the smoltcp robustness rule.
//! 3. **Same bytes as the frozen encoder**: `lisp::Message::emit` is held
//!    to `reference::emit` (the growing-`Vec` writer it replaced) over
//!    every variant × EID family, and fills its one allocation exactly.

use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use sda_types::{Eid, EidPrefix, Ipv4Prefix, Ipv6Prefix, MacAddr, MacPrefix, Rloc, VnId};
use sda_wire::{ethernet, ipv4, lisp, udp, vxlan};

mod reference;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_ipv6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

fn arb_vn() -> impl Strategy<Value = VnId> {
    (0u32..=VnId::MAX).prop_map(|v| VnId::new(v).unwrap())
}

fn arb_eid() -> impl Strategy<Value = Eid> {
    prop_oneof![
        arb_ipv4().prop_map(Eid::V4),
        arb_ipv6().prop_map(Eid::V6),
        arb_mac().prop_map(Eid::Mac),
    ]
}

fn arb_prefix() -> impl Strategy<Value = EidPrefix> {
    prop_oneof![
        (arb_ipv4(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(a, l).unwrap().into()),
        (arb_ipv6(), 0u8..=128).prop_map(|(a, l)| Ipv6Prefix::new(a, l).unwrap().into()),
        (arb_mac(), 0u8..=48).prop_map(|(m, l)| MacPrefix::new(m, l).unwrap().into()),
    ]
}

fn arb_rloc() -> impl Strategy<Value = Rloc> {
    arb_ipv4().prop_map(Rloc)
}

proptest! {
    /// The sized encoder against the frozen growing-`Vec` one: same
    /// bytes, one exactly-filled buffer, and the bytes parse back.
    #[test]
    fn lisp_emit_matches_frozen_reference(nonce in any::<u64>(), vn in 0u32..=VnId::MAX, addr in any::<u128>(), len in any::<u8>(), rloc in any::<u32>(), word in any::<u32>(), flag in any::<bool>()) {
        let vn = VnId::new(vn).unwrap();
        let matrix = reference::matrix(nonce, vn, addr, len, Rloc(Ipv4Addr::from(rloc)), word, flag);
        prop_assert_eq!(matrix.len(), reference::MATRIX_LEN);
        for msg in matrix {
            let bytes = msg.emit();
            prop_assert_eq!(&bytes, &reference::emit(&msg), "{:?}", msg);
            prop_assert_eq!(bytes.len(), bytes.capacity(), "{:?}", msg);
            prop_assert_eq!(lisp::Message::parse(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), ty in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let repr = ethernet::Repr { dst, src, ethertype: ty.into() };
        let mut buf = vec![0u8; repr.buffer_len() + payload.len()];
        let mut frame = ethernet::Frame::new_checked(&mut buf[..]).unwrap();
        repr.emit(&mut frame);
        frame.payload_mut().copy_from_slice(&payload);
        let frame = ethernet::Frame::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(ethernet::Repr::parse(&frame), repr);
        prop_assert_eq!(frame.payload(), &payload[..]);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ipv4(), dst in arb_ipv4(), proto in any::<u8>(), ttl in 1u8..=255, payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let repr = ipv4::Repr {
            src, dst,
            protocol: proto.into(),
            payload_len: payload.len(),
            ttl,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut pkt = ipv4::Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.payload_mut().copy_from_slice(&payload);
        // Payload writes happen after emit; the IPv4 *header* checksum does
        // not cover the payload, so the packet must still validate.
        let pkt = ipv4::Packet::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(ipv4::Repr::parse(&pkt), repr);
    }

    /// Same for every LISP control message: all strict prefixes error.
    #[test]
    fn lisp_truncations_all_error(nonce in any::<u64>(), vn in arb_vn(), eid in arb_eid(), prefix in arb_prefix(), rloc in arb_rloc()) {
        let msgs = [
            lisp::Message::MapRequest { nonce, smr: false, vn, eid, itr_rloc: rloc },
            lisp::Message::MapReply { nonce, vn, prefix, rloc: Some(rloc), negative: false, ttl_secs: 60 },
            lisp::Message::MapRegister { nonce, vn, eid, rloc, ttl_secs: 60, want_notify: true },
            lisp::Message::MapNotify { nonce, vn, eid, new_rloc: rloc },
            lisp::Message::Publish { nonce, vn, prefix, rloc, withdraw: false },
            lisp::Message::Subscribe { nonce, vn, subscriber: rloc, have_seq: nonce.rotate_left(7), digest: !nonce },
            lisp::Message::SubscribeAck { nonce, vn, resumed: nonce % 2 == 1 },
        ];
        for msg in msgs {
            let bytes = msg.emit();
            for cut in 0..bytes.len() {
                prop_assert!(
                    lisp::Message::parse(&bytes[..cut]).is_err(),
                    "truncated {:?} at {} parsed", msg, cut
                );
            }
            prop_assert_eq!(lisp::Message::parse(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn lisp_map_request_roundtrip(nonce in any::<u64>(), smr in any::<bool>(), vn in arb_vn(), eid in arb_eid(), rloc in arb_rloc()) {
        let msg = lisp::Message::MapRequest { nonce, smr, vn, eid, itr_rloc: rloc };
        prop_assert_eq!(lisp::Message::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn lisp_map_reply_roundtrip(nonce in any::<u64>(), vn in arb_vn(), prefix in arb_prefix(), rloc in proptest::option::of(arb_rloc()), negative in any::<bool>(), ttl in any::<u32>()) {
        let msg = lisp::Message::MapReply { nonce, vn, prefix, rloc, negative, ttl_secs: ttl };
        prop_assert_eq!(lisp::Message::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn lisp_map_register_roundtrip(nonce in any::<u64>(), vn in arb_vn(), eid in arb_eid(), rloc in arb_rloc(), ttl in any::<u32>(), wn in any::<bool>()) {
        let msg = lisp::Message::MapRegister { nonce, vn, eid, rloc, ttl_secs: ttl, want_notify: wn };
        prop_assert_eq!(lisp::Message::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn lisp_publish_subscribe_roundtrip(nonce in any::<u64>(), vn in arb_vn(), prefix in arb_prefix(), rloc in arb_rloc(), withdraw in any::<bool>(), have_seq in any::<u64>(), digest in any::<u64>()) {
        let pubm = lisp::Message::Publish { nonce, vn, prefix, rloc, withdraw };
        prop_assert_eq!(lisp::Message::parse(&pubm.emit()).unwrap(), pubm);
        let subm = lisp::Message::Subscribe { nonce, vn, subscriber: rloc, have_seq, digest };
        prop_assert_eq!(lisp::Message::parse(&subm.emit()).unwrap(), subm);
        let ack = lisp::Message::SubscribeAck { nonce, vn, resumed: withdraw };
        prop_assert_eq!(lisp::Message::parse(&ack.emit()).unwrap(), ack);
    }

    /// A SubscribeAck's flags nibble holds `resumed` and nothing else:
    /// every undefined value fails `Malformed`, as `BusyClass` does.
    #[test]
    fn lisp_subscribe_ack_undefined_flags_are_malformed(nonce in any::<u64>(), vn in arb_vn(), flags in 2u8..16) {
        let mut bytes = lisp::Message::SubscribeAck { nonce, vn, resumed: false }.emit();
        bytes[0] |= flags;
        prop_assert_eq!(lisp::Message::parse(&bytes).unwrap_err(), sda_wire::Error::Malformed);
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = lisp::Message::parse(&bytes);
        let _ = ethernet::Frame::new_checked(&bytes[..]);
        let _ = ipv4::Packet::new_checked(&bytes[..]);
        let _ = udp::Packet::new_checked(&bytes[..]);
        let _ = vxlan::Packet::new_checked(&bytes[..]);
    }

    #[test]
    fn lisp_bitflip_never_panics(msg_idx in 0usize..4, flip_byte in 0usize..16, flip_bit in 0u8..8, nonce in any::<u64>(), vn in arb_vn(), eid in arb_eid(), rloc in arb_rloc()) {
        let msgs = [
            lisp::Message::MapRequest { nonce, smr: false, vn, eid, itr_rloc: rloc },
            lisp::Message::MapRegister { nonce, vn, eid, rloc, ttl_secs: 60, want_notify: false },
            lisp::Message::MapNotify { nonce, vn, eid, new_rloc: rloc },
            lisp::Message::Subscribe { nonce, vn, subscriber: rloc, have_seq: nonce, digest: !nonce },
        ];
        let mut bytes = msgs[msg_idx].emit();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = lisp::Message::parse(&bytes); // must not panic
    }
}
