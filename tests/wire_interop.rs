//! Wire-format interop: the control plane behaves identically whether
//! messages are passed as structures or serialized through the
//! byte-accurate `sda-wire` formats — i.e. the simulator's structured
//! shortcut loses nothing.

use proptest::prelude::*;
use sda_ctrl::PartitionedMapServer;
use sda_simnet::SimTime;
use sda_types::{row_digest, Eid, MacAddr, Rloc, VnId};
use sda_wire::lisp::Message;
use std::net::Ipv4Addr;

fn vn() -> VnId {
    VnId::new(7).unwrap()
}

/// Serialize → parse → feed; compare against direct feeding. Returns
/// everything the servers sent, in order.
fn drive_both(messages: Vec<Message>) -> Vec<Message> {
    let mut sent = Vec::new();
    let mut direct = PartitionedMapServer::new(Rloc::for_router_index(65_000), 1);
    let mut via_bytes = PartitionedMapServer::new(Rloc::for_router_index(65_000), 1);
    for msg in messages {
        let mut out_direct = direct.handle(msg.clone(), SimTime::ZERO);
        out_direct.extend(direct.flush_publishes());
        let bytes = msg.emit();
        let parsed = Message::parse(&bytes).expect("emitted message must parse");
        assert_eq!(parsed, msg, "wire round-trip must be lossless");
        let mut out_bytes = via_bytes.handle(parsed, SimTime::ZERO);
        out_bytes.extend(via_bytes.flush_publishes());
        // Replies must agree, and byte-roundtrip each reply too.
        assert_eq!(out_direct, out_bytes);
        for (_, reply) in out_bytes {
            let reply_bytes = reply.emit();
            assert_eq!(Message::parse(&reply_bytes).unwrap(), reply);
            sent.push(reply);
        }
    }
    assert_eq!(direct.db_len(), via_bytes.db_len());
    assert_eq!(direct.stats(), via_bytes.stats());
    sent
}

#[test]
fn scripted_control_sequence_interops() {
    let edge1 = Rloc::for_router_index(1);
    let edge2 = Rloc::for_router_index(2);
    let border = Rloc::for_router_index(30_000);
    let host = Eid::V4(Ipv4Addr::new(10, 7, 0, 1));
    let host_mac = Eid::Mac(MacAddr::from_seed(1));
    let subscribe = |nonce, have_seq, digest| Message::Subscribe {
        nonce,
        vn: vn(),
        subscriber: border,
        have_seq,
        digest,
    };
    // What the border holds after the three changes below.
    let synced = row_digest(&host, edge2).wrapping_add(row_digest(&host_mac, edge1));
    let sent = drive_both(vec![
        subscribe(1, 0, 0),
        Message::MapRegister {
            nonce: 2,
            vn: vn(),
            eid: host,
            rloc: edge1,
            ttl_secs: 300,
            want_notify: true,
        },
        Message::MapRegister {
            nonce: 3,
            vn: vn(),
            eid: host_mac,
            rloc: edge1,
            ttl_secs: 300,
            want_notify: false,
        },
        Message::MapRequest {
            nonce: 4,
            smr: false,
            vn: vn(),
            eid: host,
            itr_rloc: edge2,
        },
        // The move.
        Message::MapRegister {
            nonce: 5,
            vn: vn(),
            eid: host,
            rloc: edge2,
            ttl_secs: 300,
            want_notify: false,
        },
        // Unknown EID → negative.
        Message::MapRequest {
            nonce: 6,
            smr: false,
            vn: vn(),
            eid: Eid::V4(Ipv4Addr::new(10, 7, 9, 9)),
            itr_rloc: edge1,
        },
        // An in-sync resubscribe resumes; a wrong digest snapshots.
        subscribe(7, 3, synced),
        subscribe(8, 3, synced ^ 1),
    ]);
    let acks: Vec<(u64, bool)> = sent
        .iter()
        .filter_map(|m| match m {
            Message::SubscribeAck { nonce, resumed, .. } => Some((*nonce, *resumed)),
            _ => None,
        })
        .collect();
    assert_eq!(acks, [(1, false), (7, true), (8, false)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random register/request interleavings: structured and byte-fed
    /// servers remain in lockstep.
    #[test]
    fn random_sequences_interop(ops in proptest::collection::vec((0u8..3, 0u8..32, 0u16..8), 1..60)) {
        let msgs: Vec<Message> = ops
            .into_iter()
            .enumerate()
            .map(|(i, (kind, host, edge))| {
                let eid = Eid::V4(Ipv4Addr::new(10, 7, 0, host));
                let rloc = Rloc::for_router_index(edge + 1);
                match kind {
                    0 => Message::MapRegister {
                        nonce: i as u64,
                        vn: vn(),
                        eid,
                        rloc,
                        ttl_secs: 300,
                        want_notify: false,
                    },
                    1 => Message::MapRequest {
                        nonce: i as u64,
                        smr: false,
                        vn: vn(),
                        eid,
                        itr_rloc: rloc,
                    },
                    _ => Message::Subscribe {
                        nonce: i as u64,
                        vn: vn(),
                        subscriber: rloc,
                        have_seq: u64::from(host),
                        digest: u64::from(edge),
                    },
                }
            })
            .collect();
        drive_both(msgs);
    }
}
