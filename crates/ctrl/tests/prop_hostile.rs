//! Hostile control-plane input at the server's entry (ROADMAP item 12,
//! the Subscribe part): Subscribes claiming any VN, subscriber,
//! watermark and digest — plus bit-flipped ones that still parse — mixed
//! with registers, moves and withdraws, fed to
//! [`PartitionedMapServer::handle`] with a flush after every message.
//!
//! * Nothing panics.
//! * A claim that is not the server's own `(watermark, digest)` for the
//!   VN never resumes, and the flush after it is exactly the VN's
//!   snapshot: one publish per row, all at the watermark, no withdrawal.
//! * The true claim resumes exactly when the stream is live (here: the
//!   pair has been subscribed before — every op is followed by a flush).
//! * The fan-out holds one stream per distinct `(subscriber, VN)` pair
//!   that was ever acked, whatever the claims, and never more.

use std::collections::BTreeSet;
use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use sda_ctrl::{AdmissionConfig, ClassBudget, PartitionedMapServer};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{row_digest, Eid, MacAddr, Rloc, VnId};
use sda_wire::lisp::Message;

const VNS: u64 = 5;

fn vn(w: u64) -> VnId {
    VnId::new(1 + (w % VNS) as u32).unwrap()
}

/// Twelve keys per family over two /16s, so the shards all take part.
fn eid(w: u64) -> Eid {
    let n = (w % 36) as u32;
    match n / 12 {
        0 => Eid::V4(Ipv4Addr::from(0x0A00_0000 | ((n % 2) << 16) | n)),
        1 => Eid::V6(Ipv6Addr::from((0x2001_0db8_u128 << 96) | u128::from(n))),
        _ => Eid::Mac(MacAddr::from_seed(n)),
    }
}

fn rloc(w: u64) -> Rloc {
    Rloc::for_router_index(1 + (w % 16) as u16)
}

/// The server's own claim for `vn`: its watermark and the digest of
/// every row it holds there (no shard is ever down here).
fn true_claim(server: &PartitionedMapServer, vn: VnId) -> (u64, u64) {
    let digest = server
        .iter_db()
        .filter(|(v, _, _)| *v == vn)
        .fold(0u64, |d, (_, p, rec)| {
            d.wrapping_add(row_digest(&p.as_host().unwrap(), rec.rloc))
        });
    (server.pubsub_seq(vn), digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forged_subscribes_never_resume_and_streams_stay_bounded(
        words in proptest::collection::vec(any::<u64>(), 1..160),
        shards in 1usize..5,
        gated in any::<bool>(),
    ) {
        let mut server = PartitionedMapServer::new(Rloc::for_router_index(900), shards);
        if gated {
            // A tight subscribe budget: sheds create no stream.
            server.set_admission(Some(AdmissionConfig {
                requests: ClassBudget::new(1e6, 1e6),
                registers: ClassBudget::new(1e6, 1e6),
                subscribes: ClassBudget::new(2.0, 1.0),
                retry_after: SimDuration::from_millis(100),
            }));
        }
        let mut now = SimTime::ZERO;
        let mut acked: BTreeSet<(Rloc, VnId)> = BTreeSet::new();
        let mut attempted: BTreeSet<(Rloc, VnId)> = BTreeSet::new();

        for w in words {
            now += SimDuration::from_millis(w >> 56);
            let (v, sub) = (vn(w >> 8), rloc(w >> 16));
            let msg = match w % 8 {
                0..=2 => Message::MapRegister {
                    nonce: w,
                    vn: v,
                    eid: eid(w >> 24),
                    rloc: rloc(w >> 32),
                    ttl_secs: (w >> 40) as u32 % 4,
                    want_notify: w & (1 << 60) != 0,
                },
                3 => {
                    server.withdraw(v, eid(w >> 24));
                    server.flush_publishes();
                    continue;
                }
                4 => {
                    // A Subscribe's bytes with one bit flipped: whatever
                    // still parses goes in.
                    let sent = Message::Subscribe {
                        nonce: w,
                        vn: v,
                        subscriber: sub,
                        have_seq: w >> 40,
                        digest: w.rotate_left(17),
                    };
                    let mut bytes = sent.emit();
                    let bit = (w >> 24) as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    match Message::parse(&bytes) {
                        Ok(m) => m,
                        Err(_) => continue,
                    }
                }
                // Claims: the true one, a near miss of it, or any pair
                // (a small watermark so it sometimes is the true one).
                k => {
                    let truth = true_claim(&server, v);
                    let (have_seq, digest) = match k {
                        5 => truth,
                        6 => match (w >> 24) & 1 {
                            0 => (truth.0.wrapping_add(1 + (w >> 40) % 3), truth.1),
                            _ => (truth.0, truth.1 ^ (1 << ((w >> 40) % 64))),
                        },
                        _ => ((w >> 24) % 6, if (w >> 30) & 1 == 0 { 0 } else { w >> 32 }),
                    };
                    Message::Subscribe { nonce: w, vn: v, subscriber: sub, have_seq, digest }
                }
            };

            let claim = match msg {
                Message::Subscribe { vn, subscriber, have_seq, digest, .. } => {
                    Some((vn, subscriber, (have_seq, digest), true_claim(&server, vn)))
                }
                _ => None,
            };
            let was_live = claim.is_some_and(|(vn, sub, _, _)| acked.contains(&(sub, vn)));
            let out = server.handle(msg, now);
            let flushed = server.flush_publishes();

            if let Some((vn, sub, claimed, truth)) = claim {
                attempted.insert((sub, vn));
                match out.as_slice() {
                    [(to, Message::SubscribeAck { resumed, .. })] => {
                        prop_assert_eq!(*to, sub);
                        acked.insert((sub, vn));
                        prop_assert_eq!(*resumed, was_live && claimed == truth, "claim {:?} vs {:?}", claimed, truth);
                        if *resumed {
                            prop_assert!(flushed.is_empty(), "a resume sends nothing");
                        } else {
                            // Exactly the VN's snapshot, at the watermark.
                            let rows = server.iter_db().filter(|(v, _, _)| *v == vn).count();
                            prop_assert_eq!(flushed.len(), rows);
                            for (to, m) in &flushed {
                                prop_assert_eq!(*to, sub);
                                let is_snapshot_row = matches!(m,
                                    Message::Publish { nonce, vn: of, withdraw: false, .. }
                                        if *nonce == truth.0 && *of == vn);
                                prop_assert!(is_snapshot_row, "not a snapshot row: {:?}", m);
                            }
                        }
                    }
                    [(to, Message::ServerBusy { .. })] => {
                        prop_assert!(gated && !was_live, "only a new stream is shed");
                        prop_assert_eq!(*to, sub);
                    }
                    other => prop_assert!(false, "a Subscribe answered {:?}", other),
                }
            }
            prop_assert_eq!(server.pubsub_streams(), acked.len());
            prop_assert!(acked.len() <= attempted.len());
        }
        prop_assert_eq!(server.pubsub_gaps(), 0);
    }
}
