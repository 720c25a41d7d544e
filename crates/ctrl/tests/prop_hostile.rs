//! Hostile control-plane input at the server's entry (ROADMAP item 12).
//!
//! **Subscribes.** Subscribes claiming any VN, subscriber, watermark and
//! digest — plus bit-flipped ones that still parse — mixed with
//! registers, moves and withdraws, fed to
//! [`PartitionedMapServer::handle`] with a flush after every message:
//!
//! * Nothing panics.
//! * A claim resumes exactly when the pair has been subscribed before
//!   and the claim is one the VN really had, `(seq, digest)` as of some
//!   earlier change or `(0, 0)` before the first (the log always reaches
//!   back here). The flush after a resume is that VN's changes after the
//!   claimed watermark, in order, to the subscriber — never another
//!   VN's, never one outside the range.
//! * Any other claim rebuilds exactly the VN's rows from nothing: as a
//!   snapshot behind the ack (every row at the watermark) or as the VN's
//!   history replayed by the flush, never both.
//! * The fan-out holds one stream per distinct `(subscriber, VN)` pair
//!   that was ever acked, whatever the claims, and never more.
//!
//! **Requests and registers.** Map-Requests and Map-Registers for any
//! VN, EID family, nonce, RLOC and TTL (0 included), with `smr` and
//! `want_notify` either way, a few Subscribes, and replies, notifies,
//! acks, publishes and `ServerBusy`s misaddressed to the server — with
//! admission on and off, one shard crashed or none, flushes and expiry
//! sweeps at random points, plus one fixed 10⁵-message run:
//!
//! * Nothing panics.
//! * Every reply goes to the message's `itr_rloc`, `rloc` or
//!   `subscriber` — except a register's unsolicited move notify (Fig. 5
//!   step 2, nonce 0), which goes to an RLOC registered for that
//!   `(vn, eid)` before.
//! * A misaddressed message is answered by nothing.
//! * `db_len()` never exceeds the distinct `(vn, eid)` registered, and
//!   `pubsub_peak_depth()` never exceeds `DEFAULT_QUEUE_CAP`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use sda_ctrl::{AdmissionConfig, ClassBudget, PartitionedMapServer, DEFAULT_QUEUE_CAP};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{row_digest, Eid, EidPrefix, MacAddr, Rloc, VnId};
use sda_wire::lisp::{BusyClass, Message};

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
        // Every `(seq, digest)` each VN has had, `(0, 0)` first.
        let mut history: BTreeMap<VnId, Vec<(u64, u64)>> = BTreeMap::new();
        let mut record = |server: &PartitionedMapServer, v: VnId| {
            let had = history.entry(v).or_insert_with(|| vec![(0, 0)]);
            let now = true_claim(server, v);
            if had.last() != Some(&now) {
                had.push(now);
            }
            had.clone()
        };

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
                    record(&server, v);
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
                // Claims: the true one, a near miss of it, an earlier true
                // one, or any pair (a small watermark so it sometimes is
                // a true one).
                k => {
                    let truth = true_claim(&server, v);
                    let (have_seq, digest) = match k {
                        5 => truth,
                        6 => match (w >> 24) & 1 {
                            0 => (truth.0.wrapping_add(1 + (w >> 40) % 3), truth.1),
                            _ => (truth.0, truth.1 ^ (1 << ((w >> 40) % 64))),
                        },
                        // A point the VN really had, possibly long past.
                        _ if (w >> 62) & 1 == 1 => {
                            let had = record(&server, v);
                            had[(w >> 24) as usize % had.len()]
                        }
                        _ => ((w >> 24) % 6, if (w >> 30) & 1 == 0 { 0 } else { w >> 32 }),
                    };
                    Message::Subscribe { nonce: w, vn: v, subscriber: sub, have_seq, digest }
                }
            };

            let claim = match msg {
                Message::Subscribe { vn, subscriber, have_seq, digest, .. } => {
                    Some((vn, subscriber, (have_seq, digest), record(&server, vn)))
                }
                _ => None,
            };
            let was_live = claim.as_ref().is_some_and(|(vn, sub, _, _)| acked.contains(&(*sub, *vn)));
            let touched = match msg {
                Message::MapRegister { vn, .. } => Some(vn),
                _ => None,
            };
            let out = server.handle(msg, now);
            let flushed = server.flush_publishes();
            if let Some(v) = touched {
                record(&server, v);
            }

            if let Some((vn, sub, claimed, had)) = claim {
                attempted.insert((sub, vn));
                let truth = *had.last().unwrap();
                match out.as_slice() {
                    [(to, Message::SubscribeAck { resumed, .. }), snapshot @ ..] => {
                        prop_assert_eq!(*to, sub);
                        acked.insert((sub, vn));
                        let honest = had.contains(&claimed);
                        prop_assert_eq!(*resumed, was_live && honest, "claim {:?} vs {:?}", claimed, had);
                        prop_assert!(snapshot.is_empty() || flushed.is_empty(), "a snapshot and a replay");
                        prop_assert!(!*resumed || snapshot.is_empty(), "a resume sends no snapshot");
                        let mut nonces = Vec::new();
                        for (to, m) in snapshot.iter().chain(&flushed) {
                            prop_assert_eq!(*to, sub);
                            match *m {
                                Message::Publish { nonce, vn: of, .. } if of == vn => nonces.push(nonce),
                                ref other => prop_assert!(false, "not a publish of {:?}: {:?}", vn, other),
                            }
                        }
                        if *resumed {
                            // Exactly the changes after the claimed watermark.
                            let want: Vec<u64> = (claimed.0 + 1..=truth.0).collect();
                            prop_assert_eq!(nonces, want);
                        } else {
                            // From nothing to exactly the VN's rows.
                            let mut rebuilt = BTreeMap::new();
                            for (_, m) in snapshot.iter().chain(&flushed) {
                                if let Message::Publish { prefix, rloc, withdraw, .. } = *m {
                                    match withdraw {
                                        true => rebuilt.remove(&prefix),
                                        false => rebuilt.insert(prefix, rloc),
                                    };
                                }
                            }
                            let rows: BTreeMap<EidPrefix, Rloc> = server
                                .iter_db()
                                .filter(|(v, _, _)| *v == vn)
                                .map(|(_, p, rec)| (p, rec.rloc))
                                .collect();
                            prop_assert_eq!(rebuilt, rows);
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

/// SplitMix64's output mix: spreads one word into independent-looking
/// bits for the fields a message needs.
fn mix(w: u64) -> u64 {
    let mut z = w.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mostly one of five VNs (so keys collide and move), sometimes any.
fn any_vn(w: u64) -> VnId {
    if w & 7 == 0 {
        VnId::new((w >> 8) as u32 & VnId::MAX).unwrap()
    } else {
        vn(w >> 3)
    }
}

/// Mostly the shared 36-key pool, sometimes any EID of any family.
fn any_eid(w: u64) -> Eid {
    let x = mix(w);
    match w & 7 {
        0 => Eid::V4(Ipv4Addr::from(x as u32)),
        1 => Eid::V6(Ipv6Addr::from((u128::from(x) << 64) | u128::from(mix(x)))),
        2 => Eid::Mac(MacAddr(x.to_be_bytes()[..6].try_into().unwrap())),
        _ => eid(w >> 3),
    }
}

/// Mostly one of sixteen edges, sometimes any address.
fn any_rloc(w: u64) -> Rloc {
    if w & 3 == 0 {
        Rloc(Ipv4Addr::from(mix(w) as u32))
    } else {
        rloc(w >> 2)
    }
}

/// What one word asks of the server: a message, or a flush / expiry
/// sweep between messages.
enum Step {
    Send(Message),
    Flush(u64),
    Expire,
}

fn step(w: u64) -> Step {
    let x = mix(w);
    let (v, e, r) = (any_vn(x), any_eid(x >> 16), any_rloc(x >> 40));
    let prefix = EidPrefix::host(e);
    Step::Send(match w % 16 {
        0..=4 => Message::MapRequest {
            nonce: x,
            smr: w & (1 << 8) != 0,
            vn: v,
            eid: e,
            itr_rloc: r,
        },
        5..=9 => Message::MapRegister {
            nonce: x,
            vn: v,
            eid: e,
            rloc: r,
            ttl_secs: match (w >> 8) % 4 {
                0 => 0,
                1 => 1,
                2 => 60,
                _ => (w >> 32) as u32,
            },
            want_notify: w & (1 << 10) != 0,
        },
        10 => Message::Subscribe {
            nonce: x,
            vn: v,
            subscriber: r,
            have_seq: (w >> 8) % 4,
            digest: mix(x),
        },
        11 => Message::MapReply {
            nonce: x,
            vn: v,
            prefix,
            rloc: (w & (1 << 8) != 0).then_some(r),
            negative: w & (1 << 9) != 0,
            ttl_secs: (w >> 32) as u32,
        },
        12 if w & (1 << 8) != 0 => Message::MapNotify {
            nonce: x,
            vn: v,
            eid: e,
            new_rloc: r,
        },
        12 => Message::SubscribeAck {
            nonce: x,
            vn: v,
            resumed: w & (1 << 9) != 0,
        },
        13 => Message::Publish {
            nonce: x,
            vn: v,
            prefix,
            rloc: r,
            withdraw: w & (1 << 8) != 0,
        },
        14 => Message::ServerBusy {
            nonce: x,
            vn: v,
            eid: e,
            class: [
                BusyClass::Request,
                BusyClass::Register,
                BusyClass::Subscribe,
            ][(w >> 8) as usize % 3],
            retry_after_ms: (w >> 32) as u32,
        },
        _ if (w >> 8).is_multiple_of(128) => return Step::Expire,
        _ => return Step::Flush(w >> 9),
    })
}

/// Feeds `words` to a server with `shards` shards, admission on or off
/// and shard `crashed` down (none when out of range), flushing the
/// fan-out at one in `flush_one_in` of the words that ask; checks every
/// invariant in the module doc after each message.
fn drive_hostile(
    words: impl IntoIterator<Item = u64>,
    shards: usize,
    gated: bool,
    crashed: usize,
    flush_one_in: u64,
) -> PartitionedMapServer {
    let mut server = PartitionedMapServer::new(Rloc::for_router_index(900), shards);
    if gated {
        server.set_admission(Some(AdmissionConfig {
            requests: ClassBudget::new(40.0, 8.0),
            registers: ClassBudget::new(40.0, 8.0),
            subscribes: ClassBudget::new(2.0, 1.0),
            retry_after: SimDuration::from_millis(100),
        }));
    }
    if crashed < shards {
        server.crash_shard(crashed);
    }
    let mut now = SimTime::ZERO;
    // Every RLOC each (vn, eid) was ever registered to.
    let mut registered: BTreeMap<(VnId, Eid), BTreeSet<Rloc>> = BTreeMap::new();
    for w in words {
        now += SimDuration::from_millis(w >> 58);
        let msg = match step(w) {
            Step::Send(msg) => msg,
            Step::Flush(k) => {
                if k.is_multiple_of(flush_one_in) {
                    server.flush_publishes();
                }
                continue;
            }
            Step::Expire => {
                server.expire(now);
                continue;
            }
        };
        let out = server.handle(msg.clone(), now);
        for (to, reply) in &out {
            let addressed = match msg {
                Message::MapRequest { itr_rloc, .. } => *to == itr_rloc,
                Message::MapRegister { vn, eid, rloc, .. } => {
                    *to == rloc
                        || matches!(reply, Message::MapNotify { nonce: 0, new_rloc, .. }
                            if *new_rloc == rloc
                                && registered.get(&(vn, eid)).is_some_and(|r| r.contains(to)))
                }
                Message::Subscribe { subscriber, .. } => *to == subscriber,
                _ => false,
            };
            assert!(addressed, "{msg:?} answered {reply:?} to {to}");
        }
        if let Message::MapRegister { vn, eid, rloc, .. } = msg {
            registered.entry((vn, eid)).or_default().insert(rloc);
        }
        assert!(server.db_len() <= registered.len());
        assert!(server.pubsub_peak_depth() <= DEFAULT_QUEUE_CAP);
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_requests_and_registers_are_answered_where_they_came_from(
        words in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        shards in 1usize..5,
        gated in any::<bool>(),
        crashed in 0usize..5,
    ) {
        drive_hostile(words, shards, gated, crashed, 1);
    }
}

/// One 10⁵-message run at four shards with admission on and shard 2
/// crashed. Flushes are rare enough that subscriber queues reach their
/// cap between them, so the depth bound is exercised, not idle.
#[test]
fn hostile_mix_of_a_hundred_thousand_messages() {
    let words = (0..100_000u64).map(|i| mix(i ^ 0x5DA));
    let server = drive_hostile(words, 4, true, 2, 512);
    assert_eq!(server.pubsub_peak_depth(), DEFAULT_QUEUE_CAP);
    assert!(server.pubsub_gaps() > 0);
}
