//! The single map-server — the routing server of Fig. 1 as one state
//! machine over one [`MappingDb`], as it stood in `sda_lisp::map_server`
//! before the fabric had a partitioned server: moved here verbatim apart
//! from `use` paths (`service_time` stayed behind as a free function).
//!
//! What it is: the reference. It speaks [`sda_wire::lisp::Message`] end
//! to end — callers hand it parsed control messages and it returns
//! `(destination RLOC, message)` pairs to transmit — and carries all the
//! SDA-specific behaviors in their simplest form:
//!
//! * **Move notification** (Fig. 5): a Map-Register from a new RLOC
//!   triggers a Map-Notify to the *previous* RLOC, telling the old edge
//!   to pull the new location and forward in-flight traffic.
//! * **Negative Map-Reply**: unknown EIDs answer `negative` with a short
//!   TTL; edges delete matching FIB entries (the building-B nighttime
//!   cache-cleaning effect of §4.2).
//! * **Pub/sub** (§3.3): subscribed border routers receive a Publish for
//!   every mapping change, plus a full snapshot on subscription — unless
//!   the Subscribe proves what the border holds: it is already
//!   subscribed, and its watermark and digest are a point its stream
//!   passed since the last snapshot (the snapshot's end, or a publish
//!   sent after it, with the digest the VN's rows had right then,
//!   walked here in full). Then the ack says `resumed` and every publish
//!   the stream sent after that point follows again, verbatim —
//!   nothing when the point is the last one.
//!
//! What it is not: run by any node. The fabric builds
//! `sda_ctrl::PartitionedMapServer` only; no production crate names this
//! type (CI greps for it).
//!
//! What holds it: `crates/ctrl/tests/differential_ctrl.rs` replays
//! generated register/request/move/expiry interleavings through this
//! server and the partitioned one and compares reply for reply; its
//! unit tests also run in `sda-bench`'s test build. Its subscriber
//! table is `pubsub.rs` in this
//! directory, which every includer mounts beside it as `pubsub`. Do not
//! "fix" anything in either file — their behaviour is the specification
//! (the resume rule above is the one deliberate change since the move).

use super::pubsub::SubscriberTable;
use sda_lisp::{MapServerStats, Outbox, NEGATIVE_TTL_SECS, REPLY_TTL_SECS};
use sda_lisp::{MappingDb, RegisterOutcome};
use sda_simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

use sda_types::{row_digest, Eid, EidPrefix, Rloc, VnId};
use sda_wire::lisp::Message;

/// A point of one subscriber's stream: the sequence of the last publish
/// sent (0: none since the snapshot began), the VN's row digest right
/// then, and that publish — `None` for a snapshot's end, which a resume
/// does not send again.
struct Point {
    seq: u64,
    digest: u64,
    publish: Option<Message>,
}

/// The routing server of Fig. 1.
pub struct MapServer {
    /// This server's own locator (sources of its messages).
    rloc: Rloc,
    db: MappingDb,
    subs: SubscriberTable,
    /// `(subscriber, vn)` → the points the stream passed since its last
    /// snapshot: where the snapshot left it, then one per publish sent.
    sent: BTreeMap<(Rloc, VnId), Vec<Point>>,
    stats: MapServerStats,
    default_ttl: SimDuration,
}

impl MapServer {
    /// Creates a map-server reachable at `rloc`.
    pub fn new(rloc: Rloc) -> Self {
        MapServer {
            rloc,
            db: MappingDb::new(),
            subs: SubscriberTable::new(),
            sent: BTreeMap::new(),
            stats: MapServerStats::default(),
            default_ttl: SimDuration::from_secs(u64::from(REPLY_TTL_SECS)),
        }
    }

    /// This server's locator.
    pub fn rloc(&self) -> Rloc {
        self.rloc
    }

    /// Read access to the mapping database.
    pub fn db(&self) -> &MappingDb {
        &self.db
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MapServerStats {
        self.stats
    }

    /// Handles one control message, returning messages to transmit.
    pub fn handle(&mut self, msg: Message, now: SimTime) -> Outbox {
        match msg {
            Message::MapRequest {
                nonce,
                smr,
                vn,
                eid,
                itr_rloc,
            } => {
                // An SMR addressed to the server is meaningless; ignore.
                if smr {
                    return Outbox::new();
                }
                self.answer_request(nonce, vn, eid, itr_rloc, now)
            }
            Message::MapRegister {
                nonce,
                vn,
                eid,
                rloc,
                ttl_secs,
                want_notify,
            } => self.process_register(nonce, vn, eid, rloc, ttl_secs, want_notify, now),
            Message::Subscribe {
                nonce,
                vn,
                subscriber,
                have_seq,
                digest,
            } => self.process_subscribe(nonce, vn, subscriber, have_seq, digest),
            // Replies/notifies/publishes/acks/busy-signals are never
            // addressed to a server.
            Message::MapReply { .. }
            | Message::MapNotify { .. }
            | Message::Publish { .. }
            | Message::SubscribeAck { .. }
            | Message::ServerBusy { .. } => Outbox::new(),
        }
    }

    fn answer_request(
        &mut self,
        nonce: u64,
        vn: VnId,
        eid: Eid,
        itr_rloc: Rloc,
        now: SimTime,
    ) -> Outbox {
        match self.db.lookup(vn, eid, now) {
            Some((prefix, rec)) => {
                self.stats.replies += 1;
                vec![(
                    itr_rloc,
                    Message::MapReply {
                        nonce,
                        vn,
                        prefix,
                        rloc: Some(rec.rloc),
                        negative: false,
                        ttl_secs: REPLY_TTL_SECS,
                    },
                )]
            }
            None => {
                self.stats.negative_replies += 1;
                vec![(
                    itr_rloc,
                    Message::MapReply {
                        nonce,
                        vn,
                        prefix: EidPrefix::host(eid),
                        rloc: None,
                        negative: true,
                        ttl_secs: NEGATIVE_TTL_SECS,
                    },
                )]
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_register(
        &mut self,
        nonce: u64,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl_secs: u32,
        want_notify: bool,
        now: SimTime,
    ) -> Outbox {
        let ttl = if ttl_secs == 0 {
            self.default_ttl
        } else {
            SimDuration::from_secs(u64::from(ttl_secs))
        };
        self.stats.registers += 1;
        let outcome = self.db.register(vn, eid, rloc, ttl, now);
        let mut out = Outbox::new();

        if let RegisterOutcome::Moved { previous } = outcome {
            self.stats.moves += 1;
            // Fig. 5 step 2: tell the previous edge where the endpoint
            // went so it can forward in-flight traffic and refresh.
            out.push((
                previous,
                Message::MapNotify {
                    nonce: 0,
                    vn,
                    eid,
                    new_rloc: rloc,
                },
            ));
        }

        if want_notify {
            // Registration ack.
            out.push((
                rloc,
                Message::MapNotify {
                    nonce,
                    vn,
                    eid,
                    new_rloc: rloc,
                },
            ));
        }

        // Pub/sub: push the change to subscribed borders (skip refreshes —
        // nothing changed for the data plane).
        if !matches!(outcome, RegisterOutcome::Refreshed) {
            self.publish_change(vn, eid, rloc, false, &mut out);
        }
        out
    }

    /// Allocates the sequence of the next Publish on `vn`.
    fn next_publish(&mut self, vn: VnId) -> u64 {
        self.stats.publishes += 1;
        self.subs.next_seq(vn)
    }

    /// The digest of the VN's rows, live or expired.
    fn vn_digest(&self, vn: VnId) -> u64 {
        self.db.iter_vn(vn).fold(0, |d, (prefix, rec)| {
            let eid = prefix
                .as_host()
                .expect("the registry holds host routes only");
            d.wrapping_add(row_digest(&eid, rec.rloc))
        })
    }

    /// Streams one change of `eid` in `vn` to every subscriber of the VN,
    /// each publish a new point of that subscriber's stream.
    fn publish_change(&mut self, vn: VnId, eid: Eid, rloc: Rloc, withdraw: bool, out: &mut Outbox) {
        let digest = self.vn_digest(vn);
        let subscribers: Vec<Rloc> = self.subs.subscribers(vn).to_vec();
        for sub in subscribers {
            let publish = Message::Publish {
                nonce: self.next_publish(vn),
                vn,
                prefix: EidPrefix::host(eid),
                rloc,
                withdraw,
            };
            let point = Point {
                seq: self.subs.current_seq(vn),
                digest,
                publish: Some(publish.clone()),
            };
            self.sent.entry((sub, vn)).or_default().push(point);
            out.push((sub, publish));
        }
    }

    fn process_subscribe(
        &mut self,
        nonce: u64,
        vn: VnId,
        subscriber: Rloc,
        have_seq: u64,
        digest: u64,
    ) -> Outbox {
        // Resume: a subscriber that holds the VN as its stream left it at
        // some point gets the ack and, again, everything sent after it.
        let points = self
            .sent
            .get(&(subscriber, vn))
            .map_or(&[][..], Vec::as_slice);
        let at = points
            .iter()
            .position(|p| p.seq == have_seq && p.digest == digest);
        if let Some(at) = at.filter(|_| self.subs.subscribers(vn).contains(&subscriber)) {
            let resumed = Message::SubscribeAck {
                nonce,
                vn,
                resumed: true,
            };
            let again = points[at + 1..].iter().filter_map(|p| p.publish.clone());
            return std::iter::once(resumed)
                .chain(again)
                .map(|m| (subscriber, m))
                .collect();
        }
        self.subs.subscribe(vn, subscriber);
        // Ack first: the subscriber resets its view of the VN on receipt,
        // then the snapshot publishes that follow rebuild it. Re-subscribe
        // is idempotent, so retransmitted Subscribes are safe.
        let mut out = Outbox::new();
        out.push((
            subscriber,
            Message::SubscribeAck {
                nonce,
                vn,
                resumed: false,
            },
        ));
        // Full snapshot so the border starts synchronized.
        let rows: Vec<_> = self.db.iter_vn(vn).collect();
        let mut seq = 0;
        for (prefix, rec) in rows {
            seq = self.next_publish(vn);
            out.push((
                subscriber,
                Message::Publish {
                    nonce: seq,
                    vn,
                    prefix,
                    rloc: rec.rloc,
                    withdraw: false,
                },
            ));
        }
        let digest = self.vn_digest(vn);
        let end = Point {
            seq,
            digest,
            publish: None,
        };
        self.sent.insert((subscriber, vn), vec![end]);
        out
    }

    /// Expires registrations whose TTL lapsed (the registering edge
    /// stopped refreshing — endpoint left the network), withdrawing each
    /// toward subscribers. This is what makes the border router's table
    /// "follow closely the presence of authenticated users" (§4.2).
    pub fn expire(&mut self, now: SimTime) -> Outbox {
        // Single pass: prune expired host registrations in place and
        // collect what was removed for the withdraw publishes.
        let mut dead: Vec<(VnId, Eid, Rloc)> = Vec::new();
        self.db.retain(|vn, prefix, rec| {
            let live = !rec.expired(now);
            if !live {
                let eid = prefix
                    .as_host()
                    .expect("the registry holds host routes only");
                dead.push((vn, eid, rec.rloc));
            }
            live
        });
        // The pass ran in hash order; what goes on the wire must not
        // depend on the tables' capacity history.
        dead.sort_unstable_by_key(|&(vn, eid, _)| (vn, eid));
        let mut out = Outbox::new();
        for (vn, eid, old_rloc) in dead {
            self.publish_withdraw(vn, eid, old_rloc, &mut out);
        }
        out
    }

    /// Streams a withdrawal of `eid` (last at `old_rloc`) to `vn`'s
    /// subscribers — the shared tail of [`MapServer::withdraw`] and
    /// [`MapServer::expire`].
    fn publish_withdraw(&mut self, vn: VnId, eid: Eid, old_rloc: Rloc, out: &mut Outbox) {
        self.publish_change(vn, eid, old_rloc, true, out);
    }

    /// Explicit withdraw (endpoint offboarded or edge died); publishes
    /// the removal to subscribers.
    pub fn withdraw(&mut self, vn: VnId, eid: Eid) -> Outbox {
        let Some(old) = self.db.withdraw(vn, eid) else {
            return Outbox::new();
        };
        let mut out = Outbox::new();
        self.publish_withdraw(vn, eid, old.rloc, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    fn server() -> MapServer {
        MapServer::new(Rloc::for_router_index(0))
    }

    fn register(vn_: VnId, eid_: Eid, rloc: Rloc) -> Message {
        Message::MapRegister {
            nonce: 1,
            vn: vn_,
            eid: eid_,
            rloc,
            ttl_secs: 300,
            want_notify: false,
        }
    }

    #[test]
    fn request_for_registered_eid_gets_positive_reply() {
        let mut s = server();
        let edge = Rloc::for_router_index(1);
        s.handle(register(vn(1), eid(1), edge), SimTime::ZERO);
        let out = s.handle(
            Message::MapRequest {
                nonce: 7,
                smr: false,
                vn: vn(1),
                eid: eid(1),
                itr_rloc: Rloc::for_router_index(2),
            },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(*to, Rloc::for_router_index(2));
        match msg {
            Message::MapReply {
                nonce,
                rloc,
                negative,
                ttl_secs,
                ..
            } => {
                assert_eq!(*nonce, 7);
                assert_eq!(*rloc, Some(edge));
                assert!(!negative);
                assert_eq!(*ttl_secs, REPLY_TTL_SECS);
            }
            other => panic!("expected MapReply, got {other:?}"),
        }
    }

    #[test]
    fn request_for_unknown_eid_gets_negative_reply() {
        let mut s = server();
        let out = s.handle(
            Message::MapRequest {
                nonce: 9,
                smr: false,
                vn: vn(1),
                eid: eid(9),
                itr_rloc: Rloc::for_router_index(2),
            },
            SimTime::ZERO,
        );
        match &out[0].1 {
            Message::MapReply {
                negative,
                rloc,
                ttl_secs,
                ..
            } => {
                assert!(*negative);
                assert_eq!(*rloc, None);
                assert_eq!(*ttl_secs, NEGATIVE_TTL_SECS);
            }
            other => panic!("expected negative MapReply, got {other:?}"),
        }
        assert_eq!(s.stats().negative_replies, 1);
    }

    #[test]
    fn move_notifies_previous_edge() {
        let mut s = server();
        let old_edge = Rloc::for_router_index(1);
        let new_edge = Rloc::for_router_index(2);
        s.handle(register(vn(1), eid(1), old_edge), SimTime::ZERO);
        let out = s.handle(register(vn(1), eid(1), new_edge), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(*to, old_edge, "notify goes to the previous edge");
        match msg {
            Message::MapNotify {
                eid: e, new_rloc, ..
            } => {
                assert_eq!(*e, eid(1));
                assert_eq!(*new_rloc, new_edge);
            }
            other => panic!("expected MapNotify, got {other:?}"),
        }
        assert_eq!(s.stats().moves, 1);
    }

    #[test]
    fn want_notify_acks_registrant() {
        let mut s = server();
        let edge = Rloc::for_router_index(1);
        let out = s.handle(
            Message::MapRegister {
                nonce: 55,
                vn: vn(1),
                eid: eid(1),
                rloc: edge,
                ttl_secs: 300,
                want_notify: true,
            },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, edge);
        assert!(matches!(out[0].1, Message::MapNotify { nonce: 55, .. }));
    }

    #[test]
    fn subscriber_gets_snapshot_then_stream() {
        let mut s = server();
        let edge = Rloc::for_router_index(1);
        let border = Rloc::for_router_index(9);
        // A thousand endpoints in a VN nobody subscribes to, three in
        // the one somebody does, registered out of order.
        for i in 0..1000u32 {
            let host = Eid::V4(Ipv4Addr::from(0x0A01_0000 | i));
            s.handle(register(vn(2), host, edge), SimTime::ZERO);
        }
        for n in [7, 200, 2] {
            s.handle(register(vn(1), eid(n), edge), SimTime::ZERO);
        }

        // Subscribe: the ack, then a snapshot of exactly the subscribed
        // VN in ascending EID order.
        let out = s.handle(
            Message::Subscribe {
                nonce: 5,
                vn: vn(1),
                subscriber: border,
                have_seq: 0,
                digest: 0,
            },
            SimTime::ZERO,
        );
        let snapshot = |n: u8, seq: u64| {
            let publish = Message::Publish {
                nonce: seq,
                vn: vn(1),
                prefix: EidPrefix::host(eid(n)),
                rloc: edge,
                withdraw: false,
            };
            (border, publish)
        };
        let ack = Message::SubscribeAck {
            nonce: 5,
            vn: vn(1),
            resumed: false,
        };
        assert_eq!(
            out,
            [
                (border, ack),
                snapshot(2, 1),
                snapshot(7, 2),
                snapshot(200, 3)
            ]
        );

        // New registration streams one publish.
        let out = s.handle(register(vn(1), eid(3), edge), SimTime::ZERO);
        let publishes: Vec<_> = out
            .iter()
            .filter(|(_, m)| matches!(m, Message::Publish { .. }))
            .collect();
        assert_eq!(publishes.len(), 1);

        // Refresh does NOT publish.
        let out = s.handle(register(vn(1), eid(3), edge), SimTime::ZERO);
        assert!(out.is_empty(), "refresh must not publish: {out:?}");
    }

    #[test]
    fn in_sync_resubscribe_resumes_and_one_rloc_off_snapshots() {
        let mut s = server();
        let edge = Rloc::for_router_index(1);
        let border = Rloc::for_router_index(9);
        for n in [7, 200, 2] {
            s.handle(register(vn(1), eid(n), edge), SimTime::ZERO);
        }
        let subscribe = |have_seq, digest| Message::Subscribe {
            nonce: 6,
            vn: vn(1),
            subscriber: border,
            have_seq,
            digest,
        };
        let out = s.handle(subscribe(0, 0), SimTime::ZERO);
        assert_eq!(out.len(), 4, "ack and a three-row snapshot");
        let digest = |moved: u8| {
            [7, 200, 2].iter().fold(0u64, |d, &n| {
                let rloc = if n == moved {
                    Rloc::for_router_index(2)
                } else {
                    edge
                };
                d.wrapping_add(row_digest(&eid(n), rloc))
            })
        };
        let ack = |resumed| Message::SubscribeAck {
            nonce: 6,
            vn: vn(1),
            resumed,
        };
        // The last sequence sent and the rows' digest: resumed.
        assert_eq!(
            s.handle(subscribe(3, digest(0)), SimTime::ZERO),
            [(border, ack(true))]
        );
        // Same count and watermark, one RLOC off: a snapshot.
        let out = s.handle(subscribe(3, digest(7)), SimTime::ZERO);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], (border, ack(false)));
        // That snapshot sent 4..=6, so 3 is stale now (another snapshot,
        // 7..=9), and the latest last sequence resumes.
        assert_eq!(s.handle(subscribe(3, digest(0)), SimTime::ZERO).len(), 4);
        assert_eq!(
            s.handle(subscribe(9, digest(0)), SimTime::ZERO),
            [(border, ack(true))]
        );
    }

    #[test]
    fn publish_sequences_increase() {
        let mut s = server();
        let border = Rloc::for_router_index(9);
        s.handle(
            Message::Subscribe {
                nonce: 0,
                vn: vn(1),
                subscriber: border,
                have_seq: 0,
                digest: 0,
            },
            SimTime::ZERO,
        );
        let mut last = 0;
        for i in 1..=5u8 {
            let out = s.handle(
                register(vn(1), eid(i), Rloc::for_router_index(1)),
                SimTime::ZERO,
            );
            for (_, m) in out {
                if let Message::Publish { nonce, .. } = m {
                    assert!(nonce > last);
                    last = nonce;
                }
            }
        }
    }

    /// Regression: with the old *global* sequence counter, publishes to
    /// VN A advanced the numbers VN B's subscriber saw, so every
    /// foreign-VN publish looked like a gap. Each VN's stream must be
    /// contiguous on its own.
    #[test]
    fn per_vn_publish_streams_are_contiguous() {
        let mut s = server();
        let border_a = Rloc::for_router_index(8);
        let border_b = Rloc::for_router_index(9);
        for (v, b) in [(vn(1), border_a), (vn(2), border_b)] {
            s.handle(
                Message::Subscribe {
                    nonce: 0,
                    vn: v,
                    subscriber: b,
                    have_seq: 0,
                    digest: 0,
                },
                SimTime::ZERO,
            );
        }
        // Interleave changes across the two VNs.
        let mut out = Outbox::new();
        for i in 1..=4u8 {
            out.extend(s.handle(
                register(vn(1), eid(i), Rloc::for_router_index(1)),
                SimTime::ZERO,
            ));
            out.extend(s.handle(
                register(vn(2), eid(i), Rloc::for_router_index(1)),
                SimTime::ZERO,
            ));
        }
        for (border, v) in [(border_a, vn(1)), (border_b, vn(2))] {
            let seqs: Vec<u64> = out
                .iter()
                .filter(|(to, _)| *to == border)
                .map(|(_, m)| match m {
                    Message::Publish { nonce, vn, .. } => {
                        assert_eq!(*vn, v);
                        *nonce
                    }
                    other => panic!("expected Publish, got {other:?}"),
                })
                .collect();
            assert_eq!(
                seqs,
                vec![1, 2, 3, 4],
                "{v:?}'s stream must be gap-free despite interleaving"
            );
        }
    }

    #[test]
    fn withdraw_publishes_removal() {
        let mut s = server();
        let border = Rloc::for_router_index(9);
        s.handle(
            register(vn(1), eid(1), Rloc::for_router_index(1)),
            SimTime::ZERO,
        );
        s.handle(
            Message::Subscribe {
                nonce: 0,
                vn: vn(1),
                subscriber: border,
                have_seq: 0,
                digest: 0,
            },
            SimTime::ZERO,
        );
        let out = s.withdraw(vn(1), eid(1));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Message::Publish { withdraw: true, .. }));
        // Unknown withdraw is silent.
        assert!(s.withdraw(vn(1), eid(1)).is_empty());
    }

    #[test]
    fn expire_withdraws_and_publishes() {
        let mut s = server();
        let border = Rloc::for_router_index(9);
        let edge = Rloc::for_router_index(1);
        s.handle(
            Message::MapRegister {
                nonce: 0,
                vn: vn(1),
                eid: eid(1),
                rloc: edge,
                ttl_secs: 60,
                want_notify: false,
            },
            SimTime::ZERO,
        );
        s.handle(
            Message::Subscribe {
                nonce: 0,
                vn: vn(1),
                subscriber: border,
                have_seq: 0,
                digest: 0,
            },
            SimTime::ZERO,
        );
        // Before expiry: nothing.
        assert!(s
            .expire(SimTime::ZERO + SimDuration::from_secs(30))
            .is_empty());
        // After expiry: withdraw published, DB emptied.
        let out = s.expire(SimTime::ZERO + SimDuration::from_secs(61));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Message::Publish { withdraw: true, .. }));
        assert!(s.db().is_empty());
    }

    #[test]
    fn smr_addressed_to_server_ignored() {
        let mut s = server();
        let out = s.handle(
            Message::MapRequest {
                nonce: 0,
                smr: true,
                vn: vn(1),
                eid: eid(1),
                itr_rloc: Rloc::for_router_index(1),
            },
            SimTime::ZERO,
        );
        assert!(out.is_empty());
    }
}
