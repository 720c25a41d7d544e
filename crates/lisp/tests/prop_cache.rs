//! Model-based property tests for the edge map-cache: the trie-backed
//! implementation must agree with a naive reference on every operation
//! sequence, and its TTL/idle/invalidations must never resurrect stale
//! state.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_lisp::{CacheOutcome, MapCache};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, Rloc, VnId};

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

fn eid(n: u8) -> Eid {
    Eid::V4(Ipv4Addr::new(10, 0, 0, n))
}

#[derive(Clone, Debug)]
enum Op {
    /// install(eid, rloc, ttl_secs) at the current time.
    Install(u8, u16, u32),
    /// lookup(eid).
    Lookup(u8),
    /// negative(eid).
    Negative(u8),
    /// mark_stale(eid).
    MarkStale(u8),
    /// purge_rloc(rloc).
    PurgeRloc(u16),
    /// advance clock by seconds.
    Advance(u32),
    /// evict with idle timeout (secs).
    Evict(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 0u16..4, 1u32..600).prop_map(|(e, r, t)| Op::Install(e, r, t)),
        (0u8..16).prop_map(Op::Lookup),
        (0u8..16).prop_map(Op::Negative),
        (0u8..16).prop_map(Op::MarkStale),
        (0u16..4).prop_map(Op::PurgeRloc),
        (1u32..400).prop_map(Op::Advance),
        (60u32..600).prop_map(Op::Evict),
    ]
}

/// Reference model entry.
#[derive(Clone, Copy)]
struct ModelEntry {
    rloc: Rloc,
    expires_at: SimTime,
    last_used: SimTime,
    stale: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut cache = MapCache::new();
        let mut model: HashMap<Eid, ModelEntry> = HashMap::new();
        let mut now = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Install(e, r, ttl) => {
                    let rloc = Rloc::for_router_index(r);
                    let ttl = SimDuration::from_secs(u64::from(ttl));
                    cache.install(vn(), EidPrefix::host(eid(e)), rloc, ttl, now);
                    model.insert(eid(e), ModelEntry {
                        rloc,
                        expires_at: now + ttl,
                        last_used: now,
                        stale: false,
                    });
                }
                Op::Lookup(e) => {
                    let got = cache.lookup(vn(), eid(e), now);
                    let want = match model.get_mut(&eid(e)) {
                        Some(entry) if now < entry.expires_at => {
                            entry.last_used = now;
                            if entry.stale {
                                CacheOutcome::Stale(entry.rloc)
                            } else {
                                CacheOutcome::Hit(entry.rloc)
                            }
                        }
                        Some(_) => {
                            model.remove(&eid(e));
                            CacheOutcome::Miss
                        }
                        None => CacheOutcome::Miss,
                    };
                    prop_assert_eq!(got, want);
                }
                Op::Negative(e) => {
                    let got = cache.apply_negative(vn(), EidPrefix::host(eid(e)));
                    let want = model.remove(&eid(e)).is_some();
                    prop_assert_eq!(got, want);
                }
                Op::MarkStale(e) => {
                    let got = cache.mark_stale(vn(), eid(e), now);
                    // mark_stale follows lookup's lazy-purge discipline:
                    // an expired entry is removed, not marked.
                    let want = match model.get_mut(&eid(e)) {
                        Some(entry) if now < entry.expires_at => {
                            entry.stale = true;
                            Some(entry.rloc)
                        }
                        Some(_) => {
                            model.remove(&eid(e));
                            None
                        }
                        None => None,
                    };
                    prop_assert_eq!(got, want);
                }
                Op::PurgeRloc(r) => {
                    let rloc = Rloc::for_router_index(r);
                    let got = cache.purge_rloc(rloc);
                    let before = model.len();
                    model.retain(|_, entry| entry.rloc != rloc);
                    prop_assert_eq!(got, before - model.len());
                }
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(u64::from(secs));
                }
                Op::Evict(idle) => {
                    let idle = SimDuration::from_secs(u64::from(idle));
                    let got = cache.evict(now, idle);
                    let before = model.len();
                    model.retain(|_, entry| {
                        now < entry.expires_at
                            && now.saturating_since(entry.last_used) < idle
                    });
                    prop_assert_eq!(got, before - model.len());
                }
            }
            prop_assert_eq!(cache.len(), model.len());
            // The maintained counter must never drift from the true
            // per-trie sum, whatever the operation mix.
            prop_assert_eq!(cache.len(), cache.recount());
        }
    }

    /// The O(1) maintained counter equals the recomputed per-trie sum
    /// across multiple VNs and address families (install/remove paths in
    /// every VN, not just the single-VN model test above).
    #[test]
    fn len_counter_matches_recount_across_vns(
        ops in proptest::collection::vec(
            (1u32..4, 0u8..12, 0u16..3, 0u8..3, 1u32..300), 1..80),
        idle in 60u32..600,
    ) {
        let mut cache = MapCache::new();
        let mut now = SimTime::ZERO;
        for (v, e, r, action, dt) in ops {
            let vn = VnId::new(v).unwrap();
            match action {
                0 => cache.install(
                    vn,
                    EidPrefix::host(eid(e)),
                    Rloc::for_router_index(r),
                    SimDuration::from_secs(u64::from(dt)),
                    now,
                ),
                1 => {
                    cache.apply_negative(vn, EidPrefix::host(eid(e)));
                }
                _ => {
                    now += SimDuration::from_secs(u64::from(dt));
                    cache.lookup(vn, eid(e), now);
                }
            }
            prop_assert_eq!(cache.len(), cache.recount());
        }
        cache.evict(now, SimDuration::from_secs(u64::from(idle)));
        prop_assert_eq!(cache.len(), cache.recount());
        cache.purge_rloc(Rloc::for_router_index(0));
        prop_assert_eq!(cache.len(), cache.recount());
        cache.clear();
        prop_assert_eq!(cache.len(), 0);
        prop_assert_eq!(cache.recount(), 0);
    }

    /// `lookup_shared` agrees with `lookup` outcome-for-outcome on the
    /// same operation sequence — including nested (subnet + host)
    /// prefixes, where `lookup` removes an expired host route and
    /// re-resolves to the covering subnet while `lookup_shared` reaches
    /// the same answer by filtering the dead entry during its single
    /// descent. Only the structural side effects differ (the shared
    /// cache keeps expired entries until the owner evicts), so lengths
    /// are *not* compared — outcomes are.
    #[test]
    fn lookup_shared_agrees_with_lookup(
        ops in proptest::collection::vec(arb_op(), 1..120),
        subnets in proptest::collection::vec((0u8..4, 0u16..4, 1u32..600), 0..4),
    ) {
        let mut owned = MapCache::new();
        let mut shared = MapCache::new();
        let mut now = SimTime::ZERO;

        // Seed both caches with identical covering subnets (10.0.X.0/24)
        // so expired host routes have something to uncover.
        for (third, r, ttl) in subnets {
            let prefix: EidPrefix = sda_types::Ipv4Prefix::new(
                Ipv4Addr::new(10, 0, third, 0), 24).unwrap().into();
            let rloc = Rloc::for_router_index(r);
            let ttl = SimDuration::from_secs(u64::from(ttl));
            owned.install(vn(), prefix, rloc, ttl, now);
            shared.install(vn(), prefix, rloc, ttl, now);
        }

        for op in ops {
            match op {
                Op::Install(e, r, ttl) => {
                    let rloc = Rloc::for_router_index(r);
                    let ttl = SimDuration::from_secs(u64::from(ttl));
                    owned.install(vn(), EidPrefix::host(eid(e)), rloc, ttl, now);
                    shared.install(vn(), EidPrefix::host(eid(e)), rloc, ttl, now);
                }
                Op::Lookup(e) => {
                    let want = owned.lookup(vn(), eid(e), now);
                    let got = shared.lookup_shared(vn(), eid(e), now);
                    prop_assert_eq!(got, want);
                    // And the batched shared flavor agrees with both.
                    let mut out = Vec::new();
                    shared.lookup_batch_shared(vn(), &[eid(e)], now, &mut out);
                    prop_assert_eq!(out[0], want);
                }
                Op::Negative(e) => {
                    owned.apply_negative(vn(), EidPrefix::host(eid(e)));
                    shared.apply_negative(vn(), EidPrefix::host(eid(e)));
                }
                Op::MarkStale(e) => {
                    // The shared cache takes the SMR through the atomic
                    // flag — the `&self` path the multi-core switch
                    // uses. Both flavors land on the deepest live cover.
                    let want = owned.mark_stale(vn(), eid(e), now);
                    let got = shared.mark_stale_shared(vn(), eid(e), now);
                    prop_assert_eq!(got, want);
                }
                Op::PurgeRloc(r) => {
                    let rloc = Rloc::for_router_index(r);
                    owned.purge_rloc(rloc);
                    shared.purge_rloc(rloc);
                }
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(u64::from(secs));
                }
                Op::Evict(idle) => {
                    let idle = SimDuration::from_secs(u64::from(idle));
                    owned.evict(now, idle);
                    shared.evict(now, idle);
                }
            }
        }
    }

    /// A lockstep call costs what its keys cost — a one-key run takes
    /// the scalar descent, longer runs the 8-, 32- or 64-lane walk — and
    /// none of that may show: calls of every length 1..=70 over mixed
    /// families, with expired and stale entries and covering subnets in
    /// the table, return what per-key `lookup_shared` returns and leave
    /// the same `last_used` on every entry. Entries and probes decode
    /// from raw words, so a failing case shrinks by halving the table.
    #[test]
    fn batch_shared_of_every_length_agrees_with_scalar(
        entries in proptest::collection::vec(0u32..u32::MAX, 1..64),
        probes in proptest::collection::vec(0u32..u32::MAX, 140..=140),
        // How often a probe leaves the IPv4 family (0: never, so a call
        // of length n is one run of n; 3: every family equally likely,
        // so most runs are one or two keys).
        mix in 0u32..4,
        compact in 0u8..2,
    ) {
        let v4 = |i: u32| Ipv4Addr::new(10, 0, (i % 3) as u8, i as u8);
        let decode = |w: u32, other_families: u32| -> Eid {
            let i = (w >> 8) % 32;
            match w % 16 {
                f if f >= other_families => Eid::V4(v4(i)),
                f if f % 2 == 0 => Eid::Mac(sda_types::MacAddr::from_seed(i)),
                _ => Eid::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16)),
            }
        };
        let probe_at = SimTime::ZERO + SimDuration::from_secs(10);
        let mut cache = MapCache::new();
        for w in entries {
            let eid = decode(w, 8);
            let prefix = match eid {
                Eid::V4(a) if (w >> 16) % 4 == 0 => {
                    let [a, b, c, _] = a.octets();
                    sda_types::Ipv4Prefix::new(Ipv4Addr::new(a, b, c, 0), 24).unwrap().into()
                }
                _ => EidPrefix::host(eid),
            };
            // A quarter of the entries are expired at probe time.
            let ttl = if (w >> 20) % 4 == 0 { 1 } else { 86_400 };
            let rloc = Rloc::for_router_index((w >> 24) as u16 % 4);
            cache.install(vn(), prefix, rloc, SimDuration::from_secs(ttl), SimTime::ZERO);
            if (w >> 28) % 4 == 0 {
                cache.mark_stale(vn(), eid, SimTime::ZERO);
            }
        }
        if compact == 1 {
            cache.compact();
        }
        let probes: Vec<Eid> = probes.iter().map(|w| decode(*w, [0, 1, 4, 11][mix as usize])).collect();

        let (batch, scalar) = (cache.clone(), cache);
        let mut out = Vec::new();
        // Longest call first and a fresh instant per call, so the stamps
        // left behind come from calls of every length.
        for n in (1..=70usize).rev() {
            let at = probe_at + SimDuration::from_nanos(71 - n as u64);
            let window = &probes[n * 13 % 70..][..n];
            batch.lookup_batch_shared(vn(), window, at, &mut out);
            let want: Vec<CacheOutcome> =
                window.iter().map(|e| scalar.lookup_shared(vn(), *e, at)).collect();
            prop_assert_eq!(&out, &want, "call of length {}", n);
        }
        // `last_used` is not readable from outside; what idles out at
        // each threshold is. Equal survivors at every threshold ⇔ equal
        // stamps.
        let end = probe_at + SimDuration::from_nanos(71);
        for idle_ns in 0..=71 {
            let idle = SimDuration::from_nanos(idle_ns);
            let (mut b, mut s) = (batch.clone(), scalar.clone());
            prop_assert_eq!(b.evict(end, idle), s.evict(end, idle), "idle {} ns", idle_ns);
            prop_assert_eq!(b.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
        }
    }

    /// A hit can never return an expired entry's RLOC.
    #[test]
    fn hits_are_never_expired(
        installs in proptest::collection::vec((0u8..8, 0u16..4, 1u32..100), 1..20),
        probe_at in 0u32..300,
        probe in 0u8..8,
    ) {
        let mut cache = MapCache::new();
        for (e, r, ttl) in &installs {
            cache.install(
                vn(),
                EidPrefix::host(eid(*e)),
                Rloc::for_router_index(*r),
                SimDuration::from_secs(u64::from(*ttl)),
                SimTime::ZERO,
            );
        }
        let now = SimTime::ZERO + SimDuration::from_secs(u64::from(probe_at));
        match cache.lookup(vn(), eid(probe), now) {
            CacheOutcome::Hit(_) | CacheOutcome::Stale(_) => {
                // The last install for this eid must still be live.
                let last = installs.iter().rev().find(|(e, _, _)| *e == probe);
                let (_, _, ttl) = last.expect("hit without install");
                prop_assert!(u64::from(probe_at) < u64::from(*ttl));
            }
            CacheOutcome::Miss => {}
        }
    }
}
