//! Model-based property tests for the edge map-cache: the host-route
//! table and the covering-prefix list behind it must together agree
//! with a naive reference on every operation sequence, and its
//! TTL/idle/invalidations must never resurrect stale state.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use sda_lisp::{CacheOutcome, MapCache};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidKind, EidPrefix, Ipv4Prefix, MacAddr, MacPrefix, Rloc, VnId};

fn vn() -> VnId {
    VnId::new(1).unwrap()
}

/// Host `n`: 10.(n / 8).(n % 3).n, two /16s of three /24s each under
/// one /8.
fn eid(n: u8) -> Eid {
    Eid::V4(Ipv4Addr::new(10, n / 8, n % 3, n))
}

/// A cover over `host` (an [`eid`] or a `MacAddr::from_seed`
/// host): its /8, /16 or /24 by `level`, or the 02:00:00 OUI /24 that
/// holds every MAC host. The levels nest, so a probe can fall back
/// through more than one live cover; the MAC /24 has the length of the
/// IPv4 /24s and must never answer for them, nor they for it.
fn cover(host: Eid, level: u64) -> EidPrefix {
    match (host, level % 4) {
        (Eid::V4(a), level @ 0..=2) => Ipv4Prefix::new(a, [8, 16, 24][level as usize])
            .unwrap()
            .into(),
        _ => MacPrefix::new(MacAddr::from_seed(0), 24).unwrap().into(),
    }
}

/// Reference model entry.
#[derive(Clone, Copy)]
struct ModelEntry {
    rloc: Rloc,
    expires_at: SimTime,
    last_used: SimTime,
    stale: bool,
}

/// The reference: a flat list scanned for the deepest *live* cover.
/// Nothing here shares a line with the host table, the trie or the
/// covers-exist shortcut, and — like the cache — a lookup never removes.
#[derive(Default)]
struct Model(Vec<(VnId, EidPrefix, ModelEntry)>);

impl Model {
    /// Keeps what `keep` accepts; returns how many went.
    fn retain(&mut self, keep: impl Fn(VnId, EidPrefix, &ModelEntry) -> bool) -> usize {
        let before = self.0.len();
        self.0.retain(|(vn, p, e)| keep(*vn, *p, e));
        before - self.0.len()
    }

    fn live_cover(&mut self, vn: VnId, eid: Eid, now: SimTime) -> Option<&mut ModelEntry> {
        self.0
            .iter_mut()
            .filter(|(of, p, e)| *of == vn && p.contains(eid) && now < e.expires_at)
            .max_by_key(|(_, p, _)| p.len())
            .map(|(_, _, e)| e)
    }

    /// The first non-host prefix held, if any.
    fn a_cover(&self) -> Option<(VnId, EidPrefix, ModelEntry)> {
        self.0.iter().find(|(_, p, _)| !p.is_host()).copied()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every door of the cache against the scan, over IPv4 and MAC host
    /// routes in two VNs with nested /8 ⊃ /16 ⊃ /24 covers above the
    /// IPv4 ones and an OUI /24 above the MAC ones: an expired /32 never
    /// shadows a live cover, an expired /24 falls back to a live /16 or
    /// /8, a cover answers only in its VN and its family, the same EID
    /// in the other VN is another key, a negative reply removes only the
    /// equal prefix, a stale mark lands on the deepest live cover, a hit
    /// refreshes `last_used` (seen through what `evict` then keeps), and
    /// after every step the counters (`len`, `len_of`) and `iter()` say
    /// what the model holds. Op 14 takes every cover out through one of
    /// the four removing doors, so "no cover left, a table miss is a
    /// miss" switches on and off again within a case, and `clear` ends
    /// it empty. Operations decode from raw words, so a failure shrinks
    /// by halving.
    #[test]
    fn cache_matches_reference_model(words in proptest::collection::vec(any::<u64>(), 1..120)) {
        let mut cache = MapCache::new();
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        let far = SimDuration::from_days(365);

        for w in words {
            let e = (w >> 4) as u8 % 16;
            let rloc = Rloc::for_router_index((w >> 8) as u16 % 4);
            let host = if (w >> 10) % 4 == 3 {
                Eid::Mac(MacAddr::from_seed(u32::from(e)))
            } else {
                eid(e)
            };
            let level = w >> 26;
            let door = (w >> 12) % 4;
            let vn = VnId::new(1 + (w >> 14) as u32 % 2).unwrap();
            let secs = SimDuration::from_secs(1 + (w >> 16) % 600);
            match w % 16 {
                // install a host route (0..=2) or a cover (3, 4)
                op @ 0..=4 => {
                    let prefix = if op >= 3 { cover(host, level) } else { EidPrefix::host(host) };
                    cache.install(vn, prefix, rloc, secs, now);
                    model.retain(|of, p, _| (of, p) != (vn, prefix));
                    model.0.push((vn, prefix, ModelEntry {
                        rloc,
                        expires_at: now + secs,
                        last_used: now,
                        stale: false,
                    }));
                }
                5..=7 => {
                    let want = match model.live_cover(vn, host, now) {
                        Some(entry) => {
                            entry.last_used = now;
                            if entry.stale {
                                CacheOutcome::Stale(entry.rloc)
                            } else {
                                CacheOutcome::Hit(entry.rloc)
                            }
                        }
                        None => CacheOutcome::Miss,
                    };
                    prop_assert_eq!(cache.lookup_shared(vn, host, now), want);
                    let mut out = Vec::new();
                    cache.lookup_batch_shared(vn, &[host], now, &mut out);
                    prop_assert_eq!(out, [want]);
                }
                // negative reply for a host route, sometimes for a cover
                8 => {
                    let prefix = if door == 0 { cover(host, level) } else { EidPrefix::host(host) };
                    let gone = model.retain(|of, p, _| (of, p) != (vn, prefix));
                    prop_assert_eq!(cache.apply_negative(vn, prefix), gone == 1);
                }
                9 => {
                    let want = model.live_cover(vn, host, now).map(|entry| {
                        entry.stale = true;
                        entry.rloc
                    });
                    prop_assert_eq!(cache.mark_stale_shared(vn, host, now), want);
                }
                10 => {
                    let gone = model.retain(|_, _, entry| entry.rloc != rloc);
                    prop_assert_eq!(cache.purge_rloc(rloc), gone);
                }
                11 | 15 => now += secs,
                12 => {
                    let gone = model.retain(|_, _, entry| {
                        now < entry.expires_at
                            && now.saturating_since(entry.last_used) < secs
                    });
                    prop_assert_eq!(cache.evict(now, secs), gone);
                }
                13 => {
                    let gone = model.retain(|of, _, _| of != vn);
                    prop_assert_eq!(cache.purge_vn(vn), gone);
                }
                // the last cover leaves, through each removing door
                _ => while let Some((of, prefix, entry)) = model.a_cover() {
                    match door {
                        0 => {
                            model.retain(|v, p, _| (v, p) != (of, prefix));
                            prop_assert!(cache.apply_negative(of, prefix));
                        }
                        1 => {
                            now = now.max(entry.expires_at);
                            let gone = model.retain(|_, _, entry| now < entry.expires_at);
                            prop_assert_eq!(cache.evict(now, far), gone);
                        }
                        2 => {
                            let gone = model.retain(|_, _, e| e.rloc != entry.rloc);
                            prop_assert_eq!(cache.purge_rloc(entry.rloc), gone);
                        }
                        _ => {
                            let gone = model.retain(|v, _, _| v != of);
                            prop_assert_eq!(cache.purge_vn(of), gone);
                        }
                    }
                },
            }
            // The maintained counters must never drift from what is
            // stored, whatever the operation mix…
            prop_assert_eq!(cache.len(), model.0.len());
            for kind in [EidKind::V4, EidKind::V6, EidKind::Mac] {
                let want = model.0.iter().filter(|(_, p, _)| p.kind() == kind).count();
                prop_assert_eq!(cache.len_of(kind), want, "{:?}", kind);
            }
            // `host_rloc` is the model's host route, live or expired, and
            // never a cover's.
            let want = model
                .0
                .iter()
                .find(|(of, p, _)| (*of, *p) == (vn, EidPrefix::host(host)))
                .map(|(_, _, e)| e.rloc);
            prop_assert_eq!(cache.host_rloc(vn, host), want);
            // …and `iter()` yields exactly the model, in whatever order.
            let mut got: Vec<_> = cache.iter().collect();
            got.sort();
            let mut want: Vec<_> =
                model.0.iter().map(|(vn, p, e)| (*vn, *p, e.rloc, e.expires_at)).collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
        cache.clear();
        prop_assert!(cache.is_empty());
        prop_assert_eq!(cache.iter().count(), 0);
    }

    /// The batched entry point is the scalar one per key, whatever the
    /// call's shape: calls of every length 1..=70 over mixed families,
    /// with expired and stale entries and covering subnets in the cache,
    /// return what per-key `lookup_shared` returns and leave the same
    /// `last_used` on every entry. Entries and probes decode from raw
    /// words, so a failing case shrinks by halving the table.
    #[test]
    fn batch_shared_of_every_length_agrees_with_scalar(
        entries in proptest::collection::vec(0u32..u32::MAX, 1..64),
        probes in proptest::collection::vec(0u32..u32::MAX, 140..=140),
        // How often a probe leaves the IPv4 family (0: never, so a call
        // of length n is one run of n; 3: every family equally likely,
        // so most runs are one or two keys).
        mix in 0u32..4,
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
                    Ipv4Prefix::new(Ipv4Addr::new(a, b, c, 0), 24).unwrap().into()
                }
                _ => EidPrefix::host(eid),
            };
            // A quarter of the entries are expired at probe time.
            let ttl = if (w >> 20) % 4 == 0 { 1 } else { 86_400 };
            let rloc = Rloc::for_router_index((w >> 24) as u16 % 4);
            cache.install(vn(), prefix, rloc, SimDuration::from_secs(ttl), SimTime::ZERO);
            if (w >> 28) % 4 == 0 {
                cache.mark_stale_shared(vn(), eid, SimTime::ZERO);
            }
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

    /// A hit can never return an expired entry's RLOC, and what expired
    /// leaves through `evict`, not through the lookup.
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
        // The last install of each eid decides whether it is still live.
        let last_ttl = |e: u8| installs.iter().rev().find(|(x, _, _)| *x == e).map(|(_, _, ttl)| *ttl);
        match cache.lookup_shared(vn(), eid(probe), now) {
            CacheOutcome::Hit(_) | CacheOutcome::Stale(_) => {
                prop_assert!(probe_at < last_ttl(probe).expect("hit without install"));
            }
            CacheOutcome::Miss => {}
        }
        let expired = (0u8..8).filter(|e| last_ttl(*e).is_some_and(|ttl| ttl <= probe_at)).count();
        prop_assert_eq!(cache.evict(now, SimDuration::from_days(1)), expired);
    }
}
