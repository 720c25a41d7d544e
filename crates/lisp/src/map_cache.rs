//! The edge router's map-cache: the on-demand overlay FIB.
//!
//! This is the structure whose size Fig. 9 plots. Entries arrive from
//! Map-Replies and leave through four doors, each tied to a paper
//! behavior:
//!
//! 1. **TTL expiry** — replies carry a TTL; an expired entry stops
//!    answering at once and is removed by the next periodic
//!    [`MapCache::evict`] sweep.
//! 2. **Negative replies** — a resolution that fails *deletes* the entry
//!    (§4.2: nighttime traffic toward departed endpoints cleans edge
//!    caches in building B).
//! 3. **SMR invalidation** — a Solicit-Map-Request marks the entry stale;
//!    the edge re-resolves on next use (Fig. 6).
//! 4. **Underlay events** — when a peer RLOC becomes unreachable, every
//!    entry pointing at it is dropped and traffic falls back to the
//!    border default route (§5.1).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{Eid, EidPrefix, Rloc, VnId};

/// One cached mapping.
///
/// ## Memory-ordering contract
///
/// `last_used` and `stale` are interior-mutable atomics so the lookup
/// paths ([`MapCache::lookup_shared`], [`MapCache::lookup_batch_shared`],
/// [`MapCache::mark_stale_shared`]) can refresh them through `&self`
/// while other reader threads descend the same trie. All accesses use
/// `Ordering::Relaxed` on purpose:
///
/// * Both fields are *per-entry heuristic metadata*, never used to
///   synchronize access to other memory. `last_used` only feeds the
///   idle-decay comparison in [`MapCache::evict`]; `stale` only chooses
///   between the `Hit` and `Stale` outcomes. A reader observing a
///   slightly stale value forwards correctly either way.
/// * The *structure* of the cache (tries, `rloc`, `expires_at`) is
///   never mutated while shared. Concurrent readers hold `&MapCache`
///   (e.g. through an `Arc` snapshot under the data plane's
///   clone-and-swap scheme); every structural mutation — install,
///   removal, eviction, compaction — goes through `&mut MapCache` on
///   the owner's copy, and the `Arc` publication itself provides the
///   release/acquire edge that makes the new structure visible.
///
/// Races that remain are benign by design: two threads refreshing
/// `last_used` store two monotone timestamps and either winning is a
/// valid "recently used" answer.
#[derive(Debug)]
pub struct CacheEntry {
    /// Locator the prefix resolves to.
    pub rloc: Rloc,
    /// Absolute expiry instant.
    pub expires_at: SimTime,
    /// Last time a lookup hit this entry (idle-decay input), nanoseconds
    /// since the simulation epoch. Refreshable through `&self`.
    last_used: AtomicU64,
    /// Entry marked stale by an SMR; next lookup must re-resolve.
    /// Settable through `&self`.
    stale: AtomicBool,
}

impl CacheEntry {
    /// A fresh (non-stale) entry last used at `last_used`.
    pub fn new(rloc: Rloc, expires_at: SimTime, last_used: SimTime) -> Self {
        CacheEntry {
            rloc,
            expires_at,
            last_used: AtomicU64::new(last_used.as_nanos()),
            stale: AtomicBool::new(false),
        }
    }

    /// Last time a lookup hit this entry.
    pub fn last_used(&self) -> SimTime {
        SimTime::from_nanos(self.last_used.load(Ordering::Relaxed))
    }

    /// Refreshes the idle-decay stamp (shared: `&self`, Relaxed — see
    /// the type-level memory-ordering contract).
    pub fn touch(&self, now: SimTime) {
        self.last_used.store(now.as_nanos(), Ordering::Relaxed);
    }

    /// Whether an SMR marked this entry stale.
    pub fn is_stale(&self) -> bool {
        self.stale.load(Ordering::Relaxed)
    }

    /// Sets the stale flag (shared: `&self`, Relaxed).
    pub fn set_stale(&self, stale: bool) {
        self.stale.store(stale, Ordering::Relaxed);
    }

    /// What a lookup landing on this (live) entry at `now` reports; the
    /// idle-decay stamp is refreshed on the way.
    #[inline]
    fn hit(&self, now: SimTime) -> CacheOutcome {
        self.touch(now);
        if self.is_stale() {
            CacheOutcome::Stale(self.rloc)
        } else {
            CacheOutcome::Hit(self.rloc)
        }
    }
}

impl Clone for CacheEntry {
    fn clone(&self) -> Self {
        CacheEntry {
            rloc: self.rloc,
            expires_at: self.expires_at,
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
            stale: AtomicBool::new(self.is_stale()),
        }
    }
}

impl PartialEq for CacheEntry {
    fn eq(&self, other: &Self) -> bool {
        self.rloc == other.rloc
            && self.expires_at == other.expires_at
            && self.last_used() == other.last_used()
            && self.is_stale() == other.is_stale()
    }
}

impl Eq for CacheEntry {}

/// Result of a cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Fresh mapping: encapsulate toward this RLOC.
    Hit(Rloc),
    /// No entry (or expired): send a Map-Request, meanwhile use the
    /// default route to the border (§3.2.2).
    Miss,
    /// Entry exists but was SMR'd: usable for forwarding *now*, but a
    /// re-resolution must be triggered.
    Stale(Rloc),
}

/// The per-VN overlay FIB of one edge router.
///
/// **Lookups take `&self`** — [`MapCache::lookup_shared`] (one EID),
/// [`MapCache::lookup_batch_shared`] (a burst) and
/// [`MapCache::mark_stale_shared`] (an SMR) — so a single-threaded edge
/// and a pool of forwarding workers ride the same descent. A TTL-expired
/// entry is treated as absent — the filtered descent keeps looking at
/// shallower covers, so a dead host route never shadows a live covering
/// subnet — but it stays in the trie: lookups never change the
/// structure. **Removal takes `&mut self`** and belongs to the owner
/// alone: the four doors of the module docs, expiry among them through
/// [`MapCache::evict`], the slow periodic decay of §4.2.
///
/// `Clone` supports the data plane's clone-and-swap publication: the
/// writer clones the cache, mutates the copy and swaps it in behind an
/// `Arc` while readers keep descending the old snapshot.
#[derive(Default, Clone)]
pub struct MapCache {
    vns: BTreeMap<VnId, EidTrie<CacheEntry>>,
    /// Maintained entry count, so [`MapCache::len`] is O(1) instead of a
    /// sum over every per-VN trie. Invariant: always equals
    /// [`MapCache::recount`] (checked by the property tests).
    total: usize,
}

impl MapCache {
    /// Empty cache.
    pub fn new() -> Self {
        MapCache::default()
    }

    /// Installs a mapping from a positive Map-Reply.
    pub fn install(
        &mut self,
        vn: VnId,
        prefix: EidPrefix,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) {
        let prev = self
            .vns
            .entry(vn)
            .or_default()
            .insert(prefix, CacheEntry::new(rloc, now + ttl, now));
        if prev.is_none() {
            self.total += 1;
        }
    }

    /// Applies a negative Map-Reply: the covered entry is *deleted*.
    /// Returns true if something was removed.
    pub fn apply_negative(&mut self, vn: VnId, prefix: EidPrefix) -> bool {
        let removed = self
            .vns
            .get_mut(&vn)
            .map(|t| t.remove(&prefix).is_some())
            .unwrap_or(false);
        if removed {
            self.total -= 1;
        }
        removed
    }

    /// Looks up `eid`: the deepest *live* entry covering it, with its
    /// `last_used` stamp refreshed through the entry's atomics (see
    /// [`CacheEntry`]'s memory-ordering contract). One filtered trie
    /// descent, zero heap allocations. Expired entries are treated as
    /// absent — the descent keeps searching shallower covering prefixes
    /// — and their structural removal is left to [`MapCache::evict`].
    pub fn lookup_shared(&self, vn: VnId, eid: Eid, now: SimTime) -> CacheOutcome {
        let Some(trie) = self.vns.get(&vn) else {
            return CacheOutcome::Miss;
        };
        trie.lookup_where(&eid, |e| now < e.expires_at)
            .map_or(CacheOutcome::Miss, |(_, entry)| entry.hit(now))
    }

    /// Batched [`MapCache::lookup_shared`] — the data plane's entry
    /// point. Resolves `vn`'s trie once, then runs every EID of the
    /// burst through the interleaved lockstep trie walk
    /// ([`EidTrie::lookup_each_where`]) with the same
    /// expired-entries-are-absent filter, so the per-VN map access and
    /// the trie root stay hot for the whole run instead of being
    /// re-resolved per packet. Appends one [`CacheOutcome`] per EID to
    /// `out` (cleared first); zero heap allocations once `out` has
    /// warmed up.
    pub fn lookup_batch_shared(
        &self,
        vn: VnId,
        eids: &[Eid],
        now: SimTime,
        out: &mut Vec<CacheOutcome>,
    ) {
        out.clear();
        let Some(trie) = self.vns.get(&vn) else {
            out.extend(eids.iter().map(|_| CacheOutcome::Miss));
            return;
        };
        trie.lookup_each_where(
            eids,
            |e| now < e.expires_at,
            |_, res| out.push(res.map_or(CacheOutcome::Miss, |(_, entry)| entry.hit(now))),
        );
    }

    /// SMR received: marks the deepest *live* entry covering `eid` stale
    /// through its atomic flag (`&self` — an SMR arriving on the control
    /// plane does not need to clone-and-swap the whole FIB). Returns the
    /// current RLOC if a live entry existed. TTL-expired entries on the
    /// path are skipped exactly as a lookup skips them: an SMR must never
    /// "mark" a dead mapping while the covering prefix that actually
    /// forwards the traffic stays fresh.
    pub fn mark_stale_shared(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<Rloc> {
        let trie = self.vns.get(&vn)?;
        let (_, entry) = trie.lookup_where(&eid, |e| now < e.expires_at)?;
        entry.set_stale(true);
        Some(entry.rloc)
    }

    /// Adopts newer per-entry metadata from `snapshot` for every entry
    /// present in both caches **in the same generation** — matched by
    /// `(vn, prefix)` *and* identical `(rloc, expires_at)`: `last_used`
    /// takes the later stamp, `stale` is sticky-OR'd.
    ///
    /// This is the write-back half of clone-and-swap maintenance: under
    /// the multi-core scheme, readers refresh `last_used` on the
    /// *published* snapshot's atomics, so before publishing over (or
    /// idle-evicting against) a snapshot, the owner pulls those stamps
    /// back — otherwise entries that are hot on the data path look
    /// idle and get evicted. The generation check exists for the
    /// refresh race: an entry just re-installed on the owner's copy
    /// (new RLOC and/or expiry) must not re-adopt the *old*
    /// generation's stale flag, or an SMR refresh would silently undo
    /// itself and punt refreshes forever. O(snapshot entries).
    pub fn adopt_metadata(&mut self, snapshot: &MapCache) {
        for (vn, theirs) in snapshot.vns.iter() {
            let Some(mine) = self.vns.get(vn) else {
                continue;
            };
            for (prefix, entry) in theirs.iter() {
                if let Some(me) = mine.get(&prefix) {
                    if me.rloc != entry.rloc || me.expires_at != entry.expires_at {
                        // Different generation: the owner re-installed
                        // this mapping since the snapshot was taken.
                        continue;
                    }
                    if me.last_used() < entry.last_used() {
                        me.touch(entry.last_used());
                    }
                    if entry.is_stale() {
                        me.set_stale(true);
                    }
                }
            }
        }
    }

    /// Re-lays every per-VN trie arena in DFS preorder (see
    /// [`sda_trie::PatriciaTrie::compact`]). Call once a bulk
    /// population settles (the dataplane `Switch` exposes it as
    /// `compact_tables`); steady-state churn compacts opportunistically
    /// inside the tries themselves.
    pub fn compact(&mut self) {
        sda_trie::compact_each(self.vns.values_mut());
    }

    /// Aggregated trie-arena diagnostics across all VNs.
    pub fn mem_stats(&self) -> sda_trie::MemStats {
        sda_trie::merged_mem_stats(self.vns.values())
    }

    /// Replaces the mapping for `eid` (Map-Notify / refreshed Map-Reply
    /// after SMR).
    pub fn update_rloc(&mut self, vn: VnId, eid: Eid, rloc: Rloc, ttl: SimDuration, now: SimTime) {
        self.install(vn, EidPrefix::host(eid), rloc, ttl, now);
    }

    /// Drops every entry pointing at `rloc` (underlay declared it down).
    /// Returns how many entries were removed — a single traversal per VN
    /// via [`EidTrie::retain`], not a collect-then-remove-each loop.
    pub fn purge_rloc(&mut self, rloc: Rloc) -> usize {
        let mut removed = 0;
        for trie in self.vns.values_mut() {
            removed += trie.retain(|_, e| e.rloc != rloc);
        }
        self.total -= removed;
        removed
    }

    /// Drops entries expired at `now` or idle longer than `idle_timeout`.
    /// Returns how many were evicted, in a single traversal per VN. This
    /// is the slow decay §4.2 observes: "edge routers cache routes learned
    /// on demand and may retain them during longer periods".
    ///
    /// Reads `last_used` through the entry's atomic (Relaxed): an entry
    /// whose stamp was refreshed by a concurrent-epoch
    /// [`MapCache::lookup_shared`] before this owner call survives —
    /// the regression test in `tests/shared_lookup.rs` pins that down.
    pub fn evict(&mut self, now: SimTime, idle_timeout: SimDuration) -> usize {
        let mut removed = 0;
        for trie in self.vns.values_mut() {
            removed += trie.retain(|_, e| {
                now < e.expires_at && now.saturating_since(e.last_used()) < idle_timeout
            });
        }
        self.total -= removed;
        removed
    }

    /// Current entry count — the Fig. 9 "FIB entries" metric. O(1): the
    /// count is maintained across install/remove/evict, not recomputed.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Recomputes the entry count from the tries (O(entries)). Exists so
    /// tests can assert the maintained counter never drifts; production
    /// callers should use [`MapCache::len`].
    pub fn recount(&self) -> usize {
        self.vns.values().map(EidTrie::len).sum()
    }

    /// Entries of one address family (the paper's Fig. 9 counts IPv4
    /// overlay-to-underlay mappings only).
    pub fn len_of(&self, kind: sda_types::EidKind) -> usize {
        self.vns.values().map(|t| t.len_of(kind)).sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry of `vn` (subscriber resync: the whole slice is
    /// rebuilt from a fresh snapshot). Returns how many were removed.
    pub fn purge_vn(&mut self, vn: VnId) -> usize {
        let removed = self.vns.remove(&vn).map(|t| t.len()).unwrap_or(0);
        self.total -= removed;
        removed
    }

    /// Iterates every `(vn, prefix, rloc, expires_at)` entry — the
    /// convergence checker's view of the cache.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, Rloc, SimTime)> + '_ {
        self.vns.iter().flat_map(|(vn, trie)| {
            trie.iter()
                .map(move |(prefix, e)| (*vn, prefix, e.rloc, e.expires_at))
        })
    }

    /// Clears everything (edge reboot, §5.2: "it will start with an
    /// empty FIB for the overlay entries").
    pub fn clear(&mut self) {
        self.vns.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod batch_tests {
    use super::tests::{eid, subnet_under_expired_host, vn};
    use super::*;

    /// Regression: an expired host route must not shadow a live subnet
    /// for any EID of a batch, and the batch removes nothing.
    #[test]
    fn batch_expired_host_uncovers_live_subnet() {
        let (c, subnet_rloc) = subnet_under_expired_host();
        let now = SimTime::ZERO + SimDuration::from_secs(60); // host expired
        let mut batched = Vec::new();
        c.lookup_batch_shared(vn(1), &[eid(3), eid(3), eid(3)], now, &mut batched);
        assert_eq!(
            batched,
            [CacheOutcome::Hit(subnet_rloc); 3],
            "the live /16 must answer under the expired /32"
        );
        assert_eq!((c.len(), c.recount()), (2, 2), "lookups never remove");
    }

    #[test]
    fn batch_on_unknown_vn_is_all_misses() {
        let c = MapCache::new();
        let mut out = vec![CacheOutcome::Hit(Rloc::for_router_index(9))]; // stale junk
        c.lookup_batch_shared(vn(5), &[eid(1), eid(2)], SimTime::ZERO, &mut out);
        assert_eq!(out, vec![CacheOutcome::Miss, CacheOutcome::Miss]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    pub(super) fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    pub(super) fn eid(n: u8) -> Eid {
        Eid::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    const TTL: SimDuration = SimDuration::from_secs(3600);
    const IDLE: SimDuration = SimDuration::from_secs(7200);

    /// A live 10.0.0.0/16 (whose RLOC is returned) over a host route for
    /// `eid(3)` that expires after 10 s.
    pub(super) fn subnet_under_expired_host() -> (MapCache, Rloc) {
        use sda_types::Ipv4Prefix;
        let subnet_rloc = Rloc::for_router_index(5);
        let mut c = MapCache::new();
        c.install(
            vn(1),
            Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16)
                .unwrap()
                .into(),
            subnet_rloc,
            TTL,
            SimTime::ZERO,
        );
        c.install(
            vn(1),
            EidPrefix::host(eid(3)),
            Rloc::for_router_index(9),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        (c, subnet_rloc)
    }

    #[test]
    fn install_then_hit() {
        let mut c = MapCache::new();
        let r = Rloc::for_router_index(1);
        c.install(vn(1), EidPrefix::host(eid(1)), r, TTL, SimTime::ZERO);
        assert_eq!(
            c.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Hit(r)
        );
        assert_eq!(
            c.lookup_shared(vn(1), eid(2), SimTime::ZERO),
            CacheOutcome::Miss
        );
        assert_eq!(
            c.lookup_shared(vn(2), eid(1), SimTime::ZERO),
            CacheOutcome::Miss
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ttl_expiry_turns_hit_into_miss_and_removes() {
        let mut c = MapCache::new();
        c.install(
            vn(1),
            EidPrefix::host(eid(1)),
            Rloc::for_router_index(1),
            TTL,
            SimTime::ZERO,
        );
        let later = SimTime::ZERO + TTL + SimDuration::from_secs(1);
        assert_eq!(c.lookup_shared(vn(1), eid(1), later), CacheOutcome::Miss);
        assert_eq!(c.len(), 1, "lookups never remove");
        assert_eq!(c.evict(later, IDLE), 1, "the periodic sweep does");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn negative_reply_deletes() {
        let mut c = MapCache::new();
        c.install(
            vn(1),
            EidPrefix::host(eid(1)),
            Rloc::for_router_index(1),
            TTL,
            SimTime::ZERO,
        );
        assert!(c.apply_negative(vn(1), EidPrefix::host(eid(1))));
        assert!(!c.apply_negative(vn(1), EidPrefix::host(eid(1))));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn smr_marks_stale_but_still_forwards() {
        let mut c = MapCache::new();
        let old = Rloc::for_router_index(1);
        let new = Rloc::for_router_index(2);
        c.install(vn(1), EidPrefix::host(eid(1)), old, TTL, SimTime::ZERO);
        assert_eq!(c.mark_stale_shared(vn(1), eid(1), SimTime::ZERO), Some(old));
        // Stale entries keep forwarding to the old RLOC (which forwards
        // on per Fig. 6) until the re-resolution lands.
        assert_eq!(
            c.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Stale(old)
        );
        c.update_rloc(vn(1), eid(1), new, TTL, SimTime::ZERO);
        assert_eq!(
            c.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Hit(new)
        );
        // SMR for something not cached: no-op.
        assert_eq!(c.mark_stale_shared(vn(1), eid(9), SimTime::ZERO), None);
    }

    #[test]
    fn purge_rloc_clears_only_that_locator() {
        let mut c = MapCache::new();
        let r1 = Rloc::for_router_index(1);
        let r2 = Rloc::for_router_index(2);
        c.install(vn(1), EidPrefix::host(eid(1)), r1, TTL, SimTime::ZERO);
        c.install(vn(1), EidPrefix::host(eid(2)), r1, TTL, SimTime::ZERO);
        c.install(vn(1), EidPrefix::host(eid(3)), r2, TTL, SimTime::ZERO);
        assert_eq!(c.purge_rloc(r1), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.lookup_shared(vn(1), eid(3), SimTime::ZERO),
            CacheOutcome::Hit(r2)
        );
    }

    #[test]
    fn idle_eviction() {
        let mut c = MapCache::new();
        let r = Rloc::for_router_index(1);
        c.install(
            vn(1),
            EidPrefix::host(eid(1)),
            r,
            SimDuration::from_days(7),
            SimTime::ZERO,
        );
        c.install(
            vn(1),
            EidPrefix::host(eid(2)),
            r,
            SimDuration::from_days(7),
            SimTime::ZERO,
        );
        // Keep entry 1 warm.
        let mid = SimTime::ZERO + SimDuration::from_secs(5000);
        assert_eq!(c.lookup_shared(vn(1), eid(1), mid), CacheOutcome::Hit(r));
        // At IDLE past zero, entry 2 has idled out, entry 1 has not.
        let later = SimTime::ZERO + IDLE;
        assert_eq!(c.evict(later, IDLE), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup_shared(vn(1), eid(1), later), CacheOutcome::Hit(r));
    }

    #[test]
    fn shared_lookup_agrees_and_refreshes() {
        let mut c = MapCache::new();
        let r = Rloc::for_router_index(1);
        c.install(vn(1), EidPrefix::host(eid(1)), r, TTL, SimTime::ZERO);
        c.install(vn(1), EidPrefix::host(eid(2)), r, TTL, SimTime::ZERO);
        c.mark_stale_shared(vn(1), eid(2), SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::from_secs(60);
        assert_eq!(c.lookup_shared(vn(1), eid(1), now), CacheOutcome::Hit(r));
        assert_eq!(c.lookup_shared(vn(1), eid(2), now), CacheOutcome::Stale(r));
        // The shared hit refreshed last_used: the entry survives an
        // eviction pass that would have idled it out at ZERO.
        let idle = SimDuration::from_secs(50);
        assert_eq!(c.evict(now, idle), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shared_lookup_expired_host_uncovers_live_subnet_without_removal() {
        let (mut c, subnet_rloc) = subnet_under_expired_host();
        let now = SimTime::ZERO + SimDuration::from_secs(60); // host expired
        assert_eq!(
            c.lookup_shared(vn(1), eid(3), now),
            CacheOutcome::Hit(subnet_rloc),
            "expired host route must not shadow the live /16"
        );
        // No structural side effect: the expired entry is still there
        // (the owner's evict removes it).
        assert_eq!(c.len(), 2);
        assert_eq!(c.len(), c.recount());
        assert_eq!(c.evict(now, SimDuration::from_days(1)), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn batch_shared_agrees_with_single_shared() {
        let mut c = MapCache::new();
        c.install(
            vn(1),
            EidPrefix::host(eid(1)),
            Rloc::for_router_index(1),
            TTL,
            SimTime::ZERO,
        );
        c.install(
            vn(1),
            EidPrefix::host(eid(2)),
            Rloc::for_router_index(2),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        c.install(
            vn(1),
            EidPrefix::host(eid(3)),
            Rloc::for_router_index(3),
            TTL,
            SimTime::ZERO,
        );
        c.mark_stale_shared(vn(1), eid(3), SimTime::ZERO);
        let probes = [eid(1), eid(2), eid(2), eid(3), eid(9)];
        let now = SimTime::ZERO + SimDuration::from_secs(60); // eid(2) expired
        let singles: Vec<CacheOutcome> = probes
            .iter()
            .map(|e| c.lookup_shared(vn(1), *e, now))
            .collect();
        let mut batched = Vec::new();
        c.lookup_batch_shared(vn(1), &probes, now, &mut batched);
        assert_eq!(batched, singles);
    }

    #[test]
    fn mark_stale_shared_flags_through_shared_ref() {
        let mut c = MapCache::new();
        let r = Rloc::for_router_index(4);
        c.install(vn(1), EidPrefix::host(eid(1)), r, TTL, SimTime::ZERO);
        assert_eq!(c.mark_stale_shared(vn(1), eid(1), SimTime::ZERO), Some(r));
        assert_eq!(c.mark_stale_shared(vn(1), eid(9), SimTime::ZERO), None);
        assert_eq!(
            c.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Stale(r),
            "the next lookup observes the stale mark"
        );
    }

    /// Review regression: adopting metadata from an old snapshot must
    /// not re-stale (or re-stamp) an entry the owner re-installed
    /// since — generations are matched by `(rloc, expires_at)`.
    #[test]
    fn adopt_metadata_skips_refreshed_generation() {
        let old_rloc = Rloc::for_router_index(1);
        let new_rloc = Rloc::for_router_index(2);
        let mut owner = MapCache::new();
        owner.install(vn(1), EidPrefix::host(eid(1)), old_rloc, TTL, SimTime::ZERO);
        owner.install(vn(1), EidPrefix::host(eid(2)), old_rloc, TTL, SimTime::ZERO);
        let snap = owner.clone();
        // SMR lands on the snapshot (the worker-visible copy)…
        let warm = SimTime::ZERO + SimDuration::from_secs(100);
        snap.mark_stale_shared(vn(1), eid(1), warm);
        assert!(matches!(
            snap.lookup_shared(vn(1), eid(2), warm),
            CacheOutcome::Hit(_)
        ));
        // …and the control plane answers the refresh on the owner copy
        // (new RLOC = new generation).
        owner.install(vn(1), EidPrefix::host(eid(1)), new_rloc, TTL, warm);

        owner.adopt_metadata(&snap);
        assert_eq!(
            owner.lookup_shared(vn(1), eid(1), warm),
            CacheOutcome::Hit(new_rloc),
            "the refreshed generation must not re-adopt the old stale flag"
        );
        // Same-generation entry did adopt the worker's stamp.
        assert_eq!(
            owner.evict(
                warm + SimDuration::from_secs(99),
                SimDuration::from_secs(100)
            ),
            0
        );
    }

    #[test]
    fn clone_snapshots_entry_metadata() {
        let mut c = MapCache::new();
        let r = Rloc::for_router_index(1);
        c.install(vn(1), EidPrefix::host(eid(1)), r, TTL, SimTime::ZERO);
        let snap = c.clone();
        // Mutating the original does not affect the snapshot.
        c.mark_stale_shared(vn(1), eid(1), SimTime::ZERO);
        assert_eq!(
            snap.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Hit(r)
        );
        assert_eq!(
            c.lookup_shared(vn(1), eid(1), SimTime::ZERO),
            CacheOutcome::Stale(r)
        );
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.len(), snap.recount());
    }

    #[test]
    fn update_rloc_keeps_stride_tables() {
        let mut c = MapCache::new();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        for n in 0..=255 {
            c.install(vn(1), EidPrefix::host(eid(n)), r1, TTL, SimTime::ZERO);
        }
        c.compact();
        let layout = c.mem_stats();
        assert!(layout.stride_tables >= 1, "the dense /24 promotes");
        for n in 0..=255 {
            c.update_rloc(vn(1), eid(n), r2, TTL, SimTime::ZERO);
        }
        assert_eq!(c.mem_stats(), layout, "a handover moves nothing");
        assert_eq!(c.len(), 256);
        for n in 0..=255 {
            assert_eq!(
                c.lookup_shared(vn(1), eid(n), SimTime::ZERO),
                CacheOutcome::Hit(r2)
            );
        }
    }

    #[test]
    fn clear_models_reboot() {
        let mut c = MapCache::new();
        c.install(
            vn(1),
            EidPrefix::host(eid(1)),
            Rloc::for_router_index(1),
            TTL,
            SimTime::ZERO,
        );
        c.clear();
        assert!(c.is_empty());
    }
}
