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
//!
//! **What it is.** Two stores, split by what the key is; an entry lives
//! in exactly one of them:
//!
//! * *Host routes* (/32, /128 and MAC /48 — what Map-Replies and
//!   Map-Notifies for registered endpoints carry, §3.2.2, and all an
//!   edge of Fig. 9 / Table 5 ever holds) sit in one exact-match hash
//!   table keyed by `(vn, eid)`, folded into one word and hashed with
//!   [`sda_types::KeyHasher`]. A live hit there is by construction the
//!   longest match, so a lookup that finds one is done after one probe.
//! * *Covering prefixes* (anything shorter) sit in one `Vec` sorted by
//!   VN, then longest prefix first. A lookup reaches it only when the
//!   table has no *live* entry for the EID — a miss, or a TTL-dead host
//!   route, which therefore never shadows a live covering subnet — and
//!   then scans its VN's run for the first live cover holding the EID,
//!   which is the longest. No running path installs one (the routing
//!   server answers host routes only), so the scan meets an empty `Vec`.
//!
//! **What it is not.**
//!
//! * Not the routing server's registry ([`crate::MappingDb`], §4.1,
//!   Fig. 7): that one holds every registered EID and host routes
//!   only, in its own open-addressed table.
//! * Not ordered: [`MapCache::iter`] yields the table's entries in hash
//!   order (deterministic — the hasher has no per-process seed — but
//!   unspecified).
//! * Not hardened against crafted keys: the multiply hash has no secret.
//!   Keys are *inserted* only from routing-server replies for registered
//!   EIDs; packets merely probe.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sda_simnet::{SimDuration, SimTime};
use sda_types::{fold_eid, reserved_bytes, MemStats};
use sda_types::{Eid, EidKind, EidPrefix, KeyHasher, Rloc, VnId};

/// One cached mapping.
///
/// ## Memory-ordering contract
///
/// `last_used` and `stale` are interior-mutable atomics so the lookup
/// paths ([`MapCache::lookup_shared`], [`MapCache::lookup_batch_shared`],
/// [`MapCache::mark_stale_shared`]) can refresh them through `&self`
/// while other reader threads probe the same cache. All accesses use
/// `Ordering::Relaxed` on purpose:
///
/// * Both fields are *per-entry heuristic metadata*, never used to
///   synchronize access to other memory. `last_used` only feeds the
///   idle-decay comparison in [`MapCache::evict`]; `stale` only chooses
///   between the `Hit` and `Stale` outcomes. A reader observing a
///   slightly stale value forwards correctly either way.
/// * The *structure* of the cache (table, covers, `rloc`, `expires_at`)
///   is never mutated while shared. Concurrent readers hold `&MapCache`
///   (e.g. through an `Arc` snapshot under the data plane's
///   clone-and-swap scheme); every structural mutation — install,
///   removal, eviction — goes through `&mut MapCache` on the owner's
///   copy, and the `Arc` publication itself provides the
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
    pub(crate) fn new(rloc: Rloc, expires_at: SimTime, last_used: SimTime) -> Self {
        CacheEntry {
            rloc,
            expires_at,
            last_used: AtomicU64::new(last_used.as_nanos()),
            stale: AtomicBool::new(false),
        }
    }

    /// Last time a lookup hit this entry.
    pub(crate) fn last_used(&self) -> SimTime {
        SimTime::from_nanos(self.last_used.load(Ordering::Relaxed))
    }

    /// Refreshes the idle-decay stamp (shared: `&self`, Relaxed — see
    /// the type-level memory-ordering contract).
    pub(crate) fn touch(&self, now: SimTime) {
        self.last_used.store(now.as_nanos(), Ordering::Relaxed);
    }

    /// Whether an SMR marked this entry stale.
    pub(crate) fn is_stale(&self) -> bool {
        self.stale.load(Ordering::Relaxed)
    }

    /// Sets the stale flag (shared: `&self`, Relaxed).
    pub(crate) fn set_stale(&self, stale: bool) {
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

/// Key of the host-route table. `Eq` compares the whole `(vn, eid)`;
/// `Hash` hands [`KeyHasher`] one word — [`fold_eid`] with the VN in the
/// 24 bits the fold leaves free below the family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct HostKey {
    vn: VnId,
    eid: Eid,
}

impl Hash for HostKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fold_eid(&self.eid) ^ u64::from(self.vn.raw()));
    }
}

/// The per-VN overlay FIB of one edge router.
///
/// **Lookups take `&self`** — [`MapCache::lookup_shared`] (one EID),
/// [`MapCache::lookup_batch_shared`] (a burst) and
/// [`MapCache::mark_stale_shared`] (an SMR) — so a single-threaded edge
/// and a pool of forwarding workers ride the same probe: the host-route
/// table first, the VN's covering prefixes only when that finds nothing
/// live (see the module docs). A TTL-expired entry is treated as
/// absent — a dead host route never shadows a live covering subnet —
/// but it stays where it is: lookups never change the structure.
/// **Removal takes `&mut self`** and belongs to the owner alone: the
/// four doors of the module docs, expiry among them through
/// [`MapCache::evict`], the slow periodic decay of §4.2.
///
/// `Clone` supports the data plane's clone-and-swap publication: the
/// writer clones the cache, mutates the copy and swaps it in behind an
/// `Arc` while readers keep probing the old snapshot.
#[derive(Default, Clone)]
pub struct MapCache {
    /// Host routes, all VNs and families — stored here and nowhere else.
    hosts: HashMap<HostKey, CacheEntry, BuildHasherDefault<KeyHasher>>,
    /// Host routes per family (indexed by `EidKind as usize`), so
    /// [`MapCache::len_of`] — which Fig. 9 sampling calls — is no scan.
    host_kinds: [usize; 3],
    /// Non-host prefixes — stored here and nowhere else — sorted by VN,
    /// then longest prefix first: the first live cover of a VN's run
    /// holding an EID is its longest match.
    covers: Vec<(VnId, EidPrefix, CacheEntry)>,
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
        match prefix.as_host() {
            Some(eid) => self.update_rloc(vn, eid, rloc, ttl, now),
            None => {
                let entry = CacheEntry::new(rloc, now + ttl, now);
                match self.find_cover(vn, prefix) {
                    Ok(at) => self.covers[at].2 = entry,
                    Err(at) => self.covers.insert(at, (vn, prefix, entry)),
                }
            }
        }
    }

    /// Where `(vn, prefix)` sits among the covers (`Ok`) or would go.
    fn find_cover(&self, vn: VnId, prefix: EidPrefix) -> Result<usize, usize> {
        let key = |vn: VnId, p: EidPrefix| (vn, Reverse(p.len()), p);
        self.covers
            .binary_search_by_key(&key(vn, prefix), |(of, p, _)| key(*of, *p))
    }

    /// Replaces the mapping for `eid` (Map-Notify / refreshed Map-Reply
    /// after SMR): a host route, so one table insert.
    pub fn update_rloc(&mut self, vn: VnId, eid: Eid, rloc: Rloc, ttl: SimDuration, now: SimTime) {
        let entry = CacheEntry::new(rloc, now + ttl, now);
        let prev = self.hosts.insert(HostKey { vn, eid }, entry);
        self.host_kinds[eid.kind() as usize] += usize::from(prev.is_none());
    }

    /// Applies a negative Map-Reply: the covered entry is *deleted*.
    /// Returns true if something was removed.
    pub fn apply_negative(&mut self, vn: VnId, prefix: EidPrefix) -> bool {
        match prefix.as_host() {
            Some(eid) => {
                let removed = self.hosts.remove(&HostKey { vn, eid }).is_some();
                self.host_kinds[eid.kind() as usize] -= usize::from(removed);
                removed
            }
            None => self
                .find_cover(vn, prefix)
                .map(|at| self.covers.remove(at))
                .is_ok(),
        }
    }

    /// The body all three lookup-side entry points share: the deepest
    /// *live* entry covering `eid`. One table probe; a live host route
    /// is the longest match there can be. A miss or a TTL-dead hit falls
    /// through to the first live cover of the VN's run holding `eid` —
    /// no work at all when the cache holds no cover.
    #[inline]
    fn live(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<&CacheEntry> {
        match self.hosts.get(&HostKey { vn, eid }) {
            Some(entry) if now < entry.expires_at => Some(entry),
            _ if self.covers.is_empty() => None,
            _ => self.covers[self.covers.partition_point(|(of, _, _)| *of < vn)..]
                .iter()
                .take_while(|(of, _, _)| *of == vn)
                .find(|(_, p, e)| now < e.expires_at && p.contains(eid))
                .map(|(_, _, entry)| entry),
        }
    }

    /// Looks up `eid`: the deepest *live* entry covering it, with its
    /// `last_used` stamp refreshed through the entry's atomics (see
    /// [`CacheEntry`]'s memory-ordering contract). Zero heap
    /// allocations. Expired entries are treated as absent — a shallower
    /// live cover answers instead — and their structural removal is left
    /// to [`MapCache::evict`].
    pub fn lookup_shared(&self, vn: VnId, eid: Eid, now: SimTime) -> CacheOutcome {
        self.live(vn, eid, now)
            .map_or(CacheOutcome::Miss, |entry| entry.hit(now))
    }

    /// [`MapCache::lookup_shared`] for every EID of a burst — the data
    /// plane's entry point. Appends one [`CacheOutcome`] per EID to `out`
    /// (cleared first); zero heap allocations once `out` has warmed up.
    pub fn lookup_batch_shared(
        &self,
        vn: VnId,
        eids: &[Eid],
        now: SimTime,
        out: &mut Vec<CacheOutcome>,
    ) {
        out.clear();
        out.extend(eids.iter().map(|eid| self.lookup_shared(vn, *eid, now)));
    }

    /// SMR received: marks the deepest *live* entry covering `eid` stale
    /// through its atomic flag (`&self` — an SMR arriving on the control
    /// plane does not need to clone-and-swap the whole FIB). Returns the
    /// current RLOC if a live entry existed. TTL-expired entries are
    /// skipped exactly as a lookup skips them: an SMR must never "mark"
    /// a dead mapping while the covering prefix that actually forwards
    /// the traffic stays fresh.
    pub fn mark_stale_shared(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<Rloc> {
        let entry = self.live(vn, eid, now)?;
        entry.set_stale(true);
        Some(entry.rloc)
    }

    /// Does nothing: neither store has a layout to settle. A shim kept
    /// only because the benchmark of record (`e2e`) calls it; ROADMAP
    /// item 1(b) removes it.
    pub fn compact(&mut self) {}

    /// Memory diagnostics: the bytes the host-route table has reserved
    /// ([`sda_types::reserved_bytes`], a lower bound) plus the covers'
    /// capacity, in `capacity_bytes`.
    pub fn mem_stats(&self) -> MemStats {
        let cover = std::mem::size_of::<(VnId, EidPrefix, CacheEntry)>();
        MemStats {
            capacity_bytes: reserved_bytes(&self.hosts) + self.covers.capacity() * cover,
            ..MemStats::default()
        }
    }

    /// Keeps the entries `keep` accepts, in one pass over each store;
    /// returns how many went.
    fn retain(&mut self, mut keep: impl FnMut(VnId, &CacheEntry) -> bool) -> usize {
        let before = self.len();
        self.hosts.retain(|key, entry| {
            let kept = keep(key.vn, entry);
            self.host_kinds[key.eid.kind() as usize] -= usize::from(!kept);
            kept
        });
        self.covers.retain(|(vn, _, entry)| keep(*vn, entry));
        before - self.len()
    }

    /// Drops every entry pointing at `rloc` (underlay declared it down).
    /// Returns how many entries were removed.
    pub fn purge_rloc(&mut self, rloc: Rloc) -> usize {
        self.retain(|_, e| e.rloc != rloc)
    }

    /// Drops entries expired at `now` or idle longer than `idle_timeout`.
    /// Returns how many were evicted. This is the slow decay §4.2
    /// observes: "edge routers cache routes learned on demand and may
    /// retain them during longer periods".
    ///
    /// Reads `last_used` through the entry's atomic (Relaxed): an entry
    /// whose stamp was refreshed by a concurrent-epoch
    /// [`MapCache::lookup_shared`] before this owner call survives —
    /// the regression test in `tests/shared_lookup.rs` pins that down.
    pub fn evict(&mut self, now: SimTime, idle_timeout: SimDuration) -> usize {
        self.retain(|_, e| now < e.expires_at && now.saturating_since(e.last_used()) < idle_timeout)
    }

    /// Drops every entry of `vn` (subscriber resync: the whole slice is
    /// rebuilt from a fresh snapshot). Returns how many were removed.
    pub fn purge_vn(&mut self, vn: VnId) -> usize {
        self.retain(|of, _| of != vn)
    }

    /// Current entry count — the Fig. 9 "FIB entries" metric. O(1): the
    /// two stores' lengths.
    pub fn len(&self) -> usize {
        self.hosts.len() + self.covers.len()
    }

    /// Entries of one address family (the paper's Fig. 9 counts IPv4
    /// overlay-to-underlay mappings only).
    pub fn len_of(&self, kind: EidKind) -> usize {
        let covers = self.covers.iter().filter(|(_, p, _)| p.kind() == kind);
        self.host_kinds[kind as usize] + covers.count()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The RLOC of the host route for `eid` in `vn`, live or expired, one
    /// probe that touches no use stamp — what a pub/sub border reads to
    /// take a displaced row out of its slice digest.
    pub fn host_rloc(&self, vn: VnId, eid: Eid) -> Option<Rloc> {
        self.hosts.get(&HostKey { vn, eid }).map(|e| e.rloc)
    }

    /// Iterates every `(vn, prefix, rloc, expires_at)` entry — the
    /// convergence checker's view of the cache. **Order is
    /// unspecified**: host routes come in the table's hash order. Its
    /// consumer (`core::chaos::check_convergence`) probes the server per
    /// row and counts, which is the only use the order permits.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, EidPrefix, Rloc, SimTime)> + '_ {
        let hosts = self
            .hosts
            .iter()
            .map(|(key, e)| (key.vn, EidPrefix::host(key.eid), e.rloc, e.expires_at));
        let covers = self
            .covers
            .iter()
            .map(|(vn, prefix, e)| (*vn, *prefix, e.rloc, e.expires_at));
        hosts.chain(covers)
    }

    /// Clears everything (edge reboot, §5.2: "it will start with an
    /// empty FIB for the overlay entries").
    pub fn clear(&mut self) {
        *self = MapCache::default();
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
        assert_eq!(c.len(), 2, "lookups never remove");
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
    }

    /// A handover rewrites a host route in place: 256 of them move
    /// nothing.
    #[test]
    fn update_rloc_moves_nothing() {
        let mut c = MapCache::new();
        let (r1, r2) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        for n in 0..=255 {
            c.install(vn(1), EidPrefix::host(eid(n)), r1, TTL, SimTime::ZERO);
        }
        let layout = c.mem_stats();
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

    /// One structure per job: the /32 lives in the table, the /24 over
    /// it among the covers, and each leaves through its own door without
    /// disturbing the other.
    #[test]
    fn host_route_and_its_cover_are_stored_and_removed_independently() {
        use sda_types::Ipv4Prefix;
        let cover: EidPrefix = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 24)
            .unwrap()
            .into();
        let host = EidPrefix::host(eid(7));
        let (via_host, via_cover) = (Rloc::for_router_index(1), Rloc::for_router_index(2));
        let build = || {
            let mut c = MapCache::new();
            c.install(vn(1), host, via_host, TTL, SimTime::ZERO);
            c.install(vn(1), cover, via_cover, TTL, SimTime::ZERO);
            assert_eq!(c.len(), 2);
            assert_eq!(c.len_of(EidKind::V4), 2);
            assert_eq!((c.hosts.len(), c.covers.len()), (1, 1));
            assert_eq!(
                c.lookup_shared(vn(1), eid(7), SimTime::ZERO),
                CacheOutcome::Hit(via_host)
            );
            c
        };

        let mut c = build();
        assert!(c.apply_negative(vn(1), host));
        assert_eq!((c.hosts.len(), c.covers.len()), (0, 1));
        assert_eq!(
            c.lookup_shared(vn(1), eid(7), SimTime::ZERO),
            CacheOutcome::Hit(via_cover)
        );

        let mut c = build();
        assert!(c.apply_negative(vn(1), cover));
        assert_eq!((c.hosts.len(), c.covers.len()), (1, 0));
        assert_eq!(
            c.lookup_shared(vn(1), eid(7), SimTime::ZERO),
            CacheOutcome::Hit(via_host)
        );
        assert_eq!(
            c.lookup_shared(vn(1), eid(8), SimTime::ZERO),
            CacheOutcome::Miss
        );
        assert_eq!(c.len_of(EidKind::V4), 1);
    }

    /// The VN is part of the key's identity, not only of its hash.
    /// Overlapping address space is what VNs are for: one EID cached in
    /// 2,000 VNs answers per VN and misses in the 2,000 VNs between
    /// them. (At this population probes do meet other VNs' slots with
    /// an equal hash tag, so an `Eq` that forgot the VN answers wrong.)
    #[test]
    fn same_eid_in_many_vns_stays_apart() {
        let mut c = MapCache::new();
        let rloc = |n: u32| Rloc::for_router_index(n as u16);
        for n in 1..=2_000 {
            c.install(
                vn(2 * n),
                EidPrefix::host(eid(1)),
                rloc(n),
                TTL,
                SimTime::ZERO,
            );
        }
        assert_eq!(c.len(), 2_000);
        for n in 1..=2_000 {
            assert_eq!(
                c.lookup_shared(vn(2 * n), eid(1), SimTime::ZERO),
                CacheOutcome::Hit(rloc(n))
            );
            assert_eq!(
                c.lookup_shared(vn(2 * n + 1), eid(1), SimTime::ZERO),
                CacheOutcome::Miss
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
