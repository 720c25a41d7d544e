//! The batched edge-switch forwarding engine.
//!
//! The engine is split along the grain multi-core forwarding needs:
//!
//! * [`SharedTables`] — the read-mostly half: the three tables of
//!   Fig. 4 (the exact-match local endpoint table ([`VrfTable`]), the
//!   on-demand overlay FIB ([`MapCache`]) and the compiled group ACL
//!   ([`CompiledAcl`]: dense group interning + bitset verdict rows,
//!   one shift+mask per check)). The per-packet pipeline touches them
//!   through `&self` only; mutation is the owner's business (`&mut`,
//!   or clone-and-swap behind the [`crate::EpochTables`] epoch
//!   when workers are live — the ACL's rows are `Arc`-shared, so a
//!   publish copies pointers, not rules).
//! * [`WorkerCtx`] — the per-worker half: verdict/meta/run scratch
//!   vectors, the punt queue and the forwarding counters. One per
//!   forwarding thread; nothing in it is shared, so N workers never
//!   contend. It caches nothing derived from the tables, so a table
//!   swap needs no invalidation.
//! * [`ingress_batch`] / [`egress_batch`] — the pipeline itself, a free
//!   function over `(&SwitchConfig, &SharedTables, &mut WorkerCtx)`.
//!   [`Switch`] composes one of each for the single-threaded
//!   deployment; [`crate::MtSwitch`] runs the same functions on N
//!   threads.
//!
//! The burst pipeline (unchanged since the engine landed):
//!
//! 1. **Parse & classify** every frame in the batch through `sda-wire`
//!    views (malformed input is a [`DropReason::Malformed`] verdict,
//!    never a panic).
//! 2. **Resolve** remote destinations through
//!    [`MapCache::lookup_batch_shared`]: consecutive packets of the
//!    same VN form a *run*, each EID of it one probe of the cache's
//!    exact-match host-route table (a live /32 or MAC entry is the
//!    longest match there can be). Only an EID without a live host
//!    route goes on to the VN's covering prefixes, longest first, and
//!    only if the cache holds a cover at all — so TTL-expired entries
//!    count as absent and a dead host route never shadows a live
//!    covering subnet. The lookup refreshes `last_used`/reads `stale`
//!    through the `CacheEntry` atomics — see that type's memory-ordering
//!    contract (everything Relaxed: per-entry heuristic metadata only;
//!    structural visibility rides the `Arc` publication). Expired
//!    entries are physically removed by the owner's periodic
//!    [`Switch::evict_expired`] sweep, not by forwarding.
//! 3. **Rewrite in place**: hits are VXLAN-GPO-encapsulated by writing
//!    the 36 underlay header bytes into the buffer's headroom
//!    ([`crate::encap::write_underlay`]); misses encapsulate toward the
//!    border default route (§3.2.2) and punt a Map-Request to the
//!    control plane; SMR'd (stale) entries forward *and* punt a
//!    refresh, exactly the Fig. 6 behavior.
//!
//! Nothing on the steady-state path allocates: buffers are reused, the
//! verdict/meta/punt vectors retain their capacity across batches, and
//! every table lookup is an allocation-free hash probe or scan of a
//! sorted `Vec` (proved by `tests/no_alloc.rs`).

use std::collections::BTreeMap;

use sda_lisp::{CacheOutcome, MapCache};
use sda_policy::{
    AclVnView, Action, CompiledAcl, ConnectivityMatrix, EnforcementPoint, RuleSubset,
};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, Ipv4Prefix, MacAddr, MemStats, PortId, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};

use crate::buffer::{PacketBuf, HEADROOM};
use crate::encap::{self, EncapParams, InnerProto, OuterChecksum, UNDERLAY_OVERHEAD};
use crate::vrf::{LocalEndpoint, VrfTable};

/// Static switch parameters.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// This switch's underlay locator (outer source of encapsulations).
    pub rloc: Rloc,
    /// The fabric's default-route target (the border, §3.2.2). Egress
    /// re-forwards for unknown destinations always fall back to it when
    /// set (the §5.2 reboot recovery); ingress-side misses additionally
    /// honour [`SwitchConfig::miss_default_route`]. `None` means this
    /// switch *is* the last resort (a border) — misses then try the
    /// external table and otherwise drop as [`DropReason::NoRoute`].
    pub border: Option<Rloc>,
    /// Forward ingress-side map-cache misses to `border` while the
    /// punted Map-Request resolves (§3.2.2's default route). `false` is
    /// the ablation that loses the first packets of a flow instead.
    pub miss_default_route: bool,
    /// Matrix default for group pairs without an explicit rule.
    pub default_action: Action,
    /// Where group policy is enforced (§5.3). With [`EnforcementPoint::
    /// Ingress`], remote destinations are checked before transit against
    /// the [`SharedTables`] destination-group hints and the `A` bit is
    /// stamped; egress then trusts the bit and never re-checks. Local
    /// (same-switch) delivery always enforces.
    pub enforcement: EnforcementPoint,
    /// Outer TTL on encapsulation — the fabric hop budget (§5.2).
    pub hop_budget: u8,
    /// Outer UDP checksum policy (RFC 6935-style, see
    /// [`OuterChecksum`]). One explicit knob for the engine *and* the
    /// simulator nodes built on it — the checksum divergence the
    /// differential oracle flushed out.
    pub outer_checksum: OuterChecksum,
}

impl SwitchConfig {
    /// SDA defaults: deny-by-default egress enforcement, hop budget 8,
    /// zero outer checksum, default route on miss (once `border` is
    /// set).
    pub fn new(rloc: Rloc) -> Self {
        SwitchConfig {
            rloc,
            border: None,
            miss_default_route: true,
            default_action: Action::Deny,
            enforcement: EnforcementPoint::Egress,
            hop_budget: 8,
            outer_checksum: OuterChecksum::Zero,
        }
    }
}

/// Why a packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// A header failed validation (truncated, bad checksum, bad flags).
    Malformed,
    /// Parsable but not a format this engine forwards (ARP, IPv6, …).
    Unsupported,
    /// The sender is not an onboarded endpoint of this switch (or its
    /// inner source address does not match its binding — spoofing).
    UnknownSource,
    /// Group ACL verdict was deny.
    Policy,
    /// Map-cache miss with no border default route configured.
    NoRoute,
    /// Underlay packet addressed to a different RLOC.
    NotOurs,
    /// Hop budget exhausted while re-forwarding (§5.2 loop protection).
    TtlExpired,
}

/// Per-packet outcome of a processing call. `Forward`/`Deliver` mean the
/// buffer now holds the rewritten packet, ready to transmit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Encapsulated underlay packet toward this fabric router.
    Forward {
        /// Next-hop RLOC (outer destination).
        to: Rloc,
    },
    /// Decapsulated Ethernet frame for the endpoint on this port.
    Deliver {
        /// Output port.
        port: PortId,
    },
    /// Handed off to an external network (Internet/DC) matched in the
    /// [`SharedTables`] external-prefix table — a border's exit path.
    DeliverExternal,
    /// Dropped; the buffer contents are unspecified.
    Drop(DropReason),
}

/// Work punted to the control plane by the data path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Punt {
    /// Send a Map-Request for `eid` in `vn`. `refresh` is true when a
    /// stale (SMR'd) entry is still forwarding and needs re-resolution
    /// (Fig. 6), false on a plain miss.
    MapRequest {
        /// VN scope.
        vn: VnId,
        /// Unresolved destination.
        eid: Eid,
        /// Stale-entry refresh (true) vs. cold miss (false).
        refresh: bool,
    },
    /// Send a data-triggered SMR to the ingress edge `to`: it delivered
    /// traffic for an endpoint that is no longer attached here (Fig. 6
    /// step 2).
    Smr {
        /// The stale ingress edge (outer source of the packet).
        to: Rloc,
        /// VN scope.
        vn: VnId,
        /// The moved endpoint.
        eid: Eid,
    },
}

/// Forwarding counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SwitchStats {
    /// Processing calls.
    pub batches: u64,
    /// Packets handed to the engine.
    pub rx: u64,
    /// Encapsulated toward a resolved RLOC.
    pub forwarded: u64,
    /// Encapsulated toward the border default route.
    pub forwarded_default: u64,
    /// Delivered to a local port.
    pub delivered: u64,
    /// Handed off to an external network (border exit).
    pub delivered_external: u64,
    /// Dropped (all reasons).
    pub dropped: u64,
    /// Punts raised toward the control plane.
    pub punted: u64,
}

impl SwitchStats {
    /// Adds another counter set into this one (the [`crate::MtSwitch`]
    /// aggregation across workers).
    pub(crate) fn merge(&mut self, other: &SwitchStats) {
        self.batches += other.batches;
        self.rx += other.rx;
        self.forwarded += other.forwarded;
        self.forwarded_default += other.forwarded_default;
        self.delivered += other.delivered;
        self.delivered_external += other.delivered_external;
        self.dropped += other.dropped;
        self.punted += other.punted;
    }
}

/// Per-packet scratch state between the classify and resolve phases.
#[derive(Clone, Copy)]
enum IngressMeta {
    /// Verdict already final.
    Done,
    /// Needs a map-cache resolution.
    Resolve {
        vn: VnId,
        src_group: GroupId,
        dst: Eid,
        ecmp_port: u16,
        /// The buffer holds a full Ethernet frame to encapsulate whole
        /// (an L2 flow, §3.5) rather than a bare IPv4 packet.
        l2: bool,
    },
}

/// The read-mostly half of the engine: the three tables of Fig. 4 — the
/// exact-match local endpoint table ([`VrfTable`]), the on-demand
/// overlay FIB ([`MapCache`]) and the compiled group ACL
/// ([`CompiledAcl`]).
///
/// Everything the per-packet pipeline touches goes through `&self`: VRF
/// and ACL lookups are plain shared reads, map-cache resolution rides
/// [`MapCache::lookup_batch_shared`] (entry metadata refreshes through
/// the `CacheEntry` atomics — see that type's memory-ordering contract),
/// and ACL enforcement goes through the counting
/// [`CompiledAcl::enforce`] / per-run [`AclVnView`] — the allow/drop
/// totals live in `Relaxed` shared atomics (the same per-entry-metadata
/// discipline), so enforcing on a published snapshot and reading the
/// counters from the working copy see one coherent Fig. 12 total.
/// Mutation — onboarding, Map-Replies, purges — takes
/// `&mut self` and belongs to the table owner: the single-threaded
/// [`Switch`] mutates in place, the multi-core [`crate::MtSwitch`]
/// mutates a working copy and publishes clones (clone-and-swap; `Clone`
/// exists for exactly that — and the ACL's `Arc`-shared rows make that
/// clone O(#VNs) pointer copies, not a rule-map deep copy).
#[derive(Default, Clone)]
pub struct SharedTables {
    vrf: VrfTable,
    cache: MapCache,
    acl: CompiledAcl,
    /// External prefixes (Internet/DC) reachable through this switch —
    /// populated on borders only; consulted after a map-cache miss when
    /// no default route applies.
    externals: Vec<Ipv4Prefix>,
    /// Destination-group hints for §5.3 ingress enforcement: `(vn, eid)
    /// → group` as distributed by the controller's oracle. Unused (and
    /// empty) under egress enforcement.
    dst_hints: BTreeMap<(VnId, Eid), GroupId>,
}

impl SharedTables {
    /// Empty tables (ACL compiled around the SDA deny default).
    pub fn new() -> Self {
        SharedTables::default()
    }

    /// Empty tables whose ACL folds `default` into its compiled rows.
    /// Seed this from [`SwitchConfig::default_action`] so steady-state
    /// verdicts stay on the one-load fast path (a mismatched per-call
    /// default stays correct, just slower).
    pub(crate) fn with_policy_default(default: Action) -> Self {
        SharedTables {
            acl: CompiledAcl::with_default(default),
            ..SharedTables::default()
        }
    }

    // --- owner (mutating) surface ----------------------------------

    /// Attaches a local endpoint (onboarding step 4).
    pub(crate) fn attach(&mut self, vn: VnId, ep: LocalEndpoint) {
        self.vrf.attach(vn, ep);
    }

    /// Detaches the endpoint with `mac`.
    pub(crate) fn detach(&mut self, mac: MacAddr) -> Option<(VnId, LocalEndpoint)> {
        self.vrf.detach(mac)
    }

    /// Installs a mapping from a positive Map-Reply.
    pub fn install_mapping(
        &mut self,
        vn: VnId,
        prefix: EidPrefix,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.cache.install(vn, prefix, rloc, ttl, now);
    }

    /// Applies a negative Map-Reply (deletes the covered entry).
    pub(crate) fn apply_negative(&mut self, vn: VnId, prefix: EidPrefix) -> bool {
        self.cache.apply_negative(vn, prefix)
    }

    /// Replaces the mapping for `eid` (Map-Notify / refreshed Map-Reply
    /// after SMR — Fig. 5 step 2: the moved endpoint's new location).
    pub(crate) fn update_mapping(
        &mut self,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.cache.update_rloc(vn, eid, rloc, ttl, now);
    }

    /// Adds an external route (e.g. `0.0.0.0/0` for the Internet) —
    /// border provisioning.
    pub(crate) fn add_external(&mut self, prefix: Ipv4Prefix) {
        self.externals.push(prefix);
    }

    /// Installs a §5.3 destination-group hint for ingress enforcement.
    pub(crate) fn install_dst_hint(&mut self, vn: VnId, eid: Eid, group: GroupId) {
        self.dst_hints.insert((vn, eid), group);
    }

    /// Drops every cached mapping through `rloc` (underlay down, §5.1).
    pub(crate) fn purge_rloc(&mut self, rloc: Rloc) -> usize {
        self.cache.purge_rloc(rloc)
    }

    /// Drops every cached mapping of `vn` (subscriber resync: the slice
    /// is rebuilt from a fresh snapshot). Returns how many were removed.
    pub(crate) fn purge_vn(&mut self, vn: VnId) -> usize {
        self.cache.purge_vn(vn)
    }

    /// Installs (merges) an SXP rule subset.
    pub(crate) fn install_rules(&mut self, subset: &RuleSubset) {
        self.acl.install(subset);
    }

    /// Replaces the whole rule table (policy-server rule refresh).
    pub(crate) fn replace_rules(&mut self, subset: &RuleSubset) {
        self.acl.replace(subset);
    }

    /// Installs the full connectivity matrix (no SXP subsetting).
    pub(crate) fn install_matrix(&mut self, matrix: &ConnectivityMatrix) {
        self.acl.install_matrix(matrix);
    }

    /// Owner maintenance: removes map-cache entries TTL-expired at
    /// `now` or idle longer than `idle_timeout` (see
    /// [`MapCache::evict`]). This is the structural half of expiry
    /// under the shared-read split — the packet path only *filters*
    /// expired entries; removal happens here, on the owner's periodic
    /// sweep. Returns how many entries were removed.
    pub(crate) fn evict_expired(&mut self, now: SimTime, idle_timeout: SimDuration) -> usize {
        self.cache.evict(now, idle_timeout)
    }

    // --- shared (read) surface -------------------------------------

    /// Handles a received SMR through the `CacheEntry` atomics: marks
    /// the live covering entry stale *without* mutating the table
    /// structure, so it works on a published snapshot too (an SMR does
    /// not force a clone-and-swap).
    pub(crate) fn receive_smr(&self, vn: VnId, eid: Eid, now: SimTime) -> Option<Rloc> {
        self.cache.mark_stale_shared(vn, eid, now)
    }

    /// Aggregated memory diagnostics for the forwarding tables: the
    /// map-cache's bytes (see [`MapCache::mem_stats`]) with the VRF hash
    /// table's reserved bytes added to `capacity_bytes`.
    pub fn mem_stats(&self) -> MemStats {
        let mut stats = self.cache.mem_stats();
        stats.capacity_bytes += self.vrf.reserved_bytes();
        stats
    }

    /// Current map-cache size (the Fig. 9 FIB metric).
    pub fn fib_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether an external route covers `eid` (IPv4 only — external
    /// networks are L3).
    pub fn external_match(&self, eid: Eid) -> bool {
        match eid {
            Eid::V4(a) => self.externals.iter().any(|p| p.contains(a)),
            _ => false,
        }
    }

    /// The §5.3 destination-group hint for `eid`, if installed.
    pub fn dst_hint(&self, vn: VnId, eid: Eid) -> Option<GroupId> {
        self.dst_hints.get(&(vn, eid)).copied()
    }

    /// The overlay FIB (read access for harnesses).
    pub fn map_cache(&self) -> &MapCache {
        &self.cache
    }

    /// The per-VN local endpoint tables.
    pub fn vrf(&self) -> &VrfTable {
        &self.vrf
    }

    /// The compiled group ACL. Its allow/drop counters are shared
    /// `Relaxed` atomics fed by the packet path; `Policy` drop verdicts
    /// are additionally counted in the per-worker [`SwitchStats`].
    pub fn acl(&self) -> &CompiledAcl {
        &self.acl
    }
}

/// The per-worker half of the engine: everything one forwarding thread
/// mutates per packet, so N workers sharing one [`SharedTables`]
/// snapshot never contend.
///
/// Holds the scratch vectors of the three-phase pipeline (capacities
/// retained across batches — the zero-allocation story), the punt
/// queue and the forwarding counters — and nothing derived from the
/// tables, so a table swap needs no invalidation.
pub struct WorkerCtx {
    /// The switch's own MAC (source of rewritten delivery frames).
    mac: MacAddr,
    stats: SwitchStats,
    punts: Vec<Punt>,
    verdicts: Vec<Verdict>,
    meta: Vec<IngressMeta>,
    run_eids: Vec<Eid>,
    run_idx: Vec<usize>,
    run_out: Vec<CacheOutcome>,
}

impl WorkerCtx {
    /// Fresh per-worker state for a switch with `cfg`.
    pub(crate) fn new(cfg: &SwitchConfig) -> Self {
        WorkerCtx {
            mac: MacAddr::from_seed(u32::from(cfg.rloc.addr())),
            stats: SwitchStats::default(),
            punts: Vec::new(),
            verdicts: Vec::new(),
            meta: Vec::new(),
            run_eids: Vec::new(),
            run_idx: Vec::new(),
            run_out: Vec::new(),
        }
    }

    /// Forwarding counters accumulated by this worker.
    pub(crate) fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Verdicts of the most recent processing call.
    pub(crate) fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Punts raised and not yet cleared/drained.
    #[cfg(test)]
    pub(crate) fn punts(&self) -> &[Punt] {
        &self.punts
    }

    /// Clears the punt queue (capacity is retained — drain once per
    /// batch and the queue never reallocates).
    pub(crate) fn clear_punts(&mut self) {
        self.punts.clear();
    }

    /// Takes the punt queue by swap, leaving an empty one behind.
    pub(crate) fn drain_punts(&mut self) -> Vec<Punt> {
        std::mem::take(&mut self.punts)
    }

    /// Drains the punt queue into `out` by swap: `out` is cleared and
    /// receives the queued punts; both vectors keep their capacities,
    /// so a caller cycling one scratch vector never reallocates.
    pub(crate) fn drain_punts_into(&mut self, out: &mut Vec<Punt>) {
        out.clear();
        std::mem::swap(&mut self.punts, out);
    }

    /// Queues a punt, collapsing consecutive duplicates: a burst of
    /// packets toward one unresolved destination raises one
    /// Map-Request, not one per packet.
    fn punt(&mut self, p: Punt) {
        if self.punts.last() == Some(&p) {
            return;
        }
        self.stats.punted += 1;
        self.punts.push(p);
    }

    /// Folds one verdict into the counters. `default_route` is true only
    /// when the packet actually missed and rode the border default — a
    /// cache *hit* whose RLOC happens to be the border still counts as
    /// `forwarded`.
    fn count(&mut self, v: Verdict, default_route: bool) {
        match v {
            Verdict::Forward { .. } if default_route => self.stats.forwarded_default += 1,
            Verdict::Forward { .. } => self.stats.forwarded += 1,
            Verdict::Deliver { .. } => self.stats.delivered += 1,
            Verdict::DeliverExternal => self.stats.delivered_external += 1,
            Verdict::Drop(_) => self.stats.dropped += 1,
        }
    }
}

/// Processes a burst of host-side Ethernet frames (the ingress
/// pipeline, Fig. 4 left) against shared tables with per-worker state.
/// On return, `ctx.verdicts()[i]` describes what became of `bufs[i]`;
/// `Forward` buffers hold the encapsulated underlay packet, `Deliver`
/// buffers the rewritten local frame.
///
/// Takes the tables by `&` — this is the multi-core hot path: any
/// number of workers may run it concurrently against one snapshot.
pub fn ingress_batch(
    cfg: &SwitchConfig,
    tables: &SharedTables,
    ctx: &mut WorkerCtx,
    bufs: &mut [PacketBuf],
    now: SimTime,
) {
    ctx.stats.batches += 1;
    ctx.stats.rx += bufs.len() as u64;
    ctx.verdicts.clear();
    ctx.meta.clear();

    // Phase 1: parse, classify, local delivery.
    for buf in bufs.iter_mut() {
        let (verdict, meta) = classify_ingress(cfg, tables, ctx, buf);
        if matches!(meta, IngressMeta::Done) {
            ctx.count(verdict, false);
        }
        ctx.verdicts.push(verdict);
        ctx.meta.push(meta);
    }

    // Phase 2 + 3: resolve remote destinations in same-VN runs, then
    // encapsulate in place.
    let mut i = 0;
    while i < ctx.meta.len() {
        let IngressMeta::Resolve { vn: run_vn, .. } = ctx.meta[i] else {
            i += 1;
            continue;
        };
        ctx.run_eids.clear();
        ctx.run_idx.clear();
        let mut j = i;
        while j < ctx.meta.len() {
            match ctx.meta[j] {
                IngressMeta::Done => j += 1,
                IngressMeta::Resolve { vn, dst, .. } if vn == run_vn => {
                    ctx.run_idx.push(j);
                    ctx.run_eids.push(dst);
                    j += 1;
                }
                IngressMeta::Resolve { .. } => break,
            }
        }
        tables
            .cache
            .lookup_batch_shared(run_vn, &ctx.run_eids, now, &mut ctx.run_out);
        // Enforcement is fused into the same per-run pass as the cache
        // resolve: the VN's bitset rows are probed once per run and
        // each packet's verdict is one shift+mask against them.
        let run_acl = tables.acl.vn_view(run_vn);
        for k in 0..ctx.run_idx.len() {
            let idx = ctx.run_idx[k];
            let IngressMeta::Resolve {
                vn,
                src_group,
                dst,
                ecmp_port,
                l2,
            } = ctx.meta[idx]
            else {
                unreachable!("run indices point at Resolve entries");
            };
            ctx.meta[idx] = IngressMeta::Done;
            // A mapping pointing back at this switch is stale sync (the
            // endpoint left but the table hasn't caught up): forwarding
            // to self would loop, so treat it as a miss.
            let outcome = match ctx.run_out[k] {
                CacheOutcome::Hit(r) | CacheOutcome::Stale(r) if r == cfg.rloc => {
                    CacheOutcome::Miss
                }
                o => o,
            };
            // §5.3 ingress enforcement: check before spending transit
            // bandwidth when the destination group is known here. Stale
            // entries defer to egress (the move may have changed the
            // binding) — exactly the simulator's historical rule, now
            // asserted by the differential oracle.
            let mut policy_applied = false;
            if matches!(cfg.enforcement, EnforcementPoint::Ingress)
                && !matches!(outcome, CacheOutcome::Stale(_))
            {
                if let Some(dst_group) = tables.dst_hint(vn, dst) {
                    if run_acl.enforce(src_group, dst_group, cfg.default_action) == Action::Deny {
                        let verdict = Verdict::Drop(DropReason::Policy);
                        ctx.count(verdict, false);
                        ctx.verdicts[idx] = verdict;
                        continue;
                    }
                    policy_applied = true;
                }
            }
            let default_route = matches!(outcome, CacheOutcome::Miss);
            let verdict = match outcome {
                CacheOutcome::Hit(rloc) => {
                    encap_in_place(
                        cfg,
                        &mut bufs[idx],
                        vn,
                        src_group,
                        rloc,
                        ecmp_port,
                        cfg.hop_budget,
                        policy_applied,
                        l2,
                    );
                    Verdict::Forward { to: rloc }
                }
                CacheOutcome::Stale(rloc) => {
                    // Forward on the stale entry (Fig. 6) and ask the
                    // control plane to re-resolve.
                    ctx.punt(Punt::MapRequest {
                        vn,
                        eid: dst,
                        refresh: true,
                    });
                    encap_in_place(
                        cfg,
                        &mut bufs[idx],
                        vn,
                        src_group,
                        rloc,
                        ecmp_port,
                        cfg.hop_budget,
                        policy_applied,
                        l2,
                    );
                    Verdict::Forward { to: rloc }
                }
                CacheOutcome::Miss => {
                    ctx.punt(Punt::MapRequest {
                        vn,
                        eid: dst,
                        refresh: false,
                    });
                    match cfg.border.filter(|_| cfg.miss_default_route) {
                        Some(border) => {
                            encap_in_place(
                                cfg,
                                &mut bufs[idx],
                                vn,
                                src_group,
                                border,
                                ecmp_port,
                                cfg.hop_budget,
                                policy_applied,
                                l2,
                            );
                            Verdict::Forward { to: border }
                        }
                        None if tables.external_match(dst) => Verdict::DeliverExternal,
                        None => Verdict::Drop(DropReason::NoRoute),
                    }
                }
            };
            ctx.count(verdict, default_route);
            ctx.verdicts[idx] = verdict;
        }
        i = j;
    }
}

/// Processes a burst of underlay packets arriving from the fabric (the
/// egress pipeline, Fig. 4 right): validate, enforce, decap in place
/// and deliver — or re-forward toward a moved endpoint's new location.
/// Shared-read like [`ingress_batch`].
pub fn egress_batch(
    cfg: &SwitchConfig,
    tables: &SharedTables,
    ctx: &mut WorkerCtx,
    bufs: &mut [PacketBuf],
    now: SimTime,
) {
    ctx.stats.batches += 1;
    ctx.stats.rx += bufs.len() as u64;
    ctx.verdicts.clear();
    // One-entry ACL memo: fabric bursts arrive in same-VN runs, so the
    // previous packet's per-VN bitset view usually answers the next one
    // without re-probing the VN table — the egress half of the fused
    // lookup+enforce pass.
    let mut acl_memo: Option<(VnId, AclVnView<'_>)> = None;
    for buf in bufs.iter_mut() {
        let (v, default_route) = egress_one(cfg, tables, ctx, buf, now, &mut acl_memo);
        ctx.count(v, default_route);
        ctx.verdicts.push(v);
    }
}

/// Phase-1 work for one ingress frame.
fn classify_ingress(
    cfg: &SwitchConfig,
    tables: &SharedTables,
    ctx: &mut WorkerCtx,
    buf: &mut PacketBuf,
) -> (Verdict, IngressMeta) {
    let done = |v: Verdict| (v, IngressMeta::Done);
    let Ok(frame) = ethernet::Frame::new_checked(buf.bytes()) else {
        return done(Verdict::Drop(DropReason::Malformed));
    };
    let src_mac = frame.src_addr();
    let Some((vn, src_ep)) = tables.vrf.classify(src_mac).map(|(v, e)| (v, *e)) else {
        return done(Verdict::Drop(DropReason::UnknownSource));
    };
    if frame.ethertype() != EtherType::Ipv4 {
        // Non-IP traffic is an L2 flow (§3.5): the destination MAC is
        // the EID and the whole frame is the overlay payload. Broadcast
        // destinations are not forwardable — the L2 gateway absorbs
        // broadcasts in the control plane (ARP conversion), so only
        // unicast MACs reach the fabric.
        let dst_mac = frame.dst_addr();
        if dst_mac == MacAddr::BROADCAST {
            return done(Verdict::Drop(DropReason::Unsupported));
        }
        let dst = Eid::Mac(dst_mac);
        if let Some(dst_ep) = tables.vrf.lookup(vn, dst).copied() {
            if tables
                .acl
                .enforce(vn, src_ep.group, dst_ep.group, cfg.default_action)
                == Action::Deny
            {
                return done(Verdict::Drop(DropReason::Policy));
            }
            // Same-switch L2 delivery: the frame already carries the
            // destination MAC; hand it to the owning port as-is.
            return done(Verdict::Deliver { port: dst_ep.port });
        }
        let ecmp_port = encap::ecmp_src_port(encap::flow_hash_mac(src_mac, dst_mac));
        return (
            // Placeholder; phase 2 overwrites it.
            Verdict::Drop(DropReason::NoRoute),
            IngressMeta::Resolve {
                vn,
                src_group: src_ep.group,
                dst,
                ecmp_port,
                l2: true,
            },
        );
    }
    let Ok(ip) = ipv4::Packet::new_checked(frame.payload()) else {
        return done(Verdict::Drop(DropReason::Malformed));
    };
    if ip.src_addr() != src_ep.ipv4 {
        // IP source guard: the inner source must match the onboarded
        // binding (anti-spoofing, §3.2.1's authenticated identity).
        return done(Verdict::Drop(DropReason::UnknownSource));
    }
    let dst = Eid::V4(ip.dst_addr());
    let ecmp_port = encap::ecmp_src_port(encap::flow_hash(
        u32::from(ip.src_addr()),
        u32::from(ip.dst_addr()),
    ));
    let inner_len = usize::from(ip.total_len());

    if let Some(dst_ep) = tables.vrf.lookup(vn, dst).copied() {
        // Same-edge delivery: the egress stages run locally, ACL
        // included (counting enforce — the shared atomics take the
        // allow/deny tally, the stats record the Policy drop verdict).
        if tables
            .acl
            .enforce(vn, src_ep.group, dst_ep.group, cfg.default_action)
            == Action::Deny
        {
            return done(Verdict::Drop(DropReason::Policy));
        }
        // Drop link padding so a locally delivered frame has the
        // same length a fabric-traversing copy would.
        buf.truncate(ethernet::HEADER_LEN + inner_len);
        let mut eth = ethernet::Frame::new_unchecked(buf.bytes_mut());
        eth.set_dst_addr(dst_ep.mac);
        eth.set_src_addr(ctx.mac);
        return done(Verdict::Deliver { port: dst_ep.port });
    }

    // Remote: strip the L2 header and any link padding now so the
    // resolve phase only has to prepend underlay headers.
    buf.shrink_front(ethernet::HEADER_LEN);
    buf.truncate(inner_len);
    (
        // Placeholder; phase 2 overwrites it.
        Verdict::Drop(DropReason::NoRoute),
        IngressMeta::Resolve {
            vn,
            src_group: src_ep.group,
            dst,
            ecmp_port,
            l2: false,
        },
    )
}

/// Prepends the underlay headers around the inner packet already in
/// `buf` (zero-copy encapsulation).
#[allow(clippy::too_many_arguments)]
fn encap_in_place(
    cfg: &SwitchConfig,
    buf: &mut PacketBuf,
    vn: VnId,
    group: GroupId,
    to: Rloc,
    ecmp_port: u16,
    ttl: u8,
    policy_applied: bool,
    l2: bool,
) {
    let grown = buf.grow_front(UNDERLAY_OVERHEAD);
    debug_assert!(grown, "load() guarantees {HEADROOM} bytes of headroom");
    let params = EncapParams {
        outer_src: cfg.rloc,
        outer_dst: to,
        vn,
        group,
        policy_applied,
        ttl,
        src_port: ecmp_port,
        udp_checksum: cfg.outer_checksum,
        inner_proto: if l2 {
            InnerProto::Ethernet
        } else {
            InnerProto::Ipv4
        },
    };
    encap::write_underlay(buf.bytes_mut(), &params).expect("headroom covers the underlay overhead");
}

/// Full egress treatment of one underlay packet. The second return is
/// true when the packet missed the cache and rode the border default
/// route (the caller's `forwarded_default` accounting).
fn egress_one<'t>(
    cfg: &SwitchConfig,
    tables: &'t SharedTables,
    ctx: &mut WorkerCtx,
    buf: &mut PacketBuf,
    now: SimTime,
    acl_memo: &mut Option<(VnId, AclVnView<'t>)>,
) -> (Verdict, bool) {
    let done = |v: Verdict| (v, false);
    let d = match encap::parse_underlay(buf.bytes()) {
        Ok(d) => d,
        Err(_) => return done(Verdict::Drop(DropReason::Malformed)),
    };
    if d.outer_dst != cfg.rloc {
        return done(Verdict::Drop(DropReason::NotOurs));
    }
    let Some(src_group) = d.group else {
        // The fabric always stamps the source group; its absence
        // means a foreign encapsulator.
        return done(Verdict::Drop(DropReason::Malformed));
    };
    // The inner payload names the destination EID: the IPv4 address for
    // L3 flows, the frame's destination MAC for L2 flows (§3.5).
    let (dst, l2, ecmp_port) = match d.inner_proto {
        InnerProto::Ipv4 => {
            let Ok(inner_ip) = ipv4::Packet::new_checked(d.inner) else {
                return done(Verdict::Drop(DropReason::Malformed));
            };
            let ecmp = encap::ecmp_src_port(encap::flow_hash(
                u32::from(inner_ip.src_addr()),
                u32::from(inner_ip.dst_addr()),
            ));
            (Eid::V4(inner_ip.dst_addr()), false, ecmp)
        }
        InnerProto::Ethernet => {
            let Ok(inner_eth) = ethernet::Frame::new_checked(d.inner) else {
                return done(Verdict::Drop(DropReason::Malformed));
            };
            let ecmp = encap::ecmp_src_port(encap::flow_hash_mac(
                inner_eth.src_addr(),
                inner_eth.dst_addr(),
            ));
            (Eid::Mac(inner_eth.dst_addr()), true, ecmp)
        }
    };
    let inner_offset = d.inner_offset;
    let inner_len = d.inner.len();
    let vn = d.vn;
    let policy_applied = d.policy_applied;
    let outer_src = d.outer_src;
    let outer_ttl = d.outer_ttl;

    if let Some(dst_ep) = tables.vrf.lookup(vn, dst).copied() {
        // Egress-point enforcement; under §5.3 ingress enforcement the
        // check happened (or was deliberately skipped) before transit.
        if matches!(cfg.enforcement, EnforcementPoint::Egress) && !policy_applied {
            let view = match acl_memo {
                Some((memo_vn, view)) if *memo_vn == vn => *view,
                _ => {
                    let view = tables.acl.vn_view(vn);
                    *acl_memo = Some((vn, view));
                    view
                }
            };
            if view.enforce(src_group, dst_ep.group, cfg.default_action) == Action::Deny {
                return done(Verdict::Drop(DropReason::Policy));
            }
        }
        // In-place decap: strip the underlay, then (for L3) dress the
        // inner packet in a delivery Ethernet header — an L2 inner
        // already is one.
        buf.shrink_front(inner_offset);
        buf.truncate(inner_len);
        if !l2 {
            buf.grow_front(ethernet::HEADER_LEN);
            let mut eth = ethernet::Frame::new_unchecked(buf.bytes_mut());
            eth.set_dst_addr(dst_ep.mac);
            eth.set_src_addr(ctx.mac);
            eth.set_ethertype(EtherType::Ipv4);
        }
        return done(Verdict::Deliver { port: dst_ep.port });
    }

    // Not attached here (mobility / stale routing): tell the ingress
    // edge via SMR and, when our own cache knows the new location,
    // forward the in-flight packet there (Fig. 6).
    ctx.punt(Punt::Smr {
        to: outer_src,
        vn,
        eid: dst,
    });
    // A mapping pointing at this very switch contradicts the VRF miss
    // (the endpoint left, the table lags): self-forwarding would loop,
    // so treat it as a miss and fall back like a rebooted edge (§5.2).
    let outcome = match tables.cache.lookup_shared(vn, dst, now) {
        CacheOutcome::Hit(r) | CacheOutcome::Stale(r) if r == cfg.rloc => CacheOutcome::Miss,
        o => o,
    };
    let (next_hop, default_route) = match outcome {
        CacheOutcome::Hit(rloc) | CacheOutcome::Stale(rloc) => (rloc, false),
        CacheOutcome::Miss => {
            ctx.punt(Punt::MapRequest {
                vn,
                eid: dst,
                refresh: false,
            });
            match cfg.border {
                // Unknown here entirely (e.g. freshly rebooted, §5.2):
                // fall back to the border default route.
                Some(border) => (border, true),
                None if tables.external_match(dst) => return done(Verdict::DeliverExternal),
                None => return done(Verdict::Drop(DropReason::NoRoute)),
            }
        }
    };
    // Real-router TTL semantics: decrement, and never emit a zero —
    // the hop budget damping transient loops (§5.2).
    let Some(ttl) = outer_ttl.checked_sub(1).filter(|t| *t > 0) else {
        return done(Verdict::Drop(DropReason::TtlExpired));
    };
    buf.shrink_front(inner_offset);
    buf.truncate(inner_len);
    // Keep the A bit: an already-enforced packet must not be
    // re-enforced (and double-counted) at the next edge.
    encap_in_place(
        cfg,
        buf,
        vn,
        src_group,
        next_hop,
        ecmp_port,
        ttl,
        policy_applied,
        l2,
    );
    (Verdict::Forward { to: next_hop }, default_route)
}

/// The batched zero-copy forwarding engine of one edge switch —
/// the single-threaded composition of [`SharedTables`] (which it owns
/// and mutates in place) and one [`WorkerCtx`]. The multi-core
/// deployment of the same pipeline is [`crate::MtSwitch`].
pub struct Switch {
    cfg: SwitchConfig,
    tables: SharedTables,
    ctx: WorkerCtx,
}

impl Switch {
    /// Builds an empty switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        Switch {
            tables: SharedTables::with_policy_default(cfg.default_action),
            ctx: WorkerCtx::new(&cfg),
            cfg,
        }
    }

    // --- control-plane surface -------------------------------------

    /// Attaches a local endpoint (onboarding step 4).
    pub fn attach(&mut self, vn: VnId, ep: LocalEndpoint) {
        self.tables.attach(vn, ep);
    }

    /// Detaches the endpoint with `mac`.
    pub fn detach(&mut self, mac: MacAddr) -> Option<(VnId, LocalEndpoint)> {
        self.tables.detach(mac)
    }

    /// Installs a mapping from a positive Map-Reply.
    pub fn install_mapping(
        &mut self,
        vn: VnId,
        prefix: EidPrefix,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.tables.install_mapping(vn, prefix, rloc, ttl, now);
    }

    /// Applies a negative Map-Reply (deletes the covered entry).
    pub fn apply_negative(&mut self, vn: VnId, prefix: EidPrefix) -> bool {
        self.tables.apply_negative(vn, prefix)
    }

    /// Replaces the mapping for `eid` (Map-Notify, Fig. 5 step 2).
    pub fn update_mapping(
        &mut self,
        vn: VnId,
        eid: Eid,
        rloc: Rloc,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.tables.update_mapping(vn, eid, rloc, ttl, now);
    }

    /// Adds an external route (border provisioning).
    pub fn add_external(&mut self, prefix: Ipv4Prefix) {
        self.tables.add_external(prefix);
    }

    /// Installs a §5.3 destination-group hint for ingress enforcement.
    pub fn install_dst_hint(&mut self, vn: VnId, eid: Eid, group: GroupId) {
        self.tables.install_dst_hint(vn, eid, group);
    }

    /// Replaces the whole rule table (policy-server rule refresh).
    pub fn replace_rules(&mut self, subset: &RuleSubset) {
        self.tables.replace_rules(subset);
    }

    /// Handles a received SMR: marks the live covering entry stale *in
    /// place* through the `CacheEntry` atomics; the next packet toward
    /// it forwards and punts a refresh.
    pub fn receive_smr(&mut self, vn: VnId, eid: Eid, now: SimTime) -> Option<Rloc> {
        self.tables.receive_smr(vn, eid, now)
    }

    /// Drops every cached mapping through `rloc` (underlay down, §5.1).
    pub fn purge_rloc(&mut self, rloc: Rloc) -> usize {
        self.tables.purge_rloc(rloc)
    }

    /// Drops every cached mapping of `vn` (subscriber resync).
    pub fn purge_vn(&mut self, vn: VnId) -> usize {
        self.tables.purge_vn(vn)
    }

    /// Installs (merges) an SXP rule subset.
    pub fn install_rules(&mut self, subset: &RuleSubset) {
        self.tables.install_rules(subset);
    }

    /// Installs the full connectivity matrix (no SXP subsetting).
    pub fn install_matrix(&mut self, matrix: &ConnectivityMatrix) {
        self.tables.install_matrix(matrix);
    }

    /// Owner maintenance sweep: removes map-cache entries TTL-expired
    /// at `now` or idle longer than `idle_timeout`. The data path only
    /// *filters* expired entries (shared lookups never mutate the
    /// structure); call this periodically — the §4.2 slow decay — to
    /// actually reclaim them and keep [`Switch::fib_len`] honest.
    /// Returns how many entries were removed.
    pub fn evict_expired(&mut self, now: SimTime, idle_timeout: SimDuration) -> usize {
        self.tables.evict_expired(now, idle_timeout)
    }

    /// Does nothing: no table has a layout to settle. A shim kept only
    /// because the benchmark of record (`e2e`) calls it; ROADMAP item
    /// 1(b) removes it.
    pub fn compact_tables(&mut self) {}

    /// Aggregated memory diagnostics for the forwarding tables (see
    /// [`SharedTables::mem_stats`]).
    pub fn table_mem_stats(&self) -> MemStats {
        self.tables.mem_stats()
    }

    /// Static configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Forwarding counters.
    pub fn stats(&self) -> SwitchStats {
        self.ctx.stats()
    }

    /// Current map-cache size (the Fig. 9 FIB metric).
    pub fn fib_len(&self) -> usize {
        self.tables.fib_len()
    }

    /// The overlay FIB (read access for harnesses).
    pub fn map_cache(&self) -> &MapCache {
        self.tables.map_cache()
    }

    /// The compiled group ACL (its shared counters carry the
    /// allow/deny tally; `Policy` drops also count in
    /// [`Switch::stats`] under `dropped`).
    pub fn acl(&self) -> &CompiledAcl {
        self.tables.acl()
    }

    /// The forwarding tables (read access; e.g. to seed an
    /// [`crate::MtSwitch`] or publish a snapshot).
    pub fn tables(&self) -> &SharedTables {
        &self.tables
    }

    /// Punts raised since the last [`Switch::clear_punts`] /
    /// [`Switch::drain_punts`].
    #[cfg(test)]
    pub(crate) fn punts(&self) -> &[Punt] {
        self.ctx.punts()
    }

    /// Clears the punt queue (capacity is retained — drain once per
    /// batch and the queue never reallocates).
    pub fn clear_punts(&mut self) {
        self.ctx.clear_punts();
    }

    /// Takes the accumulated punts by swap, leaving an empty queue:
    /// the one-call replacement for the `punts()` + `clear_punts()`
    /// pair (no slice clone, no double borrow).
    pub fn drain_punts(&mut self) -> Vec<Punt> {
        self.ctx.drain_punts()
    }

    /// Like [`Switch::drain_punts`], but swaps into a caller-provided
    /// vector so a cycled scratch vector never reallocates.
    pub fn drain_punts_into(&mut self, out: &mut Vec<Punt>) {
        self.ctx.drain_punts_into(out);
    }

    // --- data path -------------------------------------------------

    /// Processes a burst of host-side Ethernet frames (the ingress
    /// pipeline, Fig. 4 left). On return, `verdicts()[i]` describes what
    /// became of `bufs[i]`; `Forward` buffers hold the encapsulated
    /// underlay packet, `Deliver` buffers the rewritten local frame.
    pub fn process_ingress(&mut self, bufs: &mut [PacketBuf], now: SimTime) -> &[Verdict] {
        ingress_batch(&self.cfg, &self.tables, &mut self.ctx, bufs, now);
        self.ctx.verdicts()
    }

    /// Processes a burst of underlay packets arriving from the fabric
    /// (the egress pipeline, Fig. 4 right): validate, enforce, decap in
    /// place and deliver — or re-forward toward a moved endpoint's new
    /// location.
    pub fn process_egress(&mut self, bufs: &mut [PacketBuf], now: SimTime) -> &[Verdict] {
        egress_batch(&self.cfg, &self.tables, &mut self.ctx, bufs, now);
        self.ctx.verdicts()
    }

    /// Verdicts of the most recent processing call.
    pub fn verdicts(&self) -> &[Verdict] {
        self.ctx.verdicts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_wire::udp;
    use std::net::Ipv4Addr;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn ep(seed: u32, group: u16) -> LocalEndpoint {
        LocalEndpoint {
            port: PortId(seed as u16),
            group: GroupId(group),
            mac: MacAddr::from_seed(seed),
            ipv4: Ipv4Addr::new(10, 0, (seed >> 8) as u8, seed as u8),
        }
    }

    /// A host-side Ethernet + IPv4 frame from `src` toward `dst_ip`.
    fn frame(src: &LocalEndpoint, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let inner = ipv4::Repr {
            src: src.ipv4,
            dst: dst_ip,
            protocol: ipv4::Protocol::Unknown(253),
            payload_len: payload.len(),
            ttl: 64,
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + inner.buffer_len()];
        ethernet::Repr {
            dst: MacAddr::BROADCAST,
            src: src.mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        {
            let mut ip = ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
            inner.emit(&mut ip);
            ip.payload_mut().copy_from_slice(payload);
        }
        buf
    }

    fn switch_with_border(idx: u16) -> Switch {
        let mut cfg = SwitchConfig::new(Rloc::for_router_index(idx));
        cfg.border = Some(Rloc::for_router_index(99));
        Switch::new(cfg)
    }

    const TTL: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn local_delivery_enforces_policy() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        let b = ep(2, 20);
        sw.attach(vn(1), a);
        sw.attach(vn(1), b);
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(10), GroupId(20), Action::Allow);
        sw.install_matrix(&m);

        let mut bufs = [PacketBuf::new(), PacketBuf::new()];
        bufs[0].load(&frame(&a, b.ipv4, b"allowed"));
        bufs[1].load(&frame(&b, a.ipv4, b"denied back"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Deliver { port: b.port });
        assert_eq!(v[1], Verdict::Drop(DropReason::Policy));
        // The delivered frame was re-addressed to the destination MAC.
        let eth = ethernet::Frame::new_checked(bufs[0].bytes()).unwrap();
        assert_eq!(eth.dst_addr(), b.mac);
        assert_eq!(sw.stats().delivered, 1);
        assert_eq!(sw.stats().dropped, 1);
    }

    #[test]
    fn remote_hit_encapsulates_in_place() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let remote_ip = Ipv4Addr::new(10, 9, 0, 5);
        let remote_rloc = Rloc::for_router_index(7);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(remote_ip)),
            remote_rloc,
            TTL,
            SimTime::ZERO,
        );

        let mut buf = PacketBuf::new();
        buf.load(&frame(&a, remote_ip, b"hello fabric"));
        let mut bufs = [buf];
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Forward { to: remote_rloc });
        assert!(sw.punts().is_empty());

        // The buffer now holds a fully valid underlay packet.
        let d = encap::parse_underlay(bufs[0].bytes()).unwrap();
        assert_eq!(d.outer_src, sw.config().rloc);
        assert_eq!(d.outer_dst, remote_rloc);
        assert_eq!(d.vn, vn(1));
        assert_eq!(d.group, Some(GroupId(10)));
        let inner = ipv4::Packet::new_checked(d.inner).unwrap();
        assert_eq!(inner.dst_addr(), remote_ip);
        assert_eq!(inner.payload(), b"hello fabric");
        // ECMP entropy landed in the VXLAN source-port range.
        let dgram = udp::Packet::new_checked(&bufs[0].bytes()[ipv4::HEADER_LEN..]).unwrap();
        assert!(dgram.src_port() >= 49152);
    }

    #[test]
    fn miss_rides_default_route_and_punts() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let unknown = Ipv4Addr::new(10, 9, 9, 9);
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, unknown, b"where are you"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: Rloc::for_router_index(99)
            }
        );
        assert_eq!(
            sw.punts(),
            &[Punt::MapRequest {
                vn: vn(1),
                eid: Eid::V4(unknown),
                refresh: false
            }]
        );
        assert_eq!(sw.stats().forwarded_default, 1);

        // Without a border, the miss drops (after punting).
        let mut lone = Switch::new(SwitchConfig::new(Rloc::for_router_index(2)));
        lone.attach(vn(1), a);
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, unknown, b"x"));
        let v = lone.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::NoRoute));
        assert_eq!(lone.punts().len(), 1);
    }

    #[test]
    fn smr_marks_stale_then_forwards_and_punts_refresh() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let remote_ip = Ipv4Addr::new(10, 9, 0, 5);
        let old_rloc = Rloc::for_router_index(7);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(remote_ip)),
            old_rloc,
            TTL,
            SimTime::ZERO,
        );
        assert_eq!(
            sw.receive_smr(vn(1), Eid::V4(remote_ip), SimTime::ZERO),
            Some(old_rloc)
        );

        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, remote_ip, b"mid-flight"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        // Stale entries keep forwarding to the old RLOC (Fig. 6)…
        assert_eq!(v[0], Verdict::Forward { to: old_rloc });
        // …while the control plane is asked to re-resolve.
        assert_eq!(
            sw.punts(),
            &[Punt::MapRequest {
                vn: vn(1),
                eid: Eid::V4(remote_ip),
                refresh: true
            }]
        );
    }

    #[test]
    fn ingress_garbage_and_spoofing_drop() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);

        let mut bufs = [
            PacketBuf::new(),
            PacketBuf::new(),
            PacketBuf::new(),
            PacketBuf::new(),
        ];
        bufs[0].load(b"short");
        // Unknown source MAC.
        bufs[1].load(&frame(&ep(66, 1), a.ipv4, b"who am i"));
        // Spoofed inner source: frame from a's MAC but the wrong IP.
        let mut spoof = a;
        spoof.ipv4 = Ipv4Addr::new(10, 3, 3, 3);
        bufs[2].load(&frame(&spoof, a.ipv4, b"spoof"));
        // Non-IPv4 ethertype.
        let mut arp = frame(&a, a.ipv4, b"");
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        bufs[3].load(&arp);

        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::Malformed));
        assert_eq!(v[1], Verdict::Drop(DropReason::UnknownSource));
        assert_eq!(v[2], Verdict::Drop(DropReason::UnknownSource));
        assert_eq!(v[3], Verdict::Drop(DropReason::Unsupported));
    }

    /// Full fabric round trip: ingress on switch A produces bytes that
    /// egress on switch B delivers to the right port with policy applied.
    #[test]
    fn ingress_to_egress_roundtrip() {
        let mut a_sw = switch_with_border(1);
        let mut b_sw = switch_with_border(2);
        let src = ep(1, 10);
        let dst = ep(2, 20);
        a_sw.attach(vn(1), src);
        b_sw.attach(vn(1), dst);
        a_sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(dst.ipv4)),
            b_sw.config().rloc,
            TTL,
            SimTime::ZERO,
        );
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(10), GroupId(20), Action::Allow);
        b_sw.install_matrix(&m);

        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&src, dst.ipv4, b"end to end"));
        let v = a_sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: b_sw.config().rloc
            }
        );

        // "Transmit" to B: load the encapsulated bytes into a fresh buf.
        let wire: Vec<u8> = bufs[0].bytes().to_vec();
        let mut rx = [PacketBuf::new()];
        rx[0].load(&wire);
        let v = b_sw.process_egress(&mut rx, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Deliver { port: dst.port });
        let eth = ethernet::Frame::new_checked(rx[0].bytes()).unwrap();
        assert_eq!(eth.dst_addr(), dst.mac);
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.src_addr(), src.ipv4);
        assert_eq!(ip.payload(), b"end to end");
    }

    #[test]
    fn egress_policy_and_ownership_checks() {
        let mut sw = switch_with_border(2);
        let dst = ep(2, 20);
        sw.attach(vn(1), dst);

        // Build a valid underlay packet toward this switch from group 66
        // (no rule → default deny).
        let inner = frame(&ep(1, 66), dst.ipv4, b"denied");
        let inner_ip = &inner[ethernet::HEADER_LEN..];
        let mut wire = vec![0u8; UNDERLAY_OVERHEAD + inner_ip.len()];
        wire[UNDERLAY_OVERHEAD..].copy_from_slice(inner_ip);
        encap::write_underlay(
            &mut wire,
            &EncapParams {
                outer_src: Rloc::for_router_index(1),
                outer_dst: sw.config().rloc,
                vn: vn(1),
                group: GroupId(66),
                policy_applied: false,
                ttl: 8,
                src_port: 50000,
                udp_checksum: OuterChecksum::Zero,
                inner_proto: InnerProto::Ipv4,
            },
        )
        .unwrap();

        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&wire);
        let v = sw.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::Policy));

        // Same packet with the policy-applied bit set sails through.
        let mut applied = wire.clone();
        encap::write_underlay(
            &mut applied,
            &EncapParams {
                outer_src: Rloc::for_router_index(1),
                outer_dst: sw.config().rloc,
                vn: vn(1),
                group: GroupId(66),
                policy_applied: true,
                ttl: 8,
                src_port: 50000,
                udp_checksum: OuterChecksum::Zero,
                inner_proto: InnerProto::Ipv4,
            },
        )
        .unwrap();
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&applied);
        let v = sw.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Deliver { port: dst.port });

        // A packet for another RLOC is not ours.
        let mut foreign = wire.clone();
        encap::write_underlay(
            &mut foreign,
            &EncapParams {
                outer_src: Rloc::for_router_index(1),
                outer_dst: Rloc::for_router_index(55),
                vn: vn(1),
                group: GroupId(66),
                policy_applied: false,
                ttl: 8,
                src_port: 50000,
                udp_checksum: OuterChecksum::Zero,
                inner_proto: InnerProto::Ipv4,
            },
        )
        .unwrap();
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&foreign);
        let v = sw.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::NotOurs));

        // Garbage never panics.
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&[0xFFu8; 60]);
        let v = sw.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::Malformed));
    }

    /// Mobility (Fig. 6): traffic arriving for a departed endpoint is
    /// re-forwarded to its new location (when cached) and an SMR is
    /// punted back to the ingress edge.
    #[test]
    fn egress_reforwards_after_move_and_punts_smr() {
        let mut old_edge = switch_with_border(2);
        let moved = ep(3, 20);
        // Not attached here (it left), but the old edge learned the new
        // location from the map-notify.
        let new_rloc = Rloc::for_router_index(5);
        old_edge.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(moved.ipv4)),
            new_rloc,
            TTL,
            SimTime::ZERO,
        );

        let inner = frame(&ep(1, 10), moved.ipv4, b"catch me");
        let inner_ip = &inner[ethernet::HEADER_LEN..];
        let ingress_edge = Rloc::for_router_index(1);
        let mut wire = vec![0u8; UNDERLAY_OVERHEAD + inner_ip.len()];
        wire[UNDERLAY_OVERHEAD..].copy_from_slice(inner_ip);
        encap::write_underlay(
            &mut wire,
            &EncapParams {
                outer_src: ingress_edge,
                outer_dst: old_edge.config().rloc,
                vn: vn(1),
                group: GroupId(10),
                policy_applied: false,
                ttl: 8,
                src_port: 50000,
                udp_checksum: OuterChecksum::Zero,
                inner_proto: InnerProto::Ipv4,
            },
        )
        .unwrap();

        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&wire);
        let v = old_edge.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Forward { to: new_rloc });
        // Hop budget decremented on the detour.
        let d = encap::parse_underlay(bufs[0].bytes()).unwrap();
        assert_eq!(d.outer_ttl, 7);
        assert_eq!(d.outer_src, old_edge.config().rloc);
        assert_eq!(
            old_edge.punts(),
            &[Punt::Smr {
                to: ingress_edge,
                vn: vn(1),
                eid: Eid::V4(moved.ipv4)
            }]
        );

        // Without a cached location the packet rides the border default
        // route (§5.2 reboot recovery) and a Map-Request joins the SMR.
        old_edge.clear_punts();
        old_edge.purge_rloc(new_rloc);
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&wire);
        let v = old_edge.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: Rloc::for_router_index(99)
            }
        );
        assert_eq!(old_edge.stats().forwarded_default, 1);
        assert_eq!(old_edge.punts().len(), 2);

        // A last-resort switch (no border — i.e. the border itself)
        // drops the same packet as unroutable instead.
        let mut lone = Switch::new(SwitchConfig::new(Rloc::for_router_index(2)));
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&wire);
        let v = lone.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::NoRoute));
    }

    /// The data path only filters expired entries; the owner sweep
    /// reclaims them (review regression for the shared-read split).
    #[test]
    fn evict_expired_reclaims_filtered_entries() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let dst = Ipv4Addr::new(10, 9, 0, 5);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(dst)),
            Rloc::for_router_index(7),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        let later = SimTime::ZERO + SimDuration::from_secs(60);
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, dst, b"late"));
        let v = sw.process_ingress(&mut bufs, later).to_vec();
        // Expired: rides the border default, but stays in the FIB…
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: Rloc::for_router_index(99)
            }
        );
        assert_eq!(sw.fib_len(), 1, "shared lookup filters, never removes");
        // …until the owner sweep reclaims it.
        assert_eq!(sw.evict_expired(later, SimDuration::from_days(1)), 1);
        assert_eq!(sw.fib_len(), 0);
    }

    /// Mixed-VN bursts resolve in same-VN runs without cross-talk.
    #[test]
    fn mixed_vn_batch_resolves_correctly() {
        let mut sw = switch_with_border(1);
        let a1 = ep(1, 10);
        let a2 = ep(2, 10);
        sw.attach(vn(1), a1);
        sw.attach(vn(2), a2);
        let r1 = Rloc::for_router_index(11);
        let r2 = Rloc::for_router_index(12);
        let dst_ip = Ipv4Addr::new(10, 9, 0, 1);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(dst_ip)),
            r1,
            TTL,
            SimTime::ZERO,
        );
        sw.install_mapping(
            vn(2),
            EidPrefix::host(Eid::V4(dst_ip)),
            r2,
            TTL,
            SimTime::ZERO,
        );

        let mut bufs: Vec<PacketBuf> = (0..4).map(|_| PacketBuf::new()).collect();
        bufs[0].load(&frame(&a1, dst_ip, b"vn1"));
        bufs[1].load(&frame(&a2, dst_ip, b"vn2"));
        bufs[2].load(&frame(&a1, dst_ip, b"vn1 again"));
        bufs[3].load(&frame(&a2, dst_ip, b"vn2 again"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Forward { to: r1 });
        assert_eq!(v[1], Verdict::Forward { to: r2 });
        assert_eq!(v[2], Verdict::Forward { to: r1 });
        assert_eq!(v[3], Verdict::Forward { to: r2 });
        assert_eq!(sw.stats().forwarded, 4);
    }

    /// A unicast non-IP frame toward a known MAC EID: local delivery,
    /// remote encapsulation with an Ethernet inner, and decapsulated
    /// delivery at the far switch (§3.5 L2 flows, end to end).
    #[test]
    fn l2_flow_encapsulates_and_delivers() {
        let mut a_sw = switch_with_border(1);
        let mut b_sw = switch_with_border(2);
        let src = ep(1, 10);
        let dst = ep(2, 20);
        a_sw.attach(vn(1), src);
        b_sw.attach(vn(1), dst);
        a_sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::Mac(dst.mac)),
            b_sw.config().rloc,
            TTL,
            SimTime::ZERO,
        );
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(10), GroupId(20), Action::Allow);
        b_sw.install_matrix(&m);

        // A unicast "ARP" frame: eth(dst.mac, src.mac, 0x0806) + payload.
        let mut l2 = vec![0u8; ethernet::HEADER_LEN + 28];
        ethernet::Repr {
            dst: dst.mac,
            src: src.mac,
            ethertype: EtherType::Arp,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut l2[..]));
        l2[ethernet::HEADER_LEN..].copy_from_slice(&[0xAA; 28]);

        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&l2);
        let v = a_sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: b_sw.config().rloc
            }
        );
        let d = encap::parse_underlay(bufs[0].bytes()).unwrap();
        assert_eq!(d.inner_proto, InnerProto::Ethernet);
        assert_eq!(d.inner, &l2[..]);

        // The far switch decapsulates and hands the original frame over.
        let wire = bufs[0].bytes().to_vec();
        let mut rx = [PacketBuf::new()];
        rx[0].load(&wire);
        let v = b_sw.process_egress(&mut rx, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Deliver { port: dst.port });
        assert_eq!(rx[0].bytes(), &l2[..]);

        // Broadcast destinations never enter the fabric.
        let mut bcast = l2.clone();
        bcast[..6].copy_from_slice(&MacAddr::BROADCAST.octets());
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&bcast);
        let v = a_sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::Unsupported));
    }

    /// A border-flavored switch (no default route) matches misses
    /// against its external table, ingress and egress.
    #[test]
    fn external_routes_absorb_misses_on_borders() {
        let mut cfg = SwitchConfig::new(Rloc::for_router_index(30));
        cfg.default_action = Action::Allow;
        let mut border = Switch::new(cfg);
        border.add_external(Ipv4Prefix::new(Ipv4Addr::new(93, 184, 0, 0), 16).unwrap());
        let sink = ep(9, 20);
        border.attach(vn(1), sink);

        // Ingress from the attached sink toward the Internet.
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&sink, Ipv4Addr::new(93, 184, 216, 34), b"out"));
        let v = border.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::DeliverExternal);
        // An unknown overlay address is unroutable instead.
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&sink, Ipv4Addr::new(10, 200, 0, 1), b"lost"));
        let v = border.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::Drop(DropReason::NoRoute));
        assert_eq!(border.stats().delivered_external, 1);

        // Egress: a fabric packet whose inner destination is external.
        let inner = frame(&ep(1, 10), Ipv4Addr::new(93, 184, 9, 9), b"exit");
        let inner_ip = &inner[ethernet::HEADER_LEN..];
        let mut wire = vec![0u8; UNDERLAY_OVERHEAD + inner_ip.len()];
        wire[UNDERLAY_OVERHEAD..].copy_from_slice(inner_ip);
        encap::write_underlay(
            &mut wire,
            &EncapParams {
                outer_src: Rloc::for_router_index(1),
                outer_dst: border.config().rloc,
                vn: vn(1),
                group: GroupId(10),
                policy_applied: false,
                ttl: 8,
                src_port: 50000,
                udp_checksum: OuterChecksum::Zero,
                inner_proto: InnerProto::Ipv4,
            },
        )
        .unwrap();
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&wire);
        let v = border.process_egress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(v[0], Verdict::DeliverExternal);
    }

    /// §5.3 ingress enforcement: a known destination group is checked
    /// before transit (stamping the A bit), an unknown one defers to
    /// egress, and a deny drops without punting a Map-Request.
    #[test]
    fn ingress_enforcement_checks_before_transit() {
        let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
        cfg.border = Some(Rloc::for_router_index(99));
        cfg.enforcement = EnforcementPoint::Ingress;
        let mut sw = Switch::new(cfg);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let allowed_ip = Ipv4Addr::new(10, 9, 0, 5);
        let denied_ip = Ipv4Addr::new(10, 9, 0, 6);
        let unhinted_ip = Ipv4Addr::new(10, 9, 0, 7);
        for ip in [allowed_ip, denied_ip, unhinted_ip] {
            sw.install_mapping(
                vn(1),
                EidPrefix::host(Eid::V4(ip)),
                Rloc::for_router_index(7),
                TTL,
                SimTime::ZERO,
            );
        }
        sw.install_dst_hint(vn(1), Eid::V4(allowed_ip), GroupId(20));
        sw.install_dst_hint(vn(1), Eid::V4(denied_ip), GroupId(30));
        let mut m = ConnectivityMatrix::new();
        m.set_rule(vn(1), GroupId(10), GroupId(20), Action::Allow);
        sw.install_matrix(&m);

        let mut bufs: Vec<PacketBuf> = (0..3).map(|_| PacketBuf::new()).collect();
        bufs[0].load(&frame(&a, allowed_ip, b"ok"));
        bufs[1].load(&frame(&a, denied_ip, b"no"));
        bufs[2].load(&frame(&a, unhinted_ip, b"later"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: Rloc::for_router_index(7)
            }
        );
        // The allowed packet carries the A bit.
        let d = encap::parse_underlay(bufs[0].bytes()).unwrap();
        assert!(d.policy_applied);
        assert_eq!(v[1], Verdict::Drop(DropReason::Policy));
        assert!(matches!(v[2], Verdict::Forward { .. }));
        // The unhinted packet went unenforced.
        let d = encap::parse_underlay(bufs[2].bytes()).unwrap();
        assert!(!d.policy_applied);
        // No Map-Requests: all three destinations were cache hits.
        assert!(sw.punts().is_empty());
    }

    /// A cached mapping pointing at this very switch (stale sync after
    /// a departure) must not self-forward — it falls back like a miss.
    #[test]
    fn self_mapping_treated_as_miss() {
        let mut sw = switch_with_border(1);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let ghost = Ipv4Addr::new(10, 9, 0, 8);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(ghost)),
            sw.config().rloc,
            TTL,
            SimTime::ZERO,
        );
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, ghost, b"ghost"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert_eq!(
            v[0],
            Verdict::Forward {
                to: Rloc::for_router_index(99)
            }
        );
        assert_eq!(sw.stats().forwarded_default, 1);
        assert_eq!(sw.punts().len(), 1, "miss punts a Map-Request");
    }

    /// Full outer checksums are honoured end to end when configured.
    #[test]
    fn full_outer_checksum_roundtrips() {
        let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
        cfg.border = Some(Rloc::for_router_index(99));
        cfg.outer_checksum = OuterChecksum::Full;
        let mut sw = Switch::new(cfg);
        let a = ep(1, 10);
        sw.attach(vn(1), a);
        let remote_ip = Ipv4Addr::new(10, 9, 0, 5);
        sw.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(remote_ip)),
            Rloc::for_router_index(7),
            TTL,
            SimTime::ZERO,
        );
        let mut bufs = [PacketBuf::new()];
        bufs[0].load(&frame(&a, remote_ip, b"checksummed"));
        let v = sw.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert!(matches!(v[0], Verdict::Forward { .. }));
        // The emitted packet verifies, and corruption is now caught.
        assert!(encap::parse_underlay(bufs[0].bytes()).is_ok());
        let mut bent = bufs[0].bytes().to_vec();
        let last = bent.len() - 1;
        bent[last] ^= 0xFF;
        assert_eq!(
            encap::parse_underlay(&bent).unwrap_err(),
            sda_wire::Error::BadChecksum
        );
    }
}
