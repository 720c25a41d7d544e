//! Multi-core deployment of the forwarding engine: RSS-sharded workers
//! over clone-and-swap shared tables.
//!
//! ## The epoch scheme ([`EpochTables`] / [`TableReader`])
//!
//! The engine's tables are read-mostly: per-packet work only *reads*
//! the VRF/FIB/ACL structure (entry metadata refreshes ride the
//! `CacheEntry` atomics). So the concurrency scheme is deliberately
//! coarse:
//!
//! * **Writers clone and swap.** The control plane mutates a private
//!   working copy, then publishes it wholesale: build an
//!   `Arc<SharedTables>`, store it in the slot, bump the epoch counter
//!   (Release). Publication cost is O(tables) — the documented
//!   trade-off for a completely contention-free read side; batch your
//!   control-plane changes and publish once (exactly like the benches
//!   and the population paths do).
//! * **Readers are wait-free on the hot path.** A [`TableReader`]
//!   caches its own `Arc` snapshot; per batch it performs one atomic
//!   epoch load (Acquire) and only touches the slot mutex when the
//!   epoch actually moved. A reader mid-descent keeps its old snapshot
//!   alive through the `Arc`, so a swap can never tear a lookup — every
//!   resolution comes entirely from the old or entirely from the new
//!   table (the `mt_swap` stress test hammers this with 1k swaps under
//!   concurrent readers).
//!
//! ## The worker fan-out ([`MtSwitch`])
//!
//! [`MtSwitch`] runs N persistent `std::thread` workers, each owning a
//! [`WorkerCtx`] (scratch, punt queue, stats — nothing
//! shared, nothing contended) and a [`TableReader`]. The front
//! distributes each burst RSS-style: packets hash on the **inner**
//! IPv4 `(src, dst)` pair (the same `flow_hash` the ECMP source port
//! uses), so all packets of one flow land on the same worker and
//! per-flow order is preserved end to end (each worker's job queue is
//! FIFO). Buffers travel by `mem::swap` into one pre-allocated shuttle
//! per worker per burst — pointer moves, not byte copies — which the
//! worker processes in [`BATCH_SIZE`] chunks (the engine's native batch
//! size, so phases and cache footprint match the single-threaded
//! switch); verdicts return in the caller's original packet order.
//! Punts aggregate in worker order (deterministic for a fixed worker
//! count); stats merge across workers on demand.
//!
//! Per-packet work allocates nothing (the per-worker path is the same
//! [`ingress_batch`] the single-threaded [`Switch`] runs, proved by
//! `tests/no_alloc.rs`); the transport costs two mpsc
//! messages and at most one cross-thread wakeup per worker per burst —
//! the messaging is deliberately this coarse because on shared cores
//! every wake of a parked thread invites a preemption, and a
//! message-per-32-packets design measurably degenerated into a
//! context-switch ping-pong.
//!
//! [`Switch`]: crate::Switch

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sda_simnet::{SimDuration, SimTime};
use sda_types::{EidPrefix, Rloc, VnId};
use sda_wire::{ethernet, ipv4, EtherType};

use crate::buffer::{PacketBuf, BATCH_SIZE};
use crate::encap;
use crate::switch::{
    ingress_batch, DropReason, Punt, SharedTables, SwitchConfig, SwitchStats, Verdict, WorkerCtx,
};
use crate::vrf::LocalEndpoint;

/// The publication side of the clone-and-swap scheme: an epoch counter
/// plus the current table snapshot.
pub struct EpochTables {
    /// The current snapshot. The mutex only guards the `Arc` slot (a
    /// pointer swap/clone), never the tables themselves — readers clone
    /// the `Arc` out and descend lock-free.
    slot: Mutex<Arc<SharedTables>>,
    /// Bumped (Release) after every swap; readers poll it (Acquire).
    epoch: AtomicU64,
}

impl EpochTables {
    /// A new publication slot holding `tables` as epoch 0.
    pub fn new(tables: SharedTables) -> Arc<Self> {
        Arc::new(EpochTables {
            slot: Mutex::new(Arc::new(tables)),
            epoch: AtomicU64::new(0),
        })
    }

    /// Publishes a new snapshot: clone-and-swap's swap half. Readers
    /// pick it up at their next epoch check; in-flight descents finish
    /// on their old snapshot.
    pub fn publish(&self, tables: SharedTables) {
        *self.slot.lock().expect("publisher poisoned") = Arc::new(tables);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current snapshot (one mutex-guarded `Arc` clone — the slow
    /// path readers take only when the epoch moved).
    pub(crate) fn snapshot(&self) -> Arc<SharedTables> {
        self.slot.lock().expect("publisher poisoned").clone()
    }

    /// Current epoch value.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A wait-free-on-the-hot-path reader handle.
    pub fn reader(self: &Arc<Self>) -> TableReader {
        TableReader {
            snap: self.snapshot(),
            seen: self.epoch(),
            shared: Arc::clone(self),
        }
    }
}

/// One reader's cached view of the published tables.
pub struct TableReader {
    shared: Arc<EpochTables>,
    snap: Arc<SharedTables>,
    seen: u64,
}

impl TableReader {
    /// The current tables: one Relaxed-cost atomic load when nothing
    /// changed (the overwhelmingly common case); a mutex-guarded `Arc`
    /// clone when a publish happened since the last call.
    pub fn current(&mut self) -> &SharedTables {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.seen {
            self.snap = self.shared.snapshot();
            self.seen = epoch;
        }
        &self.snap
    }
}

/// One unit of work shuttled to a worker: a worker's whole share of one
/// burst (buffers swapped in, never copied), the original burst
/// positions, and the result fields the worker fills on the way back.
/// One shuttle per worker per burst keeps the channel at two messages
/// per worker per burst regardless of burst size; the worker still
/// *processes* it in [`BATCH_SIZE`] chunks, so the engine's batch
/// semantics (and cache behavior) match the single-threaded switch.
struct Shuttle {
    /// Placeholder-backed transport slots; grows to the largest share
    /// this shuttle has carried and is recycled via the free list.
    bufs: Vec<PacketBuf>,
    /// Original positions in the caller's burst; `idx.len()` is the
    /// fill level.
    idx: Vec<u32>,
    verdicts: Vec<Verdict>,
    punts: Vec<Punt>,
    /// The worker's cumulative stats as of this batch.
    stats: SwitchStats,
    worker: usize,
}

impl Shuttle {
    fn new() -> Self {
        Shuttle {
            bufs: (0..BATCH_SIZE).map(|_| PacketBuf::new()).collect(),
            idx: Vec::with_capacity(BATCH_SIZE),
            verdicts: Vec::with_capacity(BATCH_SIZE),
            punts: Vec::new(),
            stats: SwitchStats::default(),
            worker: 0,
        }
    }
}

// Batch dominates the traffic on this channel; boxing the shuttle to
// shrink the rare Stop variant would add an allocation per
// message for nothing.
#[allow(clippy::large_enum_variant)]
enum Job {
    Batch { shuttle: Shuttle, now: SimTime },
    Stop,
}

fn worker_loop(
    cfg: SwitchConfig,
    mut reader: TableReader,
    jobs: Receiver<Job>,
    results: Sender<Shuttle>,
    worker: usize,
) {
    let mut ctx = WorkerCtx::new(&cfg);
    // Finished shuttles are held back until the job queue runs dry,
    // then flushed in one run. Sending each result eagerly would wake
    // the (usually parked) front once per shuttle; on a machine where
    // front and workers share cores, that wakeup preempts the worker
    // and degenerates into one context-switch ping-pong per 32
    // packets. Coalescing keeps it to ~two switches per burst.
    let mut done: Vec<Shuttle> = Vec::new();
    'outer: while let Ok(first) = jobs.recv() {
        let mut job = first;
        loop {
            match job {
                Job::Batch { mut shuttle, now } => {
                    let fill = shuttle.idx.len();
                    let tables = reader.current();
                    // One shuttle is a worker's whole share of a burst;
                    // process it in engine-sized batches so the
                    // pipeline's phases and cache footprint match the
                    // single-threaded switch exactly. Punts accumulate
                    // in the ctx across chunks and drain once at the
                    // end — draining per chunk would reset the
                    // consecutive-duplicate collapse every 32 packets
                    // and emit one redundant Map-Request per chunk
                    // during a miss storm.
                    shuttle.verdicts.clear();
                    for chunk in shuttle.bufs[..fill].chunks_mut(BATCH_SIZE) {
                        ingress_batch(&cfg, tables, &mut ctx, chunk, now);
                        shuttle.verdicts.extend_from_slice(ctx.verdicts());
                    }
                    ctx.drain_punts_into(&mut shuttle.punts);
                    shuttle.stats = ctx.stats();
                    shuttle.worker = worker;
                    done.push(shuttle);
                }
                Job::Stop => {
                    for s in done.drain(..) {
                        let _ = results.send(s);
                    }
                    break 'outer;
                }
            }
            match jobs.try_recv() {
                Ok(next) => job = next,
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    for s in done.drain(..) {
                        let _ = results.send(s);
                    }
                    break 'outer;
                }
            }
        }
        for s in done.drain(..) {
            if results.send(s).is_err() {
                break 'outer;
            }
        }
    }
}

/// The multi-core switch front: N RSS-sharded workers behind the
/// install half of [`crate::Switch`]'s control-plane surface.
///
/// Mutations apply to a private working copy and are **published
/// lazily**: the next [`MtSwitch::process_ingress`] (or an explicit
/// [`MtSwitch::publish`]) clones the working copy and swaps it in.
///
/// It is an ingress-only front with an install-only control plane:
/// endpoints attach, mappings and the matrix install, and nothing is
/// ever evicted, SMR'd or detached — the single-threaded [`Switch`] the
/// fabric runs owns all of that. So nothing reads the `last_used`/
/// `stale` stamps workers write onto a snapshot, and a publish carries
/// none of them forward.
///
/// [`Switch`]: crate::Switch
pub struct MtSwitch {
    /// The writer's working copy of the tables.
    tables: SharedTables,
    /// Unpublished working-copy changes exist.
    dirty: bool,
    epoch: Arc<EpochTables>,
    job_txs: Vec<Sender<Job>>,
    result_rx: Receiver<Shuttle>,
    handles: Vec<JoinHandle<()>>,
    /// Latest cumulative stats snapshot per worker.
    worker_stats: Vec<SwitchStats>,
    /// Per-worker punt staging, concatenated in worker order after each
    /// burst so aggregation is deterministic for a fixed worker count.
    punt_stage: Vec<Vec<Punt>>,
    /// Per-worker shuttle under construction during staging (always
    /// all-`None` between bursts; a field so the hot path does not
    /// allocate a fresh vector per burst).
    staged: Vec<Option<Shuttle>>,
    punts: Vec<Punt>,
    verdicts: Vec<Verdict>,
    free: Vec<Shuttle>,
}

impl MtSwitch {
    /// Spawns `workers` forwarding threads (≥ 1) sharing empty tables.
    pub fn spawn(cfg: SwitchConfig, workers: usize) -> Self {
        assert!(workers >= 1, "MtSwitch needs at least one worker");
        let epoch = EpochTables::new(SharedTables::with_policy_default(cfg.default_action));
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = epoch.reader();
            let results = result_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sda-fwd-{w}"))
                    .spawn(move || worker_loop(cfg, reader, rx, results, w))
                    .expect("spawn forwarding worker"),
            );
            job_txs.push(tx);
        }
        MtSwitch {
            tables: SharedTables::with_policy_default(cfg.default_action),
            dirty: false,
            epoch,
            job_txs,
            result_rx,
            handles,
            worker_stats: vec![SwitchStats::default(); workers],
            punt_stage: (0..workers).map(|_| Vec::new()).collect(),
            staged: (0..workers).map(|_| None).collect(),
            punts: Vec::new(),
            verdicts: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.job_txs.len()
    }

    // --- control-plane surface (working copy + lazy publish) --------

    /// Attaches a local endpoint.
    pub fn attach(&mut self, vn: VnId, ep: LocalEndpoint) {
        self.tables.attach(vn, ep);
        self.dirty = true;
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
        self.dirty = true;
    }

    /// Installs the full connectivity matrix.
    pub fn install_matrix(&mut self, matrix: &sda_policy::ConnectivityMatrix) {
        self.tables.install_matrix(matrix);
        self.dirty = true;
    }

    /// Does nothing: no table has a layout to settle. A shim kept only
    /// because the benchmark of record (`e2e`) calls it; ROADMAP item
    /// 1(b) removes it.
    pub fn compact_tables(&mut self) {}

    /// Clone-and-swap: publishes the working copy so workers pick it up
    /// at their next batch. Called automatically by
    /// [`MtSwitch::process_ingress`] when control-plane changes are
    /// pending; call it eagerly after bulk population to keep the clone
    /// off the first traffic burst.
    pub fn publish(&mut self) {
        self.epoch.publish(self.tables.clone());
        self.dirty = false;
    }

    /// The writer's working copy (read access: FIB size, mem stats…).
    pub fn tables(&self) -> &SharedTables {
        &self.tables
    }

    /// Current map-cache size of the working copy.
    pub fn fib_len(&self) -> usize {
        self.tables.fib_len()
    }

    // --- aggregated results ----------------------------------------

    /// Merged forwarding counters across all workers (as of each
    /// worker's last returned batch).
    pub fn stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for s in &self.worker_stats {
            total.merge(s);
        }
        total
    }

    /// Punts aggregated since the last clear, in worker order per burst.
    pub fn punts(&self) -> &[Punt] {
        &self.punts
    }

    /// Clears the aggregated punt queue (capacity retained).
    pub fn clear_punts(&mut self) {
        self.punts.clear();
    }

    /// Verdicts of the most recent processing call, in burst order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    // --- data path --------------------------------------------------

    /// Processes a burst of host-side Ethernet frames across the
    /// workers. Packets are distributed by inner-flow hash (RSS), so
    /// per-flow order is preserved; `verdicts()[i]` corresponds to
    /// `bufs[i]` exactly as on [`crate::Switch`].
    pub fn process_ingress(&mut self, bufs: &mut [PacketBuf], now: SimTime) -> &[Verdict] {
        if self.dirty {
            self.publish();
        }
        let n = self.workers();
        self.verdicts.clear();
        self.verdicts
            .resize(bufs.len(), Verdict::Drop(DropReason::Malformed));

        // Stage the whole burst first: swap each buffer into its
        // worker's (single, growable) shuttle. Nothing is sent yet —
        // dispatching mid-staging would wake a parked worker per
        // message, and on shared cores each wake preempts the front
        // into a context-switch ping-pong. One shuttle per worker per
        // burst bounds the transport at two messages and one wake per
        // worker regardless of burst size; staging is a small fraction
        // of the per-burst work, so deferring dispatch trades a sliver
        // of pipeline overlap for that.
        let staged = &mut self.staged;
        let free = &mut self.free;
        debug_assert!(staged.iter().all(Option::is_none));
        for (i, buf) in bufs.iter_mut().enumerate() {
            let w = if n == 1 { 0 } else { rss_worker(buf, n) };
            let shuttle = staged[w].get_or_insert_with(|| free.pop().unwrap_or_else(Shuttle::new));
            let k = shuttle.idx.len();
            if shuttle.bufs.len() == k {
                // First burst this large: grow the transport slots
                // (recycled with the shuttle afterwards).
                shuttle.bufs.push(PacketBuf::new());
            }
            std::mem::swap(buf, &mut shuttle.bufs[k]);
            shuttle.idx.push(i as u32);
        }

        // Dispatch one job per participating worker, back to back.
        let mut outstanding = 0usize;
        for (w, slot) in staged.iter_mut().enumerate() {
            if let Some(shuttle) = slot.take() {
                self.job_txs[w]
                    .send(Job::Batch { shuttle, now })
                    .expect("worker alive");
                outstanding += 1;
            }
        }

        // Collect: swap buffers back into burst positions, scatter
        // verdicts, stage punts per worker.
        while outstanding > 0 {
            let mut shuttle = self.result_rx.recv().expect("worker alive");
            for (k, &i) in shuttle.idx.iter().enumerate() {
                std::mem::swap(&mut bufs[i as usize], &mut shuttle.bufs[k]);
                self.verdicts[i as usize] = shuttle.verdicts[k];
            }
            self.worker_stats[shuttle.worker] = shuttle.stats;
            self.punt_stage[shuttle.worker].extend_from_slice(&shuttle.punts);
            shuttle.idx.clear();
            shuttle.verdicts.clear();
            shuttle.punts.clear();
            self.free.push(shuttle);
            outstanding -= 1;
        }
        for w in 0..n {
            self.punts.append(&mut self.punt_stage[w]);
        }
        &self.verdicts
    }
}

impl Drop for MtSwitch {
    fn drop(&mut self) {
        for tx in &self.job_txs {
            let _ = tx.send(Job::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// RSS distribution: hash the **inner** IPv4 `(src, dst)` with the same
/// `flow_hash` the ECMP source port uses, so one flow always lands on
/// one worker (per-flow order). Frames the hash cannot reach
/// (malformed, non-IPv4) go to worker 0 — they drop in parse anyway.
fn rss_worker(buf: &PacketBuf, workers: usize) -> usize {
    let bytes = buf.bytes();
    // Ethernet frame: the inner IPv4 header follows the L2 header.
    let ip_off = match ethernet::Frame::new_checked(bytes) {
        Ok(f) if f.ethertype() == EtherType::Ipv4 => ethernet::HEADER_LEN,
        _ => return 0,
    };
    if bytes.len() < ip_off + ipv4::HEADER_LEN {
        return 0;
    }
    let src = u32::from_be_bytes(bytes[ip_off + 12..ip_off + 16].try_into().expect("4 bytes"));
    let dst = u32::from_be_bytes(bytes[ip_off + 16..ip_off + 20].try_into().expect("4 bytes"));
    (encap::flow_hash(src, dst) as usize) % workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Switch;
    use sda_policy::Action;
    use sda_types::{Eid, GroupId, MacAddr, PortId};
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

    const TTL: SimDuration = SimDuration::from_secs(3600);

    fn cfg() -> SwitchConfig {
        let mut cfg = SwitchConfig::new(Rloc::for_router_index(1));
        cfg.border = Some(Rloc::for_router_index(99));
        cfg.default_action = Action::Allow;
        cfg
    }

    /// Identical populations, identical bursts: the multi-core switch
    /// must produce exactly the single-threaded switch's verdicts, in
    /// the caller's packet order, for 1..=4 workers.
    #[test]
    fn verdicts_match_single_threaded_switch() {
        let routes = 64u32;
        let remote_ip = |i: u32| Ipv4Addr::from(0x0A09_0000 | i);
        let build_st = || {
            let mut sw = Switch::new(cfg());
            sw.attach(vn(1), ep(1, 10));
            sw.attach(vn(1), ep(2, 10));
            for i in 0..routes {
                sw.install_mapping(
                    vn(1),
                    EidPrefix::host(Eid::V4(remote_ip(i))),
                    Rloc::for_router_index((i % 7 + 2) as u16),
                    TTL,
                    SimTime::ZERO,
                );
            }
            sw
        };
        let frames: Vec<Vec<u8>> = (0..96u32)
            .map(|i| match i % 4 {
                // Remote hits with varied flows, a local delivery, and
                // a miss riding the default route.
                0 | 1 => frame(&ep(1, 10), remote_ip(i * 17 % routes), b"hit"),
                2 => frame(&ep(1, 10), ep(2, 10).ipv4, b"local"),
                _ => frame(&ep(1, 10), Ipv4Addr::new(10, 255, 0, i as u8), b"miss"),
            })
            .collect();

        let mut st = build_st();
        let mut bufs: Vec<PacketBuf> = frames
            .iter()
            .map(|f| {
                let mut b = PacketBuf::new();
                assert!(b.load(f));
                b
            })
            .collect();
        let want = st.process_ingress(&mut bufs, SimTime::ZERO).to_vec();

        for workers in 1..=4usize {
            let mut mt = MtSwitch::spawn(cfg(), workers);
            mt.attach(vn(1), ep(1, 10));
            mt.attach(vn(1), ep(2, 10));
            for i in 0..routes {
                mt.install_mapping(
                    vn(1),
                    EidPrefix::host(Eid::V4(remote_ip(i))),
                    Rloc::for_router_index((i % 7 + 2) as u16),
                    TTL,
                    SimTime::ZERO,
                );
            }
            mt.publish();
            let mut bufs: Vec<PacketBuf> = frames
                .iter()
                .map(|f| {
                    let mut b = PacketBuf::new();
                    assert!(b.load(f));
                    b
                })
                .collect();
            let got = mt.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
            assert_eq!(got, want, "worker count {workers}");
            let stats = mt.stats();
            assert_eq!(stats.rx, frames.len() as u64);
            assert_eq!(
                stats.forwarded + stats.forwarded_default + stats.delivered + stats.dropped,
                frames.len() as u64,
                "every packet accounted across workers"
            );
            // The rewritten bytes round-trip like the single-threaded
            // engine's (spot check one forwarded buffer).
            let fwd_idx = got
                .iter()
                .position(|v| matches!(v, Verdict::Forward { .. }))
                .unwrap();
            let d = encap::parse_underlay(bufs[fwd_idx].bytes()).unwrap();
            assert_eq!(d.outer_src, cfg().rloc);
        }
    }

    /// Same-flow packets keep their relative order: a flow's packets
    /// land on one worker (FIFO queue), so their verdict slots come
    /// back in submission order with the rewritten contents intact.
    #[test]
    fn per_flow_order_and_payloads_survive() {
        let mut mt = MtSwitch::spawn(cfg(), 3);
        mt.attach(vn(1), ep(1, 10));
        let dst = Ipv4Addr::new(10, 9, 0, 5);
        mt.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(dst)),
            Rloc::for_router_index(7),
            TTL,
            SimTime::ZERO,
        );
        mt.publish();
        let mut bufs: Vec<PacketBuf> = (0..40u8)
            .map(|i| {
                let mut b = PacketBuf::new();
                assert!(b.load(&frame(&ep(1, 10), dst, &[i; 8])));
                b
            })
            .collect();
        let verdicts = mt.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        for (i, (v, b)) in verdicts.iter().zip(&bufs).enumerate() {
            assert_eq!(
                *v,
                Verdict::Forward {
                    to: Rloc::for_router_index(7)
                }
            );
            let d = encap::parse_underlay(b.bytes()).unwrap();
            let inner = ipv4::Packet::new_checked(d.inner).unwrap();
            assert_eq!(
                inner.payload(),
                &[i as u8; 8],
                "buffer {i} came back in its original slot"
            );
        }
    }

    /// An attach reaches every worker with the republish: a source MAC
    /// the workers rejected forwards once the attach is published.
    #[test]
    fn attach_reaches_workers_with_the_republish() {
        let mut mt = MtSwitch::spawn(cfg(), 2);
        let a = ep(1, 10);
        let dst = Ipv4Addr::new(10, 9, 0, 5);
        mt.install_mapping(
            vn(1),
            EidPrefix::host(Eid::V4(dst)),
            Rloc::for_router_index(7),
            TTL,
            SimTime::ZERO,
        );
        let burst = |tag: &[u8]| -> Vec<PacketBuf> {
            (0..8)
                .map(|_| {
                    let mut b = PacketBuf::new();
                    assert!(b.load(&frame(&a, dst, tag)));
                    b
                })
                .collect()
        };
        let mut bufs = burst(b"early");
        let v = mt.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert!(
            v.iter()
                .all(|v| *v == Verdict::Drop(DropReason::UnknownSource)),
            "unattached MAC forwarded: {v:?}"
        );

        mt.attach(vn(1), a);
        mt.publish();

        let mut bufs = burst(b"late");
        let v = mt.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert!(
            v.iter().all(|v| *v
                == Verdict::Forward {
                    to: Rloc::for_router_index(7)
                }),
            "attach never reached the workers: {v:?}"
        );
    }

    /// Review regression: punt dedup must span a worker's whole share
    /// of a burst — a multi-chunk miss storm toward one destination
    /// raises one Map-Request, exactly like the single-threaded switch.
    #[test]
    fn punt_dedup_spans_chunks() {
        let mut mt = MtSwitch::spawn(cfg(), 1);
        let a = ep(1, 10);
        mt.attach(vn(1), a);
        mt.publish();
        let missing = Ipv4Addr::new(10, 99, 0, 1);
        // 96 packets = 3 engine chunks, all one flow, all misses.
        let mut bufs: Vec<PacketBuf> = (0..96)
            .map(|_| {
                let mut b = PacketBuf::new();
                assert!(b.load(&frame(&a, missing, b"storm")));
                b
            })
            .collect();
        let v = mt.process_ingress(&mut bufs, SimTime::ZERO).to_vec();
        assert!(v.iter().all(|v| matches!(v, Verdict::Forward { .. })));
        assert_eq!(
            mt.punts(),
            &[Punt::MapRequest {
                vn: vn(1),
                eid: Eid::V4(missing),
                refresh: false
            }],
            "one burst toward one unresolved destination = one Map-Request"
        );
    }
}
