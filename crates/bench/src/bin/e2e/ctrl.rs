//! The `ctrl_*` workloads: encoded LISP control messages into a
//! 4-shard `PartitionedMapServer` preloaded with the metro plan
//! (`sda_workloads::MetroWorkload`). Every message is submitted **as
//! bytes** — `Message::parse` → `handle` → `Message::emit` of every
//! reply — so the wire codec is on the measured path.
//!
//! * `ctrl_resolve` — one million endpoints (working set far beyond the
//!   last-level cache), 95 % Map-Requests and 5 % same-RLOC refresh
//!   registers, batches of [`RESOLVE_BATCH`]. The read path: trie
//!   descent and registry lookup dominate; pub/sub and admission idle.
//! * `ctrl_churn` — one hundred thousand endpoints (fits the cache),
//!   four borders subscribed to all 64 VNs, admission on with a budget
//!   that never sheds, every message a *move*. A batch is
//!   [`CHURN_BATCH`] registers plus the `flush_publishes` that fans
//!   their deltas out; every [`SWEEP_EVERY`] messages one
//!   `expire_sequential` sweep closes a round (`expire` runs the same
//!   per-shard sweep on one scoped thread per shard: four threads on the
//!   reference box's two vCPUs time the scheduler). The write path:
//!   registry move, Map-Notify, 4-way delta fan-out, sweep.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sda_ctrl::{AdmissionConfig, PartitionedMapServer};
use sda_simnet::{SimDuration, SimTime};
use sda_trie::EidTrie;
use sda_types::{EidPrefix, Rloc};
use sda_wire::lisp::Message;
use sda_workloads::{MetroParams, MetroWorkload};

use crate::harness::{
    mib, ns_per_item, warm_up, Batch, Outcome, RunCfg, Span, Traced, Tracer, Values, Workload,
};

const SHARDS: usize = 4;
const RESOLVE_BATCH: usize = 32;
const CHURN_BATCH: usize = 64;
const REFRESH_SHARE: f64 = 0.05;
/// Rounds of distinct messages in the `ctrl_resolve` pool: a quarter of
/// a million messages, which touch over 100 MB of trie and registry
/// between two requests for the same endpoint — its state has long left
/// the cache (a pool four times the size ran at the same speed) — while
/// a 16 s run still times every batch of the pool some sixty times.
const RESOLVE_POOL_ROUNDS: usize = 4;
/// Rounds (sweep periods) of distinct moves in the `ctrl_churn` pool.
const CHURN_POOL_ROUNDS: usize = 8;
/// Messages between two `expire` sweeps in `ctrl_churn` (one round).
const SWEEP_EVERY: u64 = 25_600;
/// Simulated time one churn message stands for (200k messages/s).
const CHURN_TICK: SimDuration = SimDuration::from_micros(5);
const SERVER_RLOC: Rloc = Rloc::for_router_index(1000);

/// Pre-encoded messages in one flat buffer.
struct MessagePool {
    bytes: Vec<u8>,
    /// `ends[i]` is where message `i` stops; it starts at `ends[i - 1]`.
    ends: Vec<u32>,
}

impl MessagePool {
    fn with_capacity(n: usize) -> Self {
        MessagePool {
            bytes: Vec::with_capacity(n * 32),
            ends: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, m: &Message) {
        self.bytes.extend_from_slice(&m.emit());
        self.ends.push(self.bytes.len() as u32);
    }

    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

fn metro(cfg: &RunCfg, endpoints: usize) -> MetroWorkload {
    MetroWorkload::new(MetroParams {
        endpoints: cfg.pop(endpoints, 2_000) as u32,
        seed: cfg.seed,
        ..MetroParams::full()
    })
}

/// A server with every endpoint of `w` onboarded at its home edge.
fn preloaded(w: &MetroWorkload) -> PartitionedMapServer {
    let mut server = PartitionedMapServer::new(SERVER_RLOC, SHARDS);
    for m in w.initial_registers() {
        server.handle(m, SimTime::ZERO);
    }
    server.compact();
    server
}

/// A whole number of batches, at least one.
fn whole_batches(n: u64, batch: usize) -> usize {
    (n as usize / batch).max(1) * batch
}

/// Server-side facts both workloads report.
fn server_layers(server: &PartitionedMapServer, msgs: u64, out: &mut Values) {
    let mem = server.mem_stats();
    out.insert("ctrl.db_mib", mib(mem.capacity_bytes));
    out.insert("trie.arena_mib", mib(mem.capacity_bytes));
    out.insert(
        "trie.stride_fill_share",
        mem.stride_filled as f64 / mem.stride_slots.max(1) as f64,
    );
    let lens = server.shard_lens();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    let max = lens.iter().copied().max().unwrap_or(0) as f64;
    out.insert("ctrl.shard_imbalance", max / mean.max(1.0) - 1.0);
    out.insert(
        "ctrl.shed_share",
        server.overload_stats().shed_total() as f64 / msgs.max(1) as f64,
    );
    out.insert("ctrl.resyncs", server.pubsub_gaps() as f64);
    out.insert("ctrl.pubsub_peak_depth", server.pubsub_peak_depth() as f64);
}

/// Replays `keys` (endpoint indices) into stand-alone per-VN tries loaded
/// like the server's database: the bare descent and the bare write.
fn trie_probes(w: &MetroWorkload, keys: &[u32], out: &mut Values) {
    let p = w.params();
    let mut tries: Vec<EidTrie<Rloc>> = (0..p.vns).map(|_| EidTrie::new()).collect();
    for i in 0..p.endpoints {
        tries[(i % p.vns) as usize].insert(EidPrefix::host(w.eid_of(i)), w.home_edge(i));
    }
    for t in &mut tries {
        t.compact();
    }
    out.insert(
        "trie.lpm_probe_ns_per_key",
        ns_per_item(keys.len(), || {
            for &i in keys {
                black_box(tries[(i % p.vns) as usize].lookup(&w.eid_of(i)));
            }
        }),
    );
    let writes = &keys[..keys.len().min(1 << 16)];
    out.insert(
        "trie.write_probe_ns_per_key",
        ns_per_item(2 * writes.len(), || {
            for &i in writes {
                let t = &mut tries[(i % p.vns) as usize];
                let prefix = EidPrefix::host(w.eid_of(i));
                let rloc = t.remove(&prefix).expect("every endpoint is loaded");
                t.insert(prefix, rloc);
            }
        }),
    );
}

// ---------------------------------------------------------------------
// ctrl_resolve
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct ResolveTally {
    requests: u64,
    refreshes: u64,
    replies: u64,
    reply_bytes: u64,
}

pub struct CtrlResolve {
    w: MetroWorkload,
    server: PartitionedMapServer,
    pool: MessagePool,
    /// Endpoint each pool message is about.
    subject: Vec<u32>,
    round_msgs: usize,
    cursor: usize,
    now: SimTime,
    tally: ResolveTally,
    warm_msgs: u64,
    window_msgs: u64,
    window: Option<ResolveTally>,
    violation: Option<String>,
    gen_s: f64,
}

impl Workload for CtrlResolve {
    const SETUPS: usize = 3;

    fn build(cfg: &RunCfg) -> Self {
        let w = metro(cfg, 1_000_000);
        let t = Instant::now();
        let round_msgs = whole_batches(cfg.ops(1 << 16), RESOLVE_BATCH);
        let n = RESOLVE_POOL_ROUNDS * round_msgs;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5E50_17E5);
        let mut pool = MessagePool::with_capacity(n);
        let mut subject = Vec::with_capacity(n);
        let p = w.params().clone();
        for k in 0..n {
            let i = rng.gen_range(0..p.endpoints);
            let m = if rng.gen::<f64>() < REFRESH_SHARE {
                Message::MapRegister {
                    nonce: k as u64 + 1,
                    vn: w.vn_of(i),
                    eid: w.eid_of(i),
                    rloc: w.home_edge(i),
                    ttl_secs: p.register_ttl_secs,
                    want_notify: false,
                }
            } else {
                Message::MapRequest {
                    nonce: k as u64 + 1,
                    smr: false,
                    vn: w.vn_of(i),
                    eid: w.eid_of(i),
                    itr_rloc: w.home_edge(rng.gen_range(0..p.endpoints)),
                }
            };
            pool.push(&m);
            subject.push(i);
        }
        let gen_s = t.elapsed().as_secs_f64();

        let mut r = CtrlResolve {
            server: preloaded(&w),
            w,
            pool,
            subject,
            round_msgs,
            cursor: 0,
            now: SimTime::ZERO + SimDuration::from_secs(1),
            tally: ResolveTally::default(),
            warm_msgs: 0,
            window_msgs: cfg.ops(1 << 20),
            window: None,
            violation: None,
            gen_s,
        };
        // Warm-up: one round.
        warm_up(&mut r, round_msgs / RESOLVE_BATCH);
        r.warm_msgs = r.tally.requests + r.tally.refreshes;
        r.window = None;
        r
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn cycle_rounds(&self) -> usize {
        RESOLVE_POOL_ROUNDS
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        for k in self.cursor..self.cursor + RESOLVE_BATCH {
            tr.enter(Span::LispParse);
            let parsed = Message::parse(&self.pool.bytes[self.pool.range(k)]);
            tr.exit();
            let Ok(msg) = parsed else {
                self.violation
                    .get_or_insert(format!("pool message {k} does not parse"));
                continue;
            };
            let home = self.w.home_edge(self.subject[k]);
            let is_request = matches!(msg, Message::MapRequest { .. });
            tr.enter(if is_request {
                Span::Request
            } else {
                Span::Register
            });
            let out = self.server.handle(msg, self.now);
            tr.exit();
            if is_request {
                self.tally.requests += 1;
                // A registered EID resolves to the RLOC the generator
                // registered it at.
                let ok = matches!(
                    out.as_slice(),
                    [(_, Message::MapReply { negative: false, rloc: Some(r), .. })] if *r == home
                );
                if !ok {
                    self.violation
                        .get_or_insert(format!("request {k} answered {out:?}, expected {home:?}"));
                }
            } else {
                self.tally.refreshes += 1;
                if !out.is_empty() {
                    self.violation
                        .get_or_insert(format!("refresh {k} produced {out:?}"));
                }
            }
            for (_, reply) in &out {
                tr.enter(Span::LispEmit);
                let bytes = reply.emit();
                tr.exit();
                self.tally.replies += 1;
                self.tally.reply_bytes += black_box(bytes).len() as u64;
            }
        }
        self.cursor = (self.cursor + RESOLVE_BATCH) % self.pool.len();
        let done = self.tally.requests + self.tally.refreshes - self.warm_msgs;
        if self.window.is_none() && done >= self.window_msgs {
            self.window = Some(self.tally);
        }
        Batch {
            ops: RESOLVE_BATCH as u64,
            round_end: self.cursor.is_multiple_of(self.round_msgs),
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let t = self.window.unwrap_or_default();
        vec![
            ("requests", t.requests),
            ("refreshes", t.refreshes),
            ("replies", t.replies),
            ("reply_bytes", t.reply_bytes),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        if let Some(what) = self.violation.take() {
            return Err(what);
        }
        let t = self.tally;
        let stats = self.server.stats();
        if stats.replies != t.requests || stats.negative_replies != 0 || t.replies != t.requests {
            return Err(format!("server counted {stats:?}, generator {t:?}"));
        }
        Ok(Outcome {
            attempted: t.requests + t.refreshes - self.warm_msgs,
            failed: 0,
        })
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        out.insert("wire.lisp_parse_ns_per_msg", tr.mean_ns(Span::LispParse));
        out.insert("wire.lisp_emit_ns_per_msg", tr.mean_ns(Span::LispEmit));
        out.insert("ctrl.request_ns_per_msg", tr.mean_ns(Span::Request));
        out.insert("ctrl.register_ns_per_msg", tr.mean_ns(Span::Register));
        out.insert("ctrl.allocs_per_msg", traced.allocs_per_op());
        let t = self.tally;
        server_layers(&self.server, t.requests + t.refreshes, out);
        trie_probes(&self.w, &self.subject, out);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} endpoints on {SHARDS} shards, pool of {} encoded messages",
            self.w.params().endpoints,
            self.pool.len()
        )]
    }
}

// ---------------------------------------------------------------------
// ctrl_churn
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct ChurnTally {
    moves: u64,
    notifies: u64,
    notify_bytes: u64,
    deltas: u64,
    delta_bytes: u64,
    sweeps: u64,
    expired: u64,
    /// Running digest of the generator's registry (`at`): which
    /// endpoint went where, so two input streams never tally alike.
    registry_digest: u64,
}

pub struct CtrlChurn {
    w: MetroWorkload,
    server: PartitionedMapServer,
    pool: MessagePool,
    /// Per pool message: the roaming endpoint and how many edges it hops.
    moves: Vec<(u32, u16)>,
    /// Where in every encoded register the RLOC sits.
    rloc_at: usize,
    /// Current edge index of every endpoint (the generator's registry).
    at: Vec<u16>,
    cursor: usize,
    now: SimTime,
    gaps_before: u64,
    sweep_every: u64,
    tally: ChurnTally,
    warm_moves: u64,
    window_moves: u64,
    window: Option<ChurnTally>,
    violation: Option<String>,
    gen_s: f64,
}

fn edge_rloc(edge: u16) -> Rloc {
    Rloc::for_router_index(1 + edge)
}

impl Workload for CtrlChurn {
    const SETUPS: usize = 6;

    fn build(cfg: &RunCfg) -> Self {
        let w = metro(cfg, 100_000);
        let p = w.params().clone();
        let t = Instant::now();
        let sweep_every = whole_batches(cfg.ops(SWEEP_EVERY), CHURN_BATCH) as u64;
        let n = CHURN_POOL_ROUNDS * sweep_every as usize;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC4_0C4A);
        let mut pool = MessagePool::with_capacity(n);
        let mut moves = Vec::with_capacity(n);
        let register = |i: u32, k: usize, rloc: Rloc| Message::MapRegister {
            nonce: k as u64 + 1,
            vn: w.vn_of(i),
            eid: w.eid_of(i),
            rloc,
            ttl_secs: p.register_ttl_secs,
            want_notify: false,
        };
        // Find the RLOC field by encoding one register twice.
        let (a, b) = (Ipv4Addr::new(10, 255, 0, 1), Ipv4Addr::new(1, 2, 3, 4));
        let (ea, eb) = (
            register(0, 0, Rloc(a)).emit(),
            register(0, 0, Rloc(b)).emit(),
        );
        let rloc_at = ea
            .iter()
            .zip(&eb)
            .position(|(x, y)| x != y)
            .expect("the RLOC is encoded");
        assert_eq!(
            &eb[rloc_at..rloc_at + 4],
            &b.octets(),
            "RLOC is 4 raw bytes"
        );
        for k in 0..n {
            let i = rng.gen_range(0..p.endpoints);
            let hop = rng.gen_range(1..p.edges);
            pool.push(&register(i, k, Rloc(a)));
            moves.push((i, hop));
        }
        let gen_s = t.elapsed().as_secs_f64();

        let mut server = preloaded(&w);
        server.set_admission(Some(AdmissionConfig::uniform(
            1e7,
            1e5,
            SimDuration::from_millis(300),
        )));
        for m in w.subscriptions() {
            server.handle(m, SimTime::ZERO);
        }
        // Initial snapshots toward the borders, off the clock.
        server.flush_publishes();
        let mut c = CtrlChurn {
            at: (0..p.endpoints)
                .map(|i| (i % u32::from(p.edges)) as u16)
                .collect(),
            gaps_before: server.pubsub_gaps(),
            server,
            w,
            pool,
            moves,
            rloc_at,
            cursor: 0,
            now: SimTime::ZERO + SimDuration::from_secs(1),
            sweep_every,
            tally: ChurnTally::default(),
            warm_moves: 0,
            window_moves: cfg.ops(10 * SWEEP_EVERY),
            window: None,
            violation: None,
            gen_s,
        };
        // Warm-up: one round, sweep included.
        warm_up(&mut c, sweep_every as usize / CHURN_BATCH);
        c.warm_moves = c.tally.moves;
        c.window = None;
        c
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn cycle_rounds(&self) -> usize {
        CHURN_POOL_ROUNDS
    }

    fn batch(&mut self, tr: &mut Tracer) -> Batch {
        let edges = self.w.params().edges;
        let borders = u64::from(self.w.params().borders);
        for k in self.cursor..self.cursor + CHURN_BATCH {
            let (i, hop) = self.moves[k];
            let from = self.at[i as usize];
            let to = (from + hop) % edges;
            // The closed-loop client registers relative to where the
            // endpoint is now: patch the new RLOC into the encoded bytes.
            let range = self.pool.range(k);
            let bytes = &mut self.pool.bytes[range];
            bytes[self.rloc_at..self.rloc_at + 4].copy_from_slice(&edge_rloc(to).addr().octets());
            tr.enter(Span::LispParse);
            let parsed = Message::parse(bytes);
            tr.exit();
            let Ok(msg) = parsed else {
                self.violation
                    .get_or_insert(format!("pool message {k} does not parse"));
                continue;
            };
            tr.enter(Span::Register);
            let out = self.server.handle(msg, self.now);
            tr.exit();
            self.at[i as usize] = to;
            self.tally.moves += 1;
            self.tally.registry_digest = self
                .tally
                .registry_digest
                .wrapping_add(u64::from(to ^ from).wrapping_mul(u64::from(i) + 1));
            self.now += CHURN_TICK;
            // Exactly one Map-Notify, to the previous edge, naming the
            // new one (Fig. 5 step 2).
            let ok = matches!(
                out.as_slice(),
                [(dst, Message::MapNotify { new_rloc, .. })]
                    if *dst == edge_rloc(from) && *new_rloc == edge_rloc(to)
            );
            if !ok {
                self.violation.get_or_insert(format!(
                    "move {k} of endpoint {i} from edge {from} to {to} produced {out:?}"
                ));
            }
            for (_, notify) in &out {
                tr.enter(Span::LispEmit);
                let bytes = notify.emit();
                tr.exit();
                self.tally.notifies += 1;
                self.tally.notify_bytes += black_box(bytes).len() as u64;
            }
        }
        self.cursor = (self.cursor + CHURN_BATCH) % self.pool.len();
        self.flush(tr, CHURN_BATCH as u64 * borders);

        let round_end = self.tally.moves.is_multiple_of(self.sweep_every);
        if round_end {
            tr.enter(Span::Expire);
            self.tally.expired += self.server.expire_sequential(self.now) as u64;
            tr.exit();
            self.tally.sweeps += 1;
            self.flush(tr, 0);
        }
        if self.window.is_none() && self.tally.moves - self.warm_moves >= self.window_moves {
            self.window = Some(self.tally);
        }
        Batch {
            ops: CHURN_BATCH as u64,
            round_end,
        }
    }

    fn window_complete(&self) -> bool {
        self.window.is_some()
    }

    fn window_counts(&self) -> Vec<(&'static str, u64)> {
        let t = self.window.unwrap_or_default();
        vec![
            ("moves", t.moves),
            ("notifies", t.notifies),
            ("notify_bytes", t.notify_bytes),
            ("deltas", t.deltas),
            ("delta_bytes", t.delta_bytes),
            ("sweeps", t.sweeps),
            ("expired", t.expired),
            ("registry_digest", t.registry_digest),
        ]
    }

    fn finish(&mut self) -> Result<Outcome, String> {
        if let Some(what) = self.violation.take() {
            return Err(what);
        }
        let t = self.tally;
        let borders = u64::from(self.w.params().borders);
        let resyncs = self.server.pubsub_gaps() - self.gaps_before;
        if t.deltas != t.moves * borders || resyncs != 0 || t.notifies != t.moves {
            return Err(format!(
                "{t:?} with {resyncs} resyncs: expected {borders} deltas and one notify per move"
            ));
        }
        let shed = self.server.overload_stats().shed_total();
        Ok(Outcome {
            attempted: t.moves - self.warm_moves,
            failed: shed,
        })
    }

    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values) {
        let borders = u64::from(self.w.params().borders);
        out.insert("wire.lisp_parse_ns_per_msg", tr.mean_ns(Span::LispParse));
        out.insert("wire.lisp_emit_ns_per_msg", tr.mean_ns(Span::LispEmit));
        out.insert("ctrl.register_ns_per_msg", tr.mean_ns(Span::Register));
        out.insert(
            "ctrl.flush_ns_per_delta",
            tr.ns_per(Span::Flush, traced.round_ops * borders),
        );
        out.insert("ctrl.expire_ms_per_sweep", tr.mean_ns(Span::Expire) / 1e6);
        out.insert("ctrl.allocs_per_msg", traced.allocs_per_op());
        let t = self.window.unwrap_or_default();
        out.insert(
            "ctrl.deltas_per_move",
            t.deltas as f64 / t.moves.max(1) as f64,
        );
        server_layers(&self.server, self.tally.moves, out);
        let keys: Vec<u32> = self.moves.iter().map(|(i, _)| *i).collect();
        trie_probes(&self.w, &keys, out);
    }

    fn notes(&self) -> Vec<String> {
        let p = self.w.params();
        vec![format!(
            "{} endpoints on {SHARDS} shards, {} borders subscribed to {} VNs, sequential sweep \
             every {} moves",
            p.endpoints, p.borders, p.vns, self.sweep_every
        )]
    }
}

impl CtrlChurn {
    /// Drains the fan-out and emits every delta; `expect` is how many
    /// the generator's bookkeeping says there must be.
    fn flush(&mut self, tr: &mut Tracer, expect: u64) {
        tr.enter(Span::Flush);
        let deltas = self.server.flush_publishes();
        tr.exit();
        if deltas.len() as u64 != expect {
            self.violation.get_or_insert(format!(
                "flush produced {} deltas, expected {expect}",
                deltas.len()
            ));
        }
        for (_, delta) in &deltas {
            tr.enter(Span::LispEmit);
            let bytes = delta.emit();
            tr.exit();
            self.tally.deltas += 1;
            self.tally.delta_bytes += black_box(bytes).len() as u64;
        }
    }
}
