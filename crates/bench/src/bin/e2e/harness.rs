//! What every workload shares: the run configuration, the closed-loop
//! driver that times batches, the span tracer, the counting allocator
//! and the small statistics helpers.
//!
//! Shape of a run (one client, closed loop): a workload is *built*
//! (inputs generated, tables loaded, one warm-up pass — all of it
//! `setup_s`, repeated [`Workload::SETUPS`] times), then driven batch
//! by batch. Batches group into **rounds** of equal work, and a fixed
//! number of rounds makes a **cycle**, after which the workload's inputs
//! repeat: batch `k` of every cycle is the same input. The first rounds
//! of the timed region are the workload's **count window** — a fixed
//! number of operations, so every count-type metric repeats exactly for
//! a seed — and the run continues past it, in whole rounds, until
//! `--seconds` of batch time have been measured. Under `--trace 1` the
//! window runs untraced and the remainder traced, so one run yields both
//! sides of `trace.overhead_share`.
//!
//! Every timing is measured many times over and reported as its **quiet
//! value** — the fastest fiftieth of the repeats ([`QUIET`]): the
//! machine's neighbours only ever add time, so the low end of repeated
//! measurements of the same work is the program, and the rest is the
//! machine.
//!
//! * `setup_s` — over the builds of the run.
//! * `ops_per_s` — over the rounds: a round's operations ÷ its time.
//!   Whatever the program does once in a while lands in every round, so
//!   it is paid for here.
//! * `batch_p50_us`, `batch_p99_us` — each batch of the cycle is timed
//!   once per cycle; its time is the quiet value of those timings, and
//!   the percentiles are taken over the batches of the cycle. The tail
//!   is the workload's own slow batches (a rule delta, a sweep, the
//!   heaviest second of a storm), not the batches an interrupt fell into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The quantile every repeated timing is reported at: the minimum of
/// fewer than fifty repeats, the 21st of a thousand. The sandbox's
/// neighbours slow a run in phases that last from microseconds (an
/// interrupt) to a minute (−20…−40 % throughput). In a disturbed hour
/// more than nine tenths of a run's rounds were slow: over ten runs the
/// per-round median of `edge_steady` spread 52 % of its own median, the
/// lower quartile 18 %, the lowest decile 9 %, the minimum 4 %. The
/// fiftieth sits as low as the minimum without hanging on one sample.
const QUIET: f64 = 0.02;

/// Batch timings the sample store holds without growing; it is touched
/// up front, so peak memory does not depend on how many batches a run
/// fits into its budget.
const SAMPLE_STORE: usize = 1 << 22;

/// Spans kept verbatim for the trace file; totals cover every span.
const MAX_SPAN_RECORDS: usize = 1 << 17;

/// Traced rounds whose span times are kept apart (a minute of the
/// shortest rounds).
const MAX_TRACED_ROUNDS: usize = 1 << 13;

/// Run parameters shared by all workloads.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Drives every generator; the program under test only sees the
    /// generated frames, messages and events.
    pub seed: u64,
    /// Batch time to measure.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// Divide op counts and populations by 100 (CI smoke, unit tests).
    pub quick: bool,
}

impl RunCfg {
    /// An operation count, scaled down under `--quick`.
    pub fn ops(&self, full: u64) -> u64 {
        if self.quick {
            (full / 100).max(1)
        } else {
            full
        }
    }

    /// A population size, scaled down under `--quick` but never below
    /// `floor` (the workload must keep its shape).
    pub fn pop(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 100).max(floor)
        } else {
            full
        }
    }
}

/// Named values a workload reports (per-layer metrics).
pub type Values = BTreeMap<&'static str, f64>;

/// What the oracle found: operations attempted in the timed region and
/// how many of them failed. A *violation* (the program's output
/// contradicts the generator's own bookkeeping) is an `Err` instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// What one submitted batch held.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// Operations (generator inputs) in the batch.
    pub ops: u64,
    /// This batch completed a round: a fixed amount of identically
    /// composed work (a pass over the input pool, one full period of
    /// the workload's maintenance events).
    pub round_end: bool,
}

/// The traced part of a run: operations submitted and heap allocations
/// made while the tracer was on, and the operations of one round.
#[derive(Clone, Copy, Debug)]
pub struct Traced {
    pub ops: u64,
    pub allocs: u64,
    pub round_ops: u64,
}

impl Traced {
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}

/// One benchmark workload, driven by [`drive`].
pub trait Workload: Sized {
    /// How often the workload is built per run: about half a second's
    /// worth, at least three. A constant, so the heap the timed instance
    /// lives in has the same history in every run.
    const SETUPS: usize;

    /// Generates inputs, builds the program state and runs the warm-up
    /// pass. Everything in here is set-up time.
    fn build(cfg: &RunCfg) -> Self;

    /// Seconds of `build` spent in the generators alone.
    fn gen_s(&self) -> f64;

    /// Further set-up timings taken outside `build` (campaign builds).
    fn extra_setup_samples(&self) -> &[f64] {
        &[]
    }

    /// Rounds after which the inputs repeat (the input pool holds this
    /// many rounds). Every round is the same number of batches.
    fn cycle_rounds(&self) -> usize {
        1
    }

    /// Untimed work before the next batch (building the next campaign).
    fn prepare(&mut self) {}

    /// Submits the next batch.
    fn batch(&mut self, tr: &mut Tracer) -> Batch;

    /// True once the fixed count window has been run (the workload
    /// snapshots its tallies at that point, inside `batch`).
    fn window_complete(&self) -> bool;

    /// The tallies at the end of the count window, for the exact
    /// same-seed comparison.
    fn window_counts(&self) -> Vec<(&'static str, u64)>;

    /// Runs the output oracle over everything submitted so far.
    fn finish(&mut self) -> Result<Outcome, String>;

    /// Per-layer metrics: span-derived numbers, counts and probes.
    fn layers(&mut self, tr: &Tracer, traced: Traced, out: &mut Values);

    /// Free-form facts printed with the result (worker count, sizes).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The warm-up pass of a freshly built workload: `batches` batches,
/// untimed and untraced.
pub fn warm_up(w: &mut impl Workload, batches: usize) {
    let mut off = Tracer::new();
    for _ in 0..batches {
        w.batch(&mut off);
    }
}

/// Everything one run of one workload produced.
pub struct RunReport {
    pub outcome: Result<Outcome, String>,
    /// End-to-end metrics (always computed).
    pub end_to_end: Values,
    /// Per-layer metrics (empty unless tracing).
    pub per_layer: Values,
    pub window_counts: Vec<(&'static str, u64)>,
    pub batch_samples: usize,
    pub rounds: usize,
    /// Batches in one cycle.
    pub cycle_batches: usize,
    pub setups: usize,
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// The [`QUIET`] quantile of `v` (reorders it; 0 when empty).
pub fn quiet<T: Copy + Ord + Default>(v: &mut [T]) -> T {
    if v.is_empty() {
        return T::default();
    }
    let k = (v.len() as f64 * QUIET) as usize;
    *v.select_nth_unstable(k).1
}

/// The quiet time of every batch of the cycle: `samples` holds whole
/// cycles of `cycle` batches back to back (the last may be cut short),
/// and batch `k`'s time is the quiet value of `samples[k]`,
/// `samples[k + cycle]`, …
pub fn batch_times(samples: &[u32], cycle: usize) -> Vec<u32> {
    let mut column = Vec::with_capacity(samples.len() / cycle.max(1) + 1);
    (0..cycle.min(samples.len()))
        .map(|k| {
            column.clear();
            column.extend(samples[k..].iter().step_by(cycle));
            quiet(&mut column)
        })
        .collect()
}

/// The quiet value of nanoseconds per operation over `rounds`
/// (`(ops, ns)` each).
fn quiet_ns_per_op(rounds: &[(u64, u64)]) -> f64 {
    // Fixed point keeps the selection in integers: picoseconds per op.
    let mut ps: Vec<u64> = rounds
        .iter()
        .map(|(ops, ns)| ns * 1000 / (*ops).max(1))
        .collect();
    quiet(&mut ps) as f64 / 1e3
}

/// Builds `W` repeatedly, then drives it as described in the module
/// docs.
pub fn drive<W: Workload>(cfg: &RunCfg) -> RunReport {
    let mut setups = Vec::with_capacity(W::SETUPS);
    let mut built: Option<W> = None;
    for _ in 0..W::SETUPS {
        // Drop the previous instance first so peak memory is one
        // instance, not two.
        drop(built.take());
        let t = Instant::now();
        built = Some(W::build(cfg));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("SETUPS >= 1");
    let cycle_rounds = w.cycle_rounds();

    let mut tr = Tracer::new();
    // One timing per batch, in nanoseconds (a batch is far below 4 s).
    let mut samples: Vec<u32> = vec![u32::MAX; SAMPLE_STORE];
    samples.clear();
    // (ops, ns) of every round.
    let mut rounds: Vec<(u64, u64)> = Vec::with_capacity(1 << 16);
    // How many of them the count window took, once it is complete.
    let mut window_rounds = None;
    let mut measured_ns = 0u64;
    let (mut round_ops, mut round_ns) = (0u64, 0u64);
    let mut allocs_before = 0;
    let budget_ns = (cfg.seconds * 1e9) as u64;
    let mut round_start = true;
    loop {
        // Between rounds: the only place a run changes phase or ends.
        if round_start && w.window_complete() {
            if window_rounds.is_none() {
                window_rounds = Some(rounds.len());
                if cfg.trace {
                    // The window was the untraced reference; the whole
                    // budget goes to the traced remainder.
                    measured_ns = 0;
                    tr.start();
                    count_allocs(true);
                    allocs_before = allocs();
                }
            }
            if measured_ns >= budget_ns {
                break;
            }
        }
        w.prepare();
        tr.begin_batch();
        let t = Instant::now();
        let done = w.batch(&mut tr);
        let ns = t.elapsed().as_nanos() as u64;
        tr.end_batch();
        samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        round_ops += done.ops;
        round_ns += ns;
        round_start = done.round_end;
        if done.round_end {
            tr.end_round();
            rounds.push((round_ops, round_ns));
            measured_ns += round_ns;
            (round_ops, round_ns) = (0, 0);
        }
    }
    let traced_allocs = allocs() - allocs_before;
    count_allocs(false);
    tr.on = false;

    // Before any post-processing allocates: the oracle's replay is the
    // last thing that belongs to the workload.
    let outcome = w.finish();
    let peak_rss = peak_rss_mib();

    // Rounds are equal work, so a cycle is a fixed number of batches.
    let cycle_batches = samples.len() / rounds.len().max(1) * cycle_rounds;
    let mut times = batch_times(&samples, cycle_batches);
    times.sort_unstable();

    let mut setup_samples = setups;
    let setup_count = setup_samples.len();
    setup_samples.extend_from_slice(w.extra_setup_samples());
    let mut setup_ns: Vec<u64> = setup_samples.iter().map(|s| (s * 1e9) as u64).collect();
    let mut end_to_end = Values::new();
    end_to_end.insert("setup_s", quiet(&mut setup_ns) as f64 / 1e9);
    end_to_end.insert("ops_per_s", 1e9 / quiet_ns_per_op(&rounds));
    end_to_end.insert("batch_p50_us", f64::from(percentile(&times, 0.50)) / 1e3);
    end_to_end.insert("batch_p99_us", f64::from(percentile(&times, 0.99)) / 1e3);
    end_to_end.insert("peak_rss_mib", peak_rss);

    let mut per_layer = Values::new();
    if cfg.trace {
        let (window, rest) = rounds.split_at(window_rounds.unwrap_or(0));
        let traced = Traced {
            ops: rest.iter().map(|r| r.0).sum(),
            allocs: traced_allocs,
            round_ops: rest.first().map_or(0, |r| r.0),
        };
        w.layers(&tr, traced, &mut per_layer);
        per_layer.insert("workloads.gen_s", w.gen_s());
        if let Ok(o) = &outcome {
            let share = o.failed as f64 / o.attempted.max(1) as f64;
            per_layer.insert("workloads.failed_share", share);
        }
        let overhead = quiet_ns_per_op(rest) / quiet_ns_per_op(window) - 1.0;
        per_layer.insert("trace.overhead_share", overhead);
    }
    RunReport {
        outcome,
        end_to_end,
        per_layer,
        window_counts: w.window_counts(),
        batch_samples: samples.len(),
        rounds: rounds.len(),
        cycle_batches,
        setups: setup_count,
        notes: w.notes(),
        tracer: tr,
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// The layer boundaries the benchmark records spans around. Spans are
/// taken in the benchmark's own files, around calls into each layer;
/// nothing inside the program is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Span {
    Batch,
    Load,
    Ingress,
    Egress,
    PuntService,
    TableWrite,
    DeltaInstall,
    MtPublish,
    LispParse,
    Request,
    Register,
    LispEmit,
    Flush,
    Expire,
    Schedule,
    RunUntil,
    Check,
}

impl Span {
    pub const ALL: [Span; 17] = [
        Span::Batch,
        Span::Load,
        Span::Ingress,
        Span::Egress,
        Span::PuntService,
        Span::TableWrite,
        Span::DeltaInstall,
        Span::MtPublish,
        Span::LispParse,
        Span::Request,
        Span::Register,
        Span::LispEmit,
        Span::Flush,
        Span::Expire,
        Span::Schedule,
        Span::RunUntil,
        Span::Check,
    ];

    /// `<layer>.<call>`, the layer being the workspace crate called.
    pub fn name(self) -> &'static str {
        match self {
            Span::Batch => "bench.batch",
            Span::Load => "dataplane.load",
            Span::Ingress => "dataplane.process_ingress",
            Span::Egress => "dataplane.process_egress",
            Span::PuntService => "dataplane.punt_service",
            Span::TableWrite => "dataplane.table_write",
            Span::DeltaInstall => "policy.install_rules",
            Span::MtPublish => "dataplane.mt_publish",
            Span::LispParse => "wire.lisp_parse",
            Span::Request => "ctrl.handle_request",
            Span::Register => "ctrl.handle_register",
            Span::LispEmit => "wire.lisp_emit",
            Span::Flush => "ctrl.flush_publishes",
            Span::Expire => "ctrl.expire",
            Span::Schedule => "core.schedule",
            Span::RunUntil => "core.run_until",
            Span::Check => "core.check_convergence",
        }
    }
}

/// One recorded span. `parent` indexes the record list (`u32::MAX` for
/// a root); spans of one batch share `batch`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub span: Span,
    pub parent: u32,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Running totals of one span kind over the whole traced region.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

struct OpenSpan {
    span: Span,
    start_ns: u64,
    children_ns: u64,
    record: u32,
}

/// In-memory span recorder. Off (one predictable branch per call) unless
/// the run was asked to trace.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    batch: u32,
    stack: Vec<OpenSpan>,
    records: Vec<SpanRecord>,
    totals: [SpanTotal; Span::ALL.len()],
    /// `totals` when tracing started and at the end of every traced
    /// round since.
    marks: Vec<[SpanTotal; Span::ALL.len()]>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            batch: 0,
            stack: Vec::with_capacity(8),
            records: Vec::new(),
            totals: [SpanTotal::default(); Span::ALL.len()],
            marks: Vec::new(),
        }
    }

    /// Switches recording on and reserves the span store, so nothing
    /// allocates while spans are taken.
    fn start(&mut self) {
        self.on = true;
        self.records.reserve_exact(MAX_SPAN_RECORDS);
        self.marks.reserve_exact(MAX_TRACED_ROUNDS);
        self.marks.push(self.totals);
    }

    /// Closes a round: per-round span times come from these marks.
    fn end_round(&mut self) {
        if self.on && self.marks.len() < MAX_TRACED_ROUNDS {
            self.marks.push(self.totals);
        }
    }

    fn begin_batch(&mut self) {
        self.batch = self.batch.wrapping_add(1);
        self.enter(Span::Batch);
    }

    fn end_batch(&mut self) {
        self.exit();
    }

    /// Opens a span; pair with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, span: Span) {
        if self.on {
            self.enter_on(span);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            self.exit_on();
        }
    }

    fn enter_on(&mut self, span: Span) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let record = if self.records.len() < MAX_SPAN_RECORDS {
            self.records.push(SpanRecord {
                span,
                parent: self.stack.last().map_or(u32::MAX, |p| p.record),
                batch: self.batch,
                start_ns,
                end_ns: start_ns,
            });
            (self.records.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(OpenSpan {
            span,
            start_ns,
            children_ns: 0,
            record,
        });
    }

    fn exit_on(&mut self) {
        // A span opened before tracing switched on has no entry.
        let Some(open) = self.stack.pop() else {
            return;
        };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let dur = end_ns - open.start_ns;
        let total = &mut self.totals[open.span as usize];
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(r) = self.records.get_mut(open.record as usize) {
            r.end_ns = end_ns;
        }
    }

    pub fn total(&self, span: Span) -> SpanTotal {
        self.totals[span as usize]
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// `span`'s `(nanoseconds, count)` in every traced round.
    fn per_round(&self, span: Span) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.marks.windows(2).map(move |w| {
            let (before, after) = (w[0][span as usize], w[1][span as usize]);
            (after.total_ns - before.total_ns, after.count - before.count)
        })
    }

    /// Nanoseconds a round spends in `span`, divided by the round's
    /// `ops`: the quiet value over the traced rounds (0 when idle).
    pub fn ns_per(&self, span: Span, round_ops: u64) -> f64 {
        let mut ns: Vec<u64> = self.per_round(span).map(|(ns, _)| ns).collect();
        quiet(&mut ns) as f64 / round_ops.max(1) as f64
    }

    /// Mean nanoseconds of one `span`: the quiet value over the traced
    /// rounds it ran in (0 when it never ran).
    pub fn mean_ns(&self, span: Span) -> f64 {
        // Fixed point keeps the selection in integers: picoseconds.
        let mut ps: Vec<u64> = self
            .per_round(span)
            .filter(|(_, count)| *count > 0)
            .map(|(ns, count)| ns * 1000 / count)
            .collect();
        quiet(&mut ps) as f64 / 1e3
    }

    /// The trace file: per-span totals plus the first
    /// [`MAX_SPAN_RECORDS`] spans verbatim.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = format!("{{\"workload\": \"{workload}\", \"totals\": {{");
        let mut first = true;
        for span in Span::ALL {
            let t = self.total(span);
            if t.count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                span.name(),
                t.count,
                t.total_ns,
                t.self_ns
            ));
        }
        s.push_str("}, \"spans\": [\n");
        for (i, r) in self.records().iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            s.push_str(&format!(
                "{}{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"batch_id\": {}}}",
                if i == 0 { "" } else { ",\n" },
                r.span.name(),
                r.start_ns,
                r.end_ns,
                parent,
                r.batch
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// The system allocator plus one relaxed counter, gated by a flag that
/// is on only while a `--trace 1` run measures.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller's obligations pass through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switches allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Statistics and process facts
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (sorts it; 0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How often a layer probe repeats its replay.
const PROBE_REPEATS: usize = 3;

/// Times `f`, which works through `n` items, [`PROBE_REPEATS`] times and
/// returns the quiet nanoseconds per item.
pub fn ns_per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = [0u64; PROBE_REPEATS];
    for slot in &mut ns {
        let t = Instant::now();
        f();
        *slot = t.elapsed().as_nanos() as u64;
    }
    quiet(&mut ns) as f64 / n.max(1) as f64
}

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
