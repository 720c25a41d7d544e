//! Proof, not promise: what every simulated event pays allocates
//! nothing once warm — a counter bumped through its handle
//! ([`Metrics::bump`]: an indexed add, where the by-name door hashes
//! and, on first touch, builds a `String`), and a scheduled delivery
//! stepped through [`Simulator::step`] to a node that does nothing (the
//! event moves out of the schedule, `dispatch` lends the node its
//! kept outbox and timer buffers and takes them back).
//!
//! Only the test's own thread is counted: the windows open within a
//! millisecond of the test starting, while the harness's main thread is
//! still allocating its bookkeeping for the thread it just spawned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sda_simnet::{Context, Metrics, Node, NodeId, SimTime, Simulator};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the thread whose allocations count. Const-initialised and
    /// without a destructor, so reading it from the allocator neither
    /// allocates nor registers anything.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

struct Sink;
impl Node<u64> for Sink {
    fn on_message(&mut self, _: &mut Context<'_, u64>, _: NodeId, _: u64) {}
}

#[test]
fn bumps_and_scheduled_steps_allocate_nothing() {
    const N: u64 = 10_000;
    const WARM_UP: u64 = 16;
    COUNTED.with(|c| c.set(true));

    let mut metrics = Metrics::default();
    let ids = [
        metrics.counter_id("fabric.delivered"),
        metrics.counter_id("fabric.overlay_bytes"),
    ];
    let before = allocations();
    for i in 0..N {
        metrics.bump(ids[(i % 2) as usize]);
        metrics.bump_by(ids[1], 63);
    }
    assert_eq!(allocations() - before, 0, "bump allocated");
    assert_eq!(metrics.counter("fabric.delivered"), N / 2);
    assert_eq!(metrics.counter("fabric.overlay_bytes"), N / 2 + 63 * N);

    // A driver's schedule: in time order, all of it ahead of the run.
    let mut sim: Simulator<u64> = Simulator::new(1);
    let nodes: Vec<NodeId> = (0..4).map(|_| sim.add_node(Box::new(Sink))).collect();
    for k in 0..N + WARM_UP {
        sim.inject_at(SimTime::from_nanos(k * 1_000), nodes[(k % 4) as usize], k);
    }
    for _ in 0..WARM_UP {
        assert!(sim.step());
    }
    let before = allocations();
    for _ in 0..N {
        assert!(sim.step());
    }
    assert_eq!(allocations() - before, 0, "step allocated");
    assert!(!sim.step(), "the whole schedule was served");
    assert_eq!(sim.events_processed(), N + WARM_UP);
}
