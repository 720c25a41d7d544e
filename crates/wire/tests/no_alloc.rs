//! The LISP codec's allocation budget, counted: `Message::emit` makes
//! exactly **one** heap allocation for every variant (the returned
//! `Vec<u8>`, sized before the first byte is written), and
//! `Message::parse` makes **none** — on a whole message, on every
//! truncation of one, and on trailing garbage. A counting global
//! allocator wraps the system one, as in the trie / lisp / dataplane
//! `no_alloc.rs` files.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sda_types::{Rloc, VnId};
use sda_wire::lisp::Message;

// Only the message matrix is used here; the frozen encoder beside it is
// `prop_roundtrip.rs`'s.
#[allow(dead_code)]
mod reference;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn emit_allocates_once_and_parse_never() {
    // Every variant × EID family, host and shorter prefixes, a Map-Reply
    // without a locator.
    let msgs = reference::matrix(
        0x0123_4567_89AB_CDEF,
        VnId::new(4097).unwrap(),
        0x2001_0db8_0a01_0203_0000_0001_0002_0003,
        16,
        Rloc::for_router_index(7),
        300,
        true,
    );
    assert_eq!(msgs.len(), reference::MATRIX_LEN);
    // Room for every encoding, so collecting them allocates nothing.
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(msgs.len());

    for msg in &msgs {
        let before = allocations();
        let bytes = msg.emit();
        let spent = allocations() - before;
        assert_eq!(spent, 1, "emit of {msg:?} made {spent} allocations");
        assert_eq!(bytes.len(), bytes.capacity(), "{msg:?}: exact fit");
        encoded.push(bytes);
    }

    let before = allocations();
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for (msg, bytes) in msgs.iter().zip(&encoded) {
        match Message::parse(bytes) {
            Ok(back) if back == *msg => parsed_ok += 1,
            _ => {}
        }
        for cut in 0..bytes.len() {
            if Message::parse(&bytes[..cut]).is_err() {
                rejected += 1;
            }
        }
    }
    let spent = allocations() - before;
    assert_eq!(spent, 0, "parse made {spent} allocations");
    assert_eq!(parsed_ok, msgs.len(), "every encoding parses back");
    let cuts: usize = encoded.iter().map(Vec::len).sum();
    assert_eq!(rejected, cuts, "every truncation is an error");

    // Trailing garbage and an unknown AFI take the error paths that carry
    // a payload (`UnknownAfi`); they must not allocate either.
    let mut long = encoded[2].clone();
    long.push(0);
    let mut bad_afi = encoded[2].clone();
    bad_afi[13] = 0x63;
    let before = allocations();
    assert!(Message::parse(&long).is_err());
    assert!(Message::parse(&bad_afi).is_err());
    assert_eq!(allocations() - before, 0, "error paths allocate nothing");
}
