//! The metro-fabric control-plane workload: a city-scale SDA deployment
//! (§5's "largest networks" tier) expressed as a deterministic stream of
//! LISP control messages, sized for the partitioned map-server
//! (`sda-ctrl`) rather than the packet-level simulator — at a million
//! endpoints the interesting contention is in the mapping system, not
//! the wires.
//!
//! Three deterministic generators, all plain index arithmetic (no RNG
//! state to carry, so benches can re-derive any slice of the stream):
//!
//! * [`MetroWorkload::initial_registers`] — every endpoint onboards once
//!   from its home edge.
//! * [`MetroWorkload::churn`] — roaming endpoints re-register from a
//!   different edge (each one a *move* with a Map-Notify to the old
//!   edge and a publish toward subscribers).
//! * [`MetroWorkload::requests`] — ITRs resolve Zipf-less uniform
//!   destinations (the map-server cost is identical either way).
//!
//! EIDs are laid out so consecutive endpoints land in *different* /16
//! partitions (prime-stride second octet), which keeps every shard of a
//! partitioned server busy at any scale — see `eid_of`.

use sda_types::{Eid, Rloc, VnId};
use sda_wire::lisp::Message;

/// Second-octet stride: prime, so blocks spread evenly modulo any shard
/// count, and 251 blocks × 65,536 hosts covers 16.4M endpoints.
const BLOCK_STRIDE: u32 = 251;

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct MetroParams {
    /// Total endpoints across the fabric.
    pub endpoints: u32,
    /// Edge routers endpoints attach to.
    pub edges: u16,
    /// Virtual networks endpoints are spread over.
    pub vns: u32,
    /// Roaming re-registrations in the churn phase.
    pub churn_moves: u32,
    /// Map-Requests in the resolve phase.
    pub requests: u32,
    /// Border routers subscribed to every VN's mapping stream.
    pub borders: u16,
    /// Registration TTL.
    pub register_ttl_secs: u32,
    /// Mixed into the churn/request index permutations.
    pub seed: u64,
}

impl MetroParams {
    /// The full metro tier: one million endpoints over 256 edges.
    pub fn full() -> Self {
        MetroParams {
            endpoints: 1_000_000,
            edges: 256,
            vns: 64,
            churn_moves: 100_000,
            requests: 100_000,
            borders: 4,
            register_ttl_secs: 48 * 3600,
            seed: 0x3E70,
        }
    }

    /// The 100k tier (same shape, tenth the population).
    pub fn hundred_k() -> Self {
        MetroParams {
            endpoints: 100_000,
            churn_moves: 10_000,
            requests: 10_000,
            ..MetroParams::full()
        }
    }

    /// A laptop-scale variant for tests.
    pub fn small() -> Self {
        MetroParams {
            endpoints: 2_000,
            edges: 16,
            vns: 4,
            churn_moves: 500,
            requests: 1_000,
            borders: 2,
            register_ttl_secs: 300,
            ..MetroParams::full()
        }
    }
}

/// The deterministic message generators for one parameter set.
#[derive(Clone, Debug)]
pub struct MetroWorkload {
    p: MetroParams,
}

impl MetroWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    /// Panics on empty dimensions or more endpoints than the EID plan
    /// holds (`251 × 65,536`).
    pub fn new(p: MetroParams) -> Self {
        assert!(p.endpoints > 0 && p.edges > 0 && p.vns > 0 && p.borders > 0);
        assert!(
            p.endpoints <= BLOCK_STRIDE * 65_536,
            "EID plan exhausted: {} endpoints",
            p.endpoints
        );
        MetroWorkload { p }
    }

    /// The parameters this workload was built from.
    pub fn params(&self) -> &MetroParams {
        &self.p
    }

    /// Endpoint `i`'s EID. The second octet walks a prime-stride cycle,
    /// so endpoints `i` and `i+1` sit in different /16 partition blocks
    /// and *any* contiguous slice of the population loads all shards of
    /// a partitioned map-server evenly.
    pub fn eid_of(&self, i: u32) -> Eid {
        let block = i % BLOCK_STRIDE;
        let host = i / BLOCK_STRIDE;
        Eid::V4(std::net::Ipv4Addr::from(0x0A00_0000 | (block << 16) | host))
    }

    /// Endpoint `i`'s VN (round-robin; every VN is populated).
    pub fn vn_of(&self, i: u32) -> VnId {
        VnId::new(1 + i % self.p.vns).expect("vns >= 1")
    }

    /// Endpoint `i`'s home edge RLOC.
    pub fn home_edge(&self, i: u32) -> Rloc {
        Rloc::for_router_index(1 + (i % u32::from(self.p.edges)) as u16)
    }

    /// Border `b`'s RLOC (distinct from every edge).
    pub(crate) fn border_rloc(&self, b: u16) -> Rloc {
        Rloc::for_router_index(0x7000 + b)
    }

    /// Every `(vn, subscriber)` pair: each border subscribes to every
    /// VN, as fabric borders do.
    pub fn subscriptions(&self) -> impl Iterator<Item = Message> + '_ {
        (0..self.p.borders).flat_map(move |b| {
            (0..self.p.vns).map(move |v| Message::Subscribe {
                nonce: 0,
                vn: VnId::new(1 + v).expect("vns >= 1"),
                subscriber: self.border_rloc(b),
                have_seq: 0,
                digest: 0,
            })
        })
    }

    /// Onboarding: one register per endpoint, from its home edge.
    pub fn initial_registers(&self) -> impl Iterator<Item = Message> + '_ {
        (0..self.p.endpoints).map(move |i| self.register_of(i, self.home_edge(i)))
    }

    /// Churn: `churn_moves` roaming re-registrations. Endpoint choice is
    /// a seeded permutation walk; the new edge is always a *different*
    /// edge, so every churn message is a move (notify + publish), never
    /// a refresh.
    pub fn churn(&self) -> impl Iterator<Item = Message> + '_ {
        (0..self.p.churn_moves).map(move |k| {
            let i = self.permute(k);
            let home = i % u32::from(self.p.edges);
            let hop = 1 + (mix(self.p.seed ^ 0xC4, k) % u32::from(self.p.edges - 1).max(1));
            let away = (home + hop) % u32::from(self.p.edges);
            self.register_of(i, Rloc::for_router_index(1 + away as u16))
        })
    }

    /// Resolution: `requests` Map-Requests for uniformly mixed
    /// destinations, asked by rotating edge ITRs.
    pub fn requests(&self) -> impl Iterator<Item = Message> + '_ {
        (0..self.p.requests).map(move |k| {
            let i = self.permute(k.wrapping_add(0x5EED));
            Message::MapRequest {
                nonce: u64::from(k) + 1,
                smr: false,
                vn: self.vn_of(i),
                eid: self.eid_of(i),
                itr_rloc: self.home_edge(mix(self.p.seed ^ 0x17, k)),
            }
        })
    }

    fn register_of(&self, i: u32, rloc: Rloc) -> Message {
        Message::MapRegister {
            nonce: u64::from(i) + 1,
            vn: self.vn_of(i),
            eid: self.eid_of(i),
            rloc,
            ttl_secs: self.p.register_ttl_secs,
            want_notify: false,
        }
    }

    /// A seeded endpoint-index permutation step.
    fn permute(&self, k: u32) -> u32 {
        mix(self.p.seed, k) % self.p.endpoints
    }
}

/// SplitMix-style integer hash: deterministic, uniform, no RNG state.
fn mix(seed: u64, k: u32) -> u32 {
    let mut z = seed
        .wrapping_add(u64::from(k))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn full_tier_meets_the_metro_floor() {
        let p = MetroParams::full();
        assert!(p.endpoints >= 1_000_000);
        assert!(p.edges >= 256);
        MetroWorkload::new(p); // EID plan must hold a million endpoints
    }

    #[test]
    fn eids_are_unique_and_spread_across_blocks() {
        let w = MetroWorkload::new(MetroParams::small());
        let mut seen = BTreeSet::new();
        let mut blocks = BTreeSet::new();
        for i in 0..w.params().endpoints {
            let Eid::V4(a) = w.eid_of(i) else {
                unreachable!()
            };
            assert!(seen.insert(a), "duplicate EID {a}");
            blocks.insert(u32::from(a) >> 16);
        }
        assert!(
            blocks.len() >= 64,
            "only {} /16 blocks for 2k endpoints",
            blocks.len()
        );
    }

    #[test]
    fn churn_never_re_registers_at_home() {
        let w = MetroWorkload::new(MetroParams::small());
        let churn: Vec<Message> = w.churn().collect();
        assert_eq!(churn.len(), w.params().churn_moves as usize);
        for m in &churn {
            let Message::MapRegister { nonce, rloc, .. } = m else {
                panic!("churn must be registers")
            };
            let i = (nonce - 1) as u32;
            assert_ne!(*rloc, w.home_edge(i), "endpoint {i} must move away");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = MetroWorkload::new(MetroParams::small());
        let b = MetroWorkload::new(MetroParams::small());
        assert!(a.churn().eq(b.churn()));
        assert!(a.requests().eq(b.requests()));
        assert!(a.initial_registers().eq(b.initial_registers()));
    }

    #[test]
    fn subscriptions_cover_every_vn_for_every_border() {
        let w = MetroWorkload::new(MetroParams::small());
        let subs: Vec<Message> = w.subscriptions().collect();
        assert_eq!(
            subs.len(),
            (w.params().vns * u32::from(w.params().borders)) as usize
        );
        let distinct: BTreeSet<_> = subs
            .iter()
            .map(|m| match m {
                Message::Subscribe { vn, subscriber, .. } => (*vn, *subscriber),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(distinct.len(), subs.len());
    }
}
