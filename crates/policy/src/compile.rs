//! The compiled, compressed SGACL: dense group-id interning and bitset
//! verdict rows.
//!
//! The *reference* enforcement table (the per-pair ACL,
//! `tests/reference/group_acl.rs`) is a `BTreeMap` probe per packet. At
//! a thousand groups and a hundred thousand rules that map is megabytes
//! of pointer-chasing on the hot path. [`CompiledAcl`] is the table the
//! data plane consults:
//!
//! * **Dense interning.** Each VN interns the `GroupId`s its rules
//!   mention into a dense id space (`group_index`: a direct-mapped
//!   `raw id → dense id` vector, `u16::MAX` = not interned). Interning
//!   is *append-only*: delta installs may widen rows and append new
//!   ones but never remap an existing dense id, so published snapshots
//!   and the working copy always agree on layout.
//! * **Bitset rows.** Per source group, one `allow` row of `u64` words
//!   over dense destination ids — verdict = one shift + mask. The
//!   VN-compile-time default action is folded into the row (bits for
//!   cells without an explicit rule carry the default), so the common
//!   case (caller's default == compiled default) never looks anywhere
//!   else. A parallel `explicit` row records which cells hold a real
//!   rule; it serves the exact per-pair semantics when a caller
//!   passes a *different* default, and reconstructs the rule list for
//!   [`CompiledAcl::rules`].
//! * **`Arc`-shared publication.** The per-VN tables live behind
//!   `Arc`s: cloning a `CompiledAcl` (the clone-and-swap epoch publish)
//!   copies pointers, not rule bits, and a delta install copies only
//!   the touched VN (`Arc::make_mut`). Allow/drop counters are shared
//!   `Relaxed` atomics (the PR-4 per-entry-metadata discipline), so
//!   enforcement counts on `&self` from any snapshot and the working
//!   copy reads one coherent total.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sda_types::{GroupId, VnId};

use crate::matrix::{Action, ConnectivityMatrix, GroupRule};
use crate::sxp::RuleSubset;

/// Sentinel in `group_index`: raw group id not interned in this VN.
const NO_DENSE: u16 = u16::MAX;

/// Shared allow/drop counters — the Fig. 12 raw data, kept as `Relaxed`
/// atomics so every published snapshot and the working copy feed one
/// total (heuristic counters only; no ordering is implied, matching the
/// `CacheEntry` metadata contract).
#[derive(Default, Debug)]
pub(crate) struct AclCounters {
    allowed: AtomicU64,
    dropped: AtomicU64,
}

impl AclCounters {
    /// Records one enforcement outcome.
    #[inline]
    pub(crate) fn record(&self, action: Action) {
        match action {
            Action::Allow => self.allowed.fetch_add(1, Ordering::Relaxed),
            Action::Deny => self.dropped.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// `(allowed, dropped)` snapshot.
    #[inline]
    pub(crate) fn load(&self) -> (u64, u64) {
        (
            self.allowed.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

/// One VN's compiled rows. Private: reached through [`CompiledAcl`] or
/// an [`AclVnView`].
#[derive(Clone, Debug, Default)]
struct VnAcl {
    /// Direct map `raw GroupId → dense id` (`NO_DENSE` = absent).
    group_index: Vec<u16>,
    /// Inverse map `dense id → raw GroupId`.
    dense: Vec<u16>,
    /// Row stride in `u64` words.
    words_per_row: usize,
    /// Verdict bits: `allow[src * stride + dst/64] >> (dst%64) & 1`.
    /// Cells without an explicit rule carry the compiled default.
    allow: Vec<u64>,
    /// Which cells hold an explicit rule.
    explicit: Vec<u64>,
    /// Explicit cell count (O(1) `len`).
    rules: usize,
}

impl VnAcl {
    #[inline]
    fn dense_of(&self, g: GroupId) -> Option<usize> {
        match self.group_index.get(g.0 as usize) {
            Some(&d) if d != NO_DENSE => Some(d as usize),
            _ => None,
        }
    }

    /// Widens every row to `new_words`, filling fresh destination slots
    /// with the default pattern. Exact-size allocations: the compiled
    /// form's memory budget counts capacity.
    fn restride(&mut self, new_words: usize, fill: u64) {
        let old = self.words_per_row;
        let rows = self.allow.len().checked_div(old).unwrap_or(0);
        let mut allow = Vec::with_capacity(rows * new_words);
        let mut explicit = Vec::with_capacity(rows * new_words);
        for r in 0..rows {
            allow.extend_from_slice(&self.allow[r * old..(r + 1) * old]);
            allow.extend(std::iter::repeat_n(fill, new_words - old));
            explicit.extend_from_slice(&self.explicit[r * old..(r + 1) * old]);
            explicit.extend(std::iter::repeat_n(0u64, new_words - old));
        }
        self.allow = allow;
        self.explicit = explicit;
        self.words_per_row = new_words;
    }

    /// Interns `g`, appending a dense id (and its row) if new.
    fn intern(&mut self, g: GroupId, fill: u64) -> usize {
        let raw = g.0 as usize;
        if raw >= self.group_index.len() {
            self.group_index.resize(raw + 1, NO_DENSE);
        }
        if self.group_index[raw] != NO_DENSE {
            return self.group_index[raw] as usize;
        }
        let id = self.dense.len();
        assert!(id < NO_DENSE as usize, "dense group-id space exhausted");
        if id >= self.words_per_row * 64 {
            let need = id / 64 + 1;
            self.restride(need.max(self.words_per_row * 2), fill);
        }
        self.group_index[raw] = id as u16;
        self.dense.push(g.0);
        self.allow
            .extend(std::iter::repeat_n(fill, self.words_per_row));
        self.explicit
            .extend(std::iter::repeat_n(0u64, self.words_per_row));
        id
    }

    /// Pre-interns a group set with exactly-sized rows (bulk compile):
    /// one restride, one allocation, no growth slack.
    fn reserve_groups(&mut self, groups: &BTreeSet<u16>, fill: u64) {
        let fresh = groups
            .iter()
            .filter(|g| self.dense_of(GroupId(**g)).is_none())
            .count();
        let total = self.dense.len() + fresh;
        if total == 0 {
            return;
        }
        let need = total.div_ceil(64);
        if need > self.words_per_row {
            self.restride(need, fill);
        }
        let grow = total * self.words_per_row - self.allow.len();
        self.allow.reserve_exact(grow);
        self.explicit.reserve_exact(grow);
        self.dense.reserve_exact(fresh);
        for g in groups {
            self.intern(GroupId(*g), fill);
        }
    }

    /// Sets one cell; returns true when the cell was not explicit yet.
    fn set_cell(&mut self, src: GroupId, dst: GroupId, action: Action, fill: u64) -> bool {
        let s = self.intern(src, fill);
        let d = self.intern(dst, fill);
        let idx = s * self.words_per_row + d / 64;
        let mask = 1u64 << (d % 64);
        let newly = self.explicit[idx] & mask == 0;
        self.explicit[idx] |= mask;
        match action {
            Action::Allow => self.allow[idx] |= mask,
            Action::Deny => self.allow[idx] &= !mask,
        }
        if newly {
            self.rules += 1;
        }
        newly
    }

    /// The verdict for `src → dst`. `default` is the caller's fallback
    /// for cells without an explicit rule; `compiled` is the default
    /// folded into the rows. When they agree (the steady state) the
    /// answer is the allow bit alone.
    #[inline]
    fn verdict(&self, src: GroupId, dst: GroupId, default: Action, compiled: Action) -> Action {
        let (Some(s), Some(d)) = (self.dense_of(src), self.dense_of(dst)) else {
            return default;
        };
        let idx = s * self.words_per_row + d / 64;
        let mask = 1u64 << (d % 64);
        if default == compiled || self.explicit[idx] & mask != 0 {
            if self.allow[idx] & mask != 0 {
                Action::Allow
            } else {
                Action::Deny
            }
        } else {
            default
        }
    }

    /// Visits every explicit rule (unspecified order).
    fn for_each_rule(&self, mut f: impl FnMut(GroupRule)) {
        let w = self.words_per_row;
        for (s, &src_raw) in self.dense.iter().enumerate() {
            for wi in 0..w {
                let idx = s * w + wi;
                let mut bits = self.explicit[idx];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let d = wi * 64 + b;
                    f(GroupRule {
                        src: GroupId(src_raw),
                        dst: GroupId(self.dense[d]),
                        action: if self.allow[idx] & (1u64 << b) != 0 {
                            Action::Allow
                        } else {
                            Action::Deny
                        },
                    });
                }
            }
        }
    }

    fn mem_bytes(&self) -> (usize, usize) {
        let interner =
            (self.group_index.capacity() + self.dense.capacity()) * std::mem::size_of::<u16>();
        let rows = (self.allow.capacity() + self.explicit.capacity()) * std::mem::size_of::<u64>();
        (interner, rows)
    }
}

/// Memory accounting for the compiled form: capacity, not just length,
/// as `sda_types::MemStats::capacity_bytes` counts it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompiledMemStats {
    /// VNs with at least one interned group.
    pub vns: usize,
    /// Interned groups across VNs.
    pub groups: usize,
    /// Explicit rules across VNs.
    pub rules: usize,
    /// Bytes in the direct-mapped interners.
    pub interner_bytes: usize,
    /// Bytes in the allow/explicit bitset rows.
    pub row_bytes: usize,
    /// Total compiled bytes (interners + rows + per-VN headers).
    pub total_bytes: usize,
}

/// A borrowed per-VN enforcement view: the lockstep pass hoists one of
/// these per same-VN run so the per-packet work is the bit probe alone.
#[derive(Clone, Copy)]
pub struct AclVnView<'a> {
    acl: Option<&'a VnAcl>,
    compiled_default: Action,
    counters: &'a AclCounters,
}

impl AclVnView<'_> {
    /// Non-counting verdict for `src → dst` in the view's VN.
    #[inline]
    pub fn check(&self, src: GroupId, dst: GroupId, default: Action) -> Action {
        match self.acl {
            Some(a) => a.verdict(src, dst, default, self.compiled_default),
            None => default,
        }
    }

    /// Counting verdict (`Relaxed` shared counters).
    #[inline]
    pub fn enforce(&self, src: GroupId, dst: GroupId, default: Action) -> Action {
        let action = self.check(src, dst, default);
        self.counters.record(action);
        action
    }
}

/// The compiled SGACL: dense-interned, bitset-compressed, `Arc`-shared.
///
/// Mirrors the reference per-pair ACL's API verdict-for-verdict (the
/// property tests assert it), with two deliberate differences:
/// `enforce` takes `&self` (counters are shared atomics, so enforcement
/// works on a published snapshot), and `Clone` is O(#VNs) pointer
/// copies — the epoch publish stops deep-copying the rule map.
#[derive(Clone, Debug)]
pub struct CompiledAcl {
    /// Sorted by VN for binary-search probes.
    vns: Vec<(VnId, Arc<VnAcl>)>,
    /// The default folded into the rows at compile time. A caller
    /// passing a different per-call default still gets exact per-pair
    /// semantics through the `explicit` bits — just off the one-load
    /// fast path.
    compiled_default: Action,
    /// Installed matrix version (staleness detection).
    version: u64,
    /// Allow/drop totals shared across clones.
    counters: Arc<AclCounters>,
    /// Explicit rule count across VNs (O(1) `len`).
    rules: usize,
}

impl Default for CompiledAcl {
    fn default() -> Self {
        Self::with_default(Action::Deny)
    }
}

impl CompiledAcl {
    /// Empty ACL compiled around the SDA deny default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty ACL folding `default` into the rows. Pick the fabric's
    /// configured default action — mismatched per-call defaults stay
    /// correct but pay an extra load.
    pub fn with_default(default: Action) -> Self {
        CompiledAcl {
            vns: Vec::new(),
            compiled_default: default,
            version: 0,
            counters: Arc::new(AclCounters::default()),
            rules: 0,
        }
    }

    /// Compiles `matrix` wholesale, folding in its default action.
    pub fn compile(matrix: &ConnectivityMatrix) -> Self {
        let mut acl = Self::with_default(matrix.default_action());
        acl.install_matrix(matrix);
        acl
    }

    /// The default action folded into the rows.
    #[cfg(test)]
    fn compiled_default(&self) -> Action {
        self.compiled_default
    }

    #[inline]
    fn fill(&self) -> u64 {
        match self.compiled_default {
            Action::Allow => !0u64,
            Action::Deny => 0,
        }
    }

    #[inline]
    fn vn_acl(&self, vn: VnId) -> Option<&VnAcl> {
        self.vns
            .binary_search_by_key(&vn, |(v, _)| *v)
            .ok()
            .map(|i| &*self.vns[i].1)
    }

    fn ensure_vn(&mut self, vn: VnId) -> usize {
        match self.vns.binary_search_by_key(&vn, |(v, _)| *v) {
            Ok(i) => i,
            Err(i) => {
                self.vns.insert(i, (vn, Arc::new(VnAcl::default())));
                i
            }
        }
    }

    /// Installs (merges) a rule subset — the SXP delta path. Only the
    /// VNs the subset touches are copied (`Arc::make_mut`); untouched
    /// VNs keep sharing rows with every published snapshot.
    pub fn install(&mut self, subset: &RuleSubset) {
        let fill = self.fill();
        let mut cur: Option<(VnId, usize)> = None;
        for (vn, rule) in &subset.rules {
            let i = match cur {
                Some((v, i)) if v == *vn => i,
                _ => {
                    let i = self.ensure_vn(*vn);
                    cur = Some((*vn, i));
                    i
                }
            };
            let slot = Arc::make_mut(&mut self.vns[i].1);
            if slot.set_cell(rule.src, rule.dst, rule.action, fill) {
                self.rules += 1;
            }
        }
        self.version = self.version.max(subset.version);
    }

    /// Replaces all rules with `subset` (full refresh).
    pub fn replace(&mut self, subset: &RuleSubset) {
        self.vns.clear();
        self.rules = 0;
        self.install(subset);
    }

    /// Compiles every explicit cell of `matrix` into the rows. The bulk
    /// path pre-sizes each VN's interner and rows exactly (no growth
    /// slack), so this is also what the memory budget is asserted on.
    pub fn install_matrix(&mut self, matrix: &ConnectivityMatrix) {
        let fill = self.fill();
        let mut groups = BTreeSet::new();
        for vn in matrix.vns() {
            groups.clear();
            for r in matrix.rules_of(vn) {
                groups.insert(r.src.0);
                groups.insert(r.dst.0);
            }
            let i = self.ensure_vn(vn);
            let slot = Arc::make_mut(&mut self.vns[i].1);
            slot.reserve_groups(&groups, fill);
            for r in matrix.rules_of(vn) {
                if slot.set_cell(r.src, r.dst, r.action, fill) {
                    self.rules += 1;
                }
            }
        }
        self.version = self.version.max(matrix.version());
    }

    /// Non-counting verdict (tests, planning): an explicit rule's
    /// action, else `default`.
    #[inline]
    pub fn check(&self, vn: VnId, src: GroupId, dst: GroupId, default: Action) -> Action {
        match self.vn_acl(vn) {
            Some(a) => a.verdict(src, dst, default, self.compiled_default),
            None => default,
        }
    }

    /// Counting verdict on `&self`: the data-plane entry point. The
    /// shared `Relaxed` counters make this legal from any snapshot.
    #[inline]
    pub fn enforce(&self, vn: VnId, src: GroupId, dst: GroupId, default: Action) -> Action {
        let action = self.check(vn, src, dst, default);
        self.counters.record(action);
        action
    }

    /// A per-VN view for the lockstep pass: probe the VN once per run,
    /// then each packet is one bit test.
    #[inline]
    pub fn vn_view(&self, vn: VnId) -> AclVnView<'_> {
        AclVnView {
            acl: self.vn_acl(vn),
            compiled_default: self.compiled_default,
            counters: &self.counters,
        }
    }

    /// Explicit rule count — the §5.3 "data plane state" metric.
    pub fn len(&self) -> usize {
        self.rules
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules == 0
    }

    /// `(allowed, dropped)` counters (shared across clones).
    pub fn counters(&self) -> (u64, u64) {
        self.counters.load()
    }

    /// Dropped-per-mille over all enforcement decisions (Fig. 12's
    /// y-axis). `None` before any traffic.
    pub fn drop_permille(&self) -> Option<f64> {
        let (allowed, dropped) = self.counters();
        let total = allowed + dropped;
        if total == 0 {
            return None;
        }
        Some(dropped as f64 * 1000.0 / total as f64)
    }

    /// Installed matrix version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clears rules, counters and version (edge reboot). The counter
    /// block is replaced, not zeroed, so previously published snapshots
    /// keep their totals.
    pub fn clear(&mut self) {
        self.vns.clear();
        self.rules = 0;
        self.version = 0;
        self.counters = Arc::new(AclCounters::default());
    }

    /// Decompiles into the installed rule list (every explicit cell,
    /// VN-ascending, under the installed version) — what the
    /// differential oracles seed their reference table from.
    pub fn rules(&self) -> RuleSubset {
        let mut rules = Vec::with_capacity(self.rules);
        for (vn, acl) in &self.vns {
            acl.for_each_rule(|r| rules.push((*vn, r)));
        }
        RuleSubset {
            version: self.version,
            rules,
        }
    }

    /// Compiled-memory accounting (capacities, not lengths).
    pub fn mem_stats(&self) -> CompiledMemStats {
        let mut stats = CompiledMemStats {
            vns: self.vns.len(),
            rules: self.rules,
            ..Default::default()
        };
        for (_, acl) in &self.vns {
            let (interner, rows) = acl.mem_bytes();
            stats.groups += acl.dense.len();
            stats.interner_bytes += interner;
            stats.row_bytes += rows;
        }
        stats.total_bytes = stats.interner_bytes
            + stats.row_bytes
            + self.vns.capacity() * std::mem::size_of::<(VnId, Arc<VnAcl>)>()
            + self.vns.len() * std::mem::size_of::<VnAcl>();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn subset(version: u64, rules: &[(u32, u16, u16, Action)]) -> RuleSubset {
        RuleSubset {
            version,
            rules: rules
                .iter()
                .map(|(v, s, d, a)| {
                    (
                        vn(*v),
                        GroupRule {
                            src: GroupId(*s),
                            dst: GroupId(*d),
                            action: *a,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn verdicts_match_reference_semantics() {
        let mut acl = CompiledAcl::new();
        acl.install(&subset(
            1,
            &[(1, 1, 2, Action::Allow), (1, 3, 2, Action::Deny)],
        ));
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            acl.check(vn(1), GroupId(3), GroupId(2), Action::Allow),
            Action::Deny
        );
        // Unmatched interned pair → caller default, both polarities.
        assert_eq!(
            acl.check(vn(1), GroupId(2), GroupId(1), Action::Deny),
            Action::Deny
        );
        assert_eq!(
            acl.check(vn(1), GroupId(2), GroupId(1), Action::Allow),
            Action::Allow
        );
        // Un-interned group / unknown VN → caller default.
        assert_eq!(
            acl.check(vn(1), GroupId(9), GroupId(2), Action::Allow),
            Action::Allow
        );
        assert_eq!(
            acl.check(vn(7), GroupId(1), GroupId(2), Action::Deny),
            Action::Deny
        );
    }

    #[test]
    fn enforce_counts_on_shared_ref() {
        let acl = {
            let mut a = CompiledAcl::new();
            a.install(&subset(1, &[(1, 1, 2, Action::Allow)]));
            a
        };
        assert_eq!(
            acl.enforce(vn(1), GroupId(1), GroupId(2), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            acl.enforce(vn(1), GroupId(5), GroupId(2), Action::Deny),
            Action::Deny
        );
        assert_eq!(acl.counters(), (1, 1));
        let pm = acl.drop_permille().unwrap();
        assert!((pm - 500.0).abs() < f64::EPSILON);
    }

    #[test]
    fn clone_shares_rows_and_counters() {
        let mut acl = CompiledAcl::new();
        acl.install(&subset(1, &[(1, 1, 2, Action::Allow)]));
        let published = acl.clone();
        // Counting on the snapshot is visible through the working copy.
        published.enforce(vn(1), GroupId(1), GroupId(2), Action::Deny);
        assert_eq!(acl.counters(), (1, 0));
        // A delta install copies the touched VN only; the snapshot keeps
        // its rules.
        acl.install(&subset(2, &[(1, 1, 2, Action::Deny)]));
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Allow),
            Action::Deny
        );
        assert_eq!(
            published.check(vn(1), GroupId(1), GroupId(2), Action::Allow),
            Action::Allow
        );
        // clear() detaches the counters; the snapshot's survive.
        acl.clear();
        assert_eq!(acl.counters(), (0, 0));
        assert_eq!(published.counters(), (1, 0));
    }

    #[test]
    fn delta_install_widens_without_remapping() {
        let mut acl = CompiledAcl::new();
        acl.install(&subset(1, &[(1, 0, 1, Action::Allow)]));
        // Push past one word and past the initial stride.
        let wide: Vec<(u32, u16, u16, Action)> = (0..200)
            .map(|d| (1u32, 0u16, d as u16, Action::Allow))
            .collect();
        acl.install(&subset(2, &wide));
        assert_eq!(acl.len(), 200);
        for d in 0..200u16 {
            assert_eq!(
                acl.check(vn(1), GroupId(0), GroupId(d), Action::Deny),
                Action::Allow,
                "dst {d}"
            );
        }
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(0), Action::Deny),
            Action::Deny
        );
        assert_eq!(acl.version(), 2);
    }

    #[test]
    fn install_overwrite_keeps_len_exact() {
        let mut acl = CompiledAcl::new();
        acl.install(&subset(1, &[(1, 1, 2, Action::Allow)]));
        acl.install(&subset(2, &[(1, 1, 2, Action::Deny)]));
        assert_eq!(acl.len(), 1);
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Allow),
            Action::Deny
        );
        acl.replace(&subset(3, &[(2, 5, 5, Action::Allow)]));
        assert_eq!(acl.len(), 1);
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Allow),
            Action::Allow
        );
    }

    #[test]
    fn allow_default_fold_matches_reference() {
        let mut m = ConnectivityMatrix::with_default(Action::Allow);
        m.set_rule(vn(1), GroupId(1), GroupId(2), Action::Deny);
        m.set_rule(vn(1), GroupId(3), GroupId(4), Action::Allow);
        let acl = CompiledAcl::compile(&m);
        assert_eq!(acl.compiled_default(), Action::Allow);
        // Fast path: caller default == compiled default.
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Allow),
            Action::Deny
        );
        assert_eq!(
            acl.check(vn(1), GroupId(2), GroupId(1), Action::Allow),
            Action::Allow
        );
        // Slow path: caller default differs — explicit cells still win,
        // non-explicit cells follow the caller.
        assert_eq!(
            acl.check(vn(1), GroupId(1), GroupId(2), Action::Deny),
            Action::Deny
        );
        assert_eq!(
            acl.check(vn(1), GroupId(3), GroupId(4), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            acl.check(vn(1), GroupId(2), GroupId(1), Action::Deny),
            Action::Deny
        );
    }

    #[test]
    fn vn_view_probes_once_per_run() {
        let mut acl = CompiledAcl::new();
        acl.install(&subset(1, &[(1, 1, 2, Action::Allow)]));
        let view = acl.vn_view(vn(1));
        assert_eq!(
            view.check(GroupId(1), GroupId(2), Action::Deny),
            Action::Allow
        );
        assert_eq!(
            view.enforce(GroupId(9), GroupId(2), Action::Deny),
            Action::Deny
        );
        assert_eq!(acl.counters(), (0, 1));
        // Unknown VN: every verdict is the caller default.
        let missing = acl.vn_view(vn(9));
        assert_eq!(
            missing.check(GroupId(1), GroupId(2), Action::Allow),
            Action::Allow
        );
    }

    #[test]
    fn bulk_compile_memory_is_quadratic_bits_not_map_nodes() {
        // 256 groups, full mesh of one source row each: rows must be
        // ~2 * 256 * ceil(256/64) * 8 bytes, far under a BTreeMap of
        // 256*256 entries.
        let mut m = ConnectivityMatrix::new();
        for s in 0..256u16 {
            for d in 0..256u16 {
                m.set_rule(vn(1), GroupId(s), GroupId(d), Action::Allow);
            }
        }
        let acl = CompiledAcl::compile(&m);
        let stats = acl.mem_stats();
        assert_eq!(stats.groups, 256);
        assert_eq!(stats.rules, 256 * 256);
        assert_eq!(stats.row_bytes, 2 * 256 * 4 * 8);
        assert!(stats.total_bytes < 64 * 1024, "{stats:?}");
    }
}
