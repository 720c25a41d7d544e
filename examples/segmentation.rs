//! Segmentation walk-through: the paper's hospital example (§3.2.1).
//!
//! Macro-segmentation: three VNs — clinical staff, guests, medical
//! devices — that can never reach each other. Micro-segmentation:
//! group rules inside the clinical VN. Also demonstrates the §5.4
//! policy-update trade-off calculator.
//!
//! Run with: `cargo run --release --example segmentation`

use sda_core::controller::FabricBuilder;
use sda_policy::{Population, UpdatePlan, UpdateStrategy};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, GroupId, Ipv4Prefix, PortId, RouterId, VnId};
use std::net::Ipv4Addr;

fn main() {
    let mut b = FabricBuilder::new(11);

    // ── Macro: three isolated VNs ─────────────────────────────────────
    let clinical = b.add_vn(
        10,
        Ipv4Prefix::new(Ipv4Addr::new(10, 10, 0, 0), 16).unwrap(),
    );
    let guests = b.add_vn(
        20,
        Ipv4Prefix::new(Ipv4Addr::new(10, 20, 0, 0), 16).unwrap(),
    );
    let devices = b.add_vn(
        30,
        Ipv4Prefix::new(Ipv4Addr::new(10, 30, 0, 0), 16).unwrap(),
    );

    // ── Micro: groups inside the clinical VN ─────────────────────────
    let doctors = GroupId(1);
    let nurses = GroupId(2);
    let records = GroupId(3); // the records system
    b.allow(clinical, doctors, records);
    b.allow(clinical, nurses, records);
    b.allow(clinical, doctors, nurses);
    b.allow(clinical, nurses, doctors);
    // Guests may chat among themselves; devices talk to nothing.
    let guest_g = GroupId(1);
    b.allow(guests, guest_g, guest_g);

    let e1 = b.add_edge("ward1");
    let e2 = b.add_edge("ward2");
    let _border = b.add_border("border", vec![]);

    let dr_house = b.mint_endpoint(clinical, doctors);
    let nurse_joy = b.mint_endpoint(clinical, nurses);
    let emr = b.mint_endpoint(clinical, records);
    let visitor = b.mint_endpoint(guests, guest_g);
    let mri = b.mint_endpoint(devices, GroupId(9)); // the outdated-OS MRI

    let mut f = b.build();
    let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);

    f.attach_at(ms(0), e1, dr_house, PortId(1));
    f.attach_at(ms(0), e1, visitor, PortId(2));
    f.attach_at(ms(0), e1, mri, PortId(3));
    f.attach_at(ms(0), e2, nurse_joy, PortId(1));
    f.attach_at(ms(0), e2, emr, PortId(2));
    f.run_until(ms(50));

    // Doctor reads a record: allowed.
    f.send_at(ms(100), e1, dr_house.mac, Eid::V4(emr.ipv4), 512, 1, false);
    // Visitor pokes at the records system: wrong VN — structurally dead.
    f.send_at(ms(100), e1, visitor.mac, Eid::V4(emr.ipv4), 512, 2, false);
    // MRI tries to reach the doctor: wrong VN again.
    f.send_at(ms(100), e1, mri.mac, Eid::V4(dr_house.ipv4), 512, 3, false);
    // Records system answers nobody spontaneously (no records→* rule).
    f.send_at(ms(100), e2, emr.mac, Eid::V4(nurse_joy.ipv4), 512, 4, false);
    f.run_until(ms(400));

    let delivered = f.edge(e2).stats().delivered;
    let denied = f.edge(e2).stats().policy_drops;
    println!("clinical delivery (doctor→records): {delivered}");
    println!("egress policy drops (records→nurse): {denied}");
    println!(
        "cross-VN attempts dead-ended at the border: {}",
        f.border(sda_core::controller::BorderHandle(0))
            .stats()
            .unroutable
    );
    assert_eq!(delivered, 1);
    assert_eq!(denied, 1);

    // ── §5.4: plan a policy update two ways ───────────────────────────
    // The hospital acquires a clinic: 60 new staff start in a
    // "probation" group across 2 edges; 30 matrix rules mention it.
    let mut pop = Population::new();
    pop.add(RouterId(1), VnId::new(10).unwrap(), GroupId(7), 40);
    pop.add(RouterId(2), VnId::new(10).unwrap(), GroupId(7), 20);
    let plan = UpdatePlan::acquisition(VnId::new(10).unwrap(), GroupId(7), doctors, 30);
    let mv = plan.signaling_messages(UpdateStrategy::MoveEndpoints, &pop);
    let rw = plan.signaling_messages(UpdateStrategy::RewriteRules, &pop);
    println!("\nacquisition rollout: move-endpoints={mv} msgs, rewrite-rules={rw} msgs");
    println!("cheaper strategy: {:?}", plan.cheaper_strategy(&pop));
}
