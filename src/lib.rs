//! Top-level integration crate for the SDA reproduction workspace.
//!
//! Re-exports every layer so downstream users (and the repo-level
//! integration tests under `tests/`) can depend on one crate. The layers,
//! bottom-up:
//!
//! * [`types`] — shared vocabulary (EIDs, RLOCs, prefixes, ids).
//! * [`simnet`] — deterministic discrete-event simulator and metrics.
//! * [`wire`] — packet formats (Ethernet/IP/UDP/VXLAN-GPO/LISP).
//! * [`policy`] — group-based segmentation policy and SXP.
//! * [`underlay`] — the underlay link-state protocol and its reachable set.
//! * [`bgp`] — the proactive host-route baseline the paper compares to.
//! * [`lisp`] — registry, map-cache, pub/sub, SMR.
//! * [`ctrl`] — the map-server (routing server): EID-partitioned shards,
//!   delta pub/sub, admission control.
//! * [`dataplane`] — the batched zero-copy VXLAN-GPO forwarding engine.
//! * [`core`] — edge/border routers, pipelines, controller.
//! * [`workloads`] — campus / warehouse traffic generators.

pub use sda_bgp as bgp;
pub use sda_core as core;
pub use sda_ctrl as ctrl;
pub use sda_dataplane as dataplane;
pub use sda_lisp as lisp;
pub use sda_policy as policy;
pub use sda_simnet as simnet;
pub use sda_types as types;
pub use sda_underlay as underlay;
pub use sda_wire as wire;
pub use sda_workloads as workloads;
