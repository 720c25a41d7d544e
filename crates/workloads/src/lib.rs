//! # sda-workloads
//!
//! Workload generators standing in for the paper's live deployments and
//! commercial traffic generator; each module's docs state what it
//! substitutes for:
//!
//! * [`campus`] — the diurnal campus model behind Fig. 9 / Table 5:
//!   Table 3/4 deployment shapes (buildings A and B), morning arrivals,
//!   evening departures, weekends, an always-on device share, favorite-
//!   peer traffic with popularity skew, and nighttime chatter toward
//!   departed endpoints (the building-B cache-cleaning effect).
//! * [`warehouse`] — the massive-mobility model behind Fig. 11: 16,000
//!   endpoints over 200 edges, 800 moves/s flipping attachment between
//!   two physical edges, with measured movers receiving correspondent
//!   traffic; runs against both the reactive (`sda-core`) and proactive
//!   (`sda-bgp`) fabrics.
//! * [`metro`] — the city-scale control-plane message stream (million-
//!   endpoint tier) driving the partitioned map-server benches.
//! * [`policy_churn`] — Table 3's policy-update scenarios at fleet
//!   scale: SXP re-subset storms, enforcement-point flips and §5.4
//!   group-move vs rule-rewrite rollouts over hundreds of edges
//!   carrying compiled bitset ACLs, with exact fan-out accounting and
//!   a semantic convergence check.
//! * [`queries`] — Poisson arrival processes (Fig. 7c's offered load).
//! * [`traffic`] — popularity (Zipf) samplers shared by the models.
//! * [`chaos`] — the fault campaign (reboot storm, server restart
//!   mid-churn, roam storm on a lossy fabric) with a convergence
//!   verdict and probe round; the robustness counterpart of the
//!   measured workloads.
//!
//! Everything is seeded and deterministic.

#![forbid(unsafe_code)]

pub mod campus;
pub mod chaos;
pub mod metro;
pub mod policy_churn;
pub mod queries;
pub mod traffic;
pub mod warehouse;

pub use campus::{CampusParams, CampusScenario};
pub use chaos::{ChaosOutcome, ChaosParams, ChaosScenario};
pub use metro::{MetroParams, MetroWorkload};
pub use policy_churn::{
    ChurnEdge, FlipReport, PolicyChurnParams, PolicyChurnScenario, RolloutReport, StormReport,
};
pub use queries::PoissonArrivals;
pub use traffic::ZipfSampler;
pub use warehouse::{HandoverSample, WarehouseParams};
