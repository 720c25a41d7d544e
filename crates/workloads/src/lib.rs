//! # sda-workloads
//!
//! Workload generators standing in for the paper's live deployments and
//! commercial traffic generator; each module's docs state what it
//! substitutes for:
//!
//! * [`CampusScenario`] — the diurnal campus model behind Fig. 9 / Table 5:
//!   Table 3/4 deployment shapes (buildings A and B), morning arrivals,
//!   evening departures, weekends, an always-on device share, favorite-
//!   peer traffic with popularity skew, and nighttime chatter toward
//!   departed endpoints (the building-B cache-cleaning effect).
//! * [`WarehouseParams`] / [`run_lisp`] / [`run_bgp`] — the massive-mobility model behind Fig. 11: 16,000
//!   endpoints over 200 edges, 800 moves/s flipping attachment between
//!   two physical edges, with measured movers receiving correspondent
//!   traffic; runs against both the reactive (`sda-core`) and proactive
//!   (`sda-bgp`) fabrics.
//! * [`MetroWorkload`] — the city-scale control-plane message stream (million-
//!   endpoint tier) driving the partitioned map-server benches.
//! * [`PoissonArrivals`] — Poisson arrival processes (Fig. 7c's offered load).
//! * [`ZipfSampler`] — popularity (Zipf) samplers shared by the models.
//! * [`ChaosScenario`] — the fault campaign (reboot storm, server restart
//!   mid-churn, roam storm on a lossy fabric) with a convergence
//!   verdict and probe round; the robustness counterpart of the
//!   measured workloads.
//!
//! Everything is seeded and deterministic.
//!
//! ## Surface
//!
//! The crate **is** its root: each model's parameters and scenario type
//! as listed above, with their reports. Every module is private. It
//! **is not** a fabric: the models drive `sda-core` (and `sda-bgp`)
//! through their public APIs and own no protocol state of their own.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod campus;
mod chaos;
mod metro;
mod queries;
mod traffic;
mod warehouse;

pub use campus::{CampusParams, CampusScenario};
pub use chaos::{ChaosOutcome, ChaosParams, ChaosScenario};
pub use metro::{MetroParams, MetroWorkload};
pub use queries::PoissonArrivals;
pub use traffic::ZipfSampler;
pub use warehouse::{run_bgp, run_lisp, HandoverSample, WarehouseParams};
