//! The structured pipeline model and the per-pair ACL it decides with,
//! mounted as the siblings `pipeline.rs` expects, for the three tests
//! that hold the engine to them (`differential_oracle.rs`,
//! `prop_pipeline.rs`, `byte_path_scenario.rs`).

#[path = "../../../policy/tests/reference/group_acl.rs"]
pub mod group_acl;
pub mod pipeline;
