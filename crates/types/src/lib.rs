//! # sda-types
//!
//! Shared vocabulary for the SDA (Software Defined Access) reproduction:
//! identifiers, endpoint identities, locators and prefixes used across the
//! control plane (`sda-lisp`, `sda-policy`) and data plane (`sda-core`).
//!
//! The type layer deliberately mirrors the paper's terminology:
//!
//! * [`VnId`] — 24-bit Virtual Network identifier ("macro" segmentation,
//!   carried in the VXLAN VNI field).
//! * [`GroupId`] — 16-bit scalable group tag ("micro" segmentation, carried
//!   in the VXLAN-GPO group field).
//! * [`Eid`] — overlay Endpoint IDentifier: an IPv4, IPv6 or MAC address.
//!   SDA registers all three per endpoint (§4.1: "Each endpoint requires
//!   registering 3 routes (IPv4, IPv6 and MAC addresses)").
//! * [`Rloc`] — underlay Routing LOCator, the IP of the edge router that
//!   currently serves an endpoint.
//!
//! All types are `Copy` where possible, order-able so they can key sorted
//! maps, and have compact `Display` impls for harness output.
//!
//! ## Surface
//!
//! The crate **is** its root: the identifiers and prefixes above, the
//! shared [`Error`], and the one hashing convention every exact-match
//! table in the fabric keys by ([`EidKey`], [`KeyHasher`],
//! [`fold_eid`], plus [`reserved_bytes`] and [`MemStats`] for the
//! tables' memory figures). Every module is private. It **is not** a
//! protocol or state crate: nothing here parses bytes, owns a table or
//! knows the simulator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod eid;
mod error;
mod hash;
mod ids;
mod prefix;

pub use eid::{Eid, EidKind, MacAddr, Rloc};
pub use error::{Error, Result};
pub use hash::{fold_eid, reserved_bytes, row_digest, EidKey, KeyHasher, MemStats};
pub use ids::{GroupId, PortId, RouterId, VnId};
pub use prefix::{EidPrefix, Ipv4Prefix, Ipv6Prefix, MacPrefix};
