//! RADIUS-style endpoint authentication.
//!
//! The paper supports "different RADIUS-based authentication protocols,
//! both with EAP or without" (§3.2.1). What the rest of the system needs
//! from AAA is narrow: a credential check that, on success, yields the
//! endpoint's `(VN, GroupId)` binding and counts the message round-trips
//! (onboarding latency includes them). We model exactly that: a
//! credential store keyed by endpoint identity with per-method round-trip
//! counts (PAP = 1 exchange, EAP-TLS-ish = 3).

use std::collections::HashMap;

use sda_types::{GroupId, MacAddr, VnId};

/// An endpoint credential, presented during onboarding.
///
/// Identity is the endpoint MAC (dot1x/MAB style); the secret stands in
/// for whatever the concrete RADIUS method would verify.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Credential {
    /// The claiming endpoint's MAC address.
    pub identity: MacAddr,
    /// Shared secret / certificate fingerprint stand-in.
    pub secret: u64,
}

/// The authentication method, which determines round-trip count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AuthMethod {
    /// Single request/response exchange (PAP / MAB).
    #[default]
    Simple,
    /// EAP-style multi-exchange (identity, challenge, result).
    Eap,
}

impl AuthMethod {
    /// Number of request/response round trips to the policy server.
    pub const fn round_trips(self) -> u32 {
        match self {
            AuthMethod::Simple => 1,
            AuthMethod::Eap => 3,
        }
    }
}

/// Result of an authentication attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthOutcome {
    /// Accepted: the endpoint's segmentation binding.
    Accept {
        /// Virtual network the endpoint belongs to.
        vn: VnId,
        /// Micro-segmentation group.
        group: GroupId,
    },
    /// Rejected: unknown identity or bad secret.
    Reject,
}

struct Enrollment {
    secret: u64,
    vn: VnId,
    group: GroupId,
    method: AuthMethod,
}

/// The credential store plus verification logic.
#[derive(Default)]
pub struct AuthServer {
    enrolled: HashMap<MacAddr, Enrollment>,
    accepts: u64,
    rejects: u64,
}

impl AuthServer {
    /// Creates an empty store.
    pub fn new() -> Self {
        AuthServer::default()
    }

    /// Enrolls (or re-enrolls) an endpoint with its secret and binding.
    pub fn enroll(
        &mut self,
        identity: MacAddr,
        secret: u64,
        vn: VnId,
        group: GroupId,
        method: AuthMethod,
    ) {
        self.enrolled.insert(
            identity,
            Enrollment {
                secret,
                vn,
                group,
                method,
            },
        );
    }

    /// Moves an enrolled endpoint to a different group (the §5.4
    /// "change the endpoint's group" update primitive). Returns the old
    /// group if the endpoint exists.
    pub fn reassign_group(&mut self, identity: MacAddr, group: GroupId) -> Option<GroupId> {
        let e = self.enrolled.get_mut(&identity)?;
        Some(core::mem::replace(&mut e.group, group))
    }

    /// Verifies a credential.
    pub fn authenticate(&mut self, cred: &Credential) -> AuthOutcome {
        match self.enrolled.get(&cred.identity) {
            Some(e) if e.secret == cred.secret => {
                self.accepts += 1;
                AuthOutcome::Accept {
                    vn: e.vn,
                    group: e.group,
                }
            }
            _ => {
                self.rejects += 1;
                AuthOutcome::Reject
            }
        }
    }

    /// The configured method for an identity (Simple when unknown).
    pub fn method_of(&self, identity: MacAddr) -> AuthMethod {
        self.enrolled
            .get(&identity)
            .map(|e| e.method)
            .unwrap_or_default()
    }

    /// The binding an identity would receive, without authenticating.
    /// Used by re-authentication flows where the secret was already
    /// verified this session.
    pub fn binding_of(&self, identity: MacAddr) -> Option<(VnId, GroupId)> {
        self.enrolled.get(&identity).map(|e| (e.vn, e.group))
    }

    /// (accepted, rejected) attempt counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.accepts, self.rejects)
    }

    /// Number of enrolled endpoints.
    pub fn len(&self) -> usize {
        self.enrolled.len()
    }

    /// True when no endpoints are enrolled.
    pub fn is_empty(&self) -> bool {
        self.enrolled.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    #[test]
    fn accept_with_correct_secret() {
        let mut s = AuthServer::new();
        let mac = MacAddr::from_seed(1);
        s.enroll(mac, 42, vn(10), GroupId(5), AuthMethod::Simple);
        let out = s.authenticate(&Credential {
            identity: mac,
            secret: 42,
        });
        assert_eq!(
            out,
            AuthOutcome::Accept {
                vn: vn(10),
                group: GroupId(5)
            }
        );
        assert_eq!(s.stats(), (1, 0));
    }

    #[test]
    fn reject_wrong_secret_and_unknown() {
        let mut s = AuthServer::new();
        let mac = MacAddr::from_seed(1);
        s.enroll(mac, 42, vn(10), GroupId(5), AuthMethod::Simple);
        assert_eq!(
            s.authenticate(&Credential {
                identity: mac,
                secret: 41
            }),
            AuthOutcome::Reject
        );
        assert_eq!(
            s.authenticate(&Credential {
                identity: MacAddr::from_seed(2),
                secret: 42
            }),
            AuthOutcome::Reject
        );
        assert_eq!(s.stats(), (0, 2));
    }

    #[test]
    fn reassign_group_changes_future_accepts() {
        let mut s = AuthServer::new();
        let mac = MacAddr::from_seed(3);
        s.enroll(mac, 7, vn(1), GroupId(10), AuthMethod::Eap);
        assert_eq!(s.reassign_group(mac, GroupId(20)), Some(GroupId(10)));
        let out = s.authenticate(&Credential {
            identity: mac,
            secret: 7,
        });
        assert_eq!(
            out,
            AuthOutcome::Accept {
                vn: vn(1),
                group: GroupId(20)
            }
        );
        assert_eq!(s.reassign_group(MacAddr::from_seed(9), GroupId(1)), None);
    }

    #[test]
    fn method_round_trips() {
        assert_eq!(AuthMethod::Simple.round_trips(), 1);
        assert_eq!(AuthMethod::Eap.round_trips(), 3);
        let mut s = AuthServer::new();
        let mac = MacAddr::from_seed(5);
        s.enroll(mac, 1, vn(1), GroupId(1), AuthMethod::Eap);
        assert_eq!(s.method_of(mac), AuthMethod::Eap);
        assert_eq!(s.method_of(MacAddr::from_seed(6)), AuthMethod::Simple);
    }

    #[test]
    fn binding_without_auth() {
        let mut s = AuthServer::new();
        let mac = MacAddr::from_seed(8);
        s.enroll(mac, 1, vn(2), GroupId(3), AuthMethod::Simple);
        assert_eq!(s.binding_of(mac), Some((vn(2), GroupId(3))));
        assert_eq!(s.binding_of(MacAddr::from_seed(9)), None);
        assert_eq!(s.stats(), (0, 0), "binding_of must not count as auth");
    }
}
