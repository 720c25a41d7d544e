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
    pub(crate) const fn round_trips(self) -> u32 {
        match self {
            AuthMethod::Simple => 1,
            AuthMethod::Eap => 3,
        }
    }
}

/// Result of an authentication attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AuthOutcome {
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
pub(crate) struct AuthServer {
    enrolled: HashMap<MacAddr, Enrollment>,
}

impl AuthServer {
    /// Enrolls (or re-enrolls) an endpoint with its secret and binding.
    pub(crate) fn enroll(
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

    /// Verifies a credential.
    pub(crate) fn authenticate(&self, cred: &Credential) -> AuthOutcome {
        match self.enrolled.get(&cred.identity) {
            Some(e) if e.secret == cred.secret => AuthOutcome::Accept {
                vn: e.vn,
                group: e.group,
            },
            _ => AuthOutcome::Reject,
        }
    }

    /// The configured method for an identity (Simple when unknown).
    pub(crate) fn method_of(&self, identity: MacAddr) -> AuthMethod {
        self.enrolled
            .get(&identity)
            .map(|e| e.method)
            .unwrap_or_default()
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
        let mut s = AuthServer::default();
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
    }

    #[test]
    fn reject_wrong_secret_and_unknown() {
        let mut s = AuthServer::default();
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
    }

    #[test]
    fn method_round_trips() {
        assert_eq!(AuthMethod::Simple.round_trips(), 1);
        assert_eq!(AuthMethod::Eap.round_trips(), 3);
        let mut s = AuthServer::default();
        let mac = MacAddr::from_seed(5);
        s.enroll(mac, 1, vn(1), GroupId(1), AuthMethod::Eap);
        assert_eq!(s.method_of(mac), AuthMethod::Eap);
        assert_eq!(s.method_of(MacAddr::from_seed(6)), AuthMethod::Simple);
    }
}
