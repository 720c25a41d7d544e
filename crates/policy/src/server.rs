//! The policy server: authentication + matrix + distribution in one
//! addressable service.

use sda_types::{GroupId, MacAddr, VnId};

use crate::auth::{AuthMethod, AuthOutcome, AuthServer, Credential};
use crate::matrix::ConnectivityMatrix;
use crate::sxp::{egress_subset, RuleSubset};

/// The public, queryable part of an endpoint's policy state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EndpointProfile {
    /// Macro-segmentation VN.
    pub vn: VnId,
    /// Micro-segmentation group.
    pub group: GroupId,
}

/// What a successful onboarding hand-off to the edge router contains
/// (Fig. 3, step 2): the binding plus the egress rule subset for the
/// endpoint's group.
#[derive(Clone, Debug)]
pub struct OnboardingGrant {
    /// The endpoint's binding.
    pub profile: EndpointProfile,
    /// Rules where the endpoint's group is the destination.
    pub rules: RuleSubset,
    /// AAA round trips consumed (drives onboarding latency).
    pub auth_round_trips: u32,
}

/// The logically centralized policy server of Fig. 1.
#[derive(Default)]
pub struct PolicyServer {
    auth: AuthServer,
    matrix: ConnectivityMatrix,
}

impl PolicyServer {
    /// Creates an empty server (deny-by-default matrix).
    pub fn new() -> Self {
        PolicyServer::default()
    }

    /// Mutable access to the connectivity matrix (operator intent).
    pub fn matrix_mut(&mut self) -> &mut ConnectivityMatrix {
        &mut self.matrix
    }

    /// Read access to the connectivity matrix.
    pub fn matrix(&self) -> &ConnectivityMatrix {
        &self.matrix
    }

    /// Enrolls an endpoint: operator declares identity, secret and
    /// `(VN, group)` in one step (the declarative interface of §3.1).
    pub fn enroll(
        &mut self,
        identity: MacAddr,
        secret: u64,
        vn: VnId,
        group: GroupId,
        method: AuthMethod,
    ) {
        self.auth.enroll(identity, secret, vn, group, method);
    }

    /// Full onboarding exchange (Fig. 3 steps 1–2): authenticate, then
    /// return the binding and the egress rule subset for that group.
    pub fn onboard(&mut self, cred: &Credential) -> Option<OnboardingGrant> {
        let method = self.auth.method_of(cred.identity);
        match self.auth.authenticate(cred) {
            AuthOutcome::Accept { vn, group } => {
                let rules = egress_subset(&self.matrix, &[(vn, group)]);
                Some(OnboardingGrant {
                    profile: EndpointProfile { vn, group },
                    rules,
                    auth_round_trips: method.round_trips(),
                })
            }
            AuthOutcome::Reject => None,
        }
    }

    /// The egress rule subset for a set of locally attached bindings —
    /// what SXP pushes when an edge's population changes.
    pub fn rules_for_edge(&self, local: &[(VnId, GroupId)]) -> RuleSubset {
        egress_subset(&self.matrix, local)
    }

    /// The verdict for `src → dst` in `vn` (the authoritative check;
    /// edges enforce cached copies of it).
    #[cfg(test)]
    fn check(&self, vn: VnId, src: GroupId, dst: GroupId) -> crate::Action {
        self.matrix.check(vn, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    fn vn(n: u32) -> VnId {
        VnId::new(n).unwrap()
    }

    fn server_with_one_endpoint() -> (PolicyServer, MacAddr) {
        let mut s = PolicyServer::new();
        let mac = MacAddr::from_seed(1);
        s.enroll(mac, 99, vn(1), GroupId(2), AuthMethod::Simple);
        s.matrix_mut()
            .set_rule(vn(1), GroupId(1), GroupId(2), Action::Allow);
        s.matrix_mut()
            .set_rule(vn(1), GroupId(3), GroupId(2), Action::Deny);
        s.matrix_mut()
            .set_rule(vn(1), GroupId(2), GroupId(9), Action::Allow);
        (s, mac)
    }

    #[test]
    fn onboarding_returns_binding_and_destination_rules() {
        let (mut s, mac) = server_with_one_endpoint();
        let grant = s
            .onboard(&Credential {
                identity: mac,
                secret: 99,
            })
            .unwrap();
        assert_eq!(
            grant.profile,
            EndpointProfile {
                vn: vn(1),
                group: GroupId(2)
            }
        );
        assert_eq!(grant.auth_round_trips, 1);
        // Exactly the rules whose destination is group 2.
        assert_eq!(grant.rules.len(), 2);
        assert!(grant.rules.rules.iter().all(|(_, r)| r.dst == GroupId(2)));
    }

    #[test]
    fn onboarding_rejects_bad_secret() {
        let (mut s, mac) = server_with_one_endpoint();
        assert!(s
            .onboard(&Credential {
                identity: mac,
                secret: 0
            })
            .is_none());
    }

    #[test]
    fn check_delegates_to_matrix() {
        let (s, _) = server_with_one_endpoint();
        assert_eq!(s.check(vn(1), GroupId(1), GroupId(2)), Action::Allow);
        assert_eq!(s.check(vn(1), GroupId(3), GroupId(2)), Action::Deny);
        assert_eq!(s.check(vn(1), GroupId(4), GroupId(4)), Action::Deny);
    }
}
