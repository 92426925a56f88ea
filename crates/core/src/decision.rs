//! Routing decisions handed from the routing algorithm to the simulator.

use df_model::{RoutingState, VcId};
use df_topology::{GroupId, Port, RouterId};

/// Why the chosen output was selected — used by the statistics and by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Eject to the destination node.
    Ejection,
    /// Follow the minimal path.
    Minimal,
    /// Take (or head towards) a nonminimal global link.
    NonminimalGlobal,
    /// Take a nonminimal local detour.
    NonminimalLocal,
    /// Continue a previously committed nonminimal path (Valiant waypoint,
    /// pending global misroute or local detour).
    Continuation,
    /// The packet is unroutable: its minimal continuation is dead and no
    /// policy-legal live alternative exists (fault routing). The simulator
    /// removes the packet and accounts it in the dropped-on-fault counters;
    /// no output is requested.
    Discard,
}

/// A commitment the simulator must record on the packet **when the grant is
/// applied** (not at decision time: adaptive mechanisms re-evaluate their
/// decision every cycle until the packet actually wins the switch, so a
/// decision must not mutate the packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commitment {
    /// Nothing to record.
    None,
    /// Route through a Valiant-style intermediate router; `misroute` tells
    /// whether this counts as global misrouting for the statistics (true for
    /// VAL/PB nonminimal source routing).
    Intermediate {
        /// The intermediate router to visit before heading to the
        /// destination.
        router: RouterId,
        /// Whether the statistics should count the packet as globally
        /// misrouted.
        misroute: bool,
    },
    /// Commit to a nonminimal global link: `gateway` is the router of the
    /// current group owning it, `port` its global port.
    NonminimalGlobal {
        /// Router owning the nonminimal global link.
        gateway: RouterId,
        /// Global port of that router.
        port: Port,
    },
    /// Commit to a local detour through `router` in the current group.
    LocalDetour {
        /// The detour router.
        router: RouterId,
    },
    /// Fault re-commit: replace a committed nonminimal global link whose
    /// gateway link died with a live one. Unlike
    /// [`Commitment::NonminimalGlobal`] this may overwrite an existing
    /// commitment (the committed hop was never taken, so the one-misroute
    /// bound — counted in hops — is preserved).
    RecommitGlobal {
        /// Router of the current group owning the replacement link.
        gateway: RouterId,
        /// Global port of that router.
        port: Port,
    },
    /// Fault re-commit: drop a committed nonminimal global link whose
    /// gateway link died and continue minimally.
    AbandonNonminimal,
    /// Fault re-commit: replace a Valiant intermediate router whose path
    /// died with a live alternative.
    RecommitIntermediate {
        /// The replacement intermediate router.
        router: RouterId,
    },
    /// Fault re-commit: skip a Valiant intermediate router that can no
    /// longer be reached and head minimally to the destination.
    AbandonIntermediate,
    /// Fault re-commit: drop a committed local detour whose link died and
    /// continue minimally (the once-per-group detour budget stays spent).
    AbandonLocalDetour,
}

impl Commitment {
    /// Whether applying this commitment re-routes a previously committed
    /// packet around a failure (feeds the `recommitted_packets` counter).
    pub fn is_fault_recommit(&self) -> bool {
        matches!(
            self,
            Commitment::RecommitGlobal { .. }
                | Commitment::AbandonNonminimal
                | Commitment::RecommitIntermediate { .. }
                | Commitment::AbandonIntermediate
                | Commitment::AbandonLocalDetour
        )
    }

    /// Record this commitment on a granted head packet's routing state, as
    /// the simulator does when the grant is applied; `group` is the group of
    /// the router granting it.
    pub fn apply(self, routing: &mut RoutingState, group: GroupId) {
        match self {
            Commitment::None => {}
            Commitment::Intermediate { router, misroute } => {
                routing.commit_intermediate(router, misroute)
            }
            Commitment::NonminimalGlobal { gateway, port } => {
                routing.commit_nonminimal_global(gateway, port)
            }
            Commitment::LocalDetour { router } => routing.commit_local_detour(router, group),
            // fault re-commits: replace or abandon a committed continuation
            // whose link died
            Commitment::RecommitGlobal { gateway, port } => {
                routing.recommit_nonminimal_global(gateway, port)
            }
            Commitment::AbandonNonminimal => routing.abandon_nonminimal_global(),
            Commitment::RecommitIntermediate { router } => routing.recommit_intermediate(router),
            Commitment::AbandonIntermediate => routing.abandon_intermediate(),
            Commitment::AbandonLocalDetour => routing.abandon_local_detour(),
        }
    }
}

/// The output of a routing decision for one head packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Output port to request.
    pub output_port: Port,
    /// Downstream virtual channel to request on that output.
    pub output_vc: VcId,
    /// Classification of the decision.
    pub kind: DecisionKind,
    /// Commitment to apply to the packet when the request is granted.
    pub commitment: Commitment,
}

impl Decision {
    /// A plain minimal-path decision with no commitment.
    pub fn minimal(output_port: Port, output_vc: VcId) -> Self {
        Decision {
            output_port,
            output_vc,
            kind: DecisionKind::Minimal,
            commitment: Commitment::None,
        }
    }

    /// An ejection decision.
    pub fn ejection(output_port: Port) -> Self {
        Decision {
            output_port,
            output_vc: VcId(0),
            kind: DecisionKind::Ejection,
            commitment: Commitment::None,
        }
    }

    /// A discard decision: the packet is unroutable (fault routing). The
    /// port/VC fields are placeholders — the simulator never requests an
    /// output for a discarded packet.
    pub fn discard() -> Self {
        Decision {
            output_port: Port(0),
            output_vc: VcId(0),
            kind: DecisionKind::Discard,
            commitment: Commitment::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let d = Decision::minimal(Port(3), VcId(1));
        assert_eq!(d.output_port, Port(3));
        assert_eq!(d.output_vc, VcId(1));
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(d.commitment, Commitment::None);

        let e = Decision::ejection(Port(0));
        assert_eq!(e.kind, DecisionKind::Ejection);
        assert_eq!(e.output_vc, VcId(0));
    }

    #[test]
    fn discard_and_recommit_classification() {
        let d = Decision::discard();
        assert_eq!(d.kind, DecisionKind::Discard);
        assert_eq!(d.commitment, Commitment::None);
        assert!(!Commitment::None.is_fault_recommit());
        assert!(!Commitment::Intermediate {
            router: RouterId(1),
            misroute: true
        }
        .is_fault_recommit());
        for c in [
            Commitment::RecommitGlobal {
                gateway: RouterId(1),
                port: Port(5),
            },
            Commitment::AbandonNonminimal,
            Commitment::RecommitIntermediate {
                router: RouterId(2),
            },
            Commitment::AbandonIntermediate,
            Commitment::AbandonLocalDetour,
        ] {
            assert!(c.is_fault_recommit(), "{c:?}");
        }
    }
}
