//! In-transit adaptive mechanisms: OLM (credit-based baseline) and the
//! paper's Base, Hybrid and ECtN (contention-based).
//!
//! All four share the same misrouting *policy* (where nonminimal paths may be
//! taken, which candidates are considered, how deadlock is avoided); they
//! differ only in the *trigger* that decides when to leave the minimal path
//! and in how candidates are filtered. Each mechanism is an ordered list of
//! `Rule` rows (`rules()`), and one pipeline (`select`) runs them:
//!
//! | mechanism | rows, in order | a row fires when | a candidate passes when |
//! |-----------|----------------|------------------|-------------------------|
//! | OLM       | `Credit(50 %)` | always (the comparison is per candidate) | occupancy(candidate) ≤ 50 % × occupancy(minimal) |
//! | Base      | `Contention(th)` | counter(minimal) > th | counter(candidate) < th |
//! | Hybrid    | `Contention(th+1)`, `Credit(35 %)` | as above | as above, per the row that fired |
//! | ECtN      | at injection `Combined(th_c)`, then `Contention(th)` | combined(minimal link) > th_c | combined(candidate link) < th_c, own links only |
//!
//! Local misrouting (in the intermediate and destination groups) runs the
//! same rows against local output ports.

use df_engine::DeterministicRng;
use df_model::Packet;
use df_router::{CandidateLink, HeadPlan, Router};
use df_topology::{Port, PortClass, RouterId, Topology};

use crate::algorithms::common;
use crate::candidates::{local_candidates, table_candidates, unpack, LocalCandidate};
use crate::config::{RoutingConfig, HYBRID_CONGESTION_FRACTION, OLM_CONGESTION_FRACTION};
use crate::decision::{Commitment, Decision, DecisionKind};
use crate::kind::RoutingKind;
use crate::minimal::minimal_output;
use crate::trigger::{contention_allows_candidate, contention_exceeds, credit_comparison};
use crate::vcmap::{global_misroute_fits, local_detour_fits, vc_for_next_hop};

/// One row of the trigger table: a trigger on the minimal output paired
/// with the filter its candidates must pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// ECtN's group-wide combined counters, indexed by global link:
    /// combined(minimal link) > `th` fires, combined(candidate link) < `th`
    /// passes, and only the current router's own global links are candidates.
    Combined(u32),
    /// The router's own contention counters, indexed by output port:
    /// counter(minimal output) > `th` fires, counter(first hop) < `th` passes.
    Contention(u32),
    /// OLM's credit comparison, which has no separate trigger: a candidate
    /// passes when its occupancy is at most this fraction of the minimal
    /// output's.
    Credit(f64),
}

impl Rule {
    /// Whether the row's trigger fires on the minimal side — output `out`
    /// and, for a global selection, minimal global link `link`. A `dead`
    /// minimal side fires every row that applies.
    #[inline]
    fn fires(self, router: &Router, out: Port, link: Option<u32>, dead: bool) -> bool {
        match self {
            // a local selection has no combined counter to consult
            Rule::Combined(th) => {
                link.is_some_and(|j| dead || contention_exceeds(router.ectn().combined(j), th))
            }
            Rule::Contention(th) => dead || contention_exceeds(router.contention().get(out), th),
            Rule::Credit(_) => true,
        }
    }
}

/// The mechanism's rows of the trigger table, in the order [`select`] tries
/// them — the only place a mechanism's thresholds are read.
#[inline]
fn rules(kind: RoutingKind, config: &RoutingConfig, at_injection: bool) -> [Option<Rule>; 2] {
    use Rule::{Combined, Contention, Credit};
    match kind {
        RoutingKind::Base => [Some(Contention(config.contention_threshold)), None],
        RoutingKind::Ectn => [
            at_injection.then_some(Combined(config.ectn_combined_threshold)),
            Some(Contention(config.contention_threshold)),
        ],
        RoutingKind::Olm => [Some(Credit(OLM_CONGESTION_FRACTION)), None],
        RoutingKind::Hybrid => [
            Some(Contention(config.hybrid_contention_threshold)),
            Some(Credit(HYBRID_CONGESTION_FRACTION)),
        ],
        RoutingKind::Minimal | RoutingKind::Valiant | RoutingKind::PiggyBacking => [None, None],
    }
}

/// What [`select`] needs of a nonminimal candidate, global or local.
trait Candidate: Copy {
    /// Output port of the current router that starts the nonminimal path.
    fn first_hop(&self) -> Port;
    /// The group-level global link the candidate diverts onto — the index of
    /// its ECtN combined counter and of its link-view entry. `None` for a
    /// local detour.
    fn link(&self) -> Option<u32>;
}

impl Candidate for CandidateLink {
    #[inline]
    fn first_hop(&self) -> Port {
        Port(u32::from(self.first_hop))
    }
    #[inline]
    fn link(&self) -> Option<u32> {
        Some(self.link)
    }
}

impl Candidate for LocalCandidate {
    fn first_hop(&self) -> Port {
        self.port
    }
    fn link(&self) -> Option<u32> {
        None
    }
}

/// The minimal continuation a selection is weighed against.
struct MinimalSide {
    /// The minimal output port: its contention counter and occupancy feed
    /// the `Contention` and `Credit` rows.
    out: Port,
    /// The group's minimal global link, whose combined counter feeds the
    /// `Combined` row. `None` for a local selection.
    link: Option<u32>,
    /// The minimal continuation is dead, which is treated as infinitely
    /// contended: it fires every row. Always false on a healthy network.
    dead: bool,
}

/// The one liveness predicate every candidate scan shares: the candidate's
/// first hop is up at this router, and — for a global candidate — the
/// router's (possibly stale) gateway-liveness view marks the candidate link
/// of the current group up and, when the candidate diverts through an
/// intermediate group, that group's unique onward link towards the
/// destination group too. The view is pristine (all-up) for mechanisms
/// without a dissemination channel, so Base/OLM keep the PR-4
/// discover-at-gateway behaviour and healthy runs take the O(1) fast path.
fn is_live(router: &Router, packet: &Packet, cand: &impl Candidate) -> bool {
    if !router.link_is_up(cand.first_hop()) {
        return false;
    }
    let view = router.link_view();
    let Some(link) = cand.link() else {
        return true;
    };
    if view.all_up() {
        return true;
    }
    let topo = router.topology();
    let (my_group, dst_group) = (router.group(), topo.node_group(packet.dst));
    view.link_up(my_group, link)
        && match topo.global_link_target_group(my_group, link) {
            Some(target) if target != dst_group => {
                view.link_up(target, topo.group_link_to(target, dst_group))
            }
            _ => true,
        }
}

/// The candidate-selection pipeline of every mechanism, global and local:
/// try the rows in table order; for each row whose trigger fires on the
/// minimal side (a dead minimal side fires every row), keep the candidates
/// that pass the row's filter, are alive ([`is_live`]) and have downstream
/// space for the packet, and draw uniformly from the first non-empty
/// eligible set. A row that does not fire reads one counter, nothing else.
///
/// `candidates(own_links_only)` enumerates the candidates. After the first
/// local hop only the current router's own global links are eligible (the
/// PAR/OLM rule): taking a *second* local hop before the first global hop
/// would break the monotonic VC ordering that guarantees deadlock freedom.
/// A `Combined` row forces own-links-only regardless. Nothing is collected:
/// the eligible set is counted, then walked to the drawn candidate, and the
/// last first hop's verdict is remembered (candidates behind one gateway
/// share it and are enumerated back to back).
///
/// **RNG discipline** (the contract every pinned fingerprint rests on):
/// exactly one `rng.index(len)` per non-empty eligible set — the draw that
/// ends the selection — and none otherwise; rows that do not fire, or fire
/// on an empty eligible set, consume nothing.
fn select<C: Candidate, I: Iterator<Item = C> + Clone>(
    rows: [Option<Rule>; 2],
    router: &Router,
    packet: &Packet,
    min: MinimalSide,
    candidates: impl Fn(bool) -> I,
    rng: &mut DeterministicRng,
) -> Option<C> {
    for rule in rows.into_iter().flatten() {
        if !rule.fires(router, min.out, min.link, min.dead) {
            continue;
        }
        let layout = router.topology().layout();
        let own_links_only = matches!(rule, Rule::Combined(_)) || packet.routing.local_hops > 0;
        let q_min = match rule {
            Rule::Credit(_) => common::output_occupancy(router, min.out),
            _ => 0,
        };
        let min_dead = min.dead;
        let passes = move |c: &C| {
            let hop = c.first_hop();
            let row_passes = match rule {
                Rule::Combined(th) => c
                    .link()
                    .is_some_and(|j| contention_allows_candidate(router.ectn().combined(j), th)),
                Rule::Contention(th) => {
                    contention_allows_candidate(router.contention().get(hop), th)
                }
                Rule::Credit(fraction) => {
                    // the minimal output must hold a packet's worth: no
                    // misroute between two empty ports
                    let q_cand = common::output_occupancy(router, hop);
                    min_dead || credit_comparison(q_min, q_cand, fraction, packet.size_phits)
                }
            };
            row_passes
                && router.output(hop).can_accept(
                    vc_for_next_hop(packet, hop.class(&layout), router.config()),
                    packet.size_phits,
                )
        };
        // unless the row looks at the link itself, the last hop's verdict
        // holds for every candidate behind the same gateway
        let per_hop = !matches!(rule, Rule::Combined(_));
        let mut last = None;
        let eligible = candidates(own_links_only).filter(move |c| {
            let ok = match last {
                Some((hop, ok)) if per_hop && hop == c.first_hop() => ok,
                _ => {
                    let ok = passes(c);
                    last = Some((c.first_hop(), ok));
                    ok
                }
            };
            ok && is_live(router, packet, c)
        });
        if let Some(c) = common::pick_random(eligible, rng) {
            return Some(c);
        }
    }
    None
}

/// Whether `kind` has a trigger table and none of its rows fires for a head
/// with `plan` on a healthy router: both of [`decide`]'s selections would
/// then enumerate and draw nothing, leaving the planned minimal output.
#[inline]
pub(super) fn rows_quiet(
    kind: RoutingKind,
    config: &RoutingConfig,
    plan: &HeadPlan,
    router: &Router,
) -> bool {
    let link = plan
        .has(HeadPlan::GLOBAL_SCOPE)
        .then_some(u32::from(plan.min_link));
    let rows = rules(kind, config, plan.has(HeadPlan::AT_SOURCE));
    rows != [None, None]
        && (rows.into_iter().flatten()).all(|rule| !rule.fires(router, plan.output(), link, false))
}

/// The packet-static misroute scope of a head at `router` whose minimal
/// output is `min_out`: which families of nonminimal paths the shared
/// policy leaves open to it, as [`HeadPlan`] scope bits, plus the group's
/// minimal global link when the global family is open.
#[inline]
pub(super) fn scope(router: &Router, packet: &Packet, min_out: Port) -> (u8, u32) {
    let topo = router.topology();
    let net = router.config();
    let my_group = router.group();
    let src_group = topo.node_group(packet.src);
    let dst_group = topo.node_group(packet.dst);
    let mut scope = 0;
    let mut min_link = 0;
    if dst_group != my_group
        && my_group == src_group
        && global_misroute_fits(packet, net)
        && (packet.hops() == 0
            || (packet.routing.global_hops == 0 && packet.routing.local_hops <= 1))
    {
        scope |= HeadPlan::GLOBAL_SCOPE;
        min_link = topo.group_link_to(my_group, dst_group);
    }
    let remaining_locals_after_detour: u8 = if my_group == dst_group { 1 } else { 2 };
    if min_out.class(&topo.layout()) == PortClass::Local
        && my_group != src_group
        && packet.routing.local_misroute_allowed_in(my_group)
        && local_detour_fits(packet, remaining_locals_after_detour, net)
    {
        scope |= HeadPlan::LOCAL_SCOPE;
    }
    (scope, min_link)
}

/// The in-transit adaptive decision for OLM / Base / Hybrid / ECtN, for a
/// head whose misroute scope and minimal output are in `plan`.
pub(crate) fn decide(
    kind: RoutingKind,
    config: &RoutingConfig,
    plan: &HeadPlan,
    router: &Router,
    packet: &Packet,
    rng: &mut DeterministicRng,
) -> Decision {
    let topo = router.topology();
    let layout = topo.layout();
    let current = router.id();
    let net = router.config();
    let min_out = plan.output();
    // Fault routing: a dead minimal output fires every row and lifts the
    // already-misrouted veto below — the misroute budget is counted in
    // *hops taken* (global_hops), not intents, so a packet whose commitment
    // was abandoned at a dead gateway may select a replacement. Always
    // false on a healthy network.
    let min_dead = !router.link_is_up(min_out);
    let rows = rules(kind, config, plan.has(HeadPlan::AT_SOURCE));
    // whether a policy-legal alternative to a dead minimal output is alive
    // (merely congested, or vetoed by its row) — see the unroutable case
    let mut live_alternative = false;

    // ---------------- global misrouting ----------------
    if plan.has(HeadPlan::GLOBAL_SCOPE) && (!plan.has(HeadPlan::MISROUTED) || min_dead) {
        let min_link = u32::from(plan.min_link);
        let globals = |own_links_only| table_candidates(router, Some(min_link), own_links_only);
        // For the mechanisms with a link-state view (ECtN, and PB on its own
        // path) a minimal link the *view* marks dead fires the rows too,
        // even when the first hop towards its gateway is a healthy local
        // link — that is how source routers stop targeting dead gateway
        // groups.
        let view = router.link_view();
        let min = MinimalSide {
            out: min_out,
            link: Some(min_link),
            dead: min_dead || (!view.all_up() && view.marks_down(router.group(), min_link)),
        };
        if let Some(cand) = select(rows, router, packet, min, globals, rng) {
            let cand = unpack(router, cand);
            return Decision {
                output_port: cand.first_hop,
                output_vc: vc_for_next_hop(packet, cand.first_hop.class(&layout), net),
                kind: DecisionKind::NonminimalGlobal,
                commitment: Commitment::NonminimalGlobal {
                    gateway: cand.gateway,
                    port: cand.gateway_port,
                },
            };
        }
        live_alternative =
            min_dead && globals(packet.routing.local_hops > 0).any(|c| is_live(router, packet, &c));
    }

    // ---------------- local misrouting ----------------
    if plan.has(HeadPlan::LOCAL_SCOPE) {
        // the router the minimal local hop would reach — excluded from detours
        let min_target = topo.local_neighbor(current, min_out.class_offset(&layout));
        let locals = |_own_links_only| local_candidates(topo, current, Some(min_target));
        let min = MinimalSide {
            out: min_out,
            link: None,
            dead: min_dead,
        };
        if let Some(cand) = select(rows, router, packet, min, locals, rng) {
            return Decision {
                output_port: cand.port,
                output_vc: vc_for_next_hop(packet, PortClass::Local, net),
                kind: DecisionKind::NonminimalLocal,
                commitment: Commitment::LocalDetour {
                    router: cand.router,
                },
            };
        }
        live_alternative =
            live_alternative || (min_dead && locals(false).any(|c| is_live(router, packet, &c)));
    }

    // ---------------- fault: unroutable packets ----------------
    // The minimal continuation is dead and neither misroute family produced
    // an escape. If at least one policy-legal alternative is merely
    // *congested* (a live candidate exists), keep requesting the minimal
    // port — the allocator refuses dead ports, so the packet waits and the
    // decision is re-evaluated next cycle. If no live alternative can ever
    // exist (e.g. a globally-misrouted packet whose unique onward global
    // link died — any other path would need a third global hop, which the
    // VC ladder cannot carry), the packet is unroutable: discard it so the
    // network stays live, with exact conservation through the
    // dropped-on-fault counters.
    if min_dead && !live_alternative {
        return Decision::discard();
    }

    // ---------------- default: minimal ----------------
    Decision::minimal(min_out, plan.vc)
}

/// Fault re-commit for a packet whose committed nonminimal gateway link
/// died: drop the commitment and re-run the mechanism's candidate
/// *selection* with the dead option filtered. The misroute trigger is
/// treated as already fired — the packet committed to a nonminimal path
/// once; its option dying does not un-fire that decision — so only the
/// per-candidate filters run (liveness, link-state view, the mechanism's
/// candidate-side contention cap, downstream space).
///
/// Deadlock freedom: the packet has taken no global hop yet
/// (`global_hops == 0` while a nonminimal-global commitment is pending), so
/// the re-committed path re-enters the escape-VC ladder at exactly the rung
/// the original commitment occupied — `G0` directly when the packet already
/// spent its single pre-global local hop (the own-links-only restriction
/// enforces this), or `L0 → G0` when it has not. No VC is ever revisited,
/// so the channel dependency graph stays acyclic. The minimal fallback
/// obeys the same rule: it is taken only when it needs no second pre-global
/// local hop.
///
/// `stalled` is the continuation the caller would otherwise have issued;
/// it is returned when live-but-congested alternatives exist, so the packet
/// waits and re-decides next cycle. A packet with no live, view-viable
/// option at all is discarded as unroutable.
pub(crate) fn recommit_global(
    kind: RoutingKind,
    config: &RoutingConfig,
    router: &Router,
    packet: &Packet,
    committed: (RouterId, Port),
    stalled: Decision,
    rng: &mut DeterministicRng,
) -> Decision {
    debug_assert_eq!(
        packet.routing.global_hops, 0,
        "a pending nonminimal-global commitment implies no global hop yet"
    );
    let topo = router.topology();
    let layout = topo.layout();
    let current = router.id();
    let my_group = topo.router_group(current);
    let dst_group = topo.node_group(packet.dst);
    let net = router.config();
    let min_out = minimal_output(topo, current, packet.dst);
    let min_class = min_out.class(&layout);
    let min_link = topo.group_link_to(my_group, dst_group);
    let own_only = packet.routing.local_hops > 0;

    // the replacement candidates: everything the original selection could
    // have chosen, minus the dead option and anything else dead — locally
    // or per the link-state view
    let fits = global_misroute_fits(packet, net);
    let mut viable = table_candidates(router, Some(min_link), own_only).filter(|c| {
        let cand = unpack(router, *c);
        fits && (cand.gateway, cand.gateway_port) != committed && is_live(router, packet, c)
    });

    // the mechanism's candidate-side cap, read off its table rows
    // (Base/ECtN/Hybrid contention; OLM has none beyond liveness), plus
    // downstream space
    let cap = rules(kind, config, false)
        .into_iter()
        .find_map(|rule| match rule {
            Some(Rule::Contention(th)) => Some(th),
            _ => None,
        });
    let eligible = viable.clone().filter(|c| {
        let hop = c.first_hop();
        cap.is_none_or(|th| contention_allows_candidate(router.contention().get(hop), th))
            && router.output(hop).can_accept(
                vc_for_next_hop(packet, hop.class(&layout), net),
                packet.size_phits,
            )
    });
    if let Some(cand) = common::pick_random(eligible, rng) {
        let cand = unpack(router, cand);
        return Decision {
            output_port: cand.first_hop,
            output_vc: vc_for_next_hop(packet, cand.first_hop.class(&layout), net),
            kind: DecisionKind::NonminimalGlobal,
            commitment: Commitment::RecommitGlobal {
                gateway: cand.gateway,
                port: cand.gateway_port,
            },
        };
    }

    // minimal fallback — only when VC-feasible: a packet that already spent
    // its pre-global local hop may not take another one, so minimal is an
    // option only from the minimal gateway itself (or before any hop)
    let minimal_feasible = packet.routing.local_hops == 0 || min_class == PortClass::Global;
    let minimal_usable = minimal_feasible
        && router.link_is_up(min_out)
        && !router.link_view().marks_down(my_group, min_link);
    if minimal_usable {
        return Decision {
            output_port: min_out,
            output_vc: vc_for_next_hop(packet, min_class, net),
            kind: DecisionKind::Continuation,
            commitment: Commitment::AbandonNonminimal,
        };
    }

    // live candidates exist but are congested right now: wait on the
    // stalled continuation and re-decide next cycle; with no live,
    // view-viable option at all the packet is unroutable
    if viable.next().is_some() {
        stalled
    } else {
        Decision::discard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{NetworkConfig, PacketId, VcId};
    use df_topology::{Dragonfly, DragonflyParams, GroupId, NodeId, RouterId};

    fn router(id: u32) -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(id), topo, NetworkConfig::fast_test())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    fn config_small() -> RoutingConfig {
        // threshold 3, calibrated for the small network used in these tests
        RoutingConfig::default().with_contention_threshold(3)
    }

    fn rng() -> DeterministicRng {
        DeterministicRng::new(99)
    }

    /// The whole decision — plan, then the adaptive rules — for a packet
    /// with no pending commitment.
    fn decide(
        kind: RoutingKind,
        config: &RoutingConfig,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        crate::RoutingAlgorithm::new(kind, *config).decide(router, input_port, packet, rng)
    }

    #[test]
    fn the_trigger_table_row_by_row() {
        use Rule::{Combined, Contention, Credit};
        // the paper's Table I: th = 6, Hybrid th + 1 = 7, ECtN combined 10;
        // credit fractions 50 % (OLM) and 35 % (Hybrid)
        let cfg = RoutingConfig::paper_table1();
        let rows = |kind, at_injection| {
            let rows = rules(kind, &cfg, at_injection);
            rows.into_iter().flatten().collect::<Vec<_>>()
        };
        for at_injection in [true, false] {
            assert_eq!(rows(RoutingKind::Minimal, at_injection), []);
            assert_eq!(rows(RoutingKind::Valiant, at_injection), []);
            assert_eq!(rows(RoutingKind::PiggyBacking, at_injection), []);
            assert_eq!(rows(RoutingKind::Olm, at_injection), [Credit(0.50)]);
            assert_eq!(rows(RoutingKind::Base, at_injection), [Contention(6)]);
            assert_eq!(
                rows(RoutingKind::Hybrid, at_injection),
                [Contention(7), Credit(0.35)]
            );
        }
        // ECtN is Base plus the combined-counter row, at injection only
        assert_eq!(rows(RoutingKind::Ectn, true), [Combined(10), Contention(6)]);
        assert_eq!(rows(RoutingKind::Ectn, false), [Contention(6)]);
    }

    #[test]
    fn base_routes_minimally_without_contention() {
        let r = router(0);
        let p = packet(0, 40);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(0),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(
            d.output_port,
            minimal_output(r.topology(), r.id(), NodeId(40))
        );
    }

    #[test]
    fn base_misroutes_when_the_minimal_counter_exceeds_the_threshold() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // simulate 4 head packets demanding the minimal output (> th = 3):
        // register them through input VCs as the simulator would
        let mut queued = 0;
        'fill: for port in 0..r.num_ports() as u32 {
            let class = Port(port).class(&r.topology().layout());
            if class == PortClass::Global {
                continue; // keep it simple: injection and local inputs
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 40));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                queued += 1;
                if queued > 3 {
                    break 'fill;
                }
            }
        }
        assert!(r.contention().get(min_out) > cfg.contention_threshold);
        let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        assert_ne!(d.output_port, min_out, "must leave the contended port");
        match d.commitment {
            Commitment::NonminimalGlobal { gateway, port } => {
                // the committed link must not lead to the destination group
                let topo = r.topology();
                let j = topo.global_link_index(gateway, port.class_offset(&topo.layout()));
                let target = topo
                    .global_link_target_group(GroupId(0), j)
                    .expect("candidate link is wired");
                assert_ne!(target, topo.node_group(NodeId(40)));
                assert_ne!(target, GroupId(0));
            }
            other => panic!("expected a nonminimal-global commitment, got {other:?}"),
        }
    }

    #[test]
    fn base_does_not_misroute_packets_that_already_misrouted() {
        let mut r = router(0);
        let mut p = packet(0, 40);
        p.routing.flags.global = true; // already went nonminimal
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // heavy synthetic contention on the minimal output
        for _ in 0..(cfg.contention_threshold + 3) {
            r.contention_mut().increment(min_out);
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(2), &p, &mut rng());
        assert_ne!(d.kind, DecisionKind::NonminimalGlobal);
    }

    #[test]
    fn olm_misroutes_on_occupancy_imbalance() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = RoutingConfig::default();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // make the minimal output look congested by staging packets on it
        for _ in 0..3 {
            if r.output(min_out).can_accept(VcId(0), 8) {
                r.output_mut(min_out).accept(packet(0, 40), VcId(0), 0);
            }
        }
        assert!(common::output_occupancy(&r, min_out) >= 8);
        let d = decide(RoutingKind::Olm, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
    }

    #[test]
    fn olm_stays_minimal_when_everything_is_empty() {
        let r = router(0);
        let p = packet(0, 40);
        let d = decide(
            RoutingKind::Olm,
            &RoutingConfig::default(),
            &r,
            Port(0),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn hybrid_fires_on_either_trigger() {
        // credit trigger only (counters stay low)
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        for _ in 0..3 {
            if r.output(min_out).can_accept(VcId(0), 8) {
                r.output_mut(min_out).accept(packet(0, 40), VcId(0), 0);
            }
        }
        let d = decide(RoutingKind::Hybrid, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(
            d.kind,
            DecisionKind::NonminimalGlobal,
            "credit rule should fire"
        );

        // contention trigger only (outputs empty, counters high)
        let mut r2 = router(0);
        let min_out2 = minimal_output(r2.topology(), r2.id(), NodeId(40));
        let mut registered = 0;
        'outer: for port in 0..r2.num_ports() as u32 {
            if Port(port).class(&r2.topology().layout()) == PortClass::Global {
                continue;
            }
            for vc in 0..r2.input(Port(port)).num_vcs() {
                r2.receive_packet(Port(port), VcId(vc as u8), packet(0, 40));
                r2.register_head(Port(port), VcId(vc as u8), min_out2, None);
                registered += 1;
                if registered > cfg.hybrid_contention_threshold {
                    break 'outer;
                }
            }
        }
        let d2 = decide(RoutingKind::Hybrid, &cfg, &r2, Port(0), &p, &mut rng());
        assert_eq!(
            d2.kind,
            DecisionKind::NonminimalGlobal,
            "contention rule should fire"
        );
    }

    #[test]
    fn ectn_misroutes_at_injection_from_combined_counters() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = RoutingConfig {
            ectn_combined_threshold: 5,
            ..config_small()
        };
        let topo = *r.topology();
        let dst_group = topo.node_group(NodeId(40));
        let min_link = topo.group_link_to(GroupId(0), dst_group);
        // install a combined array showing heavy contention on the minimal link
        let mut combined = vec![0u32; topo.global_links_per_group() as usize];
        combined[min_link as usize] = 9;
        r.ectn_mut().install_combined_from(&combined);
        let d = decide(RoutingKind::Ectn, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        // ECtN at injection restricts candidates to the current router's own
        // global links
        assert_eq!(
            d.output_port.class(&topo.layout()),
            PortClass::Global,
            "injection misroute must use an own global link"
        );
        match d.commitment {
            Commitment::NonminimalGlobal { gateway, .. } => assert_eq!(gateway, r.id()),
            other => panic!("unexpected commitment {other:?}"),
        }
    }

    #[test]
    fn ectn_without_combined_contention_behaves_like_base() {
        let r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let d = decide(RoutingKind::Ectn, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn local_misroute_in_destination_group() {
        // a packet that already crossed its global hop and now faces a
        // contended local port in the destination group
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(70); // group 8
        let dst_router = topo.node_router(dst);
        let dst_group = topo.router_group(dst_router);
        // pick a router in the destination group different from dst_router
        let entry = topo
            .routers_in_group(dst_group)
            .find(|&r| r != dst_router)
            .unwrap();
        let mut r = Router::new(entry, topo, NetworkConfig::fast_test());
        let mut p = packet(0, 70);
        p.routing.local_hops = 1;
        p.routing.global_hops = 1;
        p.routing.flags.global = false;
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), dst);
        assert_eq!(min_out.class(&r.topology().layout()), PortClass::Local);
        // build contention on the minimal local port
        let mut registered = 0;
        'outer: for port in 0..r.num_ports() as u32 {
            if Port(port).class(&r.topology().layout()) == PortClass::Global {
                continue;
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 70));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                registered += 1;
                if registered > cfg.contention_threshold {
                    break 'outer;
                }
            }
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(5), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalLocal);
        assert!(matches!(d.commitment, Commitment::LocalDetour { .. }));
        assert_ne!(d.output_port, min_out);
    }

    #[test]
    fn local_misroute_respects_one_per_group_rule() {
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(70);
        let dst_router = topo.node_router(dst);
        let dst_group = topo.router_group(dst_router);
        let entry = topo
            .routers_in_group(dst_group)
            .find(|&r| r != dst_router)
            .unwrap();
        let mut r = Router::new(entry, topo, NetworkConfig::fast_test());
        let mut p = packet(0, 70);
        p.routing.local_hops = 2;
        p.routing.global_hops = 1;
        p.routing.local_misrouted_in = Some(dst_group); // already detoured here
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), dst);
        let mut registered = 0;
        'outer: for port in 0..r.num_ports() as u32 {
            if Port(port).class(&r.topology().layout()) == PortClass::Global {
                continue;
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 70));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                registered += 1;
                if registered > cfg.contention_threshold {
                    break 'outer;
                }
            }
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(5), &p, &mut rng());
        assert_ne!(
            d.kind,
            DecisionKind::NonminimalLocal,
            "only one local detour per group is allowed"
        );
    }

    #[test]
    fn dead_minimal_link_fires_the_misroute_trigger_without_contention() {
        // no contention anywhere, but the minimal output's link is down:
        // every adaptive mechanism must immediately steer around it
        for kind in [
            RoutingKind::Base,
            RoutingKind::Ectn,
            RoutingKind::Olm,
            RoutingKind::Hybrid,
        ] {
            let mut r = router(0);
            let p = packet(0, 40);
            let cfg = config_small();
            let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
            r.set_link_up(min_out, false);
            let d = decide(kind, &cfg, &r, Port(0), &p, &mut rng());
            assert_eq!(
                d.kind,
                DecisionKind::NonminimalGlobal,
                "{kind:?} must misroute around a dead minimal link"
            );
            assert_ne!(d.output_port, min_out);
            assert!(r.link_is_up(d.output_port), "the chosen port must be alive");
        }
    }

    #[test]
    fn dead_candidate_links_are_filtered_from_the_eligible_set() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // fail the minimal link AND every alternative except one local port
        let params = r.topology().layout();
        let mut kept = None;
        for port in 0..r.num_ports() as u32 {
            let port = Port(port);
            if port.class(&params) == PortClass::Terminal || port == min_out {
                continue;
            }
            if kept.is_none() && port.class(&params) == PortClass::Local {
                kept = Some(port);
                continue;
            }
            r.set_link_up(port, false);
        }
        r.set_link_up(min_out, false);
        let kept = kept.expect("one live local port");
        for _ in 0..50 {
            let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
            if d.kind == DecisionKind::NonminimalGlobal {
                assert_eq!(d.output_port, kept, "only the live candidate is eligible");
            }
        }
    }

    #[test]
    fn committed_gateway_with_a_dead_link_recommits_to_a_live_candidate() {
        // a packet committed to router 0's own global port 5, sitting at
        // router 0, when that link dies: the full decision path must replace
        // the commitment with a live candidate
        let mut r = router(0);
        let mut p = packet(0, 40); // destination group 5 (remote)
        let dead_port = df_topology::Port::global(&r.topology().layout(), 0);
        p.routing.commit_nonminimal_global(RouterId(0), dead_port);
        r.set_link_up(dead_port, false);
        let algo = crate::RoutingAlgorithm::new(RoutingKind::Base, config_small());
        let d = algo.decide(&r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        match d.commitment {
            Commitment::RecommitGlobal { gateway, port } => {
                assert!(
                    (gateway, port) != (RouterId(0), dead_port),
                    "must not re-commit to the dead link"
                );
            }
            other => panic!("expected a re-commit, got {other:?}"),
        }
        assert!(r.link_is_up(d.output_port), "the first hop must be alive");
    }

    #[test]
    fn globally_misrouted_packet_with_dead_unique_continuation_is_discarded() {
        // the ADV-cut2 class: a packet that already took its nonminimal
        // global hop sits in an intermediate group whose unique onward
        // global link towards the destination group is dead — any other
        // path would need a third global hop, which the VC ladder cannot
        // carry, so the packet is unroutable
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(40); // group 5
        let dst_group = topo.node_group(dst);
        // put the packet at the gateway of group 0 towards the destination
        // group, pretending it misrouted into group 0
        let (gw, gport) = topo.gateway_to(GroupId(0), dst_group);
        let mut r = Router::new(gw, topo, NetworkConfig::fast_test());
        let mut p = packet(70, 40); // source in another group
        p.routing.global_hops = 1;
        p.routing.local_hops = 1;
        p.routing.flags.global = true;
        r.set_link_up(gport, false);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(5),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Discard);
        // with the link alive the same packet routes minimally
        r.set_link_up(gport, true);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(5),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(d.output_port, gport);
    }

    #[test]
    fn candidates_with_counters_over_threshold_are_filtered_out() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // contend the minimal output AND every alternative output
        for port in 0..r.num_ports() as u32 {
            let class = Port(port).class(&r.topology().layout());
            if class == PortClass::Terminal {
                continue;
            }
            for _ in 0..(cfg.contention_threshold + 1) {
                r.contention_mut().increment(Port(port));
            }
        }
        assert!(r.contention().get(min_out) > cfg.contention_threshold);
        let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
        // with every candidate saturated the packet must stay minimal
        assert_eq!(d.kind, DecisionKind::Minimal);
    }
}
