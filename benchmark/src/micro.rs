//! Microkernels: direct, repeated calls into one layer's public functions,
//! timed from here. They are workload-independent, so every traced run
//! reports the same set; `engine.rng.next_ns` doubles as the host
//! calibration kernel.

use std::hint::black_box;
use std::time::Instant;

use df_engine::{DeterministicRng, Encoder, Histogram};
use df_model::{NetworkConfig, Packet, PacketId, VcId};
use df_router::dissemination::{ectn_exchange_group, install_linkview_group, pb_exchange_group};
use df_router::{AllocationRequest, Allocator, ContentionCounters, Router};
use df_routing::minimal::minimal_output;
use df_routing::{RoutingAlgorithm, RoutingConfig, RoutingKind};
use df_sim::events::{Event, EventQueue};
use df_sim::{KernelMode, Network, SimulationConfig};
use df_topology::{
    Dragonfly, DragonflyParams, GatewayLiveness, GroupId, NodeId, Port, PortLayout, RouterId,
    Topology,
};
use df_traffic::{InjectionKind, Injector, PatternKind};

use crate::trace::median;

/// Median over `reps` repetitions of the nanoseconds one call of `op` takes,
/// each repetition timing `iters` back-to-back calls.
fn per_call_ns(reps: usize, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Like [`per_call_ns`] for an operation that consumes state: `prepare`
/// builds the input outside the timed section of every call.
fn per_prepared_call_ns<S>(
    reps: usize,
    iters: u64,
    mut prepare: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..iters {
                let mut state = prepare();
                let start = Instant::now();
                op(&mut state);
                total += start.elapsed().as_nanos();
                black_box(&state);
            }
            total as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Run every microkernel; `scale` divides the iteration counts (smoke runs).
pub fn run(scale: u64) -> Vec<(&'static str, f64)> {
    const REPS: usize = 5;
    let n = |iters: u64| (iters / scale).max(10);
    let mut out = Vec::new();

    // ---- engine ----
    let mut rng = DeterministicRng::new(1);
    out.push((
        "engine.rng.next_ns",
        per_call_ns(REPS, n(4_000_000), |_| {
            black_box(rng.next_u64());
        }),
    ));
    let mut hist = Histogram::new(0.0, 10_000.0, 1_000);
    out.push((
        "engine.histogram.record_ns",
        per_call_ns(REPS, n(4_000_000), |i| {
            hist.record(black_box((i % 9_000) as f64))
        }),
    ));
    black_box(hist.count());
    let words = n(1_000_000);
    let encode_ns = per_call_ns(REPS, 1, |_| {
        let mut e = Encoder::new();
        for w in 0..words {
            e.u64(black_box(w));
        }
        black_box(e.into_bytes().len());
    });
    out.push((
        "engine.codec.encode_mb_per_s",
        (words * 8) as f64 / 1e6 / (encode_ns * 1e-9),
    ));

    // ---- traffic ----
    let paper = Dragonfly::new(DragonflyParams::paper_table1());
    let pattern = PatternKind::Uniform.build(paper);
    let mut rng = DeterministicRng::new(2);
    out.push((
        "traffic.pattern.destination_ns",
        per_call_ns(REPS, n(2_000_000), |i| {
            black_box(pattern.destination(NodeId(i as u32 % 16_512), &mut rng));
        }),
    ));
    let mut injector = Injector::new(
        NodeId(0),
        InjectionKind::Bernoulli,
        0.01,
        8,
        DeterministicRng::new(3),
    );
    let mut next_id = 0;
    out.push((
        "traffic.injection.tick_ns",
        per_call_ns(REPS, n(4_000_000), |i| {
            black_box(injector.tick(i, &pattern, &mut next_id));
        }),
    ));

    // ---- core ----
    out.push((
        "core.minimal.minimal_output_ns",
        per_call_ns(REPS, n(2_000_000), |i| {
            let i = (i as u32).wrapping_mul(7_919);
            let router = RouterId(i % paper.num_routers());
            let node = NodeId(i.wrapping_mul(31) % paper.num_nodes());
            if paper.node_router(node) != router {
                black_box(minimal_output(&paper, router, node));
            }
        }),
    ));
    let medium = Dragonfly::new(DragonflyParams::medium());
    let network = NetworkConfig::paper_table1();
    let router = Router::new(RouterId(0), medium, network);
    let thresholds = RoutingConfig::calibrated_for(medium.params(), &network.vcs);
    for (name, kind) in [
        ("core.decision.decide_ns.base", RoutingKind::Base),
        ("core.decision.decide_ns.ectn", RoutingKind::Ectn),
        ("core.decision.decide_ns.pb", RoutingKind::PiggyBacking),
        ("core.decision.decide_ns.olm", RoutingKind::Olm),
    ] {
        let algorithm = RoutingAlgorithm::new(kind, thresholds);
        let mut rng = DeterministicRng::new(4);
        let packet = Packet::new(PacketId(0), NodeId(0), NodeId(900), 8, 0);
        out.push((
            name,
            per_call_ns(REPS, n(200_000), |_| {
                black_box(algorithm.decide(&router, Port(0), black_box(&packet), &mut rng));
            }),
        ));
    }

    // ---- router ----
    let mut allocator = Allocator::new(31);
    let requests: Vec<AllocationRequest> = (0..31u32)
        .flat_map(|port| {
            (0..3u8).map(move |vc| AllocationRequest {
                input_port: Port(port),
                input_vc: VcId(vc),
                output_port: Port((port * 7 + vc as u32) % 31),
                output_vc: VcId(0),
                size_phits: 8,
            })
        })
        .collect();
    let mut grants = Vec::new();
    out.push((
        "router.allocator.allocate_into_ns",
        per_call_ns(REPS, n(40_000), |_| {
            allocator.allocate_into(&requests, &mut grants, |_, _, _| true);
            black_box(grants.len());
        }),
    ));
    let mut counters = ContentionCounters::new(31);
    out.push((
        "router.contention.inc_dec_ns",
        per_call_ns(REPS, n(4_000_000), |i| {
            let port = Port(i as u32 % 31);
            counters.increment(port);
            counters.decrement(port);
        }),
    ));
    black_box(counters.total());
    // a paper-sized router: one packet into every input VC, then one ready
    // packet behind every output
    let pristine = Router::new(RouterId(0), paper, network);
    let layout = paper.layout();
    let input_vcs: Vec<(Port, VcId)> = Port::all(&layout)
        .flat_map(|port| {
            let vcs = pristine.input(port).num_vcs() as u8;
            (0..vcs).map(move |vc| (port, VcId(vc)))
        })
        .collect();
    let packet = |i: u64| Packet::new(PacketId(i), NodeId(0), NodeId(900), 8, 0);
    let receive_batch_ns = per_prepared_call_ns(
        REPS,
        n(3_000),
        || pristine.clone(),
        |router| {
            for (i, &(port, vc)) in input_vcs.iter().enumerate() {
                router.receive_packet(port, vc, packet(i as u64));
            }
        },
    );
    out.push((
        "router.router.receive_packet_ns",
        receive_batch_ns / input_vcs.len() as f64,
    ));
    let mut staged = pristine.clone();
    for port in Port::all(&layout) {
        staged
            .output_mut(port)
            .accept(packet(port.0 as u64), VcId(0), 0);
    }
    let mut sent = Vec::with_capacity(layout.radix() as usize);
    out.push((
        "router.router.transmit_into_ns",
        per_prepared_call_ns(
            REPS,
            n(3_000),
            || staged.clone(),
            |router| {
                sent.clear();
                router.transmit_outputs_into(1, &mut sent);
                black_box(sent.len());
            },
        ),
    ));

    // ---- router.dissemination (one paper-sized group) + linkstate ----
    let mut group: Vec<Router> = paper
        .routers_in_group(GroupId(0))
        .map(|id| Router::new(id, paper, network))
        .collect();
    let mut flags = Vec::new();
    out.push((
        "router.dissemination.pb_exchange_ns_per_group",
        per_call_ns(REPS, n(100_000), |_| {
            pb_exchange_group(&mut group, &mut flags)
        }),
    ));
    let mut sums = Vec::new();
    out.push((
        "router.dissemination.ectn_exchange_ns_per_group",
        per_call_ns(REPS, n(100_000), |_| {
            ectn_exchange_group(&mut group, &mut sums)
        }),
    ));
    let view = GatewayLiveness::new(&paper);
    out.push((
        "router.dissemination.install_linkview_ns_per_group",
        per_call_ns(REPS, n(1_000_000), |_| {
            install_linkview_group(&mut group, black_box(&view))
        }),
    ));
    let mut neighbour = GatewayLiveness::new(&paper);
    for j in 0..8 {
        neighbour.set_entry(GroupId(j), j, false);
    }
    let mut merged = GatewayLiveness::new(&paper);
    out.push((
        "topology.linkstate.merge_ns",
        per_call_ns(REPS, n(1_000_000), |_| {
            black_box(merged.merge_from(black_box(&neighbour)));
        }),
    ));

    // ---- sim.events ----
    let event = |i: u32| Event::CreditReturn {
        router: RouterId(i % 64),
        port: Port(i % 31),
        vc: VcId(0),
        phits: 8,
    };
    let mut due = Vec::new();
    let cycles = n(200_000);
    let churn_ns = per_call_ns(REPS, 1, |_| {
        let mut queue = EventQueue::with_horizon(128);
        for now in 0..cycles {
            for k in 0..4 {
                queue.schedule(now + 1 + (now * 7 + k) % 110, event((now + k) as u32));
            }
            queue.pop_due_into(now, &mut due);
            black_box(due.len());
        }
    });
    out.push((
        "sim.events.schedule_pop_ns_per_event",
        churn_ns / (cycles * 4) as f64,
    ));
    let mut queue = EventQueue::with_horizon(128);
    queue.schedule(u64::MAX / 2, event(0));
    let mut now = 0;
    out.push((
        "sim.events.empty_pop_ns",
        per_call_ns(REPS, n(4_000_000), |_| {
            now += 1;
            queue.pop_due_into(black_box(now), &mut due);
            black_box(due.len());
        }),
    ));

    // ---- sim.snapshot (medium network mid-run at load 0.3) ----
    let config = SimulationConfig::builder()
        .topology(DragonflyParams::medium())
        .network(network)
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.3)
        .seed(5)
        .kernel(KernelMode::Optimized)
        .build()
        .expect("benchmark configurations are valid");
    let mut net = Network::new(config.clone());
    for _ in 0..n(600) {
        net.step();
    }
    let mut bytes = Vec::new();
    out.push((
        "sim.snapshot.encode_ms",
        per_call_ns(REPS, 1, |_| bytes = net.snapshot()) * 1e-6,
    ));
    out.push(("sim.snapshot.bytes", bytes.len() as f64));
    out.push((
        "sim.snapshot.restore_ms",
        per_call_ns(REPS, 1, |_| {
            black_box(Network::restore(config.clone(), &bytes).expect("own snapshot restores"));
        }) * 1e-6,
    ));

    out
}
