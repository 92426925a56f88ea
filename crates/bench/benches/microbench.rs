//! Microbenchmarks of the building blocks on the simulator's critical path:
//! contention-counter updates, routing decisions, topology queries, the
//! separable allocator and the per-cycle simulator step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use df_engine::DeterministicRng;
use df_model::{NetworkConfig, Packet, PacketId, VcId};
use df_router::{AllocationRequest, Allocator, ContentionCounters, Router};
use df_routing::{RoutingAlgorithm, RoutingConfig, RoutingKind};
use df_sim::events::{Event, EventQueue};
use df_sim::{KernelMode, Network, SimulationConfig};
use df_topology::{Dragonfly, DragonflyParams, NodeId, Port, RouterId};
use df_traffic::PatternKind;
use std::hint::black_box;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1_000));
}

fn contention_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_counters");
    configure(&mut group);
    group.bench_function("increment_decrement_31_ports", |b| {
        let mut counters = ContentionCounters::new(31);
        b.iter(|| {
            for p in 0..31u32 {
                counters.increment(Port(p));
            }
            for p in 0..31u32 {
                counters.decrement(Port(p));
            }
            black_box(counters.total())
        })
    });
    group.finish();
}

fn topology_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_queries");
    configure(&mut group);
    let topo = Dragonfly::new(DragonflyParams::paper_table1());
    group.bench_function("minimal_output_paper_scale", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(7919);
            let r = RouterId(i % topo.num_routers());
            let n = NodeId((i.wrapping_mul(31)) % topo.num_nodes());
            if topo.node_router(n) != r {
                black_box(df_routing::minimal::minimal_output(&topo, r, n));
            }
        })
    });
    group.bench_function("global_neighbor_paper_scale", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(104729);
            let r = RouterId(i % topo.num_routers());
            black_box(topo.global_neighbor(r, i % topo.params().h))
        })
    });
    group.finish();
}

fn routing_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_decisions");
    configure(&mut group);
    let topo = Dragonfly::new(DragonflyParams::medium());
    let config = NetworkConfig::paper_table1();
    let router = Router::new(RouterId(0), topo, config);
    let routing_config = RoutingConfig::calibrated_for(topo.params(), &config.vcs);
    for kind in [
        RoutingKind::Minimal,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Ectn,
    ] {
        let algorithm = RoutingAlgorithm::new(kind, routing_config);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &algorithm,
            |b, alg| {
                let mut rng = DeterministicRng::new(1);
                let packet = Packet::new(PacketId(0), NodeId(0), NodeId(900), 8, 0);
                b.iter(|| black_box(alg.decide(&router, Port(0), &packet, &mut rng)))
            },
        );
    }
    group.finish();
}

fn allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    configure(&mut group);
    group.bench_function("separable_31x31_full_load", |b| {
        let mut alloc = Allocator::new(31);
        let requests: Vec<AllocationRequest> = (0..31u32)
            .flat_map(|ip| {
                (0..3u8).map(move |vc| AllocationRequest {
                    input_port: Port(ip),
                    input_vc: VcId(vc),
                    output_port: Port((ip * 7 + vc as u32) % 31),
                    output_vc: VcId(0),
                    size_phits: 8,
                })
            })
            .collect();
        b.iter(|| black_box(alloc.allocate(&requests, |_, _, _| true).len()))
    });
    group.finish();
}

fn event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    configure(&mut group);
    let make_event = |i: u32| Event::CreditReturn {
        router: RouterId(i % 64),
        port: Port(i % 31),
        vc: VcId(0),
        phits: 8,
    };
    // steady-state schedule/drain churn at a realistic event density
    group.bench_function("wheel_schedule_drain_1000_cycles", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut q = EventQueue::with_horizon(128);
            for now in 0..1_000u64 {
                for k in 0..4u64 {
                    q.schedule(now + 1 + (now * 7 + k) % 110, make_event((now + k) as u32));
                }
                q.pop_due_into(now, &mut out);
                black_box(out.len());
            }
        })
    });
    // the empty-cycle fast path the low-load simulator leans on
    group.bench_function("wheel_empty_cycles", |b| {
        let mut q = EventQueue::with_horizon(128);
        q.schedule(u64::MAX / 2, make_event(0));
        let mut out = Vec::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            q.pop_due_into(black_box(now), &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn simulator_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_step");
    configure(&mut group);
    for (name, params) in [
        ("small_72_nodes", DragonflyParams::small()),
        ("medium_1056_nodes", DragonflyParams::medium()),
    ] {
        let config = SimulationConfig::builder()
            .topology(params)
            .network(NetworkConfig::paper_table1())
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .offered_load(0.3)
            .warmup_cycles(0)
            .measurement_cycles(1)
            .seed(1)
            .kernel(KernelMode::Optimized)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("100_cycles", name), &config, |b, cfg| {
            let mut net = Network::new(cfg.clone());
            net.run_cycles(200); // reach a loaded steady state once
            b.iter(|| {
                net.run_cycles(100);
                black_box(net.in_flight())
            })
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    contention_counters,
    topology_queries,
    routing_decisions,
    allocator,
    event_queue,
    simulator_step
);
criterion_main!(micro);
