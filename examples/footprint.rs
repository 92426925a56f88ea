//! Bytes per router, by part: what a router's state costs in memory at the
//! tiny, small, medium and Table I scales (`Router::footprint`: the struct
//! plus the capacity of every heap buffer it owns).
//!
//! ```text
//! cargo run --release --example footprint
//! ```
//!
//! The first table is a fresh router 0 of each scale, the layout every
//! router starts from. The second is the mean over every router after a
//! short run of uniform traffic, where the packet slab and the
//! gateway-liveness view have grown with the traffic; its last column is
//! the length of the whole `Network::snapshot` divided by the router count.
//! The third is the snapshot of the Table I network at low load (UN @ 0.01
//! under Base, seed 5, 100 warm-up cycles then 300 measured): its bytes and
//! the median of three encodes (`Network::snapshot`) and three restores
//! (`Network::restore`, which builds the network first).

use std::time::Instant;

use contention_dragonfly::prelude::*;
use contention_dragonfly::router::Footprint;

fn scales() -> [(&'static str, DragonflyParams); 4] {
    [
        ("tiny", DragonflyParams::tiny()),
        ("small", DragonflyParams::small()),
        ("medium", DragonflyParams::medium()),
        ("Table I", DragonflyParams::paper_table1()),
    ]
}

/// The parts of [`Footprint::parts`], in order.
const PARTS: [&str; 6] = [
    "input VCs",
    "outputs + credits",
    "allocator",
    "counters",
    "ECtN/PB",
    "slab",
];

fn header(snapshot: bool) {
    let extra = if snapshot { " snapshot B/router |" } else { "" };
    println!(
        "| scale | radix | {} | struct | total | buffers |{extra}",
        PARTS.join(" | ")
    );
    let columns = PARTS.len() + 4 + usize::from(snapshot);
    println!("|---|{}", "--:|".repeat(columns));
}

fn row(scale: &str, radix: u32, f: &Footprint, snapshot: Option<usize>) {
    let parts: Vec<String> = f.parts.iter().map(usize::to_string).collect();
    let (parts, total) = (parts.join(" | "), f.total());
    let extra = snapshot.map_or(String::new(), |bytes| format!(" {bytes} |"));
    println!(
        "| {scale} | {radix} | {parts} | {} | **{total}** | {} |{extra}",
        f.router, f.buffers
    );
}

fn main() {
    println!("Fresh router, bytes by part\n");
    header(false);
    for (name, params) in scales() {
        let topo = Dragonfly::new(params);
        let router = Router::new(RouterId(0), topo, NetworkConfig::paper_table1());
        row(name, topo.layout().radix(), &router.footprint(), None);
    }

    let cycles = 1_000;
    println!("\nMean per router after {cycles} cycles of UN @ 0.1 under Base, bytes by part\n");
    header(true);
    for (name, params) in &scales()[..3] {
        let config = SimulationConfig::builder()
            .topology(*params)
            .network(NetworkConfig::paper_table1())
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .offered_load(0.1)
            .warmup_cycles(0)
            .measurement_cycles(cycles)
            .seed(1)
            .build()
            .expect("a valid configuration");
        let mut net = Network::new(config);
        net.run_cycles(cycles);
        let topo = *net.topology();
        let (mut sum, routers) = (Footprint::default(), topo.num_routers() as usize);
        for f in topo.routers().map(|r| net.router(r).footprint()) {
            sum.router += f.router;
            sum.buffers += f.buffers;
            (0..sum.parts.len()).for_each(|i| sum.parts[i] += f.parts[i]);
        }
        let mean = Footprint {
            router: sum.router / routers,
            parts: sum.parts.map(|bytes| bytes / routers),
            buffers: sum.buffers / routers,
        };
        let snapshot = net.snapshot().len() / routers;
        row(name, topo.layout().radix(), &mean, Some(snapshot));
    }

    table1_snapshot();
}

/// The Table I snapshot row: bytes, bytes per router, and the median
/// encode and restore times of three runs each.
fn table1_snapshot() {
    let config = SimulationConfig::builder()
        .topology(DragonflyParams::paper_table1())
        .network(NetworkConfig::paper_table1())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.01)
        .warmup_cycles(100)
        .measurement_cycles(300)
        .seed(5)
        .build()
        .expect("a valid configuration");
    let mut net = Network::new(config.clone());
    net.run_cycles(100);
    net.metrics_mut().start_measurement(100);
    net.run_cycles(300);
    let bytes = net.snapshot();
    let encode = median_ms(|| drop(net.snapshot()));
    let restore = median_ms(|| {
        drop(Network::restore(config.clone(), &bytes).expect("the snapshot restores"))
    });
    let routers = net.topology().num_routers() as usize;
    println!("\nSnapshot after 100 + 300 cycles of UN @ 0.01 under Base (seed 5), median of 3\n");
    println!("| scale | bytes | B/router | encode ms | restore ms |");
    println!("|---|--:|--:|--:|--:|");
    println!(
        "| Table I | {} | {} | {encode:.1} | {restore:.1} |",
        bytes.len(),
        bytes.len() / routers
    );
}

/// Median wall time of three calls of `run`, in milliseconds.
fn median_ms(mut run: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[1]
}
