//! Regenerate one table or figure of the paper's evaluation section.
//!
//! Usage:
//! `cargo run --release -p df-bench --bin fig -- <5|6|7|8|9|10|table1> [small|medium|paper] [un|adv1|advh]`
//!
//! * `5` — latency and throughput vs offered load under UN, ADV+1 and ADV+h
//!   (`un` / `adv1` / `advh` select one pattern; default all three).
//! * `6` — latency under a mixed ADV+1/UN pattern at 35% load.
//! * `7` — transient latency and misrouted-packet percentage after a
//!   UN→ADV+1 traffic change at 20% load with Table I (small) buffers.
//! * `8` — the same transient with large input buffers (256 phits/VC local,
//!   2048 phits/VC global), which slows the credit-based mechanisms but not
//!   the contention-based ones.
//! * `9` — long-timescale latency after UN→ADV+1 for PB versus ECtN, showing
//!   PB's routing oscillations and ECtN's flat response.
//! * `10` — sensitivity of Base to the misrouting threshold under UN and
//!   ADV+1 traffic (`un` / `adv1` select one; default both; there is no
//!   ADV+h sweep).
//! * `table1` — Table I (simulation parameters) for the selected scale.
//!
//! Every figure is a Dragonfly-only paper reproduction (`figures.rs` builds
//! the scale's canonical Dragonfly): `--topology=` selections are rejected,
//! and so are a pattern flag the figure does not read and a second pattern.
//! Exit code 2 = bad arguments.

use df_bench::Scale;
use df_engine::Table;
use df_model::{BufferConfig, NetworkConfig};
use df_traffic::PatternKind;

const FIGURES: &[&str] = &["5", "6", "7", "8", "9", "10", "table1"];

fn show(table: Table) {
    println!("{}", table.to_text());
}

fn show_pair((first, second): (Table, Table)) {
    show(first);
    show(second);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let figure = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    if !FIGURES.contains(&figure.as_str()) {
        eprintln!(
            "error: unrecognized figure '{figure}' (valid figures: {})",
            FIGURES.join(", ")
        );
        std::process::exit(2);
    }
    let flags: &[&str] = match figure.as_str() {
        "5" => &["un", "adv1", "advh"],
        "10" => &["un", "adv1"],
        _ => &[],
    };
    let scale = Scale::from_args_dragonfly_only(&format!("fig {figure}"), flags, &rest);
    let picks: Vec<&String> = rest
        .iter()
        .filter(|a| flags.contains(&a.as_str()))
        .collect();
    if let [first, second, ..] = picks[..] {
        eprintln!("error: fig {figure} takes one pattern; two named ('{first}' and '{second}')");
        std::process::exit(2);
    }
    let selected = |flag: &str| picks.first().is_none_or(|p| *p == flag);
    let adv1 = PatternKind::Adversarial { offset: 1 };
    let advh = PatternKind::Adversarial {
        offset: scale.topology.h,
    };

    match figure.as_str() {
        "5" => {
            for (flag, pattern) in [("un", PatternKind::Uniform), ("adv1", adv1), ("advh", advh)] {
                if selected(flag) {
                    show_pair(df_bench::figure5(&scale, pattern));
                }
            }
        }
        "6" => show(df_bench::figure6(&scale, 0.35)),
        "7" => show_pair(df_bench::figure7(
            &scale,
            scale.network,
            0.20,
            1_500,
            50,
            "Figure 7 — UN->ADV+1, Table I buffers",
        )),
        "8" => {
            let large = NetworkConfig {
                buffers: BufferConfig::large(),
                ..scale.network
            };
            show_pair(df_bench::figure7(
                &scale,
                large,
                0.20,
                3_000,
                100,
                "Figure 8 — UN->ADV+1, large buffers",
            ));
        }
        "9" => show_pair(df_bench::figure9(&scale, 0.20, 4_000, 100)),
        "10" => {
            let rc = df_routing::RoutingConfig::calibrated_for(&scale.topology, &scale.network.vcs);
            let th = rc.contention_threshold;
            // the paper sweeps th-3..th+1 for UN and th..th+6 for ADV; scale
            // the same way around the calibrated threshold
            let un_ths: Vec<u32> = (th.saturating_sub(3).max(1)..=th + 1).collect();
            let adv_ths: Vec<u32> = (th..=th + 6).step_by(2).collect();
            if selected("un") {
                show_pair(df_bench::figure10(&scale, PatternKind::Uniform, &un_ths));
            }
            if selected("adv1") {
                show_pair(df_bench::figure10(&scale, adv1, &adv_ths));
            }
        }
        _ => show(df_bench::table1(&scale)),
    }
}
