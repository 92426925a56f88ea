//! Process-level CLI tests: the scale parser's rejection paths and the
//! `fig` binary's seven figures, the two job tables and the fault-recovery
//! curve as end-to-end smokes at the tiny `bench` scale, each pinned by
//! digest — all exercised on the real binaries (`CARGO_BIN_EXE_*` paths are
//! provided by Cargo for integration tests).

use std::process::Command;

/// Spawn `exe args`, assert it aborts with exit code 2 before printing
/// anything, and return its stderr.
fn rejected(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("spawn bin");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} must abort before simulating"
    );
    assert!(
        out.stdout.is_empty(),
        "{exe} {args:?} must not print a table for a rejected run"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn mistyped_scale_names_abort_with_exit_2() {
    for bad in ["papper", "paper_smoke", "smal"] {
        let stderr = rejected(
            env!("CARGO_BIN_EXE_sweep_service"),
            &["run-dir=target/never-created", bad],
        );
        assert!(
            stderr.contains("unrecognized scale") && stderr.contains(bad),
            "stderr must explain the rejection: {stderr}"
        );
    }
}

#[test]
fn service_bins_reject_mistyped_scales_and_keys() {
    // both used to pick their scale with find_map(Scale::from_name): a typo
    // silently ran `small`
    for (exe, bin) in [
        (env!("CARGO_BIN_EXE_sweep_service"), "sweep_service"),
        (env!("CARGO_BIN_EXE_availability"), "availability"),
    ] {
        let stderr = rejected(exe, &["run-dir=target/never-created", "papper"]);
        assert!(
            stderr.contains("unrecognized scale") && stderr.contains("papper"),
            "{bin} stderr must explain the rejection: {stderr}"
        );
        // a mistyped key used to be skipped: `sedds=3` ran the default seed
        // count and `thread=4` the default budget, both exiting 0; `stream=`
        // left with the streaming telemetry it switched on
        for typo in ["sedds=3", "thread=4", "stream=100"] {
            let stderr = rejected(exe, &["run-dir=target/never-created", "bench", typo]);
            assert!(
                stderr.contains(&format!("option '{typo}'")) && stderr.contains("threads="),
                "{bin} stderr must name the typo and the accepted keys: {stderr}"
            );
        }
        // `seeds=0` used to fail the service with exit 1 (sweep_service) or
        // silently run one seed (availability)
        let stderr = rejected(exe, &["run-dir=target/never-created", "bench", "seeds=0"]);
        assert!(
            stderr.contains("seeds="),
            "{bin} stderr must name seeds=: {stderr}"
        );
    }
    assert!(!std::path::Path::new("target/never-created").exists());
}

#[test]
fn availability_rejects_topology_selections_with_exit_2() {
    // --topology was silently ignored although the sweep builds the
    // canonical Dragonfly
    let stderr = rejected(
        env!("CARGO_BIN_EXE_availability"),
        &["run-dir=target/never-created", "--topology=megafly"],
    );
    assert!(
        stderr.contains("availability")
            && stderr.contains("Dragonfly-only")
            && stderr.contains("topology-aware runners: sweep_service, interference)"),
        "stderr must name the binary, the reason and the alternatives: {stderr}"
    );
    assert!(!std::path::Path::new("target/never-created").exists());
}

#[test]
fn sweep_service_runs_its_matrix_on_megafly() {
    let dir = std::env::temp_dir().join(format!("df-bench-sweep-megafly-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sweep_service"))
        .arg(format!("run-dir={}", dir.display()))
        .args([
            "--topology=megafly",
            "bench",
            "smoke",
            "threads=1",
            "interrupt-after=1",
        ])
        .output()
        .expect("spawn sweep_service");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "interrupted by the hook: {stderr}"
    );
    assert!(
        stderr.contains("Megafly"),
        "the run names its topology: {stderr}"
    );
    assert!(dir.join("journal.bin").exists(), "the run leaves a journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_different_scale_names_abort_with_exit_2() {
    // `smoke csv small medium` used to run `small`: the first scale name
    // won and the rest were ignored
    let stderr = rejected(
        env!("CARGO_BIN_EXE_sweep_service"),
        &[
            "run-dir=target/never-created",
            "smoke",
            "csv",
            "small",
            "medium",
        ],
    );
    assert!(
        stderr.contains("two scales") && stderr.contains("'small'") && stderr.contains("'medium'"),
        "stderr must name both scales: {stderr}"
    );
    assert!(!std::path::Path::new("target/never-created").exists());
}

#[test]
fn a_repeated_key_aborts_with_exit_2() {
    // `seeds=1 seeds=2` used to run one seed: parse_kv takes the first
    for (exe, bin) in [
        (env!("CARGO_BIN_EXE_sweep_service"), "sweep_service"),
        (env!("CARGO_BIN_EXE_availability"), "availability"),
    ] {
        let stderr = rejected(
            exe,
            &[
                "run-dir=target/never-created",
                "bench",
                "seeds=1",
                "seeds=2",
            ],
        );
        assert!(
            stderr.contains("'seeds=' given twice")
                && stderr.contains("'1'")
                && stderr.contains("'2'"),
            "{bin} stderr must name the key and both values: {stderr}"
        );
    }
    assert!(!std::path::Path::new("target/never-created").exists());
}

#[test]
fn dragonfly_only_runners_reject_topology_selections_with_exit_2() {
    // both used the topology-aware parser but build `scale.topology` (the
    // Dragonfly): --topology=megafly exited 0 with the Dragonfly table, while
    // the Dragonfly-only error text advertised fault_recovery as
    // topology-aware
    for (exe, bin) in [
        (env!("CARGO_BIN_EXE_fault_recovery"), "fault_recovery"),
        (env!("CARGO_BIN_EXE_collectives"), "collectives"),
    ] {
        let stderr = rejected(exe, &["bench", "csv", "--topology=megafly"]);
        assert!(
            stderr.contains(bin) && stderr.contains("Dragonfly-only"),
            "{bin} stderr must name the binary and the reason: {stderr}"
        );
        assert!(
            stderr.contains("topology-aware runners: sweep_service, interference)"),
            "only the bins that honour --topology may be advertised: {stderr}"
        );
        // neither takes a key=value option at all
        let stderr = rejected(exe, &["bench", "seeds=3"]);
        assert!(
            stderr.contains("unrecognized option 'seeds=3'") && stderr.contains("flags: csv)"),
            "{bin} stderr must list what is accepted: {stderr}"
        );
    }
}

#[test]
fn unknown_figures_abort_with_exit_2_listing_the_valid_ones() {
    for args in [&["11", "bench"][..], &["bench"], &[]] {
        let stderr = rejected(env!("CARGO_BIN_EXE_fig"), args);
        assert!(
            stderr.contains("unrecognized figure") && stderr.contains("5, 6, 7, 8, 9, 10, table1"),
            "fig {args:?} stderr must list the valid figures: {stderr}"
        );
    }
}

#[test]
fn fig_rejects_pattern_flags_its_figure_does_not_read() {
    // Figure 10 has no ADV+h sweep, so `advh` must not run its UN and ADV+1
    // sweeps under a flag that names neither
    let stderr = rejected(env!("CARGO_BIN_EXE_fig"), &["10", "bench", "advh"]);
    assert!(
        stderr.contains("'advh'") && stderr.contains("flags: un, adv1"),
        "fig 10 stderr must name the flag and the ones it reads: {stderr}"
    );
    // a figure runs one pattern or all of them; a second must not be dropped
    let stderr = rejected(env!("CARGO_BIN_EXE_fig"), &["5", "bench", "un", "adv1"]);
    assert!(
        stderr.contains("'un'") && stderr.contains("'adv1'"),
        "fig 5 stderr must name both patterns: {stderr}"
    );
}

/// Run `fig <figure> <args>` at the `bench` scale and assert it exits 0 with
/// a rendered table containing `title` on stdout, and that stdout's
/// FNV-1a-64 is `digest` — captured while each figure still ran one sweep
/// per series, so every number a figure prints is pinned bit for bit.
fn figure_smoke(figure: &str, args: &[&str], title: &str, digest: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig"))
        .arg(figure)
        .args(args)
        .output()
        .expect("spawn fig");
    assert!(
        out.status.success(),
        "fig {figure} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(title),
        "fig {figure} stdout must contain '{title}': {stdout}"
    );
    assert!(
        stdout.lines().filter(|l| !l.trim().is_empty()).count() >= 3,
        "fig {figure} must print a rendered table (title, header, rows): {stdout}"
    );
    pin_stdout(&format!("fig {figure} {args:?}"), &out.stdout, digest);
}

/// Assert that `stdout`'s FNV-1a-64 is `digest`: every number a table prints
/// is pinned bit for bit, not only rerun-deterministic.
fn pin_stdout(run: &str, stdout: &[u8], digest: u64) {
    let got = df_engine::codec::fnv1a64(stdout);
    assert_eq!(
        got,
        digest,
        "{run} stdout digest {got:#018X} left the pinned {digest:#018X}: {}",
        String::from_utf8_lossy(stdout)
    );
}

#[test]
fn fig5_runs_at_bench_scale() {
    figure_smoke("5", &["bench", "un"], "Figure 5", 0x95ED_E3F8_79BE_CEDF);
}

#[test]
fn fig6_runs_at_bench_scale() {
    figure_smoke("6", &["bench"], "Figure 6", 0xDFE7_99B0_0572_5F21);
}

#[test]
fn fig7_runs_at_bench_scale() {
    figure_smoke("7", &["bench"], "Figure 7", 0x42F2_12D5_20C5_FF06);
}

#[test]
fn fig8_runs_at_bench_scale() {
    figure_smoke("8", &["bench"], "Figure 8", 0xEF3F_17A9_6635_FE46);
}

#[test]
fn fig9_runs_at_bench_scale() {
    figure_smoke("9", &["bench"], "Figure 9", 0x39AD_4D02_20D6_E9BB);
}

#[test]
fn fig10_runs_at_bench_scale() {
    figure_smoke("10", &["bench", "un"], "Figure 10", 0xABF5_25B9_DC3D_403E);
}

#[test]
fn table1_runs_at_bench_scale() {
    figure_smoke("table1", &["bench"], "Table I", 0x57A2_D66C_AD60_FD35);
}

#[test]
fn dragonfly_only_figures_reject_topology_selections_with_exit_2() {
    // every figure reproduces one defined on the paper's canonical
    // Dragonfly: a --topology selection must abort loudly, not silently run
    // a Dragonfly under a misleading flag — 5 and 10 (the two that take
    // pattern flags) used to exit 0 with the Dragonfly table
    for figure in ["5", "6", "7", "8", "9", "10", "table1"] {
        let mut args = vec![figure, "bench", "--topology=megafly"];
        if matches!(figure, "5" | "10") {
            args.push("un");
        }
        let stderr = rejected(env!("CARGO_BIN_EXE_fig"), &args);
        assert!(
            stderr.contains(&format!("fig {figure}")) && stderr.contains("Dragonfly-only"),
            "fig {figure} stderr must name the figure and the reason: {stderr}"
        );
    }
}

#[test]
fn interference_bin_writes_deterministic_csv() {
    let dir = std::env::temp_dir().join(format!("df-bench-interference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_interference"))
            .current_dir(&dir)
            .args(["bench", "csv"])
            .output()
            .expect("spawn interference");
        assert!(
            out.status.success(),
            "interference bin failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        pin_stdout("interference bench csv", &out.stdout, 0xD0E4_D56C_EDB6_B813);
        std::fs::read_to_string(dir.join("INTERFERENCE.csv")).expect("INTERFERENCE.csv written")
    };
    let first = run();
    assert!(
        first.contains("a2a+a2a") && first.contains("slowdown"),
        "CSV must carry the mix rows and header: {first}"
    );
    // the symmetric bandwidth-heavy pair must show real interference in
    // every routing row: slowdown strictly above 1.0
    for line in first.lines().filter(|l| l.starts_with("a2a+a2a")) {
        let slowdown: f64 = line.split(',').nth(7).unwrap().parse().unwrap();
        assert!(
            slowdown > 1.0,
            "symmetric all-to-all pair must interfere: {line}"
        );
    }
    let second = run();
    assert_eq!(
        first, second,
        "interference runs must be rerun-deterministic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn collectives_bin_writes_deterministic_csv() {
    let dir = std::env::temp_dir().join(format!("df-bench-collectives-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_collectives"))
            .current_dir(&dir)
            .args(["bench", "csv"])
            .output()
            .expect("spawn collectives");
        assert!(
            out.status.success(),
            "collectives bin failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        pin_stdout("collectives bench csv", &out.stdout, 0xB81D_6CA5_7967_B87C);
        std::fs::read_to_string(dir.join("COLLECTIVES.csv")).expect("COLLECTIVES.csv written")
    };
    let first = run();
    assert!(
        first.contains("all-to-allx16") && first.contains("completion_cycle"),
        "CSV must carry the workload rows and header: {first}"
    );
    let second = run();
    assert_eq!(first, second, "collective runs must be rerun-deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_recovery_bin_prints_the_pinned_curve() {
    let out = Command::new(env!("CARGO_BIN_EXE_fault_recovery"))
        .args(["bench", "csv"])
        .output()
        .expect("spawn fault_recovery");
    assert!(
        out.status.success(),
        "fault_recovery bin failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    pin_stdout(
        "fault_recovery bench csv",
        &out.stdout,
        0x618D_7FD7_91F1_C99E,
    );
}

#[test]
fn an_unwritable_csv_exits_1_without_a_panic() {
    // `collectives` used to panic at `.expect("write COLLECTIVES.csv")`
    let dir = std::env::temp_dir().join(format!("df-bench-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("COLLECTIVES.csv")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_collectives"))
        .current_dir(&dir)
        .args(["bench", "csv"])
        .output()
        .expect("spawn collectives");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write COLLECTIVES.csv") && !stderr.contains("panicked"),
        "stderr must name the path and the error, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
