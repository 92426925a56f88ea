//! Process-level CLI tests: `Scale::from_args` rejection paths and the
//! figure/table binaries as end-to-end smokes at the tiny `bench` scale —
//! all exercised on the real binaries (`CARGO_BIN_EXE_*` paths are provided
//! by Cargo for integration tests).

use std::process::Command;

#[test]
fn mistyped_scale_names_abort_with_exit_2() {
    for bad in ["papper", "paper_smoke", "smal"] {
        let out = Command::new(env!("CARGO_BIN_EXE_scenario_matrix"))
            .arg(bad)
            .output()
            .expect("spawn scenario_matrix");
        assert_eq!(
            out.status.code(),
            Some(2),
            "'{bad}' must abort before simulating"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognized scale") && stderr.contains(bad),
            "stderr must explain the rejection: {stderr}"
        );
    }
}

/// Run one of the figure/table binaries at the `bench` scale and assert it
/// exits 0 with a rendered table containing `title` on stdout.
fn figure_smoke(exe: &str, args: &[&str], title: &str) {
    let out = Command::new(exe).args(args).output().expect("spawn bin");
    assert!(
        out.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(title),
        "{exe} stdout must contain '{title}': {stdout}"
    );
    assert!(
        stdout.lines().filter(|l| !l.trim().is_empty()).count() >= 3,
        "{exe} must print a rendered table (title, header, rows): {stdout}"
    );
}

#[test]
fn fig5_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig5"), &["bench", "un"], "Figure 5");
}

#[test]
fn fig6_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig6"), &["bench"], "Figure 6");
}

#[test]
fn fig7_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig7"), &["bench"], "Figure 7");
}

#[test]
fn fig8_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig8"), &["bench"], "Figure 8");
}

#[test]
fn fig9_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig9"), &["bench"], "Figure 9");
}

#[test]
fn fig10_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_fig10"), &["bench", "un"], "Figure 10");
}

#[test]
fn table1_runs_at_bench_scale() {
    figure_smoke(env!("CARGO_BIN_EXE_table1"), &["bench"], "Table I");
}

#[test]
fn dragonfly_only_figures_reject_topology_selections_with_exit_2() {
    // fig6-fig9 and table1 reproduce figures defined on the paper's
    // canonical Dragonfly: a --topology selection must abort loudly, not
    // silently run a Dragonfly under a misleading flag
    for (exe, bin) in [
        (env!("CARGO_BIN_EXE_fig6"), "fig6"),
        (env!("CARGO_BIN_EXE_fig7"), "fig7"),
        (env!("CARGO_BIN_EXE_fig8"), "fig8"),
        (env!("CARGO_BIN_EXE_fig9"), "fig9"),
        (env!("CARGO_BIN_EXE_table1"), "table1"),
    ] {
        let out = Command::new(exe)
            .args(["bench", "--topology=megafly"])
            .output()
            .expect("spawn figure bin");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} must reject --topology before simulating"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(bin) && stderr.contains("Dragonfly-only"),
            "{bin} stderr must name the binary and the reason: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{bin} must not print a table for a rejected run"
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
