//! Experiment scales: how large a network and how long a run.
//!
//! The paper simulates a 16,512-node Dragonfly for 15,000 measured cycles,
//! averaging 10 seeds per point. That is reproducible here
//! (`Scale::paper()`), but the default scales keep the balanced `a = 2p = 2h`
//! proportion at laptop-friendly sizes so every figure regenerates in
//! minutes; the committed `*.csv` tables were produced at `small`.

use df_model::NetworkConfig;
use df_topology::{DragonflyParams, MegaflyParams, TopologyKind, TopologyParams};

/// A named experiment scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name ("small", "medium", "paper").
    pub name: &'static str,
    /// Dragonfly sizing (also the sizing template for other topology
    /// kinds — see [`Scale::topology_params`]).
    pub topology: DragonflyParams,
    /// Which topology family the run instantiates (`--topology=` on the
    /// CLI; defaults to the paper's canonical Dragonfly).
    pub topology_kind: TopologyKind,
    /// Router/link configuration.
    pub network: NetworkConfig,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Seeds averaged per point.
    pub seeds: u64,
    /// Offered-load points for uniform-traffic sweeps.
    pub uniform_loads: Vec<f64>,
    /// Offered-load points for adversarial-traffic sweeps.
    pub adversarial_loads: Vec<f64>,
}

impl Scale {
    /// 72-node network, two seeds: regenerates every figure in a couple of
    /// minutes. The default scale of every bin, and the one the committed
    /// CSVs were produced at.
    pub fn small() -> Self {
        Scale {
            name: "small",
            topology: DragonflyParams::small(),
            topology_kind: TopologyKind::Dragonfly,
            network: NetworkConfig::paper_table1(),
            warmup: 3_000,
            measure: 6_000,
            seeds: 2,
            uniform_loads: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            adversarial_loads: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// 1,056-node network (p=4, a=8, h=4), closer to the paper's threshold
    /// calibration; minutes to hours depending on the figure.
    pub fn medium() -> Self {
        Scale {
            name: "medium",
            topology: DragonflyParams::medium(),
            topology_kind: TopologyKind::Dragonfly,
            network: NetworkConfig::paper_table1(),
            warmup: 5_000,
            measure: 10_000,
            seeds: 3,
            uniform_loads: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            adversarial_loads: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// The paper's full Table I configuration: 16,512 nodes, 10 seeds,
    /// 15,000 measured cycles. Expect long runs.
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            topology: DragonflyParams::paper_table1(),
            topology_kind: TopologyKind::Dragonfly,
            network: NetworkConfig::paper_table1(),
            warmup: 10_000,
            measure: 15_000,
            seeds: 10,
            uniform_loads: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            adversarial_loads: vec![0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5],
        }
    }

    /// The full Table I topology with deliberately short windows: enough to
    /// prove the 16,512-node network constructs, routes and delivers (the
    /// `--ignored` paper-scale smoke test), without the hours a real
    /// `paper` point takes.
    pub fn paper_smoke() -> Self {
        Scale {
            name: "paper-smoke",
            topology: DragonflyParams::paper_table1(),
            topology_kind: TopologyKind::Dragonfly,
            network: NetworkConfig::paper_table1(),
            warmup: 50,
            measure: 200,
            seeds: 1,
            uniform_loads: vec![0.1],
            adversarial_loads: vec![0.1],
        }
    }

    /// A deliberately tiny scale for the process-level CLI smokes
    /// (`crates/bench/tests/cli.rs`): seconds per figure, full code path.
    pub fn bench() -> Self {
        Scale {
            name: "bench",
            topology: DragonflyParams::small(),
            topology_kind: TopologyKind::Dragonfly,
            network: NetworkConfig::fast_test(),
            warmup: 200,
            measure: 400,
            seeds: 1,
            uniform_loads: vec![0.1, 0.3],
            adversarial_loads: vec![0.1, 0.3],
        }
    }

    /// The scale's sizing as [`TopologyParams`] of the selected kind. The
    /// Dragonfly sizing doubles as the template: `--topology=megafly` maps
    /// `(p, a, h, groups)` onto a balanced `l = s = a` leaf/spine block with
    /// the same terminals, group count and global links per group — always
    /// valid, because both families share the `groups <= a*h + 1` palmtree
    /// bound.
    pub fn topology_params(&self) -> TopologyParams {
        match self.topology_kind {
            TopologyKind::Dragonfly => self.topology.into(),
            TopologyKind::Megafly => {
                let d = self.topology;
                MegaflyParams::new(d.p, d.a, d.a, d.h, d.groups)
                    .expect("every Dragonfly scale maps onto a balanced Megafly block")
                    .into()
            }
        }
    }

    /// The names [`Scale::from_name`] accepts.
    pub const NAMES: &'static [&'static str] =
        &["small", "medium", "paper", "paper-smoke", "bench"];

    /// Parse a scale name from a CLI argument.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "paper" => Some(Self::paper()),
            "paper-smoke" => Some(Self::paper_smoke()),
            "bench" => Some(Self::bench()),
            _ => None,
        }
    }

    /// [`Scale::from_arg_list_dragonfly_only`] over a binary's own argument
    /// list with the `small` default every Dragonfly-only binary uses,
    /// aborting with exit code 2 on a rejected argument.
    pub fn from_args_dragonfly_only(bin: &str, flags: &[&str], args: &[String]) -> Self {
        or_exit_2(Self::from_arg_list_dragonfly_only(
            Self::small(),
            flags,
            bin,
            args,
        ))
    }

    /// [`Scale::from_arg_list`] for the binaries that build the canonical
    /// Dragonfly explicitly (every `fig` figure, `availability`,
    /// `fault_recovery`, `collectives`): any `--topology`
    /// argument is an error naming the binary and the topology-aware
    /// alternatives instead of being silently ignored — running one under
    /// `--topology=megafly` used to produce a Dragonfly table labelled by
    /// nothing at all.
    pub fn from_arg_list_dragonfly_only(
        default: Self,
        flags: &[&str],
        bin: &str,
        args: &[String],
    ) -> Result<Self, String> {
        if let Some(arg) = args.iter().find(|a| a.starts_with("--topology")) {
            return Err(format!(
                "error: {bin} is Dragonfly-only and does not accept '{arg}' (Figures 5-10, \
                 Table 1, the availability sweep, the fault-recovery curve and the \
                 collectives table build the canonical Dragonfly; topology-aware runners: \
                 sweep_service, interference)"
            ));
        }
        Self::from_arg_list(default, flags, args)
    }

    /// The pure core of the CLI scale parser: scan `args` for the scale name
    /// (falling back to `default`), rejecting any word-like argument that is
    /// neither a scale nor one of the caller's declared `flags`, any
    /// `key=value` whose `key=` is not among them, and anything said twice
    /// with two meanings — a second, different scale name or a repeated
    /// `key=` (`medium small` used to run `medium`, `seeds=1 seeds=2` one
    /// seed). Returns the error message the process-aborting wrappers print.
    pub fn from_arg_list(default: Self, flags: &[&str], args: &[String]) -> Result<Self, String> {
        let mut found: Option<Scale> = None;
        let mut kind: Option<TopologyKind> = None;
        for (i, arg) in args.iter().enumerate() {
            if let Some((key, value)) = arg.split_once('=') {
                let earlier = args[..i]
                    .iter()
                    .find_map(|a| a.strip_prefix(key)?.strip_prefix('='));
                if let Some(earlier) = earlier {
                    return Err(format!(
                        "error: '{key}=' given twice ('{earlier}' and '{value}')"
                    ));
                }
            }
            if let Some(name) = arg.strip_prefix("--topology=") {
                let Some(parsed) = TopologyKind::from_name(name) else {
                    return Err(format!(
                        "error: unrecognized topology '{name}' (valid topologies: {})",
                        TopologyKind::NAMES.map(|(name, _)| name).join(", ")
                    ));
                };
                kind = Some(parsed);
            } else if let Some(scale) = Self::from_name(arg) {
                if let Some(first) = found.as_ref().filter(|f| f.name != scale.name) {
                    return Err(format!(
                        "error: two scales named ('{}' and '{}')",
                        first.name, scale.name
                    ));
                }
                found = Some(scale);
            } else if is_unrecognized(arg, flags) {
                return Err(format!(
                    "error: unrecognized {} '{arg}' (valid scales: {}{})",
                    if arg.contains('=') { "option" } else { "scale" },
                    Self::NAMES.join(", "),
                    if flags.is_empty() {
                        String::new()
                    } else {
                        format!("; flags: {}", flags.join(", "))
                    }
                ));
            }
        }
        let mut scale = found.unwrap_or(default);
        if let Some(kind) = kind {
            scale.topology_kind = kind;
        }
        Ok(scale)
    }
}

/// Unwrap a CLI parser's result, or print its message and abort the process
/// with exit code 2 (bad arguments).
pub fn or_exit_2<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Write `contents` to `path`, or print the path and the error and abort the
/// process with exit code 1.
pub fn write_or_exit(path: impl AsRef<std::path::Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The integer value of a `key=value` argument, if present; a non-integer
/// value aborts with exit code 2.
pub fn parse_kv(args: &[String], key: &str) -> Option<u64> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")))
        .map(|v| {
            or_exit_2(
                v.parse()
                    .map_err(|_| format!("error: {key}= wants an integer, got '{v}'")),
            )
        })
}

/// Whether `arg` is an argument nothing accepts: a `key=value` whose `key=`
/// is not among the caller's declared flags, or a word that reads like an
/// *attempted* scale name — letters/digits/hyphens/underscores with at least
/// one letter (so bare cycle counts are skipped) — and is neither a known
/// scale nor a declared flag. Catches `sedds=3`, `papper`, `paper_smoke` and
/// `paper2` alike.
fn is_unrecognized(arg: &str, flags: &[&str]) -> bool {
    if let Some(eq) = arg.find('=') {
        return !flags.contains(&&arg[..=eq]);
    }
    !arg.is_empty()
        && arg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        && arg.chars().any(|c| c.is_ascii_alphabetic())
        && Scale::from_name(arg).is_none()
        && !flags.contains(&arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::Topology;

    #[test]
    fn named_scales_resolve() {
        assert_eq!(Scale::from_name("small").unwrap().name, "small");
        assert_eq!(Scale::from_name("medium").unwrap().name, "medium");
        assert_eq!(Scale::from_name("paper").unwrap().name, "paper");
        assert_eq!(Scale::from_name("paper-smoke").unwrap().name, "paper-smoke");
        assert!(Scale::from_name("galactic").is_none());
        // every advertised name resolves to a scale of that name
        for name in Scale::NAMES {
            assert_eq!(Scale::from_name(name).unwrap().name, *name);
        }
    }

    #[test]
    fn scale_typo_detection_is_precise() {
        let flags = ["smoke", "csv"];
        // typos abort loudly, whatever character class they use
        assert!(is_unrecognized("papper", &flags));
        assert!(is_unrecognized("paper_smoke", &flags));
        assert!(is_unrecognized("paper2", &flags));
        assert!(is_unrecognized("medium-", &flags));
        // the caller's declared flags are exempt; undeclared words are not
        assert!(!is_unrecognized("smoke", &flags));
        assert!(is_unrecognized("smoke", &[]));
        assert!(!is_unrecognized("un", &["un", "adv1", "advh"]));
        // valid scales and cycle counts always pass, key=value only when its
        // key is declared
        for name in Scale::NAMES {
            assert!(!is_unrecognized(name, &[]));
        }
        assert!(!is_unrecognized("3000", &[]));
        assert!(!is_unrecognized("workers=1,2,4", &["workers="]));
        assert!(is_unrecognized("workers=1,2,4", &["workers"]));
        assert!(!is_unrecognized("", &[]));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_arg_list_accepts_scales_and_defaults() {
        let s = Scale::from_arg_list(Scale::small(), &[], &strings(&["medium"])).unwrap();
        assert_eq!(s.name, "medium");
        // no scale named: the caller's default wins
        let s = Scale::from_arg_list(Scale::bench(), &[], &strings(&["3000"])).unwrap();
        assert_eq!(s.name, "bench");
        // naming the same scale twice is harmless
        let s = Scale::from_arg_list(Scale::small(), &[], &strings(&["paper", "paper"])).unwrap();
        assert_eq!(s.name, "paper");
    }

    #[test]
    fn from_arg_list_rejects_two_scales_and_repeated_keys() {
        let flags = ["csv", "seeds="];
        let parse = |args: &[&str]| Scale::from_arg_list(Scale::small(), &flags, &strings(args));
        // the first scale used to win silently
        let err = parse(&["medium", "csv", "small"]).unwrap_err();
        assert!(
            err.contains("two scales") && err.contains("'medium'") && err.contains("'small'"),
            "rejection must name both scales: {err}"
        );
        // the first value used to win silently (the last one for --topology=)
        let err = parse(&["seeds=1", "bench", "seeds=2"]).unwrap_err();
        assert!(
            err.contains("'seeds=' given twice") && err.contains("'1'") && err.contains("'2'"),
            "rejection must name the key and both values: {err}"
        );
        let err = parse(&["--topology=megafly", "--topology=dragonfly"]).unwrap_err();
        assert!(err.contains("'--topology=' given twice"), "{err}");
        // a key that merely shares a prefix is not a repeat
        let flags = ["seeds=", "seeds-per-cell="];
        assert!(Scale::from_arg_list(
            Scale::small(),
            &flags,
            &strings(&["seeds=1", "seeds-per-cell=2"])
        )
        .is_ok());
    }

    #[test]
    fn from_arg_list_rejects_mistyped_scales() {
        for bad in ["papper", "paper_smoke", "paper2", "smal"] {
            let err = Scale::from_arg_list(Scale::small(), &["smoke", "csv"], &strings(&[bad]))
                .unwrap_err();
            assert!(
                err.contains("unrecognized scale") && err.contains(bad),
                "rejection message must name the bad argument: {err}"
            );
            assert!(
                err.contains("small, medium, paper"),
                "message lists valid names"
            );
        }
        // the rejection fires even when a valid scale comes first
        assert!(
            Scale::from_arg_list(Scale::small(), &[], &strings(&["medium", "galactic"])).is_err()
        );
    }

    #[test]
    fn from_arg_list_exempts_declared_flags_only() {
        let flags = ["smoke", "csv"];
        let s = Scale::from_arg_list(
            Scale::small(),
            &flags,
            &strings(&["medium", "smoke", "csv", "--topology=megafly"]),
        )
        .unwrap();
        assert_eq!(s.name, "medium");
        // the same words without the declaration are typos
        assert!(Scale::from_arg_list(Scale::small(), &[], &strings(&["smoke"])).is_err());
    }

    #[test]
    fn from_arg_list_rejects_undeclared_keys() {
        let flags = ["csv", "seeds=", "run-dir="];
        let parse = |args: &[&str]| Scale::from_arg_list(Scale::small(), &flags, &strings(args));
        assert_eq!(
            parse(&["seeds=3", "run-dir=target/x", "medium"])
                .unwrap()
                .name,
            "medium"
        );
        // a mistyped key used to be skipped, leaving the default in force
        for bad in ["sedds=3", "thread=4", "--seeds=3", "=3"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(
                err.contains(&format!("unrecognized option '{bad}'"))
                    && err.contains("flags: csv, seeds=, run-dir="),
                "rejection must name the argument and the accepted keys: {err}"
            );
        }
        // a word flag does not declare a key, nor a key a word
        assert!(parse(&["csv=1"]).is_err());
        assert!(parse(&["seeds"]).is_err());
    }

    #[test]
    fn topology_flag_selects_the_family() {
        let s =
            Scale::from_arg_list(Scale::small(), &[], &strings(&["--topology=megafly"])).unwrap();
        assert_eq!(s.topology_kind, TopologyKind::Megafly);
        assert_eq!(s.name, "small");
        let mf = s.topology_params();
        assert_eq!(mf.kind(), TopologyKind::Megafly);
        // the mapped Megafly keeps the template's group count and radix shape
        assert_eq!(mf.num_groups(), s.topology.num_groups());
        assert_eq!(mf.nodes_per_group(), s.topology.p * s.topology.a);
        // the synonym and the default
        let s = Scale::from_arg_list(Scale::small(), &[], &strings(&["--topology=dragonfly+"]))
            .unwrap();
        assert_eq!(s.topology_kind, TopologyKind::Megafly);
        let s = Scale::from_arg_list(Scale::small(), &[], &strings(&["medium"])).unwrap();
        assert_eq!(s.topology_kind, TopologyKind::Dragonfly);
        assert_eq!(s.topology_params().kind(), TopologyKind::Dragonfly);
    }

    #[test]
    fn topology_flag_rejects_unknown_names_loudly() {
        for bad in [
            "--topology=megaflier",
            "--topology=",
            "--topology=Dragonfly",
        ] {
            let err = Scale::from_arg_list(Scale::small(), &[], &strings(&[bad])).unwrap_err();
            assert!(
                err.contains("unrecognized topology") && err.contains("dragonfly, megafly"),
                "rejection must name the valid topologies: {err}"
            );
        }
        // every scale maps onto a valid Megafly block
        for name in Scale::NAMES {
            let mut s = Scale::from_name(name).unwrap();
            s.topology_kind = TopologyKind::Megafly;
            assert_eq!(s.topology_params().kind(), TopologyKind::Megafly);
            assert_eq!(s.topology_params().num_groups(), s.topology.num_groups());
        }
    }

    #[test]
    fn dragonfly_only_parser_rejects_topology_selections() {
        for arg in ["--topology=megafly", "--topology=dragonfly", "--topology"] {
            let err = Scale::from_arg_list_dragonfly_only(
                Scale::small(),
                &[],
                "fig6",
                &strings(&["bench", arg]),
            )
            .unwrap_err();
            assert!(
                err.contains("fig6") && err.contains("Dragonfly-only"),
                "rejection must name the binary and the reason: {err}"
            );
        }
        // everything else parses exactly like the ordinary parser
        let s = Scale::from_arg_list_dragonfly_only(
            Scale::small(),
            &[],
            "table1",
            &strings(&["medium"]),
        )
        .unwrap();
        assert_eq!(s.name, "medium");
        assert!(Scale::from_arg_list_dragonfly_only(
            Scale::small(),
            &[],
            "fig7",
            &strings(&["papper"])
        )
        .is_err());
    }

    #[test]
    fn paper_smoke_uses_the_full_table1_topology() {
        let s = Scale::paper_smoke();
        assert_eq!(s.topology.num_nodes(), 16_512);
        assert_eq!(s.topology, DragonflyParams::paper_table1());
        assert!(s.measure <= 500, "the smoke scale must stay short");
    }

    #[test]
    fn paper_scale_matches_table1() {
        let s = Scale::paper();
        assert_eq!(s.topology.num_nodes(), 16_512);
        assert_eq!(s.measure, 15_000);
        assert_eq!(s.seeds, 10);
    }

    #[test]
    fn load_points_are_sorted_and_in_range() {
        for scale in [
            Scale::small(),
            Scale::medium(),
            Scale::paper(),
            Scale::paper_smoke(),
            Scale::bench(),
        ] {
            for loads in [&scale.uniform_loads, &scale.adversarial_loads] {
                assert!(!loads.is_empty());
                assert!(loads.windows(2).all(|w| w[0] < w[1]));
                assert!(loads.iter().all(|&l| l > 0.0 && l <= 1.0));
            }
        }
    }
}
