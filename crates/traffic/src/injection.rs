//! Packet generation: per-node injection processes.
//!
//! Three processes are available, selected by [`InjectionKind`]:
//!
//! * **Bernoulli** — the paper's memoryless injector: each cycle a packet is
//!   generated with probability `offered_load / packet_size`.
//! * **Bursty** — a two-state Markov (on/off) process: while ON the node
//!   injects at an elevated rate, while OFF it is silent. The per-cycle
//!   transition probabilities are `1/mean_on` (ON→OFF) and `1/mean_off`
//!   (OFF→ON), and the ON-state injection probability is scaled by the
//!   inverse duty cycle so the *long-run* offered load still equals the
//!   configured one (clamped to one packet per cycle, so very high loads
//!   with a short duty cycle saturate below the nominal load).
//! * **Ramp** — a Bernoulli process whose load ramps linearly from
//!   `start_fraction · offered_load` at cycle 0 to the full offered load at
//!   `ramp_cycles`, then stays constant.
//!
//! [`Injector`] implements all three behind one `tick` interface, and
//! draws a destination only on success.
//!
//! # Gaps
//!
//! At low load nearly every Bernoulli trial fails, and a caller ticking
//! 16,512 injectors per cycle would spend its time learning that one draw at
//! a time. A steady Bernoulli injector (trial probability `p` strictly in
//! (0, 1), the same every tick) instead draws the whole run of failing
//! trials at once ([`DeterministicRng::failure_run`]: one draw, looked up in
//! an inverse-CDF table built once per distinct `p` on a thread and shared
//! by every injector at that `p`). A run of 0 is a success on this tick —
//! exactly the draws on which a single `bernoulli(p)` trial succeeds. A run
//! of `k ≥ 1` fails this tick and leaves a *gap* of `k − 1` ticks that are
//! certain failures, and the tick after them a certain success; a run that
//! reaches [`LOOKAHEAD_BOUND`] leaves that many failures and the tick after
//! them draws again. That is the Bernoulli law, truncated at the bound and
//! continued by memorylessness, on a stream of one draw per gap.
//!
//! The gap is simulation state: a tick while it is non-zero only counts it
//! down and draws nothing, so a caller may tick every cycle. A caller with
//! many injectors takes the gap out instead ([`Injector::take_gap`]), skips
//! those ticks itself and hands what is left of it back when the state is
//! captured ([`Injector::save_state`]'s `owed`); both leave the same packets,
//! stream and saved bytes. A load change discards the gap and any certain
//! success (the process is memoryless, so the law is exact). `Ramp` (its
//! probability depends on the cycle) and `Bursty` (a Markov draw per tick)
//! draw every tick and never leave a gap.
//! [`Injector::is_silent`] covers the other extreme: at load 0 a non-bursty
//! tick draws nothing at all, so a caller need not tick it until its load
//! changes.

use df_engine::{failure_run_table, CodecError, DeterministicRng};
use df_model::{Cycle, Packet, PacketId};
use df_topology::NodeId;
use std::cell::RefCell;
use std::sync::Arc;

use crate::pattern::TrafficPattern;

/// Declarative description of an injection process, used in configuration
/// files and experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InjectionKind {
    /// Memoryless Bernoulli injection (the paper's process). The default.
    #[default]
    Bernoulli,
    /// Markov on/off bursty injection.
    Bursty {
        /// Mean ON-phase length in cycles (must be ≥ 1).
        mean_on: f64,
        /// Mean OFF-phase length in cycles (must be ≥ 1).
        mean_off: f64,
    },
    /// Linear load ramp.
    Ramp {
        /// Fraction of the offered load applied at cycle 0 (in `[0, 1]`).
        start_fraction: f64,
        /// Cycle at which the full offered load is reached (must be ≥ 1).
        ramp_cycles: u64,
    },
}

impl InjectionKind {
    /// Short name used in result tables ("bernoulli", "bursty(...)", ...).
    pub fn label(&self) -> String {
        match self {
            InjectionKind::Bernoulli => "bernoulli".to_string(),
            InjectionKind::Bursty { mean_on, mean_off } => {
                format!("bursty({mean_on:.0}on/{mean_off:.0}off)")
            }
            InjectionKind::Ramp {
                start_fraction,
                ramp_cycles,
            } => format!("ramp({:.0}%->{ramp_cycles})", start_fraction * 100.0),
        }
    }

    /// Check the process parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            InjectionKind::Bernoulli => Ok(()),
            InjectionKind::Bursty { mean_on, mean_off } => {
                if mean_on < 1.0 || !mean_on.is_finite() {
                    return Err(format!("bursty mean_on must be ≥ 1 cycle, got {mean_on}"));
                }
                if mean_off < 1.0 || !mean_off.is_finite() {
                    return Err(format!("bursty mean_off must be ≥ 1 cycle, got {mean_off}"));
                }
                Ok(())
            }
            InjectionKind::Ramp {
                start_fraction,
                ramp_cycles,
            } => {
                if !(0.0..=1.0).contains(&start_fraction) {
                    return Err(format!(
                        "ramp start fraction must be in [0,1], got {start_fraction}"
                    ));
                }
                if ramp_cycles == 0 {
                    return Err("ramp must take at least one cycle".into());
                }
                Ok(())
            }
        }
    }

    /// The ON-state duty cycle of the process (1 for non-bursty kinds).
    pub(crate) fn duty_cycle(&self) -> f64 {
        match *self {
            InjectionKind::Bursty { mean_on, mean_off } => mean_on / (mean_on + mean_off),
            _ => 1.0,
        }
    }
}

/// Packet generator for one node, implementing every [`InjectionKind`].
#[derive(Debug, Clone)]
pub struct Injector {
    node: NodeId,
    kind: InjectionKind,
    packet_size_phits: u32,
    offered_load: f64,
    rng: DeterministicRng,
    /// Current Markov state for [`InjectionKind::Bursty`] (always `true`
    /// otherwise).
    on: bool,
    /// Upcoming ticks that are certain failures: a tick counts one down and
    /// draws nothing.
    gap: u32,
    /// Whether the tick after the gap is a certain success (otherwise it
    /// draws the next run of failures).
    hit: bool,
    /// The failure-run table of a steady Bernoulli process (see the module
    /// docs); `None` for every other process and load.
    runs: Option<Arc<[u64]>>,
}

/// Longest run of failing trials one draw reports: a run that reaches it
/// leaves a gap of `LOOKAHEAD_BOUND − 1` ticks and the tick after them draws
/// again. It bounds the gap, and so a caller's wake-ups.
pub const LOOKAHEAD_BOUND: u32 = 256;

/// The failure-run table of trial probability `p` at [`LOOKAHEAD_BOUND`]:
/// built once per distinct `p` on each thread, then shared by every
/// injector at that `p` (building a network looks one up per node).
fn failure_runs(p: f64) -> Arc<[u64]> {
    thread_local! {
        static TABLES: RefCell<Vec<(u64, Arc<[u64]>)>> = const { RefCell::new(Vec::new()) };
    }
    TABLES.with_borrow_mut(|tables| {
        if let Some((_, table)) = tables.iter().find(|(bits, _)| *bits == p.to_bits()) {
            return table.clone();
        }
        let table: Arc<[u64]> = failure_run_table(p, LOOKAHEAD_BOUND).into();
        tables.push((p.to_bits(), table.clone()));
        table
    })
}

impl Injector {
    /// Create a generator for `node` with the given process, offered load in
    /// phits/(node·cycle) and packet size in phits. `rng` must be a stream
    /// dedicated to this node (see [`DeterministicRng::split`]).
    pub fn new(
        node: NodeId,
        kind: InjectionKind,
        offered_load: f64,
        packet_size_phits: u32,
        mut rng: DeterministicRng,
    ) -> Self {
        assert!(packet_size_phits > 0, "packets must have at least one phit");
        assert!(
            (0.0..=1.0).contains(&offered_load),
            "offered load must be in [0, 1] phits/(node*cycle), got {offered_load}"
        );
        kind.validate().expect("invalid injection process");
        // start bursty injectors in their stationary distribution so the
        // measured load is unbiased from cycle 0
        let on = match kind {
            InjectionKind::Bursty { .. } => rng.bernoulli(kind.duty_cycle()),
            _ => true,
        };
        let mut injector = Injector {
            node,
            kind,
            packet_size_phits,
            offered_load,
            rng,
            on,
            gap: 0,
            hit: false,
            runs: None,
        };
        injector.set_offered_load(offered_load);
        injector
    }

    /// The offered load, phits/(node·cycle).
    pub fn offered_load(&self) -> f64 {
        self.offered_load
    }

    /// Change the offered load (phits/(node·cycle)) on the fly; used by
    /// phased scenarios and by [`drain`](../df_sim/struct.Network.html).
    /// The gap and any certain success were drawn against the old load and
    /// are discarded: the next tick draws afresh.
    pub fn set_offered_load(&mut self, offered_load: f64) {
        assert!((0.0..=1.0).contains(&offered_load));
        self.offered_load = offered_load;
        (self.gap, self.hit) = (0, false);
        self.runs = self.steady_trial_probability().map(failure_runs);
    }

    /// Whether a tick is a no-op: it draws nothing from the stream and
    /// generates nothing. True at offered load 0 for every process except
    /// `Bursty`, which draws its Markov transition on every tick whatever
    /// the load (a trial with probability ≤ 0 fails without drawing).
    pub fn is_silent(&self) -> bool {
        self.offered_load <= 0.0 && !matches!(self.kind, InjectionKind::Bursty { .. })
    }

    /// The per-tick trial probability when it is the same for every future
    /// tick and each trial costs exactly one draw — the precondition of a
    /// gap.
    fn steady_trial_probability(&self) -> Option<f64> {
        let p = self.offered_load / self.packet_size_phits as f64;
        (self.kind == InjectionKind::Bernoulli && p > 0.0 && p < 1.0).then_some(p)
    }

    /// Take the gap out: the caller skips that many ticks itself (they are
    /// certain failures) and ticks the one after, or hands the ticks still
    /// owed back to [`save_state`](Self::save_state). Always 0 unless the
    /// process is `Bernoulli` with a trial probability strictly in (0, 1).
    pub fn take_gap(&mut self) -> u32 {
        std::mem::take(&mut self.gap)
    }

    /// Whether the next tick draws a run of failures: a steady Bernoulli
    /// process with no gap and no certain success pending.
    pub fn draws_a_run(&self) -> bool {
        self.runs.is_some() && self.gap == 0 && !self.hit
    }

    /// The probability of generating a packet this cycle, given the process
    /// state (after any Markov transition).
    fn injection_probability(&self, now: Cycle) -> f64 {
        let base = self.offered_load / self.packet_size_phits as f64;
        match self.kind {
            InjectionKind::Bernoulli => base,
            InjectionKind::Bursty { .. } => (base / self.kind.duty_cycle()).min(1.0),
            InjectionKind::Ramp {
                start_fraction,
                ramp_cycles,
            } => {
                let progress = (now as f64 / ramp_cycles as f64).min(1.0);
                base * (start_fraction + (1.0 - start_fraction) * progress)
            }
        }
    }

    /// Advance one cycle: possibly generate a packet destined according to
    /// `pattern`. `next_id` provides the globally unique packet identifier.
    pub fn tick(
        &mut self,
        now: Cycle,
        pattern: &TrafficPattern,
        next_id: &mut u64,
    ) -> Option<Packet> {
        if self.gap > 0 {
            self.gap -= 1;
            return None;
        }
        if let Some(runs) = &self.runs {
            // a certain success, or one draw for the run of failures from
            // this tick on
            if !std::mem::take(&mut self.hit) {
                let failures = self.rng.failure_run(runs);
                if failures > 0 {
                    self.gap = failures - 1;
                    self.hit = failures < LOOKAHEAD_BOUND;
                    return None;
                }
            }
        } else if let InjectionKind::Bursty { mean_on, mean_off } = self.kind {
            // one transition draw per cycle keeps the stream deterministic
            // regardless of the injection outcome
            let flip = if self.on {
                self.rng.bernoulli(1.0 / mean_on)
            } else {
                self.rng.bernoulli(1.0 / mean_off)
            };
            if flip {
                self.on = !self.on;
            }
            if !self.on || !self.rng.bernoulli(self.injection_probability(now)) {
                return None;
            }
        } else if !self.rng.bernoulli(self.injection_probability(now)) {
            return None;
        }
        let dst = pattern.destination(self.node, &mut self.rng);
        let id = PacketId(*next_id);
        *next_id += 1;
        Some(Packet::new(id, self.node, dst, self.packet_size_phits, now))
    }

    /// Serialize the injector's dynamic state (snapshot support): the
    /// stream, the burst state, the gap and whether a certain success
    /// follows it. `owed` is how many ticks of a gap the caller
    /// [took](Self::take_gap) have not elapsed yet (0 for a caller that
    /// ticks every cycle); the gap written is the one a tick-every-cycle
    /// twin holds. The static configuration — node, process kind, packet
    /// size — is not written: a restored injector is built from the run
    /// configuration first, then continued from this state. Nor is the
    /// offered load, which every injector of a run shares: the caller
    /// stores it once and [`set_offered_load`](Self::set_offered_load)s it
    /// back before the restore.
    pub fn save_state(&self, e: &mut df_engine::Encoder, owed: u32) {
        let (seed, words) = self.rng.state();
        e.u64(seed);
        for w in words {
            e.u64(w);
        }
        e.bool(self.on);
        e.u32(self.gap + owed);
        e.bool(self.hit);
    }

    /// Continue from a [`save_state`](Self::save_state) capture into an
    /// injector already at the captured offered load: the next
    /// [`tick`](Self::tick) behaves bit-identically to the injector the
    /// state was captured from. A gap no run leaves (`LOOKAHEAD_BOUND` or
    /// longer), a gap or certain success on a process that draws none, or
    /// an off burst state on a process that is not `Bursty`, or an all-zero
    /// random stream, is refused.
    pub fn restore_state(&mut self, d: &mut df_engine::Decoder) -> Result<(), CodecError> {
        let seed = d.u64()?;
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = d.u64()?;
        }
        self.rng = DeterministicRng::from_state(seed, words)?;
        self.on = d.bool()?;
        if !self.on && !matches!(self.kind, InjectionKind::Bursty { .. }) {
            let what = format!("an off burst state on a {} process", self.kind.label());
            return Err(CodecError::Invalid(what));
        }
        (self.gap, self.hit) = (d.u32()?, d.bool()?);
        if self.gap >= LOOKAHEAD_BOUND {
            let what = format!("an injector gap of {} ticks", self.gap);
            return Err(CodecError::Invalid(what));
        }
        if self.runs.is_none() && (self.gap > 0 || self.hit) {
            let what = "a gap on an injector that draws none".to_string();
            return Err(CodecError::Invalid(what));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use df_topology::{Dragonfly, DragonflyParams};

    fn pattern() -> TrafficPattern {
        PatternKind::Uniform.build(Dragonfly::new(DragonflyParams::small()))
    }

    #[test]
    fn generation_rate_matches_offered_load() {
        let pat = pattern();
        let load = 0.4; // phits per node per cycle
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            load,
            8,
            DeterministicRng::new(11),
        );
        let mut next_id = 0;
        let cycles = 200_000u64;
        let (mut phits, mut ids) = (0u64, Vec::new());
        for now in 0..cycles {
            if let Some(p) = inj.tick(now, &pat, &mut next_id) {
                phits += p.size_phits as u64;
                ids.push(p.id.0);
            }
        }
        let rate = phits as f64 / cycles as f64;
        assert!(
            (rate - load).abs() < 0.02,
            "measured rate {rate} too far from offered {load}"
        );
        assert!(
            ids.iter().copied().eq(0..next_id),
            "one id per packet, in order"
        );
    }

    #[test]
    fn zero_load_generates_nothing() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.0,
            8,
            DeterministicRng::new(1),
        );
        let mut next_id = 0;
        for now in 0..10_000 {
            assert!(inj.tick(now, &pat, &mut next_id).is_none());
        }
    }

    #[test]
    fn full_load_generates_every_packet_interval() {
        let pat = pattern();
        // load 1.0 phit/cycle with 1-phit packets = one packet per cycle
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            1.0,
            1,
            DeterministicRng::new(1),
        );
        let mut next_id = 0;
        let packets = (0..1000)
            .filter(|&now| inj.tick(now, &pat, &mut next_id).is_some())
            .count();
        assert_eq!(packets, 1000);
    }

    #[test]
    fn packets_carry_generation_metadata() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(5),
            InjectionKind::Bernoulli,
            1.0,
            8,
            DeterministicRng::new(3),
        );
        let mut next_id = 100;
        // probability 1/8 per cycle: run until one is generated
        let mut produced = None;
        for now in 0..1000 {
            if let Some(p) = inj.tick(now, &pat, &mut next_id) {
                produced = Some((now, p));
                break;
            }
        }
        let (now, p) = produced.expect("a packet should eventually be generated");
        assert_eq!(p.src, NodeId(5));
        assert_ne!(p.dst, NodeId(5));
        assert_eq!(p.generated_at, now);
        assert_eq!(p.id, PacketId(100));
        assert_eq!(next_id, 101);
    }

    #[test]
    fn ids_are_unique_across_injectors_sharing_counter() {
        let pat = pattern();
        let mut a = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            1.0,
            1,
            DeterministicRng::new(1).split(0),
        );
        let mut b = Injector::new(
            NodeId(1),
            InjectionKind::Bernoulli,
            1.0,
            1,
            DeterministicRng::new(1).split(1),
        );
        let mut next_id = 0;
        let mut ids = std::collections::HashSet::new();
        for now in 0..100 {
            if let Some(p) = a.tick(now, &pat, &mut next_id) {
                assert!(ids.insert(p.id));
            }
            if let Some(p) = b.tick(now, &pat, &mut next_id) {
                assert!(ids.insert(p.id));
            }
        }
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn set_offered_load_takes_effect() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.0,
            8,
            DeterministicRng::new(2),
        );
        let mut next_id = 0;
        for now in 0..1000 {
            assert!(inj.tick(now, &pat, &mut next_id).is_none());
        }
        inj.set_offered_load(1.0);
        let generated = (1000..9000)
            .filter(|&now| inj.tick(now, &pat, &mut next_id).is_some())
            .count();
        // probability 1/8 per cycle over 8000 cycles ≈ 1000 packets
        assert!(generated > 800 && generated < 1200, "generated {generated}");
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn overload_is_rejected() {
        let _ = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            1.5,
            8,
            DeterministicRng::new(0),
        );
    }

    // ---- unified Injector ----

    #[test]
    fn bursty_long_run_load_matches_offered_load() {
        let pat = pattern();
        let load = 0.3;
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bursty {
                mean_on: 50.0,
                mean_off: 150.0,
            },
            load,
            8,
            DeterministicRng::new(4),
        );
        let mut next_id = 0;
        let cycles = 400_000u64;
        let mut phits = 0u64;
        for now in 0..cycles {
            if let Some(p) = inj.tick(now, &pat, &mut next_id) {
                phits += p.size_phits as u64;
            }
        }
        let rate = phits as f64 / cycles as f64;
        assert!(
            (rate - load).abs() < 0.02,
            "bursty long-run rate {rate} too far from offered {load}"
        );
    }

    #[test]
    fn bursty_traffic_is_actually_bursty() {
        // compare the variance of per-window packet counts against
        // Bernoulli's, `window · p · (1 − p)` (which the Bernoulli sample
        // must show): the on/off process must cluster its packets
        let pat = pattern();
        let window = 100u64;
        let windows = 2_000u64;
        let counts = |kind: InjectionKind| -> Vec<u64> {
            let mut inj = Injector::new(NodeId(0), kind, 0.2, 8, DeterministicRng::new(5));
            let mut next_id = 0;
            let mut out = vec![0u64; windows as usize];
            for now in 0..window * windows {
                if inj.tick(now, &pat, &mut next_id).is_some() {
                    out[(now / window) as usize] += 1;
                }
            }
            out
        };
        let variance = |c: &[u64]| -> f64 {
            let mean = c.iter().sum::<u64>() as f64 / c.len() as f64;
            c.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / c.len() as f64
        };
        let bernoulli = counts(InjectionKind::Bernoulli);
        let bursty = counts(InjectionKind::Bursty {
            mean_on: 60.0,
            mean_off: 60.0,
        });
        let p = 0.2 / 8.0;
        let expected = window as f64 * p * (1.0 - p);
        assert!(
            (variance(&bernoulli) - expected).abs() < 0.1 * expected,
            "Bernoulli window variance {} too far from {expected}",
            variance(&bernoulli)
        );
        assert!(
            variance(&bursty) > expected * 2.0,
            "bursty window variance {} must exceed twice Bernoulli's {expected}",
            variance(&bursty)
        );
    }

    #[test]
    fn ramp_load_grows_then_plateaus() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Ramp {
                start_fraction: 0.0,
                ramp_cycles: 50_000,
            },
            0.8,
            8,
            DeterministicRng::new(6),
        );
        let mut next_id = 0;
        let mut early = 0u64;
        let mut late = 0u64;
        let mut plateau = 0u64;
        for now in 0..150_000u64 {
            if inj.tick(now, &pat, &mut next_id).is_some() {
                match now {
                    0..=24_999 => early += 1,
                    25_000..=49_999 => late += 1,
                    _ => plateau += 1,
                }
            }
        }
        assert!(
            late > early * 2,
            "the second ramp half ({late}) must generate far more than the first ({early})"
        );
        // plateau covers 100k cycles at the full 0.8 load: 0.1 packets/cycle
        let plateau_rate = plateau as f64 / 100_000.0;
        assert!(
            (plateau_rate - 0.1).abs() < 0.01,
            "plateau rate {plateau_rate} should be ~0.1 packets/cycle"
        );
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let pat = pattern();
        let kinds = [
            InjectionKind::Bernoulli,
            InjectionKind::Bursty {
                mean_on: 20.0,
                mean_off: 30.0,
            },
            InjectionKind::Ramp {
                start_fraction: 0.5,
                ramp_cycles: 500,
            },
        ];
        for kind in kinds {
            let run = |seed: u64| -> Vec<(u64, u32)> {
                let mut inj = Injector::new(NodeId(1), kind, 0.4, 8, DeterministicRng::new(seed));
                let mut next_id = 0;
                let mut out = Vec::new();
                for now in 0..5_000 {
                    if let Some(p) = inj.tick(now, &pat, &mut next_id) {
                        out.push((now, p.dst.0));
                    }
                }
                out
            };
            assert_eq!(run(3), run(3), "{} must be reproducible", kind.label());
            assert_ne!(run(3), run(4), "{} must vary with the seed", kind.label());
        }
    }

    #[test]
    fn injection_kind_labels_and_validation() {
        assert_eq!(InjectionKind::Bernoulli.label(), "bernoulli");
        assert_eq!(
            InjectionKind::Bursty {
                mean_on: 20.0,
                mean_off: 60.0
            }
            .label(),
            "bursty(20on/60off)"
        );
        assert_eq!(
            InjectionKind::Ramp {
                start_fraction: 0.25,
                ramp_cycles: 1000
            }
            .label(),
            "ramp(25%->1000)"
        );
        assert!(InjectionKind::Bursty {
            mean_on: 0.5,
            mean_off: 10.0
        }
        .validate()
        .is_err());
        assert!(InjectionKind::Ramp {
            start_fraction: 1.5,
            ramp_cycles: 10
        }
        .validate()
        .is_err());
        assert!(InjectionKind::Ramp {
            start_fraction: 0.5,
            ramp_cycles: 0
        }
        .validate()
        .is_err());
        assert!(InjectionKind::Bernoulli.validate().is_ok());
    }

    #[test]
    fn zero_load_bursty_generates_nothing() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bursty {
                mean_on: 10.0,
                mean_off: 10.0,
            },
            0.0,
            8,
            DeterministicRng::new(1),
        );
        let mut next_id = 0;
        for now in 0..5_000 {
            assert!(inj.tick(now, &pat, &mut next_id).is_none());
        }
    }

    // ---- gaps ----

    /// What a tick produced: the packet's identity, or nothing.
    fn emitted(p: Option<Packet>) -> Option<(PacketId, NodeId, Cycle)> {
        p.map(|p| (p.id, p.dst, p.generated_at))
    }

    fn saved(inj: &Injector, owed: u32) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        inj.save_state(&mut e, owed);
        e.into_bytes()
    }

    /// Drive `kind` at `load` for `ticks` ticks twice — a twin ticked every
    /// cycle, and an injector driven as a wake-up calendar drives it (it
    /// takes the gap out after each tick and skips that many ticks) —
    /// applying `load_changes` (tick, new load) to both, and require the
    /// same packets at the same ticks, byte-equal saved states at every
    /// `captures` tick (mid-gap, through `owed`) and after the last tick,
    /// and the same final stream. Returns the number of ticks skipped.
    fn assert_twin(
        kind: InjectionKind,
        load: f64,
        packet_size: u32,
        ticks: u64,
        load_changes: &[(u64, f64)],
        captures: &[u64],
    ) -> u64 {
        let pat = pattern();
        let build = || {
            Injector::new(
                NodeId(7),
                kind,
                load,
                packet_size,
                DeterministicRng::new(21),
            )
        };
        let (mut twin, mut inj) = (build(), build());
        let (mut twin_id, mut inj_id) = (0u64, 0u64);
        let mut owed = 0u32;
        let mut skipped = 0u64;
        for now in 0..ticks {
            if let Some(&(_, new_load)) = load_changes.iter().find(|&&(at, _)| at == now) {
                twin.set_offered_load(new_load);
                inj.set_offered_load(new_load);
                owed = 0;
            }
            if captures.contains(&now) {
                assert_eq!(
                    saved(&inj, owed),
                    saved(&twin, 0),
                    "saved state at tick {now}"
                );
            }
            let expected = emitted(twin.tick(now, &pat, &mut twin_id));
            if owed > 0 {
                owed -= 1;
                skipped += 1;
                assert_eq!(expected, None, "tick {now} was in a gap");
                continue;
            }
            assert_eq!(
                emitted(inj.tick(now, &pat, &mut inj_id)),
                expected,
                "tick {now}"
            );
            owed = inj.take_gap();
        }
        assert_eq!(saved(&inj, owed), saved(&twin, 0), "final saved state");
        assert_eq!(inj.rng.state(), twin.rng.state(), "final stream position");
        assert_eq!(inj_id, twin_id);
        skipped
    }

    #[test]
    fn calendar_driven_injector_emits_the_same_packets_and_stream_as_its_twin() {
        let skipped = assert_twin(
            InjectionKind::Bernoulli,
            0.3,
            8,
            20_000,
            &[],
            &[1, 777, 19_999],
        );
        // p = 0.0375: about 25 of every 27 ticks never touch the injector
        assert!(skipped > 17_000, "only {skipped} ticks skipped");
    }

    #[test]
    fn gaps_survive_load_changes_including_zero_and_back() {
        // 3_001 and 9_500 land mid-gap with overwhelming likelihood at these
        // probabilities; 6_000..9_500 is silent (no gap, nothing drawn)
        assert_twin(
            InjectionKind::Bernoulli,
            0.1,
            8,
            15_000,
            &[(3_001, 0.6), (6_000, 0.0), (9_500, 0.05), (12_000, 1.0)],
            &[3_000, 3_002, 6_001, 9_499, 9_501, 12_001],
        );
    }

    #[test]
    fn a_run_that_reaches_its_bound_draws_again_after_the_gap() {
        // p = 1e-5: nearly every run reaches the bound without a success
        let skipped = assert_twin(
            InjectionKind::Bernoulli,
            0.000_08,
            8,
            3 * LOOKAHEAD_BOUND as u64 + 100,
            &[],
            &[LOOKAHEAD_BOUND as u64 / 2, LOOKAHEAD_BOUND as u64 + 1],
        );
        assert!(skipped >= 2 * (LOOKAHEAD_BOUND as u64 - 1));
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.000_08,
            8,
            DeterministicRng::new(21),
        );
        let (pat, mut next_id) = (pattern(), 0);
        assert!(inj.draws_a_run());
        assert_eq!(inj.tick(0, &pat, &mut next_id), None);
        assert_eq!((inj.gap, inj.hit), (LOOKAHEAD_BOUND - 1, false));
        assert_eq!(inj.take_gap(), LOOKAHEAD_BOUND - 1);
        assert!(inj.draws_a_run(), "the tick after a full run draws again");
    }

    #[test]
    fn the_tick_after_a_short_gap_succeeds_without_a_draw() {
        let (pat, mut next_id) = (pattern(), 0);
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.4,
            8,
            DeterministicRng::new(8),
        );
        let mut certain = 0;
        for now in 0..4_000 {
            if inj.gap == 0 && inj.hit {
                // the destination is the tick's only draw
                let mut expected = inj.rng.clone();
                let packet = inj
                    .tick(now, &pat, &mut next_id)
                    .expect("a certain success");
                assert_eq!(pat.destination(NodeId(0), &mut expected), packet.dst);
                assert_eq!(expected.state(), inj.rng.state(), "tick {now}");
                certain += 1;
            } else {
                inj.tick(now, &pat, &mut next_id);
            }
        }
        assert!(certain > 100, "{certain} certain successes");
    }

    #[test]
    fn only_a_steady_bernoulli_process_leaves_a_gap() {
        // p >= 1 (every tick succeeds without a draw), load 0 (silent),
        // and the processes whose trial is not a fixed-probability draw
        let cases = [
            (InjectionKind::Bernoulli, 1.0, 1, false),
            (InjectionKind::Bernoulli, 0.0, 8, true),
            (
                InjectionKind::Ramp {
                    start_fraction: 0.2,
                    ramp_cycles: 500,
                },
                0.4,
                8,
                false,
            ),
            (
                InjectionKind::Ramp {
                    start_fraction: 0.2,
                    ramp_cycles: 500,
                },
                0.0,
                8,
                true,
            ),
            (
                InjectionKind::Bursty {
                    mean_on: 20.0,
                    mean_off: 30.0,
                },
                0.4,
                8,
                false,
            ),
            (
                InjectionKind::Bursty {
                    mean_on: 20.0,
                    mean_off: 30.0,
                },
                0.0,
                8,
                false,
            ),
        ];
        for (kind, load, size, silent) in cases {
            let inj = Injector::new(NodeId(0), kind, load, size, DeterministicRng::new(5));
            assert!(!inj.draws_a_run(), "{} at load {load}", kind.label());
            assert_eq!(inj.is_silent(), silent, "{} at load {load}", kind.label());
            let skipped = assert_twin(kind, load, size, 2_000, &[(1_000, 0.0)], &[500, 1_500]);
            assert_eq!(skipped, 0, "{} at load {load}", kind.label());
        }
    }

    #[test]
    fn restore_refuses_a_gap_no_run_leaves() {
        let build = |load| {
            Injector::new(
                NodeId(0),
                InjectionKind::Bernoulli,
                load,
                8,
                DeterministicRng::new(2),
            )
        };
        let bytes = |gap: u32, hit: bool| {
            let mut e = df_engine::Encoder::new();
            let (seed, words) = DeterministicRng::new(2).state();
            e.u64(seed);
            words.iter().for_each(|&w| e.u64(w));
            e.bool(true);
            e.u32(gap);
            e.bool(hit);
            e.into_bytes()
        };
        let restore = |load, gap, hit| {
            build(load).restore_state(&mut df_engine::Decoder::new(&bytes(gap, hit)))
        };
        assert!(restore(0.01, LOOKAHEAD_BOUND - 1, true).is_ok());
        assert!(restore(0.01, 0, true).is_ok());
        for (load, gap, hit) in [
            (0.01, LOOKAHEAD_BOUND, false),
            (0.01, u32::MAX, true),
            (0.0, 3, false),
            (0.0, 0, true),
        ] {
            assert!(
                matches!(restore(load, gap, hit), Err(CodecError::Invalid(_))),
                "load {load} gap {gap} hit {hit}"
            );
        }
    }

    #[test]
    fn silent_injectors_draw_nothing() {
        let pat = pattern();
        let mut inj = Injector::new(
            NodeId(0),
            InjectionKind::Ramp {
                start_fraction: 0.5,
                ramp_cycles: 100,
            },
            0.0,
            8,
            DeterministicRng::new(9),
        );
        assert!(inj.is_silent());
        let before = inj.rng.state();
        let mut next_id = 0;
        for now in 0..1_000 {
            assert!(inj.tick(now, &pat, &mut next_id).is_none());
        }
        assert_eq!(inj.rng.state(), before, "a silent tick must not draw");
    }
}
