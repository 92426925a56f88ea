//! Full-state simulation snapshots: serialise a [`Network`] mid-run and
//! resume it **bit-identically** later — same deliveries, same RNG draws,
//! same golden fingerprints as an uninterrupted run, under either kernel
//! mode.
//!
//! Declared as a child module of [`crate::network`] so it can reach the
//! simulator's private fields without widening the public API.
//!
//! # Format
//!
//! A snapshot is a checksummed frame (see [`df_engine::Encoder::finish_frame`]):
//! `magic "DFSIMSNP" | version | payload length | payload | FNV-1a64`.
//! Corrupt, truncated, foreign or version-skewed bytes are rejected before
//! any payload byte is interpreted.
//!
//! One rule decides what the payload holds: **every live fact exactly once,
//! and no fact restore can derive.** What a rebuilt `Network::new(config)`
//! cannot recompute is stored:
//!
//! * identity — a fingerprint of the configuration (kernel-normalised, so a
//!   snapshot restores under either `KernelMode` value),
//! * the clock, packet-id counter and the ledgers of what entered and left
//!   the network (injected, delivered and dropped packet totals),
//! * every router's buffered state ([`df_router::Router::save_state`]:
//!   queues and head registrations, output stages and credits, PB's own
//!   flags, allocator pointers), then ECtN's combined array once per group,
//! * every router-stream and node-stream RNG (seed + xoshiro words),
//! * the nodes' shared offered load, then every node's injector (stream,
//!   burst state, Bernoulli gap and whether a certain success follows it),
//!   source queue and generated phits,
//! * the metrics collector,
//! * the pending link events in exact drain order,
//! * the lost-credit ledger, the flooded group views (each as its record
//!   journal) and the two flooding flags,
//! * the job engine's execution state when the configuration carries a job
//!   set — one task section per job, in specification order (rank cursors,
//!   receive counters, compute-readiness clocks, step completion cycles and
//!   the pending-packet table), so a snapshot can land mid-collective in any
//!   job and resume bit-identically.
//!
//! The fingerprint is checked once, before any section is read, so the
//! payload does not restate the configuration: no sequence whose length it
//! fixes carries a length prefix (routers, ports, VCs, RNG streams, nodes,
//! group views, jobs, ranks, histogram bins, a ledger entry's per-VC
//! counts), and no shape it fixes is written (the series origins and bin
//! widths, the histogram's range and bin width, a liveness view's
//! links-per-group). Only lengths that vary — queues, pending events,
//! ledger entries, liveness records, series bins — are prefixed.
//!
//! **Not** stored (derived on restore): topology, routing tables/patterns;
//! the traffic phase (the one the last step ran in); a pending delivery's
//! node (its packet's destination); every count
//! another ledger holds — the packets in flight (the routers' buffers and
//! the pending link events), the generated totals (the nodes' counts, the
//! packet ids), the window's delivered packets (its latency statistic's
//! count), a histogram's count (its bins and under/overflow), the steps
//! completed (the jobs' step completion cycles) and a
//! job's progress counts (its cursors and pending table); every phit count
//! but the nodes' generated ones (its packet count times the configured
//! packet size, which every packet has); every fact of the fault plan — restore replays the events due before the
//! snapshot's cycle through the kernel's own `apply_due_faults`, which sets
//! the routers' link flags, the any-link-down gate, the drain flags, the
//! gateway-liveness truth (records and version), the spare table and the
//! fault cursor (every step applies the events due at or before its cycle,
//! so the cursor counts the events before the snapshot's); the occupancy,
//! contention and ECtN partial counters (recounted from the queues and head
//! registrations); every router's gateway-liveness view (its group's
//! flooded view, re-installed); PB's group views and the previous flooding
//! round's views (scratch: the next exchange or round overwrites every slot
//! before it reads one — restore leaves every group dirty, so the first
//! step's PB exchange rewrites each view from the stored own flags); each
//! liveness map's down marks (its records with `up == false`); the activity
//! gates (the head and staged-router sets and the next-transmit cycles are
//! recomputed from the routers, the queued-node set from the source queues,
//! node pauses from the drain flags and the truth map's node marks; the
//! wake-up calendar's buckets (each node filed at the snapshot's cycle plus
//! its restored gap), changed outputs, dirty groups and staged-port sets
//! restart conservatively — "everything dirty") and the
//! step scratch. State only an observer reads (an attached probe) is not
//! simulation state and is not in the payload at all. A packet staged at
//! an unconnected port is refused: it could never leave. So is a packet,
//! in any section, that does not fit the network ([`df_model::PacketBounds`]:
//! a node, routing-state router or group or gateway port outside it, or
//! another size than the configured one); a pending event that names a
//! router, port or VC outside it, or falls past the event wheel's horizon
//! (the kernel schedules none there); a lost-credit ledger entry that is not
//! a link end the fault replay left down; packet ledgers that disagree (the
//! injected packets are not the delivered, in-flight and fault-dropped ones,
//! or the run delivered fewer than its window); and node state the kernel
//! cannot reach: an injector gap no run of failures leaves (`LOOKAHEAD_BOUND`
//! ticks or more, or any gap on a process that draws none), an off burst
//! state on a process that is not `Bursty`, or a VC pointer at or past the
//! injection port's VC count.

use df_engine::{CodecError, Decoder, DeterministicRng, Encoder};
use df_model::{Cycle, Packet, PacketBounds, VcId};
use df_router::dissemination::install_linkview_group;
use df_router::{decode_gateway_liveness, encode_gateway_liveness};
use df_topology::{Port, RouterId, Topology};
use std::cell::OnceCell;

use super::Network;
use crate::config::{KernelMode, SimulationConfig};
use crate::events::{Event, EventQueue};

/// Frame magic of a simulation snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"DFSIMSNP";
/// Current snapshot format version, bumped by every format change: v2
/// added the task layer, v3 the topology kind to the fingerprint, v4 the
/// per-rank compute clocks and one task section per job; v5 dropped the
/// single-workload section, v6 stored every live fact once, v7 stored no
/// derivable fact (fault facts replayed, counters recounted), v8 dropped a
/// packet's never-set commit flag and a delivery's node, v9 dropped the
/// counts another ledger holds (the packets and phits in flight, the
/// generated totals, each node's packet counts, a job's progress counts),
/// v10 dropped every phit count a packet count and the configured size
/// give, the window's delivery count and the completed-step count, and v11
/// drops what the configuration fixes (length prefixes, shapes, the phase
/// index), stores ECtN's combined array and the offered load once, and
/// drops PB's group views; v12 stores each injector's gap and its certain
/// success, which became simulation state when a Bernoulli injector began
/// drawing one run of failures per gap. Older versions are refused by the frame's
/// version check — there is no compatibility loader (the sweep service
/// discards a stale checkpoint and re-runs the sub-run).
pub const SNAPSHOT_VERSION: u32 = 12;

/// Fingerprint of a configuration, used to pair snapshots with the
/// configuration they were taken under. The kernel mode is normalised away:
/// both values run the one kernel, so a snapshot restores under either.
/// The topology kind leads the hashed string explicitly (it is also part of
/// the `Debug` body) so cross-topology restores fail loudly even if two
/// parameterisations ever print alike.
pub fn config_fingerprint(config: &SimulationConfig) -> u64 {
    let mut normalized = config.clone();
    normalized.kernel = KernelMode::Optimized;
    let kind = normalized.topology.kind();
    df_engine::codec::fnv1a64(format!("{kind:?}|{normalized:?}").as_bytes())
}

fn encode_event(at: Cycle, event: &Event, e: &mut Encoder) {
    e.u64(at);
    match event {
        Event::PacketArrival {
            router,
            port,
            vc,
            packet,
        } => {
            e.u8(0);
            e.u32(router.0);
            e.u32(port.0);
            e.u8(vc.0);
            packet.encode(e);
        }
        Event::CreditReturn {
            router,
            port,
            vc,
            phits,
        } => {
            e.u8(1);
            e.u32(router.0);
            e.u32(port.0);
            e.u8(vc.0);
            e.u32(*phits);
        }
        Event::Delivery { packet } => {
            e.u8(2);
            packet.encode(e);
        }
    }
}

fn decode_event(d: &mut Decoder, bounds: &PacketBounds) -> Result<(Cycle, Event), CodecError> {
    let at = d.u64()?;
    let event = match d.u8()? {
        0 => Event::PacketArrival {
            router: RouterId(d.u32()?),
            port: Port(d.u32()?),
            vc: VcId(d.u8()?),
            packet: Packet::decode(d, bounds)?,
        },
        1 => Event::CreditReturn {
            router: RouterId(d.u32()?),
            port: Port(d.u32()?),
            vc: VcId(d.u8()?),
            phits: d.u32()?,
        },
        2 => Event::Delivery {
            packet: Packet::decode(d, bounds)?,
        },
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown event tag {tag} in snapshot"
            )))
        }
    };
    Ok((at, event))
}

impl Network {
    /// Serialise the complete simulation state into a versioned, checksummed
    /// snapshot. Pair with [`Network::restore`]; the restored network
    /// continues bit-identically to this one.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let fingerprint = self
            .fingerprint
            .get_or_init(|| config_fingerprint(&self.config));
        e.u64(*fingerprint);
        e.u64(self.cycle);
        e.u64(self.next_packet_id);
        e.u64(self.injected_packets_total);
        e.u64(self.last_delivery_cycle);
        // routers, ECtN's combined array once per group (every member holds
        // the group's one broadcast sum), the routers' RNG streams
        for router in &self.routers {
            router.save_state(&mut e);
        }
        let group_size = self.ctx.topo.routers_per_group() as usize;
        for group in self.routers.chunks(group_size) {
            let combined = group[0].ectn().combined_array();
            debug_assert!(
                group.iter().all(|r| r.ectn().combined_array() == combined),
                "a group's members hold different ECtN combined arrays"
            );
            combined.iter().for_each(|&c| e.u32(c));
        }
        for rng in &self.router_rngs {
            let (seed, words) = rng.state();
            e.u64(seed);
            for w in words {
                e.u64(w);
            }
        }
        // nodes (each injector's gap as a tick-every-cycle twin holds it,
        // whatever the calendar took out)
        self.nodes.save_state(&mut e, self.cycle);
        self.metrics.save_state(&mut e);
        // pending link events in exact drain order
        e.seq(self.events.len());
        for (at, event) in self.events.pending_in_order() {
            encode_event(at, event, &mut e);
        }
        // fault machinery the plan cannot replay: the ledger and the views
        e.seq(self.lost_credits.len());
        for (&(r, p), per_vc) in &self.lost_credits {
            e.u32(r);
            e.u32(p);
            per_vc.iter().for_each(|&c| e.u32(c));
        }
        for view in &self.group_views {
            encode_gateway_liveness(view, &mut e);
        }
        e.bool(self.flood_quiescent);
        e.bool(self.views_converged);
        // job layer (present iff the configuration carries a job set)
        if let Some(jobs) = &self.jobs {
            jobs.save_state(&mut e);
        }
        e.finish_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
    }

    /// Rebuild a network from `config` and resume it from `bytes` (written
    /// by [`Network::snapshot`]). The configuration must be the one the
    /// snapshot was taken under (fingerprint-checked, kernel excepted — a
    /// snapshot restores under either `KernelMode` value). Rejects foreign
    /// magic, unsupported versions, checksum mismatches and truncated or
    /// internally inconsistent payloads.
    pub fn restore(config: SimulationConfig, bytes: &[u8]) -> Result<Network, CodecError> {
        let mut d = Decoder::open_frame(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let fingerprint = d.u64()?;
        let expected = config_fingerprint(&config);
        if fingerprint != expected {
            return Err(CodecError::Invalid(format!(
                "snapshot was taken under a different configuration \
                 (fingerprint {fingerprint:#018x}, expected {expected:#018x})"
            )));
        }
        let mut net = Network::new(config);
        net.fingerprint = OnceCell::from(expected);
        net.cycle = d.u64()?;
        // The fault facts are the plan's, set by the kernel's own
        // interpreter: every step applies the events due at or before its
        // cycle. Replayed on the fresh network, ahead of every section, the
        // side effects (staged-packet drops, lost-credit returns, pauses)
        // find nothing to act on; the flooding flags it clears are read
        // below. The traffic phase is the one the last step ran in.
        if let Some(last) = net.cycle.checked_sub(1) {
            net.apply_due_faults(last);
            net.current_phase = net.config.schedule.phase_index_at(last);
        }
        net.next_packet_id = d.u64()?;
        net.injected_packets_total = d.u64()?;
        net.last_delivery_cycle = d.u64()?;
        for router in &mut net.routers {
            router.restore_state(&mut d)?;
        }
        let topo = net.ctx.topo;
        let group_size = topo.routers_per_group() as usize;
        let mut combined = vec![0; topo.global_links_per_group() as usize];
        for group in net.routers.chunks_mut(group_size) {
            for c in &mut combined {
                *c = d.u32()?;
            }
            group
                .iter_mut()
                .for_each(|r| r.ectn_mut().install_combined_from(&combined));
        }
        for rng in &mut net.router_rngs {
            let seed = d.u64()?;
            let words = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
            *rng = DeterministicRng::from_state(seed, words)?;
        }
        let bounds = PacketBounds::new(&net.ctx.topo, net.config.network.packet_size_phits);
        let injection_vcs = usize::from(net.config.network.vcs.injection);
        net.nodes
            .restore_state(&mut d, &bounds, injection_vcs, net.cycle)?;
        net.metrics.restore_state(&mut d, net.cycle)?;
        // pending link events
        let pending = (0..d.seq(9)?)
            .map(|_| decode_event(&mut d, &bounds))
            .collect::<Result<Vec<_>, _>>()?;
        // the kernel schedules every event inside the wheel's horizon
        let horizon = net.cycle..net.cycle + net.events.horizon() as Cycle;
        let misplaced =
            (pending.iter()).find(|(at, event)| !horizon.contains(at) || !net.is_inside(event));
        if let Some((at, event)) = misplaced {
            return Err(CodecError::Invalid(format!(
                "snapshot holds a link event outside cycles {horizon:?} or outside \
                 the network: {event:?} at cycle {at}"
            )));
        }
        net.events = EventQueue::rebuild(net.events.horizon(), net.cycle, pending);
        // a ledger entry waits for the `LinkUp` of a link end the replay
        // left down (only router-to-router links fail), one count per
        // downstream VC of that output
        for _ in 0..d.seq(12)? {
            let (r, p) = (RouterId(d.u32()?), Port(d.u32()?));
            let vcs = (net.routers.get(r.index()))
                .filter(|router| p.index() < router.num_ports() && !router.link_is_up(p))
                .map(|router| router.output(p).num_downstream_vcs());
            let Some(vcs) = vcs else {
                return Err(CodecError::Invalid(format!(
                    "lost-credit ledger entry for {r} port {} is not a down link end",
                    p.0
                )));
            };
            let per_vc = (0..vcs).map(|_| d.u32()).collect::<Result<_, _>>()?;
            net.lost_credits.insert((r.0, p.0), per_vc);
        }
        for view in &mut net.group_views {
            *view = decode_gateway_liveness(&mut d, &topo)?;
        }
        net.flood_quiescent = d.bool()?;
        net.views_converged = d.bool()?;
        if let Some(jobs) = &mut net.jobs {
            jobs.restore_state(&mut d)?;
        }
        if !d.is_exhausted() {
            return Err(CodecError::Invalid(format!(
                "snapshot payload has {} trailing bytes",
                d.remaining()
            )));
        }
        // every packet that entered the network was delivered, is in it or
        // was dropped on a fault
        let (injected, in_flight) = (net.injected_packets_total, net.in_flight());
        let (delivered, dropped) = (
            net.metrics.delivered_packets_total(),
            net.metrics.dropped_on_fault_packets(),
        );
        if delivered
            .checked_add(in_flight)
            .and_then(|n| n.checked_add(dropped))
            != Some(injected)
        {
            return Err(CodecError::Invalid(format!(
                "snapshot injected {injected} packets, but {delivered} were delivered, \
                 {in_flight} are in flight and {dropped} were dropped"
            )));
        }
        // every router's liveness view is its group's flooded view (equal at
        // every step boundary — `Network::step` asserts it in debug builds)
        for (group, view) in net.routers.chunks_mut(group_size).zip(&net.group_views) {
            install_linkview_group(group, view);
        }
        // the activity gates are derived state: at a step boundary the head
        // set (empty in the fresh network) is exactly the routers holding an
        // input head, the staged set those holding a staged packet, each
        // with its next-transmit cycle
        for (i, router) in net.routers.iter().enumerate() {
            if router.occupied_ports() != 0 {
                net.heads.insert(i);
            }
            if let Some(at) = router.next_transmit() {
                net.staged.insert(i);
                net.next_transmit[i] = at;
            }
        }
        for n in 0..net.node_blocked.len() {
            net.sync_paused(n, net.cycle);
        }
        Ok(net)
    }

    /// Whether every router, port and VC `event` names lies inside the
    /// network: the kernel applies a pending event without a range check
    /// (a packet's nodes are checked as it is decoded).
    fn is_inside(&self, event: &Event) -> bool {
        let port = |router: RouterId, port: Port| {
            (self.routers.get(router.index())).filter(|r| port.index() < r.num_ports())
        };
        match *event {
            Event::PacketArrival {
                router,
                port: p,
                vc,
                ..
            } => port(router, p).is_some_and(|r| vc.index() < r.input(p).num_vcs()),
            Event::CreditReturn {
                router,
                port: p,
                vc,
                ..
            } => port(router, p).is_some_and(|r| vc.index() < r.output(p).num_downstream_vcs()),
            Event::Delivery { .. } => true,
        }
    }
}

/// Re-frame `snapshot`'s payload after `patch` edited it, so the forged
/// bytes carry a valid checksum and reach the payload decoder.
#[cfg(test)]
pub(crate) fn forged(snapshot: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = snapshot[20..snapshot.len() - 8].to_vec();
    patch(&mut payload);
    let mut e = Encoder::new();
    payload.iter().for_each(|&b| e.u8(b));
    e.finish_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use df_model::NetworkConfig;
    use df_model::{Packet, PacketId};
    use df_router::Router;
    use df_routing::RoutingKind;
    use df_topology::{DragonflyParams, GroupId, NodeId};
    use df_traffic::{InjectionKind, PatternKind, LOOKAHEAD_BOUND};

    fn config(kernel: KernelMode, seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::PiggyBacking)
            .pattern(PatternKind::Uniform)
            .offered_load(0.3)
            .warmup_cycles(100)
            .measurement_cycles(400)
            .seed(seed)
            .kernel(kernel)
            .build()
            .expect("valid configuration")
    }

    /// Condensed end-state fingerprint used by the round-trip tests.
    fn end_state(net: &Network) -> (u64, u64, u64, u64, Vec<u64>) {
        (
            net.cycle(),
            net.metrics().delivered_packets_total(),
            net.in_flight(),
            net.injected_packets_total(),
            net.metrics().latency_histogram().bins().to_vec(),
        )
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // the second cell checkpoints with PB saturation flags in its group
        // views, which the snapshot does not store: the first exchange after
        // the restore must rebuild every view the uninterrupted run holds
        let saturated = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::paper_table1())
            .routing(RoutingKind::PiggyBacking)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.9)
            .seed(11)
            .build()
            .expect("valid configuration");
        let views = |net: &Network| -> Vec<bool> {
            let pb = net.routers.iter().map(Router::pb);
            pb.flat_map(|pb| (0..pb.group_links() as u32).map(|l| pb.group_saturated(l)))
                .collect()
        };
        for (cfg, checkpoint) in [(config(KernelMode::Optimized, 11), 137), (saturated, 300)] {
            // uninterrupted reference run
            let mut reference = Network::new(cfg.clone());
            reference.run_cycles(100);
            let start = reference.cycle();
            reference.metrics_mut().start_measurement(start);
            reference.run_cycles(400);
            let drained_ref = reference.drain(100_000);

            // interrupted run: snapshot mid-measurement, restore, finish
            let mut first = Network::new(cfg.clone());
            first.run_cycles(100);
            let start = first.cycle();
            first.metrics_mut().start_measurement(start);
            first.run_cycles(checkpoint);
            let bytes = first.snapshot();
            let checkpoint_cycle = first.cycle();
            let mut resumed = Network::restore(cfg, &bytes).expect("snapshot restores");
            assert_eq!(resumed.cycle(), checkpoint_cycle);
            if checkpoint == 300 {
                assert!(
                    views(&first).contains(&true),
                    "a saturated view flag is set"
                );
            }
            first.step();
            resumed.step();
            assert_eq!(views(&resumed), views(&first), "cycle {checkpoint_cycle}");
            drop(first);
            resumed.run_cycles(400 - checkpoint - 1);
            let drained_resumed = resumed.drain(100_000);

            assert_eq!(drained_ref, drained_resumed);
            assert_eq!(end_state(&reference), end_state(&resumed));
            assert_eq!(
                reference.metrics().window_summary().avg_packet_latency,
                resumed.metrics().window_summary().avg_packet_latency
            );
        }
    }

    #[test]
    fn snapshot_is_kernel_portable() {
        // snapshot under the optimized kernel, restore under it and under a
        // 2-worker parallel config — both must land on the state the deleted
        // seed kernel (heap queue, full router scan) reached from the same
        // bytes, frozen as an FNV-1a digest at the last commit that had it
        const FROZEN_END_STATE: u64 = 0x2112_82DF_B544_EB8C;
        let cfg_opt = config(KernelMode::Optimized, 23);
        let mut net = Network::new(cfg_opt.clone());
        net.run_cycles(250);
        let bytes = net.snapshot();

        let finish = |cfg: SimulationConfig| {
            let mut n = Network::restore(cfg, &bytes).expect("snapshot restores");
            n.run_cycles(250);
            n.drain(100_000);
            end_state(&n)
        };
        let opt = finish(cfg_opt);
        assert_eq!(
            df_engine::codec::fnv1a64(format!("{opt:?}").as_bytes()),
            FROZEN_END_STATE,
            "end state left the frozen reference: {opt:?}"
        );
        assert_eq!(opt, finish(config(KernelMode::Parallel { workers: 2 }, 23)));
    }

    #[test]
    fn snapshot_round_trips_through_restore_and_resnapshot() {
        let cfg = config(KernelMode::Optimized, 5);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(300);
        let bytes = net.snapshot();
        let restored = Network::restore(cfg, &bytes).expect("snapshot restores");
        assert_eq!(
            restored.snapshot(),
            bytes,
            "restore followed by snapshot must reproduce the bytes exactly"
        );
    }

    #[test]
    fn snapshot_rejects_corruption_and_skew() {
        let cfg = config(KernelMode::Optimized, 7);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(50);
        let bytes = net.snapshot();

        // flipped payload byte -> checksum mismatch
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(matches!(
            Network::restore(cfg.clone(), &corrupt),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // wrong magic
        let mut foreign = bytes.clone();
        foreign[0] ^= 0xFF;
        assert!(matches!(
            Network::restore(cfg.clone(), &foreign),
            Err(CodecError::BadMagic { .. })
        ));

        // truncated
        assert!(Network::restore(cfg.clone(), &bytes[..bytes.len() - 3]).is_err());

        // version skew
        let mut skewed = bytes.clone();
        skewed[8] = skewed[8].wrapping_add(1);
        assert!(matches!(
            Network::restore(cfg.clone(), &skewed),
            Err(CodecError::UnsupportedVersion { .. })
        ));

        // different configuration (fingerprint mismatch)
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(matches!(
            Network::restore(other, &bytes),
            Err(CodecError::Invalid(_))
        ));

        // ...but a kernel-only difference is accepted
        let mut parallel = cfg;
        parallel.kernel = KernelMode::Parallel { workers: 2 };
        assert!(Network::restore(parallel, &bytes).is_ok());
    }

    #[test]
    fn cross_topology_restore_is_rejected() {
        // a Dragonfly snapshot must not restore under a Megafly
        // configuration, even one with the identical node count and network
        // microarchitecture — the topology kind is part of the fingerprint
        let cfg = config(KernelMode::Optimized, 7);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(50);
        let bytes = net.snapshot();

        let mut megafly = cfg.clone();
        megafly.topology = df_topology::MegaflyParams::small().into();
        assert_eq!(
            megafly.topology.num_nodes(),
            cfg.topology.num_nodes(),
            "the rejection must come from the kind, not the size"
        );
        assert!(matches!(
            Network::restore(megafly, &bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn megafly_snapshot_restore_resumes_bit_identically() {
        // the snapshot subsystem is topology-generic: a mid-measurement
        // Megafly snapshot resumes onto the reference trajectory exactly
        let mut cfg = config(KernelMode::Optimized, 11);
        cfg.topology = df_topology::MegaflyParams::small().into();
        let mut reference = Network::new(cfg.clone());
        reference.run_cycles(100);
        let start = reference.cycle();
        reference.metrics_mut().start_measurement(start);
        reference.run_cycles(400);
        let drained_ref = reference.drain(100_000);

        let mut first = Network::new(cfg.clone());
        first.run_cycles(100);
        let start = first.cycle();
        first.metrics_mut().start_measurement(start);
        first.run_cycles(137);
        let bytes = first.snapshot();
        drop(first);

        let mut resumed = Network::restore(cfg, &bytes).expect("megafly snapshot restores");
        resumed.run_cycles(400 - 137);
        let drained_resumed = resumed.drain(100_000);

        assert_eq!(drained_ref, drained_resumed);
        assert_eq!(end_state(&reference), end_state(&resumed));
    }

    /// A packet staged at a port with nothing behind it could never leave:
    /// routing never grants one, and the transmission that reached it would
    /// have nowhere to send it. Restore refuses the snapshot.
    #[test]
    fn a_packet_staged_at_an_unconnected_port_is_refused() {
        let mut cfg = config(KernelMode::Optimized, 11);
        cfg.topology = df_topology::MegaflyParams::small().into();
        let mut net = Network::new(cfg.clone());
        let port = Port(6);
        assert_eq!(
            net.topology().peer(RouterId(0), port),
            df_topology::PortPeer::Unconnected
        );
        let packet = df_model::Packet::new(df_model::PacketId(0), NodeId(0), NodeId(9), 8, 0);
        net.routers[0].output_mut(port).accept(packet, VcId(0), 0);
        net.injected_packets_total += 1;
        assert_invalid(
            &cfg,
            &net.snapshot(),
            "a packet staged at an unconnected port",
        );
    }

    /// The kernel applies a pending event without a range check, so an
    /// event naming a router, port, VC or node outside the network — each of
    /// which restored `Ok` and panicked or ran on silently at the next step
    /// — is refused.
    #[test]
    fn pending_events_outside_the_network_are_refused() {
        let cfg = config(KernelMode::Optimized, 11);
        let packet = |dst| Packet::new(PacketId(0), NodeId(0), NodeId(dst), 8, 0);
        let arrival = |router, port| Event::PacketArrival {
            router: RouterId(router),
            port: Port(port),
            vc: VcId(0),
            packet: packet(9),
        };
        let credit = |vc| Event::CreditReturn {
            router: RouterId(0),
            port: Port(3),
            vc: VcId(vc),
            phits: 8,
        };
        let delivery = |node| Event::Delivery {
            packet: packet(node),
        };
        let snapshot_with = |event: Event| {
            let mut net = Network::new(cfg.clone());
            net.run_cycles(20);
            net.injected_packets_total += u64::from(!matches!(event, Event::CreditReturn { .. }));
            net.events.schedule(21, event);
            net.snapshot()
        };
        for (field, event) in [
            ("router", arrival(9_999, 3)),
            ("port", arrival(0, 200)),
            ("VC", credit(77)),
            ("node", delivery(99_999)),
        ] {
            assert_invalid(&cfg, &snapshot_with(event), field);
        }
        // the last router, port, VC and node are inside
        for event in [arrival(35, 6), credit(2), delivery(71)] {
            assert!(Network::restore(cfg.clone(), &snapshot_with(event)).is_ok());
        }
    }

    /// A packet whose source or destination lies outside the network
    /// restored `Ok` and panicked at its next route. Each section that
    /// decodes a packet refuses one: a marked packet is put there, and its
    /// source, then its destination, forged to node 99,999.
    #[test]
    fn forged_packets_outside_the_network_are_refused() {
        let cfg = config(KernelMode::Optimized, 11);
        let marked = Packet::new(PacketId(0x5EED_F00D), NodeId(0), NodeId(9), 8, 0);
        let mut bytes = marked.id.0.to_le_bytes().to_vec();
        bytes.extend([0u32, 9].iter().flat_map(|n| n.to_le_bytes()));
        for section in ["source queue", "input VC", "output stage", "pending event"] {
            let (mut net, p) = (Network::new(cfg.clone()), marked.clone());
            match section {
                "source queue" => net.nodes.enqueue_task_packet(0, p),
                "input VC" => net.routers[0].receive_packet(Port(0), VcId(0), p),
                "output stage" => net.routers[0].output_mut(Port(3)).accept(p, VcId(0), 0),
                _ => net.events.schedule(1, Event::Delivery { packet: p }),
            }
            net.injected_packets_total += u64::from(section != "source queue");
            let snapshot = net.snapshot();
            assert!(
                Network::restore(cfg.clone(), &snapshot).is_ok(),
                "{section}"
            );
            for field in [8, 12] {
                let frame = forged(&snapshot, |p| {
                    let at = position(p, &bytes) + field;
                    p[at..at + 4].copy_from_slice(&99_999u32.to_le_bytes());
                });
                assert_invalid(&cfg, &frame, section);
            }
        }
    }

    /// The kernel follows a packet's routing state without a range check and
    /// every packet has the configured size: a source-queue packet routed
    /// via router 9,999 restored `Ok` and panicked within 300 cycles, and a
    /// 0-phit packet ran on silently. Each field forged one past the network
    /// is refused; the last router, port and group are inside.
    #[test]
    fn forged_routing_state_fields_are_refused() {
        let cfg = config(KernelMode::Optimized, 11);
        let snapshot_with = |forge: fn(&mut Packet)| {
            let mut net = Network::new(cfg.clone());
            let mut packet = Packet::new(PacketId(0), NodeId(0), NodeId(9), 8, 0);
            forge(&mut packet);
            net.nodes.enqueue_task_packet(0, packet);
            net.snapshot()
        };
        let inside = snapshot_with(|p| {
            let r = &mut p.routing;
            (r.intermediate_router, r.local_detour) = (Some(RouterId(35)), Some(RouterId(35)));
            r.nonminimal_global = Some((RouterId(35), Port(6)));
            r.local_misrouted_in = Some(GroupId(8));
        });
        assert!(Network::restore(cfg.clone(), &inside).is_ok());
        let refused = |field, forge| assert_invalid(&cfg, &snapshot_with(forge), field);
        refused("intermediate router", |p| {
            p.routing.intermediate_router = Some(RouterId(36))
        });
        refused("gateway", |p| {
            p.routing.nonminimal_global = Some((RouterId(36), Port(6)))
        });
        refused("gateway port", |p| {
            p.routing.nonminimal_global = Some((RouterId(35), Port(7)))
        });
        refused("local detour", |p| {
            p.routing.local_detour = Some(RouterId(36))
        });
        refused("misrouted-in group", |p| {
            p.routing.local_misrouted_in = Some(GroupId(9))
        });
        refused("0 phits", |p| p.size_phits = 0);
        refused("16 phits", |p| p.size_phits = 16);
    }

    /// A lost-credit ledger entry is returned at its link's `LinkUp`, so
    /// one whose key is not a link end the fault replay leaves down is
    /// refused: a key naming no link was never removed. Its per-VC counts
    /// are as many as that output's VCs.
    #[test]
    fn forged_lost_credit_ledger_entries_are_refused() {
        let mut cfg = config(KernelMode::Optimized, 11);
        let topo = cfg.topology;
        let (down_router, down_port) =
            FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
        let (up_router, up_port) = FaultPlan::global_link_between(&topo, GroupId(2), GroupId(3));
        cfg.faults = FaultPlan::new().link_down(10, down_router, down_port);
        let snapshot_with = |(router, port): (RouterId, Port), vcs: usize| {
            let mut net = Network::new(cfg.clone());
            net.run_cycles(20);
            net.lost_credits.insert((router.0, port.0), vec![8; vcs]);
            net.snapshot()
        };
        for (what, key, vcs) in [
            ("no such router", (RouterId(9_999), down_port), 2),
            ("no such port", (down_router, Port(200)), 2),
            ("a terminal port", (down_router, Port(0)), 3),
            ("a link that is up", (up_router, up_port), 2),
        ] {
            assert_invalid(&cfg, &snapshot_with(key, vcs), what);
        }
        let entry = snapshot_with((down_router, down_port), 2);
        assert!(Network::restore(cfg.clone(), &entry).is_ok());
    }

    #[test]
    fn snapshot_mid_fault_window_resumes_bit_identically() {
        // snapshot while links are down and lost credits are ledgered, and
        // on both sides of every kind of fault: at its own cycle (not yet
        // applied) and the cycle after — so the replayed cursor must land
        // on either side of each event exactly as the run left it
        let base = config(KernelMode::Optimized, 31);
        let topo = base.topology;
        let (r0, p0) = FaultPlan::global_link_between(&topo, GroupId(1), GroupId(6));
        let (r1, p1) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(3));
        let (r2, p2) = FaultPlan::global_link_between(&topo, GroupId(2), GroupId(5));
        let faults = FaultPlan::new()
            .link_down(0, r0, p0)
            .link_up(90, r0, p0)
            .link_down(120, r1, p1)
            .link_down(140, r2, p2)
            .router_drain(150, RouterId(4))
            .node_fail(200, NodeId(5), NodeId(40))
            .router_restore(230, RouterId(4))
            .link_up(260, r1, p1)
            .node_restore(280, NodeId(5))
            .link_up(300, r2, p2);
        let mut cfg = base;
        cfg.faults = faults;
        cfg.validate().expect("fault plan is valid");

        let mut reference = Network::new(cfg.clone());
        reference.run_cycles(500);
        let drained_ref = reference.drain(100_000);

        for checkpoint in [1, 120, 121, 150, 151, 180, 200, 201] {
            let mut first = Network::new(cfg.clone());
            first.run_cycles(checkpoint);
            let bytes = first.snapshot();
            let mut resumed = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
            assert_eq!(resumed.next_fault, first.next_fault, "cycle {checkpoint}");
            assert_eq!(resumed.snapshot(), bytes, "cycle {checkpoint}");
            assert_eq!(resumed.fault_lost_credits(), first.fault_lost_credits());
            if checkpoint == 180 {
                assert!(
                    !first.router(r1).link_is_up(p1) && first.fault_lost_credits() > 0,
                    "checkpoint must land mid-fault-window for this test to bite"
                );
            }
            resumed.run_cycles(500 - checkpoint);
            let drained_resumed = resumed.drain(100_000);
            assert_eq!(drained_ref, drained_resumed, "cycle {checkpoint}");
            assert_eq!(
                end_state(&reference),
                end_state(&resumed),
                "cycle {checkpoint}"
            );
        }
    }

    fn position(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("section present in the payload")
    }

    fn assert_invalid(cfg: &SimulationConfig, bytes: &[u8], what: &str) {
        let err = Network::restore(cfg.clone(), bytes).err();
        assert!(
            matches!(err, Some(CodecError::Invalid(_))),
            "{what}: expected a typed Invalid error, got {err:?}"
        );
    }

    /// Where `net`'s metrics section lies in `payload`.
    fn metrics_section(net: &Network, payload: &[u8]) -> std::ops::Range<usize> {
        let mut e = Encoder::new();
        net.metrics.save_state(&mut e);
        let section = e.into_bytes();
        let at = position(payload, &section);
        at..at + section.len()
    }

    #[test]
    fn forged_metrics_shapes_are_rejected_not_adopted() {
        // the collector is configured by `Network::new` (series origin 100 =
        // end of warm-up, 20-cycle bins); a checksummed frame whose series
        // holds bins the run cannot have touched must not reshape it
        let cfg = config(KernelMode::Optimized, 3);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(90);
        let bytes = net.snapshot();
        assert!(net.metrics().delivered_packets_total() > 0);
        let payload = &bytes[20..bytes.len() - 8];
        // `None` (no window yet) | latency | hops | ten counts | the latency
        // series, which leads with its start bin (the first delivery's, at
        // a cycle in 20..40)
        let series = metrics_section(&net, payload).start + 1 + 96 + 80;
        assert_eq!(payload[series..series + 8], (-4i64).to_le_bytes());
        // times 0..=90 around origin 100 occupy bins -5..=-1
        for (start_bin, what) in [
            (i64::MAX, "start_bin i64::MAX"),
            (i64::MIN, "start_bin i64::MIN"),
            (0, "start_bin past the snapshot cycle"),
            (-6, "start_bin before cycle 0"),
        ] {
            let frame = forged(&bytes, |p| {
                p[series..series + 8].copy_from_slice(&start_bin.to_le_bytes())
            });
            assert_invalid(&cfg, &frame, what);
        }

        // the untouched payload still restores through the same helper
        assert!(Network::restore(cfg, &forged(&bytes, |_| {})).is_ok());
    }

    /// A snapshot 300 cycles into a run with its window open at cycle 100,
    /// and where its metrics section lies in the payload.
    fn measured_snapshot(cfg: &SimulationConfig) -> (Network, Vec<u8>, std::ops::Range<usize>) {
        let mut net = Network::new(cfg.clone());
        net.run_cycles(100);
        net.metrics_mut().start_measurement(100);
        net.run_cycles(200);
        let bytes = net.snapshot();
        let section = metrics_section(&net, &bytes[20..bytes.len() - 8]);
        (net, bytes, section)
    }

    #[test]
    fn forged_window_counts_are_refused() {
        // `latency` holds the window's delivery count; the hop statistic and
        // the histogram count the same deliveries, and neither misroute
        // count can exceed them
        let cfg = config(KernelMode::Optimized, 3);
        let (net, bytes, section) = measured_snapshot(&cfg);
        let delivered = net.metrics().window_summary().delivered_packets;
        assert!(delivered > 0);
        // `Some(window start)`, then `latency` and `hops` (count first, 48
        // bytes each) and the two misroute counts; the histogram's bins
        // close the section
        let (hops, global) = (section.start + 9 + 48, section.start + 9 + 96);
        let bins = section.end - 500 * 8;
        let first_bin = |p: &[u8]| u64::from_le_bytes(p[bins..bins + 8].try_into().unwrap());
        for (at, value, what) in [
            (hops, delivered + 1, "hop count"),
            (bins, first_bin(&bytes[20..]) + 1, "histogram bin"),
            (global, delivered + 1, "global misroutes"),
            (global + 8, delivered + 1, "local misroutes"),
        ] {
            let frame = forged(&bytes, |p| {
                p[at..at + 8].copy_from_slice(&value.to_le_bytes())
            });
            assert_invalid(&cfg, &frame, what);
        }
        assert!(Network::restore(cfg, &forged(&bytes, |_| {})).is_ok());
    }

    #[test]
    fn forged_packet_ledgers_are_refused() {
        // every packet that entered the network was delivered, is in it or
        // was dropped, and the run delivered every packet of the window
        let cfg = config(KernelMode::Optimized, 3);
        let (net, bytes, section) = measured_snapshot(&cfg);
        let total = net.metrics().delivered_packets_total();
        let window = net.metrics().window_summary().delivered_packets;
        assert!(net.in_flight() > 0 && total > window && window > 0);
        let injected = net.injected_packets_total();
        // `fingerprint | cycle | next packet id | injected | ...`; the run's
        // delivery count follows the window block and the misroute counts
        let delivered = section.start + 9 + 96 + 16;
        let with = |fields: &[(usize, u64)]| {
            forged(&bytes, |p| {
                for &(at, value) in fields {
                    p[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
            })
        };
        // one row per check: the window check alone sees the second, whose
        // ledgers still balance
        let short = total - window + 1;
        for (fields, what) in [
            (vec![(24, injected + 1)], "an unaccounted packet"),
            (
                vec![(24, injected - short), (delivered, window - 1)],
                "fewer run deliveries than window deliveries",
            ),
        ] {
            assert_invalid(&cfg, &with(&fields), what);
        }
        assert!(Network::restore(cfg, &with(&[(24, injected), (delivered, total)])).is_ok());
    }

    /// Where node 0's random stream, burst state, injector gap and VC
    /// pointer lie in `payload`: the nodes section is found by its bytes,
    /// then decoded up to each field.
    fn node_zero_fields(net: &Network, payload: &[u8]) -> [usize; 4] {
        let mut e = Encoder::new();
        net.nodes.save_state(&mut e, net.cycle);
        let section = e.into_bytes();
        let (at, mut d) = (position(payload, &section), Decoder::new(&section));
        d.f64().unwrap(); // the shared offered load
        let stream = at + d.position();
        for _ in 0..5 {
            d.u64().unwrap(); // node 0's stream: seed and four words
        }
        let on = at + d.position();
        d.bool().unwrap();
        let gap = at + d.position();
        d.u32().unwrap();
        d.bool().unwrap(); // whether a certain success follows the gap
        let bounds = PacketBounds::new(&net.ctx.topo, net.config.network.packet_size_phits);
        for _ in 0..d.seq(8).unwrap() {
            Packet::decode(&mut d, &bounds).unwrap();
        }
        [stream, on, gap, at + d.position()]
    }

    #[test]
    fn forged_injector_gaps_are_refused() {
        // a run of failures leaves at most `LOOKAHEAD_BOUND − 1` ticks, and
        // only a steady Bernoulli process leaves any
        let cfg = config(KernelMode::Optimized, 3);
        let mut silent = cfg.clone();
        silent.offered_load = 0.0;
        for (cfg, gap, what) in [
            (&cfg, LOOKAHEAD_BOUND, "a gap of the whole bound"),
            (&cfg, u32::MAX, "a gap of u32::MAX"),
            (&silent, 1, "a gap at load 0"),
        ] {
            let mut net = Network::new(cfg.clone());
            net.run_cycles(40);
            let bytes = net.snapshot();
            let [_, _, at, _] = node_zero_fields(&net, &bytes[20..bytes.len() - 8]);
            let with = |gap: u32| {
                forged(&bytes, |p| {
                    p[at..at + 4].copy_from_slice(&gap.to_le_bytes())
                })
            };
            assert_invalid(cfg, &with(gap), what);
            if cfg.offered_load > 0.0 {
                let restored = Network::restore(cfg.clone(), &with(LOOKAHEAD_BOUND - 1));
                assert!(restored.is_ok(), "the longest gap a run leaves restores");
            }
        }
    }

    /// xoshiro256++ never reaches the all-zero state, so a zeroed stream is
    /// forged, and a generator that accepted it would draw 0 forever (or,
    /// rewritten, re-snapshot to other bytes). Router 0's stream is found by
    /// its own state bytes, node 0's by decoding the nodes section.
    #[test]
    fn forged_zeroed_random_streams_are_refused() {
        let cfg = config(KernelMode::Optimized, 3);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(40);
        let bytes = net.snapshot();
        let payload = &bytes[20..bytes.len() - 8];
        let (seed, words) = net.router_rngs[0].state();
        let mut e = Encoder::new();
        for w in [seed, words[0], words[1], words[2], words[3]] {
            e.u64(w);
        }
        let router = position(payload, &e.into_bytes()) + 8;
        let [node, ..] = node_zero_fields(&net, payload);
        for (at, what) in [(router, "router 0's stream"), (node + 8, "node 0's stream")] {
            let zeroed = forged(&bytes, |p| p[at..at + 32].fill(0));
            assert_invalid(&cfg, &zeroed, what);
        }
    }

    /// Node state the kernel cannot reach restored `Ok`: a VC pointer at or
    /// past the injection port's VC count (`take_vc_rr` keeps it below), and
    /// an off burst state on a process that is not `Bursty` (always on).
    /// Each is refused; the last VC, and off on a `Bursty` process, restore.
    #[test]
    fn forged_unreachable_node_states_are_refused() {
        let cfg = config(KernelMode::Optimized, 3);
        let mut bursty = cfg.clone();
        bursty.injection = InjectionKind::Bursty {
            mean_on: 20.0,
            mean_off: 30.0,
        };
        for cfg in [&cfg, &bursty] {
            let mut net = Network::new(cfg.clone());
            net.run_cycles(40);
            let bytes = net.snapshot();
            let [_, on, _, next_vc] = node_zero_fields(&net, &bytes[20..bytes.len() - 8]);
            let with = |at: usize, value: &[u8]| {
                forged(&bytes, |p| p[at..at + value.len()].copy_from_slice(value))
            };
            let vcs = u64::from(cfg.network.vcs.injection);
            assert_invalid(cfg, &with(next_vc, &vcs.to_le_bytes()), "VC pointer");
            assert!(
                Network::restore(cfg.clone(), &with(next_vc, &(vcs - 1).to_le_bytes())).is_ok()
            );
            let off = with(on, &[0]);
            match cfg.injection {
                InjectionKind::Bursty { .. } => {
                    assert!(Network::restore(cfg.clone(), &off).is_ok())
                }
                _ => assert_invalid(cfg, &off, "off burst state"),
            }
        }
    }

    /// The kernel schedules every link event inside the wheel's horizon, so
    /// one at or past `cycle + horizon` is forged: it restored `Ok` into the
    /// queue's overflow map. The last pending event, found by decoding the
    /// events section, is moved to the horizon's last cycle, then past it.
    #[test]
    fn forged_link_events_past_the_horizon_are_refused() {
        let cfg = config(KernelMode::Optimized, 11);
        let mut net = Network::new(cfg.clone());
        net.run_cycles(20);
        let bytes = net.snapshot();
        let mut e = Encoder::new();
        e.seq(net.events.len());
        for (at, event) in net.events.pending_in_order() {
            encode_event(at, event, &mut e);
        }
        let section = e.into_bytes();
        let (base, mut d) = (position(&bytes[20..], &section), Decoder::new(&section));
        let bounds = PacketBounds::new(&net.ctx.topo, net.config.network.packet_size_phits);
        let mut last = None;
        for _ in 0..d.seq(9).unwrap() {
            last = Some(base + d.position());
            decode_event(&mut d, &bounds).unwrap();
        }
        let last = last.expect("events pending at the snapshot");
        let with = |at: Cycle| {
            forged(&bytes, |p| {
                p[last..last + 8].copy_from_slice(&at.to_le_bytes())
            })
        };
        let end = net.cycle + net.events.horizon() as Cycle;
        assert!(Network::restore(cfg.clone(), &with(end - 1)).is_ok());
        assert_invalid(&cfg, &with(end), "an event at the horizon");
        assert_invalid(&cfg, &with(u64::MAX), "an event at u64::MAX");
    }

    #[test]
    fn forged_liveness_journals_are_rejected() {
        // a down gateway link and a failed node put records in the truth map
        let base = config(KernelMode::Optimized, 13);
        let topo = base.topology;
        let (r, p) = FaultPlan::global_link_between(&topo, GroupId(1), GroupId(4));
        let mut cfg = base;
        cfg.faults = FaultPlan::new()
            .link_down(20, r, p)
            .node_fail(30, NodeId(5), NodeId(40));
        cfg.validate().expect("fault plan is valid");
        let mut net = Network::new(cfg.clone());
        net.run_cycles(60);
        assert!(net.node_failed(NodeId(5)) && !net.router(r).link_is_up(p));
        let bytes = net.snapshot();

        // restore replays the plan onto the link flags and the truth map,
        // and installs the router views from the flooded group views
        let restored = Network::restore(cfg.clone(), &bytes).expect("restores");
        assert_eq!(restored.linkview_truth(), net.linkview_truth());
        assert!(restored.node_failed(NodeId(5)) && !restored.node_failed(NodeId(40)));
        let failed = topo.nodes().filter(|&n| restored.node_failed(n)).count();
        assert_eq!(failed, 1);
        let layout = topo.layout();
        for router in topo.routers() {
            let (before, after) = (net.router(router), restored.router(router));
            assert!(Port::all(&layout).all(|p| after.link_is_up(p) == before.link_is_up(p)));
            assert_eq!(after.link_view(), before.link_view());
        }

        // group 0's flooded view, converged on the truth's records, is the
        // first liveness section of the payload
        let view = &net.group_views[0];
        let mut e = Encoder::new();
        encode_gateway_liveness(view, &mut e);
        let first = e.into_bytes();
        let payload = &bytes[20..bytes.len() - 8];
        let at = position(payload, &first);
        let (_, links, nodes) = view.raw_parts();
        let lpg = topo.global_links_per_group();
        assert_eq!(
            (links.len(), nodes.len()),
            (2, 1),
            "both link ends and the node"
        );
        let with = |links: Vec<(u32, u64, bool)>, nodes: Vec<(u32, u64, bool)>| {
            let mut section = first[..8].to_vec(); // version
            let mut e = Encoder::new();
            for records in [links, nodes] {
                e.seq(records.len());
                for (key, seq, up) in records {
                    e.u32(key);
                    e.u64(seq);
                    e.bool(up);
                }
            }
            section.extend(e.into_bytes());
            forged(&bytes, |p| drop(p.splice(at..at + first.len(), section)))
        };
        assert!(Network::restore(cfg.clone(), &with(links.to_vec(), nodes.to_vec())).is_ok());
        let swapped = vec![links[1], links[0]];
        assert_invalid(
            &cfg,
            &with(swapped, nodes.to_vec()),
            "unsorted link records",
        );
        let twice = vec![links[0], links[0]];
        assert_invalid(&cfg, &with(twice, nodes.to_vec()), "duplicate link key");
        let past = vec![links[0], (9 * lpg, 7, false)];
        assert_invalid(
            &cfg,
            &with(past, nodes.to_vec()),
            "link key past the last group",
        );
        let ghost = vec![(u32::MAX, 7, false)];
        assert_invalid(
            &cfg,
            &with(links.to_vec(), ghost),
            "node id past the last node",
        );
    }

    #[test]
    fn forged_task_states_are_rejected_not_adopted() {
        // a ring all-reduce alone on the network, checkpointed mid-script
        // with task packets in flight
        let job = df_traffic::JobSpec::new(
            df_traffic::TaskWorkload::single(
                df_traffic::CollectiveKind::AllReduce(df_traffic::AllReduceAlgorithm::Ring),
                8,
                2,
            ),
            df_traffic::JobPlacement::group_spread(0),
        );
        let cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::Base)
            .offered_load(0.0)
            .job(job)
            .seed(5)
            .build()
            .expect("valid configuration");
        let mut net = Network::new(cfg.clone());
        net.run_cycles(60);
        let bytes = net.snapshot();
        let engine = net.jobs().expect("job configured");
        let job = &engine.jobs()[0];
        let ranks = job.stall_cycles().len() as u32;
        let (steps, pending) = (job.total_steps(), job.pending_packets());
        assert!(pending > 0 && !job.is_complete(), "checkpoint mid-script");
        assert!(job.steps_completed() > 0, "a step behind every rank");

        // the task section closes the payload: per rank `cursor | enqueued |
        // stalls | ready_at | recvs per step`, per step its completion cycle
        // (optional) and the pending packets `id | src_rank | dst_rank |
        // step`, ascending id
        let payload = &bytes[20..bytes.len() - 8];
        let mut section = Encoder::new();
        engine.save_state(&mut section);
        let at = payload.len() - section.into_bytes().len();
        let rank_at = |r: usize| at + r * (25 + 4 * steps);
        let end = payload.len();
        let last_step = u32::from_le_bytes(payload[end - 4..end].try_into().unwrap());
        let with = |offset: usize, value: &[u8]| {
            forged(&bytes, |p| {
                p[offset..offset + value.len()].copy_from_slice(value)
            })
        };
        // each forgery trips its own check: a typed error naming it
        let other_step = (last_step + 1) % steps as u32;
        for (offset, value, check) in [
            (
                rank_at(0),
                &(steps as u64 + 1).to_le_bytes()[..],
                "beyond the",
            ),
            (rank_at(0), &0u64.to_le_bytes()[..], "ranks past it"),
            (end - 12, &ranks.to_le_bytes()[..], "out-of-range rank"),
            (end - 8, &ranks.to_le_bytes()[..], "out-of-range rank"),
            (end - 4, &(steps as u32).to_le_bytes()[..], "not enqueued"),
            (end - 4, &other_step.to_le_bytes()[..], "not enqueued"),
        ] {
            match Network::restore(cfg.clone(), &with(offset, value)) {
                Err(CodecError::Invalid(why)) if why.contains(check) => {}
                other => panic!("forged {check:?}: got {:?}", other.err()),
            }
        }
        // the untouched payload still restores through the same helper
        assert!(Network::restore(cfg.clone(), &forged(&bytes, |_| {})).is_ok());

        // the progress counts restore recounts are the live job's, mid-script
        // and once the job has finished
        let mid_script = job.progress();
        net.run_until_jobs_complete(100_000)
            .expect("the job completes");
        let done = net.jobs().unwrap().jobs()[0].progress();
        for (live, bytes) in [(mid_script, bytes), (done, net.snapshot())] {
            let restored = Network::restore(cfg.clone(), &bytes).expect("restores");
            assert_eq!(restored.jobs().unwrap().jobs()[0].progress(), live);
            assert_eq!(restored.snapshot(), bytes);
        }

        // a finished rank has no step to enqueue: the flag is read as the
        // rank's membership of the waiting set, so a set flag on a finished
        // rank would re-snapshot to other bytes. Its offset comes from
        // decoding the task section: rank 0's cursor, then its flag.
        let bytes = net.snapshot();
        let mut section = Encoder::new();
        net.jobs().unwrap().save_state(&mut section);
        let section = section.into_bytes();
        let mut d = Decoder::new(&section);
        assert_eq!(d.usize().unwrap(), steps, "rank 0 has finished");
        let flag_at = (bytes.len() - 28) - section.len() + d.position();
        assert!(!d.bool().unwrap(), "and enqueued nothing");
        match Network::restore(cfg.clone(), &forged(&bytes, |p| p[flag_at] = 1)) {
            Err(CodecError::Invalid(why)) if why.contains("past the end") => {}
            other => panic!("forged finished-rank flag: got {:?}", other.err()),
        }
    }
}
