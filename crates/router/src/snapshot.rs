//! Binary codec for the gateway-liveness view (the simulator's per-group
//! flooded copies; the truth is replayed from the fault plan, and a
//! router's own `link_view` is its group's copy, re-installed on restore —
//! neither is stored).
//!
//! `df-topology` stays free of serialisation concerns: [`GatewayLiveness`]
//! exposes its raw parts and this module turns them into the checksummed
//! byte stream used by simulation snapshots.

use df_engine::{CodecError, Decoder, Encoder};
use df_topology::{GatewayLiveness, Topology};

/// Serialise a gateway-liveness map: `version | link records | node
/// records`. The links-per-group stamp is the topology's and the down marks
/// are the records with `up == false`; neither is written.
pub fn encode_gateway_liveness(view: &GatewayLiveness, e: &mut Encoder) {
    let (version, link_records, node_records) = view.raw_parts();
    e.u64(version);
    for records in [link_records, node_records] {
        e.seq(records.len());
        for &(key, at, up) in records {
            e.u32(key);
            e.u64(at);
            e.bool(up);
        }
    }
}

/// Decode a gateway-liveness map written by [`encode_gateway_liveness`] for
/// `topo`: both record journals must be strictly sorted by key (lookups
/// binary-search them) with every key inside the topology's link / node
/// range.
pub fn decode_gateway_liveness(
    d: &mut Decoder,
    topo: &impl Topology,
) -> Result<GatewayLiveness, CodecError> {
    let version = d.u64()?;
    let mut records = |what: &str, num_keys: u32| -> Result<Vec<(u32, u64, bool)>, CodecError> {
        let journal = (0..d.seq(13)?)
            .map(|_| Ok((d.u32()?, d.u64()?, d.bool()?)))
            .collect::<Result<Vec<_>, CodecError>>()?;
        let sorted = journal.windows(2).all(|w| w[0].0 < w[1].0);
        if !sorted || journal.last().is_some_and(|r| r.0 >= num_keys) {
            return Err(CodecError::Invalid(format!(
                "gateway liveness {what} records must be strictly sorted by key \
                 and below {num_keys}"
            )));
        }
        Ok(journal)
    };
    let num_links = topo.num_groups() * topo.global_links_per_group();
    let link_records = records("link", num_links)?;
    let node_records = records("node", topo.num_nodes())?;
    Ok(GatewayLiveness::from_raw_parts(
        topo,
        version,
        link_records,
        node_records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams, GroupId, NodeId};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    #[test]
    fn gateway_liveness_round_trip_rebuilds_the_marks_from_the_records() {
        let topo = topo();
        let mut view = GatewayLiveness::new(&topo);
        view.set_entry(GroupId(0), 3, false);
        view.set_entry(GroupId(1), 1, false);
        view.set_entry(GroupId(0), 3, true);
        view.set_node(NodeId(2), false);
        let mut e = Encoder::new();
        encode_gateway_liveness(&view, &mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let restored = decode_gateway_liveness(&mut d, &topo).expect("round trip decodes");
        assert!(d.is_exhausted());
        assert_eq!(restored, view, "records, version and derived marks");
        assert!(restored.link_up(GroupId(0), 3) && !restored.link_up(GroupId(1), 1));
        assert!(!restored.node_up(NodeId(2)));
    }

    /// Hand-encode a map with the given journals (the layout of
    /// [`encode_gateway_liveness`]).
    fn forged(links: &[(u32, u64, bool)], nodes: &[(u32, u64, bool)]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(9);
        for records in [links, nodes] {
            e.seq(records.len());
            for &(key, at, up) in records {
                e.u32(key);
                e.u64(at);
                e.bool(up);
            }
        }
        e.into_bytes()
    }

    #[test]
    fn foreign_unsorted_or_out_of_range_journals_are_rejected() {
        let topo = topo(); // 9 groups x 8 links = 72 link keys, 72 nodes
        let ok = forged(
            &[(3, 1, false), (71, 2, true)],
            &[(0, 3, false), (71, 4, false)],
        );
        assert!(decode_gateway_liveness(&mut Decoder::new(&ok), &topo).is_ok());
        for (what, bytes) in [
            (
                "unsorted links",
                forged(&[(5, 1, false), (3, 2, false)], &[]),
            ),
            (
                "duplicate link key",
                forged(&[(5, 1, false), (5, 2, true)], &[]),
            ),
            (
                "link key past the last group",
                forged(&[(72, 1, false)], &[]),
            ),
            (
                "unsorted nodes",
                forged(&[], &[(9, 1, false), (2, 2, false)]),
            ),
            (
                "node id past the last node",
                forged(&[], &[(u32::MAX, 1, false)]),
            ),
        ] {
            let err = decode_gateway_liveness(&mut Decoder::new(&bytes), &topo);
            assert!(
                matches!(err, Err(CodecError::Invalid(_))),
                "{what}: {err:?}"
            );
        }
    }
}
