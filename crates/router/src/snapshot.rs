//! Binary codec for the gateway-liveness view (shared by the router's
//! per-router `link_view` and the simulator's published truth/group copies).
//!
//! `df-topology` stays free of serialisation concerns: [`GatewayLiveness`]
//! exposes its raw parts and this module turns them into the checksummed
//! byte stream used by simulation snapshots.

use df_engine::{CodecError, Decoder, Encoder};
use df_topology::GatewayLiveness;

/// Serialise a gateway-liveness map (version, down marks and the replayable
/// failure/recovery records).
pub fn encode_gateway_liveness(view: &GatewayLiveness, e: &mut Encoder) {
    let (links_per_group, version, down, nodes_down, link_records, node_records) = view.raw_parts();
    e.u32(links_per_group);
    e.u64(version);
    e.seq(down.len());
    for &l in down {
        e.u32(l);
    }
    e.seq(nodes_down.len());
    for &n in nodes_down {
        e.u32(n);
    }
    e.seq(link_records.len());
    for &(link, at, up) in link_records {
        e.u32(link);
        e.u64(at);
        e.bool(up);
    }
    e.seq(node_records.len());
    for &(node, at, up) in node_records {
        e.u32(node);
        e.u64(at);
        e.bool(up);
    }
}

/// Decode a gateway-liveness map written by [`encode_gateway_liveness`].
/// `links_per_group` must match the topology the view is being restored
/// into.
pub fn decode_gateway_liveness(
    d: &mut Decoder,
    expected_links_per_group: u32,
) -> Result<GatewayLiveness, CodecError> {
    let links_per_group = d.u32()?;
    if links_per_group != expected_links_per_group {
        return Err(CodecError::Invalid(format!(
            "gateway liveness links-per-group mismatch: snapshot has \
             {links_per_group}, topology has {expected_links_per_group}"
        )));
    }
    let version = d.u64()?;
    let marks = |d: &mut Decoder| -> Result<Vec<u32>, CodecError> {
        (0..d.seq(4)?).map(|_| d.u32()).collect()
    };
    let records = |d: &mut Decoder| -> Result<Vec<(u32, u64, bool)>, CodecError> {
        (0..d.seq(13)?)
            .map(|_| Ok((d.u32()?, d.u64()?, d.bool()?)))
            .collect()
    };
    let (down, nodes_down) = (marks(d)?, marks(d)?);
    let (link_records, node_records) = (records(d)?, records(d)?);
    for marks in [&down, &nodes_down] {
        if marks.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Invalid(
                "gateway liveness down marks must be strictly sorted".into(),
            ));
        }
    }
    Ok(GatewayLiveness::from_raw_parts(
        links_per_group,
        version,
        down,
        nodes_down,
        link_records,
        node_records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams, GroupId, NodeId};

    #[test]
    fn gateway_liveness_round_trip() {
        let topo = Dragonfly::new(DragonflyParams::small());
        let mut view = GatewayLiveness::new(&topo);
        view.set_entry(GroupId(0), 3, false);
        view.set_entry(GroupId(1), 1, false);
        view.set_entry(GroupId(0), 3, true);
        view.set_node(NodeId(2), false);
        let mut e = Encoder::new();
        encode_gateway_liveness(&view, &mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let restored =
            decode_gateway_liveness(&mut d, view.raw_parts().0).expect("round trip decodes");
        assert!(d.is_exhausted());
        assert!(view.same_marks(&restored));
        let (_, version, ..) = restored.raw_parts();
        assert_eq!(version, view.raw_parts().1);
    }

    #[test]
    fn links_per_group_mismatch_is_rejected() {
        let topo = Dragonfly::new(DragonflyParams::small());
        let view = GatewayLiveness::new(&topo);
        let mut e = Encoder::new();
        encode_gateway_liveness(&view, &mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let err = decode_gateway_liveness(&mut d, 999).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)));
    }
}
