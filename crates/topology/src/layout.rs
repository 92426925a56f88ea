//! [`PortLayout`]: the per-router port numbering contract shared by every
//! topology.
//!
//! All topologies in this crate number the ports of a router consecutively
//! by class — terminals first, then locals, then globals — so a port index
//! can be classified with two comparisons and no per-topology tables. The
//! [`PortLayout`] trait exposes the three class widths; [`Port`]
//! constructors and classifiers are generic over it, so the same `Port`
//! arithmetic serves a Dragonfly (`p + (a-1) + h` ports), a Megafly
//! (`p + s + h` ports, padded uniformly across leaves and spines) and any
//! future instance.
//!
//! [`Port`]: crate::port::Port

use serde::{Deserialize, Serialize};

/// The port-class widths of one router: how many terminal, local and global
/// port indices its numbering reserves.
///
/// Implementations must keep the three widths constant for the lifetime of
/// the value — `Port` indices computed against a layout are only meaningful
/// against that same layout.
pub trait PortLayout {
    /// Number of terminal (node-facing) port indices.
    fn terminals(&self) -> u32;
    /// Number of local (intra-group) port indices.
    fn locals(&self) -> u32;
    /// Number of global (inter-group) port indices.
    fn globals(&self) -> u32;

    /// Total number of port indices (`terminals + locals + globals`).
    #[inline]
    fn radix(&self) -> u32 {
        self.terminals() + self.locals() + self.globals()
    }
}

/// A plain-data [`PortLayout`]: the three class widths as a `Copy` struct.
///
/// This is what [`Topology::layout`](crate::topology::Topology::layout)
/// returns, so generic code can classify ports without keeping the concrete
/// parameter struct around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RadixLayout {
    /// Terminal port indices (`0 .. terminals`).
    pub terminals: u32,
    /// Local port indices (`terminals .. terminals + locals`).
    pub locals: u32,
    /// Global port indices (`terminals + locals .. radix`).
    pub globals: u32,
}

impl RadixLayout {
    /// The class widths of `layout` as plain data.
    pub(crate) fn of(layout: &impl PortLayout) -> Self {
        RadixLayout {
            terminals: layout.terminals(),
            locals: layout.locals(),
            globals: layout.globals(),
        }
    }
}

impl PortLayout for RadixLayout {
    #[inline]
    fn terminals(&self) -> u32 {
        self.terminals
    }
    #[inline]
    fn locals(&self) -> u32 {
        self.locals
    }
    #[inline]
    fn globals(&self) -> u32 {
        self.globals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sums_the_classes() {
        let l = RadixLayout {
            terminals: 2,
            locals: 3,
            globals: 2,
        };
        assert_eq!(l.terminals(), 2);
        assert_eq!(l.locals(), 3);
        assert_eq!(l.globals(), 2);
        assert_eq!(l.radix(), 7);
    }
}
