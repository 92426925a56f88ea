//! Router ports: numbering convention and classification.
//!
//! Every router's ports are numbered consecutively by class, as described by
//! a [`PortLayout`] (for a Dragonfly: `p` terminals, `a-1` locals, `h`
//! globals):
//!
//! | index range                     | class      | connects to                      |
//! |---------------------------------|------------|----------------------------------|
//! | `0 .. terminals`                | terminal   | the attached compute nodes (injection *and* ejection) |
//! | `terminals .. terminals+locals` | local      | other routers of the group       |
//! | `terminals+locals .. radix`     | global     | routers in other groups          |
//!
//! The *local* port with offset `k` connects to the group-local router given
//! by the topology's wiring (see
//! [`crate::topology::Topology::local_neighbor`]). The *global* port with
//! offset `k` is the router's `k`-th global link.

use crate::layout::PortLayout;
use std::fmt;

/// Classification of a router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortClass {
    /// Port attached to a compute node; used for injection and ejection.
    Terminal,
    /// Intra-group link to another router of the same group.
    Local,
    /// Inter-group (global) link.
    Global,
}

impl fmt::Display for PortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortClass::Terminal => write!(f, "terminal"),
            PortClass::Local => write!(f, "local"),
            PortClass::Global => write!(f, "global"),
        }
    }
}

/// A port index within a router (0-based, covering all classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u32);

impl Port {
    /// Raw index as `usize` for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build the terminal port for local node offset `k`
    /// (`0 <= k < terminals`).
    #[inline]
    pub fn terminal(k: u32) -> Port {
        Port(k)
    }

    /// Build the local port with offset `k` (`0 <= k < locals`).
    #[inline]
    pub fn local(layout: &impl PortLayout, k: u32) -> Port {
        debug_assert!(k < layout.locals());
        Port(layout.terminals() + k)
    }

    /// Build the global port with offset `k` (`0 <= k < globals`).
    #[inline]
    pub fn global(layout: &impl PortLayout, k: u32) -> Port {
        debug_assert!(k < layout.globals());
        Port(layout.terminals() + layout.locals() + k)
    }

    /// Classify this port under the given layout.
    #[inline]
    pub fn class(self, layout: &impl PortLayout) -> PortClass {
        let t = layout.terminals();
        if self.0 < t {
            PortClass::Terminal
        } else if self.0 < t + layout.locals() {
            PortClass::Local
        } else {
            debug_assert!(self.0 < layout.radix(), "port {} out of radix", self.0);
            PortClass::Global
        }
    }

    /// Offset of this port within its class (e.g. the 3rd global port has
    /// offset 2).
    #[inline]
    pub fn class_offset(self, layout: &impl PortLayout) -> u32 {
        match self.class(layout) {
            PortClass::Terminal => self.0,
            PortClass::Local => self.0 - layout.terminals(),
            PortClass::Global => self.0 - layout.terminals() - layout.locals(),
        }
    }

    /// Iterator over all ports of a router with the given layout.
    pub fn all(layout: &impl PortLayout) -> impl Iterator<Item = Port> {
        (0..layout.radix()).map(Port)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DragonflyParams;

    fn params() -> DragonflyParams {
        DragonflyParams::small() // p=2, a=4, h=2 -> radix 7
    }

    #[test]
    fn classification_covers_all_ranges() {
        let p = params();
        assert_eq!(Port(0).class(&p), PortClass::Terminal);
        assert_eq!(Port(1).class(&p), PortClass::Terminal);
        assert_eq!(Port(2).class(&p), PortClass::Local);
        assert_eq!(Port(4).class(&p), PortClass::Local);
        assert_eq!(Port(5).class(&p), PortClass::Global);
        assert_eq!(Port(6).class(&p), PortClass::Global);
    }

    #[test]
    fn constructors_and_offsets_agree() {
        let p = params();
        for k in 0..p.p {
            let port = Port::terminal(k);
            assert_eq!(port.class(&p), PortClass::Terminal);
            assert_eq!(port.class_offset(&p), k);
        }
        for k in 0..p.a - 1 {
            let port = Port::local(&p, k);
            assert_eq!(port.class(&p), PortClass::Local);
            assert_eq!(port.class_offset(&p), k);
        }
        for k in 0..p.h {
            let port = Port::global(&p, k);
            assert_eq!(port.class(&p), PortClass::Global);
            assert_eq!(port.class_offset(&p), k);
        }
    }

    #[test]
    fn paper_radix_port_layout() {
        let p = DragonflyParams::paper_table1();
        // Table I: 31 ports = 8 injection + 15 local + 8 global.
        let of = |class| Port::all(&p).filter(|q| q.class(&p) == class).count();
        assert_eq!(of(PortClass::Terminal), 8);
        assert_eq!(of(PortClass::Local), 15);
        assert_eq!(of(PortClass::Global), 8);
        assert_eq!(Port::all(&p).count(), 31);
    }

    #[test]
    fn display_format() {
        assert_eq!(Port(3).to_string(), "p3");
        assert_eq!(PortClass::Global.to_string(), "global");
    }
}
