//! Strongly-typed identifiers for topology entities.
//!
//! All identifiers wrap a `u32` (the paper-scale network has 16,512 nodes and
//! 2,064 routers, far below `u32::MAX`) and are ordered and hashable so
//! they can be used as indices and map keys.

use std::fmt;

/// Identifier of a compute node (an injection/consumption endpoint).
///
/// Nodes are numbered globally, router-major: node `n` attaches to router
/// `n / p` at injection port index `n % p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a router.
///
/// Routers are numbered globally, group-major: router `r` belongs to group
/// `r / a` and has local index `r % a` within that group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

/// Identifier of a Dragonfly group (a first-level complete graph of `a`
/// routers plus their `a*p` nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl NodeId {
    /// Raw index as `usize`, for indexing into per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RouterId {
    /// Raw index as `usize`, for indexing into per-router vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GroupId {
    /// Raw index as `usize`, for indexing into per-group vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for RouterId {
    fn from(v: u32) -> Self {
        RouterId(v)
    }
}

impl From<u32> for GroupId {
    fn from(v: u32) -> Self {
        GroupId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_formats_are_prefixed() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RouterId(7).to_string(), "r7");
        assert_eq!(GroupId(0).to_string(), "g0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId(1) < NodeId(2));
        assert!(RouterId(10) > RouterId(9));
        let set: HashSet<GroupId> = [GroupId(1), GroupId(1), GroupId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(RouterId::from(5).index(), 5);
        assert_eq!(GroupId::from(9).index(), 9);
    }
}
