//! Virtual-channel identifiers.

use std::fmt;

/// Index of a virtual channel within a port.
///
/// The paper's deadlock-avoidance scheme assigns VCs by hop index (local VC =
/// number of local hops already taken, global VC = number of global hops
/// already taken), so VC indices are small (at most 3 locally, 1 globally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub u8);

impl VcId {
    /// Raw index as `usize` for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

impl From<u8> for VcId {
    fn from(v: u8) -> Self {
        VcId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_basics() {
        assert_eq!(VcId(2).index(), 2);
        assert_eq!(VcId::from(3), VcId(3));
        assert!(VcId(0) < VcId(1));
        assert_eq!(VcId(1).to_string(), "vc1");
    }
}
