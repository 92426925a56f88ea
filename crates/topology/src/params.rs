//! Dragonfly sizing parameters `(p, a, h)` and derived quantities.

use crate::layout::PortLayout;

/// Sizing parameters of a canonical Dragonfly network.
///
/// * `p` — compute nodes per router,
/// * `a` — routers per group,
/// * `h` — global links per router.
///
/// The canonical (fully-populated, single link between every pair of groups)
/// Dragonfly has `g = a*h + 1` groups; smaller group counts are allowed (the
/// network is then not a complete graph at the global level only if
/// `groups < a*h + 1`, but every pair of present groups is still connected as
/// long as `groups <= a*h + 1`, which this type enforces).
///
/// The paper's Table I instance is `p=8, a=16, h=8` with 129 groups
/// (16,512 nodes); [`DragonflyParams::paper_table1`] builds it. The balanced
/// proportion recommended by Kim et al. is `a = 2p = 2h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DragonflyParams {
    /// Compute nodes attached to each router.
    pub p: u32,
    /// Routers in each group.
    pub a: u32,
    /// Global links per router.
    pub h: u32,
    /// Number of groups actually populated (`<= a*h + 1`).
    pub groups: u32,
}

/// Error produced when constructing invalid [`DragonflyParams`] or
/// [`MegaflyParams`](crate::megafly::MegaflyParams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// A size parameter or the group count was zero.
    ZeroParameter,
    /// A Megafly with `l != s`: only balanced bipartite blocks are
    /// supported (the uniform padded port layout and the VC-ladder argument
    /// both rely on it).
    UnbalancedBlock {
        /// Leaves requested.
        l: u32,
        /// Spines requested.
        s: u32,
    },
    /// More groups were requested than the palmtree wiring supports: one
    /// more than the global links per group.
    TooManyGroups {
        /// Groups requested.
        requested: u32,
        /// Maximum allowed.
        max: u32,
    },
    /// Fewer than two groups: the global level would be empty.
    TooFewGroups,
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::ZeroParameter => {
                write!(
                    f,
                    "every size parameter and the group count must be non-zero"
                )
            }
            ParamsError::UnbalancedBlock { l, s } => {
                write!(f, "blocks must be balanced (l == s), got l={l}, s={s}")
            }
            ParamsError::TooManyGroups { requested, max } => write!(
                f,
                "requested {requested} groups but the palmtree wiring supports at most {max}"
            ),
            ParamsError::TooFewGroups => write!(f, "a network needs at least 2 groups"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl DragonflyParams {
    /// Create a parameter set, validating the canonical constraints.
    pub fn new(p: u32, a: u32, h: u32, groups: u32) -> Result<Self, ParamsError> {
        if p == 0 || a == 0 || h == 0 || groups == 0 {
            return Err(ParamsError::ZeroParameter);
        }
        if groups < 2 {
            return Err(ParamsError::TooFewGroups);
        }
        let max = a * h + 1;
        if groups > max {
            return Err(ParamsError::TooManyGroups {
                requested: groups,
                max,
            });
        }
        Ok(DragonflyParams { p, a, h, groups })
    }

    /// Fully-populated canonical Dragonfly: `groups = a*h + 1`.
    pub fn canonical(p: u32, a: u32, h: u32) -> Result<Self, ParamsError> {
        Self::new(p, a, h, a * h + 1)
    }

    /// The paper's Table I network: `p=8, a=16, h=8`, 129 groups,
    /// 16,512 compute nodes, 31-port routers.
    pub fn paper_table1() -> Self {
        Self::canonical(8, 16, 8).expect("paper parameters are valid")
    }

    /// A medium, laptop-friendly instance keeping the balanced `a = 2p = 2h`
    /// proportion: `p=4, a=8, h=4`, 33 groups, 1,056 nodes.
    pub fn medium() -> Self {
        Self::canonical(4, 8, 4).expect("medium parameters are valid")
    }

    /// A small instance for fast tests and CI: `p=2, a=4, h=2`, 9 groups,
    /// 72 nodes, 36 routers.
    pub fn small() -> Self {
        Self::canonical(2, 4, 2).expect("small parameters are valid")
    }

    /// A tiny instance for unit tests where hand-checking paths is feasible:
    /// `p=1, a=2, h=1`, 3 groups, 6 nodes, 6 routers.
    pub fn tiny() -> Self {
        Self::canonical(1, 2, 1).expect("tiny parameters are valid")
    }

    /// Number of routers in the whole network.
    #[inline]
    pub fn num_routers(&self) -> u32 {
        self.a * self.groups
    }

    /// Number of compute nodes in the whole network.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.p * self.num_routers()
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> u32 {
        self.groups
    }

    /// Compute nodes per group (`a*p`).
    #[inline]
    pub(crate) fn nodes_per_group(&self) -> u32 {
        self.a * self.p
    }

    /// Router radix (number of ports): `p` injection + `a-1` local + `h`
    /// global.
    #[inline]
    pub fn radix(&self) -> u32 {
        self.p + (self.a - 1) + self.h
    }

    /// Number of global links leaving each group (`a*h`).
    #[inline]
    pub fn global_links_per_group(&self) -> u32 {
        self.a * self.h
    }

    /// Whether the instance is fully populated (`groups == a*h + 1`), i.e.
    /// there is exactly one global link between every pair of groups.
    #[inline]
    pub fn is_fully_populated(&self) -> bool {
        self.groups == self.a * self.h + 1
    }

    /// The load threshold at which a single minimal global link saturates
    /// under an ADV+i pattern: each group offers `a*p` phits/cycle over one
    /// global link, so accepted throughput per node caps at
    /// `1 / (a*p)` phits/(node·cycle) with minimal routing.
    pub fn adversarial_min_throughput_limit(&self) -> f64 {
        1.0 / (self.a as f64 * self.p as f64)
    }
}

impl PortLayout for DragonflyParams {
    #[inline]
    fn terminals(&self) -> u32 {
        self.p
    }
    #[inline]
    fn locals(&self) -> u32 {
        self.a - 1
    }
    #[inline]
    fn globals(&self) -> u32 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_matches_table1() {
        let p = DragonflyParams::paper_table1();
        assert_eq!(p.p, 8);
        assert_eq!(p.a, 16);
        assert_eq!(p.h, 8);
        assert_eq!(p.groups, 129);
        assert_eq!(p.num_nodes(), 16_512);
        assert_eq!(p.num_routers(), 2_064);
        assert_eq!(p.radix(), 31);
        assert!(p.is_fully_populated());
    }

    #[test]
    fn small_instances_are_consistent() {
        let s = DragonflyParams::small();
        assert_eq!(s.num_groups(), 9);
        assert_eq!(s.num_routers(), 36);
        assert_eq!(s.num_nodes(), 72);
        assert_eq!(s.radix(), 2 + 3 + 2);

        let t = DragonflyParams::tiny();
        assert_eq!(t.num_groups(), 3);
        assert_eq!(t.num_routers(), 6);
        assert_eq!(t.num_nodes(), 6);
    }

    #[test]
    fn zero_parameters_rejected() {
        assert_eq!(
            DragonflyParams::new(0, 4, 2, 9),
            Err(ParamsError::ZeroParameter)
        );
        assert_eq!(
            DragonflyParams::new(2, 0, 2, 9),
            Err(ParamsError::ZeroParameter)
        );
        assert_eq!(
            DragonflyParams::new(2, 4, 0, 9),
            Err(ParamsError::ZeroParameter)
        );
        assert_eq!(
            DragonflyParams::new(2, 4, 2, 0),
            Err(ParamsError::ZeroParameter)
        );
    }

    #[test]
    fn too_many_groups_rejected() {
        let err = DragonflyParams::new(2, 4, 2, 10).unwrap_err();
        assert_eq!(
            err,
            ParamsError::TooManyGroups {
                requested: 10,
                max: 9
            }
        );
        // error message mentions both numbers
        let msg = err.to_string();
        assert!(msg.contains("10") && msg.contains('9'));
    }

    #[test]
    fn single_group_rejected() {
        assert_eq!(
            DragonflyParams::new(2, 4, 2, 1),
            Err(ParamsError::TooFewGroups)
        );
    }

    #[test]
    fn both_families_return_the_one_error() {
        use crate::megafly::MegaflyParams;
        let dragonfly: [Result<DragonflyParams, ParamsError>; 3] = [
            DragonflyParams::new(0, 4, 2, 9),
            DragonflyParams::new(2, 4, 2, 10),
            DragonflyParams::new(2, 4, 2, 1),
        ];
        let megafly: [Result<MegaflyParams, ParamsError>; 3] = [
            MegaflyParams::new(0, 4, 4, 2, 9),
            MegaflyParams::new(2, 4, 4, 2, 10),
            MegaflyParams::new(2, 4, 4, 2, 1),
        ];
        for (d, m) in dragonfly.into_iter().zip(megafly) {
            assert_eq!(d.unwrap_err(), m.unwrap_err());
        }
        let unbalanced = MegaflyParams::new(2, 4, 3, 2, 9).unwrap_err();
        assert_eq!(unbalanced, ParamsError::UnbalancedBlock { l: 4, s: 3 });
        // the messages name no family: either constructor may return them
        for err in [
            ParamsError::ZeroParameter,
            unbalanced,
            ParamsError::TooManyGroups {
                requested: 10,
                max: 9,
            },
            ParamsError::TooFewGroups,
        ] {
            let msg = err.to_string();
            assert!(
                !msg.contains("Dragonfly") && !msg.contains("Megafly"),
                "{msg}"
            );
        }
    }

    #[test]
    fn partial_population_allowed() {
        let p = DragonflyParams::new(2, 4, 2, 5).unwrap();
        assert!(!p.is_fully_populated());
        assert_eq!(p.num_groups(), 5);
    }

    #[test]
    fn adversarial_limit_matches_formula() {
        let p = DragonflyParams::paper_table1();
        let lim = p.adversarial_min_throughput_limit();
        assert!((lim - 1.0 / 128.0).abs() < 1e-12);
    }
}
