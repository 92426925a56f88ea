//! The routing mechanisms evaluated in the paper.

use std::fmt;

/// Which routing mechanism a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Oblivious hierarchical minimal routing.
    Minimal,
    /// Oblivious Valiant routing through a random intermediate router.
    Valiant,
    /// PiggyBacking: source-adaptive MIN/VAL selection driven by credit
    /// occupancy and piggybacked global-link saturation bits (ECN-style).
    PiggyBacking,
    /// Opportunistic Local Misrouting: in-transit adaptive, credit-based
    /// global and local misrouting (the best previous in-transit mechanism).
    Olm,
    /// Contention-counter misrouting trigger (the paper's Base mechanism).
    Base,
    /// Contention counters combined with a credit-based trigger (the paper's
    /// Hybrid mechanism).
    Hybrid,
    /// Explicit Contention Notification: group-distributed contention
    /// counters driving misrouting at injection (the paper's ECtN
    /// mechanism).
    Ectn,
}

impl RoutingKind {
    /// All mechanisms, in the order the paper's figures list them.
    pub const ALL: [RoutingKind; 7] = [
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::PiggyBacking,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Hybrid,
        RoutingKind::Ectn,
    ];

    /// The adaptive mechanisms compared in most figures (everything except
    /// the oblivious references).
    pub const ADAPTIVE: [RoutingKind; 5] = [
        RoutingKind::PiggyBacking,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Hybrid,
        RoutingKind::Ectn,
    ];

    /// The contention-based mechanisms introduced by the paper.
    pub const CONTENTION_BASED: [RoutingKind; 3] =
        [RoutingKind::Base, RoutingKind::Hybrid, RoutingKind::Ectn];

    /// Label used in tables and figures ("MIN", "VAL", "PB", "OLM", "Base",
    /// "Hybrid", "ECtN").
    pub fn label(&self) -> &'static str {
        match self {
            RoutingKind::Minimal => "MIN",
            RoutingKind::Valiant => "VAL",
            RoutingKind::PiggyBacking => "PB",
            RoutingKind::Olm => "OLM",
            RoutingKind::Base => "Base",
            RoutingKind::Hybrid => "Hybrid",
            RoutingKind::Ectn => "ECtN",
        }
    }

    /// Whether the mechanism requires the periodic ECtN partial-array
    /// broadcast.
    pub fn needs_ectn_broadcast(&self) -> bool {
        matches!(self, RoutingKind::Ectn)
    }

    /// Whether the mechanism requires the PB saturation dissemination.
    pub fn needs_pb_dissemination(&self) -> bool {
        matches!(self, RoutingKind::PiggyBacking)
    }
}

impl fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(RoutingKind::Minimal.label(), "MIN");
        assert_eq!(RoutingKind::Valiant.label(), "VAL");
        assert_eq!(RoutingKind::PiggyBacking.label(), "PB");
        assert_eq!(RoutingKind::Olm.label(), "OLM");
        assert_eq!(RoutingKind::Base.label(), "Base");
        assert_eq!(RoutingKind::Hybrid.label(), "Hybrid");
        assert_eq!(RoutingKind::Ectn.label(), "ECtN");
        assert_eq!(RoutingKind::Ectn.to_string(), "ECtN");
    }

    #[test]
    fn dissemination_flags_name_one_mechanism_each() {
        for k in RoutingKind::ALL {
            assert_eq!(k.needs_ectn_broadcast(), k == RoutingKind::Ectn);
            assert_eq!(k.needs_pb_dissemination(), k == RoutingKind::PiggyBacking);
        }
    }

    #[test]
    fn constant_lists_are_nested_as_expected() {
        assert_eq!(RoutingKind::ALL.len(), 7);
        assert_eq!(RoutingKind::ADAPTIVE.len(), 5);
        for k in RoutingKind::ADAPTIVE {
            assert!(RoutingKind::ALL.contains(&k));
        }
        for k in RoutingKind::CONTENTION_BASED {
            assert!(RoutingKind::ADAPTIVE.contains(&k));
        }
    }
}
