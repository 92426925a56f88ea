//! # df-routing — routing algorithms and misrouting triggers
//!
//! This crate implements the paper's contribution and its baselines:
//!
//! | mechanism | kind | misrouting trigger | reference |
//! |-----------|------|--------------------|-----------|
//! | MIN       | oblivious, minimal | never | Kim et al. ISCA'08 |
//! | VAL       | oblivious, nonminimal | always (random intermediate router) | Valiant'82 |
//! | PB        | source-adaptive | credit-based + piggybacked link saturation (ECN) | Jiang et al. ISCA'09 |
//! | OLM       | in-transit adaptive | credit-based, relative occupancy comparison | García et al. ICPP'13 |
//! | **Base**  | in-transit adaptive | **contention counters** (§III-B) | this paper |
//! | **Hybrid**| in-transit adaptive | contention counters **or** credits (§III-C) | this paper |
//! | **ECtN**  | in-transit adaptive | distributed (combined) contention counters (§III-D) | this paper |
//!
//! The main entry point is [`RoutingAlgorithm::decide`]: given a router's
//! state (buffers, credits, counters — from `df-router`), the input VC a
//! packet heads, and the packet itself, it produces a [`Decision`]: which
//! output port and virtual channel to request from the allocator, plus the
//! commitment (Valiant intermediate, nonminimal global link, local detour)
//! the simulator must apply to the packet if and when that request is
//! granted.
//!
//! Routing never inspects buffer *contents* of other routers — only the
//! credit counts, the local contention counters and (for ECtN / PB) the
//! group-distributed summaries, exactly as the paper's hardware could.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod analysis;
pub mod candidates;
pub mod config;
pub mod decision;
pub mod kind;
pub mod minimal;
pub mod trigger;
pub mod vcmap;

pub use algorithms::RoutingAlgorithm;
pub use config::RoutingConfig;
pub use decision::{Commitment, Decision, DecisionKind};
pub use kind::RoutingKind;
