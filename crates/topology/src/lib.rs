//! # df-topology — Canonical Dragonfly topology model
//!
//! This crate models the *canonical Dragonfly* topology [Kim et al., ISCA'08;
//! Camarero et al., TACO'14] used by the IPDPS'15 paper *"Contention-based
//! Nonminimal Adaptive Routing in High-radix Networks"* (Fuentes et al.).
//!
//! A Dragonfly is a two-level hierarchical direct network defined by three
//! parameters:
//!
//! * `p` — number of compute nodes attached to each router,
//! * `a` — number of routers per group (the first-level complete graph),
//! * `h` — number of global links per router (the second-level complete graph
//!   between groups).
//!
//! With one global link between every pair of groups (the *canonical*
//! arrangement used in the paper, e.g. IBM PERCS), the network has at most
//! `a*h + 1` groups. Router radix is `p + (a-1) + h`.
//!
//! The crate provides:
//!
//! * strongly-typed identifiers ([`NodeId`], [`RouterId`], [`GroupId`],
//!   [`Port`]) with conversions between global and hierarchical coordinates,
//! * the [`Dragonfly`] topology object: neighbour queries, the *palmtree*
//!   global-link arrangement, port maps, and minimal/Valiant path helpers,
//! * topology invariants used heavily by the test-suite.
//!
//! The topology is purely combinatorial — it knows nothing about buffers,
//! credits or routing policy. Those live in `df-router` and `df-routing`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dragonfly;
pub mod ids;
pub mod layout;
pub mod linkstate;
pub mod megafly;
pub mod params;
pub mod path;
pub mod port;
pub mod topology;

pub use dragonfly::{Dragonfly, PortPeer};
pub use ids::{GroupId, NodeId, RouterId};
pub use layout::{PortLayout, RadixLayout};
pub use linkstate::GatewayLiveness;
pub use megafly::{Megafly, MegaflyParams};
pub use params::{DragonflyParams, ParamsError};
pub use path::{HopKind, PathHop};
pub use port::{Port, PortClass};
pub use topology::{Topology, TopologyKind, TopologyParams};
