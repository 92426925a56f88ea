//! # df-model — shared model types
//!
//! Types shared by the router microarchitecture (`df-router`), the routing
//! algorithms (`df-routing`), the traffic generators (`df-traffic`) and the
//! simulator (`df-sim`):
//!
//! * [`time`] — the simulation clock ([`Cycle`]),
//! * [`vc`] — virtual-channel identifiers,
//! * [`packet`] — packets and their per-packet routing state (hops taken,
//!   misrouting commitments, Valiant intermediate destinations),
//! * [`config`] — the network configuration corresponding to the paper's
//!   Table I (buffer sizes, virtual channels, link latencies, router
//!   pipeline, packet size) with paper-scale and scaled presets, and the
//!   crossbar speedup as a constant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod packet;
pub mod time;
pub mod vc;

pub use config::{BufferConfig, LatencyConfig, NetworkConfig, VcConfig, ALLOCATOR_SPEEDUP};
pub use packet::{MisrouteFlags, Packet, PacketBounds, PacketId, RouteObjective, RoutingState};
pub use time::Cycle;
pub use vc::VcId;
