//! # df-router — router microarchitecture
//!
//! An input-output-buffered, virtual-channel, Virtual Cut-Through router
//! model following the simulation infrastructure of the paper (§IV-B):
//!
//! * per-VC input buffers with phit-granularity occupancy accounting
//!   ([`input`]), every VC of a router in one flat array,
//! * per-port output buffers, credit-based flow control towards the
//!   downstream router, and link serialisation state ([`output`]),
//! * one packet slab per router that every input VC queue and output
//!   stage is a FIFO through (`store`),
//! * a separable input-first allocator, which the simulator iterates
//!   `df_model::ALLOCATOR_SPEEDUP` times per cycle ([`allocator`]),
//! * the **contention counters** of the paper's §III-B ([`contention`]),
//! * the ECtN partial/combined counter arrays of §III-D ([`ectn`]),
//! * the PiggyBacking saturation state used by the PB baseline ([`pb`]),
//! * group-local PB/ECtN exchange over disjoint router slices
//!   ([`dissemination`]),
//! * the [`Router`] object tying all of the above together ([`router`]).
//!
//! The crate deliberately knows nothing about routing *policy*: routing
//! algorithms live in `df-routing` and read the router state through the
//! accessors exposed here, and the simulator (`df-sim`) orchestrates the
//! per-cycle dance between the two.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocator;
pub mod contention;
pub mod dissemination;
pub mod ectn;
pub mod input;
pub mod output;
pub mod pb;
pub mod router;
pub mod snapshot;
mod store;

pub use allocator::{AllocationRequest, Allocator, Grant};
pub use contention::ContentionCounters;
pub use ectn::EctnState;
pub use input::{HeadPlan, InputPort, InputVc, PlannedObjective};
pub use output::{OutputMut, OutputPort, OutputRef};
pub use pb::PbState;
pub use router::{
    set_bits, CandidateLink, CandidateTable, Footprint, Router, MAX_RADIX, MAX_VCS_PER_PORT,
};
pub use snapshot::{decode_gateway_liveness, encode_gateway_liveness};
