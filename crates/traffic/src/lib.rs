//! # df-traffic — synthetic traffic generation
//!
//! The paper evaluates with synthetic traffic: every node generates packets
//! according to a Bernoulli process with a configurable injection probability
//! (in phits/(node·cycle)), and the destination of each packet follows a
//! *traffic pattern*:
//!
//! * **UN** — uniform random: destination chosen uniformly among all other
//!   nodes,
//! * **ADV+i** — adversarial: every node of group `G` sends to a random node
//!   of group `G + i`, which saturates the single global link between the two
//!   groups under minimal routing (`ADV+1`), and additionally the local links
//!   towards the gateway router when `i = h` (`ADV+h`),
//! * **mixed** — each packet is adversarial with probability `1-f` and
//!   uniform with probability `f` (Figure 6),
//! * **permutation / bit-complement / bit-reversal** — fixed-point-free
//!   bijective destination maps that concentrate load on static paths,
//! * **hotspot** — a weighted split between a small set of hot destinations
//!   and background uniform traffic,
//! * **group-local** — a locality mix between intra-group and inter-group
//!   destinations,
//! * **transient** — the pattern changes at a given cycle (Figures 7–9).
//!
//! Packet timing is equally configurable: the paper's memoryless Bernoulli
//! process, a Markov on/off bursty process, or a linear load ramp
//! ([`InjectionKind`]).
//!
//! The module separates *what* destination a packet gets ([`pattern`]) from
//! *when* packets are generated ([`injection`]) and from *how the pattern
//! changes over time* ([`schedule`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collective;
pub mod injection;
pub mod job;
pub mod pattern;
pub mod schedule;

pub use collective::{AllReduceAlgorithm, CollectiveKind, RankPlacement, TaskStep, TaskWorkload};
pub use injection::{InjectionKind, Injector, LOOKAHEAD_BOUND};
pub use job::{validate_job_disjointness, JobPlacement, JobSpec};
pub use pattern::{PatternKind, TrafficPattern};
pub use schedule::{PatternPhase, TrafficSchedule};
