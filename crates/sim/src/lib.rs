//! # gnf-sim
//!
//! The deterministic discrete-event simulation kernel used by the GNF
//! emulator.
//!
//! The original GNF demo measured behaviour on a physical testbed (OpenWRT
//! home routers, real Wi-Fi roaming). This reproduction replaces wall-clock
//! time with *virtual* time so that every control-plane latency — container
//! start, image pull, migration downtime, agent report intervals — is exact,
//! reproducible from a seed and independent of the machine running the
//! experiments.
//!
//! The kernel is deliberately tiny and domain-agnostic:
//!
//! * [`queue::EventQueue`] — a time-ordered event queue with a virtual clock
//!   and deterministic tie-breaking. Two lanes, one order: arbitrary-time
//!   events go to a binary heap, already-sorted runs
//!   ([`EventQueue::schedule_sorted`]) to a FIFO sorted lane, re-armed
//!   periodic timers ([`EventQueue::schedule_timer`]) to a FIFO timer lane,
//!   and `pop` takes the smallest `(time, sequence)` of the three heads —
//!   the order a single heap gives, without a long pre-generated run or a
//!   fleet's timers deepening the heap every other event sifts through (see
//!   the module docs for the argument).
//! * [`rng::Rng`] — a PCG-32 PRNG with named sub-streams and the handful of
//!   distributions the edge/traffic models need; [`rng::Zipf`] is the
//!   popularity distribution, its series computed once per table.
//! * [`stats`] — counters, summaries, histograms (with quantiles/CDFs) and
//!   time series used by experiments and telemetry.
//!
//! The world model itself (stations, clients, the Manager, ...) lives in
//! `gnf-core`, which defines its own event enum and drives this queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod stats;

pub use queue::{EventQueue, Scheduled};
pub use rng::{Rng, Zipf};
pub use stats::{rate_per_second, Counter, Histogram, Summary, TimeSeries};
