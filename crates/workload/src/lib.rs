//! # gnf-workload
//!
//! Trace-driven and synthetic traffic workloads for the GNF emulator.
//!
//! The paper's claims are about container NF chains under *real user
//! traffic*; this crate is the scenario-diversity layer that supplies it:
//!
//! * [`pcap`] — std-only pcap/pcapng reading and writing (Ethernet
//!   linktype, both byte orders), so real captures replay into the emulator
//!   and any run can be captured to a golden trace.
//! * [`synth`] — seeded generators with heavy-tail (Zipf/Pareto) flow
//!   sizes, Poisson/periodic/MMPP-bursty arrivals and application mixes
//!   from web browsing to port scans and SYN floods.
//! * [`source`] — the streaming [`Workload`] contract the emulator ingests:
//!   one [`TimedBatch`] pulled at a time, so million-flow runs never
//!   materialize a whole trace in memory.
//! * [`population`] — the client/station addressing table generators stamp
//!   on their frames, derivable from an edge topology so synthetic traffic
//!   is indistinguishable from the built-in per-client generators.
//!
//! Determinism is a hard contract throughout: the same spec + seed produces
//! a byte-identical packet stream, and a captured trace replays into the
//! exact batches that produced it (both property-tested in
//! `tests/tests/workload_determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pcap;
pub mod population;
pub mod source;
pub mod synth;

pub use pcap::{TraceFormat, TraceReader, TraceRecord, TraceWriter, TRACE_BLOCK_BYTES};
pub use population::{ClientEndpoint, Population};
pub use source::{CaptureWorkload, TimedBatch, TraceWorkload, Workload, UNKNOWN_CLIENT};
pub use synth::{
    ArrivalModel, FlowKind, FlowSizeModel, GeneratorStats, SyntheticSpec, SyntheticWorkload,
    TrafficMix,
};
