//! # gnf-agent
//!
//! The GNF Agent: "a lightweight daemon running on the stations managed by the
//! provider. It is responsible for the instantiation of the NFs on the hosting
//! platform, notifying the Manager of clients' (dis)connection and reporting
//! periodically the state of the device."
//!
//! The [`Agent`] here is a *sans-I/O* state machine: it consumes
//! [`gnf_api::messages::ManagerToAgent`] commands and local events (client
//! association, packets, report timers) and produces
//! [`gnf_api::messages::AgentToManager`] messages plus packet-level outcomes.
//! It never touches sockets or clocks, so the same code is driven by the
//! discrete-event emulator in experiments and called directly in unit tests.
//!
//! ## The Agent in the data plane
//!
//! The Agent owns the station's data plane end to end, and it has **one
//! entry point**: [`Agent::process`] takes the direction the traffic
//! arrives from (`Ingress` = the client-access port, `Egress` = the
//! uplink), a [`gnf_packet::PacketBatch`], its virtual time and the
//! caller's sink, a closure that receives one [`PacketOutcome`] per packet.
//! A lone packet is a batch of one. Between the batch and
//! `NetworkFunction::process` the **packet** is the only unit of work:
//!
//! ```text
//! begin batch → for each packet: classify → execute → seal → settle → BatchFlush
//! ```
//!
//! * **Classify** — the [`gnf_switch::SoftwareSwitch`] decides each packet
//!   from its exact-match flow cache, else its megaflow (wildcard) layer,
//!   else the slow path (steering + MAC lookup), which memoizes the decision
//!   and hands back a wildcard *seed*. The batch pays the port check and
//!   the RX count once (`SoftwareSwitch::begin_batch`).
//! * **Execute** — a steered packet traverses its client's
//!   [`gnf_nf::NfChain`] (`NfChain::process`: NFs have a single execution
//!   path), unless a wildcard entry certified a **chain bypass** (forward or
//!   drop), in which case the chain's NF statistics are replayed instead
//!   (`NfChain::credit_bypass` / `credit_bypass_drop`). Chains run on the
//!   calling thread, one packet at a time, in packet order: a station's
//!   data plane is single-threaded (parallelism is across stations, in the
//!   emulator's fan-out).
//! * **Seal** — after a slow-path packet, the seed is completed with the
//!   chain's consulted-field report (`NfChain::wildcard_report`, gated on
//!   the packet's verdict) before the next packet is classified, so an entry
//!   sealed from packet *N* already serves packet *N + 1* of the same batch.
//! * **Settle** — the verdict becomes a [`PacketOutcome`] and hands the
//!   outcome to the caller's sink, in packet order; the TX counters of
//!   wherever the packet went are updated, a sampled flow gets its flight
//!   record. Nothing is collected per batch: the emulator's sink only
//!   tallies, a test's pushes.
//!
//! Every layer's counters surface in the periodic
//! [`gnf_telemetry::StationReport`] (`flow_cache`, `megaflow`, `batches`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;

pub use agent::{Agent, AgentConfig, DeployedChain, PacketOutcome};
