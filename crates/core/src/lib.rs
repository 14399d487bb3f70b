//! # gnf-core
//!
//! The Glasgow Network Functions emulator: the top-level crate tying the
//! whole reproduction together.
//!
//! The paper demonstrates a container-based NFV framework for the network
//! edge whose NFs *roam* with their clients: when a smartphone moves between
//! wireless cells, the Manager migrates its firewall / HTTP filter / DNS
//! load balancer to the new cell's station, transparently to the user. This
//! crate provides:
//!
//! * [`scenario`] — describe an experiment: topology, clients, traffic,
//!   mobility, NF policies, configuration, duration.
//! * [`emulator`] — run it: a deterministic discrete-event emulation driving
//!   the real `gnf-manager`, `gnf-agent`, `gnf-container`, `gnf-switch` and
//!   `gnf-nf` code with virtual time.
//! * [`report`] — the measurements a run produces: migration downtime,
//!   deployment latency, packet-level policy enforcement, control-plane load,
//!   and the aggregated data-plane cache/batch telemetry (exact-match flow
//!   cache, megaflow wildcard cache, batch-size distribution).
//!
//! The emulator runs the *production* data plane: traffic is coalesced into
//! per-station [`gnf_packet::PacketBatch`] events, a flush of at least
//! [`emulator::PACKET_BREAK_EVEN`] packets is sharded across
//! [`Emulator::set_workers`] threads with a deterministic merge (the
//! [`RunReport`] is byte-identical for any worker count), and every station's
//! switch runs with the megaflow (wildcard) cache enabled — toggleable via
//! [`Emulator::set_megaflow_enabled`] for A/B comparisons.
//!
//! Beyond the scenario's built-in per-client profiles, any number of
//! streaming [`gnf_workload::Workload`] sources — heavy-tail synthetic
//! generators, attack mixes, replayed pcap traces — can be attached via
//! [`Emulator::add_workload`]; batches are pulled one at a time, so trace
//! size never shows up in resident memory.
//!
//! ```
//! use gnf_core::{Emulator, Scenario};
//! use gnf_types::GnfConfig;
//!
//! // The paper's Section-4 demo: one client roams between two home routers
//! // and its NF chain follows it.
//! let mut emulator = Emulator::new(Scenario::demo_roaming(GnfConfig::default()));
//! let report = emulator.run();
//! assert_eq!(report.handovers, 1);
//! assert!(report.all_migrations_completed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod emulator;
pub mod report;
pub mod scenario;
pub mod stages;

pub use chaos::{ChaosReport, ChaosSpec, FaultEvent, FaultKind, FaultSchedule, PartitionMode};
pub use emulator::Emulator;
pub use report::{MigrationReport, MigrationSummary, PacketStats, RunReport};
pub use scenario::{ClientWorkload, Mobility, PolicyAttachment, Scenario, ScenarioBuilder};
pub use stages::{Stage, StageRow, StageTable};
