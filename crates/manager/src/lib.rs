//! # gnf-manager
//!
//! The GNF Manager: the central controller that "allows single or chain of
//! NFs to be associated with a subset of a selected client's traffic",
//! maintains connections to every Agent, monitors station health and resource
//! utilisation, detects hotspots, relays NF notifications and — the core of
//! the demo — migrates a client's NFs to the new station when the client
//! roams between cells.
//!
//! Like the Agent, the [`Manager`] is a sans-I/O state machine: it consumes
//! [`gnf_api::AgentToManager`] messages and operator API calls and produces
//! [`ManagerAction`]s (messages to send to specific stations). The emulator
//! and the transports decide how those actions travel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod desired;
pub mod manager;
pub mod migration;

pub use manager::{
    AttachmentRecord, ClientRecord, ControlPlaneStats, Manager, ManagerAction, ManagerStats,
};
pub use migration::{MigrationPhase, MigrationRecord};
