//! # gnf-types
//!
//! Shared vocabulary types for the Glasgow Network Functions (GNF) reproduction.
//!
//! Every other crate in the workspace builds on the identifiers, addresses,
//! virtual-time primitives, resource descriptions and error types defined here.
//! Keeping them in a leaf crate avoids dependency cycles between the control
//! plane (`gnf-manager`, `gnf-agent`), the data plane (`gnf-packet`, `gnf-nf`,
//! `gnf-switch`) and the environment model (`gnf-edge`, `gnf-sim`).
//!
//! The crate is deliberately free of I/O, threads and system time: all types
//! are plain data, `serde`-serializable and usable both from the discrete-event
//! simulator (virtual time) and from wall-clock benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod inline;
pub mod net;
pub mod resources;
pub mod time;

pub use config::GnfConfig;
pub use error::{GnfError, GnfResult};
pub use hash::{PathBuildHasher, PathHasher, PathMap, PATH_HASH_START};
pub use ids::{
    AgentId, CellId, ChainId, ClientId, ContainerId, FlowId, ImageId, MigrationId, NfInstanceId,
    NotificationId, StationId, VmId,
};
pub use inline::{InlineList, InlineMap, INLINE_ENTRIES};
pub use net::{FlowCacheStats, MacAddr, MegaflowStats};
pub use resources::{HostClass, ResourceSpec, ResourceUsage};
pub use time::{SimDuration, SimTime};
