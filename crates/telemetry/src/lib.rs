//! # gnf-telemetry
//!
//! Health monitoring and notifications for the GNF control plane.
//!
//! The paper's Manager "is responsible for continuously monitoring the health
//! and resource utilization from the GNF stations, allowing the provider to
//! detect resource-hotspots", and relays notifications raised by NFs. This
//! crate holds the data structures that implement that: per-station health
//! reports, the monitoring store — one view per station, with freshness,
//! offline and hotspot rules — and the notification log displayed by the UI.
//!
//! Data-plane visibility rides the same reports: every
//! [`report::StationReport`] carries the station's exact-match flow-cache
//! counters ([`report::FlowCacheTelemetry`]), its megaflow (wildcard) cache
//! counters ([`report::MegaflowTelemetry`]) and its batch-size distribution
//! ([`report::BatchTelemetry`]); the emulator aggregates all three across
//! stations into the `RunReport`.
//!
//! Fleet-scale transport lives in [`delta`]: cumulative-since-keyframe
//! [`delta::ReportDelta`] frames that carry only the sections that changed,
//! with a one-way resync protocol that is chaos-safe (a crash or rejoin
//! forces a keyframe); the receiver side is
//! [`monitor::MonitoringStore::ingest_delta`], which keeps each station's
//! report byte-identical to the full one by overwriting it in place.
//! [`region`] stacks a hierarchical tier on top: [`region::RegionAggregator`]
//! keeps a region's stations in its own `MonitoringStore` and rolls them into
//! one [`region::RegionSummary`] feed for the Manager.
//!
//! Time-resolved observability lives in three further modules, all driven by
//! **virtual time** so the determinism contract survives: [`trace`] (typed
//! spans/instants merged in deterministic `(timestamp, scope, seq)` order,
//! exported as Chrome `trace_event` JSON or CSV), [`metrics`] (the
//! virtual-time fleet sampler's bounded series plus the shared
//! log-bucketed [`metrics::LogHistogram`]) and [`flight`] (the seeded
//! flow-sampled flight recorder).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod flight;
pub mod metrics;
pub mod monitor;
pub mod notification;
pub mod region;
pub mod report;
pub mod trace;

pub use delta::{
    DeltaEncoder, DeltaReject, IdentitySection, NfSection, ReassemblerStats, ReportDelta,
    SectionHints,
};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY, DEFAULT_FLIGHT_SAMPLE_RATE};
pub use metrics::{LogHistogram, MetricsSample, MetricsSeries, VIRTUAL_SHARDS};
pub use monitor::{MonitoringStore, Registration, StationHealth, StationStatus};
pub use notification::{Notification, NotificationLog, NotificationSeverity, NotificationSource};
pub use region::{RegionAggregator, RegionSummary};
pub use report::{
    BatchTelemetry, ChaosTelemetry, FlowCacheTelemetry, MegaflowTelemetry, MigrationPoolTelemetry,
    StationReport,
};
pub use trace::{
    FlowRecord, TraceEvent, TraceKind, TraceLog, TraceScope, TraceSink, DEFAULT_TRACE_CAPACITY,
};
