//! # gnf-switch
//!
//! The per-station software switch of the GNF reproduction.
//!
//! On the paper's testbed every station runs a Linux bridge: client radio
//! interfaces, the uplink and the two veth pairs of each NF container are all
//! bridge ports, and `tc`/`nfqueue` rules transparently divert the selected
//! client traffic through the NFs. This crate models that data-plane element:
//!
//! * [`switch::SoftwareSwitch`] — ports, MAC learning with aging, per-port
//!   counters and the forwarding decision for every received frame.
//! * [`steering`] — the match–action [`steering::SteeringTable`] that selects
//!   which subset of a client's traffic is diverted through which NF chain,
//!   with atomic rule replacement for make-before-break migration.
//! * [`flow_cache`] — the OVS-style exact-match microflow cache that memoizes
//!   the full [`switch::SwitchDecision`] per five-tuple, with LRU eviction
//!   and generation-based invalidation; repeated packets of a flow cost one
//!   table probe instead of the full steering/MAC pipeline.
//! * [`megaflow`] — the wildcard second-level cache probed on exact-match
//!   misses: one masked entry (built from the fields the slow path and the
//!   steered NF chain actually consulted) covers every *new* flow of the
//!   same pattern, optionally bypassing the chain entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow_cache;
pub mod megaflow;
pub mod steering;
pub mod switch;

pub use flow_cache::{FlowCache, FlowCacheStats, FlowKey, DEFAULT_FLOW_CACHE_CAPACITY};
pub use megaflow::{
    BypassOutcome, MegaflowCache, MegaflowHit, MegaflowStats, DEFAULT_MEGAFLOW_CAPACITY,
};
pub use steering::{SteeringRule, SteeringTable, TrafficSelector};
pub use switch::{
    BatchCursor, Classified, Forwarding, MegaflowInstall, MegaflowSeed, MegaflowState, Port,
    PortCounters, PortId, PortKind, SoftwareSwitch, SwitchDecision, DEFAULT_MAC_AGING_SECS,
};
