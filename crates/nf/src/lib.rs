//! # gnf-nf
//!
//! The network functions shipped with the Glasgow Network Functions
//! reproduction, together with the [`NetworkFunction`] trait they implement
//! and the chaining / state-migration machinery the roaming use case needs.
//!
//! The paper demonstrates three NFs — an iptables-based packet [`firewall`],
//! an [`http_filter`] and a [`dns_lb`] (DNS load balancer) — and motivates
//! caches and rate limiters at the edge. This crate implements all of those
//! plus a source [`nat`] and a small [`ids`] (which produces the
//! "intrusion attempt" notifications the Manager relays):
//!
//! | Module | NF | Migratable state |
//! |---|---|---|
//! | [`firewall`] | ordered rule list + connection tracking | conntrack table |
//! | [`http_filter`] | host/URL block list, 403 responses | none |
//! | [`dns_lb`] | authoritative answers for a service, RR/least-assigned/hash | scheduling counters |
//! | [`rate_limiter`] | token bucket per client or flow | bucket levels |
//! | [`nat`] | source NAT behind a public address | translation table |
//! | [`cache`] | transparent HTTP cache with LRU eviction | cached responses |
//! | [`ids`] | SYN-flood + signature detection, alert events | per-source counters |
//!
//! NFs process *real* packets ([`gnf_packet::Packet`]); nothing about their
//! behaviour is mocked. Chains ([`chain::NfChain`]) compose them in order, and
//! [`spec::NfSpec`] is the serializable descriptor the Manager ships to Agents.
//!
//! ## The NF contract: one method, one optional report
//!
//! An NF author implements **one** packet path:
//! [`NetworkFunction::process`]. It is the only way a packet crosses an NF —
//! a batch crosses a chain as one `process` call per packet, in arrival
//! order ([`NfChain::process_batch`] is that loop). NFs inspect packets
//! through borrowed views ([`gnf_packet::Packet::http_request_view`], the
//! payload and five-tuple accessors) and rewrite them copy-on-write
//! ([`gnf_packet::Packet::into_rewritten_endpoints`]: in the frame itself
//! when the packet owns its whole buffer alone).
//!
//! There is deliberately no batched NF entry point: the only unit an NF
//! could amortise over is a run of consecutive same-flow packets in one
//! flush, and the workloads deliver about 1 % of their packets in such runs
//! (ARCHITECTURE.md, "Measured effect (batching)";
//! `tests/tests/traffic_shape.rs` pins the fact).
//!
//! The one optional fast-path surface must stay *observably equivalent* to
//! processing every packet (the megaflow-equivalence property tests enforce
//! it for the shipped NFs):
//!
//! * **Wildcarding** — [`NetworkFunction::fields_consulted`] reports, after
//!   each packet, [`FieldsConsulted::Pure`] (the forward verdict was a pure
//!   function of a mask of five-tuple fields; the switch's megaflow cache
//!   may then bypass the NF for matching flows, replaying its statistics via
//!   [`NetworkFunction::credit_bypass`]), [`FieldsConsulted::PureDrop`] (a
//!   silent drop was such a pure function; matching flows may be retired
//!   without running the NF, statistics replayed via
//!   [`NetworkFunction::credit_bypass_drop`] and the drop reason verbatim)
//!   or [`FieldsConsulted::Opaque`] (stateful/payload-reading processing —
//!   never bypassed; the safe default). Of the shipped NFs only the
//!   conntrack-off firewall reports `Pure`/`PureDrop`;
//!   [`NfChain::wildcard_report`] aggregates the reports chain-wide into a
//!   [`ChainBypass`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chain;
pub mod dns_lb;
pub mod firewall;
pub mod http_filter;
pub mod ids;
pub mod nat;
pub mod nf;
pub mod rate_limiter;
pub mod spec;
pub mod state;
pub mod testing;

pub use chain::{ChainBypass, NfChain};
pub use nf::{
    Direction, FieldsConsulted, NetworkFunction, NfContext, NfEvent, NfEventSeverity, NfStats,
    Verdict,
};
pub use spec::{instantiate_chain, NfConfig, NfKind, NfSpec};
pub use state::{NfStateDelta, NfStateSnapshot, StateTable};
