//! # gnf-packet
//!
//! Packet construction and parsing for the GNF data plane.
//!
//! The Glasgow Network Functions demo attaches *real* packet-processing NFs
//! (an iptables-style firewall, an HTTP filter and a DNS load balancer) to
//! client traffic. To reproduce their behaviour faithfully this crate
//! implements the protocol layers those NFs actually look at:
//!
//! * [`ethernet`] — Ethernet II framing (the unit forwarded by the software
//!   switch and the veth pairs).
//! * [`arp`] — ARP requests/replies used when clients associate with a cell.
//! * [`ipv4`] — IPv4 headers with checksums, TTL and DSCP.
//! * [`tcp`] / [`udp`] / [`icmp`] — the transport layers the firewall and rate
//!   limiter match on.
//! * [`dns`] — enough of RFC 1035 for the DNS load-balancer NF.
//! * [`http`] — enough of HTTP/1.1 for the HTTP filter and cache NFs.
//! * [`packet`] — the high-level [`Packet`] type combining all of the above.
//! * [`batch`] — [`PacketBatch`], the vectorized unit of data-plane work.
//! * [`builder`] — consistent frame constructors for traffic generators,
//!   tests and benchmarks.
//! * [`flow`] — five-tuple flow identification.
//! * [`mask`] — wildcard field masks and the consulted-field-recording
//!   five-tuple lookup API behind the switch's megaflow cache.
//!
//! Parsing never panics on untrusted input: every malformed frame is reported
//! as a [`gnf_types::GnfError::MalformedPacket`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod batch;
pub mod builder;
pub mod checksum;
pub mod dns;
pub mod ethernet;
pub mod flow;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod mask;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use batch::PacketBatch;
pub use dns::{DnsMessage, DnsQuestion, DnsRecordType, DnsResponseCode};
pub use ethernet::{EtherType, EthernetHeader};
pub use flow::FiveTuple;
pub use http::{HttpMethod, HttpRequest, HttpRequestView, HttpResponse};
pub use icmp::{IcmpKind, IcmpMessage};
pub use ipv4::{IpProtocol, Ipv4Header};
pub use mask::{FieldMask, MaskedTuple};
pub use packet::{FlowMeta, NetworkLayer, Packet, TransportLayer};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
