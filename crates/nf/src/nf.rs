//! The [`NetworkFunction`] trait: the contract every GNF network function
//! implements, together with the verdict, direction, context, statistics and
//! event types shared by all NFs.
//!
//! The paper encapsulates each NF in its own container and connects it to the
//! local software switch with an ingress and an egress veth pair. In this
//! reproduction the "container" boundary is the trait object boundary: the
//! Agent instantiates a `Box<dyn NetworkFunction>` per container, and the
//! switch hands packets to it tagged with the direction they entered from.

use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot};
use gnf_packet::{FieldMask, Packet};
use gnf_types::{ClientId, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::Cell;

/// Which side of the client's traffic a packet was captured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Traffic sent *by* the client towards the network (upstream).
    Ingress,
    /// Traffic destined *to* the client (downstream).
    Egress,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(&self) -> Direction {
        match self {
            Direction::Ingress => Direction::Egress,
            Direction::Egress => Direction::Ingress,
        }
    }
}

/// What an NF decided to do with a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Forward the (possibly rewritten) packet along the chain.
    Forward(Packet),
    /// Drop the packet. The reason is human-readable text recorded in the
    /// NF's statistics and, for notable drops, surfaced as a notification.
    /// It is a `Cow` so the common case — a fixed policy reason emitted on
    /// every dropped packet of a flood — borrows a `&'static str` instead of
    /// heap-allocating per drop; only genuinely dynamic reasons pay for a
    /// `String`.
    Drop(Cow<'static, str>),
    /// Consume the packet and instead send these packets back towards its
    /// source (e.g. an HTTP 403 page or a locally answered DNS response).
    Reply(Vec<Packet>),
}

impl Verdict {
    /// True if the verdict forwards a packet.
    pub fn is_forward(&self) -> bool {
        matches!(self, Verdict::Forward(_))
    }

    /// True if the verdict drops the packet.
    pub fn is_drop(&self) -> bool {
        matches!(self, Verdict::Drop(_))
    }

    /// True if the verdict replies on behalf of the destination.
    pub fn is_reply(&self) -> bool {
        matches!(self, Verdict::Reply(_))
    }

    /// The forwarded packet, if any.
    pub fn into_forwarded(self) -> Option<Packet> {
        match self {
            Verdict::Forward(p) => Some(p),
            _ => None,
        }
    }
}

/// Per-packet context handed to the NF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfContext {
    /// Current virtual time.
    pub now: SimTime,
    /// The client this NF instance is attached to, when known.
    pub client: Option<ClientId>,
    /// Set once an NF queued an event through [`NfContext::raise`].
    raised: Cell<bool>,
}

impl NfContext {
    /// Context with just a timestamp.
    pub fn at(now: SimTime) -> Self {
        NfContext {
            now,
            client: None,
            raised: Cell::new(false),
        }
    }

    /// Context with a timestamp and client.
    pub fn for_client(now: SimTime, client: ClientId) -> Self {
        NfContext {
            client: Some(client),
            ..NfContext::at(now)
        }
    }

    /// Queues `event` on an NF's pending `events` — the queue its
    /// [`NetworkFunction::drain_events`] hands over — and notes on this
    /// context that an event is pending, so the caller knows which chains a
    /// drain must visit without walking the idle ones.
    pub fn raise(&self, events: &mut Vec<NfEvent>, event: NfEvent) {
        events.push(event);
        self.raised.set(true);
    }

    /// True once an NF processing under this context raised an event.
    pub fn raised_event(&self) -> bool {
        self.raised.get()
    }
}

/// Counters every NF maintains; displayed by the UI and used by experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NfStats {
    /// Packets handed to the NF.
    pub packets_in: u64,
    /// Packets forwarded onwards.
    pub packets_forwarded: u64,
    /// Packets dropped.
    pub packets_dropped: u64,
    /// Packets answered locally (replies generated).
    pub packets_replied: u64,
    /// Bytes handed to the NF.
    pub bytes_in: u64,
    /// Bytes forwarded onwards.
    pub bytes_out: u64,
}

impl NfStats {
    /// Records an observed input packet of `len` bytes.
    pub fn record_in(&mut self, len: usize) {
        self.packets_in += 1;
        self.bytes_in += len as u64;
    }

    /// Records a whole batch of observed input packets in one add.
    pub fn record_in_batch(&mut self, packets: u64, bytes: u64) {
        self.packets_in += packets;
        self.bytes_in += bytes;
    }

    /// Records the verdict applied to a packet.
    pub fn record_verdict(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Forward(p) => {
                self.packets_forwarded += 1;
                self.bytes_out += p.len() as u64;
            }
            Verdict::Drop(_) => self.packets_dropped += 1,
            Verdict::Reply(_) => self.packets_replied += 1,
        }
    }

    /// Records `packets` forwarded packets totalling `bytes` in one add —
    /// the megaflow bypass path's equivalent of `record_verdict(Forward)`
    /// per packet (bypassed packets are forwarded unchanged, so bytes out
    /// equal bytes in).
    pub fn record_bypassed_forward(&mut self, packets: u64, bytes: u64) {
        self.packets_forwarded += packets;
        self.bytes_out += bytes;
    }

    /// Records `packets` dropped packets in one add — the megaflow drop-entry
    /// path's equivalent of `record_verdict(Drop)` per packet (dropped
    /// packets produce no output bytes).
    pub fn record_bypassed_drop(&mut self, packets: u64) {
        self.packets_dropped += packets;
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &NfStats) {
        self.packets_in += other.packets_in;
        self.packets_forwarded += other.packets_forwarded;
        self.packets_dropped += other.packets_dropped;
        self.packets_replied += other.packets_replied;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

/// What the megaflow (wildcard) cache may assume about an NF's handling of
/// the most recently processed packet — the NF's contribution to a wildcard
/// cache entry (see [`NetworkFunction::fields_consulted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldsConsulted {
    /// The verdict was `Forward` of the **unchanged** packet, it is a pure
    /// function of the masked five-tuple fields plus the NF's immutable
    /// configuration, and processing had no side effects beyond statistics.
    /// Any packet agreeing on the masked fields may therefore bypass the NF,
    /// with its statistics replayed through
    /// [`NetworkFunction::credit_bypass`] using `token`.
    Pure {
        /// The five-tuple fields the evaluation consulted.
        mask: FieldMask,
        /// NF-defined replay token identifying the evaluation path taken
        /// (e.g. which rule matched), passed back to `credit_bypass`.
        token: u64,
    },
    /// The verdict was a **silent `Drop`**, it is a pure function of the
    /// masked five-tuple fields plus the NF's immutable configuration, and
    /// processing had no side effects beyond statistics. Any packet agreeing
    /// on the masked fields may therefore be dropped without consulting the
    /// NF: its statistics are replayed through
    /// [`NetworkFunction::credit_bypass_drop`] using `token`, and `reason` is
    /// replayed verbatim as the drop reason. Verdicts that build a reply
    /// from the packet (e.g. a firewall `Reject`) must **not** use this
    /// variant — only silent drops whose reason is fixed per evaluation
    /// path.
    PureDrop {
        /// The five-tuple fields the evaluation consulted.
        mask: FieldMask,
        /// NF-defined replay token identifying the evaluation path taken
        /// (e.g. which rule denied), passed back to `credit_bypass_drop`.
        token: u64,
        /// The drop reason every matching packet would receive.
        reason: Cow<'static, str>,
    },
    /// The NF consulted mutable state (conntrack, token buckets, detection
    /// windows), read the payload, modified the packet, or produced side
    /// effects — no wildcard entry may bypass it.
    Opaque,
}

/// Severity of an NF-originated event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NfEventSeverity {
    /// Routine informational event.
    Info,
    /// Anomalous but expected event (e.g. rate limit engaged).
    Warning,
    /// Security-relevant event (e.g. intrusion attempt detected).
    Alert,
}

/// An event an NF wants relayed (via its Agent) to the Manager — the paper's
/// "intrusion attempt or detected malware" notifications.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NfEvent {
    /// Severity class.
    pub severity: NfEventSeverity,
    /// Short machine-readable category (e.g. `syn-flood`, `blocked-url`).
    pub category: String,
    /// Human-readable description.
    pub message: String,
}

impl NfEvent {
    /// Creates an alert-severity event.
    pub fn alert(category: &str, message: impl Into<String>) -> Self {
        NfEvent {
            severity: NfEventSeverity::Alert,
            category: category.to_string(),
            message: message.into(),
        }
    }

    /// Creates a warning-severity event.
    pub fn warning(category: &str, message: impl Into<String>) -> Self {
        NfEvent {
            severity: NfEventSeverity::Warning,
            category: category.to_string(),
            message: message.into(),
        }
    }

    /// Creates an info-severity event.
    pub fn info(category: &str, message: impl Into<String>) -> Self {
        NfEvent {
            severity: NfEventSeverity::Info,
            category: category.to_string(),
            message: message.into(),
        }
    }
}

/// The contract implemented by every GNF network function.
///
/// One required packet method: [`process`](NetworkFunction::process), the
/// only way a packet crosses an NF. Everything else has a default: the
/// wildcard report ([`fields_consulted`](NetworkFunction::fields_consulted)
/// and its two credit methods), state migration and events.
///
/// Implementations must be deterministic functions of their configuration,
/// their accumulated state and the packets they have seen — all sources of
/// randomness (e.g. the DNS load balancer's backend choice) are seeded
/// explicitly so that experiment runs are reproducible.
pub trait NetworkFunction: Send {
    /// The NF's human-readable instance name (e.g. `firewall-client-3`).
    fn name(&self) -> &str;

    /// Which kind of NF this is.
    fn kind(&self) -> NfKind;

    /// Processes one packet travelling in `direction`, returning a verdict.
    ///
    /// Every packet of every batch arrives here, one call each, in arrival
    /// order; `ctx.now` is shared by the packets of one batch. This is the
    /// per-packet hot path, so an NF **inspects through views**:
    /// the accessors that borrow the frame — [`Packet::five_tuple`],
    /// [`Packet::tcp_flags`], [`Packet::tcp_payload`] /
    /// [`Packet::udp_payload`], [`Packet::http_request_view`] — cost no
    /// copy and no allocation. Copy out only what must outlive the packet
    /// (an event string, a cache key) and forward the packet that came in.
    /// An NF that rewrites addresses moves the packet through
    /// [`Packet::into_rewritten_endpoints`] — the frame patched in place when
    /// the packet owns its whole buffer alone (a shared frame, or a slice of
    /// a replay's read block, is copied once),
    /// checksums updated incrementally — rather than re-emitting headers.
    /// The typed accessors (`ipv4()`, `tcp()`, ...) build the full layer
    /// view on first use: fine on a rare branch (building a reject reply),
    /// a per-packet cost anywhere else.
    fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict;

    /// Cumulative statistics.
    fn stats(&self) -> NfStats;

    /// Reports what the megaflow (wildcard) cache may assume about the most
    /// recently processed packet: a [`FieldsConsulted::Pure`] field mask
    /// under which the NF can be bypassed, a [`FieldsConsulted::PureDrop`]
    /// mask under which matching packets can be dropped without running the
    /// NF, or [`FieldsConsulted::Opaque`].
    ///
    /// The default is `Opaque` — always correct, never wildcarded. An NF
    /// reporting `Pure` (or `PureDrop`) enters a contract: for **any**
    /// packet agreeing with the last one on the masked fields, `process`
    /// would have returned `Forward` of the unchanged packet (respectively
    /// `Drop` with the reported reason), left no state behind, raised no
    /// events, and changed only statistics — which [`credit_bypass`]
    /// (respectively [`credit_bypass_drop`]) must replay exactly.
    ///
    /// [`credit_bypass`]: NetworkFunction::credit_bypass
    /// [`credit_bypass_drop`]: NetworkFunction::credit_bypass_drop
    fn fields_consulted(&self) -> FieldsConsulted {
        FieldsConsulted::Opaque
    }

    /// Replays the statistics of `packets` bypassed packets totalling
    /// `bytes`, exactly as if each had been processed and forwarded. Called
    /// only with a `token` this NF previously reported in a
    /// [`FieldsConsulted::Pure`]; NFs that never report `Pure` keep the
    /// default no-op.
    fn credit_bypass(&mut self, _token: u64, _packets: u64, _bytes: u64) {}

    /// Replays the statistics of `packets` bypassed **dropped** packets
    /// totalling `bytes`, exactly as if each had been processed and dropped
    /// by this NF. Called only with a `token` this NF previously reported in
    /// a [`FieldsConsulted::PureDrop`]; NFs that never report `PureDrop`
    /// keep the default no-op.
    fn credit_bypass_drop(&mut self, _token: u64, _packets: u64, _bytes: u64) {}

    /// Exports the NF's dynamic state for migration to another station.
    ///
    /// The default implementation reports an empty state (stateless NF).
    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::Stateless
    }

    /// Imports dynamic state previously produced by [`export_state`]
    /// (on the migration target). State of a mismatched kind is ignored.
    ///
    /// [`export_state`]: NetworkFunction::export_state
    fn import_state(&mut self, _state: NfStateSnapshot) {}

    /// Replaces the NF's dynamic state wholesale with `state`, discarding
    /// anything accumulated locally.
    ///
    /// [`import_state`] merges (it only ever inserts), which is right for
    /// layering a checkpoint onto a freshly created NF but wrong for applying
    /// a pre-copy delta: entries *removed* between baseline and cutover must
    /// disappear on the target too. Stateful NFs override this to clear their
    /// tables before importing; the default (import into a fresh NF) is
    /// correct for stateless NFs.
    ///
    /// [`import_state`]: NetworkFunction::import_state
    fn replace_state(&mut self, state: NfStateSnapshot) {
        self.import_state(state);
    }

    /// Applies a pre-copy delta on top of the NF's current state — the
    /// migration target's switchover step.
    ///
    /// Whatever the implementation, afterwards [`export_state`] must equal
    /// `delta.apply(&before)`, where `before` is what [`export_state`]
    /// returned just before the call ([`NfStateDelta::apply`] is the
    /// specification): [`NfStateDelta::Unchanged`] changes nothing,
    /// [`NfStateDelta::Full`] is [`replace_state`], a delta of another NF's
    /// variant is ignored. The default does exactly that — export, `apply`,
    /// [`replace_state`] — at the cost of the whole table; an NF whose delta
    /// lists upserts and removals overrides it to remove and insert straight
    /// into its own tables, so a switchover costs what the client dirtied.
    ///
    /// [`export_state`]: NetworkFunction::export_state
    /// [`replace_state`]: NetworkFunction::replace_state
    fn apply_delta(&mut self, delta: &NfStateDelta) {
        apply_delta_via_export(self, delta);
    }

    /// Drains any pending events to be relayed to the Manager. An NF queues
    /// them during [`NetworkFunction::process`] with [`NfContext::raise`]
    /// only: the Agent drains just the chains a context saw raise.
    ///
    /// The default implementation returns no events.
    fn drain_events(&mut self) -> Vec<NfEvent> {
        Vec::new()
    }
}

/// [`NetworkFunction::apply_delta`] by way of the snapshot: the default
/// body, and what an overriding NF falls back to for every delta that is not
/// its own variant.
pub(crate) fn apply_delta_via_export<N: NetworkFunction + ?Sized>(
    nf: &mut N,
    delta: &NfStateDelta,
) {
    match delta {
        NfStateDelta::Unchanged => {}
        NfStateDelta::Full(full) => nf.replace_state(full.clone()),
        churn => {
            let before = nf.export_state();
            nf.replace_state(churn.apply(&before));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::builder;
    use gnf_types::MacAddr;
    use std::net::Ipv4Addr;

    fn sample_packet() -> Packet {
        builder::udp_packet(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 3),
            1000,
            2000,
            b"abc",
        )
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Ingress.reverse(), Direction::Egress);
        assert_eq!(Direction::Egress.reverse(), Direction::Ingress);
    }

    #[test]
    fn verdict_predicates() {
        let fwd = Verdict::Forward(sample_packet());
        let drop = Verdict::Drop("policy".into());
        let reply = Verdict::Reply(vec![sample_packet()]);
        assert!(fwd.is_forward() && !fwd.is_drop() && !fwd.is_reply());
        assert!(drop.is_drop());
        assert!(reply.is_reply());
        assert!(fwd.into_forwarded().is_some());
        assert!(drop.into_forwarded().is_none());
    }

    #[test]
    fn stats_accumulate_per_verdict() {
        let mut stats = NfStats::default();
        let pkt = sample_packet();
        stats.record_in(pkt.len());
        stats.record_verdict(&Verdict::Forward(pkt.clone()));
        stats.record_in(pkt.len());
        stats.record_verdict(&Verdict::Drop("x".into()));
        stats.record_in(pkt.len());
        stats.record_verdict(&Verdict::Reply(vec![pkt.clone()]));
        assert_eq!(stats.packets_in, 3);
        assert_eq!(stats.packets_forwarded, 1);
        assert_eq!(stats.packets_dropped, 1);
        assert_eq!(stats.packets_replied, 1);
        assert_eq!(stats.bytes_in, 3 * pkt.len() as u64);
        assert_eq!(stats.bytes_out, pkt.len() as u64);

        let mut merged = NfStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.packets_in, 6);

        // Drop-bypass replay mirrors per-packet drop accounting: packets in,
        // packets dropped, no output bytes.
        let mut bypassed = NfStats::default();
        bypassed.record_in_batch(2, 100);
        bypassed.record_bypassed_drop(2);
        assert_eq!(bypassed.packets_in, 2);
        assert_eq!(bypassed.packets_dropped, 2);
        assert_eq!(bypassed.bytes_out, 0);
    }

    #[test]
    fn events_carry_severity() {
        let e = NfEvent::alert("intrusion", "SYN flood from 10.0.0.9");
        assert_eq!(e.severity, NfEventSeverity::Alert);
        assert!(NfEventSeverity::Alert > NfEventSeverity::Warning);
        assert!(NfEventSeverity::Warning > NfEventSeverity::Info);
        assert_eq!(NfEvent::info("x", "y").severity, NfEventSeverity::Info);
        assert_eq!(
            NfEvent::warning("x", "y").severity,
            NfEventSeverity::Warning
        );
    }

    #[test]
    fn context_constructors() {
        let ctx = NfContext::at(SimTime::from_secs(1));
        assert_eq!(ctx.client, None);
        let ctx = NfContext::for_client(SimTime::from_secs(2), ClientId::new(9));
        assert_eq!(ctx.client, Some(ClientId::new(9)));
    }
}
