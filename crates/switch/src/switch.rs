//! The per-station software switch.
//!
//! Every GNF station runs one software switch. Client radio interfaces, the
//! uplink towards the operator network and the two veth endpoints of every NF
//! container are all ports on this switch. The switch learns MAC addresses
//! like a normal L2 bridge, counts per-port traffic (the statistics the UI
//! displays) and consults the [`crate::steering::SteeringTable`] to decide
//! whether a frame must detour through an NF chain before being forwarded.
//!
//! ## Fast path / slow path
//!
//! [`SoftwareSwitch::classify`] is split OVS-style: frames that carry a
//! transport five-tuple first consult the exact-match
//! [`crate::flow_cache::FlowCache`]; a hit returns the memoized
//! [`SwitchDecision`] after one table probe. On an exact miss the optional
//! megaflow (wildcard) layer ([`crate::megaflow::MegaflowCache`]) is probed,
//! once per live mask: one masked entry covers every new flow matching the
//! same pattern of consulted header fields, and may additionally certify
//! that the steered NF chain can be bypassed. Every table here is a
//! [`gnf_types::PathMap`] and a flow key hashes in five word steps, so a
//! packet's table cost is its probe count: MAC learn, MAC lookup, exact
//! probe, mask probes. Only when both caches miss does the frame walk the
//! full slow path — steering lookup, MAC table, flood set — which records
//! the fields it consulted so the caller can complete a wildcard entry (see
//! [`MegaflowState`]). Port and steering mutations advance generation
//! counters that lazily invalidate every affected entry in O(1); MAC-table
//! changes (learn/move/age) are caught per flow, because each cached entry
//! re-validates its destination's MAC→port mapping on lookup.
//!
//! ## One entry point
//!
//! The packet is the unit of classification and [`SoftwareSwitch::classify`]
//! the only way to classify one. What a batch amortizes is its prologue,
//! [`SoftwareSwitch::begin_batch`]: the ingress port is validated and its RX
//! counters bumped once, and the returned [`BatchCursor`] skips re-learning
//! a source MAC the batch has just learned. A lone frame is a batch of one.

use crate::flow_cache::{FlowCache, FlowCacheStats, FlowKey, DEFAULT_FLOW_CACHE_CAPACITY};
use crate::megaflow::{BypassOutcome, MegaflowCache, MegaflowStats};
use crate::steering::{SteeringRule, SteeringTable};
use gnf_packet::{FieldMask, FiveTuple, Packet};
use gnf_types::{GnfError, GnfResult, InlineMap, MacAddr, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Switch-local port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub u32);

/// What a port connects to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortKind {
    /// The wireless/LAN interface clients attach to.
    ClientAccess,
    /// The uplink towards the operator core / Internet.
    Uplink,
    /// The ingress end of a container's veth pair (traffic entering the NF).
    VethIngress {
        /// Container handle the veth belongs to.
        container: u64,
    },
    /// The egress end of a container's veth pair (traffic leaving the NF).
    VethEgress {
        /// Container handle the veth belongs to.
        container: u64,
    },
}

/// Per-port packet/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCounters {
    /// Frames received on the port.
    pub rx_packets: u64,
    /// Bytes received on the port.
    pub rx_bytes: u64,
    /// Frames transmitted out of the port.
    pub tx_packets: u64,
    /// Bytes transmitted out of the port.
    pub tx_bytes: u64,
}

/// A switch port. `repr(C)`: a packet's RX and TX bookkeeping finds a port
/// by its id and bumps its counters, both in the port's first 40 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[repr(C)]
pub struct Port {
    /// Port identifier.
    pub id: PortId,
    /// Traffic counters.
    pub counters: PortCounters,
    /// What the port connects to.
    pub kind: PortKind,
    /// Human-readable name (`wlan0`, `uplink`, `veth-fw-0-in`, ...).
    pub name: String,
}

/// Where the switch decided to send a frame.
///
/// Flood port sets are shared (`Arc`) so that broadcasting, cloning a
/// decision into the flow cache and returning a cache hit never allocate a
/// fresh port vector per frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Forwarding {
    /// Send out a single known port.
    Unicast(PortId),
    /// Flood out of every port except the ingress one (destination unknown or
    /// broadcast).
    Flood(Arc<[PortId]>),
}

/// The decision for one received frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchDecision {
    /// The steering rule that matched, if the frame must traverse an NF chain
    /// before forwarding, together with the direction (true = upstream).
    pub steering: Option<(SteeringRule, bool)>,
    /// Where the frame goes after (or instead of) the chain.
    pub forwarding: Forwarding,
}

/// How the megaflow (wildcard) cache layer participated in a classification.
#[derive(Debug, Clone, PartialEq)]
pub enum MegaflowState {
    /// Wildcarding did not participate: non-flow frame, exact-match hit,
    /// decision-only wildcard hit, or megaflow disabled. The caller
    /// processes the steered chain (if any) as usual.
    None,
    /// A wildcard entry certified that the steered NF chain may be bypassed
    /// for this packet: the chain's verdict is `Forward` of the unchanged
    /// packet, and the tokens (one per NF, in traversal order) replay each
    /// NF's statistics via `NfChain::credit_bypass`.
    Bypass(Arc<[u64]>),
    /// A wildcard entry certified that the steered NF chain silently
    /// *drops* this packet: the caller retires it with `reason` before the
    /// chain runs, and the tokens (covering exactly the NFs the packet
    /// would have visited, the dropping NF last) replay their statistics
    /// via `NfChain::credit_bypass_drop`.
    DropBypass {
        /// Replay tokens for the visited NFs, the dropping NF last.
        tokens: Arc<[u64]>,
        /// The certified drop reason, replayed verbatim.
        reason: Cow<'static, str>,
    },
    /// The packet took the full slow path for a *steered* flow. The caller
    /// may complete the seed into a wildcard entry with
    /// [`SoftwareSwitch::install_megaflow`] once the chain has processed the
    /// packet and reported the fields it consulted. Dropping the seed is
    /// always safe (the flow simply stays on the exact/slow path).
    Seed(MegaflowSeed),
}

impl MegaflowState {
    /// Lifts a wildcard hit's certified outcome into the classification
    /// state handed to the caller.
    fn from_bypass(bypass: Option<BypassOutcome>) -> MegaflowState {
        match bypass {
            None => MegaflowState::None,
            Some(BypassOutcome::Forward(tokens)) => MegaflowState::Bypass(tokens),
            Some(BypassOutcome::Drop { tokens, reason }) => {
                MegaflowState::DropBypass { tokens, reason }
            }
        }
    }
}

/// The switch's half of a prospective wildcard cache entry: the exact key
/// parts, the five-tuple, the fields the *switch's* slow path consulted and
/// the validity snapshot the decision was computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaflowSeed {
    in_port: PortId,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    tuple: FiveTuple,
    switch_mask: FieldMask,
    decision: SwitchDecision,
    topology_generation: u64,
    steering_generation: u64,
    dst_mapping: Option<PortId>,
}

impl MegaflowSeed {
    /// The five-tuple fields the switch's slow path consulted (the steering
    /// rule walk; the MAC/port parts of the key are always matched exactly).
    pub fn switch_mask(&self) -> FieldMask {
        self.switch_mask
    }
}

/// What one [`SoftwareSwitch::install_megaflow`] call did, reported back to
/// the caller so the sealing layer (the Agent) can trace seals and evictions
/// itself — the switch stays plain serializable state with no sink inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegaflowInstall {
    /// False when the megaflow cache is disabled (the install was a no-op).
    pub installed: bool,
    /// The sealed entry's class: `"forward"` / `"drop"` (certified chain
    /// bypass) or `"decision"` (caches the switch decision only; the chain
    /// still runs).
    pub outcome: &'static str,
    /// Entries the FIFO capacity bound evicted to make room in this call.
    pub evicted: u64,
    /// Live wildcard entries after the install.
    pub occupancy: u64,
}

/// The result of classifying one received frame: the forwarding decision
/// plus how the wildcard cache layer was (or can be) involved.
#[derive(Debug, Clone, PartialEq)]
pub struct Classified {
    /// The decision for the frame.
    pub decision: SwitchDecision,
    /// The wildcard-cache aspect of the classification.
    pub megaflow: MegaflowState,
}

/// What the packets of one batch share — its ingress port and timestamp —
/// plus what classifying them one at a time may skip. Created by
/// [`SoftwareSwitch::begin_batch`], passed to [`SoftwareSwitch::classify`]
/// with each packet of that batch in turn.
#[derive(Debug)]
pub struct BatchCursor {
    in_port: PortId,
    now: SimTime,
    /// The last unicast source MAC learned from this batch: re-learning it
    /// would write the identical `(port, now)` mapping, so it is skipped.
    last_learned: Option<MacAddr>,
}

/// The software switch.
///
/// `repr(C)` keeps the declared order: what every packet's classification
/// reads comes first (the cache headers, then the steering generation and
/// the MAC table a one-client station keeps inline), the slow path's
/// tables next, and the counters and settings only control paths read
/// last.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct SoftwareSwitch {
    /// Bumped on any port or MAC-mapping change; pairs with the steering
    /// table's generation to validate flow-cache entries.
    topology_generation: u64,
    ports: Vec<Port>,
    flow_cache: FlowCache,
    /// The wildcard second-level cache probed on exact-match misses
    /// (disabled — capacity 0 — unless the owner opts in).
    megaflow: MegaflowCache,
    steering: SteeringTable,
    mac_table: InlineMap<MacAddr, (PortId, SimTime)>,
    /// Memoized flood port set per ingress port (rebuilt after port changes).
    flood_sets: InlineMap<PortId, Arc<[PortId]>>,
    /// The shared empty flood set (hairpin suppression).
    empty_flood: Arc<[PortId]>,
    /// The id the next added port gets. Ids are never reused, so a removed
    /// veth's id cannot alias a live port.
    next_port: u32,
    mac_aging: u64,
    dropped_frames: u64,
}

/// Default MAC-table aging time in seconds (the classic 300 s bridge default).
pub const DEFAULT_MAC_AGING_SECS: u64 = 300;

/// The client-access port: the first one [`SoftwareSwitch::new`] adds.
const CLIENT_PORT: PortId = PortId(0);
/// The uplink port: the second one [`SoftwareSwitch::new`] adds.
const UPLINK_PORT: PortId = PortId(1);

impl Default for SoftwareSwitch {
    fn default() -> Self {
        SoftwareSwitch::new()
    }
}

impl SoftwareSwitch {
    /// Creates a switch with a client-access port and an uplink port.
    pub fn new() -> Self {
        Self::with_flow_cache_capacity(DEFAULT_FLOW_CACHE_CAPACITY)
    }

    /// Creates a switch whose flow cache is bounded to `capacity` entries.
    pub fn with_flow_cache_capacity(capacity: usize) -> Self {
        let mut sw = SoftwareSwitch {
            topology_generation: 0,
            ports: Vec::new(),
            flow_cache: FlowCache::with_capacity(capacity),
            megaflow: MegaflowCache::with_capacity(0),
            steering: SteeringTable::new(),
            mac_table: InlineMap::new(),
            flood_sets: InlineMap::new(),
            empty_flood: Arc::from(Vec::new()),
            next_port: 0,
            mac_aging: DEFAULT_MAC_AGING_SECS,
            dropped_frames: 0,
        };
        let client = sw.add_port("wlan0", PortKind::ClientAccess);
        let uplink = sw.add_port("uplink0", PortKind::Uplink);
        debug_assert_eq!((client, uplink), (CLIENT_PORT, UPLINK_PORT));
        sw
    }

    /// Adds a port and returns its identifier, one no other port of this
    /// switch has ever had.
    pub fn add_port(&mut self, name: &str, kind: PortKind) -> PortId {
        let id = PortId(self.next_port);
        self.next_port += 1;
        self.ports.push(Port {
            id,
            name: name.to_string(),
            kind,
            counters: PortCounters::default(),
        });
        self.note_topology_change();
        id
    }

    /// Adds the two veth pairs for a container, returning (ingress, egress).
    pub fn connect_container(&mut self, container: u64, label: &str) -> (PortId, PortId) {
        let ingress = self.add_port(
            &format!("veth-{label}-in"),
            PortKind::VethIngress { container },
        );
        let egress = self.add_port(
            &format!("veth-{label}-out"),
            PortKind::VethEgress { container },
        );
        (ingress, egress)
    }

    /// Removes the veth ports of a container (when its NF is torn down).
    /// Returns how many ports were removed.
    pub fn disconnect_container(&mut self, container: u64) -> usize {
        let before = self.ports.len();
        let removed_ids: Vec<PortId> = self
            .ports
            .iter()
            .filter(|p| {
                matches!(p.kind, PortKind::VethIngress { container: c } | PortKind::VethEgress { container: c } if c == container)
            })
            .map(|p| p.id)
            .collect();
        if removed_ids.is_empty() {
            return 0;
        }
        self.ports.retain(|p| !removed_ids.contains(&p.id));
        // Forget MAC entries learned on removed ports.
        self.mac_table
            .retain(|_, (port, _)| !removed_ids.contains(port));
        self.note_topology_change();
        before - self.ports.len()
    }

    /// The switch's client-access port.
    pub fn client_port(&self) -> PortId {
        CLIENT_PORT
    }

    /// The switch's uplink port.
    pub fn uplink_port(&self) -> PortId {
        UPLINK_PORT
    }

    /// The steering table (mutable) for installing/removing redirection rules.
    ///
    /// The table carries its own generation counter, so rule changes made
    /// through this handle invalidate the flow cache automatically.
    pub fn steering_mut(&mut self) -> &mut SteeringTable {
        &mut self.steering
    }

    /// The steering table (read-only).
    pub fn steering(&self) -> &SteeringTable {
        &self.steering
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// A port by id.
    pub fn port(&self, id: PortId) -> GnfResult<&Port> {
        self.ports
            .iter()
            .find(|p| p.id == id)
            .ok_or_else(|| GnfError::not_found("switch port", id.0))
    }

    /// Number of frames dropped by the switch itself (unknown ingress port).
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    /// Aggregate counters over all ports of a kind predicate.
    pub fn aggregate_counters<F: Fn(&Port) -> bool>(&self, predicate: F) -> PortCounters {
        let mut total = PortCounters::default();
        for port in self.ports.iter().filter(|p| predicate(p)) {
            total.rx_packets += port.counters.rx_packets;
            total.rx_bytes += port.counters.rx_bytes;
            total.tx_packets += port.counters.tx_packets;
            total.tx_bytes += port.counters.tx_bytes;
        }
        total
    }

    /// Number of MAC-table entries.
    pub fn mac_table_len(&self) -> usize {
        self.mac_table.len()
    }

    /// Flow-cache hit/miss/eviction counters.
    pub fn flow_cache_stats(&self) -> FlowCacheStats {
        self.flow_cache.stats()
    }

    /// Number of flows currently memoized in the fast path.
    pub fn flow_cache_len(&self) -> usize {
        self.flow_cache.len()
    }

    /// Adds the flow cache's occupancy, partitioned over
    /// `occupancy.len()` virtual shards by flow hash, into `occupancy` (see
    /// [`FlowCache::add_occupancy_by_virtual_shard`]).
    pub fn add_flow_cache_occupancy_by_virtual_shard(&self, occupancy: &mut [u64]) {
        self.flow_cache.add_occupancy_by_virtual_shard(occupancy);
    }

    /// Bounds the megaflow (wildcard) cache to `capacity` entries; 0
    /// disables the layer entirely. Resizing drops every wildcard entry
    /// (they repopulate from slow-path traffic) but keeps the cumulative
    /// counters, so telemetry never undercounts across a toggle.
    pub fn set_megaflow_capacity(&mut self, capacity: usize) {
        self.megaflow.set_capacity(capacity);
    }

    /// True when the megaflow (wildcard) cache layer participates in
    /// lookups.
    pub fn megaflow_enabled(&self) -> bool {
        self.megaflow.enabled()
    }

    /// Megaflow hit/miss/install/eviction counters.
    pub fn megaflow_stats(&self) -> MegaflowStats {
        self.megaflow.stats()
    }

    /// Number of wildcard entries currently installed.
    pub fn megaflow_len(&self) -> usize {
        self.megaflow.len()
    }

    /// Number of distinct wildcard masks currently holding entries.
    pub fn megaflow_mask_count(&self) -> usize {
        self.megaflow.mask_count()
    }

    /// Drops every memoized flow — exact-match and wildcard alike (the slow
    /// path repopulates both on demand).
    pub fn flush_flow_cache(&mut self) {
        self.flow_cache.clear();
        self.megaflow.clear();
    }

    /// Invalidates every memoized forwarding decision by bumping the
    /// topology generation: both cache levels lazily discard entries stamped
    /// with an older generation on their next lookup. Used by the chaos
    /// layer's invalidation floods; O(1) regardless of cache size.
    pub fn invalidate_caches(&mut self) {
        self.note_topology_change();
    }

    /// The current topology generation — the stamp new cache entries carry
    /// and old ones are validated against.
    pub fn cache_generation(&self) -> u64 {
        self.topology_generation
    }

    /// Forgets every learned MAC location (a rebooted switch has an empty
    /// MAC table). No generation bump needed: cached flows validate their
    /// destination's MAC mapping on lookup, as with [`age_mac_table`].
    ///
    /// [`age_mac_table`]: SoftwareSwitch::age_mac_table
    pub fn clear_mac_table(&mut self) {
        self.mac_table.clear();
    }

    /// Expires MAC-table entries older than the aging time.
    pub fn age_mac_table(&mut self, now: SimTime) -> usize {
        let aging = self.mac_aging;
        let before = self.mac_table.len();
        self.mac_table
            .retain(|_, (_, seen)| now.duration_since(*seen).as_nanos() < aging * 1_000_000_000);
        // No generation bump: cached flows validate their destination's
        // MAC mapping on lookup, so aged entries invalidate themselves.
        before - self.mac_table.len()
    }

    /// Starts a batch of `packets` received on `in_port` at `now`: validates
    /// the port and records the whole batch's RX counters in one add. On an
    /// unknown port every packet is counted as dropped and the batch fails.
    ///
    /// The returned cursor classifies the batch's packets one at a time via
    /// [`classify`], so whatever the caller does between two packets — run
    /// the steered chain, seal a megaflow seed with [`install_megaflow`] —
    /// is already in effect when the next one is classified (**mid-batch
    /// sealing**: an entry sealed from packet *N* serves packet *N + 1* of
    /// the same batch).
    ///
    /// [`classify`]: SoftwareSwitch::classify
    /// [`install_megaflow`]: SoftwareSwitch::install_megaflow
    pub fn begin_batch(
        &mut self,
        packets: &[Packet],
        in_port: PortId,
        now: SimTime,
    ) -> GnfResult<BatchCursor> {
        let total_bytes: u64 = packets.iter().map(|p| p.len() as u64).sum();
        let Some(port) = self.ports.iter_mut().find(|p| p.id == in_port) else {
            self.dropped_frames += packets.len() as u64;
            return Err(GnfError::not_found("switch port", in_port.0));
        };
        port.counters.rx_packets += packets.len() as u64;
        port.counters.rx_bytes += total_bytes;
        Ok(BatchCursor {
            in_port,
            now,
            last_learned: None,
        })
    }

    /// Classifies one packet of the batch `cursor` was started with: learns
    /// the source MAC, consults the exact-match cache, then the megaflow
    /// layer, then the slow path (steering and the MAC table), and returns
    /// where the frame goes plus the megaflow (wildcard) aspect — a
    /// certified chain bypass on a wildcard hit, or a seed the caller can
    /// complete into a wildcard entry after running the steered chain.
    /// Ignoring that aspect is always safe: a discarded seed keeps the flow
    /// on the exact/slow path, and a discarded bypass means the caller runs
    /// the (pure, equivalent) chain normally.
    ///
    /// The caller (the station/Agent layer) is responsible for actually
    /// running the NF chain named by the decision and for transmitting the
    /// surviving frame out of the chosen port(s) via [`record_tx`].
    ///
    /// [`record_tx`]: SoftwareSwitch::record_tx
    pub fn classify(&mut self, cursor: &mut BatchCursor, packet: &Packet) -> Classified {
        let in_port = cursor.in_port;
        // Learning does not touch the flow cache's generations: a
        // learned/moved/aged MAC can only change decisions for flows
        // destined *to* it, and every cached entry re-validates its
        // destination's MAC mapping on lookup — so unrelated flows stay hot
        // through client churn. Re-learning the same MAC within the batch
        // would write the identical (port, now) mapping; skip the insert.
        let src_mac = packet.src_mac();
        if src_mac.is_unicast() && cursor.last_learned != Some(src_mac) {
            self.mac_table.insert(src_mac, (in_port, cursor.now));
            cursor.last_learned = Some(src_mac);
        }
        match packet.five_tuple() {
            Some(tuple) => self.classify_flow(packet, in_port, tuple),
            // Non-flow frames (ARP, unknown EtherTypes) are rare control
            // traffic; they always take the slow path.
            None => Classified {
                decision: self.slow_path(packet, in_port),
                megaflow: MegaflowState::None,
            },
        }
    }

    /// The one classification of a transport-flow frame (its source MAC
    /// already learned): the exact-match cache, else the megaflow layer —
    /// one wildcard entry covers every new flow of the same masked pattern
    /// — else the slow path, which memoizes the decision and seeds or
    /// installs the wildcard entry.
    fn classify_flow(&mut self, packet: &Packet, in_port: PortId, tuple: FiveTuple) -> Classified {
        let key = FlowKey {
            in_port,
            src_mac: packet.src_mac(),
            dst_mac: packet.dst_mac(),
            tuple,
        };
        let steering_generation = self.steering.generation();
        let dst_mapping = self.mac_table.get(&key.dst_mac).map(|(port, _)| *port);
        if let Some(decision) = self.flow_cache.lookup(
            &key,
            self.topology_generation,
            steering_generation,
            dst_mapping,
        ) {
            return Classified {
                decision,
                megaflow: MegaflowState::None,
            };
        }
        if let Some(hit) = self.megaflow.lookup(
            in_port,
            key.src_mac,
            key.dst_mac,
            &tuple,
            self.topology_generation,
            steering_generation,
            dst_mapping,
        ) {
            return Classified {
                decision: hit.decision,
                megaflow: MegaflowState::from_bypass(hit.bypass),
            };
        }
        let (decision, switch_mask) = self.slow_path_masked(packet, in_port);
        self.flow_cache.insert(
            key,
            decision.clone(),
            self.topology_generation,
            steering_generation,
            dst_mapping,
        );
        let megaflow =
            self.seed_or_install_megaflow(&key, tuple, switch_mask, &decision, dst_mapping);
        Classified { decision, megaflow }
    }

    /// Completes a slow-path seed into a wildcard cache entry.
    ///
    /// `chain` is the steered chain's contribution: `Some((mask, outcome))`
    /// when every NF the matching packets would visit certified the
    /// packet's processing as a pure function of `mask` (the entry then
    /// bypasses the chain — forwarding unchanged or replaying a certified
    /// drop per the [`BypassOutcome`] — with NF statistics replayed from
    /// the tokens), `None` when the chain is opaque (the entry caches the
    /// switch decision only; matching packets still traverse the chain).
    ///
    /// Returns what the install did so the caller can trace seals and
    /// evictions without the switch owning an observability sink (the switch
    /// stays plain serializable state).
    pub fn install_megaflow(
        &mut self,
        seed: MegaflowSeed,
        chain: Option<(FieldMask, BypassOutcome)>,
    ) -> MegaflowInstall {
        let (mask, bypass) = match chain {
            Some((chain_mask, outcome)) => (seed.switch_mask.union(chain_mask), Some(outcome)),
            None => (seed.switch_mask, None),
        };
        let outcome = match &bypass {
            Some(b) if b.is_drop() => "drop",
            Some(_) => "forward",
            None => "decision",
        };
        let installed = self.megaflow.enabled();
        let evictions_before = self.megaflow.stats().evictions;
        self.megaflow.insert(
            seed.in_port,
            seed.src_mac,
            seed.dst_mac,
            &seed.tuple,
            mask,
            seed.decision,
            bypass,
            seed.topology_generation,
            seed.steering_generation,
            seed.dst_mapping,
        );
        MegaflowInstall {
            installed,
            outcome,
            evicted: self.megaflow.stats().evictions - evictions_before,
            occupancy: self.megaflow.len() as u64,
        }
    }

    /// The megaflow tail of a slow-path classification: unsteered decisions
    /// install their wildcard entry right away (the switch's own mask is the
    /// whole story), steered ones hand the caller a seed to complete after
    /// the chain has reported its consulted fields.
    fn seed_or_install_megaflow(
        &mut self,
        key: &FlowKey,
        tuple: FiveTuple,
        switch_mask: FieldMask,
        decision: &SwitchDecision,
        dst_mapping: Option<PortId>,
    ) -> MegaflowState {
        if !self.megaflow.enabled() {
            return MegaflowState::None;
        }
        // The slow path never mutates steering, so the generation here is
        // the one the decision was computed under.
        let steering_generation = self.steering.generation();
        if decision.steering.is_none() {
            self.megaflow.insert(
                key.in_port,
                key.src_mac,
                key.dst_mac,
                &tuple,
                switch_mask,
                decision.clone(),
                None,
                self.topology_generation,
                steering_generation,
                dst_mapping,
            );
            MegaflowState::None
        } else {
            MegaflowState::Seed(MegaflowSeed {
                in_port: key.in_port,
                src_mac: key.src_mac,
                dst_mac: key.dst_mac,
                tuple,
                switch_mask,
                decision: decision.clone(),
                topology_generation: self.topology_generation,
                steering_generation,
                dst_mapping,
            })
        }
    }

    /// The full lookup pipeline: steering rules plus the L2 forwarding
    /// decision.
    fn slow_path(&mut self, packet: &Packet, in_port: PortId) -> SwitchDecision {
        self.slow_path_masked(packet, in_port).0
    }

    /// [`slow_path`], additionally returning the five-tuple fields the
    /// steering walk consulted. The L2 forwarding part reads only the MACs
    /// and the port set, which the megaflow cache matches exactly / guards
    /// with generations, so it contributes nothing to the tuple mask.
    ///
    /// [`slow_path`]: SoftwareSwitch::slow_path
    fn slow_path_masked(
        &mut self,
        packet: &Packet,
        in_port: PortId,
    ) -> (SwitchDecision, FieldMask) {
        let mut mask = FieldMask::EMPTY;
        let steering = self.steering.lookup_masked(packet, &mut mask);

        // Standard L2 forwarding decision.
        let forwarding = if packet.dst_mac().is_multicast() {
            Forwarding::Flood(self.flood_ports(in_port))
        } else if let Some((port, _)) = self.mac_table.get(&packet.dst_mac()) {
            if *port == in_port {
                // Destination is on the ingress segment; hairpin suppressed.
                Forwarding::Flood(self.empty_flood.clone())
            } else {
                Forwarding::Unicast(*port)
            }
        } else {
            // Unknown unicast: assume it leaves via the uplink (the common
            // case for Internet-bound client traffic), mirroring a default
            // route rather than flooding the radio side.
            Forwarding::Unicast(self.uplink_port())
        };

        (
            SwitchDecision {
                steering,
                forwarding,
            },
            mask,
        )
    }

    /// Records that a frame of `bytes` bytes was transmitted out of `port`.
    pub fn record_tx(&mut self, port: PortId, bytes: usize) {
        if let Some(port) = self.ports.iter_mut().find(|p| p.id == port) {
            port.counters.tx_packets += 1;
            port.counters.tx_bytes += bytes as u64;
        }
    }

    /// The flood set for frames entering on `except`, shared and memoized so
    /// broadcasts do not allocate per frame.
    fn flood_ports(&mut self, except: PortId) -> Arc<[PortId]> {
        if let Some(set) = self.flood_sets.get(&except) {
            return Arc::clone(set);
        }
        let set: Arc<[PortId]> = self
            .ports
            .iter()
            .filter(|p| {
                p.id != except && matches!(p.kind, PortKind::ClientAccess | PortKind::Uplink)
            })
            .map(|p| p.id)
            .collect::<Vec<_>>()
            .into();
        self.flood_sets.insert(except, Arc::clone(&set));
        set
    }

    /// Records a change to the port set: flood sets and memoized flow
    /// decisions are no longer trustworthy.
    fn note_topology_change(&mut self) {
        self.topology_generation += 1;
        self.flood_sets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::{SteeringRule, TrafficSelector};
    use gnf_packet::builder;
    use gnf_types::{ChainId, ClientId};
    use std::net::Ipv4Addr;

    /// A lone frame is a batch of one.
    trait BatchOfOne {
        fn classify_one(
            &mut self,
            packet: &Packet,
            in_port: PortId,
            now: SimTime,
        ) -> GnfResult<Classified>;

        fn receive(
            &mut self,
            packet: &Packet,
            in_port: PortId,
            now: SimTime,
        ) -> GnfResult<SwitchDecision> {
            self.classify_one(packet, in_port, now).map(|c| c.decision)
        }
    }

    impl BatchOfOne for SoftwareSwitch {
        fn classify_one(
            &mut self,
            packet: &Packet,
            in_port: PortId,
            now: SimTime,
        ) -> GnfResult<Classified> {
            let mut cursor = self.begin_batch(std::slice::from_ref(packet), in_port, now)?;
            Ok(self.classify(&mut cursor, packet))
        }
    }

    /// One batch through one prologue: the decisions in packet order.
    fn classify_batch(
        sw: &mut SoftwareSwitch,
        packets: &[Packet],
        in_port: PortId,
        now: SimTime,
    ) -> GnfResult<Vec<SwitchDecision>> {
        let mut cursor = sw.begin_batch(packets, in_port, now)?;
        Ok(packets
            .iter()
            .map(|p| sw.classify(&mut cursor, p).decision)
            .collect())
    }

    fn client_mac() -> MacAddr {
        MacAddr::derived(1, 3)
    }
    fn server_mac() -> MacAddr {
        MacAddr::derived(3, 1)
    }

    fn upstream() -> Packet {
        builder::http_get(
            client_mac(),
            server_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(198, 51, 100, 1),
            40_000,
            "example.com",
            "/",
        )
    }

    fn downstream() -> Packet {
        builder::tcp_data(
            server_mac(),
            client_mac(),
            Ipv4Addr::new(198, 51, 100, 1),
            Ipv4Addr::new(10, 0, 0, 3),
            80,
            40_000,
            b"response",
        )
    }

    #[test]
    fn new_switch_has_access_and_uplink_ports() {
        let sw = SoftwareSwitch::new();
        assert_eq!(sw.ports().len(), 2);
        assert_ne!(sw.client_port(), sw.uplink_port());
    }

    #[test]
    fn unknown_unicast_goes_to_the_uplink_and_macs_are_learned() {
        let mut sw = SoftwareSwitch::new();
        let t = SimTime::from_secs(1);
        let decision = sw.receive(&upstream(), sw.client_port(), t).unwrap();
        assert_eq!(decision.forwarding, Forwarding::Unicast(sw.uplink_port()));
        assert_eq!(sw.mac_table_len(), 1, "client MAC learned");

        // Downstream towards the (now learned) client goes back out the
        // access port.
        let decision = sw.receive(&downstream(), sw.uplink_port(), t).unwrap();
        assert_eq!(decision.forwarding, Forwarding::Unicast(sw.client_port()));
        assert_eq!(sw.mac_table_len(), 2);
    }

    #[test]
    fn invalidate_caches_defeats_warm_entries_and_clear_mac_table_forgets() {
        let mut sw = SoftwareSwitch::new();
        let t = SimTime::from_secs(1);
        sw.receive(&upstream(), sw.client_port(), t).unwrap();
        sw.receive(&upstream(), sw.client_port(), t).unwrap();
        let warm = sw.flow_cache_stats();
        assert_eq!(warm.hits, 1, "second identical frame hits the flow cache");
        assert!(sw.mac_table_len() > 0);

        let gen_before = sw.cache_generation();
        sw.invalidate_caches();
        assert_eq!(sw.cache_generation(), gen_before + 1);

        // The memoized decision is stamped with the old generation, so the
        // next lookup must fall through to the slow path, not hit.
        sw.receive(&upstream(), sw.client_port(), t).unwrap();
        let after = sw.flow_cache_stats();
        assert_eq!(after.hits, warm.hits, "no stale hit after invalidation");
        assert_eq!(after.misses, warm.misses + 1);

        sw.clear_mac_table();
        assert_eq!(sw.mac_table_len(), 0);
    }

    #[test]
    fn broadcast_frames_flood_other_ports() {
        let mut sw = SoftwareSwitch::new();
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let decision = sw.receive(&arp, sw.client_port(), SimTime::ZERO).unwrap();
        match decision.forwarding {
            Forwarding::Flood(ports) => {
                assert_eq!(ports.as_ref(), &[sw.uplink_port()]);
            }
            other => panic!("expected flood, got {other:?}"),
        }
    }

    #[test]
    fn flood_sets_are_shared_not_reallocated() {
        let mut sw = SoftwareSwitch::new();
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let first = sw.receive(&arp, sw.client_port(), SimTime::ZERO).unwrap();
        let second = sw.receive(&arp, sw.client_port(), SimTime::ZERO).unwrap();
        let (Forwarding::Flood(a), Forwarding::Flood(b)) = (first.forwarding, second.forwarding)
        else {
            panic!("expected floods");
        };
        assert!(Arc::ptr_eq(&a, &b), "flood set must be memoized");
    }

    #[test]
    fn steering_rules_divert_matching_traffic() {
        let mut sw = SoftwareSwitch::new();
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(3),
            client_mac: client_mac(),
            selector: TrafficSelector::http_only(),
            chain: ChainId::new(42),
        });
        let t = SimTime::from_secs(1);
        let decision = sw.receive(&upstream(), sw.client_port(), t).unwrap();
        let (rule, is_upstream) = decision.steering.expect("HTTP must be steered");
        assert_eq!(rule.chain, ChainId::new(42));
        assert!(is_upstream);

        // DNS from the same client is not diverted by the HTTP-only rule.
        let dns = builder::dns_query(
            client_mac(),
            server_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            1,
            "example.com",
        );
        let decision = sw.receive(&dns, sw.client_port(), t).unwrap();
        assert!(decision.steering.is_none());

        // Downstream HTTP towards the client is steered with the downstream flag.
        let decision = sw.receive(&downstream(), sw.uplink_port(), t).unwrap();
        let (_, is_upstream) = decision.steering.expect("downstream HTTP steered");
        assert!(!is_upstream);
    }

    #[test]
    fn counters_track_rx_and_tx() {
        let mut sw = SoftwareSwitch::new();
        let pkt = upstream();
        let t = SimTime::from_secs(1);
        sw.receive(&pkt, sw.client_port(), t).unwrap();
        sw.record_tx(sw.uplink_port(), pkt.len());
        let access = sw.port(sw.client_port()).unwrap().counters;
        let uplink = sw.port(sw.uplink_port()).unwrap().counters;
        assert_eq!(access.rx_packets, 1);
        assert_eq!(access.rx_bytes, pkt.len() as u64);
        assert_eq!(uplink.tx_packets, 1);
        assert_eq!(uplink.tx_bytes, pkt.len() as u64);
    }

    #[test]
    fn container_veth_ports_attach_and_detach() {
        let mut sw = SoftwareSwitch::new();
        let (ing, eg) = sw.connect_container(5, "fw-0");
        assert_ne!(ing, eg);
        assert_eq!(sw.ports().len(), 4);
        assert!(matches!(
            sw.port(ing).unwrap().kind,
            PortKind::VethIngress { container: 5 }
        ));
        assert_eq!(sw.disconnect_container(5), 2);
        assert_eq!(sw.ports().len(), 2);
        assert_eq!(sw.disconnect_container(5), 0);
    }

    #[test]
    fn mac_entries_age_out() {
        let mut sw = SoftwareSwitch::new();
        sw.receive(&upstream(), sw.client_port(), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(sw.mac_table_len(), 1);
        assert_eq!(sw.age_mac_table(SimTime::from_secs(100)), 0);
        assert_eq!(sw.age_mac_table(SimTime::from_secs(1000)), 1);
        assert_eq!(sw.mac_table_len(), 0);
    }

    #[test]
    fn receiving_on_an_unknown_port_is_an_error() {
        let mut sw = SoftwareSwitch::new();
        let err = sw
            .receive(&upstream(), PortId(99), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.category(), "not_found");
        assert_eq!(sw.dropped_frames(), 1);
    }

    #[test]
    fn hairpin_to_the_same_port_is_suppressed() {
        let mut sw = SoftwareSwitch::new();
        let t = SimTime::from_secs(1);
        // Learn both MACs on the client port (two stations behind the same AP).
        sw.receive(&upstream(), sw.client_port(), t).unwrap();
        let reverse = builder::tcp_data(
            server_mac(),
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(10, 0, 0, 3),
            80,
            40_000,
            b"local",
        );
        sw.receive(&reverse, sw.client_port(), t).unwrap();
        // Now a frame to the client arriving on the client port stays there.
        let decision = sw.receive(&reverse, sw.client_port(), t).unwrap();
        assert_eq!(
            decision.forwarding,
            Forwarding::Flood(Arc::from(Vec::new()))
        );
    }

    // ----------------------------------------------------- flow-cache tests

    #[test]
    fn repeated_flows_hit_the_cache() {
        let mut sw = SoftwareSwitch::new();
        let t = SimTime::from_secs(1);
        let pkt = upstream();
        let first = sw.receive(&pkt, sw.client_port(), t).unwrap();
        assert_eq!(sw.flow_cache_stats().misses, 1);
        let second = sw.receive(&pkt, sw.client_port(), t).unwrap();
        assert_eq!(sw.flow_cache_stats().hits, 1);
        assert_eq!(first, second, "cached decision equals slow-path decision");
        assert_eq!(sw.flow_cache_len(), 1);
    }

    #[test]
    fn steering_changes_invalidate_cached_flows() {
        let mut sw = SoftwareSwitch::new();
        let t = SimTime::from_secs(1);
        let pkt = upstream();
        let before = sw.receive(&pkt, sw.client_port(), t).unwrap();
        assert!(before.steering.is_none());
        sw.receive(&pkt, sw.client_port(), t).unwrap();
        assert_eq!(sw.flow_cache_stats().hits, 1);

        // Install a catch-all rule: the cached decision must not survive.
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(3),
            client_mac: client_mac(),
            selector: TrafficSelector::all(),
            chain: ChainId::new(7),
        });
        let after = sw.receive(&pkt, sw.client_port(), t).unwrap();
        let (rule, _) = after.steering.expect("steering applies immediately");
        assert_eq!(rule.chain, ChainId::new(7));

        // Removing the rule restores the unsteered decision immediately.
        sw.steering_mut()
            .remove_chain(client_mac(), ChainId::new(7));
        let restored = sw.receive(&pkt, sw.client_port(), t).unwrap();
        assert!(restored.steering.is_none());
    }

    #[test]
    fn mac_learning_and_aging_invalidate_cached_flows() {
        let mut sw = SoftwareSwitch::new();
        let pkt = upstream();
        // Before the server MAC is learned, upstream goes to the uplink.
        let decision = sw
            .receive(&pkt, sw.client_port(), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(decision.forwarding, Forwarding::Unicast(sw.uplink_port()));
        // The server talks: its MAC is learned on the uplink port (no change
        // to the decision — it already pointed there), then moves to a veth
        // port, which must re-route the cached flow.
        sw.receive(&downstream(), sw.uplink_port(), SimTime::from_secs(2))
            .unwrap();
        let (veth_in, _) = sw.connect_container(9, "nf");
        sw.receive(&downstream(), veth_in, SimTime::from_secs(3))
            .unwrap();
        let decision = sw
            .receive(&pkt, sw.client_port(), SimTime::from_secs(4))
            .unwrap();
        assert_eq!(
            decision.forwarding,
            Forwarding::Unicast(veth_in),
            "MAC move must re-route the cached flow"
        );

        // Aging the MAC table restores default-route behavior.
        assert!(sw.age_mac_table(SimTime::from_secs(3600)) > 0);
        let decision = sw
            .receive(&pkt, sw.client_port(), SimTime::from_secs(3601))
            .unwrap();
        assert_eq!(decision.forwarding, Forwarding::Unicast(sw.uplink_port()));
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let mut sw = SoftwareSwitch::with_flow_cache_capacity(8);
        let t = SimTime::from_secs(1);
        for port in 0..100u16 {
            let pkt = builder::tcp_syn(
                client_mac(),
                server_mac(),
                Ipv4Addr::new(10, 0, 0, 3),
                Ipv4Addr::new(198, 51, 100, 1),
                40_000 + port,
                443,
            );
            sw.receive(&pkt, sw.client_port(), t).unwrap();
            assert!(sw.flow_cache_len() <= 8);
        }
        assert!(sw.flow_cache_stats().evictions >= 92);
    }

    // ----------------------------------------------------- megaflow tests

    fn new_flow(src_port: u16, dst_port: u16) -> Packet {
        builder::tcp_syn(
            client_mac(),
            server_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(198, 51, 100, 1),
            src_port,
            dst_port,
        )
    }

    #[test]
    fn megaflow_is_disabled_by_default() {
        let mut sw = SoftwareSwitch::new();
        assert!(!sw.megaflow_enabled());
        let t = SimTime::from_secs(1);
        sw.receive(&new_flow(40_000, 443), sw.client_port(), t)
            .unwrap();
        let c = sw
            .classify_one(&new_flow(41_000, 443), sw.client_port(), t)
            .unwrap();
        assert_eq!(c.megaflow, MegaflowState::None);
        assert_eq!(sw.megaflow_stats(), gnf_types::MegaflowStats::default());
        assert_eq!(sw.megaflow_len(), 0);
    }

    #[test]
    fn megaflow_serves_new_flows_of_a_known_pattern() {
        let mut sw = SoftwareSwitch::new();
        sw.set_megaflow_capacity(64);
        let t = SimTime::from_secs(1);
        // Unsteered flow: the switch installs the wildcard entry itself
        // (there is no chain whose consulted fields would be missing).
        let first = sw
            .receive(&new_flow(40_000, 443), sw.client_port(), t)
            .unwrap();
        assert_eq!(sw.megaflow_len(), 1);
        assert_eq!(sw.megaflow_stats().installs, 1);
        // A brand-new flow of the same shape: exact miss, wildcard hit,
        // identical decision — and no exact entry is promoted.
        let c = sw
            .classify_one(&new_flow(41_000, 443), sw.client_port(), t)
            .unwrap();
        assert_eq!(c.decision, first);
        assert_eq!(
            c.megaflow,
            MegaflowState::None,
            "no chain, nothing to bypass"
        );
        assert_eq!(sw.megaflow_stats().hits, 1);
        assert_eq!(sw.flow_cache_len(), 1, "wildcard hits do not promote");
        assert_eq!(
            sw.flow_cache_stats().misses,
            2,
            "both packets probed exact first"
        );
    }

    #[test]
    fn steered_slow_path_seeds_and_sealing_enables_bypass() {
        let mut sw = SoftwareSwitch::new();
        sw.set_megaflow_capacity(64);
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(3),
            client_mac: client_mac(),
            selector: TrafficSelector::all(),
            chain: ChainId::new(42),
        });
        let t = SimTime::from_secs(1);
        let c = sw
            .classify_one(&new_flow(40_000, 443), sw.client_port(), t)
            .unwrap();
        assert!(c.decision.steering.is_some());
        let MegaflowState::Seed(seed) = c.megaflow else {
            panic!(
                "steered slow path must hand out a seed, got {:?}",
                c.megaflow
            );
        };
        assert!(
            seed.switch_mask().is_empty(),
            "catch-all selector reads no tuple field"
        );
        assert_eq!(
            sw.megaflow_len(),
            0,
            "nothing installed until the seed is sealed"
        );

        // Seal with a chain report: mask + tokens, as the Agent would after
        // every NF certified the packet.
        let tokens: Arc<[u64]> = Arc::from(vec![7u64]);
        sw.install_megaflow(
            seed,
            Some((
                gnf_packet::FieldMask::DST_PORT,
                BypassOutcome::Forward(tokens),
            )),
        );
        assert_eq!(sw.megaflow_len(), 1);

        // A new flow to the same destination port: wildcard hit with the
        // certified bypass attached.
        let c2 = sw
            .classify_one(&new_flow(41_000, 443), sw.client_port(), t)
            .unwrap();
        assert_eq!(c2.decision, c.decision);
        let MegaflowState::Bypass(tokens) = c2.megaflow else {
            panic!("expected a certified bypass, got {:?}", c2.megaflow);
        };
        assert_eq!(tokens.as_ref(), &[7u64]);
        // A new flow to a different port falls off the masked pattern.
        let c3 = sw
            .classify_one(&new_flow(41_001, 80), sw.client_port(), t)
            .unwrap();
        assert!(matches!(c3.megaflow, MegaflowState::Seed(_)));
    }

    #[test]
    fn sealing_a_drop_outcome_enables_the_drop_bypass() {
        let mut sw = SoftwareSwitch::new();
        sw.set_megaflow_capacity(64);
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(3),
            client_mac: client_mac(),
            selector: TrafficSelector::all(),
            chain: ChainId::new(42),
        });
        let t = SimTime::from_secs(1);
        let c = sw
            .classify_one(&new_flow(40_000, 22), sw.client_port(), t)
            .unwrap();
        let MegaflowState::Seed(seed) = c.megaflow else {
            panic!("steered slow path must hand out a seed");
        };
        // Seal with a certified drop, as the Agent would after the chain
        // silently dropped the packet on a pure evaluation path.
        let tokens: Arc<[u64]> = Arc::from(vec![1u64]);
        sw.install_megaflow(
            seed,
            Some((
                gnf_packet::FieldMask::DST_PORT,
                BypassOutcome::Drop {
                    tokens: tokens.clone(),
                    reason: "firewall: policy drop".into(),
                },
            )),
        );
        assert_eq!(sw.megaflow_stats().drop_installs, 1);

        // A brand-new flow of the dropped pattern: certified drop bypass.
        let c2 = sw
            .classify_one(&new_flow(41_000, 22), sw.client_port(), t)
            .unwrap();
        let MegaflowState::DropBypass { tokens: t2, reason } = c2.megaflow else {
            panic!("expected a certified drop bypass, got {:?}", c2.megaflow);
        };
        assert_eq!(t2, tokens);
        assert_eq!(reason, "firewall: policy drop");
        assert_eq!(sw.megaflow_stats().drop_hits, 1);
        assert_eq!(sw.megaflow_stats().hits, 1);
    }

    #[test]
    fn steering_and_topology_changes_invalidate_wildcard_entries() {
        let mut sw = SoftwareSwitch::new();
        sw.set_megaflow_capacity(64);
        let t = SimTime::from_secs(1);
        sw.receive(&new_flow(40_000, 443), sw.client_port(), t)
            .unwrap();
        assert!(sw
            .classify_one(&new_flow(41_000, 443), sw.client_port(), t)
            .unwrap()
            .decision
            .steering
            .is_none());
        assert_eq!(sw.megaflow_stats().hits, 1);

        // Installing a steering rule must immediately stop wildcard hits.
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(3),
            client_mac: client_mac(),
            selector: TrafficSelector::all(),
            chain: ChainId::new(7),
        });
        let c = sw
            .classify_one(&new_flow(42_000, 443), sw.client_port(), t)
            .unwrap();
        assert!(
            c.decision.steering.is_some(),
            "stale wildcard entry must not serve"
        );
        assert_eq!(sw.megaflow_stats().invalidations, 1);

        // A topology change (new port) invalidates the re-learned pattern too.
        let c = sw
            .classify_one(&new_flow(43_000, 443), sw.client_port(), t)
            .unwrap();
        let MegaflowState::Seed(seed) = c.megaflow else {
            panic!("expected a seed");
        };
        sw.install_megaflow(seed, None);
        assert!(sw
            .classify_one(&new_flow(44_000, 443), sw.client_port(), t)
            .unwrap()
            .decision
            .steering
            .is_some());
        sw.connect_container(9, "nf");
        let c = sw
            .classify_one(&new_flow(45_000, 443), sw.client_port(), t)
            .unwrap();
        assert!(
            matches!(c.megaflow, MegaflowState::Seed(_)),
            "entry invalidated by port change"
        );
    }

    #[test]
    fn flush_clears_wildcard_entries_too() {
        let mut sw = SoftwareSwitch::new();
        sw.set_megaflow_capacity(64);
        sw.receive(
            &new_flow(40_000, 443),
            sw.client_port(),
            SimTime::from_secs(1),
        )
        .unwrap();
        assert_eq!(sw.megaflow_len(), 1);
        sw.flush_flow_cache();
        assert_eq!(sw.megaflow_len(), 0);
        assert_eq!(sw.flow_cache_len(), 0);
    }

    #[test]
    fn megaflow_batch_counters_match_per_packet_for_unsteered_traffic() {
        let t = SimTime::from_secs(1);
        // Three new flows of one pattern plus back-to-back repeats: the
        // wildcard layer serves flows 2 and 3 and every repeat.
        let packets = vec![
            new_flow(40_000, 443),
            new_flow(40_001, 443),
            new_flow(40_002, 443),
            new_flow(40_002, 443),
            new_flow(40_002, 443),
        ];

        let mut per_packet = SoftwareSwitch::new();
        per_packet.set_megaflow_capacity(64);
        let expected: Vec<SwitchDecision> = packets
            .iter()
            .map(|p| per_packet.receive(p, per_packet.client_port(), t).unwrap())
            .collect();

        let mut batched = SoftwareSwitch::new();
        batched.set_megaflow_capacity(64);
        let port = batched.client_port();
        let expanded = classify_batch(&mut batched, &packets, port, t).unwrap();
        assert_eq!(expanded, expected);
        assert_eq!(batched.megaflow_stats(), per_packet.megaflow_stats());
        assert_eq!(batched.flow_cache_stats(), per_packet.flow_cache_stats());
        assert_eq!(batched.megaflow_len(), per_packet.megaflow_len());
        assert_eq!(batched.flow_cache_len(), per_packet.flow_cache_len());
        // Flows 2/3 and the repeats rode the wildcard entry.
        assert_eq!(batched.megaflow_stats().hits, 4);
        assert_eq!(batched.flow_cache_stats().hits, 0);
    }

    // -------------------------------------------------------- batch tests

    #[test]
    fn a_batch_matches_per_packet_decisions_and_counters() {
        let t = SimTime::from_secs(1);
        // A batch mixing repeats of one flow, a second flow and an ARP.
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let other_flow = builder::tcp_syn(
            client_mac(),
            server_mac(),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(198, 51, 100, 1),
            41_000,
            443,
        );
        let packets = vec![
            upstream(),
            upstream(),
            upstream(),
            other_flow.clone(),
            arp.clone(),
            upstream(),
            upstream(),
        ];

        let mut per_packet = SoftwareSwitch::new();
        let expected: Vec<SwitchDecision> = packets
            .iter()
            .map(|p| per_packet.receive(p, per_packet.client_port(), t).unwrap())
            .collect();

        let mut batched = SoftwareSwitch::new();
        let port = batched.client_port();
        let expanded = classify_batch(&mut batched, &packets, port, t).unwrap();
        assert_eq!(expanded, expected);

        // Counters and cache statistics are identical to per-packet receive.
        assert_eq!(batched.flow_cache_stats(), per_packet.flow_cache_stats());
        assert_eq!(
            batched.port(batched.client_port()).unwrap().counters,
            per_packet.port(per_packet.client_port()).unwrap().counters,
        );
        assert_eq!(batched.mac_table_len(), per_packet.mac_table_len());
    }

    #[test]
    fn a_batch_on_an_unknown_port_is_dropped_whole() {
        let mut sw = SoftwareSwitch::new();
        let batch = [upstream(), upstream()];
        let err = sw
            .begin_batch(&batch, PortId(99), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.category(), "not_found");
        assert_eq!(sw.dropped_frames(), 2);
        // An empty batch on a valid port is a no-op.
        let port = sw.client_port();
        sw.begin_batch(&[], port, SimTime::ZERO).unwrap();
        assert_eq!(sw.port(port).unwrap().counters, PortCounters::default());
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut sw = SoftwareSwitch::new();
        sw.receive(&upstream(), sw.client_port(), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(sw.flow_cache_len(), 1);
        sw.flush_flow_cache();
        assert_eq!(sw.flow_cache_len(), 0);
    }
}
