//! Seeded synthetic workload generators.
//!
//! Real edge traffic is not a uniform packet loop: flow sizes are heavy-tailed
//! (a sea of mice, a few elephants carrying most bytes), arrivals are bursty,
//! and the application mix ranges from benign web browsing to attack traffic.
//! [`SyntheticWorkload`] models exactly those axes on top of `gnf-sim`'s
//! deterministic RNG:
//!
//! * **flow sizes** — [`FlowSizeModel`]: Zipf (`P(size=k) ∝ k^-s` up to a
//!   cap), so a run's packet budget is exact;
//! * **flow arrivals** — [`ArrivalModel`]: Poisson, periodic, or MMPP-style
//!   on/off bursts (exponential dwell times, Poisson arrivals while on);
//! * **application mix** — [`TrafficMix`] over [`FlowKind`]s: HTTP request
//!   flows, DNS chatter, CBR streams, and the attack shapes the IDS/firewall
//!   NFs exist for (sequential port scans, spoofed-source SYN floods) plus
//!   single-packet new-flow churn (the megaflow cache's worst case).
//!
//! Generation is streaming: the generator keeps exactly one pending packet
//! per active flow in a heap, so memory is proportional to *concurrent*
//! flows, never to the run's total packet count. The same spec + seed
//! produces a byte-identical packet sequence (property-tested).

use crate::population::{ClientEndpoint, Population};
use crate::source::{TimedBatch, Workload};
use gnf_packet::{builder, Packet};
use gnf_sim::{Rng, Zipf};
use gnf_types::{ClientId, SimDuration, SimTime, StationId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// The destinations web-flavoured flows are spread over (Zipf popularity).
const WEB_HOSTS: [&str; 8] = [
    "www.gla.ac.uk",
    "video.example",
    "news.example",
    "social.example",
    "cdn.example",
    "blocked.example",
    "mail.example",
    "svc.edge.example",
];

/// The well-known victim of the attack-flavoured flows.
const ATTACK_TARGET: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);

fn server_for(rank: usize) -> Ipv4Addr {
    Ipv4Addr::new(203, 0, 113, (rank as u8) + 10)
}

/// The path of object `ix` (`/obj/1` ..= `/obj/99`) an HTTP flow requests,
/// formatted once per process.
fn object_path(ix: u64) -> &'static str {
    static PATHS: OnceLock<Vec<String>> = OnceLock::new();
    let paths = PATHS.get_or_init(|| (1..=99).map(|ix| format!("/obj/{ix}")).collect());
    &paths[ix as usize - 1]
}

// ------------------------------------------------------------------ models

/// How many packets a flow carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizeModel {
    /// Heavy tail via `P(size = k) ∝ k^-exponent` for `k in 1..=max_packets`:
    /// size-1 mice dominate, size-`max_packets` elephants are rare but real.
    Zipf {
        /// Largest flow size.
        max_packets: u32,
        /// Tail exponent (≈1.1–1.6 for measured traffic).
        exponent: f64,
    },
}

/// A size sampler holding the Zipf CDF table, built once so drawing stays
/// O(log n) per flow instead of O(n).
struct SizeSampler {
    cumulative: Vec<f64>,
}

impl SizeSampler {
    fn new(model: FlowSizeModel) -> Self {
        let FlowSizeModel::Zipf {
            max_packets,
            exponent,
        } = model;
        let n = max_packets.max(1) as usize;
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(exponent);
            cumulative.push(total);
        }
        SizeSampler { cumulative }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let cumulative = &self.cumulative;
        let total = *cumulative.last().expect("non-empty table");
        let target = rng.next_f64() * total;
        let ix = cumulative.partition_point(|&c| c < target);
        (ix.min(cumulative.len() - 1) + 1) as u32
    }
}

/// When new flows start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Poisson flow arrivals at a constant rate.
    Poisson {
        /// Mean new flows per virtual second.
        flows_per_sec: f64,
    },
    /// Evenly spaced flow arrivals.
    Periodic {
        /// New flows per virtual second.
        flows_per_sec: f64,
    },
    /// MMPP-style on/off bursts: while ON, Poisson arrivals at
    /// `on_flows_per_sec`; while OFF, silence. Dwell times in each phase are
    /// exponential with the given means.
    OnOff {
        /// Arrival rate during ON phases.
        on_flows_per_sec: f64,
        /// Mean ON-phase duration.
        mean_on: SimDuration,
        /// Mean OFF-phase duration.
        mean_off: SimDuration,
    },
}

/// What a flow's packets look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowKind {
    /// A TCP SYN followed by HTTP GETs to a Zipf-popular host on one
    /// persistent connection.
    Http,
    /// A burst of DNS queries for Zipf-popular names.
    Dns,
    /// A constant-payload UDP stream (video/VoIP-shaped).
    Cbr {
        /// UDP payload bytes per packet.
        payload_bytes: u16,
    },
    /// Attack: TCP SYNs walking sequential destination ports on the target
    /// (every packet a brand-new five-tuple; low ports trip firewall rules).
    PortScan,
    /// Attack: TCP SYNs to one service port from random spoofed source
    /// ports (the IDS's SYN-flood signal).
    SynFlood,
    /// A single-packet flow with a fresh source port — pure new-flow churn,
    /// the exact-match cache's worst case and the megaflow cache's reason to
    /// exist.
    Churn,
}

/// A weighted mix of flow kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMix {
    entries: Vec<(f64, FlowKind)>,
}

impl TrafficMix {
    /// A mix of exactly one kind.
    pub fn single(kind: FlowKind) -> Self {
        TrafficMix {
            entries: vec![(1.0, kind)],
        }
    }

    /// Adds a kind with the given relative weight.
    pub fn with(mut self, weight: f64, kind: FlowKind) -> Self {
        self.entries.push((weight.max(0.0), kind));
        self
    }

    /// Benign edge traffic: mostly HTTP request flows, DNS chatter, a little
    /// constant-bit-rate streaming.
    pub fn web() -> Self {
        TrafficMix::single(FlowKind::Http)
            .reweight(0.55)
            .with(0.35, FlowKind::Dns)
            .with(0.10, FlowKind::Cbr { payload_bytes: 200 })
    }

    /// Attack traffic over a web background: port scans and SYN floods for
    /// the IDS/firewall, with a third of flows still benign.
    pub fn attack() -> Self {
        TrafficMix::single(FlowKind::Http)
            .reweight(0.30)
            .with(0.35, FlowKind::PortScan)
            .with(0.35, FlowKind::SynFlood)
    }

    /// Pure new-flow churn (the megaflow workload).
    pub fn churn() -> Self {
        TrafficMix::single(FlowKind::Churn)
    }

    fn reweight(mut self, weight: f64) -> Self {
        if let Some(first) = self.entries.first_mut() {
            first.0 = weight;
        }
        self
    }

    fn sample(&self, rng: &mut Rng) -> FlowKind {
        let total: f64 = self.entries.iter().map(|(w, _)| w).sum();
        if total <= 0.0 {
            return self
                .entries
                .first()
                .map(|(_, k)| *k)
                .unwrap_or(FlowKind::Churn);
        }
        let mut target = rng.next_f64() * total;
        for (weight, kind) in &self.entries {
            target -= weight;
            if target <= 0.0 {
                return *kind;
            }
        }
        self.entries.last().map(|(_, k)| *k).expect("non-empty mix")
    }
}

// -------------------------------------------------------------------- spec

/// The full description of a synthetic workload. Same spec + same population
/// ⇒ byte-identical packet stream.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Report label.
    pub label: String,
    /// Seed for every draw the generator makes.
    pub seed: u64,
    /// Virtual time of the first possible flow arrival.
    pub start: SimTime,
    /// Flow arrival process.
    pub arrivals: ArrivalModel,
    /// Flow size distribution.
    pub flow_sizes: FlowSizeModel,
    /// Application mix.
    pub mix: TrafficMix,
    /// Mean within-flow packet spacing (exponential).
    pub mean_packet_gap: SimDuration,
    /// Emission times are rounded up to this tick, so same-tick packets for
    /// one station form real batches (zero = no rounding, per-packet events).
    pub quantum: SimDuration,
    /// Total packets the workload emits before ending.
    pub max_packets: u64,
}

impl SyntheticSpec {
    /// A spec with defaults: Poisson arrivals at 200 flows/s, Zipf(500, 1.2)
    /// flow sizes, the web mix, 20 ms mean packet gap, 1 ms quantum, 100 k
    /// packets, starting at t = 1 s.
    pub fn new(label: impl Into<String>, seed: u64) -> Self {
        SyntheticSpec {
            label: label.into(),
            seed,
            start: SimTime::from_secs(1),
            arrivals: ArrivalModel::Poisson {
                flows_per_sec: 200.0,
            },
            flow_sizes: FlowSizeModel::Zipf {
                max_packets: 500,
                exponent: 1.2,
            },
            mix: TrafficMix::web(),
            mean_packet_gap: SimDuration::from_millis(20),
            quantum: SimDuration::from_millis(1),
            max_packets: 100_000,
        }
    }

    /// Sets the start time.
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Sets the arrival model.
    pub fn with_arrivals(mut self, arrivals: ArrivalModel) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the flow-size model.
    pub fn with_flow_sizes(mut self, sizes: FlowSizeModel) -> Self {
        self.flow_sizes = sizes;
        self
    }

    /// Sets the application mix.
    pub fn with_mix(mut self, mix: TrafficMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the mean within-flow packet gap.
    pub fn with_packet_gap(mut self, gap: SimDuration) -> Self {
        self.mean_packet_gap = gap;
        self
    }

    /// Sets the total packet budget.
    pub fn with_packet_budget(mut self, packets: u64) -> Self {
        self.max_packets = packets;
        self
    }

    /// Builds the streaming generator over a population.
    pub fn build(self, population: Population) -> SyntheticWorkload {
        SyntheticWorkload::new(self, population)
    }
}

// --------------------------------------------------------------- generator

/// Per-kind flow state carried between a flow's packets.
#[derive(Debug)]
enum FlowBody {
    Http {
        host_ix: usize,
        server: Ipv4Addr,
        src_port: u16,
        sent: u32,
    },
    Dns {
        src_port: u16,
        next_id: u16,
    },
    Cbr {
        src_port: u16,
        payload_bytes: u16,
    },
    PortScan {
        src_port: u16,
        cursor: u16,
    },
    SynFlood,
    Churn {
        src_port: u16,
        dst_port: u16,
    },
}

#[derive(Debug)]
struct FlowState {
    endpoint: ClientEndpoint,
    remaining: u32,
    body: FlowBody,
}

/// A flow waiting to emit its next packet.
struct PendingFlow {
    /// Quantised emission time (the batch it lands in).
    due: SimTime,
    /// Exact (continuous) time the within-flow pacing continues from.
    exact: SimTime,
    /// Spawn-order tiebreaker for deterministic heap order.
    seq: u64,
    flow: FlowState,
}

impl PartialEq for PendingFlow {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for PendingFlow {}
impl PartialOrd for PendingFlow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingFlow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

/// Counters describing what a generator produced (and how much state it kept
/// doing it — `peak_active_flows` is the memory high-water mark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratorStats {
    /// Flows spawned.
    pub flows_spawned: u64,
    /// Packets emitted.
    pub packets_emitted: u64,
    /// Maximum number of simultaneously active flows.
    pub peak_active_flows: usize,
}

/// The streaming synthetic workload source. See the module docs for the
/// model; see [`Workload`] for the streaming contract.
pub struct SyntheticWorkload {
    spec: SyntheticSpec,
    population: Population,
    sizes: SizeSampler,
    /// Host popularity of HTTP flows (Zipf, exponent 1.1).
    http_hosts: Zipf,
    /// Name popularity of DNS queries (Zipf, exponent 1.0).
    dns_hosts: Zipf,
    /// The payload CBR packets carry a prefix of: as long as the mix's
    /// longest.
    cbr_payload: Vec<u8>,
    rng: Rng,
    heap: BinaryHeap<Reverse<PendingFlow>>,
    ready: VecDeque<TimedBatch>,
    next_arrival: SimTime,
    phase_on: bool,
    phase_until: SimTime,
    next_port: u16,
    seq: u64,
    budget: u64,
    stats: GeneratorStats,
}

impl SyntheticWorkload {
    /// Creates the generator. The population must be non-empty for the
    /// workload to produce anything.
    pub fn new(spec: SyntheticSpec, population: Population) -> Self {
        let mut rng = Rng::new(spec.seed).derive(&format!("workload-{}", spec.label));
        let phase_until = match spec.arrivals {
            ArrivalModel::OnOff { mean_on, .. } => {
                spec.start
                    + rng
                        .exponential_duration(mean_on)
                        .max(SimDuration::from_millis(1))
            }
            _ => SimTime::MAX,
        };
        let cbr_len = spec
            .mix
            .entries
            .iter()
            .filter_map(|(_, kind)| match kind {
                FlowKind::Cbr { payload_bytes } => Some(usize::from(*payload_bytes)),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        SyntheticWorkload {
            sizes: SizeSampler::new(spec.flow_sizes),
            http_hosts: Zipf::new(WEB_HOSTS.len(), 1.1),
            dns_hosts: Zipf::new(WEB_HOSTS.len(), 1.0),
            cbr_payload: vec![0xAB; cbr_len],
            budget: if population.is_empty() {
                0
            } else {
                spec.max_packets
            },
            next_arrival: spec.start,
            phase_on: true,
            phase_until,
            next_port: 20_000,
            seq: 0,
            heap: BinaryHeap::new(),
            ready: VecDeque::new(),
            stats: GeneratorStats::default(),
            rng,
            population,
            spec,
        }
    }

    /// What the generator has produced so far.
    pub fn stats(&self) -> GeneratorStats {
        self.stats
    }

    fn quantize(&self, t: SimTime) -> SimTime {
        let q = self.spec.quantum.as_nanos();
        if q == 0 {
            return t;
        }
        SimTime::from_nanos(t.as_nanos().div_ceil(q) * q)
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_port;
        self.next_port = if port >= 64_999 { 20_000 } else { port + 1 };
        port
    }

    /// The arrival time following `at` under the configured model.
    fn advance_arrival(&mut self, at: SimTime) -> SimTime {
        match self.spec.arrivals {
            ArrivalModel::Poisson { flows_per_sec } => {
                let mean = SimDuration::from_secs_f64(1.0 / flows_per_sec.max(1e-6));
                at + self
                    .rng
                    .exponential_duration(mean)
                    .max(SimDuration::from_nanos(1))
            }
            ArrivalModel::Periodic { flows_per_sec } => {
                at + SimDuration::from_secs_f64(1.0 / flows_per_sec.max(1e-6))
                    .max(SimDuration::from_nanos(1))
            }
            ArrivalModel::OnOff {
                on_flows_per_sec,
                mean_on,
                mean_off,
            } => {
                let mean_gap = SimDuration::from_secs_f64(1.0 / on_flows_per_sec.max(1e-6));
                let mut t = at;
                loop {
                    if self.phase_on {
                        let candidate = t + self
                            .rng
                            .exponential_duration(mean_gap)
                            .max(SimDuration::from_nanos(1));
                        if candidate <= self.phase_until {
                            return candidate;
                        }
                        t = self.phase_until;
                        self.phase_on = false;
                        self.phase_until = t + self
                            .rng
                            .exponential_duration(mean_off)
                            .max(SimDuration::from_millis(1));
                    } else {
                        t = self.phase_until;
                        self.phase_on = true;
                        self.phase_until = t + self
                            .rng
                            .exponential_duration(mean_on)
                            .max(SimDuration::from_millis(1));
                    }
                }
            }
        }
    }

    fn spawn_flow(&mut self) {
        debug_assert!(self.budget > 0);
        let at = self.next_arrival;
        self.next_arrival = self.advance_arrival(at);
        let kind = self.spec.mix.sample(&mut self.rng);
        let ix = self.rng.next_below(self.population.len() as u64) as usize;
        let endpoint = self.population.endpoints()[ix];
        let sampled = self.sizes.sample(&mut self.rng);
        let size = match kind {
            FlowKind::Churn => 1,
            _ => sampled,
        }
        .min(self.budget.min(u64::from(u32::MAX)) as u32)
        .max(1);
        self.budget -= u64::from(size);
        let body = match kind {
            FlowKind::Http => {
                let host_ix = self.http_hosts.sample(&mut self.rng);
                FlowBody::Http {
                    host_ix,
                    server: server_for(host_ix),
                    src_port: self.alloc_port(),
                    sent: 0,
                }
            }
            FlowKind::Dns => FlowBody::Dns {
                src_port: self.alloc_port(),
                next_id: (self.rng.next_u32() & 0xffff) as u16,
            },
            FlowKind::Cbr { payload_bytes } => FlowBody::Cbr {
                src_port: self.alloc_port(),
                payload_bytes,
            },
            FlowKind::PortScan => FlowBody::PortScan {
                src_port: self.alloc_port(),
                cursor: self.rng.range_inclusive(1, 1024) as u16,
            },
            FlowKind::SynFlood => FlowBody::SynFlood,
            // Churn's novelty lives in the source port (every flow a fresh
            // five-tuple); the destination set stays small so wildcard
            // entries can actually cover the churn.
            FlowKind::Churn => FlowBody::Churn {
                src_port: self.alloc_port(),
                dst_port: 8_000 + (self.rng.next_u32() % 8) as u16,
            },
        };
        self.stats.flows_spawned += 1;
        self.push_flow(
            at,
            FlowState {
                endpoint,
                remaining: size,
                body,
            },
        );
    }

    fn push_flow(&mut self, exact: SimTime, flow: FlowState) {
        let due = self.quantize(exact);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(PendingFlow {
            due,
            exact,
            seq,
            flow,
        }));
        self.stats.peak_active_flows = self.stats.peak_active_flows.max(self.heap.len());
    }

    /// Builds one packet of a flow and advances the flow's per-kind state.
    fn emit_packet(
        rng: &mut Rng,
        dns_hosts: &Zipf,
        cbr_payload: &[u8],
        flow: &mut FlowState,
    ) -> Packet {
        let e = flow.endpoint;
        match &mut flow.body {
            FlowBody::Http {
                host_ix,
                server,
                src_port,
                sent,
            } => {
                let packet = if *sent == 0 {
                    builder::tcp_syn(e.mac, e.gateway_mac, e.ip, *server, *src_port, 80)
                } else {
                    let object = rng.range_inclusive(1, 99);
                    builder::http_get(
                        e.mac,
                        e.gateway_mac,
                        e.ip,
                        *server,
                        *src_port,
                        WEB_HOSTS[*host_ix],
                        object_path(object),
                    )
                };
                *sent += 1;
                packet
            }
            FlowBody::Dns { src_port, next_id } => {
                *next_id = next_id.wrapping_add(1);
                let host = WEB_HOSTS[dns_hosts.sample(rng)];
                builder::dns_query(
                    e.mac,
                    e.gateway_mac,
                    e.ip,
                    Ipv4Addr::new(8, 8, 8, 8),
                    *src_port,
                    *next_id,
                    host,
                )
            }
            FlowBody::Cbr {
                src_port,
                payload_bytes,
            } => builder::udp_packet(
                e.mac,
                e.gateway_mac,
                e.ip,
                Ipv4Addr::new(203, 0, 113, 200),
                *src_port,
                5_004,
                &cbr_payload[..usize::from(*payload_bytes)],
            ),
            FlowBody::PortScan { src_port, cursor } => {
                let port = *cursor;
                *cursor = if *cursor >= 1024 { 1 } else { *cursor + 1 };
                builder::tcp_syn(e.mac, e.gateway_mac, e.ip, ATTACK_TARGET, *src_port, port)
            }
            FlowBody::SynFlood => {
                let spoofed = 1_024 + (rng.next_u32() % 64_000) as u16;
                builder::tcp_syn(e.mac, e.gateway_mac, e.ip, ATTACK_TARGET, spoofed, 80)
            }
            FlowBody::Churn { src_port, dst_port } => builder::udp_packet(
                e.mac,
                e.gateway_mac,
                e.ip,
                Ipv4Addr::new(203, 0, 113, 210),
                *src_port,
                *dst_port,
                b"churn",
            ),
        }
    }

    /// Produces the batches of the next quantum boundary into `ready`.
    /// Returns `false` when the workload is exhausted.
    fn produce_quantum(&mut self) -> bool {
        // Spawn every flow that arrives before the earliest pending
        // emission (spawning can move that horizon earlier; re-check).
        loop {
            let horizon = self.heap.peek().map(|Reverse(p)| p.due);
            match horizon {
                Some(due) if self.budget == 0 || self.next_arrival > due => break,
                None if self.budget == 0 => return false,
                _ => self.spawn_flow(),
            }
        }
        let due = self
            .heap
            .peek()
            .map(|Reverse(p)| p.due)
            .expect("flows pending");
        let mut groups: BTreeMap<StationId, Vec<(ClientId, Packet)>> = BTreeMap::new();
        while self.heap.peek().is_some_and(|Reverse(p)| p.due == due) {
            let Reverse(mut pending) = self.heap.pop().expect("peeked");
            let packet = Self::emit_packet(
                &mut self.rng,
                &self.dns_hosts,
                &self.cbr_payload,
                &mut pending.flow,
            );
            groups
                .entry(pending.flow.endpoint.station)
                .or_default()
                .push((pending.flow.endpoint.client, packet));
            self.stats.packets_emitted += 1;
            pending.flow.remaining -= 1;
            if pending.flow.remaining > 0 {
                let gap = self
                    .rng
                    .exponential_duration(self.spec.mean_packet_gap)
                    .max(SimDuration::from_nanos(1));
                self.push_flow(pending.exact + gap, pending.flow);
            }
        }
        for (station, packets) in groups {
            self.ready.push_back(TimedBatch {
                at: due,
                station,
                packets,
            });
        }
        true
    }
}

impl Workload for SyntheticWorkload {
    fn label(&self) -> &str {
        &self.spec.label
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        loop {
            if let Some(batch) = self.ready.pop_front() {
                return Some(batch);
            }
            if !self.produce_quantum() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut workload: SyntheticWorkload) -> (Vec<TimedBatch>, GeneratorStats) {
        let mut out = Vec::new();
        while let Some(batch) = workload.next_batch() {
            out.push(batch);
        }
        (out, workload.stats())
    }

    #[test]
    fn budget_is_exact_and_batches_are_time_ordered() {
        let spec = SyntheticSpec::new("web", 11).with_packet_budget(2_000);
        let (batches, stats) = drain(spec.build(Population::synthetic(2, 4)));
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 2_000, "the packet budget is exact");
        assert_eq!(stats.packets_emitted, 2_000);
        assert!(stats.flows_spawned > 10);
        assert!(stats.peak_active_flows >= 1);
        assert!(
            batches.windows(2).all(|w| w[0].at <= w[1].at),
            "batches are non-decreasing in time"
        );
        assert!(batches.iter().all(|b| !b.is_empty()));
        // Every packet belongs to a population endpoint and targets its
        // station's gateway.
        let population = Population::synthetic(2, 4);
        for batch in &batches {
            for (client, packet) in &batch.packets {
                let endpoint = population
                    .endpoints()
                    .iter()
                    .find(|e| e.client == *client)
                    .expect("known client");
                assert_eq!(endpoint.station, batch.station);
                assert_eq!(packet.src_mac(), endpoint.mac);
                assert_eq!(packet.dst_mac(), endpoint.gateway_mac);
            }
        }
    }

    #[test]
    fn same_spec_and_seed_is_byte_identical() {
        let build = || {
            SyntheticSpec::new("det", 42)
                .with_mix(TrafficMix::attack())
                .with_packet_budget(1_500)
                .build(Population::synthetic(2, 3))
        };
        let (a, _) = drain(build());
        let (b, _) = drain(build());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.at, x.station), (y.at, y.station));
            assert_eq!(x.packets.len(), y.packets.len());
            for ((ca, pa), (cb, pb)) in x.packets.iter().zip(&y.packets) {
                assert_eq!(ca, cb);
                assert_eq!(pa.bytes().as_ref(), pb.bytes().as_ref());
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let build = |seed| {
            SyntheticSpec::new("div", seed)
                .with_packet_budget(500)
                .build(Population::synthetic(1, 2))
        };
        let (a, _) = drain(build(1));
        let (b, _) = drain(build(2));
        let frames = |batches: &[TimedBatch]| -> Vec<Vec<u8>> {
            batches
                .iter()
                .flat_map(|batch| batch.packets.iter().map(|(_, p)| p.bytes().to_vec()))
                .collect()
        };
        assert_ne!(frames(&a), frames(&b));
    }

    #[test]
    fn zipf_sizes_are_heavy_tailed() {
        let spec = SyntheticSpec::new("tail", 7)
            .with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 200,
                exponent: 1.2,
            })
            .with_packet_budget(20_000);
        let (_, stats) = drain(spec.build(Population::synthetic(1, 8)));
        let mean = stats.packets_emitted as f64 / stats.flows_spawned as f64;
        // Zipf(200, 1.2): most flows are mice, so the mean stays far below
        // the 200-packet cap — but elephants pull it well above 1.
        assert!(mean > 1.5, "elephants raise the mean: {mean}");
        assert!(mean < 50.0, "mice dominate: {mean}");
    }

    #[test]
    fn churn_spawns_one_packet_flows() {
        let spec = SyntheticSpec::new("churn", 3)
            .with_mix(TrafficMix::churn())
            .with_packet_budget(1_000);
        let (_, stats) = drain(spec.build(Population::synthetic(1, 4)));
        assert_eq!(stats.flows_spawned, 1_000, "every churn flow is 1 packet");
    }

    #[test]
    fn onoff_arrivals_produce_bursts_and_silences() {
        let spec = SyntheticSpec::new("bursty", 5)
            .with_arrivals(ArrivalModel::OnOff {
                on_flows_per_sec: 2_000.0,
                mean_on: SimDuration::from_millis(50),
                mean_off: SimDuration::from_millis(200),
            })
            .with_mix(TrafficMix::churn())
            .with_packet_budget(3_000);
        let (batches, _) = drain(spec.build(Population::synthetic(1, 4)));
        // Bursty arrivals leave large inter-batch gaps (the off phases):
        // within a burst batches sit one quantum apart, between bursts the
        // silence is orders of magnitude longer.
        let mut gaps: Vec<u64> = batches
            .windows(2)
            .map(|w| w[1].at.as_nanos() - w[0].at.as_nanos())
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let largest = *gaps.last().unwrap();
        assert!(
            largest > median * 20,
            "off phases dwarf in-burst gaps: median {median} ns, max {largest} ns"
        );
        let long_silences = gaps.iter().filter(|g| **g > median * 20).count();
        assert!(long_silences >= 3, "several off phases: {long_silences}");
    }

    #[test]
    fn empty_population_produces_nothing() {
        let spec = SyntheticSpec::new("empty", 1);
        let mut workload = spec.build(Population::default());
        assert!(workload.next_batch().is_none());
    }

    #[test]
    fn quantum_groups_same_tick_packets_into_batches() {
        let mut spec = SyntheticSpec::new("batched", 13)
            .with_arrivals(ArrivalModel::Poisson {
                flows_per_sec: 20_000.0,
            })
            .with_mix(TrafficMix::churn())
            .with_packet_budget(5_000);
        spec.quantum = SimDuration::from_millis(10);
        let (batches, _) = drain(spec.build(Population::synthetic(1, 8)));
        let mean = 5_000.0 / batches.len() as f64;
        assert!(mean > 10.0, "quantised arrivals batch up: {mean}");
    }
}
