//! Layer probes: each drives one crate's public API alone, on the
//! workload's own input, under a span. This is the wider API surface; the
//! end-to-end numbers never depend on anything here.

use crate::alloc::{counted, AllocCount};
use crate::e2e::{self, Input};
use crate::spans::Recorder;
use crate::stats;
use bytes::{Bytes, BytesMut};
use gnf_agent::{Agent, AgentConfig};
use gnf_api::codec;
use gnf_api::messages::AgentToManager;
use gnf_container::ImageRepository;
use gnf_edge::TrafficGenerator;
use gnf_manager::Manager;
use gnf_nf::{
    instantiate_chain, ChainBypass, Direction, NfContext, NfSpec, NfStateDelta, NfStateSnapshot,
};
use gnf_packet::{Packet, PacketBatch};
use gnf_sim::{EventQueue, Histogram, Rng};
use gnf_telemetry::DeltaEncoder;
use gnf_types::{
    AgentId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId,
};
use gnf_workload::{TraceReader, Workload};
use std::collections::HashMap;
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Chains whose state is exported, diffed, applied and imported.
const STATE_PROBE_CLIENTS: usize = 64;
/// Packets judged one by one to learn whether the chain certifies bypasses.
const BYPASS_SAMPLE_PACKETS: usize = 2_000;
const QUEUE_PROBE_EVENTS: u64 = 200_000;

/// One raw frame with its arrival time.
pub struct Frame {
    pub at: SimTime,
    pub bytes: Vec<u8>,
}

/// The workload's frames, one time-ordered list per client.
pub type ClientFrames = Vec<Vec<Frame>>;

/// Reads the replay trace record by record (`gnf-workload`'s pcap reader
/// alone) and groups the frames by source MAC.
pub fn read_trace(rec: &mut Recorder, trace: &e2e::Trace) -> ClientFrames {
    let records = rec.span("workload", "TraceReader::next_record", |_| {
        let mut reader = TraceReader::new(Cursor::new(&trace.pcap[..])).expect("pcap header");
        let mut records = Vec::with_capacity(trace.packets as usize);
        while let Some(record) = reader.next_record().expect("the trace was written whole") {
            records.push(record);
        }
        let items = records.len() as u64;
        (records, items)
    });
    let mut clients: HashMap<[u8; 6], usize> = HashMap::new();
    let mut frames = ClientFrames::new();
    for record in records {
        let mac: [u8; 6] = record.frame[6..12].try_into().expect("ethernet header");
        let next = clients.len();
        let ix = *clients.entry(mac).or_insert(next);
        if ix == frames.len() {
            frames.push(Vec::new());
        }
        frames[ix].push(Frame {
            at: record.at,
            bytes: record.frame,
        });
    }
    frames
}

/// Generates every client's built-in traffic (`gnf-edge` alone) at its
/// initial station, the way `Emulator::new` pre-generates it.
pub fn generate_native(rec: &mut Recorder, input: &Input) -> ClientFrames {
    let scenario = &input.scenario;
    let until = SimTime::ZERO + scenario.duration;
    let rng = Rng::new(scenario.config.seed);
    rec.span("edge", "TrafficGenerator::generate", |_| {
        let mut frames = ClientFrames::new();
        for workload in &scenario.workloads {
            let device = scenario.topology.client(workload.client).expect("client");
            let cell = device.attached_cell.expect("clients start attached");
            let site = scenario.topology.site_for_cell(cell).expect("site");
            let mut generator = TrafficGenerator::new(
                workload.profile,
                rng.derive(&format!("client-{}", workload.client.raw())),
            );
            let from = SimTime::ZERO + scenario.config.association_latency;
            let generated = generator.generate(device, site, from, until);
            frames.push(
                generated
                    .into_iter()
                    .map(|g| Frame {
                        at: g.at,
                        bytes: g.packet.bytes().to_vec(),
                    })
                    .collect(),
            );
        }
        let items = frames.iter().map(|f| f.len() as u64).sum();
        (frames, items)
    })
}

/// Parses every frame (`gnf-packet` alone), copying it first exactly as the
/// trace ingest does. The timed loop drops each packet at once, as the data
/// plane does; the parsed lists the chain probes need are built afterwards.
pub fn parse_frames(rec: &mut Recorder, frames: &ClientFrames) -> Vec<Vec<(SimTime, Packet)>> {
    let parse = |frame: &Frame| {
        Packet::parse(Bytes::copy_from_slice(&frame.bytes))
            .expect("the workload only carries valid frames")
    };
    rec.span("packet", "Packet::parse", |_| {
        let mut items = 0;
        for frame in frames.iter().flatten() {
            std::hint::black_box(parse(frame));
            items += 1;
        }
        ((), items)
    });
    frames
        .iter()
        .map(|client| client.iter().map(|f| (f.at, parse(f))).collect())
        .collect()
}

/// Drains the replay source alone: pcap read + header scan + batching, the
/// share of `run()` that `gnf-workload` owns.
pub fn ingest(rec: &mut Recorder, trace: &e2e::Trace) -> AllocCount {
    let mut source = e2e::open_replay(trace);
    let (packets, allocations) = counted(|| {
        rec.span("workload", "TraceWorkload::next_batch", |_| {
            let mut packets = 0u64;
            while let Some(batch) = source.next_batch() {
                packets += batch.len() as u64;
                std::hint::black_box(&batch);
            }
            (packets, packets)
        })
    });
    assert_eq!(
        packets, trace.packets,
        "the ingest probe must drain the trace"
    );
    allocations
}

/// Feeds `packets` to `chain` in the batches the emulator would form: a
/// client's packets that share one arrival time.
fn feed(chain: &mut gnf_nf::NfChain, client: ClientId, packets: &[(SimTime, Packet)]) {
    let mut rest = packets;
    while let Some((at, _)) = rest.first() {
        let len = rest.iter().take_while(|(t, _)| t == at).count();
        let batch: PacketBatch = rest[..len].iter().map(|(_, p)| p.clone()).collect();
        let verdicts = chain.process_batch(
            batch,
            Direction::Ingress,
            &NfContext::for_client(*at, client),
        );
        std::hint::black_box(verdicts);
        rest = &rest[len..];
    }
}

/// What the standalone chain probe found.
pub struct ChainProbe {
    pub allocations: AllocCount,
    /// True when every forwarded sample packet came with a certified
    /// forward bypass: only then can a wildcard hit skip the chain.
    pub forward_bypassable: bool,
}

/// Runs each client's packets through a fresh copy of the workload's chain
/// (`gnf-nf` alone): what `stateful_replay` pays per packet and what
/// `web_replay`'s bypass avoids.
pub fn chain(
    rec: &mut Recorder,
    specs: &[NfSpec],
    clients: &[Vec<(SimTime, Packet)>],
) -> ChainProbe {
    let ((), allocations) = counted(|| {
        for (ix, packets) in clients.iter().enumerate() {
            let mut chain = rec.span("nf", "instantiate_chain", |_| {
                (instantiate_chain("probe", specs), 1)
            });
            rec.span("nf", "NfChain::process_batch", |_| {
                feed(&mut chain, ClientId::new(ix as u64), packets);
                ((), packets.len() as u64)
            });
        }
    });
    let mut chain = instantiate_chain("probe", specs);
    let forward_bypassable = clients.first().is_some_and(|packets| {
        packets
            .iter()
            .take(BYPASS_SAMPLE_PACKETS)
            .all(|(at, packet)| {
                let ctx = NfContext::for_client(*at, ClientId::new(0));
                let verdict = chain.process(packet.clone(), Direction::Ingress, &ctx);
                !verdict.is_forward()
                    || matches!(
                        chain.wildcard_report(Direction::Ingress),
                        Some(ChainBypass::Forward { .. })
                    )
            })
    });
    ChainProbe {
        allocations,
        forward_bypassable,
    }
}

fn state_bytes(state: &[NfStateSnapshot]) -> u64 {
    state
        .iter()
        .map(|s| s.approximate_size_bytes() as u64)
        .sum()
}

/// Exports, diffs, applies and imports chain state the way a pre-copy
/// migration does (`gnf-nf` alone): the baseline is cut after 90 % of a
/// client's traffic, the delta covers the rest. Span items are bytes of the
/// full exported state. Panics if `apply(base, diff(base, cur)) != cur`.
pub fn state(rec: &mut Recorder, specs: &[NfSpec], clients: &[Vec<(SimTime, Packet)>]) {
    for (ix, packets) in clients.iter().take(STATE_PROBE_CLIENTS).enumerate() {
        let client = ClientId::new(ix as u64);
        let (early, late) = packets.split_at(packets.len() * 9 / 10);
        let mut chain = instantiate_chain("probe", specs);
        feed(&mut chain, client, early);
        let base = chain.export_state();
        feed(&mut chain, client, late);
        let current = rec.span("nf", "NfChain::export_state", |_| {
            let state = chain.export_state();
            let bytes = state_bytes(&state);
            (state, bytes)
        });
        let bytes = state_bytes(&current);
        let deltas: Vec<NfStateDelta> = rec.span("nf", "NfStateDelta::diff", |_| {
            let deltas = base
                .iter()
                .zip(&current)
                .map(|(b, c)| NfStateDelta::diff(b, c))
                .collect();
            (deltas, bytes)
        });
        let applied: Vec<NfStateSnapshot> = rec.span("nf", "NfStateDelta::apply", |_| {
            let applied = deltas.iter().zip(&base).map(|(d, b)| d.apply(b)).collect();
            (applied, bytes)
        });
        assert!(
            applied == current,
            "apply(base, diff(base, current)) must reproduce the current state"
        );
        let mut target = instantiate_chain("probe", specs);
        rec.span("nf", "NfChain::import_state", |_| {
            target.import_state(current);
            ((), bytes)
        });
        std::hint::black_box(target);
    }
}

/// Pops and re-schedules events on a queue held at `depth` (`gnf-sim`
/// alone): the classic hold model, one span item per pop + schedule pair.
pub fn event_queue(rec: &mut Recorder, depth: u64) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut next_gap = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        SimDuration::from_micros(1 + (lcg >> 44))
    };
    for event in 0..depth.max(1) {
        queue.schedule_at(SimTime::ZERO + next_gap(), event);
    }
    rec.span("sim", "EventQueue::pop+schedule_at", |_| {
        for _ in 0..QUEUE_PROBE_EVENTS {
            let scheduled = queue.pop().expect("the queue is held at depth");
            queue.schedule_at(scheduled.time + next_gap(), scheduled.event);
        }
        ((), QUEUE_PROBE_EVENTS)
    });
    std::hint::black_box(queue.len());
}

/// What the control-plane drive measured beyond its spans.
pub struct ControlPlane {
    pub report_bytes_full: f64,
    pub report_bytes_delta: f64,
    pub tick_p50_us: f64,
    pub tick_p90_us: f64,
}

/// `stations` real Agents with one associated client each, and the
/// messages they owe the Manager: the register from `Agent::new` and the
/// client notification.
fn fleet(
    stations: usize,
    delta_keyframes: Option<u64>,
) -> (Vec<Agent>, Vec<(StationId, AgentToManager)>) {
    let repository = ImageRepository::with_standard_images();
    let mut agents = Vec::with_capacity(stations);
    let mut messages = Vec::with_capacity(stations * 2);
    for s in 0..stations as u64 {
        let station = StationId::new(s);
        let (mut agent, register) = Agent::new(
            AgentConfig {
                agent: AgentId::new(s),
                station,
                host_class: HostClass::EdgeServer,
            },
            repository.clone(),
        );
        if let Some(interval) = delta_keyframes {
            agent.set_delta_reporting(interval);
        }
        messages.push((station, register));
        let connected = agent.client_associated(
            ClientId::new(s),
            MacAddr::derived(1, s as u32),
            Ipv4Addr::new(10, (s >> 16) as u8, (s >> 8) as u8, s as u8),
        );
        messages.extend(connected.into_iter().map(|m| (station, m)));
        agents.push(agent);
    }
    (agents, messages)
}

/// Drives `stations` real Agents and one Manager through `intervals`
/// report intervals on the workload's transport (full or delta reports),
/// every message through the wire codec: `Agent::make_report` → `encode` →
/// `decode` → `Manager::handle_agent_msg`, then one `Manager::tick`. A
/// second fleet on the other transport supplies the byte comparison and the
/// full reports the standalone `DeltaEncoder` is timed on. One span per
/// stage per interval; items are reports.
pub fn control_plane(
    rec: &mut Recorder,
    config: &GnfConfig,
    stations: usize,
    intervals: u64,
) -> ControlPlane {
    let keyframes = config.report_keyframe_interval;
    let full = fleet(stations, None);
    let delta = fleet(stations, Some(keyframes));
    // `main` reports to the Manager on the workload's transport; `other`
    // only shows what the same interval costs on the wire the other way.
    let ((mut main, hello), (mut other, _)) = if config.delta_reports {
        (delta, full)
    } else {
        (full, delta)
    };
    let mut manager = Manager::new(config.clone());
    for (station, message) in hello {
        manager.handle_agent_msg(station, message, SimTime::ZERO);
    }
    let mut encoders: Vec<DeltaEncoder> = (0..stations)
        .map(|_| DeltaEncoder::new(keyframes))
        .collect();

    let items = stations as u64;
    let (mut main_bytes, mut other_bytes) = (0u64, 0u64);
    let mut ticks = Histogram::new();
    let mut now = SimTime::ZERO;
    for _ in 0..intervals {
        now += config.agent_report_interval;
        let reports: Vec<AgentToManager> = rec.span("agent", "Agent::make_report", |_| {
            (main.iter_mut().map(|a| a.make_report(now)).collect(), items)
        });
        let other_reports: Vec<AgentToManager> =
            other.iter_mut().map(|a| a.make_report(now)).collect();
        let mut wire = BytesMut::new();
        rec.span("api", "codec::encode", |_| {
            for report in &reports {
                codec::encode(report, &mut wire).expect("reports encode");
            }
            ((), items)
        });
        main_bytes += wire.len() as u64;
        for report in &other_reports {
            other_bytes += codec::encode_to_vec(report).expect("reports encode").len() as u64;
        }
        let full_reports = if config.delta_reports {
            &other_reports
        } else {
            &reports
        };
        rec.span("telemetry", "DeltaEncoder::encode", |_| {
            for (encoder, message) in encoders.iter_mut().zip(full_reports) {
                if let AgentToManager::Report(report) = message {
                    std::hint::black_box(encoder.encode(report));
                }
            }
            ((), items)
        });
        let decoded: Vec<AgentToManager> = rec.span("api", "codec::decode", |_| {
            let mut decoded = Vec::with_capacity(stations);
            while let Some(message) = codec::decode(&mut wire).expect("frames decode") {
                decoded.push(message);
            }
            (decoded, items)
        });
        assert_eq!(decoded.len(), stations, "every report must cross the wire");
        rec.span("manager", "Manager::handle_agent_msg", |_| {
            for (station, message) in decoded.into_iter().enumerate() {
                manager.handle_agent_msg(StationId::new(station as u64), message, now);
            }
            ((), items)
        });
        let tick = Instant::now();
        rec.span("manager", "Manager::tick", |_| {
            std::hint::black_box(manager.tick(now));
            ((), 1)
        });
        ticks.record(tick.elapsed().as_secs_f64() * 1e6);
    }
    assert!(
        stats::highest_supported_percentile(intervals as usize) >= 90.0,
        "{intervals} ticks leave fewer than ten samples beyond p90"
    );
    let per_frame = |bytes: u64| bytes as f64 / (items * intervals) as f64;
    let (bytes_full, bytes_delta) = if config.delta_reports {
        (other_bytes, main_bytes)
    } else {
        (main_bytes, other_bytes)
    };
    ControlPlane {
        report_bytes_full: per_frame(bytes_full),
        report_bytes_delta: per_frame(bytes_delta),
        tick_p50_us: ticks.median(),
        tick_p90_us: ticks.quantile(0.9),
    }
}
