//! The streaming workload source abstraction.
//!
//! A [`Workload`] hands the emulator one [`TimedBatch`] at a time, in
//! non-decreasing time order. The emulator pulls the next batch only after
//! delivering the previous one, so a source never needs to materialize a
//! whole trace: synthetic generators keep one pending packet per active flow,
//! trace replays keep one read block of read-ahead (plus the blocks live
//! packets still pin), and million-flow runs stay flat in RSS.

use crate::pcap::{TraceReader, TraceWriter};
use gnf_packet::Packet;
use gnf_types::{ClientId, MacAddr, PathMap, SimTime, StationId};
use std::collections::HashMap;
use std::io::{Read, Write};

/// A batch of same-time packets bound for one station.
#[derive(Debug, Clone)]
pub struct TimedBatch {
    /// Virtual arrival time of every packet in the batch.
    pub at: SimTime,
    /// The station the packets arrive at.
    pub station: StationId,
    /// The packets with their originating clients, in generation order.
    pub packets: Vec<(ClientId, Packet)>,
}

impl TimedBatch {
    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the batch carries no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// A streaming source of client traffic for the emulator.
///
/// Contract: batches come in non-decreasing `at` order, every batch is
/// non-empty, and the source owns all state it needs — the emulator only
/// ever calls [`next_batch`] and never retains more than one outstanding
/// batch per source.
///
/// [`next_batch`]: Workload::next_batch
pub trait Workload {
    /// A short human-readable name for reports.
    fn label(&self) -> &str;

    /// The next batch, or `None` when the workload is exhausted.
    fn next_batch(&mut self) -> Option<TimedBatch>;
}

/// The client id attributed to replayed frames whose source MAC is not in
/// the population map (they still flow through the data plane; the emulator
/// treats unknown clients as policy-free).
pub const UNKNOWN_CLIENT: ClientId = ClientId::new(u64::MAX);

/// Replays a pcap/pcapng trace as a streaming workload.
///
/// Frames are routed to stations by destination MAC (upstream frames are
/// addressed to their serving station's gateway — the same invariant the
/// synthetic generators and the built-in traffic model maintain) and
/// attributed to clients by source MAC. Consecutive same-time same-station
/// frames form one batch, mirroring the emulator's own coalescing rule, so a
/// captured trace replays into the exact batches that produced it.
pub struct TraceWorkload<R: Read> {
    label: String,
    reader: TraceReader<R>,
    stations: PathMap<MacAddr, StationId>,
    clients: PathMap<MacAddr, ClientId>,
    default_station: StationId,
    /// One record of read-ahead (the batch-boundary probe).
    lookahead: Option<(SimTime, StationId, ClientId, Packet)>,
    /// Length of the previous batch: the next one's starting capacity.
    last_batch_len: usize,
    started: bool,
    malformed: u64,
    read_error: Option<gnf_types::GnfError>,
}

impl<R: Read> TraceWorkload<R> {
    /// Opens a trace for replay. `stations` maps gateway MACs to stations
    /// (frames with an unmapped destination go to `default_station`);
    /// `clients` maps client MACs to client ids (unmapped sources become
    /// [`UNKNOWN_CLIENT`]).
    pub fn new(
        label: impl Into<String>,
        source: R,
        default_station: StationId,
        stations: HashMap<MacAddr, StationId>,
        clients: HashMap<MacAddr, ClientId>,
    ) -> gnf_types::GnfResult<Self> {
        Ok(TraceWorkload {
            label: label.into(),
            reader: TraceReader::new(source)?,
            stations: stations.into_iter().collect(),
            clients: clients.into_iter().collect(),
            default_station,
            lookahead: None,
            last_batch_len: 0,
            started: false,
            malformed: 0,
            read_error: None,
        })
    }

    /// Frames skipped because they failed packet validation.
    pub fn malformed_frames(&self) -> u64 {
        self.malformed
    }

    /// The reader error that ended the replay early, if any: `Some` means
    /// the trace was truncated or corrupt past the last delivered batch and
    /// the replay is **incomplete** — distinguishable from a clean EOF.
    pub fn read_error(&self) -> Option<&gnf_types::GnfError> {
        self.read_error.as_ref()
    }

    /// Pulls the next parseable record, skipping malformed frames.
    fn next_entry(&mut self) -> Option<(SimTime, StationId, ClientId, Packet)> {
        loop {
            let (at, frame) = match self.reader.next_frame() {
                Ok(Some(frame)) => frame,
                // Clean end of stream.
                Ok(None) => return None,
                // A read/parse error past which we cannot safely
                // resynchronise: stop the replay, but remember why so the
                // caller can tell a truncated trace from a complete one.
                Err(error) => {
                    self.read_error = Some(error);
                    return None;
                }
            };
            match Packet::parse(frame) {
                Ok(packet) => {
                    let station = self
                        .stations
                        .get(&packet.dst_mac())
                        .copied()
                        .unwrap_or(self.default_station);
                    let client = self
                        .clients
                        .get(&packet.src_mac())
                        .copied()
                        .unwrap_or(UNKNOWN_CLIENT);
                    return Some((at, station, client, packet));
                }
                Err(_) => {
                    self.malformed += 1;
                    continue;
                }
            }
        }
    }
}

impl<R: Read> Workload for TraceWorkload<R> {
    fn label(&self) -> &str {
        &self.label
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        if !self.started {
            self.started = true;
            self.lookahead = self.next_entry();
        }
        let (at, station, client, packet) = self.lookahead.take()?;
        // Batch lengths repeat; 4 is `Vec`'s own first growth step.
        let mut packets = Vec::with_capacity(self.last_batch_len.max(4));
        packets.push((client, packet));
        loop {
            match self.next_entry() {
                Some((next_at, next_station, next_client, next_packet))
                    if next_at == at && next_station == station =>
                {
                    packets.push((next_client, next_packet));
                }
                other => {
                    self.lookahead = other;
                    break;
                }
            }
        }
        self.last_batch_len = packets.len();
        Some(TimedBatch {
            at,
            station,
            packets,
        })
    }
}

/// Tees a workload's frames into a trace writer as they are pulled, so any
/// run — synthetic or replayed — can be captured to a golden trace.
pub struct CaptureWorkload<W: Workload, S: Write> {
    inner: W,
    writer: TraceWriter<S>,
}

impl<W: Workload, S: Write> CaptureWorkload<W, S> {
    /// Wraps `inner`, writing every pulled frame to `writer`.
    pub fn new(inner: W, writer: TraceWriter<S>) -> Self {
        CaptureWorkload { inner, writer }
    }

    /// The wrapped workload and writer.
    pub fn into_parts(self) -> (W, TraceWriter<S>) {
        (self.inner, self.writer)
    }
}

impl<W: Workload, S: Write> Workload for CaptureWorkload<W, S> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        let batch = self.inner.next_batch()?;
        for (_, packet) in &batch.packets {
            self.writer
                .write_record(batch.at, packet.bytes().as_ref())
                .expect("trace capture sink failed");
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::TraceFormat;
    use gnf_packet::builder;
    use std::net::Ipv4Addr;

    fn frame(src: MacAddr, dst: MacAddr, port: u16) -> Packet {
        builder::udp_packet(
            src,
            dst,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            port,
            53,
            b"q",
        )
    }

    #[test]
    fn trace_replay_batches_same_time_same_station_frames() {
        let client = MacAddr::derived(1, 1);
        let gw0 = MacAddr::derived(0xA0, 0);
        let gw1 = MacAddr::derived(0xA0, 1);
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Pcap).unwrap();
        let t0 = SimTime::from_millis(5);
        let t1 = SimTime::from_millis(9);
        writer
            .write_record(t0, frame(client, gw0, 1000).bytes().as_ref())
            .unwrap();
        writer
            .write_record(t0, frame(client, gw0, 1001).bytes().as_ref())
            .unwrap();
        writer
            .write_record(t0, frame(client, gw1, 1002).bytes().as_ref())
            .unwrap();
        writer
            .write_record(t1, frame(client, gw0, 1003).bytes().as_ref())
            .unwrap();
        let bytes = writer.into_inner().unwrap();

        let stations: HashMap<MacAddr, StationId> =
            [(gw0, StationId::new(0)), (gw1, StationId::new(1))].into();
        let clients: HashMap<MacAddr, ClientId> = [(client, ClientId::new(7))].into();
        let mut replay =
            TraceWorkload::new("replay", &bytes[..], StationId::new(0), stations, clients).unwrap();
        assert_eq!(replay.label(), "replay");

        let b1 = replay.next_batch().unwrap();
        assert_eq!((b1.at, b1.station, b1.len()), (t0, StationId::new(0), 2));
        assert!(b1.packets.iter().all(|(c, _)| *c == ClientId::new(7)));
        let b2 = replay.next_batch().unwrap();
        assert_eq!((b2.at, b2.station, b2.len()), (t0, StationId::new(1), 1));
        let b3 = replay.next_batch().unwrap();
        assert_eq!((b3.at, b3.station, b3.len()), (t1, StationId::new(0), 1));
        assert!(!b3.is_empty());
        assert!(replay.next_batch().is_none());
        assert_eq!(replay.malformed_frames(), 0);
    }

    #[test]
    fn unknown_macs_fall_back_to_defaults() {
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Pcap).unwrap();
        writer
            .write_record(
                SimTime::from_millis(1),
                frame(MacAddr::derived(9, 9), MacAddr::derived(9, 8), 2000)
                    .bytes()
                    .as_ref(),
            )
            .unwrap();
        let bytes = writer.into_inner().unwrap();
        let mut replay = TraceWorkload::new(
            "replay",
            &bytes[..],
            StationId::new(3),
            HashMap::new(),
            HashMap::new(),
        )
        .unwrap();
        let batch = replay.next_batch().unwrap();
        assert_eq!(batch.station, StationId::new(3));
        assert_eq!(batch.packets[0].0, UNKNOWN_CLIENT);
    }

    #[test]
    fn a_truncated_trace_ends_replay_with_a_visible_error() {
        let client = MacAddr::derived(1, 1);
        let gw = MacAddr::derived(0xA0, 0);
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Pcap).unwrap();
        for port in [1000u16, 1001] {
            writer
                .write_record(
                    SimTime::from_millis(u64::from(port)),
                    frame(client, gw, port).bytes().as_ref(),
                )
                .unwrap();
        }
        let mut bytes = writer.into_inner().unwrap();
        bytes.truncate(bytes.len() - 7); // cut into the second record
        let mut replay = TraceWorkload::new(
            "truncated",
            &bytes[..],
            StationId::new(0),
            HashMap::new(),
            HashMap::new(),
        )
        .unwrap();
        // The intact record still replays (the cut is discovered by the
        // batch-boundary lookahead, which records it).
        assert!(replay.next_batch().is_some(), "the intact record replays");
        assert!(replay.next_batch().is_none(), "replay stops at the cut");
        assert!(
            replay.read_error().is_some(),
            "a truncated trace is distinguishable from a clean EOF"
        );
    }

    #[test]
    fn capture_tees_every_frame_and_replays_identically() {
        let client = MacAddr::derived(1, 1);
        let gw = MacAddr::derived(0xA0, 0);
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Pcap).unwrap();
        for (i, t) in [2u64, 2, 5].iter().enumerate() {
            writer
                .write_record(
                    SimTime::from_millis(*t),
                    frame(client, gw, 3000 + i as u16).bytes().as_ref(),
                )
                .unwrap();
        }
        let original = writer.into_inner().unwrap();

        let replay = TraceWorkload::new(
            "inner",
            &original[..],
            StationId::new(0),
            HashMap::new(),
            HashMap::new(),
        )
        .unwrap();
        let mut capture = CaptureWorkload::new(
            replay,
            TraceWriter::new(Vec::new(), TraceFormat::Pcap).unwrap(),
        );
        assert_eq!(capture.label(), "inner");
        while capture.next_batch().is_some() {}
        let (_, writer) = capture.into_parts();
        assert_eq!(writer.records_written(), 3);
        let captured = writer.into_inner().unwrap();
        assert_eq!(captured, original, "capture of a replay is byte-identical");
    }
}
