//! std-only pcap / pcapng trace I/O (Ethernet linktype).
//!
//! Real captures drive the emulator through [`TraceWorkload`] and synthetic
//! workloads can be captured to golden traces, so this module implements the
//! two on-disk formats the networking world actually exchanges:
//!
//! * **classic pcap** — the 24-byte global header plus 16-byte per-record
//!   headers. The reader accepts both byte orders and both the microsecond
//!   (`0xA1B2C3D4`) and nanosecond (`0xA1B23C4D`) magic; the writer always
//!   emits little-endian nanosecond pcap so that a given record stream has
//!   exactly one byte representation (trace determinism is property-tested).
//! * **pcapng** — Section Header, Interface Description and Enhanced Packet
//!   blocks, both byte orders, with `if_tsresol` honoured per interface
//!   (decimal and power-of-two resolutions). Unknown block types are skipped,
//!   Simple Packet blocks are accepted with a zero timestamp. The writer
//!   emits little-endian blocks with a nanosecond `if_tsresol`.
//!
//! Both readers are streaming, so multi-gigabyte traces replay in constant
//! memory, and a record costs one allocation — the copy the caller keeps:
//! record bodies are read into one buffer the reader reuses.
//!
//! [`TraceWorkload`]: crate::source::TraceWorkload

use bytes::Bytes;
use gnf_types::{GnfError, GnfResult, SimTime};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The pcap link-layer type for Ethernet frames — the only linktype the GNF
/// data plane speaks.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Maximum frame length accepted from a trace (also the written snaplen).
pub const TRACE_SNAPLEN: u32 = 65_535;

const PCAP_MAGIC_US: u32 = 0xA1B2_C3D4;
const PCAP_MAGIC_NS: u32 = 0xA1B2_3C4D;
const PCAPNG_BLOCK_SHB: u32 = 0x0A0D_0D0A;
const PCAPNG_BOM: u32 = 0x1A2B_3C4D;
const PCAPNG_BLOCK_IDB: u32 = 0x0000_0001;
const PCAPNG_BLOCK_SPB: u32 = 0x0000_0003;
const PCAPNG_BLOCK_EPB: u32 = 0x0000_0006;
const PCAPNG_OPT_END: u16 = 0;
const PCAPNG_OPT_IF_TSRESOL: u16 = 9;

/// One captured frame: the virtual time it was observed plus its raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// The raw Ethernet frame.
    pub frame: Vec<u8>,
}

/// Which container format a [`TraceWriter`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Classic pcap (little-endian, nanosecond timestamps).
    Pcap,
    /// pcapng (little-endian blocks, nanosecond `if_tsresol`).
    PcapNg,
}

fn pcap_error(reason: impl Into<String>) -> GnfError {
    GnfError::malformed_packet("pcap", reason)
}

// ---------------------------------------------------------------- writing

/// Streaming trace writer: pick a format, then append records in
/// non-decreasing time order (the order is not enforced — pcap tools accept
/// out-of-order records — but the replay source assumes it).
pub struct TraceWriter<W: Write> {
    sink: W,
    format: TraceFormat,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a classic pcap stream (writes the global header immediately).
    pub fn pcap(sink: W) -> io::Result<Self> {
        Self::new(sink, TraceFormat::Pcap)
    }

    /// Starts a pcapng stream (writes the SHB + IDB immediately).
    pub fn pcapng(sink: W) -> io::Result<Self> {
        Self::new(sink, TraceFormat::PcapNg)
    }

    /// Starts a stream in the given format.
    pub fn new(mut sink: W, format: TraceFormat) -> io::Result<Self> {
        match format {
            TraceFormat::Pcap => {
                sink.write_all(&PCAP_MAGIC_NS.to_le_bytes())?;
                sink.write_all(&2u16.to_le_bytes())?; // version major
                sink.write_all(&4u16.to_le_bytes())?; // version minor
                sink.write_all(&0i32.to_le_bytes())?; // thiszone
                sink.write_all(&0u32.to_le_bytes())?; // sigfigs
                sink.write_all(&TRACE_SNAPLEN.to_le_bytes())?;
                sink.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
            }
            TraceFormat::PcapNg => {
                // Section Header Block, no options.
                sink.write_all(&PCAPNG_BLOCK_SHB.to_le_bytes())?;
                sink.write_all(&28u32.to_le_bytes())?;
                sink.write_all(&PCAPNG_BOM.to_le_bytes())?;
                sink.write_all(&1u16.to_le_bytes())?; // version major
                sink.write_all(&0u16.to_le_bytes())?; // version minor
                sink.write_all(&u64::MAX.to_le_bytes())?; // section length: unknown
                sink.write_all(&28u32.to_le_bytes())?;
                // Interface Description Block with if_tsresol = 9 (nanoseconds).
                sink.write_all(&PCAPNG_BLOCK_IDB.to_le_bytes())?;
                sink.write_all(&32u32.to_le_bytes())?;
                sink.write_all(&(LINKTYPE_ETHERNET as u16).to_le_bytes())?;
                sink.write_all(&0u16.to_le_bytes())?; // reserved
                sink.write_all(&TRACE_SNAPLEN.to_le_bytes())?;
                sink.write_all(&PCAPNG_OPT_IF_TSRESOL.to_le_bytes())?;
                sink.write_all(&1u16.to_le_bytes())?;
                sink.write_all(&[9u8, 0, 0, 0])?; // value + padding
                sink.write_all(&PCAPNG_OPT_END.to_le_bytes())?;
                sink.write_all(&0u16.to_le_bytes())?;
                sink.write_all(&32u32.to_le_bytes())?;
            }
        }
        Ok(TraceWriter {
            sink,
            format,
            records: 0,
        })
    }

    /// Appends one frame observed at `at`.
    pub fn write_record(&mut self, at: SimTime, frame: &[u8]) -> io::Result<()> {
        let len = frame.len().min(TRACE_SNAPLEN as usize) as u32;
        let frame = &frame[..len as usize];
        let nanos = at.as_nanos();
        match self.format {
            TraceFormat::Pcap => {
                self.sink
                    .write_all(&((nanos / 1_000_000_000) as u32).to_le_bytes())?;
                self.sink
                    .write_all(&((nanos % 1_000_000_000) as u32).to_le_bytes())?;
                self.sink.write_all(&len.to_le_bytes())?;
                self.sink.write_all(&len.to_le_bytes())?;
                self.sink.write_all(frame)?;
            }
            TraceFormat::PcapNg => {
                let padded = (len as usize).div_ceil(4) * 4;
                let total = 32 + padded as u32;
                self.sink.write_all(&PCAPNG_BLOCK_EPB.to_le_bytes())?;
                self.sink.write_all(&total.to_le_bytes())?;
                self.sink.write_all(&0u32.to_le_bytes())?; // interface id
                self.sink.write_all(&((nanos >> 32) as u32).to_le_bytes())?;
                self.sink.write_all(&(nanos as u32).to_le_bytes())?;
                self.sink.write_all(&len.to_le_bytes())?; // captured
                self.sink.write_all(&len.to_le_bytes())?; // original
                self.sink.write_all(frame)?;
                self.sink.write_all(&[0u8; 4][..padded - len as usize])?;
                self.sink.write_all(&total.to_le_bytes())?;
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------- reading

/// Per-interface timestamp scaling for pcapng (`if_tsresol`).
#[derive(Debug, Clone, Copy)]
enum TsResol {
    /// Units of 10^-v seconds.
    Decimal(u32),
    /// Units of 2^-v seconds.
    Binary(u32),
}

impl TsResol {
    fn to_nanos(self, units: u64) -> u64 {
        match self {
            TsResol::Decimal(v) if v <= 9 => units.saturating_mul(10u64.pow(9 - v)),
            // 10^shift with shift > 38 overflows u128 — and any such
            // resolution is finer than a nanosecond by ≥ 10^39, so every
            // u64 unit count rounds to zero anyway.
            TsResol::Decimal(v) if v - 9 > 38 => 0,
            TsResol::Decimal(v) => (units as u128 / 10u128.pow(v - 9)) as u64,
            TsResol::Binary(v) => ((units as u128 * 1_000_000_000u128) >> v.min(127)) as u64,
        }
    }
}

enum ReaderKind {
    Pcap {
        big_endian: bool,
        nanos: bool,
    },
    PcapNg {
        big_endian: bool,
        tsresol: Vec<TsResol>,
    },
}

/// Streaming trace reader. The container format and byte order are detected
/// from the first bytes; records are then pulled one at a time.
pub struct TraceReader<R: Read> {
    source: R,
    kind: ReaderKind,
    records: u64,
    /// The last record's body (a classic record's frame, a pcapng block's
    /// whole body), reused from record to record.
    body: Vec<u8>,
}

fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> GnfResult<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(pcap_error("truncated record")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(pcap_error(format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

fn read_u32(big_endian: bool, b: [u8; 4]) -> u32 {
    if big_endian {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

fn read_u16(big_endian: bool, b: [u8; 2]) -> u16 {
    if big_endian {
        u16::from_be_bytes(b)
    } else {
        u16::from_le_bytes(b)
    }
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, detecting classic pcap vs pcapng and the byte order.
    pub fn new(mut source: R) -> GnfResult<Self> {
        let mut magic = [0u8; 4];
        if !read_exact_or_eof(&mut source, &mut magic)? {
            return Err(pcap_error("empty trace"));
        }
        let magic_le = u32::from_le_bytes(magic);
        let magic_be = u32::from_be_bytes(magic);
        let kind = if magic_le == PCAPNG_BLOCK_SHB {
            // pcapng: the SHB carries the byte-order magic.
            let mut rest = [[0u8; 4]; 2];
            if !read_exact_or_eof(&mut source, rest.as_flattened_mut())? {
                return Err(pcap_error("truncated section header"));
            }
            let bom = u32::from_le_bytes(rest[1]);
            let big_endian = match bom {
                PCAPNG_BOM => false,
                b if b.swap_bytes() == PCAPNG_BOM => true,
                other => {
                    return Err(pcap_error(format!(
                        "bad pcapng byte-order magic {other:#010x}"
                    )))
                }
            };
            // Skip the rest of the SHB (version + section length + options).
            let total = read_u32(big_endian, rest[0]) as usize;
            if !(12..=1 << 26).contains(&total) {
                return Err(pcap_error(format!("bad SHB length {total}")));
            }
            let mut remainder = vec![0u8; total - 12];
            if !read_exact_or_eof(&mut source, &mut remainder)? {
                return Err(pcap_error("truncated section header"));
            }
            ReaderKind::PcapNg {
                big_endian,
                tsresol: Vec::new(),
            }
        } else {
            let (big_endian, nanos) = match (magic_le, magic_be) {
                (PCAP_MAGIC_US, _) => (false, false),
                (PCAP_MAGIC_NS, _) => (false, true),
                (_, PCAP_MAGIC_US) => (true, false),
                (_, PCAP_MAGIC_NS) => (true, true),
                _ => {
                    return Err(pcap_error(format!(
                        "unrecognised capture magic {magic_le:#010x}"
                    )))
                }
            };
            let mut header = [[0u8; 4]; 5];
            if !read_exact_or_eof(&mut source, header.as_flattened_mut())? {
                return Err(pcap_error("truncated pcap header"));
            }
            let network = read_u32(big_endian, header[4]);
            if network != LINKTYPE_ETHERNET {
                return Err(pcap_error(format!(
                    "unsupported linktype {network} (only Ethernet is supported)"
                )));
            }
            ReaderKind::Pcap { big_endian, nanos }
        };
        Ok(TraceReader {
            source,
            kind,
            records: 0,
            body: Vec::new(),
        })
    }

    /// Number of records returned so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Reads the next frame, or `None` at a clean end of stream.
    pub fn next_record(&mut self) -> GnfResult<Option<TraceRecord>> {
        Ok(self.read_body()?.map(|(at, frame)| TraceRecord {
            at,
            frame: frame.to_vec(),
        }))
    }

    /// [`next_record`] for the replay path: the frame arrives as the
    /// [`Bytes`] a packet is parsed from, its one allocation.
    ///
    /// [`next_record`]: TraceReader::next_record
    pub fn next_frame(&mut self) -> GnfResult<Option<(SimTime, Bytes)>> {
        Ok(self
            .read_body()?
            .map(|(at, frame)| (at, Bytes::copy_from_slice(frame))))
    }

    /// Reads the next record into the reused body buffer: its timestamp and
    /// its frame, valid until the next read.
    fn read_body(&mut self) -> GnfResult<Option<(SimTime, &[u8])>> {
        let body = &mut self.body;
        let found = match &mut self.kind {
            ReaderKind::Pcap { big_endian, nanos } => {
                Self::next_pcap(&mut self.source, *big_endian, *nanos, body)?
            }
            ReaderKind::PcapNg {
                big_endian,
                tsresol,
            } => Self::next_pcapng(&mut self.source, big_endian, tsresol, body)?,
        };
        Ok(found.map(|(at, frame)| {
            self.records += 1;
            (at, &self.body[frame])
        }))
    }

    /// Reads every remaining record into a vector (tests and small traces;
    /// replay paths should stream via [`TraceReader::next_record`]).
    pub fn read_all(&mut self) -> GnfResult<Vec<TraceRecord>> {
        let mut out = Vec::new();
        while let Some(record) = self.next_record()? {
            out.push(record);
        }
        Ok(out)
    }

    fn next_pcap(
        source: &mut R,
        big_endian: bool,
        nanos: bool,
        frame: &mut Vec<u8>,
    ) -> GnfResult<Option<(SimTime, Range<usize>)>> {
        let mut header = [[0u8; 4]; 4];
        if !read_exact_or_eof(source, header.as_flattened_mut())? {
            return Ok(None);
        }
        let sec = u64::from(read_u32(big_endian, header[0]));
        let frac = u64::from(read_u32(big_endian, header[1]));
        let incl = read_u32(big_endian, header[2]);
        if incl > TRACE_SNAPLEN {
            return Err(pcap_error(format!("record length {incl} above snaplen")));
        }
        frame.resize(incl as usize, 0);
        if !read_exact_or_eof(source, frame)? && incl > 0 {
            return Err(pcap_error("truncated record body"));
        }
        let frac_nanos = if nanos { frac } else { frac * 1_000 };
        Ok(Some((
            SimTime::from_nanos(sec * 1_000_000_000 + frac_nanos),
            0..frame.len(),
        )))
    }

    fn next_pcapng(
        source: &mut R,
        big_endian: &mut bool,
        tsresol: &mut Vec<TsResol>,
        body: &mut Vec<u8>,
    ) -> GnfResult<Option<(SimTime, Range<usize>)>> {
        loop {
            let mut head = [[0u8; 4]; 2];
            if !read_exact_or_eof(source, head.as_flattened_mut())? {
                return Ok(None);
            }
            let block_type = read_u32(*big_endian, head[0]);
            // A new section may switch byte order: peek the BOM before
            // trusting the length field.
            if block_type == PCAPNG_BLOCK_SHB || block_type.swap_bytes() == PCAPNG_BLOCK_SHB {
                let mut bom = [0u8; 4];
                if !read_exact_or_eof(source, &mut bom)? {
                    return Err(pcap_error("truncated section header"));
                }
                *big_endian = match u32::from_le_bytes(bom) {
                    PCAPNG_BOM => false,
                    b if b.swap_bytes() == PCAPNG_BOM => true,
                    other => {
                        return Err(pcap_error(format!(
                            "bad pcapng byte-order magic {other:#010x}"
                        )))
                    }
                };
                tsresol.clear();
                let total = read_u32(*big_endian, head[1]) as usize;
                if !(16..=1 << 26).contains(&total) {
                    return Err(pcap_error(format!("bad SHB length {total}")));
                }
                let mut rest = vec![0u8; total - 12];
                if !read_exact_or_eof(source, &mut rest)? {
                    return Err(pcap_error("truncated section header"));
                }
                continue;
            }
            let total = read_u32(*big_endian, head[1]) as usize;
            if !(12..=1 << 26).contains(&total) || !total.is_multiple_of(4) {
                return Err(pcap_error(format!("bad block length {total}")));
            }
            body.resize(total - 12, 0);
            if !read_exact_or_eof(source, body)? && total > 12 {
                return Err(pcap_error("truncated block body"));
            }
            let mut trailer = [0u8; 4];
            if !read_exact_or_eof(source, &mut trailer)? {
                return Err(pcap_error("truncated block trailer"));
            }
            if read_u32(*big_endian, trailer) != total as u32 {
                return Err(pcap_error("block trailer length mismatch"));
            }
            match block_type {
                PCAPNG_BLOCK_IDB => {
                    if body.len() < 8 {
                        return Err(pcap_error("short interface description"));
                    }
                    let linktype = u32::from(read_u16(*big_endian, body.as_chunks().0[0]));
                    if linktype != LINKTYPE_ETHERNET {
                        return Err(pcap_error(format!(
                            "unsupported linktype {linktype} (only Ethernet is supported)"
                        )));
                    }
                    // Default microseconds unless an if_tsresol option says
                    // otherwise.
                    let mut resol = TsResol::Decimal(6);
                    let mut opts = &body[8..];
                    while let [code, len, ..] = *opts.as_chunks().0 {
                        let code = read_u16(*big_endian, code);
                        let len = read_u16(*big_endian, len) as usize;
                        let padded = len.div_ceil(4) * 4;
                        if code == PCAPNG_OPT_END {
                            break;
                        }
                        if opts.len() < 4 + len {
                            return Err(pcap_error("truncated interface option"));
                        }
                        if code == PCAPNG_OPT_IF_TSRESOL && len == 1 {
                            let raw = opts[4];
                            resol = if raw & 0x80 != 0 {
                                TsResol::Binary(u32::from(raw & 0x7f))
                            } else {
                                TsResol::Decimal(u32::from(raw))
                            };
                        }
                        if opts.len() < 4 + padded {
                            break;
                        }
                        opts = &opts[4 + padded..];
                    }
                    tsresol.push(resol);
                }
                PCAPNG_BLOCK_EPB => {
                    if body.len() < 20 {
                        return Err(pcap_error("short enhanced packet block"));
                    }
                    let words = body.as_chunks().0;
                    let interface = read_u32(*big_endian, words[0]) as usize;
                    let high = u64::from(read_u32(*big_endian, words[1]));
                    let low = u64::from(read_u32(*big_endian, words[2]));
                    let captured = read_u32(*big_endian, words[3]) as usize;
                    if captured > body.len() - 20 || captured > TRACE_SNAPLEN as usize {
                        return Err(pcap_error("enhanced packet length out of range"));
                    }
                    let resol = tsresol
                        .get(interface)
                        .copied()
                        .unwrap_or(TsResol::Decimal(6));
                    let nanos = resol.to_nanos((high << 32) | low);
                    return Ok(Some((SimTime::from_nanos(nanos), 20..20 + captured)));
                }
                PCAPNG_BLOCK_SPB => {
                    if body.len() < 4 {
                        return Err(pcap_error("short simple packet block"));
                    }
                    let original = read_u32(*big_endian, body.as_chunks().0[0]) as usize;
                    let captured = original.min(body.len() - 4);
                    return Ok(Some((SimTime::ZERO, 4..4 + captured)));
                }
                // Name resolution, statistics, custom blocks: skip.
                _ => continue,
            }
        }
    }
}

// ------------------------------------------------------------ shared sink

/// A cloneable in-memory byte sink for capturing traces whose writer is
/// consumed by the emulator (e.g. a [`CaptureWorkload`] boxed into a run):
/// keep one clone, hand the other to the writer, and [`take`] the bytes
/// after the run.
///
/// [`CaptureWorkload`]: crate::source::CaptureWorkload
/// [`take`]: SharedBuffer::take
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the bytes accumulated so far, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        // Poisoned only if a writer panicked mid-append; the bytes are then
        // unusable, and so is the capture.
        std::mem::take(&mut self.bytes.lock().expect("buffer lock poisoned"))
    }

    /// Number of bytes accumulated so far.
    pub fn len(&self) -> usize {
        // As in `take`: only a panicked writer poisons the lock.
        self.bytes.lock().expect("buffer lock poisoned").len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // As in `take`: only a panicked writer poisons the lock.
        self.bytes
            .lock()
            .expect("buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::builder;
    use gnf_types::MacAddr;
    use std::net::Ipv4Addr;

    fn sample_records() -> Vec<TraceRecord> {
        let mk = |port: u16, nanos: u64| TraceRecord {
            at: SimTime::from_nanos(nanos),
            frame: builder::udp_packet(
                MacAddr::derived(1, 1),
                MacAddr::derived(0xA0, 0),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 9),
                port,
                53,
                b"payload",
            )
            .bytes()
            .to_vec(),
        };
        vec![
            mk(40_000, 0),
            mk(40_001, 1_500),
            mk(40_002, 2_000_000_123),
            mk(40_003, 7_000_000_000),
        ]
    }

    fn roundtrip(format: TraceFormat) {
        let records = sample_records();
        let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
        for r in &records {
            writer.write_record(r.at, &r.frame).unwrap();
        }
        assert_eq!(writer.records_written(), records.len() as u64);
        let bytes = writer.into_inner().unwrap();

        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back, records, "write -> read must be exact");
        assert_eq!(reader.records_read(), records.len() as u64);

        // Writing the read-back records again reproduces the same bytes.
        let mut again = TraceWriter::new(Vec::new(), format).unwrap();
        for r in &back {
            again.write_record(r.at, &r.frame).unwrap();
        }
        assert_eq!(again.into_inner().unwrap(), bytes);
    }

    #[test]
    fn classic_pcap_roundtrip_is_exact() {
        roundtrip(TraceFormat::Pcap);
    }

    #[test]
    fn pcapng_roundtrip_is_exact() {
        roundtrip(TraceFormat::PcapNg);
    }

    #[test]
    fn reader_accepts_big_endian_and_microsecond_pcap() {
        // Hand-build a big-endian microsecond pcap with one 60-byte frame.
        let frame = sample_records()[0].frame.clone();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PCAP_MAGIC_US.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&TRACE_SNAPLEN.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes()); // 3 s
        bytes.extend_from_slice(&250u32.to_be_bytes()); // 250 us
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&frame);

        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let record = reader.next_record().unwrap().unwrap();
        assert_eq!(record.at, SimTime::from_nanos(3_000_250_000));
        assert_eq!(record.frame, frame);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn read_frames_reparse_as_packets() {
        let records = sample_records();
        let mut writer = TraceWriter::pcap(Vec::new()).unwrap();
        for r in &records {
            writer.write_record(r.at, &r.frame).unwrap();
        }
        let bytes = writer.into_inner().unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        while let Some(record) = reader.next_record().unwrap() {
            let packet =
                gnf_packet::Packet::parse(bytes::Bytes::copy_from_slice(&record.frame)).unwrap();
            assert_eq!(packet.len(), record.frame.len());
        }
    }

    #[test]
    fn garbage_and_unsupported_inputs_are_rejected() {
        assert!(TraceReader::new(&[][..]).is_err());
        assert!(TraceReader::new(&[1u8, 2, 3, 4, 5, 6][..]).is_err());
        // Valid magic but a non-Ethernet linktype.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PCAP_MAGIC_NS.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&TRACE_SNAPLEN.to_le_bytes());
        bytes.extend_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        assert!(TraceReader::new(&bytes[..]).is_err());
    }

    #[test]
    fn hostile_if_tsresol_does_not_panic() {
        // A pcapng whose IDB claims a 10^-60 timestamp resolution (one
        // corrupt byte): the reader must not overflow — every u64 unit
        // count at that resolution rounds to zero nanoseconds.
        let record = &sample_records()[2];
        let mut writer = TraceWriter::pcapng(Vec::new()).unwrap();
        writer.write_record(record.at, &record.frame).unwrap();
        let mut bytes = writer.into_inner().unwrap();
        // SHB is 28 bytes; the if_tsresol option value sits 20 bytes into
        // the IDB (type+len+linktype+reserved+snaplen+option header).
        assert_eq!(bytes[48], 9, "patching the tsresol value byte");
        bytes[48] = 60;
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.next_record().unwrap().unwrap();
        assert_eq!(back.at, SimTime::ZERO);
        assert_eq!(back.frame, record.frame);
    }

    #[test]
    fn truncated_record_is_an_error_not_a_hang() {
        let records = sample_records();
        let mut writer = TraceWriter::pcap(Vec::new()).unwrap();
        writer
            .write_record(records[0].at, &records[0].frame)
            .unwrap();
        let mut bytes = writer.into_inner().unwrap();
        bytes.truncate(bytes.len() - 5);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(reader.next_record().is_err());
    }

    #[test]
    fn shared_buffer_accumulates_and_takes() {
        let shared = SharedBuffer::new();
        let mut clone = shared.clone();
        assert!(shared.is_empty());
        clone.write_all(b"abc").unwrap();
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.take(), b"abc".to_vec());
        assert!(shared.is_empty());
    }
}
