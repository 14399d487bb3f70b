//! Hostile trace input, checked differentially: the block reader against
//! the record-at-a-time reader it replaced, kept here as the oracle.
//!
//! Traces in both formats are cut at every offset and have their length
//! fields (record and block lengths, their trailers, captured lengths,
//! option lengths) and random bytes corrupted. On each, `TraceReader::new`
//! fails with the oracle's error or `next_record` and `next_frame` return
//! the oracle's records followed by its typed error — whether the source
//! hands out everything at once, a few bytes per read, or fails partway —
//! and nothing panics. A clean trace spanning several read blocks reads
//! back whole through every source.

use gnf_sim::Rng;
use gnf_types::{GnfError, SimTime};
use gnf_workload::{TraceFormat, TraceReader, TraceWriter, TRACE_BLOCK_BYTES};
use std::collections::BTreeSet;
use std::io::{self, Read};

/// The record-at-a-time reader: every header and body read straight from
/// the source into a buffer of its exact length.
mod oracle {
    use gnf_types::{GnfError, GnfResult, SimTime};
    use std::io::{self, Read};

    const PCAP_MAGIC_US: u32 = 0xA1B2_C3D4;
    const PCAP_MAGIC_NS: u32 = 0xA1B2_3C4D;
    const PCAPNG_BLOCK_SHB: u32 = 0x0A0D_0D0A;
    const PCAPNG_BOM: u32 = 0x1A2B_3C4D;
    const PCAPNG_BLOCK_IDB: u32 = 0x0000_0001;
    const PCAPNG_BLOCK_SPB: u32 = 0x0000_0003;
    const PCAPNG_BLOCK_EPB: u32 = 0x0000_0006;
    const SNAPLEN: usize = 65_535;

    fn error(reason: impl Into<String>) -> GnfError {
        GnfError::malformed_packet("pcap", reason)
    }

    fn read_exact_or_eof(source: &mut impl Read, buf: &mut [u8]) -> GnfResult<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match source.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(false),
                Ok(0) => return Err(error("truncated record")),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(error(format!("read failed: {e}"))),
            }
        }
        Ok(true)
    }

    fn u32_of(big_endian: bool, b: &[u8]) -> u32 {
        let b = [b[0], b[1], b[2], b[3]];
        if big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    fn u16_of(big_endian: bool, b: &[u8]) -> u16 {
        if big_endian {
            u16::from_be_bytes([b[0], b[1]])
        } else {
            u16::from_le_bytes([b[0], b[1]])
        }
    }

    fn byte_order(bom: &[u8]) -> GnfResult<bool> {
        match u32_of(false, bom) {
            PCAPNG_BOM => Ok(false),
            b if b.swap_bytes() == PCAPNG_BOM => Ok(true),
            other => Err(error(format!("bad pcapng byte-order magic {other:#010x}"))),
        }
    }

    fn nanos(units: u64, resol: (bool, u32)) -> u64 {
        match resol {
            (false, v) if v <= 9 => units.saturating_mul(10u64.pow(9 - v)),
            (false, v) if v - 9 > 38 => 0,
            (false, v) => (units as u128 / 10u128.pow(v - 9)) as u64,
            (true, v) => ((units as u128 * 1_000_000_000u128) >> v.min(127)) as u64,
        }
    }

    /// A trace read whole: `Err` when it cannot be opened, else the records
    /// read and the error that ended it, if any.
    pub type Outcome = Result<(Vec<(SimTime, Vec<u8>)>, Option<GnfError>), GnfError>;

    pub fn read(mut source: impl Read) -> Outcome {
        let mut magic = [0u8; 4];
        if !read_exact_or_eof(&mut source, &mut magic)? {
            return Err(error("empty trace"));
        }
        let (magic_le, magic_be) = (u32::from_le_bytes(magic), u32::from_be_bytes(magic));
        let mut records = Vec::new();
        if magic_le == PCAPNG_BLOCK_SHB {
            let mut rest = [0u8; 8];
            if !read_exact_or_eof(&mut source, &mut rest)? {
                return Err(error("truncated section header"));
            }
            let big_endian = byte_order(&rest[4..])?;
            let total = u32_of(big_endian, &rest) as usize;
            if !(12..=1 << 26).contains(&total) {
                return Err(error(format!("bad SHB length {total}")));
            }
            if !read_exact_or_eof(&mut source, &mut vec![0u8; total - 12])? {
                return Err(error("truncated section header"));
            }
            let error = pcapng(&mut source, big_endian, &mut records).err();
            return Ok((records, error));
        }
        let (big_endian, ns) = match (magic_le, magic_be) {
            (PCAP_MAGIC_US, _) => (false, false),
            (PCAP_MAGIC_NS, _) => (false, true),
            (_, PCAP_MAGIC_US) => (true, false),
            (_, PCAP_MAGIC_NS) => (true, true),
            _ => {
                return Err(error(format!(
                    "unrecognised capture magic {magic_le:#010x}"
                )))
            }
        };
        let mut header = [0u8; 20];
        if !read_exact_or_eof(&mut source, &mut header)? {
            return Err(error("truncated pcap header"));
        }
        let network = u32_of(big_endian, &header[16..]);
        if network != 1 {
            return Err(error(format!(
                "unsupported linktype {network} (only Ethernet is supported)"
            )));
        }
        let error = pcap(&mut source, big_endian, ns, &mut records).err();
        Ok((records, error))
    }

    fn pcap(
        source: &mut impl Read,
        big_endian: bool,
        ns: bool,
        records: &mut Vec<(SimTime, Vec<u8>)>,
    ) -> GnfResult<()> {
        loop {
            let mut header = [0u8; 16];
            if !read_exact_or_eof(source, &mut header)? {
                return Ok(());
            }
            let sec = u64::from(u32_of(big_endian, &header));
            let frac = u64::from(u32_of(big_endian, &header[4..]));
            let incl = u32_of(big_endian, &header[8..]);
            if incl as usize > SNAPLEN {
                return Err(error(format!("record length {incl} above snaplen")));
            }
            let mut frame = vec![0u8; incl as usize];
            if !read_exact_or_eof(source, &mut frame)? && incl > 0 {
                return Err(error("truncated record body"));
            }
            let frac = if ns { frac } else { frac * 1_000 };
            records.push((SimTime::from_nanos(sec * 1_000_000_000 + frac), frame));
        }
    }

    fn pcapng(
        source: &mut impl Read,
        mut big_endian: bool,
        records: &mut Vec<(SimTime, Vec<u8>)>,
    ) -> GnfResult<()> {
        let mut tsresol: Vec<(bool, u32)> = Vec::new();
        loop {
            let mut head = [0u8; 8];
            if !read_exact_or_eof(source, &mut head)? {
                return Ok(());
            }
            let block_type = u32_of(big_endian, &head);
            if block_type == PCAPNG_BLOCK_SHB || block_type.swap_bytes() == PCAPNG_BLOCK_SHB {
                let mut bom = [0u8; 4];
                if !read_exact_or_eof(source, &mut bom)? {
                    return Err(error("truncated section header"));
                }
                big_endian = byte_order(&bom)?;
                tsresol.clear();
                let total = u32_of(big_endian, &head[4..]) as usize;
                if !(16..=1 << 26).contains(&total) {
                    return Err(error(format!("bad SHB length {total}")));
                }
                if !read_exact_or_eof(source, &mut vec![0u8; total - 12])? {
                    return Err(error("truncated section header"));
                }
                continue;
            }
            let total = u32_of(big_endian, &head[4..]) as usize;
            if !(12..=1 << 26).contains(&total) || !total.is_multiple_of(4) {
                return Err(error(format!("bad block length {total}")));
            }
            let mut body = vec![0u8; total - 12];
            if !read_exact_or_eof(source, &mut body)? && total > 12 {
                return Err(error("truncated block body"));
            }
            let mut trailer = [0u8; 4];
            if !read_exact_or_eof(source, &mut trailer)? {
                return Err(error("truncated block trailer"));
            }
            if u32_of(big_endian, &trailer) != total as u32 {
                return Err(error("block trailer length mismatch"));
            }
            match block_type {
                PCAPNG_BLOCK_IDB => {
                    if body.len() < 8 {
                        return Err(error("short interface description"));
                    }
                    let linktype = u32::from(u16_of(big_endian, &body));
                    if linktype != 1 {
                        return Err(error(format!(
                            "unsupported linktype {linktype} (only Ethernet is supported)"
                        )));
                    }
                    let mut resol = (false, 6);
                    let mut opts = &body[8..];
                    while opts.len() >= 4 {
                        let code = u16_of(big_endian, opts);
                        let len = u16_of(big_endian, &opts[2..]) as usize;
                        let padded = len.div_ceil(4) * 4;
                        if code == 0 {
                            break;
                        }
                        if opts.len() < 4 + len {
                            return Err(error("truncated interface option"));
                        }
                        if code == 9 && len == 1 {
                            resol = (opts[4] & 0x80 != 0, u32::from(opts[4] & 0x7f));
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
                        return Err(error("short enhanced packet block"));
                    }
                    let interface = u32_of(big_endian, &body) as usize;
                    let high = u64::from(u32_of(big_endian, &body[4..]));
                    let low = u64::from(u32_of(big_endian, &body[8..]));
                    let captured = u32_of(big_endian, &body[12..]) as usize;
                    if captured > body.len() - 20 || captured > SNAPLEN {
                        return Err(error("enhanced packet length out of range"));
                    }
                    let resol = tsresol.get(interface).copied().unwrap_or((false, 6));
                    let at = SimTime::from_nanos(nanos((high << 32) | low, resol));
                    records.push((at, body[20..20 + captured].to_vec()));
                }
                PCAPNG_BLOCK_SPB => {
                    if body.len() < 4 {
                        return Err(error("short simple packet block"));
                    }
                    let original = u32_of(big_endian, &body) as usize;
                    let captured = original.min(body.len() - 4);
                    records.push((SimTime::ZERO, body[4..4 + captured].to_vec()));
                }
                _ => continue,
            }
        }
    }
}

/// A source that hands out at most a few bytes per read, by a fixed cycle.
struct ShortReads<'a>(&'a [u8], usize);

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.1 += 1;
        let len = buf.len().min(1 + self.1 % 7);
        self.0.read(&mut buf[..len])
    }
}

/// A source that fails once `left` bytes are gone.
struct Unplugged<'a> {
    trace: &'a [u8],
    left: usize,
}

impl Read for Unplugged<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("unplugged"));
        }
        let len = buf.len().min(self.left);
        let read = self.trace.read(&mut buf[..len])?;
        self.left -= read;
        Ok(read)
    }
}

/// Drains `next`: the records read and the error that ended them, if any.
fn drain<T>(mut next: impl FnMut() -> Result<Option<T>, GnfError>) -> (Vec<T>, Option<GnfError>) {
    let mut records = Vec::new();
    loop {
        match next() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => return (records, None),
            Err(error) => return (records, Some(error)),
        }
    }
}

/// What the block reader reads from a source `open` makes, through
/// `next_record` and through `next_frame`; both must equal the oracle's,
/// which is returned.
fn assert_reads_as_oracle<S: Read>(open: impl Fn() -> S, name: &str) -> oracle::Outcome {
    let expected = oracle::read(open());
    let by_record = TraceReader::new(open()).map(|mut reader| {
        let (records, error) = drain(|| reader.next_record());
        assert_eq!(reader.records_read(), records.len() as u64, "{name}");
        let records = records.into_iter().map(|r| (r.at, r.frame)).collect();
        (records, error)
    });
    assert_eq!(by_record, expected, "{name}: next_record");
    let by_frame = TraceReader::new(open()).map(|mut reader| {
        let (frames, error) = drain(|| reader.next_frame());
        let frames = frames.into_iter().map(|(at, f)| (at, f.to_vec())).collect();
        (frames, error)
    });
    assert_eq!(by_frame, expected, "{name}: next_frame");
    expected
}

/// Both kinds of source over `trace`, and a source that fails partway.
/// Returns the error that opening or reading `trace` ends in, if any.
fn assert_all_sources_read_as_oracle(trace: &[u8], name: &str) -> Option<GnfError> {
    let outcome = assert_reads_as_oracle(|| trace, name);
    let short = assert_reads_as_oracle(|| ShortReads(trace, 0), &format!("{name}, short reads"));
    assert_eq!(short, outcome, "{name}: short reads read the same");
    let left = trace.len() * 2 / 3;
    let _ = assert_reads_as_oracle(
        || Unplugged { trace, left },
        &format!("{name}, failing after {left} bytes"),
    );
    outcome.map_or_else(Some, |(_, error)| error)
}

/// A trace of `frames` random frames (some empty, some odd-sized) with the
/// offsets of its length fields.
fn trace(format: TraceFormat, frames: usize, rng: &mut Rng) -> (Vec<u8>, Vec<usize>) {
    let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
    let mut lengths = Vec::new();
    let mut at = match format {
        TraceFormat::Pcap => 24,
        // SHB (its length and trailer) and the IDB (its length, option
        // length and trailer).
        TraceFormat::PcapNg => {
            lengths.extend([4, 24, 28 + 4, 28 + 18, 28 + 28]);
            60
        }
    };
    for i in 0..frames {
        let len = rng.next_below(200) as usize;
        let frame: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        writer
            .write_record(SimTime::from_nanos(i as u64 * 1_700_000), &frame)
            .unwrap();
        match format {
            TraceFormat::Pcap => {
                lengths.extend([at + 8, at + 12]);
                at += 16 + len;
            }
            TraceFormat::PcapNg => {
                let total = 32 + len.div_ceil(4) * 4;
                lengths.extend([at + 4, at + 20, at + 24, at + total - 4]);
                at += total;
            }
        }
    }
    let trace = writer.into_inner().unwrap();
    assert_eq!(trace.len(), at);
    (trace, lengths)
}

/// A hostile value for a length field that held `was`.
fn hostile_length(was: u32, rng: &mut Rng) -> u32 {
    match rng.next_below(6) {
        0 => rng.next_u32(),
        1 => was.wrapping_add(1 + rng.next_below(8) as u32),
        2 => was.wrapping_sub(1 + rng.next_below(8) as u32),
        3 => [0, 4, 8, 12, 16, 20, u32::MAX][rng.next_below(7) as usize],
        4 => 65_535 + rng.next_below(3) as u32,
        _ => was.swap_bytes(),
    }
}

/// The distinct kinds of error `errors` holds: their messages up to the
/// first number.
fn distinct(errors: impl IntoIterator<Item = Option<GnfError>>) -> BTreeSet<String> {
    let kind = |e: GnfError| {
        let message = e.to_string();
        message
            .split(|c: char| c.is_ascii_digit())
            .next()
            .map(str::to_owned)
    };
    errors.into_iter().flatten().filter_map(kind).collect()
}

#[test]
fn a_trace_cut_at_every_offset_reads_as_the_oracle() {
    let mut rng = Rng::new(7);
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let (trace, _) = trace(format, 6, &mut rng);
        let errors = distinct((0..=trace.len()).map(|cut| {
            assert_all_sources_read_as_oracle(&trace[..cut], &format!("{format:?} cut at {cut}"))
        }));
        // Every way a cut can end a stream of that format.
        let expected = match format {
            TraceFormat::Pcap => 4,
            TraceFormat::PcapNg => 5,
        };
        assert_eq!(errors.len(), expected, "{format:?}: {errors:?}");
    }
}

#[test]
fn corrupt_length_fields_and_bytes_read_as_the_oracle() {
    let mut rng = Rng::new(1016);
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let mut errors = Vec::new();
        for case in 0..300 {
            let (mut trace, lengths) = trace(format, 5, &mut rng);
            for _ in 0..1 + rng.next_below(2) {
                let at = lengths[rng.next_below(lengths.len() as u64) as usize];
                let was = u32::from_le_bytes(trace[at..at + 4].try_into().unwrap());
                let value = hostile_length(was, &mut rng);
                trace[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            if rng.chance(0.3) {
                let at = rng.next_below(trace.len() as u64) as usize;
                trace[at] = rng.next_u32() as u8;
            }
            let cut = trace.len() - rng.next_below(trace.len() as u64 / 4) as usize;
            let name = format!("{format:?} case {case}");
            errors.push(assert_all_sources_read_as_oracle(&trace[..cut], &name));
        }
        // Beyond the cuts' kinds: lengths out of range, mismatched
        // trailers, frames past their block, a corrupt magic.
        let errors = distinct(errors);
        let least = match format {
            TraceFormat::Pcap => 4,
            TraceFormat::PcapNg => 8,
        };
        assert!(errors.len() >= least, "{format:?}: {errors:?}");
    }
}

#[test]
fn a_trace_of_several_blocks_reads_whole_through_every_source() {
    let mut rng = Rng::new(42);
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let (trace, _) = trace(format, 8_000, &mut rng);
        assert!(trace.len() > 2 * TRACE_BLOCK_BYTES, "{}", trace.len());
        let (records, error) = oracle::read(&trace[..]).unwrap();
        assert_eq!((records.len(), error), (8_000, None));
        assert_all_sources_read_as_oracle(&trace, &format!("{format:?}"));
    }
}
