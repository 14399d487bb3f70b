//! The checked-in pcap fixture: a small heavy-tail web-mix capture, the
//! `heavy-tail-zipf.pcap` that `cargo run --release -p gnf-bench --bin
//! exp_e8_workloads -- --seed 7 --packets 256 --capture DIR` writes. Guards
//! the on-disk format — a reader or writer regression shows up as a diff
//! against real bytes that exist independently of both. CI runs that
//! command and compares its capture with the fixture, which ties the
//! fixture to the generator and the frame builders as well.

use gnf_workload::{TraceReader, TraceWriter};

const FIXTURE: &[u8] = include_bytes!("../testdata/web_mix.pcap");

#[test]
fn fixture_parses_and_roundtrips_byte_identically() {
    let mut reader = TraceReader::new(FIXTURE).expect("fixture has a valid pcap header");
    let records = reader.read_all().expect("fixture records are well-formed");
    assert_eq!(records.len(), 256, "the fixture holds the captured budget");

    // Timestamps are monotonic non-decreasing (capture order) and every
    // frame revalidates as a data-plane packet.
    assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
    let mut dns = 0;
    let mut tcp = 0;
    for record in &records {
        let packet = gnf_packet::Packet::parse(bytes::Bytes::copy_from_slice(&record.frame))
            .expect("fixture frames parse as packets");
        assert_eq!(packet.len(), record.frame.len());
        if packet.dns().is_some() {
            dns += 1;
        }
        if packet.tcp().is_some() {
            tcp += 1;
        }
    }
    assert!(dns > 0, "the web mix contains DNS chatter");
    assert!(tcp > 0, "the web mix contains TCP flows");

    // Re-writing the records reproduces the checked-in bytes exactly: the
    // writer's output format is stable.
    let mut writer = TraceWriter::pcap(Vec::new()).unwrap();
    for record in &records {
        writer.write_record(record.at, &record.frame).unwrap();
    }
    assert_eq!(writer.into_inner().unwrap(), FIXTURE);
}
