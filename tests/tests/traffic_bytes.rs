//! Golden digests of the generated traffic: every packet both generators
//! emit, byte for byte, with its time, station and client.
//!
//! The frame builders and the Zipf sampler are free to change how they
//! compute a frame or a draw, never what they produce: each digest below is
//! FNV-1a over every emitted `(at ns, station, client, frame length, frame
//! bytes)` in emission order, so one moved byte, one extra or missing RNG
//! draw, or one reordered packet changes it.

use gnf_edge::{EdgeTopology, Position, TrafficGenerator, TrafficProfile};
use gnf_sim::Rng;
use gnf_types::{HostClass, SimDuration, SimTime};
use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix, Workload};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn packet(&mut self, at: SimTime, station: u64, client: u64, frame: &[u8]) {
        self.write(&at.as_nanos().to_le_bytes());
        self.write(&station.to_le_bytes());
        self.write(&client.to_le_bytes());
        self.write(&(frame.len() as u64).to_le_bytes());
        self.write(frame);
    }
}

/// Drains `spec` over four stations of four clients each: the digest and
/// the packet count.
fn synthetic_digest(spec: SyntheticSpec) -> (u64, u64) {
    let mut workload = spec
        .with_packet_budget(20_000)
        .build(Population::synthetic(4, 4));
    let mut fnv = Fnv::new();
    let mut packets = 0;
    while let Some(batch) = workload.next_batch() {
        for (client, packet) in &batch.packets {
            fnv.packet(
                batch.at,
                batch.station.raw(),
                client.raw(),
                packet.bytes().as_ref(),
            );
            packets += 1;
        }
    }
    (fnv.0, packets)
}

#[test]
fn synthetic_workload_bytes_are_pinned() {
    let cases = [
        (
            "web",
            SyntheticSpec::new("web", 7).with_mix(TrafficMix::web()),
            0xb3a1_c8ed_dc79_8586,
        ),
        (
            "attack",
            SyntheticSpec::new("attack", 7)
                .with_mix(TrafficMix::attack())
                .with_packet_gap(SimDuration::from_millis(5)),
            0x3411_a6b5_1d53_9ffc,
        ),
        (
            "churn",
            SyntheticSpec::new("churn", 7).with_mix(TrafficMix::churn()),
            0x1d18_4280_3e4d_4182,
        ),
        (
            "on-off",
            SyntheticSpec::new("on-off", 7).with_arrivals(ArrivalModel::OnOff {
                on_flows_per_sec: 2_000.0,
                mean_on: SimDuration::from_millis(200),
                mean_off: SimDuration::from_millis(600),
            }),
            0x0fc7_2add_b443_5247,
        ),
    ];
    for (name, spec, expected) in cases {
        let (digest, packets) = synthetic_digest(spec);
        assert_eq!(packets, 20_000, "{name}: the budget is exact");
        assert_eq!(digest, expected, "{name}: digest {digest:#018x}");
    }
}

#[test]
fn traffic_generator_bytes_are_pinned() {
    let mut topology = EdgeTopology::grid(1, HostClass::HomeRouter, 100.0);
    let id = topology.add_client(Position::new(1.0, 1.0), true);
    let client = topology.client(id).expect("just added").clone();
    let site = topology.sites()[0].clone();
    let cases = [
        (
            "smartphone",
            TrafficProfile::smartphone(),
            0x639d_b7d3_26a2_da71,
        ),
        (
            "dns-heavy",
            TrafficProfile::DnsHeavy {
                mean_interval: SimDuration::from_millis(25),
            },
            0x06c7_3c4e_1427_5b0b,
        ),
        (
            "cbr",
            TrafficProfile::ConstantBitRate {
                packets_per_sec: 50.0,
                payload_bytes: 160,
            },
            0x146e_07fc_605b_3b15,
        ),
    ];
    for (name, profile, expected) in cases {
        let mut generator = TrafficGenerator::new(profile, Rng::new(7));
        let packets = generator.generate(&client, &site, SimTime::ZERO, SimTime::from_secs(60));
        assert!(packets.len() > 20, "{name}: {} packets", packets.len());
        let mut fnv = Fnv::new();
        for generated in &packets {
            fnv.packet(
                generated.at,
                site.station.raw(),
                client.client.raw(),
                generated.packet.bytes().as_ref(),
            );
        }
        assert_eq!(fnv.0, expected, "{name}: digest {:#018x}", fnv.0);
    }
}
