//! Packet batches: the unit of data-plane work.
//!
//! Production dataplanes (OVS batching, VPP vectors) amortize per-packet
//! overhead by moving *vectors* of packets through the pipeline.
//! [`PacketBatch`] is that vector for the GNF data plane: what a station is
//! handed per flush, paying its per-call costs (port check, RX count, batch
//! telemetry, lane set-up) once; inside, the switch and the NF chains take
//! its packets one at a time. It deliberately stays a thin, ordered
//! wrapper over `Vec<Packet>`: batching must be *observably equivalent* to
//! per-packet processing (same verdicts, same NF state, same counters), so
//! the batch carries no processing state of its own — order in the batch is
//! arrival order, and every stage keeps its outputs aligned with its inputs.

use crate::packet::Packet;
use gnf_types::InlineList;

/// An ordered batch of packets processed as one unit of data-plane work.
///
/// Invariants relied on by the batched pipeline stages:
///
/// * iteration order is arrival order (stages must preserve it);
/// * a batch holds packets that arrived on the same port of the same station
///   at the same virtual time (the emulator's batch-formation rule), so one
///   timestamp and one ingress port describe every packet in it.
///
/// A batch of one holds its packet inline: a fleet station's batches hold
/// one packet each, and that packet costs no vector of its own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketBatch {
    packets: InlineList<Packet>,
}

impl PacketBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` packets; a batch
    /// for one packet reserves nothing, since it holds that packet inline.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketBatch {
            packets: InlineList::with_capacity(capacity),
        }
    }

    /// Appends a packet to the end of the batch.
    pub fn push(&mut self, packet: Packet) {
        self.packets.push(packet);
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total frame bytes across the batch.
    pub fn total_bytes(&self) -> u64 {
        self.iter().map(|p| p.len() as u64).sum()
    }

    /// The packets as a slice, in arrival order.
    pub fn as_slice(&self) -> &[Packet] {
        self.packets.as_slice()
    }

    /// Iterates over the packets in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.as_slice().iter()
    }
}

impl From<Vec<Packet>> for PacketBatch {
    fn from(packets: Vec<Packet>) -> Self {
        PacketBatch {
            packets: packets.into(),
        }
    }
}

impl From<Packet> for PacketBatch {
    fn from(packet: Packet) -> Self {
        PacketBatch {
            packets: packet.into(),
        }
    }
}

impl FromIterator<Packet> for PacketBatch {
    fn from_iter<I: IntoIterator<Item = Packet>>(iter: I) -> Self {
        PacketBatch::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl IntoIterator for PacketBatch {
    type Item = Packet;
    type IntoIter = gnf_types::inline::IntoIter<Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.into_iter()
    }
}

impl<'a> IntoIterator for &'a PacketBatch {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<Packet> for PacketBatch {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, iter: I) {
        self.packets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use gnf_types::MacAddr;
    use std::net::Ipv4Addr;

    fn pkt(port: u16) -> Packet {
        builder::udp_packet(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 3),
            port,
            2000,
            b"abc",
        )
    }

    #[test]
    fn batch_preserves_arrival_order() {
        let mut batch = PacketBatch::with_capacity(3);
        for port in [1000u16, 1001, 1002] {
            batch.push(pkt(port));
        }
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        let ports: Vec<u16> = batch
            .iter()
            .map(|p| p.five_tuple().unwrap().src_port)
            .collect();
        assert_eq!(ports, vec![1000, 1001, 1002]);
    }

    #[test]
    fn batch_conversions_and_totals() {
        let single = PacketBatch::from(pkt(1));
        assert_eq!(single.len(), 1);
        assert_eq!(single.total_bytes(), pkt(1).len() as u64);

        let collected: PacketBatch = (0..4u16).map(pkt).collect();
        assert_eq!(collected.len(), 4);
        let mut extended = PacketBatch::new();
        extended.extend(collected.clone());
        assert_eq!(extended, collected);
        assert_eq!(extended.as_slice().len(), 4);
        assert!(PacketBatch::new().is_empty());
        assert_eq!(PacketBatch::default().total_bytes(), 0);
    }

    /// A batch of one, held inline, is the same batch as its vector form,
    /// and growing it keeps arrival order, by reference and by value.
    #[test]
    fn a_batch_of_one_is_its_vector_form() {
        let ports = |batch: PacketBatch| -> Vec<u16> {
            let by_ref: Vec<u16> = batch
                .iter()
                .map(|p| p.five_tuple().unwrap().src_port)
                .collect();
            let by_value: Vec<u16> = batch
                .into_iter()
                .map(|p| p.five_tuple().unwrap().src_port)
                .collect();
            assert_eq!(by_ref, by_value);
            by_value
        };
        let mut one = PacketBatch::with_capacity(1);
        one.push(pkt(7));
        assert_eq!(one, PacketBatch::from(vec![pkt(7)]));
        assert_eq!(one, PacketBatch::from(pkt(7)));
        assert_eq!(one.into_iter().len(), 1);
        let mut grown = PacketBatch::from(pkt(1));
        grown.push(pkt(2));
        grown.extend([pkt(3)]);
        assert_eq!(grown, PacketBatch::from(vec![pkt(1), pkt(2), pkt(3)]));
        assert_eq!(ports(grown), vec![1, 2, 3]);
        assert_ne!(PacketBatch::from(pkt(1)), PacketBatch::new());
    }
}
