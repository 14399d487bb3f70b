//! RFC 1071 Internet checksum, used by IPv4, ICMP, TCP and UDP.
//!
//! The checksum is the 16-bit one's-complement of the one's-complement sum of
//! the covered bytes. TCP and UDP additionally cover a pseudo-header built
//! from the IPv4 source/destination addresses, the protocol number and the
//! segment length.

use std::net::Ipv4Addr;

/// Accumulator for the one's-complement sum. Data can be fed in several
/// chunks (header, pseudo-header, payload) before finalising.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte slice to the sum. Slices of odd length are zero-padded on
    /// the right, per RFC 1071.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.add_u16(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Adds a single big-endian 16-bit word.
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Adds a 32-bit value as two 16-bit words (used for IPv4 addresses in the
    /// pseudo-header).
    pub fn add_u32(&mut self, value: u32) {
        self.add_u16((value >> 16) as u16);
        self.add_u16((value & 0xffff) as u16);
    }

    /// Folds the carries and returns the one's-complement checksum.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the Internet checksum of a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut cs = Checksum::new();
    cs.add_bytes(data);
    cs.finish()
}

/// Verifies a slice whose checksum field is already filled in: the folded sum
/// over the whole slice must be zero.
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

/// Computes the TCP/UDP checksum: pseudo-header (src, dst, zero, protocol,
/// length) followed by the transport header and payload with the checksum
/// field zeroed by the caller.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut cs = Checksum::new();
    cs.add_u32(u32::from(src));
    cs.add_u32(u32::from(dst));
    cs.add_u16(u16::from(protocol));
    cs.add_u16(segment.len() as u16);
    cs.add_bytes(segment);
    let folded = cs.finish();
    // Per RFC 768 a computed UDP checksum of zero is transmitted as all-ones;
    // doing the same for TCP is harmless (0xffff and 0x0000 are equivalent in
    // one's-complement arithmetic).
    if folded == 0 {
        0xffff
    } else {
        folded
    }
}

/// Incrementally updates a checksum after the covered 16-bit words `old`
/// were overwritten with `new` (RFC 1624 eqn. 3: `HC' = ~(~HC + ~m + m')`),
/// without touching the rest of the covered data.
///
/// The result is the value a full recomputation over the patched data
/// returns, bit for bit: both are the complement of a one's-complement sum
/// folded into `1..=0xffff` (the covered data is never all zero — an IPv4
/// header has a version, a pseudo-header a protocol), and the two sums are
/// congruent modulo `0xffff`. A stored checksum that does not verify stays
/// wrong by the same amount, so a corrupt packet is not laundered.
pub fn incremental_update(checksum: u16, old: &[u16], new: &[u16]) -> u16 {
    debug_assert_eq!(old.len(), new.len());
    let mut sum = u32::from(!checksum);
    for (old, new) in old.iter().zip(new) {
        sum += u32::from(!old) + u32::from(*new);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    // +0 and -0 are the same sum; a full computation only ever yields -0.
    if sum == 0 {
        sum = 0xffff;
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // Example from RFC 1071 section 3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // One's-complement sum is 0xddf2, checksum is its complement 0x220d.
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_is_padded() {
        let even = internet_checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    #[test]
    fn verify_accepts_slice_containing_its_own_checksum() {
        let mut header = vec![
            0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let cs = internet_checksum(&header);
        header[10..12].copy_from_slice(&cs.to_be_bytes());
        assert!(verify(&header));
        // Corrupt one byte and verification must fail.
        header[0] ^= 0xff;
        assert!(!verify(&header));
    }

    #[test]
    fn transport_checksum_verifies_round_trip() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // A fake UDP segment with the checksum field (bytes 6..8) zeroed.
        let mut segment = vec![
            0x04, 0xd2, 0x00, 0x35, 0x00, 0x0c, 0x00, 0x00, b'h', b'i', b'!', b'!',
        ];
        let cs = transport_checksum(src, dst, 17, &segment);
        segment[6..8].copy_from_slice(&cs.to_be_bytes());
        // Re-running the checksum over the segment with the field filled in
        // must fold to zero (or the all-ones equivalent).
        let mut check = Checksum::new();
        check.add_u32(u32::from(src));
        check.add_u32(u32::from(dst));
        check.add_u16(17);
        check.add_u16(segment.len() as u16);
        check.add_bytes(&segment);
        assert_eq!(check.finish(), 0);
    }

    #[test]
    fn incremental_update_rfc1624_worked_example() {
        // RFC 1624 section 4: the case RFC 1141's equation gets wrong
        // (it yields 0xffff where a recomputation yields 0x0000).
        assert_eq!(incremental_update(0xdd2f, &[0x5555], &[0x3285]), 0x0000);
    }

    #[test]
    fn incremental_update_folds_both_zeros_to_the_computed_one() {
        // A transport checksum sent as 0xffff stands for a computed 0: the
        // sum behind it is all-ones, and stays so when a 0xffff word becomes
        // 0x0000. A recomputation yields 0, never the other spelling.
        assert_eq!(incremental_update(0xffff, &[0xffff], &[0x0000]), 0x0000);
    }

    #[test]
    fn incremental_update_equals_full_recomputation() {
        // Every pairing of the corner words, over a header-like block whose
        // first word keeps the data non-zero.
        let corners = [0x0000u16, 0x0001, 0x5555, 0xaaaa, 0xfffe, 0xffff];
        let checksum_of = |a: u16, b: u16| {
            let mut data = vec![0x45, 0x00];
            data.extend_from_slice(&a.to_be_bytes());
            data.extend_from_slice(&b.to_be_bytes());
            internet_checksum(&data)
        };
        for a in corners {
            for b in corners {
                for a2 in corners {
                    for b2 in corners {
                        assert_eq!(
                            incremental_update(checksum_of(a, b), &[a, b], &[a2, b2]),
                            checksum_of(a2, b2),
                            "{a:#06x} {b:#06x} -> {a2:#06x} {b2:#06x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_checksum_is_mapped_to_all_ones() {
        // An empty segment between zero addresses with protocol 0 and length 0
        // sums to zero, which must be reported as 0xffff.
        let cs = transport_checksum(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 0, &[]);
        assert_eq!(cs, 0xffff);
    }
}
