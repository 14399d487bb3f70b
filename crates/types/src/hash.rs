//! The one hasher of the packet path.
//!
//! Every table a packet touches is a [`PathMap`]: `std`'s `HashMap` under
//! [`PathHasher`], one rotate-xor-multiply step per 64-bit word. The keys on
//! that path hand it whole words (a `MacAddr` is one, a five-tuple two).
//! The hasher is **unkeyed** — see "Hashing on the packet path" in
//! ARCHITECTURE.md for what that gives up and why it is acceptable here.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` on the packet path. A deployment on untrusted traffic changes
/// this one alias back to a keyed hasher.
pub type PathMap<K, V> = HashMap<K, V, PathBuildHasher>;

/// The start state of every release-build [`PathHasher`] (the 64-bit
/// golden-ratio constant). Tests that pin hash values pass it explicitly.
pub const PATH_HASH_START: u64 = 0x9e37_79b9_7f4a_7c15;

/// Odd multiplier of the per-word step and of `finish`'s avalanche.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Rotate-xor-multiply over 64-bit words. Sub-word integers are widened to
/// one word each and byte slices are read as explicit little-endian words
/// (the tail zero-padded), so a value never depends on the platform.
#[derive(Debug, Clone, Copy)]
pub struct PathHasher {
    state: u64,
}

impl Hasher for PathHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.write_u64(value as u64);
        self.write_u64((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The multiply in the word step mixes upwards only, so the state's low
    /// bits know nothing of a word's high bits. hashbrown indexes buckets by
    /// the low bits and tags them by the top seven: fold the high half down,
    /// multiply once more, fold again — both ends see every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        let folded = (self.state ^ (self.state >> 32)).wrapping_mul(MULTIPLIER);
        folded ^ (folded >> 29)
    }
}

/// Builds the [`PathHasher`]s of one map.
///
/// Release builds start every hasher from [`PATH_HASH_START`]. Debug builds
/// — where tier-1 and every identity matrix run — salt each *map* from a
/// global counter instead, so two maps filled identically still iterate in
/// different orders, as they did under `RandomState`: code that leaks a
/// map's iteration order into a report keeps failing the suites that
/// compare two runs, rather than agreeing with itself by accident.
#[derive(Debug, Clone, Copy)]
pub struct PathBuildHasher {
    start: u64,
}

impl PathBuildHasher {
    /// A builder whose hashers start from `start`; maps use `Default`.
    pub const fn with_start(start: u64) -> Self {
        PathBuildHasher { start }
    }
}

impl Default for PathBuildHasher {
    fn default() -> Self {
        #[cfg(debug_assertions)]
        let salt = {
            use std::sync::atomic::{AtomicU64, Ordering};
            // Relaxed: a counter that publishes no other data.
            static MAPS_BUILT: AtomicU64 = AtomicU64::new(0);
            MAPS_BUILT.fetch_add(1, Ordering::Relaxed)
        };
        #[cfg(not(debug_assertions))]
        let salt = 0u64;
        PathBuildHasher::with_start(PATH_HASH_START ^ salt.wrapping_mul(MULTIPLIER))
    }
}

impl BuildHasher for PathBuildHasher {
    type Hasher = PathHasher;

    #[inline]
    fn build_hasher(&self) -> PathHasher {
        PathHasher { state: self.start }
    }
}
