//! `InlineMap` against `PathMap` as the oracle: generated sequences of
//! insert / get / get_mut / remove / retain / iterate, on a key space wide
//! enough that the map spills past its inline capacity and shrinks back
//! below it, must leave both maps with the same answers and the same
//! entries after every step. Iteration order is unspecified for both, so
//! entries are compared sorted.

use gnf_types::{InlineMap, PathMap, INLINE_ENTRIES};
use proptest::{Strategy, TestRng};

fn sorted<'a>(entries: impl Iterator<Item = (&'a u8, &'a u32)>) -> Vec<(u8, u32)> {
    let mut entries: Vec<(u8, u32)> = entries.map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable();
    entries
}

/// Runs one generated sequence against both maps, panicking on the first
/// disagreement. Returns whether the map spilled and later shrank back to
/// half its inline capacity.
fn replay(ops: Vec<(u8, u8, u32)>) -> bool {
    let mut map: InlineMap<u8, u32> = InlineMap::new();
    let mut oracle: PathMap<u8, u32> = PathMap::default();
    let (mut spilled, mut returned) = (false, false);
    for (op, key, value) in ops {
        match op {
            // Inserts are weighted up so the map reaches its spill point.
            0 | 1 => assert_eq!(map.insert(key, value), oracle.insert(key, value)),
            2 => assert_eq!(map.get(&key), oracle.get(&key)),
            3 => {
                if let Some(v) = map.get_mut(&key) {
                    *v += value;
                }
                if let Some(v) = oracle.get_mut(&key) {
                    *v += value;
                }
            }
            4 | 5 => assert_eq!(map.remove(&key), oracle.remove(&key)),
            6 => {
                let keep = |k: &u8, v: &mut u32| !(u32::from(*k) + *v).is_multiple_of(3);
                map.retain(keep);
                oracle.retain(keep);
            }
            _ => {
                // Every entry through `get_mut`, found by iterating keys.
                let keys: Vec<u8> = map.keys().copied().collect();
                for k in keys {
                    if let Some(v) = map.get_mut(&k) {
                        *v += 1;
                    }
                }
                for v in oracle.values_mut() {
                    *v += 1;
                }
            }
        }
        assert_eq!(map.len(), oracle.len());
        assert_eq!(map.is_empty(), oracle.is_empty());
        assert_eq!(map.get(&key), oracle.get(&key));
        let expected = sorted(oracle.iter());
        assert_eq!(sorted(map.iter()), expected);
        let mut keys: Vec<u8> = map.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, expected.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        let mut values: Vec<u32> = map.values().copied().collect();
        values.sort_unstable();
        let mut expected_values: Vec<u32> = expected.iter().map(|(_, v)| *v).collect();
        expected_values.sort_unstable();
        assert_eq!(values, expected_values);
        spilled |= map.len() > INLINE_ENTRIES;
        returned |= spilled && map.len() <= INLINE_ENTRIES / 2;
    }
    returned
}

#[test]
fn an_inline_map_answers_like_a_path_map() {
    let strategy = proptest::collection::vec((0u8..8, 0u8..10, 0u32..1_000), 1..120);
    let cases = 256;
    let mut both_ways = 0;
    for case in 0..cases {
        let mut rng = TestRng::for_case("an_inline_map_answers_like_a_path_map", case as u32);
        both_ways += usize::from(replay(strategy.generate(&mut rng)));
    }
    assert!(
        both_ways * 4 >= cases,
        "only {both_ways} of {cases} cases spilled and shrank back"
    );
}
