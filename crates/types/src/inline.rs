//! The small containers of the packet path: [`InlineMap`] and
//! [`InlineList`].
//!
//! A fleet station holds one to three entries in most of its per-packet
//! tables (one client MAC, one chain, one flood set, one or two megaflow
//! masks). Each of those behind its own [`PathMap`] is a separate heap block
//! that a cold station's packet must fetch. An [`InlineMap`] keeps up to
//! [`INLINE_ENTRIES`] entries in its owner's own memory and probes them by
//! a linear key scan; only a map that outgrows that spills into a
//! [`PathMap`].

use crate::hash::PathMap;
use std::hash::Hash;
use std::mem;

/// Entries an [`InlineMap`] keeps inline before it spills into a
/// [`PathMap`]. A spilled map moves back inline once removals shrink it to
/// half of this, so a map hovering at the threshold does not flip per
/// operation.
pub const INLINE_ENTRIES: usize = 4;

/// A map that stores up to [`INLINE_ENTRIES`] entries inline — keys in one
/// array scanned linearly, values in another — and spills into a
/// [`PathMap`] beyond.
///
/// **Iteration order is unspecified**, as for a [`PathMap`]. Inline, it is
/// slot order, and a new entry takes the first free slot at or after the
/// map's start slot. Release builds start every map at slot 0. Debug builds
/// — where tier-1 and every identity matrix run — start each map at a slot
/// drawn from a global counter, so two maps filled identically can iterate
/// in different orders, and code that leaks an inline map's order into a
/// report fails the suites that compare two runs in one process, as it does
/// for a salted [`PathMap`].
///
/// `len`, `is_empty` and the inline/spilled tag sit at the head of the map
/// (`repr(C)`), so an owner asking whether a map is empty reads one line,
/// not the key array.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct InlineMap<K, V> {
    /// Entries held inline (0 once spilled).
    len: u8,
    /// The slot an inline insert scans from (0 in release builds).
    start: u8,
    repr: Repr<K, V>,
}

#[derive(Debug, Clone)]
#[repr(u8)]
enum Repr<K, V> {
    /// `keys[i]` and `values[i]` are both `Some` or both `None`.
    Inline {
        keys: [Option<K>; INLINE_ENTRIES],
        values: [Option<V>; INLINE_ENTRIES],
    },
    Spilled(PathMap<K, V>),
}

impl<K, V> Repr<K, V> {
    fn empty() -> Self {
        Repr::Inline {
            keys: [const { None }; INLINE_ENTRIES],
            values: [const { None }; INLINE_ENTRIES],
        }
    }
}

impl<K, V> Default for InlineMap<K, V> {
    fn default() -> Self {
        #[cfg(debug_assertions)]
        let start = {
            use std::sync::atomic::{AtomicUsize, Ordering};
            // Relaxed: a counter that publishes no other data.
            static MAPS_BUILT: AtomicUsize = AtomicUsize::new(0);
            (MAPS_BUILT.fetch_add(1, Ordering::Relaxed) % INLINE_ENTRIES) as u8
        };
        #[cfg(not(debug_assertions))]
        let start = 0;
        InlineMap {
            len: 0,
            start,
            repr: Repr::empty(),
        }
    }
}

impl<K: Eq + Hash, V> InlineMap<K, V> {
    /// An empty map; it allocates nothing until it spills.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => usize::from(self.len),
            Repr::Spilled(map) => map.len(),
        }
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        match &self.repr {
            Repr::Inline { keys, values } => values[slot_of(keys, key)?].as_ref(),
            Repr::Spilled(map) => map.get(key),
        }
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match &mut self.repr {
            Repr::Inline { keys, values } => values[slot_of(keys, key)?].as_mut(),
            Repr::Spilled(map) => map.get_mut(key),
        }
    }

    /// Stores `value` under `key`, returning the value it replaced. The
    /// entry that would be the `INLINE_ENTRIES + 1`-th spills the map.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(old) = self.get_mut(&key) {
            return Some(mem::replace(old, value));
        }
        let start = usize::from(self.start);
        match &mut self.repr {
            Repr::Inline { keys, values } => {
                let free = (0..INLINE_ENTRIES)
                    .map(|step| (start + step) % INLINE_ENTRIES)
                    .find(|&slot| keys[slot].is_none());
                match free {
                    Some(slot) => {
                        keys[slot] = Some(key);
                        values[slot] = Some(value);
                        self.len += 1;
                    }
                    None => {
                        let mut map = PathMap::default();
                        map.reserve(INLINE_ENTRIES + 1);
                        map.extend(
                            keys.iter_mut()
                                .zip(values.iter_mut())
                                .filter_map(|(key, value)| Some((key.take()?, value.take()?))),
                        );
                        map.insert(key, value);
                        self.repr = Repr::Spilled(map);
                        self.len = 0;
                    }
                }
            }
            Repr::Spilled(map) => {
                map.insert(key, value);
            }
        }
        None
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = match &mut self.repr {
            Repr::Inline { keys, values } => {
                let slot = slot_of(keys, key)?;
                keys[slot] = None;
                self.len -= 1;
                return values[slot].take();
            }
            Repr::Spilled(map) => map.remove(key),
        };
        self.shrink();
        removed
    }

    /// Keeps the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        match &mut self.repr {
            Repr::Inline { keys, values } => {
                for (key, value) in keys.iter_mut().zip(values.iter_mut()) {
                    if let (Some(k), Some(v)) = (key.as_ref(), value.as_mut()) {
                        if !keep(k, v) {
                            *key = None;
                            *value = None;
                            self.len -= 1;
                        }
                    }
                }
            }
            Repr::Spilled(map) => {
                map.retain(|k, v| keep(k, v));
                self.shrink();
            }
        }
    }

    /// Removes every entry; a spilled map gives its table back.
    pub fn clear(&mut self) {
        self.repr = Repr::empty();
        self.len = 0;
    }

    /// Moves a spilled map that shrank to half the inline capacity back
    /// inline.
    fn shrink(&mut self) {
        let Repr::Spilled(map) = &mut self.repr else {
            return;
        };
        if map.len() > INLINE_ENTRIES / 2 {
            return;
        }
        let entries = mem::take(map);
        self.repr = Repr::empty();
        for (key, value) in entries {
            self.insert(key, value);
        }
    }

    /// Every entry, in unspecified order (see the type's docs).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let (inline, spilled) = match &self.repr {
            Repr::Inline { keys, values } => (Some(keys.iter().zip(values.iter())), None),
            Repr::Spilled(map) => (None, Some(map.iter())),
        };
        let inline = inline
            .into_iter()
            .flatten()
            .filter_map(|(key, value)| Some((key.as_ref()?, value.as_ref()?)));
        inline.chain(spilled.into_iter().flatten())
    }

    /// Every key, in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(key, _)| key)
    }

    /// Every value, in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

/// The inline slot holding `key`.
#[inline]
fn slot_of<K: Eq>(keys: &[Option<K>; INLINE_ENTRIES], key: &K) -> Option<usize> {
    keys.iter().position(|k| k.as_ref() == Some(key))
}

/// A list that holds a lone element inline and moves to a vector from the
/// second: one client's steering rules, one batch's packets. A list of one
/// costs no heap block.
#[derive(Debug, Clone)]
pub struct InlineList<T> {
    items: Items<T>,
}

#[derive(Debug, Clone)]
enum Items<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Default for InlineList<T> {
    fn default() -> Self {
        InlineList {
            items: Items::Many(Vec::new()),
        }
    }
}

impl<T> InlineList<T> {
    /// An empty list; it allocates nothing until its second element.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty list with room for `capacity` elements; room for one is
    /// the inline slot, so it reserves nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        let items = if capacity > 1 {
            Vec::with_capacity(capacity)
        } else {
            Vec::new()
        };
        InlineList {
            items: Items::Many(items),
        }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if let Items::Many(items) = &mut self.items {
            if items.capacity() > 0 {
                items.push(item);
                return;
            }
        }
        // An empty list without room takes the element inline; a list of
        // one moves to a vector.
        self.items = match mem::replace(&mut self.items, Items::Many(Vec::new())) {
            Items::One(first) => {
                // The room a vector's first growth would give it.
                let mut items = Vec::with_capacity(4);
                items.push(first);
                items.push(item);
                Items::Many(items)
            }
            Items::Many(_) => Items::One(item),
        };
    }

    /// Keeps the elements for which `keep` returns true, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.items {
            Items::One(item) => {
                if !keep(item) {
                    self.items = Items::Many(Vec::new());
                }
            }
            Items::Many(items) => items.retain(keep),
        }
    }

    /// The elements, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.items {
            Items::One(item) => std::slice::from_ref(item),
            Items::Many(items) => items,
        }
    }

    /// The elements, mutably, in order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.items {
            Items::One(item) => std::slice::from_mut(item),
            Items::Many(items) => items,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the list holds no element.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T> From<T> for InlineList<T> {
    fn from(item: T) -> Self {
        InlineList {
            items: Items::One(item),
        }
    }
}

impl<T> From<Vec<T>> for InlineList<T> {
    fn from(items: Vec<T>) -> Self {
        InlineList {
            items: Items::Many(items),
        }
    }
}

impl<T> Extend<T> for InlineList<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// The elements of an [`InlineList`], by value, in order.
#[derive(Debug)]
pub struct IntoIter<T>(IntoIterRepr<T>);

#[derive(Debug)]
enum IntoIterRepr<T> {
    One(Option<T>),
    Many(std::vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            IntoIterRepr::One(item) => item.take(),
            IntoIterRepr::Many(items) => items.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IntoIterRepr::One(item) => {
                let left = usize::from(item.is_some());
                (left, Some(left))
            }
            IntoIterRepr::Many(items) => items.size_hint(),
        }
    }
}

impl<T> ExactSizeIterator for IntoIter<T> {}

impl<T> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(match self.items {
            Items::One(item) => IntoIterRepr::One(Some(item)),
            Items::Many(items) => IntoIterRepr::Many(items.into_iter()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_map_spills_past_the_inline_capacity_and_returns_at_half_of_it() {
        let mut map = InlineMap::new();
        for key in 0..INLINE_ENTRIES as u64 {
            assert_eq!(map.insert(key, key * 10), None);
        }
        assert!(map.is_inline());
        assert_eq!(map.insert(1, 11), Some(10), "a replace does not spill");
        assert!(map.is_inline());
        map.insert(99, 990);
        assert!(!map.is_inline());
        assert_eq!(map.len(), INLINE_ENTRIES + 1);
        assert_eq!(map.get(&1), Some(&11));
        for key in 0..(INLINE_ENTRIES - INLINE_ENTRIES / 2) as u64 {
            assert!(!map.is_inline());
            map.remove(&key);
        }
        assert!(!map.is_inline(), "above half the capacity it stays spilled");
        map.remove(&99);
        assert!(map.is_inline());
        assert_eq!(map.len(), INLINE_ENTRIES / 2);
        assert_eq!(map.get(&3), Some(&30));
    }

    /// A list of one is its vector form; growing and shrinking keep order.
    #[test]
    fn a_list_of_one_is_its_vector_form() {
        let mut one = InlineList::with_capacity(1);
        one.push(7);
        assert_eq!(one, InlineList::from(vec![7]));
        assert_eq!(one, InlineList::from(7));
        assert_eq!(one.clone().into_iter().len(), 1);
        one.push(8);
        one.extend([9]);
        assert_eq!(one.as_slice(), [7, 8, 9]);
        one.as_mut_slice()[0] = 6;
        one.retain(|x| *x != 8);
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [6, 9]);
        let mut lone = InlineList::from(1);
        lone.retain(|x| *x != 1);
        assert!(lone.is_empty());
        assert_ne!(InlineList::from(1), InlineList::new());
    }

    #[test]
    fn debug_maps_start_at_different_slots() {
        let starts: std::collections::BTreeSet<u8> =
            (0..64).map(|_| InlineMap::<u8, ()>::new().start).collect();
        if cfg!(debug_assertions) {
            assert!(starts.len() > 1, "maps built in turn start apart");
        } else {
            assert_eq!(starts, [0].into(), "release maps start at slot 0");
        }
    }
}
