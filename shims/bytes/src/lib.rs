//! Minimal stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply clonable, immutable view of a shared buffer (an
//! `Arc<[u8]>` plus an offset and a length): cloning a parsed packet never
//! copies the frame, and [`Bytes::slice`] hands out part of a buffer — a
//! frame of a trace's read block — without a copy or a heap request.
//! [`Bytes::patch`] edits copy-on-write.
//! [`BytesMut`] is a growable buffer with an efficient consumed-prefix
//! cursor so `advance`/`split_to` are O(1) amortized, as the real crate
//! promises. Only the API surface this workspace uses is provided.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, Index, RangeBounds};
use std::sync::Arc;

/// A view of a reference-counted buffer whose shared bytes never change:
/// only [`Bytes::patch`] writes, and only to bytes no other handle sees.
/// Equality, order and hash are those of the viewed bytes, wherever they
/// lie.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    /// The view is `data[start..start + len]`; `u32`s keep the handle at
    /// 24 bytes.
    start: u32,
    len: u32,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Arc::from(&[][..]))
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(Arc::from(data))
    }

    /// The bytes of `range` (relative to this view) as a view of the same
    /// buffer: no copy, no heap request. Panics when `range` runs past the
    /// view, as the real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&at) => at,
            Bound::Excluded(&at) => at + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&at) => at + 1,
            Bound::Excluded(&at) => at,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds of a {}-byte view",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Lets `patch` edit the viewed bytes, copy-on-write: in place when this
    /// handle views the whole buffer and is its only owner, otherwise in a
    /// private copy of the view (one allocation and one copy) that this
    /// handle then owns, leaving every other handle's bytes as they were.
    /// Returns what `patch` returns.
    pub fn patch<R>(&mut self, patch: impl FnOnce(&mut [u8]) -> R) -> R {
        if self.len() != self.data.len() {
            *self = Bytes::copy_from_slice(self);
        }
        patch(Arc::make_mut(&mut self.data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Arc<[u8]>> for Bytes {
    /// A view of the whole buffer. Panics on a buffer of 4 GiB or more.
    fn from(data: Arc<[u8]>) -> Self {
        let len = u32::try_from(data.len()).expect("a Bytes buffer is below 4 GiB");
        Bytes {
            data,
            start: 0,
            len,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let start = self.start as usize;
        &self.data[start..start + self.len as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::from(Arc::<[u8]>::from(data))
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl From<&'static str> for Bytes {
    fn from(data: &'static str) -> Self {
        Bytes::copy_from_slice(data.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for byte in self.iter() {
            for escaped in std::ascii::escape_default(*byte) {
                write!(f, "{}", escaped as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl Serialize for Bytes {
    fn to_value(&self) -> Value {
        self.as_ref().to_value()
    }
}

impl Deserialize for Bytes {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Vec::<u8>::from_value(value).map(Bytes::from)
    }
}

/// A growable byte buffer with a consumed-prefix cursor.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes before this offset have been consumed by `advance`/`split_to`.
    start: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    /// Unconsumed length in bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// True when no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensures space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.compact();
        self.data.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Splits off and returns the first `at` unconsumed bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let split = BytesMut {
            data: self.data[self.start..self.start + at].to_vec(),
            start: 0,
        };
        self.start += at;
        self.compact_if_large();
        split
    }

    /// Copies the unconsumed bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.compact();
        Bytes::from(self.data)
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    fn compact_if_large(&mut self) {
        // Reclaim the consumed prefix once it dominates the buffer so a
        // long-lived receive buffer cannot grow without bound.
        if self.start > 4096 && self.start * 2 > self.data.len() {
            self.compact();
        }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(slice: &[u8]) -> Self {
        BytesMut {
            data: slice.to_vec(),
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl<I: std::slice::SliceIndex<[u8]>> Index<I> for BytesMut {
    type Output = I::Output;
    fn index(&self, index: I) -> &I::Output {
        &self.as_slice()[index]
    }
}

impl<I: std::slice::SliceIndex<[u8]>> std::ops::IndexMut<I> for BytesMut {
    fn index_mut(&mut self, index: I) -> &mut I::Output {
        let start = self.start;
        &mut self.data[start..][index]
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for byte in self.as_slice() {
            for escaped in std::ascii::escape_default(*byte) {
                write!(f, "{}", escaped as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Read-cursor operations (subset of `bytes::Buf`).
pub trait Buf {
    /// Discards the first `count` unconsumed bytes.
    fn advance(&mut self, count: usize);
    /// Number of unconsumed bytes.
    fn remaining(&self) -> usize;
}

impl Buf for BytesMut {
    fn advance(&mut self, count: usize) {
        assert!(count <= self.len(), "advance out of bounds");
        self.start += count;
        self.compact_if_large();
    }

    fn remaining(&self) -> usize {
        self.len()
    }
}

/// Write-cursor operations (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }

    /// Appends a big-endian u16.
    fn put_u16(&mut self, value: u16) {
        self.put_slice(&value.to_be_bytes());
    }

    /// Appends a big-endian u32.
    fn put_u32(&mut self, value: u32) {
        self.put_slice(&value.to_be_bytes());
    }

    /// Appends a big-endian u64.
    fn put_u64(&mut self, value: u64) {
        self.put_slice(&value.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}
