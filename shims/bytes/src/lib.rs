//! Minimal stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply clonable, immutable byte buffer (an `Arc<[u8]>`
//! under the hood — cloning a parsed packet never copies the frame), which
//! [`Bytes::patch`] edits copy-on-write.
//! [`BytesMut`] is a growable buffer with an efficient consumed-prefix
//! cursor so `advance`/`split_to` are O(1) amortized, as the real crate
//! promises. Only the API surface this workspace uses is provided.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::Arc;

/// A reference-counted byte buffer whose shared bytes never change: only
/// [`Bytes::patch`] writes, and only to bytes no other handle sees.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Lets `patch` edit the buffer, copy-on-write: in place when this
    /// handle is the buffer's only owner, otherwise in a private copy (one
    /// allocation and one copy) that this handle then owns, leaving every
    /// other handle's bytes as they were. Returns what `patch` returns.
    pub fn patch<R>(&mut self, patch: impl FnOnce(&mut [u8]) -> R) -> R {
        patch(Arc::make_mut(&mut self.data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data: data.into() }
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
