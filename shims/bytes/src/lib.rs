//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset this workspace uses: [`Bytes`] (cheaply cloneable,
//! sliceable, immutable), [`BytesMut`] (growable write buffer with a
//! consumed-prefix cursor), and the [`Buf`]/[`BufMut`] traits with the
//! little-endian accessors the wire codec needs. Semantics match the real
//! crate for this subset.
//!
//! What copies and what does not, as in the real crate for these calls:
//! - free (the buffer changes hands, no byte moves): `Bytes::from(Vec)`,
//!   `Bytes::from(String)`, [`BytesMut::freeze`] (with or without a prior
//!   `advance`), a `Bytes` clone or [`Bytes::slice`], `copy_to_bytes` on a
//!   `Bytes`, and [`BytesMut::split_to`] of everything buffered;
//! - one copy: a partial [`BytesMut::split_to`], `copy_to_bytes` on any
//!   other [`Buf`], [`Bytes::to_vec`], and `From<&'static [u8]>`/`&str`
//!   (the real crate aliases static data; safe callers cannot tell);
//! - none, in place: [`BytesMut::spare_capacity_mut`] hands out the
//!   uninitialised room past the buffered bytes, which a reader such as
//!   `recv(2)` writes into, and [`BytesMut::set_len`] then counts what it
//!   wrote. Nothing zero-fills that room first.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer (a view into shared storage).
#[derive(Clone, Default)]
pub struct Bytes {
    /// The vector handed over at construction, never copied or resized.
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wraps a static byte slice (copied into shared storage; the real
    /// crate aliases it, which is indistinguishable to safe callers).
    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }

    /// Bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Copies the view into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes `v`'s buffer as it is, without copying.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Growable write buffer with a consumed-prefix read cursor.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Bytes before this offset have been consumed by `advance`/`split_to`.
    read: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap), read: 0 }
    }

    /// Unconsumed bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Whether no unconsumed bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Unconsumed bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity() - self.read
    }

    /// Reserves capacity for at least `n` more bytes (exactly `n` when it
    /// has to grow).
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve_exact(n);
    }

    /// The room past the buffered bytes, up to the capacity, uninitialised.
    pub fn spare_capacity_mut(&mut self) -> &mut [MaybeUninit<u8>] {
        self.buf.spare_capacity_mut()
    }

    /// Sets the number of buffered bytes to `len`.
    ///
    /// # Safety
    ///
    /// `len` must not exceed [`BytesMut::capacity`], and every byte up to
    /// `len` must be initialised (for instance written through
    /// [`BytesMut::spare_capacity_mut`]).
    pub unsafe fn set_len(&mut self, len: usize) {
        // SAFETY: the caller keeps `len` within the capacity, so
        // `read + len` is within the vector's, and has initialised the
        // bytes up to it.
        unsafe { self.buf.set_len(self.read + len) }
    }

    /// Drops all content.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.read = 0;
    }

    /// Splits off the first `n` unconsumed bytes into a new buffer.
    ///
    /// Splitting off everything hands the whole storage over, consumed
    /// prefix and all, and leaves `self` empty; a partial split copies the
    /// `n` bytes out once.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of bounds");
        if n == self.len() {
            return std::mem::take(self);
        }
        let out = self.buf[self.read..self.read + n].to_vec();
        self.read += n;
        self.compact();
        BytesMut { buf: out, read: 0 }
    }

    /// Splits off everything, leaving the buffer empty (the storage goes
    /// with the returned half).
    pub fn split(&mut self) -> BytesMut {
        let n = self.len();
        self.split_to(n)
    }

    /// Freezes into an immutable [`Bytes`] over the same storage; a
    /// consumed prefix stays outside the view.
    pub fn freeze(self) -> Bytes {
        let end = self.buf.len();
        Bytes { data: Arc::new(self.buf), start: self.read, end }
    }

    /// Reclaims consumed-prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.read > 4096 && self.read * 2 >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.read..]
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        let read = self.read;
        &mut self.buf[read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::from(self.as_ref().to_vec()).fmt(f)
    }
}

/// Read access to a contiguous byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes (always the full remainder in this shim).
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "get_u8 underflow");
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Fills `dst` from the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads `len` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes underflow");
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    /// A view into the same storage, not a copy.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes underflow");
        let out = self.slice(..len);
        self.advance(len);
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.read += cnt;
        self.compact();
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_and_clone_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::from(vec![2, 3]));
        let c = b.clone();
        assert_eq!(c, b);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    fn buf_le_roundtrip() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_slice(b"xyz");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.copy_to_bytes(3), Bytes::from_static(b"xyz"));
        assert!(!r.has_remaining());
    }

    #[test]
    fn bytesmut_split_and_advance() {
        let mut b = BytesMut::with_capacity(16);
        b.extend_from_slice(b"abcdef");
        let head = b.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&b[..], b"cdef");
        b.advance(1);
        assert_eq!(&b[..], b"def");
        let rest = b.split();
        assert!(b.is_empty());
        assert_eq!(rest.freeze(), Bytes::from_static(b"def"));
    }

    #[test]
    fn frozen_after_advance_drops_consumed_prefix() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"HHHHpayload");
        b.advance(4);
        assert_eq!(b.freeze(), Bytes::from_static(b"payload"));
    }

    #[test]
    fn from_vec_keeps_the_vectors_buffer() {
        let v = vec![7u8; 1000];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);
    }

    #[test]
    fn freeze_keeps_its_buffer() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"HHHHpayload");
        let at = b.as_ptr();
        let whole = b.freeze();
        assert_eq!(whole.as_ptr(), at);

        let mut b = BytesMut::new();
        b.extend_from_slice(b"HHHHpayload");
        b.advance(4);
        let at = b.as_ptr();
        let tail = b.freeze();
        assert_eq!(tail.as_ptr(), at);
        assert_eq!(tail, Bytes::from_static(b"payload"));
    }

    #[test]
    fn copy_to_bytes_on_bytes_is_a_view() {
        let mut b = Bytes::from(b"0123456789".to_vec());
        let whole = b.clone();
        b.advance(2);
        let mid = b.copy_to_bytes(3);
        assert_eq!(mid, Bytes::from_static(b"234"));
        assert_eq!(mid.as_ptr(), whole[2..].as_ptr());
        assert_eq!(b.as_ptr(), whole[5..].as_ptr());
    }

    #[test]
    fn split_to_everything_hands_the_buffer_over() {
        let mut b = BytesMut::with_capacity(64);
        b.extend_from_slice(b"HHHHframe");
        b.advance(4);
        let at = b.as_ptr();
        let frame = b.split_to(b.len());
        assert_eq!(frame.as_ptr(), at);
        assert!(b.is_empty());
        let frozen = frame.freeze();
        assert_eq!(frozen.as_ptr(), at);
        assert_eq!(frozen, Bytes::from_static(b"frame"));
        // The emptied source is still a working buffer.
        b.extend_from_slice(b"next");
        assert_eq!(&b[..], b"next");
        assert_eq!(b.split().freeze(), Bytes::from_static(b"next"));
    }

    #[test]
    fn partial_split_to_copies_and_leaves_the_rest() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abcdef");
        let at = b.as_ptr();
        let rest_at = b[2..].as_ptr();
        let head = b.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&b[..], b"cdef");
        assert_ne!(head.as_ptr(), at, "a partial split copies");
        // What is left is handed over in place once it is all that remains.
        assert_eq!(b.split_to(4).freeze().as_ptr(), rest_at);
        assert!(b.is_empty());
    }

    #[test]
    fn spare_capacity_is_written_in_place_and_counted_by_set_len() {
        let mut b = BytesMut::with_capacity(16);
        b.extend_from_slice(b"HHHH");
        b.advance(2);
        let at = b.as_ptr();
        let spare = b.spare_capacity_mut();
        assert_eq!(spare.len(), 12, "the room past the buffered bytes");
        for (slot, &byte) in spare.iter_mut().zip(b"abc") {
            slot.write(byte);
        }
        // SAFETY: three bytes of the spare room were written just above.
        unsafe { b.set_len(5) };
        assert_eq!(&b[..], b"HHabc");
        assert_eq!(b.as_ptr(), at, "written where it lies, no copy");
        assert_eq!(b.capacity(), 14);
        assert_eq!(b.freeze().as_ptr(), at);
    }

    #[test]
    fn set_len_can_shorten() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abcdef");
        // SAFETY: shortening leaves only initialised bytes counted.
        unsafe { b.set_len(2) };
        assert_eq!(&b[..], b"ab");
        assert_eq!(b.spare_capacity_mut().len(), b.capacity() - 2);
    }

    #[test]
    fn slice_buf_advances() {
        let mut s: &[u8] = &[9, 1, 0, 0, 0];
        assert_eq!(s.get_u8(), 9);
        assert_eq!(s.get_u32_le(), 1);
        assert_eq!(s.remaining(), 0);
    }
}
