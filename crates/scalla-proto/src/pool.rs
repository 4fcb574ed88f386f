//! Reusable frame-buffer pool for the wire hot path.
//!
//! The TCP runtime encodes every outgoing message into a length-prefixed
//! frame. Allocating a fresh buffer per frame puts an allocator round-trip
//! on the metadata path the paper works so hard to keep flat (§VI: "compact
//! data structures", "constant time algorithms in all high-use paths").
//! [`BufferPool`] recycles encode buffers instead: the steady-state send
//! path pops a warm buffer, encodes a batch of frames into it, and whoever
//! writes the batch to the socket returns it — zero allocations once the
//! pool is primed.

use bytes::BytesMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Initial capacity of a freshly allocated pool buffer; sized for the
/// common control frames (locate/have/redirect are tens of bytes).
const FRESH_CAPACITY: usize = 4096;

/// A bounded free-list of reusable encode buffers.
///
/// Thread-safe: producers (`get`) and consumers (`put`) may race freely.
/// The pool never holds more than `max_pooled` buffers; extras returned
/// beyond that are simply dropped, which bounds memory under bursts.
pub struct BufferPool {
    free: Mutex<Vec<BytesMut>>,
    max_pooled: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// Creates a pool that retains at most `max_pooled` idle buffers.
    pub fn new(max_pooled: usize) -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::with_capacity(max_pooled.min(64))),
            max_pooled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Takes an empty buffer, reusing a pooled one when available. Hand it
    /// back with [`BufferPool::put`] once its bytes are on the wire.
    ///
    /// ```
    /// use scalla_proto::{encode_frame, BufferPool, CmsMsg, Msg};
    ///
    /// let pool = BufferPool::new(8);
    /// let msg: Msg = CmsMsg::Locate { reqid: 1, path: "/f".into(), hash: 9, write: false }.into();
    /// let mut frame = pool.get();
    /// encode_frame(&msg, &mut frame);
    /// assert!(frame.len() > 4, "length prefix plus payload");
    /// pool.put(frame);
    /// let again = pool.get();
    /// assert_eq!(pool.hits(), 1, "the second get reuses the first buffer");
    /// assert!(again.is_empty(), "cleared, capacity kept");
    /// pool.put(again);
    /// ```
    pub fn get(&self) -> BytesMut {
        if let Some(buf) = self.free.lock().expect("pool lock").pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            buf
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            BytesMut::with_capacity(FRESH_CAPACITY)
        }
    }

    /// Returns a buffer to the pool (cleared; capacity kept for reuse).
    pub fn put(&self, mut buf: BytesMut) {
        buf.clear();
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn pooled(&self) -> usize {
        self.free.lock().expect("pool lock").len()
    }

    /// `get` calls served from the free-list.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// `get` calls that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Msg, ServerMsg};
    use crate::wire::{encode_frame, FrameDecoder};

    #[test]
    fn pooled_frames_decode_identically() {
        let pool = BufferPool::new(4);
        let msg: Msg = ServerMsg::Redirect { host: "sup-1".into(), lease: None }.into();
        let mut frame = pool.get();
        encode_frame(&msg, &mut frame);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert_eq!(dec.next().unwrap(), Some(msg));
        pool.put(frame);
    }

    #[test]
    fn pool_is_bounded_and_reuses() {
        let pool = BufferPool::new(2);
        let a = pool.get();
        let b = pool.get();
        let c = pool.get();
        assert_eq!(pool.misses(), 3);
        pool.put(a);
        pool.put(b);
        pool.put(c); // beyond max_pooled: dropped
        assert_eq!(pool.pooled(), 2);
        let _d = pool.get();
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn returned_buffers_come_back_empty() {
        let pool = BufferPool::new(2);
        let mut frame = pool.get();
        encode_frame(&ServerMsg::CloseOk.into(), &mut frame);
        assert!(!frame.is_empty());
        pool.put(frame);
        assert!(pool.get().is_empty());
    }

    #[test]
    fn concurrent_get_put_is_safe() {
        let pool = std::sync::Arc::new(BufferPool::new(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let buf = pool.get();
                    pool.put(buf);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.pooled() <= 8);
    }
}
