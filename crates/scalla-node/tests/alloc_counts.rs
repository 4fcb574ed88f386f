//! Allocations per manager request, counted.
//!
//! A request's path through a node should allocate only what the message
//! types force: the decoded path `String` on the way in, and the
//! `Redirect`'s host name on the way out. A counting global allocator
//! (per thread, so the harness's other test threads do not count) turns
//! that into two exact assertions. A bulk frame read off a socket should
//! cost the storage its payload keeps and the next read's buffer, and no
//! allocation larger than its frame.

use bytes::{Bytes, BytesMut};
use scalla_node::{CmsdConfig, CmsdNode};
use scalla_proto::{
    encode_frame, Addr, ClientMsg, CmsMsg, FrameDecoder, Msg, NodeRoleTag, ServerMsg,
};
use scalla_simnet::{MockCtx, Node};
use scalla_util::{crc32, VirtualClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// The system allocator, counting the allocations (fresh or grown) made
/// on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest allocation (fresh or grown) made on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // A thread being torn down has no counter left; nothing counts there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const PATH: &str = "/store/data/run01234/events-0005678.root";

fn open(path: &str) -> Msg {
    ClientMsg::Open { path: path.to_string(), write: false, refresh: false, avoid: None }.into()
}

/// One burst of 32 `Open` frames, as one `read` hands them to the
/// decoder: each frame costs its path, and nothing else. A frame copied
/// out of the read buffer would cost a `Vec` and a `Bytes` more.
#[test]
fn a_burst_of_opens_decodes_with_one_allocation_per_frame() {
    const FRAMES: usize = 32;
    let mut wire = BytesMut::new();
    for _ in 0..FRAMES {
        encode_frame(&open(PATH), &mut wire);
    }
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::with_capacity(FRAMES);
    // Twice: the second burst lands in the buffer the first one used.
    for _ in 0..2 {
        dec.feed(&wire);
        let (n, ()) = allocations(|| {
            while let Some(frame) = dec.next_traced().expect("valid frames") {
                frames.push(frame);
            }
        });
        assert_eq!(frames.len(), FRAMES);
        assert!(frames.iter().all(|(_, m)| *m == open(PATH)));
        assert_eq!(n, FRAMES as u64, "one allocation per frame: its path");
        frames.clear();
    }
}

/// A manager answering a cache-hit `Open` allocates the `Redirect`'s host
/// name and nothing else: the export match, the membership sets, the cache
/// hit and the selection all work where their data lies.
#[test]
fn a_cache_hit_open_allocates_only_the_redirect_host() {
    let mut mgr = CmsdNode::new(CmsdConfig::manager("mgr"), Arc::new(VirtualClock::new()));
    let mut ctx = MockCtx::new();
    let (server, client) = (Addr(1), Addr(2));
    let login = CmsMsg::Login {
        name: "srv-0".into(),
        role: NodeRoleTag::Server,
        exports: vec!["/store".into()],
    };
    mgr.on_message(&mut ctx, server, login.into());
    // The first open misses and floods; the server's `Have` releases it.
    mgr.on_message(&mut ctx, client, open(PATH));
    let have =
        CmsMsg::Have { reqid: 1, path: PATH.into(), hash: crc32(PATH.as_bytes()), staging: false };
    mgr.on_message(&mut ctx, server, have.into());
    mgr.on_message(&mut ctx, client, open(PATH)); // a hit: `MockCtx` has room for its send now
    const OPENS: usize = 16;
    let requests: Vec<Msg> = (0..OPENS).map(|_| open(PATH)).collect();
    for request in requests {
        ctx.sends.clear();
        ctx.send_traces.clear();
        let (n, ()) = allocations(|| mgr.on_message(&mut ctx, client, request));
        assert!(
            matches!(&ctx.sends[..], [(to, Msg::Server(ServerMsg::Redirect { host, .. }))] if *to == client && host == "srv-0"),
            "{:?}",
            ctx.sends
        );
        assert_eq!(n, 1, "a cache hit allocates the redirect's host name only");
    }
}

/// One 64 KiB `Data` frame with a `CloseOk` behind it, read off a socket
/// as a TCP reader does (`FrameDecoder::recv_from`, then every frame
/// drained). Four allocations: the first read's buffer, its growth to the
/// frame's size once the length is in (the payload then keeps that
/// storage), the payload's `Bytes`, and the buffer the rider is read into
/// (as large as the frame, ready for the next one). None is larger than
/// the frame. A reader that bounced each read through an array and copied
/// the payload out because the rider shared its buffer made five, the
/// largest past the frame.
#[test]
fn a_received_bulk_frame_allocates_nothing_past_its_frame() {
    let msg: Msg = ServerMsg::Data { data: Bytes::from(vec![0x5A; 64 << 10]) }.into();
    let mut wire = BytesMut::new();
    encode_frame(&msg, &mut wire);
    let frame = wire.len();
    encode_frame(&ServerMsg::CloseOk.into(), &mut wire);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut tx = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
    let (rx, _) = listener.accept().expect("accept");
    tx.write_all(&wire).expect("both frames wait in the socket"); // before any read
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::with_capacity(2);
    LARGEST.with(|m| m.set(0));
    let (n, ()) = allocations(|| {
        while frames.len() < 2 {
            assert!(dec.recv_from(&rx).expect("recv") > 0, "the stream ended early");
            while let Some((_, m)) = dec.next_traced().expect("valid frames") {
                frames.push(m);
            }
        }
    });
    assert_eq!(frames, [msg, ServerMsg::CloseOk.into()]);
    assert_eq!(n, 4, "read buffer, grown to the frame, the payload's Bytes, the rider's buffer");
    let largest = LARGEST.with(Cell::get);
    assert!(largest <= frame, "an allocation of {largest} bytes for a {frame}-byte frame");
}
