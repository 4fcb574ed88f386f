//! The largest allocation a `LiveNet` makes, measured.
//!
//! A node's mailbox allocates only as messages fill it: building a net,
//! exchanging one request and its reply and shutting down never asks the
//! allocator for a large block on the caller's thread. A recording global
//! allocator (per thread, so the harness's other test threads do not
//! count) records the largest allocation made there.

use scalla_proto::{Addr, ClientMsg, Msg, ServerMsg};
use scalla_sim::{assert_poll, LiveNet};
use scalla_simnet::{NetCtx, Node};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The system allocator, recording the largest allocation (fresh or
/// grown) made on each thread.
struct Recording;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // A thread being torn down has no record left; nothing counts there.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the record is a const-initialised
// thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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
static RECORDING: Recording = Recording;

/// Answers every `Open` with `OpenOk`.
struct Echo;
impl Node for Echo {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if matches!(msg, Msg::Client(ClientMsg::Open { .. })) {
            ctx.send(from, ServerMsg::OpenOk { handle: 42 }.into());
        }
    }
}

/// Asks `peer` once from `on_start` and counts the replies.
struct Asker {
    peer: Addr,
    replies: Arc<AtomicU64>,
}
impl Node for Asker {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        let open = ClientMsg::Open { path: "/f".into(), write: false, refresh: false, avoid: None };
        ctx.send(self.peer, open.into());
    }
    fn on_message(&mut self, _: &mut dyn NetCtx, _: Addr, msg: Msg) {
        if matches!(msg, Msg::Server(ServerMsg::OpenOk { handle: 42 })) {
            self.replies.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// A two-node net, one round trip and a shutdown: a mailbox that laid out
/// all 65 536 of its places when it was made (≈ 10 MiB at 160 bytes an
/// envelope) would show here as one allocation per `add_node`.
#[test]
fn a_live_net_allocates_no_mailbox_up_front() {
    const MIB: usize = 1 << 20;
    let replies = Arc::new(AtomicU64::new(0));
    let mut net = LiveNet::new();
    let echo = net.add_node(Box::new(Echo));
    net.add_node(Box::new(Asker { peer: echo, replies: replies.clone() }));
    net.start();
    assert_poll(Duration::from_secs(10), "the round trip", || replies.load(Ordering::SeqCst) == 1);
    assert_eq!(net.counters().total_mailbox_drops(), 0);
    assert_eq!(net.shutdown().len(), 2);
    let largest = LARGEST.with(Cell::get);
    assert!(largest < MIB, "the test thread's largest allocation was {largest} bytes");
}
