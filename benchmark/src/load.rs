//! Load-generating nodes: the gate that holds a client until its phase
//! starts, and the pipelined resolve generator of `resolve_storm`.

use scalla::client::ClientNode;
use scalla::prelude::*;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;

/// Source address of the harness's "go" message (no node has it).
pub const KICK_FROM: Addr = Addr(u64::MAX - 1);

/// A node that runs a finite script.
pub trait Load: Node {
    fn finished(&self) -> bool;
}

impl Load for ClientNode {
    fn finished(&self) -> bool {
        self.is_done()
    }
}

/// Holds a load node idle until the harness kicks it over its own
/// socket, then reports on `done` when its script completes. This is
/// what separates the untimed warm phase from the measured one without
/// polling: warm and measured clients are distinct nodes of one net.
pub struct Gated<L: Load> {
    pub inner: L,
    held: bool,
    done: Option<Sender<()>>,
}

impl<L: Load> Gated<L> {
    pub fn new(inner: L, done: Sender<()>) -> Gated<L> {
        Gated { inner, held: true, done: Some(done) }
    }

    fn report(&mut self) {
        if self.inner.finished() {
            if let Some(done) = self.done.take() {
                // The harness may have given up waiting; nothing to do then.
                let _ = done.send(());
            }
        }
    }
}

impl<L: Load + 'static> Node for Gated<L> {
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if self.held {
            if from == KICK_FROM {
                self.held = false;
                self.inner.on_start(ctx);
            }
        } else {
            self.inner.on_message(ctx, from, msg);
        }
        self.report();
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.inner.on_timer(ctx, token);
        self.report();
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One answered resolve.
#[derive(Clone, Debug)]
pub struct StormReply {
    pub start: Nanos,
    pub end: Nanos,
    /// The redirect target, or `None` for any other reply.
    pub host: Option<String>,
}

/// Requests a [`Storm`] keeps outstanding at the manager.
const STORM_WINDOW: usize = 32;

/// Keeps [`STORM_WINDOW`] `ClientMsg::Open` requests outstanding at the
/// manager on one connection and records each reply. It never opens the file:
/// an operation here is Open → Redirect, the manager's share of an open.
pub struct Storm {
    manager: Addr,
    paths: Vec<String>,
    next: usize,
    in_flight: VecDeque<Nanos>,
    pub replies: Vec<StormReply>,
}

impl Storm {
    pub fn new(manager: Addr, paths: Vec<String>) -> Storm {
        let replies = Vec::with_capacity(paths.len());
        Storm { manager, paths, next: 0, in_flight: VecDeque::new(), replies }
    }

    fn issue(&mut self, ctx: &mut dyn NetCtx) {
        let path = self.paths[self.next].clone();
        self.next += 1;
        self.in_flight.push_back(ctx.now());
        // Odd and unique per request, like the client driver's ids.
        ctx.set_trace(((self.next as u64) << 1) | 1);
        ctx.send(
            self.manager,
            ClientMsg::Open { path, write: false, refresh: false, avoid: None }.into(),
        );
    }
}

impl Load for Storm {
    fn finished(&self) -> bool {
        self.replies.len() == self.paths.len()
    }
}

impl Node for Storm {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        while self.next < self.paths.len() && self.in_flight.len() < STORM_WINDOW {
            self.issue(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        if from != self.manager {
            return;
        }
        let Some(start) = self.in_flight.pop_front() else { return };
        let host = match msg {
            Msg::Server(ServerMsg::Redirect { host, .. }) => Some(host),
            _ => None,
        };
        self.replies.push(StormReply { start, end: ctx.now(), host });
        if self.next < self.paths.len() {
            self.issue(ctx);
        }
    }
}
