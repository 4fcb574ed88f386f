//! Compact binary wire codec.
//!
//! A small format: one tag byte per enum variant, little-endian
//! fixed-width integers, and u32-length-prefixed strings/byte blobs. It is
//! deliberately free of reflection and allocation beyond the payloads
//! themselves — the cmsd hot path encodes a `Locate`/`Have` in a handful of
//! stores.
//!
//! The in-process runtimes bypass this codec (they move the enums); it
//! exists so the protocol can cross real sockets.
//!
//! ## One table per message family
//!
//! Each field type implements the private `Wire` trait once, and each
//! family is one `wire_enum!` table: one line per variant, its tag byte
//! then its fields in wire order, from which both the encoder and the
//! decoder are generated. Adding a message or a field is one table line. A
//! tag is never reused: a retired variant's number stays retired, so an old
//! frame never decodes as a different message. `Redirect` is the one
//! variant written by hand, as its lease picks its tag.
//!
//! ## Trace envelope (version negotiation)
//!
//! A frame may optionally be wrapped in a *trace envelope*: tag byte
//! `0x40`, a `u64` little-endian trace id, then the plain encoded message.
//! The envelope is negotiated by construction rather than by handshake:
//! decoders accept both enveloped and plain frames (so an instrumented node
//! interoperates with an uninstrumented one), and a zero trace id encodes
//! as a plain frame (so untraced traffic is byte-identical to the
//! pre-envelope format). Nested envelopes are rejected.

use crate::msg::{
    ClientMsg, CmsMsg, ErrCode, HistDelta, Lease, MonMsg, MonSpan, Msg, NodeRoleTag, ServerMsg,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::borrow::Cow;
use std::io::IoSlice;
use std::mem::MaybeUninit;
use std::os::fd::{AsRawFd, RawFd};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message did.
    Truncated,
    /// Unknown tag byte for the given position.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A declared length exceeded sanity limits.
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any length-prefixed field (paths, payloads): 64 MiB.
const MAX_FIELD: u64 = 64 << 20;

/// Top-level tag of a trace envelope: `[0x40][u64 trace_id][message]`.
const TRACE_ENVELOPE_TAG: u8 = 0x40;

/// A payload at least this long is left out of a [`Gather`]'s buffer and
/// written from its own storage. A shorter one costs less to copy than to
/// gather: with 4 KiB payloads gathered too, `warm_open` and `leased_mix`
/// (4 KiB `Data` and `Write` bodies) ran no faster and used no less CPU.
const OUT_OF_LINE: usize = 16 << 10;

/// Where a message is encoded: its bytes go to `head`; with `bodies`, a
/// payload of at least [`OUT_OF_LINE`] bytes is kept by reference there
/// instead, with the length of `head` it follows.
struct Out<'a> {
    head: &'a mut BytesMut,
    bodies: Option<&'a mut Vec<(usize, Bytes)>>,
}

impl BufMut for Out<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        self.head.put_slice(src);
    }
}

/// A field type's wire form: `put` appends it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, buf: &mut Out<'_>);
    fn get(buf: &mut impl Buf) -> Result<Self, WireError>;
}

fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    (buf.remaining() >= n).then_some(()).ok_or(WireError::Truncated)
}

/// Appends a `u32` length prefix and the bytes it counts.
fn put_prefixed(buf: &mut Out<'_>, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// Reads a `u32` length prefix, bounded by [`MAX_FIELD`].
fn get_len(buf: &mut impl Buf) -> Result<usize, WireError> {
    let n = u64::from(u32::get(buf)?);
    if n > MAX_FIELD {
        return Err(WireError::BadLength(n));
    }
    Ok(n as usize)
}

macro_rules! wire_int {
    ($($t:ty: $put:ident, $get:ident;)+) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Out<'_>) {
                buf.$put(*self);
            }
            fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
                need(buf, std::mem::size_of::<$t>())?;
                Ok(buf.$get())
            }
        }
    )+};
}

wire_int! {
    u8: put_u8, get_u8;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
}

impl Wire for bool {
    fn put(&self, buf: &mut Out<'_>) {
        buf.put_u8(*self as u8);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Out<'_>) {
        put_prefixed(buf, self.as_bytes());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        let n = get_len(buf)?;
        need(buf, n)?;
        // Checked where it lies, then copied once into the string's own
        // allocation (every `Buf` here is one contiguous chunk).
        let s = std::str::from_utf8(&buf.chunk()[..n]).map_err(|_| WireError::BadUtf8)?.to_owned();
        buf.advance(n);
        Ok(s)
    }
}

/// Borrowed labels encode as strings; decoding yields the owned form.
impl Wire for Cow<'static, str> {
    fn put(&self, buf: &mut Out<'_>) {
        put_prefixed(buf, self.as_bytes());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        String::get(buf).map(Cow::Owned)
    }
}

/// A large payload encoded for a [`Gather`] is not copied: the gather
/// keeps a clone of it, to be written where it lies.
impl Wire for Bytes {
    fn put(&self, buf: &mut Out<'_>) {
        buf.put_u32_le(self.len() as u32);
        match &mut buf.bodies {
            Some(bodies) if self.len() >= OUT_OF_LINE => {
                bodies.push((buf.head.len(), self.clone()))
            }
            _ => buf.put_slice(self),
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        let n = get_len(buf)?;
        need(buf, n)?;
        Ok(buf.copy_to_bytes(n))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Out<'_>) {
        self.is_some().put(buf);
        if let Some(x) = self {
            x.put(buf);
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Out<'_>) {
        buf.put_u32_le(self.len() as u32);
        for x in self {
            x.put(buf);
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        let n = get_len(buf)?;
        // A length is only a claim until its elements arrive.
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::get(buf)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Out<'_>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

/// Declares a struct's wire form: its fields, in wire order.
macro_rules! wire_struct {
    ($($name:ident { $($field:ident),+ })+) => {$(
        impl Wire for $name {
            fn put(&self, buf: &mut Out<'_>) {
                $(self.$field.put(buf);)+
            }
            fn get(buf: &mut impl Buf) -> Result<Self, WireError> {
                Ok($name { $($field: Wire::get(buf)?),+ })
            }
        }
    )+};
}

wire_struct! {
    Lease { ttl_millis, epoch }
    HistDelta { key, buckets, count, sum, min, max }
    MonSpan { trace, stage, verdict, depth, t_ns, elapsed_ns }
}

/// Declares an enum's wire form: one line per variant, its tag byte then
/// its fields in wire order (a tuple variant's one field in parentheses).
/// A variant whose tag depends on a field's value is written by hand in a
/// leading `put` arm and one `get` arm per tag, which name the buffer `$buf`.
macro_rules! wire_enum {
    (
        $name:ident($buf:ident) {
            $(put $pp:pat => $pe:expr;)?
            $(get $gt:literal => $ge:expr;)*
            $($tag:literal => $variant:ident $(($inner:ident))? $({ $($field:ident),* })?,)+
        }
    ) => {
        impl Wire for $name {
            fn put(&self, $buf: &mut Out<'_>) {
                match self {
                    $($pp => $pe,)?
                    $($name::$variant $(($inner))? $({ $($field),* })? => {
                        $buf.put_u8($tag);
                        $($inner.put($buf);)?
                        $($($field.put($buf);)*)?
                    })+
                }
            }
            fn get($buf: &mut impl Buf) -> Result<Self, WireError> {
                Ok(match u8::get($buf)? {
                    $($gt => $ge,)*
                    $($tag => {
                        $(let $inner = Wire::get($buf)?;)?
                        $($(let $field = Wire::get($buf)?;)*)?
                        $name::$variant $(($inner))? $({ $($field),* })?
                    })+
                    t => return Err(WireError::BadTag(t)),
                })
            }
        }
    };
}

wire_enum! {
    Msg(buf) {
        0x10 => Client(m),
        0x20 => Server(m),
        0x30 => Cms(m),
        0x50 => Mon(m),
    }
}

wire_enum! {
    ClientMsg(buf) {
        0 => Open { path, write, refresh, avoid },
        1 => Read { handle, offset, len },
        2 => Write { handle, offset, data },
        3 => Close { handle },
        4 => Stat { path },
        5 => Prepare { paths },
        6 => List { dir },
    }
}

wire_enum! {
    ServerMsg(buf) {
        // A lease-less Redirect keeps the original tag and layout, so a
        // pre-lease decoder reads it unchanged (the same negotiation by
        // construction as the trace envelope); a leased one takes tag 10.
        put ServerMsg::Redirect { host, lease } => {
            buf.put_u8(if lease.is_some() { 10 } else { 0 });
            host.put(buf);
            if let Some(l) = lease { l.put(buf) }
        };
        get 0 => ServerMsg::Redirect { host: Wire::get(buf)?, lease: None };
        get 10 => ServerMsg::Redirect { host: Wire::get(buf)?, lease: Some(Wire::get(buf)?) };
        1 => Wait { millis },
        2 => OpenOk { handle },
        3 => Data { data },
        4 => WriteOk { len },
        5 => CloseOk,
        6 => StatOk { size, online },
        7 => PrepareOk,
        8 => Error { code, detail },
        9 => ListOk { entries },
    }
}

wire_enum! {
    CmsMsg(buf) {
        0 => Login { name, role, exports },
        1 => LoginOk { slot },
        2 => LoginRejected { reason },
        3 => Locate { reqid, path, hash, write },
        4 => Have { reqid, path, hash, staging },
        5 => LoadReport { load, free_bytes, overloaded },
        6 => Manifest { name, files },
        7 => NsEvent { created, path },
    }
}

wire_enum! {
    MonMsg(buf) {
        0 => Summary { node, role, seq, full, counters, gauges, hists },
        1 => Spans { node, spans },
        2 => Resync,
    }
}

wire_enum! {
    ErrCode(buf) {
        0 => NotFound,
        1 => NoEligibleServer,
        2 => BadRequest,
        3 => IoError,
        4 => Retry,
        // 5 was `Overloaded`, retired with admission control.
    }
}

wire_enum! {
    NodeRoleTag(buf) {
        0 => Supervisor,
        1 => Server,
        2 => Proxy,
    }
}

/// Encodes a message, appending to `buf`.
pub fn encode_msg(msg: &Msg, buf: &mut BytesMut) {
    msg.put(&mut Out { head: buf, bodies: None });
}

/// Encodes a message wrapped in a trace envelope. A zero `trace` id encodes
/// as a plain message — byte-identical to [`encode_msg`] — so untraced
/// traffic pays nothing and stays decodable by pre-envelope peers.
fn encode_msg_traced(msg: &Msg, trace: u64, buf: &mut Out<'_>) {
    if trace != 0 {
        buf.put_u8(TRACE_ENVELOPE_TAG);
        buf.put_u64_le(trace);
    }
    msg.put(buf);
}

/// [`decode_msg_traced`] without the trace id.
#[cfg(test)]
fn decode_msg(buf: &mut impl Buf) -> Result<Msg, WireError> {
    decode_msg_traced(buf).map(|(_, msg)| msg)
}

/// Decodes one message plus its trace id (0 when the frame was plain).
fn decode_msg_traced(buf: &mut impl Buf) -> Result<(u64, Msg), WireError> {
    let mut trace = 0;
    if buf.chunk().first() == Some(&TRACE_ENVELOPE_TAG) {
        buf.advance(1);
        // Exactly one envelope: the tag after it must open a message family.
        trace = u64::get(buf)?;
    }
    Ok((trace, Msg::get(buf)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The traced encoding into a plain buffer.
    fn encode_msg_traced(msg: &Msg, trace: u64, buf: &mut BytesMut) {
        super::encode_msg_traced(msg, trace, &mut Out { head: buf, bodies: None });
    }

    fn roundtrip(msg: Msg) {
        let mut buf = BytesMut::new();
        encode_msg(&msg, &mut buf);
        let mut slice = buf.freeze();
        let decoded = decode_msg(&mut slice).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(slice.remaining(), 0, "codec must consume exactly its bytes");
    }

    #[test]
    fn roundtrip_all_variants() {
        let cases: Vec<Msg> = vec![
            ClientMsg::Open {
                path: "/store/f.root".into(),
                write: true,
                refresh: false,
                avoid: Some("srv-3".into()),
            }
            .into(),
            ClientMsg::Open { path: "/f".into(), write: false, refresh: true, avoid: None }.into(),
            ClientMsg::Read { handle: 9, offset: 4096, len: 65536 }.into(),
            ClientMsg::Write { handle: 9, offset: 0, data: Bytes::from_static(b"hello") }.into(),
            ClientMsg::Close { handle: 9 }.into(),
            ClientMsg::Stat { path: "/f".into() }.into(),
            ClientMsg::Prepare { paths: vec!["/a".into(), "/b".into()] }.into(),
            ServerMsg::Redirect { host: "sup-1".into(), lease: None }.into(),
            ServerMsg::Redirect {
                host: "srv-9".into(),
                lease: Some(Lease { ttl_millis: 7_500, epoch: 42 }),
            }
            .into(),
            ServerMsg::Wait { millis: 5000 }.into(),
            ServerMsg::OpenOk { handle: 77 }.into(),
            ServerMsg::Data { data: Bytes::from_static(&[0, 1, 2, 255]) }.into(),
            ServerMsg::WriteOk { len: 5 }.into(),
            ServerMsg::CloseOk.into(),
            ServerMsg::StatOk { size: 1 << 33, online: false }.into(),
            ServerMsg::PrepareOk.into(),
            ServerMsg::Error { code: ErrCode::NotFound, detail: "no such file".into() }.into(),
            CmsMsg::Login {
                name: "srv-a".into(),
                role: NodeRoleTag::Server,
                exports: vec!["/atlas".into(), "/cms".into()],
            }
            .into(),
            CmsMsg::LoginOk { slot: 63 }.into(),
            CmsMsg::LoginRejected { reason: "full".into() }.into(),
            CmsMsg::Locate { reqid: 1, path: "/f".into(), hash: 0xDEAD_BEEF, write: false }.into(),
            CmsMsg::Have { reqid: 1, path: "/f".into(), hash: 0xDEAD_BEEF, staging: true }.into(),
            CmsMsg::LoadReport { load: 12, free_bytes: u64::MAX, overloaded: true }.into(),
            CmsMsg::Manifest { name: "srv-b".into(), files: vec!["/a/1".into(), "/a/2".into()] }
                .into(),
            ClientMsg::List { dir: "/store/run1".into() }.into(),
            ServerMsg::ListOk { entries: vec!["f1.root".into(), "f2.root".into()] }.into(),
            CmsMsg::NsEvent { created: true, path: "/store/run1/f3.root".into() }.into(),
            MonMsg::Summary {
                node: "srv-1".into(),
                role: "server".into(),
                seq: 42,
                full: false,
                counters: vec![("scalla_opens_total".into(), 7), ("x{y=\"z\"}".into(), 0)],
                gauges: vec![("scalla_queue_depth".into(), 3)],
                hists: vec![HistDelta {
                    key: "scalla_stage_ns{stage=\"resolve\"}".into(),
                    buckets: vec![(0, 1), (137, 4), (319, 2)],
                    count: 7,
                    sum: 12345,
                    min: 10,
                    max: 1 << 40,
                }],
            }
            .into(),
            MonMsg::Summary {
                node: "c".into(),
                role: "client".into(),
                seq: 1,
                full: true,
                counters: vec![],
                gauges: vec![],
                hists: vec![],
            }
            .into(),
            MonMsg::Spans {
                node: "pxy-0".into(),
                spans: vec![MonSpan {
                    trace: 0xABCD,
                    stage: "pcache_fill".into(),
                    verdict: "origin".into(),
                    depth: 2,
                    t_ns: 999,
                    elapsed_ns: 5000,
                }],
            }
            .into(),
            MonMsg::Resync.into(),
        ];
        for msg in cases {
            roundtrip(msg);
        }
    }

    #[test]
    fn truncated_monitor_summary_errors_not_panics() {
        let msg: Msg = MonMsg::Summary {
            node: "srv-9".into(),
            role: "server".into(),
            seq: 3,
            full: true,
            counters: vec![("a_total".into(), 1)],
            gauges: vec![("g".into(), 2)],
            hists: vec![HistDelta {
                key: "h".into(),
                buckets: vec![(1, 1)],
                count: 1,
                sum: 9,
                min: 9,
                max: 9,
            }],
        }
        .into();
        let mut buf = BytesMut::new();
        encode_msg(&msg, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(decode_msg(&mut partial).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn monitor_frames_carry_trace_envelopes_too() {
        // Monitoring traffic is normally untraced, but the envelope must
        // still compose with the 0x50 family.
        let msg: Msg = MonMsg::Resync.into();
        let mut buf = BytesMut::new();
        encode_msg_traced(&msg, 0x51, &mut buf);
        let mut slice = buf.freeze();
        assert_eq!(decode_msg_traced(&mut slice).unwrap(), (0x51, msg));
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let msg: Msg =
            CmsMsg::Locate { reqid: 42, path: "/some/long/path".into(), hash: 7, write: true }
                .into();
        let mut buf = BytesMut::new();
        encode_msg(&msg, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(decode_msg(&mut partial).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut b = Bytes::from_static(&[0x99]);
        assert_eq!(decode_msg(&mut b), Err(WireError::BadTag(0x99)));
        let mut b = Bytes::from_static(&[0x10, 0xEE]);
        assert_eq!(decode_msg(&mut b), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn implausible_length_rejected() {
        // Client Stat with a 4 GiB path length.
        let mut buf = BytesMut::new();
        buf.put_u8(0x10);
        buf.put_u8(4);
        buf.put_u32_le(u32::MAX);
        let mut b = buf.freeze();
        assert!(matches!(decode_msg(&mut b), Err(WireError::BadLength(_))));
    }

    #[test]
    fn trace_envelope_roundtrips() {
        let msg: Msg = CmsMsg::Locate { reqid: 5, path: "/t".into(), hash: 3, write: false }.into();
        let mut buf = BytesMut::new();
        encode_msg_traced(&msg, 0xDEAD_BEEF_CAFE_0001, &mut buf);
        let mut slice = buf.freeze();
        let (trace, decoded) = decode_msg_traced(&mut slice).expect("decode");
        assert_eq!(trace, 0xDEAD_BEEF_CAFE_0001);
        assert_eq!(decoded, msg);
        assert_eq!(slice.remaining(), 0);
    }

    #[test]
    fn zero_trace_encodes_as_plain_frame() {
        let msg: Msg = ServerMsg::OpenOk { handle: 9 }.into();
        let mut plain = BytesMut::new();
        encode_msg(&msg, &mut plain);
        let mut traced = BytesMut::new();
        encode_msg_traced(&msg, 0, &mut traced);
        assert_eq!(plain, traced, "zero trace must be byte-identical to the plain encoding");
    }

    #[test]
    fn lease_less_redirect_encodes_as_pre_lease_bytes() {
        // Backward compatibility: a Redirect without a lease must encode
        // byte-identically to the pre-lease wire format, so old decoders
        // keep working and old frames decode unchanged.
        let msg: Msg = ServerMsg::Redirect { host: "sup-3".into(), lease: None }.into();
        let mut got = BytesMut::new();
        encode_msg(&msg, &mut got);

        let mut expect = BytesMut::new();
        expect.put_u8(0x20); // server family
        expect.put_u8(0); // legacy Redirect variant tag
        expect.put_u32_le(5);
        expect.put_slice(b"sup-3");
        assert_eq!(got, expect, "lease-less Redirect must match the legacy encoding exactly");
    }

    #[test]
    fn truncated_leased_redirect_errors_not_panics() {
        let msg: Msg = ServerMsg::Redirect {
            host: "srv-12".into(),
            lease: Some(Lease { ttl_millis: u64::MAX, epoch: 3 }),
        }
        .into();
        let mut buf = BytesMut::new();
        encode_msg(&msg, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(decode_msg(&mut partial).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn plain_frames_decode_with_no_trace() {
        let msg: Msg = ServerMsg::CloseOk.into();
        let mut buf = BytesMut::new();
        encode_msg(&msg, &mut buf);
        let mut slice = buf.freeze();
        assert_eq!(decode_msg_traced(&mut slice).unwrap(), (0, msg));
    }

    #[test]
    fn traced_frames_decode_through_plain_decoder() {
        // Version negotiation: a decoder that doesn't care about traces
        // still understands enveloped frames.
        let msg: Msg = ClientMsg::Stat { path: "/f".into() }.into();
        let mut buf = BytesMut::new();
        encode_msg_traced(&msg, 42, &mut buf);
        let mut slice = buf.freeze();
        assert_eq!(decode_msg(&mut slice).unwrap(), msg);
    }

    #[test]
    fn nested_trace_envelopes_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TRACE_ENVELOPE_TAG);
        buf.put_u64_le(1);
        buf.put_u8(TRACE_ENVELOPE_TAG);
        buf.put_u64_le(2);
        encode_msg(&ServerMsg::CloseOk.into(), &mut buf);
        let mut slice = buf.freeze();
        assert_eq!(decode_msg_traced(&mut slice), Err(WireError::BadTag(TRACE_ENVELOPE_TAG)));
    }

    #[test]
    fn truncated_trace_envelope_errors_not_panics() {
        let msg: Msg = CmsMsg::Have { reqid: 1, path: "/f".into(), hash: 2, staging: false }.into();
        let mut buf = BytesMut::new();
        encode_msg_traced(&msg, 77, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(decode_msg_traced(&mut partial).is_err(), "cut at {cut} must fail");
        }
    }

    proptest! {
        #[test]
        fn traced_roundtrips(trace: u64, reqid: u64, path in "[ -~]{0,32}") {
            let msg: Msg = CmsMsg::Locate { reqid, path, hash: 1, write: false }.into();
            let mut buf = BytesMut::new();
            encode_msg_traced(&msg, trace, &mut buf);
            let mut slice = buf.freeze();
            let (got_trace, got) = decode_msg_traced(&mut slice).unwrap();
            prop_assert_eq!(got_trace, trace);
            prop_assert_eq!(got, msg);
        }

        #[test]
        fn locate_roundtrips(reqid: u64, path in "[ -~]{0,64}", hash: u32, write: bool) {
            roundtrip(CmsMsg::Locate { reqid, path, hash, write }.into());
        }

        #[test]
        fn write_roundtrips(handle: u64, offset: u64, data in proptest::collection::vec(any::<u8>(), 0..256)) {
            roundtrip(ClientMsg::Write { handle, offset, data: Bytes::from(data) }.into());
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut b = Bytes::from(data);
            let _ = decode_msg(&mut b); // may error, must not panic
        }

        #[test]
        fn monitor_summary_roundtrips(
            seq: u64,
            full: bool,
            counters in proptest::collection::vec(("[ -~]{0,24}", any::<u64>()), 0..8),
            buckets in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..16),
        ) {
            let msg: Msg = MonMsg::Summary {
                node: "n".into(),
                role: "server".into(),
                seq,
                full,
                counters,
                gauges: vec![],
                hists: vec![HistDelta { key: "k".into(), buckets, count: 1, sum: 2, min: 3, max: 4 }],
            }
            .into();
            roundtrip(msg);
        }
    }
}

/// Maximum frame payload: a message plus framing must fit in 64 MiB + slack.
const MAX_FRAME: u32 = (MAX_FIELD as u32) + 1024;

/// How far past the bytes already buffered a frame's announced length may
/// make the decoder reserve: a header alone never commits more memory.
const RESERVE_AHEAD: usize = 1 << 20;

/// Most bytes a read asks for before a frame's length is in.
const READ_CHUNK: usize = 16 << 10;

/// Appends `msg` as a length-prefixed frame (`u32` little-endian length,
/// then the encoded message) — the stream form for real sockets.
pub fn encode_frame(msg: &Msg, buf: &mut BytesMut) {
    encode_frame_traced(msg, 0, buf);
}

/// [`encode_frame`] with a trace envelope; a zero `trace` id produces a
/// plain frame.
pub fn encode_frame_traced(msg: &Msg, trace: u64, buf: &mut BytesMut) {
    encode_frame_into(msg, trace, &mut Out { head: buf, bodies: None });
}

/// Appends one frame to `out`, its length counting the payloads left out
/// of `out.head` too, and returns their bytes.
fn encode_frame_into(msg: &Msg, trace: u64, out: &mut Out<'_>) -> usize {
    let at = out.head.len();
    let bodies_before = out.bodies.as_ref().map_or(0, |b| b.len());
    out.head.put_u32_le(0); // placeholder
    encode_msg_traced(msg, trace, out);
    let left_out =
        out.bodies.as_ref().map_or(0, |b| b[bodies_before..].iter().map(|(_, p)| p.len()).sum());
    let len = (out.head.len() - at - 4 + left_out) as u32;
    out.head[at..at + 4].copy_from_slice(&len.to_le_bytes());
    left_out
}

/// Frames on their way to one gather write (`sendmsg(2)`, `writev(2)`):
/// encoded back to back into one buffer, except that each payload of at
/// least 16 KiB (the body of a bulk `Data` or `Write`) stays in its own
/// storage, kept by a `Bytes` clone. [`Gather::slices`] lists the bytes
/// in wire order — buffer, payload, buffer, … — so the kernel copies a
/// large payload straight from where it lies. The bytes on the wire are
/// exactly those of [`encode_frame_traced`].
///
/// ```
/// use bytes::{Bytes, BytesMut};
/// use scalla_proto::{encode_frame, Gather, Msg, ServerMsg};
///
/// let data = Bytes::from(vec![7u8; 64 << 10]);
/// let msg: Msg = ServerMsg::Data { data: data.clone() }.into();
/// let mut wire = Gather::new(BytesMut::new());
/// wire.push(&msg, 0);
/// let slices: Vec<_> = wire.slices().collect();
/// assert_eq!(slices.len(), 2, "the frame's head, then the payload");
/// assert_eq!(slices[1].as_ptr(), data.as_ptr(), "written from where it lies");
/// let mut flat = BytesMut::new();
/// encode_frame(&msg, &mut flat);
/// let bytes: Vec<u8> = slices.iter().flat_map(|s| s.to_vec()).collect();
/// assert_eq!(bytes, flat.to_vec(), "the frame's bytes, unchanged");
/// ```
#[derive(Default)]
pub struct Gather {
    head: BytesMut,
    /// Each payload left out of `head`, after the `head` bytes before `.0`.
    bodies: Vec<(usize, Bytes)>,
    /// Bytes of the payloads left out.
    body_len: usize,
    /// Bytes already written, from the front.
    sent: usize,
}

impl Gather {
    /// A gather that encodes into `head` (a pooled buffer), behind any
    /// bytes it already holds, which go out first.
    pub fn new(head: BytesMut) -> Gather {
        Gather { head, ..Gather::default() }
    }

    /// Appends `msg` as one frame, as [`encode_frame_traced`] would.
    pub fn push(&mut self, msg: &Msg, trace: u64) {
        let mut out = Out { head: &mut self.head, bodies: Some(&mut self.bodies) };
        self.body_len += encode_frame_into(msg, trace, &mut out);
    }

    /// Bytes not yet written.
    pub fn len(&self) -> usize {
        self.head.len() + self.body_len - self.sent
    }

    /// Whether every byte is written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the next `n` bytes written.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past the end");
        self.sent += n;
    }

    /// The bytes not yet written, in wire order, as slices of the buffer
    /// and of the payloads themselves; no slice is empty.
    pub fn slices(&self) -> impl Iterator<Item = IoSlice<'_>> {
        let mut from = 0;
        let tail = self.bodies.last().map_or(0, |&(at, _)| at);
        let mut skip = self.sent;
        self.bodies
            .iter()
            .flat_map(move |(at, body)| {
                [&self.head[std::mem::replace(&mut from, *at)..*at], &body[..]]
            })
            .chain([&self.head[tail..]])
            .filter_map(move |s| {
                if s.len() <= skip {
                    skip -= s.len();
                    return None;
                }
                Some(IoSlice::new(&s[std::mem::take(&mut skip)..]))
            })
    }

    /// The buffer back, for reuse; the payloads are let go.
    pub fn into_head(self) -> BytesMut {
        self.head
    }
}

/// Incremental frame decoder for a byte stream: read or feed bytes, drain
/// messages.
///
/// Tolerates arbitrary fragmentation (TCP segment boundaries never align
/// with frames) and rejects oversized or malformed frames with an error
/// rather than unbounded buffering.
///
/// [`FrameDecoder::recv_from`] has the kernel copy received bytes straight
/// into the buffer's spare room; [`FrameDecoder::feed`] copies bytes from
/// elsewhere in. A read asks for at most 16 KiB until a frame's length is
/// in, and then for the rest of that frame and no further. Once a frame's
/// length is in, the buffer grows to hold the rest of it in one step (at
/// most 1 MiB past what is buffered); a frame with decoded frames in front
/// of it in the buffer, or one past 16 KiB in storage larger than itself,
/// moves, with its bytes so far, into storage of its own. New storage is
/// as large as the last frame past 16 KiB whose payload took its storage
/// over (at most 1 MiB), so the next of a run of like-sized bulk frames
/// lands in storage sized to it. A frame is decoded where it lies in the
/// buffer, so only the message's own fields are allocated: a string field
/// is copied into its `String`. A payload (`Bytes`) takes the buffer over
/// without a copy when the buffer was sized to its frame and the payload
/// ends it, so a bulk payload read off a socket is not copied in user
/// space; any other payload is copied out once, so a small one pins no
/// read-sized buffer. A buffer read to its end is rewound and reused for
/// the next read.
///
/// ```
/// use bytes::BytesMut;
/// use scalla_proto::{encode_frame, CmsMsg, FrameDecoder, Msg};
///
/// let msg: Msg = CmsMsg::Locate { reqid: 7, path: "/f".into(), hash: 9, write: false }.into();
/// let mut wire = BytesMut::new();
/// encode_frame(&msg, &mut wire);
/// let mut dec = FrameDecoder::new();
/// dec.feed(&wire[..3]);
/// assert_eq!(dec.next().unwrap(), None);
/// dec.feed(&wire[3..]);
/// assert_eq!(dec.next().unwrap(), Some(msg));
/// ```
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
    /// Whether `buf`'s storage holds frames already decoded, in front of
    /// the frame being read: then it was not sized for that frame.
    spent: bool,
    /// The length of the last frame past a read's worth whose payload took
    /// its storage over (at most 1 MiB): new storage is made that large,
    /// so in a stream of bulk replies the next one lands in storage
    /// already sized to it: storage made a read's worth would have to
    /// grow to the frame, and growing moves the bytes read so far.
    bulk: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes received elsewhere, copying them in.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.reserve(data.len()); // exact, never doubling past what arrived
        self.buf.extend_from_slice(data);
    }

    /// Reads once from `socket` (`recv(2)`, blocking as the socket is)
    /// straight into the buffer, with no bounce through another array.
    /// Returns the bytes read; `Ok(0)` is the end of the stream. Drain
    /// [`FrameDecoder::next_traced`] before reading again: a read stops at
    /// the end of the frame in front.
    pub fn recv_from(&mut self, socket: &impl AsRawFd) -> std::io::Result<usize> {
        let fd = socket.as_raw_fd();
        // SAFETY: `recv_into` returns `Ok(n)` only after the kernel wrote
        // `n` bytes at the front of the slice it was handed.
        unsafe { self.read_with(|spare| recv_into(fd, spare)) }
    }

    /// One read into the buffer's spare room: `read` is handed that room,
    /// up to the end of the frame in front once its length is in (else at
    /// most [`READ_CHUNK`]), and returns how many bytes it wrote there.
    ///
    /// # Safety
    ///
    /// `read` returns `Ok(n)` only once it has initialised the first `n`
    /// bytes of the slice it is handed.
    unsafe fn read_with(
        &mut self,
        read: impl FnOnce(&mut [MaybeUninit<u8>]) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        let want = match self.frame_len() {
            Some(total) if total > self.buf.len() => {
                self.make_room(total);
                total - self.buf.len()
            }
            _ => {
                if self.buf.capacity() == self.buf.len() {
                    self.grow(READ_CHUNK.max(self.bulk));
                }
                READ_CHUNK
            }
        };
        let spare = self.buf.spare_capacity_mut();
        let room = want.min(spare.len());
        let n = read(&mut spare[..room])?;
        assert!(n <= room, "a read past the room it was handed");
        // SAFETY: `read` initialised the first `n` bytes of the spare room
        // (the caller's promise), and they lie within the capacity.
        unsafe { self.buf.set_len(self.buf.len() + n) };
        Ok(n)
    }

    /// The length of the frame in front, prefix included, once its length
    /// prefix is in and within bounds.
    fn frame_len(&self) -> Option<usize> {
        let len = u32::from_le_bytes(self.buf.get(..4)?.try_into().expect("4 bytes"));
        (len <= MAX_FRAME).then_some(4 + len as usize)
    }

    /// Grows the buffer for the rest of the frame in front, `total` bytes
    /// long, in one step to the frame's end rather than by doubling as it
    /// trickles in; a frame past the bound grows a bound at a time, each
    /// step once half the last one is used. Storage larger than a frame
    /// past a read's worth is cut to it, or its payload could not take it.
    fn make_room(&mut self, total: usize) {
        let ahead = (total - self.buf.len()).min(RESERVE_AHEAD);
        let oversized = total > READ_CHUNK && self.buf.capacity() > total;
        if oversized || self.buf.capacity() - self.buf.len() < ahead.min(RESERVE_AHEAD / 2) {
            self.grow(ahead);
        }
    }

    /// Gives the buffer room for `ahead` more bytes, and no more than a
    /// read's worth past that. Storage with decoded frames in front or
    /// with more room is not grown: what is buffered moves into new
    /// storage of its own, so a bulk frame ends up in storage sized to it.
    fn grow(&mut self, ahead: usize) {
        let want = self.buf.len() + ahead;
        if self.spent || self.buf.capacity() > want.max(READ_CHUNK) {
            let mut own = BytesMut::with_capacity(want.max(READ_CHUNK));
            own.extend_from_slice(&self.buf);
            (self.buf, self.spent) = (own, false);
        } else {
            self.buf.reserve(ahead);
        }
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete message, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes"; errors are fatal for the stream
    /// (the peer is speaking garbage). Named `next` for familiarity even
    /// though the fallible signature differs from `Iterator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Msg>, WireError> {
        Ok(self.next_traced()?.map(|(_, msg)| msg))
    }

    /// Like [`FrameDecoder::next`] but keeps the frame's trace id (0 for
    /// plain, pre-envelope frames).
    pub fn next_traced(&mut self) -> Result<Option<(u64, Msg)>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes checked"));
        if len > MAX_FRAME {
            return Err(WireError::BadLength(u64::from(len)));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            self.make_room(total);
            return Ok(None);
        }
        // Storage that starts at this frame and holds exactly it was sized
        // for it.
        let sized = !self.spent && self.buf.capacity() == total;
        self.buf.advance(4);
        let mut frame = InPlace { buf: &mut self.buf, left: len as usize, sized };
        let traced = decode_msg_traced(&mut frame)?;
        if frame.left != 0 {
            return Err(WireError::BadLength(u64::from(len)));
        }
        if sized && self.buf.capacity() == 0 && total > READ_CHUNK && total <= RESERVE_AHEAD {
            self.bulk = total; // its payload took the storage
        }
        self.spent = !self.buf.is_empty();
        if !self.spent {
            self.buf.clear(); // the next read lands at the start of the same storage
        }
        Ok(Some(traced))
    }
}

/// One `recv(2)` into `spare`, which it may leave uninitialised past what
/// it wrote.
fn recv_into(fd: RawFd, spare: &mut [MaybeUninit<u8>]) -> std::io::Result<usize> {
    extern "C" {
        /// glibc's wrapper of the Linux system call.
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
    // SAFETY: `spare` is a live, writable buffer of exactly the `len`
    // bytes passed, and the kernel writes at most that many into it
    // (uninitialised memory may be written); `fd` is borrowed from a
    // socket the caller holds for the duration of the call.
    let got = unsafe { recv(fd, spare.as_mut_ptr().cast(), spare.len(), 0) };
    usize::try_from(got).map_err(|_| std::io::Error::last_os_error())
}

/// A frame being decoded where it lies in a [`FrameDecoder`]'s buffer:
/// each read consumes the buffer's own bytes, up to the frame's end.
struct InPlace<'a> {
    buf: &'a mut BytesMut,
    /// Bytes of the frame not read yet.
    left: usize,
    /// Whether the buffer's storage was sized to this frame.
    sized: bool,
}

impl Buf for InPlace<'_> {
    fn remaining(&self) -> usize {
        self.left
    }

    fn chunk(&self) -> &[u8] {
        &self.buf[..self.left]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.left, "advance past the frame");
        self.buf.advance(cnt);
        self.left -= cnt;
    }

    /// A payload that ends storage sized to its frame takes the buffer
    /// over; any other is copied out once.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.left, "copy_to_bytes past the frame");
        if self.sized && len == self.buf.len() {
            self.left = 0;
            return std::mem::take(self.buf).freeze();
        }
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            ClientMsg::Open { path: "/a/b".into(), write: false, refresh: false, avoid: None }
                .into(),
            ServerMsg::Redirect { host: "sup-7".into(), lease: None }.into(),
            CmsMsg::Have { reqid: 3, path: "/a/b".into(), hash: 99, staging: false }.into(),
            ServerMsg::Data { data: Bytes::from(vec![1u8; 1000]) }.into(),
            ClientMsg::List { dir: "/a".into() }.into(),
        ]
    }

    #[test]
    fn stream_roundtrip_single_feed() {
        let msgs = sample_msgs();
        let mut buf = BytesMut::new();
        for m in &msgs {
            encode_frame(m, &mut buf);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let mut out = Vec::new();
        while let Some(m) = dec.next().unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn mixed_plain_and_traced_stream_roundtrips() {
        let msgs = sample_msgs();
        let mut buf = BytesMut::new();
        for (i, m) in msgs.iter().enumerate() {
            encode_frame_traced(m, if i % 2 == 0 { 0x1000 + i as u64 } else { 0 }, &mut buf);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let mut out = Vec::new();
        while let Some(tm) = dec.next_traced().unwrap() {
            out.push(tm);
        }
        assert_eq!(out.len(), msgs.len());
        for (i, (trace, m)) in out.iter().enumerate() {
            assert_eq!(*m, msgs[i]);
            assert_eq!(*trace, if i % 2 == 0 { 0x1000 + i as u64 } else { 0 });
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.next(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn trailing_garbage_in_frame_rejected() {
        // Valid CloseOk message plus one stray byte inside the frame.
        let mut inner = BytesMut::new();
        encode_msg(&ServerMsg::CloseOk.into(), &mut inner);
        inner.put_u8(0xFF);
        let mut buf = BytesMut::new();
        buf.put_u32_le(inner.len() as u32);
        buf.extend_from_slice(&inner);
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert!(dec.next().is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_fragmentation_preserves_stream(
            chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
        ) {
            let msgs = sample_msgs();
            let mut wire = BytesMut::new();
            for m in &msgs {
                encode_frame(m, &mut wire);
            }
            let wire = wire.freeze();
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            let mut pos = 0usize;
            let mut chunks = chunk_sizes.iter().cycle();
            while pos < wire.len() {
                let n = (*chunks.next().unwrap()).min(wire.len() - pos);
                dec.feed(&wire[pos..pos + n]);
                pos += n;
                while let Some(m) = dec.next().unwrap() {
                    out.push(m);
                }
            }
            prop_assert_eq!(out, msgs);
            prop_assert_eq!(dec.buffered(), 0);
        }

        #[test]
        fn announced_length_never_reserves_past_the_bound(
            len in 0..=MAX_FRAME,
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut dec = FrameDecoder::new();
            dec.feed(&len.to_le_bytes());
            dec.feed(&body);
            while let Ok(Some(_)) = dec.next_traced() {}
            prop_assert!(dec.buf.capacity() <= 4 + body.len() + RESERVE_AHEAD);
        }
    }

    fn data_frame(len: usize) -> (Bytes, Msg) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let msg: Msg = ServerMsg::Data { data: Bytes::from(data) }.into();
        let mut wire = BytesMut::new();
        encode_frame(&msg, &mut wire);
        (wire.freeze(), msg)
    }

    #[test]
    fn bulk_frame_lands_in_one_buffer_and_is_handed_over() {
        let (wire, msg) = data_frame(64 << 10);
        let mut chunks = wire.chunks(16 << 10);
        let mut dec = FrameDecoder::new();
        dec.feed(chunks.next().unwrap());
        assert!(dec.next_traced().unwrap().is_none());
        let at = dec.buf.as_ptr();
        assert!(dec.buf.capacity() >= wire.len(), "sized for the whole frame");
        let mut decoded = None;
        for chunk in chunks {
            dec.feed(chunk);
            assert_eq!(dec.buf.as_ptr(), at, "the buffer never moves once sized");
            decoded = dec.next_traced().unwrap();
        }
        let (_, got) = decoded.expect("whole frame");
        assert_eq!(got, msg);
        let Msg::Server(ServerMsg::Data { data }) = got else { unreachable!() };
        // The payload ends the frame, so it ends where the buffer's bytes do.
        assert_eq!(data.as_ptr(), at.wrapping_add(wire.len() - data.len()));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn header_alone_reserves_at_most_the_bound() {
        let mut dec = FrameDecoder::new();
        dec.feed(&MAX_FRAME.to_le_bytes());
        assert!(dec.next_traced().unwrap().is_none());
        assert!(dec.buf.capacity() <= 4 + RESERVE_AHEAD, "{}", dec.buf.capacity());
    }

    #[test]
    fn frame_past_the_bound_decodes_intact() {
        let (big, msg) = data_frame(3 << 20);
        let next: Msg = ServerMsg::CloseOk.into();
        let mut wire = BytesMut::new();
        wire.extend_from_slice(&big);
        encode_frame(&next, &mut wire);
        let mut dec = FrameDecoder::new();
        let (mut fed, mut moves, mut at) = (0, 0, std::ptr::null());
        let mut out = Vec::new();
        for chunk in wire.chunks(16 << 10) {
            dec.feed(chunk);
            fed += chunk.len();
            assert!(dec.buf.capacity() <= fed + RESERVE_AHEAD);
            while let Some(frame) = dec.next_traced().unwrap() {
                out.push(frame);
            }
            assert!(dec.buf.capacity() <= fed + RESERVE_AHEAD);
            if dec.buf.as_ptr() != at && !dec.buf.is_empty() {
                moves += 1;
                at = dec.buf.as_ptr();
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, msg);
        assert_eq!(out[1].1, next);
        // Grown a half-bound at a time, not once per read.
        assert!(moves <= 2 + (3 << 20) / (RESERVE_AHEAD / 2), "{moves} moves");
    }

    /// The bytes a gather lists, in order.
    fn gathered(wire: &Gather) -> Vec<u8> {
        wire.slices().flat_map(|s| s.to_vec()).collect()
    }

    proptest! {
        /// Payloads just below, at and above the threshold, as `Data` and
        /// `Write` bodies between small frames: the gather's pieces are
        /// the frames' bytes, a payload at or past the threshold is a
        /// piece of its own pointing at the payload itself, and a smaller
        /// one is not; after any partial write the rest is still exact.
        #[test]
        fn a_gather_is_the_frames_bytes_with_large_payloads_in_place(
            bodies in proptest::collection::vec((0usize..3, any::<bool>()), 1..8),
            trace in prop_oneof![Just(0u64), any::<u64>()],
            cut: usize,
        ) {
            let mut wire = Gather::new(BytesMut::new());
            let mut flat = BytesMut::new();
            let mut payloads = Vec::new();
            for (i, &(step, write)) in bodies.iter().enumerate() {
                let data = Bytes::from(vec![i as u8; OUT_OF_LINE - 1 + step]);
                let msg: Msg = if write {
                    ClientMsg::Write { handle: i as u64, offset: 7, data: data.clone() }.into()
                } else {
                    ServerMsg::Data { data: data.clone() }.into()
                };
                for m in [&msg, &ClientMsg::Close { handle: 3 }.into()] {
                    wire.push(m, trace);
                    encode_frame_traced(m, trace, &mut flat);
                }
                payloads.push(data);
            }
            prop_assert_eq!(wire.len(), flat.len());
            prop_assert_eq!(gathered(&wire), flat.to_vec());
            let pieces: Vec<_> = wire.slices().collect();
            for data in &payloads {
                let own = pieces.iter().filter(|s| s.as_ptr() == data.as_ptr()).count();
                prop_assert_eq!(own, usize::from(data.len() >= OUT_OF_LINE));
            }
            let cut = cut % (flat.len() + 1);
            wire.advance(cut);
            prop_assert!(wire.slices().all(|s| !s.is_empty()));
            prop_assert_eq!(gathered(&wire), flat[cut..].to_vec());
        }
    }

    /// One read into `dec` as [`FrameDecoder::recv_from`] does it, noting
    /// where `recv` wrote and how much.
    fn recv_noted(dec: &mut FrameDecoder, fd: RawFd, wrote: &mut Vec<(usize, usize)>) -> usize {
        // SAFETY: `recv_into` returns `Ok(n)` only after the kernel wrote
        // `n` bytes at the front of the slice it was handed.
        let read = unsafe {
            dec.read_with(|spare| {
                let n = recv_into(fd, spare)?;
                wrote.push((spare.as_ptr() as usize, n));
                Ok(n)
            })
        };
        read.expect("recv")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Twice, a 64 KiB `Data` frame and a `CloseOk` behind it, sent
        /// over a real socket in drawn pieces, the second pair once the
        /// first `CloseOk` is heard (as a reply follows a request): each
        /// payload is the storage `recv` wrote into, sized to its frame,
        /// and the rider comes in after. The second frame's storage was
        /// ready before its first byte came in, so every read of it landed
        /// where its payload lies.
        #[test]
        fn a_bulk_payload_received_stays_where_recv_wrote_it(
            pieces in proptest::collection::vec(1usize..24_000, 1..10),
        ) {
            use std::io::Write;
            use std::net::{TcpListener, TcpStream};
            let (data, msg) = data_frame(64 << 10);
            let rider: Msg = ServerMsg::CloseOk.into();
            let mut wire = BytesMut::new();
            wire.extend_from_slice(&data);
            encode_frame(&rider, &mut wire);
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            tx.set_nodelay(true).unwrap();
            let (rx, _) = listener.accept().unwrap();
            let (heard, next) = std::sync::mpsc::channel();
            let sender = std::thread::spawn(move || {
                for _ in 0..2 {
                    let mut at = 0;
                    for &n in pieces.iter().cycle() {
                        let end = wire.len().min(at + n);
                        tx.write_all(&wire[at..end]).unwrap();
                        at = end;
                        if at == wire.len() {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    next.recv().unwrap();
                }
            });
            let mut dec = FrameDecoder::new();
            let mut wrote = Vec::new();
            let mut got = Vec::new();
            while got.len() < 4 {
                prop_assert!(recv_noted(&mut dec, rx.as_raw_fd(), &mut wrote) > 0, "early end");
                // The buffer as the read left it: its storage and where it
                // starts.
                let storage = (dec.buf.capacity(), dec.spent);
                while let Some((_, m)) = dec.next_traced().unwrap() {
                    match &m {
                        Msg::Server(ServerMsg::Data { data: payload }) => {
                            let end = payload.as_ptr() as usize + payload.len();
                            let (at, n) = *wrote.last().unwrap();
                            prop_assert_eq!(at + n, end, "the payload ends where recv wrote last");
                            prop_assert_eq!(storage, (data.len(), false), "storage sized to the frame");
                            let start = end - data.len();
                            let in_place = wrote.iter().all(|&(at, n)| start <= at && at + n <= end);
                            prop_assert!(got.is_empty() || in_place, "the second frame moved");
                        }
                        _ => heard.send(()).unwrap(),
                    }
                    got.push(m);
                    wrote.clear();
                }
            }
            sender.join().unwrap();
            prop_assert_eq!(got, vec![msg.clone(), rider.clone(), msg, rider]);
        }
    }
}
