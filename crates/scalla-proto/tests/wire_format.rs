//! The wire format, pinned down by one corpus of every message variant,
//! `ErrCode` and `NodeRoleTag`, both `Redirect` layouts and both `Summary`
//! kinds: built from fixed values it must match the golden hex, built from
//! drawn values it must decode back, and no strict prefix may decode. A
//! gather write of the whole corpus is its frames' bytes, back to back.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use scalla_proto::{
    encode_frame_traced, ClientMsg, CmsMsg, ErrCode, FrameDecoder, Gather, HistDelta, Lease,
    MonMsg, MonSpan, Msg, NodeRoleTag, ServerMsg, WireError,
};

/// The values a corpus is built from: `u64`s, a `u32`, a flag, strings, a list, a payload.
#[derive(Debug)]
struct Vals(u64, u64, u32, bool, String, String, Vec<String>, Bytes);

fn corpus(Vals(a, b, n, flag, s, t, list, data): &Vals) -> Vec<Msg> {
    let (a, b, n, flag, s, t, list) =
        (*a, *b, *n, *flag, || s.clone(), || t.clone(), || list.clone());
    let pairs = || list().into_iter().map(|k| (k, b)).collect::<Vec<_>>();
    let hist = HistDelta { key: s(), buckets: vec![(n, a)], count: a, sum: b, min: 1, max: 2 };
    let summary = |full| MonMsg::Summary {
        node: t(),
        role: s(),
        seq: a,
        full,
        counters: pairs(),
        gauges: if full { vec![] } else { pairs() },
        hists: vec![hist.clone()],
    };
    let (stage, verdict) = (s().into(), t().into());
    let span = MonSpan { trace: a, stage, verdict, depth: b, t_ns: 3, elapsed_ns: 4 };
    let mut c: Vec<Msg> = vec![
        ClientMsg::Open { path: s(), write: flag, refresh: !flag, avoid: Some(t()) }.into(),
        ClientMsg::Open { path: s(), write: !flag, refresh: flag, avoid: None }.into(),
        ClientMsg::Read { handle: a, offset: b, len: n }.into(),
        ClientMsg::Write { handle: a, offset: b, data: data.clone() }.into(),
        ClientMsg::Close { handle: a }.into(),
        ClientMsg::Stat { path: s() }.into(),
        ClientMsg::Prepare { paths: list() }.into(),
        ClientMsg::List { dir: s() }.into(),
        ServerMsg::Redirect { host: t(), lease: None }.into(),
        ServerMsg::Redirect { host: t(), lease: Some(Lease { ttl_millis: a, epoch: b }) }.into(),
        ServerMsg::Wait { millis: a }.into(),
        ServerMsg::OpenOk { handle: a }.into(),
        ServerMsg::Data { data: data.clone() }.into(),
        ServerMsg::WriteOk { len: n }.into(),
        ServerMsg::CloseOk.into(),
        ServerMsg::StatOk { size: a, online: flag }.into(),
        ServerMsg::PrepareOk.into(),
        ServerMsg::ListOk { entries: list() }.into(),
        CmsMsg::LoginOk { slot: n as u8 }.into(),
        CmsMsg::LoginRejected { reason: t() }.into(),
        CmsMsg::Locate { reqid: a, path: s(), hash: n, write: flag }.into(),
        CmsMsg::Have { reqid: b, path: s(), hash: n, staging: !flag }.into(),
        CmsMsg::LoadReport { load: n, free_bytes: b, overloaded: flag }.into(),
        CmsMsg::Manifest { name: t(), files: list() }.into(),
        CmsMsg::NsEvent { created: flag, path: s() }.into(),
        summary(false).into(),
        summary(true).into(),
        MonMsg::Spans { node: t(), spans: vec![span] }.into(),
        MonMsg::Resync.into(),
    ];
    use ErrCode::*;
    for code in [NotFound, NoEligibleServer, BadRequest, IoError, Retry] {
        c.push(ServerMsg::Error { code, detail: t() }.into());
    }
    for role in [NodeRoleTag::Supervisor, NodeRoleTag::Server, NodeRoleTag::Proxy] {
        c.push(CmsMsg::Login { name: t(), role, exports: list() }.into());
    }
    c
}

fn frame(msg: &Msg, trace: u64) -> BytesMut {
    let mut buf = BytesMut::new();
    encode_frame_traced(msg, trace, &mut buf);
    buf
}

/// Decodes `body` as one whole frame.
fn decode(body: &[u8]) -> Result<Option<(u64, Msg)>, WireError> {
    let mut dec = FrameDecoder::new();
    dec.feed(&(body.len() as u32).to_le_bytes());
    dec.feed(body);
    dec.next_traced()
}

const TRACE: u64 = 0x0102_0304_0506_0708;

/// Each corpus message's frame with trace 0 and with [`TRACE`], in hex.
const GOLDEN: [(&str, &str); 37] = [
    ("1f00000010000d0000002f73746f72652f662e726f6f74010001050000007372762d33", "2800000040080706050403020110000d0000002f73746f72652f662e726f6f74010001050000007372762d33"),
    ("1600000010000d0000002f73746f72652f662e726f6f74000100", "1f00000040080706050403020110000d0000002f73746f72652f662e726f6f74000100"),
    ("16000000100109000000000000000010000000000000efbeadde", "1f000000400807060504030201100109000000000000000010000000000000efbeadde"),
    ("1b0000001002090000000000000000100000000000000500000068656c6c6f", "240000004008070605040302011002090000000000000000100000000000000500000068656c6c6f"),
    ("0a00000010030900000000000000", "1300000040080706050403020110030900000000000000"),
    ("1300000010040d0000002f73746f72652f662e726f6f74", "1c00000040080706050403020110040d0000002f73746f72652f662e726f6f74"),
    ("13000000100502000000020000002f61030000002f6263", "1c000000400807060504030201100502000000020000002f61030000002f6263"),
    ("1300000010060d0000002f73746f72652f662e726f6f74", "1c00000040080706050403020110060d0000002f73746f72652f662e726f6f74"),
    ("0b0000002000050000007372762d33", "140000004008070605040302012000050000007372762d33"),
    ("1b000000200a050000007372762d3309000000000000000010000000000000", "24000000400807060504030201200a050000007372762d3309000000000000000010000000000000"),
    ("0a00000020010900000000000000", "1300000040080706050403020120010900000000000000"),
    ("0a00000020020900000000000000", "1300000040080706050403020120020900000000000000"),
    ("0b00000020030500000068656c6c6f", "1400000040080706050403020120030500000068656c6c6f"),
    ("060000002004efbeadde", "0f0000004008070605040302012004efbeadde"),
    ("020000002005", "0b0000004008070605040302012005"),
    ("0b0000002006090000000000000001", "140000004008070605040302012006090000000000000001"),
    ("020000002007", "0b0000004008070605040302012007"),
    ("13000000200902000000020000002f61030000002f6263", "1c000000400807060504030201200902000000020000002f61030000002f6263"),
    ("030000003001ef", "0c0000004008070605040302013001ef"),
    ("0b0000003002050000007372762d33", "140000004008070605040302013002050000007372762d33"),
    ("20000000300309000000000000000d0000002f73746f72652f662e726f6f74efbeadde01", "29000000400807060504030201300309000000000000000d0000002f73746f72652f662e726f6f74efbeadde01"),
    ("20000000300400100000000000000d0000002f73746f72652f662e726f6f74efbeadde00", "29000000400807060504030201300400100000000000000d0000002f73746f72652f662e726f6f74efbeadde00"),
    ("0f0000003005efbeadde001000000000000001", "180000004008070605040302013005efbeadde001000000000000001"),
    ("1c0000003006050000007372762d3302000000020000002f61030000002f6263", "250000004008070605040302013006050000007372762d3302000000020000002f61030000002f6263"),
    ("140000003007010d0000002f73746f72652f662e726f6f74", "1d0000004008070605040302013007010d0000002f73746f72652f662e726f6f74"),
    ("ac0000005000050000007372762d330d0000002f73746f72652f662e726f6f7409000000000000000002000000020000002f610010000000000000030000002f6263001000000000000002000000020000002f610010000000000000030000002f62630010000000000000010000000d0000002f73746f72652f662e726f6f7401000000efbeadde09000000000000000900000000000000001000000000000001000000000000000200000000000000", "b50000004008070605040302015000050000007372762d330d0000002f73746f72652f662e726f6f7409000000000000000002000000020000002f610010000000000000030000002f6263001000000000000002000000020000002f610010000000000000030000002f62630010000000000000010000000d0000002f73746f72652f662e726f6f7401000000efbeadde09000000000000000900000000000000001000000000000001000000000000000200000000000000"),
    ("8f0000005000050000007372762d330d0000002f73746f72652f662e726f6f7409000000000000000102000000020000002f610010000000000000030000002f6263001000000000000000000000010000000d0000002f73746f72652f662e726f6f7401000000efbeadde09000000000000000900000000000000001000000000000001000000000000000200000000000000", "980000004008070605040302015000050000007372762d330d0000002f73746f72652f662e726f6f7409000000000000000102000000020000002f610010000000000000030000002f6263001000000000000000000000010000000d0000002f73746f72652f662e726f6f7401000000efbeadde09000000000000000900000000000000001000000000000001000000000000000200000000000000"),
    ("490000005001050000007372762d330100000009000000000000000d0000002f73746f72652f662e726f6f74050000007372762d33001000000000000003000000000000000400000000000000", "520000004008070605040302015001050000007372762d330100000009000000000000000d0000002f73746f72652f662e726f6f74050000007372762d33001000000000000003000000000000000400000000000000"),
    ("020000005002", "0b0000004008070605040302015002"),
    ("0c000000200800050000007372762d33", "15000000400807060504030201200800050000007372762d33"),
    ("0c000000200801050000007372762d33", "15000000400807060504030201200801050000007372762d33"),
    ("0c000000200802050000007372762d33", "15000000400807060504030201200802050000007372762d33"),
    ("0c000000200803050000007372762d33", "15000000400807060504030201200803050000007372762d33"),
    ("0c000000200804050000007372762d33", "15000000400807060504030201200804050000007372762d33"),
    ("1d0000003000050000007372762d330002000000020000002f61030000002f6263", "260000004008070605040302013000050000007372762d330002000000020000002f61030000002f6263"),
    ("1d0000003000050000007372762d330102000000020000002f61030000002f6263", "260000004008070605040302013000050000007372762d330102000000020000002f61030000002f6263"),
    ("1d0000003000050000007372762d330202000000020000002f61030000002f6263", "260000004008070605040302013000050000007372762d330202000000020000002f61030000002f6263"),
];

#[test]
fn every_variant_matches_its_golden_bytes() {
    let (s, t, list) = ("/store/f.root".into(), "srv-3".into(), vec!["/a".into(), "/bc".into()]);
    let v = Vals(9, 4096, 0xDEAD_BEEF, true, s, t, list, "hello".into());
    let hex = |b: BytesMut| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
    let corpus = corpus(&v);
    assert_eq!(corpus.len(), GOLDEN.len());
    for (msg, (plain, traced)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(hex(frame(msg, 0)), plain, "{msg:?}");
        assert_eq!(hex(frame(msg, TRACE)), traced, "{msg:?} traced");
    }
    // `ErrCode` tag 5 (`Overloaded`) is retired, never reused: its old
    // frame no longer decodes.
    let retired = [0x20, 0x08, 0x05, 5, 0, 0, 0, b's', b'r', b'v', b'-', b'3'];
    assert_eq!(decode(&retired), Err(WireError::BadTag(5)));
}

fn vals() -> impl Strategy<Value = Vals> {
    let text = || "[ -~]{0,12}";
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>()),
        (text(), text(), proptest::collection::vec(text(), 0..4)),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|((a, b, n, f), (s, t, list), data)| Vals(a, b, n, f, s, t, list, data.into()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structure-aware decoder fuzz over the 0x40 trace, 0x50 monitoring
    /// and lease envelopes: every drawn frame decodes to its message, no
    /// strict prefix of its body decodes, and a flipped byte never panics.
    #[test]
    fn drawn_frames_roundtrip_and_no_prefix_decodes(
        v in vals(),
        trace in prop_oneof![Just(0u64), any::<u64>()],
        flip in (any::<usize>(), 1u8..=255),
    ) {
        for msg in corpus(&v) {
            let wire = frame(&msg, trace);
            let body = &wire[4..];
            prop_assert_eq!(decode(body), Ok(Some((trace, msg))));
            for cut in 0..body.len() {
                prop_assert!(decode(&body[..cut]).is_err(), "cut at {cut}");
            }
            let mut bent = body.to_vec();
            bent[flip.0 % body.len()] ^= flip.1;
            let _ = decode(&bent); // may error, must not panic
        }
    }

    /// Every corpus message pushed onto one `Gather`, its payload drawn
    /// small or 64 KiB: the gather's pieces, in order, are the frames
    /// `encode_frame_traced` makes, back to back, and a 64 KiB payload is
    /// a piece of its own, pointing at the payload itself, once for each
    /// frame that carries it (the `Write` and the `Data`).
    #[test]
    fn a_gather_of_the_corpus_is_its_frames_back_to_back(
        v in vals(),
        big: bool,
        trace in prop_oneof![Just(0u64), any::<u64>()],
    ) {
        let mut v = v;
        if big {
            v.7 = Bytes::from(vec![0xA5; 64 << 10]);
        }
        let mut wire = Gather::new(BytesMut::new());
        let mut flat = Vec::new();
        for msg in corpus(&v) {
            wire.push(&msg, trace);
            flat.extend_from_slice(&frame(&msg, trace));
        }
        let pieces: Vec<_> = wire.slices().collect();
        prop_assert_eq!(pieces.iter().flat_map(|s| s.iter()).copied().collect::<Vec<u8>>(), flat);
        let own = pieces.iter().filter(|s| s.as_ptr() == v.7.as_ptr()).count();
        prop_assert_eq!(own, if big { 2 } else { 0 });
    }
}
