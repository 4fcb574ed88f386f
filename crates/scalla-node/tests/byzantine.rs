//! Robustness: arbitrary (well-typed but nonsensical) message sequences
//! fired at the node state machines from arbitrary senders must never
//! panic, hang, or corrupt counters — a cmsd on a WAN sees stray, stale,
//! and out-of-order traffic constantly.

use bytes::Bytes;
use proptest::prelude::*;
use scalla_cache::CacheConfig;
use scalla_node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla_proto::{Addr, ClientMsg, CmsMsg, Msg, NodeRoleTag, ServerMsg};
use scalla_simnet::{MockCtx, Node};
use scalla_util::{Clock, Nanos, VirtualClock};
use std::sync::Arc;

fn path_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/d/f".to_string()),
        Just("".to_string()),
        Just("/".to_string()),
        "[ -~]{0,24}",
    ]
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (path_strategy(), any::<bool>(), any::<bool>()).prop_map(|(path, write, refresh)| {
            ClientMsg::Open { path, write, refresh, avoid: Some("srv-9".into()) }.into()
        }),
        (any::<u64>(), any::<u64>(), any::<u32>())
            .prop_map(|(handle, offset, len)| ClientMsg::Read { handle, offset, len }.into()),
        (any::<u64>(), any::<u64>()).prop_map(|(handle, offset)| {
            ClientMsg::Write { handle, offset, data: Bytes::from_static(b"zz") }.into()
        }),
        any::<u64>().prop_map(|handle| ClientMsg::Close { handle }.into()),
        path_strategy().prop_map(|path| ClientMsg::Stat { path }.into()),
        proptest::collection::vec(path_strategy(), 0..4)
            .prop_map(|paths| ClientMsg::Prepare { paths }.into()),
        path_strategy().prop_map(|dir| ClientMsg::List { dir }.into()),
        (path_strategy(), any::<bool>()).prop_map(|(name, server)| {
            CmsMsg::Login {
                name,
                role: if server { NodeRoleTag::Server } else { NodeRoleTag::Supervisor },
                exports: vec!["/d".into()],
            }
            .into()
        }),
        any::<u8>().prop_map(|slot| CmsMsg::LoginOk { slot }.into()),
        (any::<u64>(), path_strategy(), any::<u32>(), any::<bool>()).prop_map(
            |(reqid, path, hash, write)| CmsMsg::Locate { reqid, path, hash, write }.into()
        ),
        (any::<u64>(), path_strategy(), any::<u32>(), any::<bool>()).prop_map(
            |(reqid, path, hash, staging)| CmsMsg::Have { reqid, path, hash, staging }.into()
        ),
        (any::<u32>(), any::<u64>(), any::<bool>()).prop_map(|(load, free_bytes, overloaded)| {
            CmsMsg::LoadReport { load, free_bytes, overloaded }.into()
        }),
        (any::<bool>(), path_strategy()).prop_map(|(created, path)| CmsMsg::NsEvent {
            created,
            path
        }
        .into()),
        Just(Msg::Server(ServerMsg::CloseOk)),
        Just(Msg::Server(ServerMsg::PrepareOk)),
        any::<u64>().prop_map(|millis| Msg::Server(ServerMsg::Wait { millis })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cmsd_survives_arbitrary_traffic(
        msgs in proptest::collection::vec((0u64..8, msg_strategy()), 1..120),
        timers in proptest::collection::vec(1u64..7, 0..20),
    ) {
        let clock = Arc::new(VirtualClock::new());
        let mut cfg = CmsdConfig::manager("mgr");
        cfg.cache = CacheConfig::for_tests();
        let mut node = CmsdNode::new(cfg, clock.clone());
        let mut ctx = MockCtx::new();
        for (sender, msg) in msgs {
            node.on_message(&mut ctx, Addr(sender), msg);
            clock.advance(Nanos::from_millis(37));
            ctx.now = clock.now();
        }
        for token in timers {
            node.on_timer(&mut ctx, token);
        }
        // Counters stay coherent.
        let s = node.cache().stats();
        use scalla_obs::get;
        prop_assert!(get(&s.hits) + get(&s.misses) <= get(&s.lookups) + get(&s.refreshes));
    }

    #[test]
    fn server_survives_arbitrary_traffic(
        msgs in proptest::collection::vec((0u64..8, msg_strategy()), 1..120),
    ) {
        let mut node = ServerNode::new(ServerConfig::new("srv", Addr(0)));
        node.fs_mut().put_online("/d/f", 64);
        node.fs_mut().put_offline("/d/off", 64);
        let mut ctx = MockCtx::new();
        for (sender, msg) in msgs {
            let before = ctx.sends.len();
            node.on_message(&mut ctx, Addr(sender), msg);
            // A server never speaks unprompted negatives: with no CNS to
            // notify, each message gets at most one direct reply, so
            // sends <= messages.
            prop_assert!(ctx.sends.len() <= before + 1, "{:?}", &ctx.sends[before..]);
        }
    }
}
