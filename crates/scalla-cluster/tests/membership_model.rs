//! Model-based test of the membership state machine (§III-A4 cases 1–4):
//! arbitrary login/disconnect/heard/health/drop-check sequences against a
//! simple model tracking per-name status and last-heard time.

use proptest::prelude::*;
use scalla_cluster::{LoginOutcome, Membership, MembershipConfig};
use scalla_util::Nanos;
use std::collections::HashMap;

const NAMES: u8 = 12;

#[derive(Debug, Clone)]
enum Op {
    Login { name: u8, exports_variant: bool },
    Disconnect { name: u8 },
    Heard { name: u8 },
    Health,
    Advance { secs: u16 },
    CheckDrops,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..NAMES, any::<bool>())
            .prop_map(|(name, exports_variant)| Op::Login { name, exports_variant }),
        2 => (0..NAMES).prop_map(|name| Op::Disconnect { name }),
        3 => (0..NAMES).prop_map(|name| Op::Heard { name }),
        1 => Just(Op::Health),
        3 => (1u16..90).prop_map(|secs| Op::Advance { secs }),
        2 => Just(Op::CheckDrops),
    ]
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum ModelState {
    Active { variant: bool, heard: Nanos },
    Offline { since: Nanos, variant: bool, heard: Nanos },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn membership_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let drop_after = Nanos::from_secs(60);
        let offline_after = Nanos::from_secs(30);
        let mut m = Membership::new(MembershipConfig { drop_after });
        let mut now = Nanos::ZERO;
        let mut model: HashMap<u8, ModelState> = HashMap::new();

        for op in ops {
            match op {
                Op::Login { name, exports_variant } => {
                    let exports = if exports_variant {
                        vec!["/a".to_string(), "/b".to_string()]
                    } else {
                        vec!["/a".to_string()]
                    };
                    let out = m.login(&format!("srv-{name}"), &exports, now);
                    match model.get(&name).copied() {
                        None => {
                            // New member (or ClusterFull, impossible here:
                            // <= 12 names <= 64 slots).
                            prop_assert!(matches!(out, LoginOutcome::New(_)), "{out:?}");
                            model.insert(
                                name,
                                ModelState::Active { variant: exports_variant, heard: now },
                            );
                        }
                        Some(ModelState::Active { variant, .. })
                        | Some(ModelState::Offline { variant, .. }) => {
                            if variant == exports_variant {
                                prop_assert!(
                                    matches!(out, LoginOutcome::Reconnected(_)),
                                    "same exports must be case 3: {out:?}"
                                );
                            } else {
                                prop_assert!(
                                    matches!(out, LoginOutcome::ReconnectedNewPaths(_)),
                                    "changed exports are a new connection: {out:?}"
                                );
                            }
                            model.insert(
                                name,
                                ModelState::Active { variant: exports_variant, heard: now },
                            );
                        }
                    }
                }
                Op::Disconnect { name } => {
                    if let Some(ModelState::Active { variant, heard }) = model.get(&name).copied() {
                        let slot = m.find_by_name(&format!("srv-{name}"));
                        prop_assert!(slot.is_some(), "a member is found by name");
                        m.disconnect(slot.unwrap(), now);
                        model.insert(name, ModelState::Offline { since: now, variant, heard });
                    }
                }
                Op::Heard { name } => {
                    let slot = m.find_by_name(&format!("srv-{name}"));
                    prop_assert_eq!(slot.is_some(), model.contains_key(&name));
                    if let Some(slot) = slot {
                        let (revived, variant) = match model[&name] {
                            ModelState::Active { variant, .. } => (false, variant),
                            ModelState::Offline { variant, .. } => (true, variant),
                        };
                        prop_assert_eq!(m.heard(slot, now), revived, "only offline revives");
                        model.insert(name, ModelState::Active { variant, heard: now });
                    }
                }
                Op::Health => {
                    let silent = m.check_silent(now, offline_after);
                    // Model: active entries silent past the window go offline now.
                    let mut expected = Vec::new();
                    for (&name, s) in model.iter_mut() {
                        if let ModelState::Active { variant, heard } = *s {
                            if now.since(heard) > offline_after {
                                expected.push(name);
                                *s = ModelState::Offline { since: now, variant, heard };
                            }
                        }
                    }
                    let mut marked: Vec<u8> = silent
                        .iter()
                        .map(|slot| m.meta(slot).unwrap().name[4..].parse().unwrap())
                        .collect();
                    marked.sort();
                    expected.sort();
                    prop_assert_eq!(marked, expected);
                }
                Op::Advance { secs } => {
                    now += Nanos::from_secs(u64::from(secs));
                }
                Op::CheckDrops => {
                    let dropped = m.check_drops(now);
                    // Model: offline entries past the limit disappear.
                    let mut expected = 0;
                    model.retain(|_, s| match *s {
                        ModelState::Offline { since, .. }
                            if now.since(since) > drop_after =>
                        {
                            expected += 1;
                            false
                        }
                        _ => true,
                    });
                    prop_assert_eq!(dropped.len() as usize, expected);
                }
            }
            // Set cardinalities always agree with the model.
            let model_active =
                model.values().filter(|s| matches!(s, ModelState::Active { .. })).count();
            let model_offline =
                model.values().filter(|s| matches!(s, ModelState::Offline { .. })).count();
            prop_assert_eq!(m.active().len() as usize, model_active);
            prop_assert_eq!(m.offline().len() as usize, model_offline);
            // V_m only ever contains members.
            let members = m.active() | m.offline();
            prop_assert!(m.vm_for("/a/x").is_subset(members));
            prop_assert!(m.vm_for("/b/x").is_subset(members));
        }
    }
}
