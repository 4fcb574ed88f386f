//! Model-based test: the Fibonacci hash table against a `HashMap` oracle
//! through arbitrary interleavings of insert / lookup / hide / remove,
//! across resizes.

use proptest::prelude::*;
use scalla_cache::slab::LocSlab;
use scalla_cache::table::{HashTable, SizePolicy};
use scalla_util::crc32;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Lookup(u16),
    Hide(u16),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..200).prop_map(Op::Insert),
        (0u16..200).prop_map(Op::Lookup),
        (0u16..200).prop_map(Op::Hide),
        (0u16..200).prop_map(Op::Remove),
    ]
}

fn name_of(k: u16) -> String {
    format!("/model/run{}/f{k}.root", k % 7)
}

fn check_sequence(ops: Vec<Op>, policy: SizePolicy) {
    let mut slab = LocSlab::new();
    let mut table = HashTable::with_policy(3, policy);
    // Oracle: name -> slot for *visible* entries.
    let mut visible: HashMap<String, u32> = HashMap::new();
    // All chained slots (visible or hidden), for remove bookkeeping.
    let mut chained: HashMap<String, u32> = HashMap::new();

    for op in ops {
        match op {
            Op::Insert(k) => {
                let name = name_of(k);
                if chained.contains_key(&name) {
                    continue; // model one live entry per name
                }
                let h = crc32(name.as_bytes());
                let slot = slab.alloc(&name, h);
                table.insert(&mut slab, slot);
                visible.insert(name.clone(), slot);
                chained.insert(name, slot);
            }
            Op::Lookup(k) => {
                let name = name_of(k);
                let h = crc32(name.as_bytes());
                let got = table.lookup(&slab, &name, h);
                assert_eq!(got, visible.get(&name).copied(), "lookup({name})");
            }
            Op::Hide(k) => {
                let name = name_of(k);
                if let Some(&slot) = visible.get(&name) {
                    slab.get_mut(slot).hide();
                    visible.remove(&name);
                }
            }
            Op::Remove(k) => {
                let name = name_of(k);
                if let Some(slot) = chained.remove(&name) {
                    table.remove(&mut slab, slot);
                    slab.release(slot);
                    visible.remove(&name);
                }
            }
        }
        // Global invariants after every operation.
        assert_eq!(table.len(), chained.len(), "chained-entry accounting");
        assert!(
            table.len() * 100 <= table.bucket_count() * 80,
            "load factor bound violated: {}/{}",
            table.len(),
            table.bucket_count()
        );
    }
    // Final sweep: every oracle entry is findable, nothing else is.
    for (name, &slot) in &visible {
        let h = crc32(name.as_bytes());
        assert_eq!(table.lookup(&slab, name, h), Some(slot));
    }
    let total: usize = table.chain_lengths(&slab).iter().sum();
    assert_eq!(total, chained.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fibonacci_table_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check_sequence(ops, SizePolicy::Fibonacci);
    }

    #[test]
    fn pow2_table_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check_sequence(ops, SizePolicy::PowerOfTwo);
    }
}
