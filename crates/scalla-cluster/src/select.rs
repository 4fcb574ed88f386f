//! Server selection (§II-B3).
//!
//! "If more than one node has the file, a selection is made based on
//! configuration defined criteria (e.g., load, selection frequency, space,
//! etc.)." The policy operates on the candidate `ServerSet` a resolution
//! produced, consulting the membership metadata, and is deliberately cheap:
//! one pass over at most 64 candidates.

use crate::member::Membership;
use scalla_util::{ServerId, ServerSet, SplitMix64};

/// The server-selection policy in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Rotate through candidates (stateful round-robin).
    #[default]
    RoundRobin,
    /// Uniformly random candidate.
    Random,
    /// Candidate with the lowest reported load.
    LeastLoad,
    /// Candidate selected the fewest times so far (selection frequency).
    LeastSelected,
    /// Candidate with the most free space.
    MostFreeSpace,
}

/// A stateful selector. One per cmsd node.
pub struct Selector {
    policy: SelectionPolicy,
    rng: SplitMix64,
    rr_cursor: u8,
}

impl Selector {
    /// Creates a selector with a deterministic seed.
    pub fn new(policy: SelectionPolicy, seed: u64) -> Selector {
        Selector { policy, rng: SplitMix64::new(seed), rr_cursor: 0 }
    }

    /// The policy in force.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Picks one of `candidates` (must be non-empty to return `Some`),
    /// recording the selection in `members` for frequency accounting.
    pub fn select(&mut self, candidates: ServerSet, members: &mut Membership) -> Option<ServerId> {
        let pick = self.pick(candidates, members)?;
        members.note_selected(pick);
        Some(pick)
    }

    fn pick(&mut self, candidates: ServerSet, members: &Membership) -> Option<ServerId> {
        if candidates.is_empty() {
            return None;
        }
        match self.policy {
            SelectionPolicy::Random => self.rng.pick_bit(candidates.0),
            SelectionPolicy::RoundRobin => {
                // First candidate at or after the cursor, wrapping.
                let rotated = candidates.0.rotate_right(self.rr_cursor as u32);
                let off = rotated.trailing_zeros() as u8;
                let id = (self.rr_cursor + off) % 64;
                self.rr_cursor = (id + 1) % 64;
                Some(id)
            }
            SelectionPolicy::LeastLoad => candidates
                .iter()
                .min_by_key(|&id| members.meta(id).map(|m| m.load).unwrap_or(u32::MAX)),
            SelectionPolicy::LeastSelected => candidates
                .iter()
                .min_by_key(|&id| members.meta(id).map(|m| m.selections).unwrap_or(u64::MAX)),
            SelectionPolicy::MostFreeSpace => candidates
                .iter()
                .max_by_key(|&id| members.meta(id).map(|m| m.free_bytes).unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MembershipConfig;
    use scalla_util::Nanos;

    fn members(n: usize) -> Membership {
        let mut m = Membership::new(MembershipConfig::default());
        for i in 0..n {
            m.login(&format!("srv-{i}"), &["/d".to_string()], Nanos::ZERO);
        }
        m
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut m = members(2);
        let mut s = Selector::new(SelectionPolicy::Random, 1);
        assert_eq!(s.select(ServerSet::EMPTY, &mut m), None);
    }

    #[test]
    fn round_robin_cycles_through_all() {
        let mut m = members(4);
        let mut s = Selector::new(SelectionPolicy::RoundRobin, 0);
        let candidates = ServerSet::first_n(4);
        let picks: Vec<ServerId> = (0..8).map(|_| s.select(candidates, &mut m).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_non_candidates() {
        let mut m = members(8);
        let mut s = Selector::new(SelectionPolicy::RoundRobin, 0);
        let candidates = ServerSet(0b1010_0010); // {1, 5, 7}
        let picks: Vec<ServerId> = (0..6).map(|_| s.select(candidates, &mut m).unwrap()).collect();
        assert_eq!(picks, vec![1, 5, 7, 1, 5, 7]);
    }

    #[test]
    fn least_load_picks_minimum() {
        let mut m = members(3);
        m.report_load(0, 90, 0);
        m.report_load(1, 10, 0);
        m.report_load(2, 50, 0);
        let mut s = Selector::new(SelectionPolicy::LeastLoad, 0);
        assert_eq!(s.select(ServerSet::first_n(3), &mut m), Some(1));
    }

    #[test]
    fn least_selected_balances() {
        let mut m = members(3);
        let mut s = Selector::new(SelectionPolicy::LeastSelected, 0);
        let candidates = ServerSet::first_n(3);
        let mut counts = [0u32; 3];
        for _ in 0..30 {
            counts[s.select(candidates, &mut m).unwrap() as usize] += 1;
        }
        assert_eq!(counts, [10, 10, 10], "selection frequency must equalize");
    }

    #[test]
    fn most_free_space_picks_maximum() {
        let mut m = members(3);
        m.report_load(0, 0, 100);
        m.report_load(1, 0, 900);
        m.report_load(2, 0, 500);
        let mut s = Selector::new(SelectionPolicy::MostFreeSpace, 0);
        assert_eq!(s.select(ServerSet::first_n(3), &mut m), Some(1));
    }

    #[test]
    fn random_only_picks_candidates() {
        let mut m = members(8);
        let mut s = Selector::new(SelectionPolicy::Random, 7);
        let candidates = ServerSet(0b0101_0101);
        for _ in 0..100 {
            let pick = s.select(candidates, &mut m).unwrap();
            assert!(candidates.contains(pick));
        }
    }
}
