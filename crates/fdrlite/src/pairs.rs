//! The visited-pair index both product engines share: a product pair
//! `(impl state, spec node)` packed into one `u64`, numbered in insertion
//! order, and found in one open-addressed table (linear probing over a
//! power-of-two slot array at most half full, a multiply-shift hash), like
//! the state index of `csp::lts`.

use csp::StateId;

use crate::normalise::NormNodeId;

/// The product pair `(s, n)` as one word: the state in the high half.
pub(crate) fn pack(s: StateId, n: NormNodeId) -> u64 {
    key_at(s.index() as u32, n.index() as u32)
}

/// The product pair a packed word names.
pub(crate) fn unpack(key: u64) -> (StateId, NormNodeId) {
    let (s, n) = entry_of(key);
    (
        StateId::from_index(s as usize),
        NormNodeId::from_index(n as usize),
    )
}

/// The packed pair of a frontier entry `(impl state, spec node)`, and back.
pub(crate) fn key_at(s: u32, n: u32) -> u64 {
    u64::from(s) << 32 | u64::from(n)
}

pub(crate) fn entry_of(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Packed pairs numbered `0, 1, …` in insertion order.
#[derive(Debug, Default)]
pub(crate) struct PairIndex {
    /// Every key, at its number.
    keys: Vec<u64>,
    /// Key numbers by hash; [`PairIndex::EMPTY`] marks a free slot.
    slots: Vec<u32>,
}

impl PairIndex {
    const EMPTY: u32 = u32::MAX;

    /// Every key, in insertion order.
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }

    fn home(&self, key: u64) -> usize {
        let h = (key ^ (key >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`'s number, or the free slot where it belongs.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let id = self.slots[i];
            if id == Self::EMPTY || self.keys[id as usize] == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The number of `key`, and whether this call inserted it.
    pub(crate) fn insert(&mut self, key: u64) -> (u32, bool) {
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.probe(key);
        if self.slots[i] != Self::EMPTY {
            return (self.slots[i], false);
        }
        let id = self.keys.len() as u32;
        assert_ne!(
            id,
            Self::EMPTY,
            "a pair index holds fewer than u32::MAX keys"
        );
        self.slots[i] = id;
        self.keys.push(key);
        (id, true)
    }

    fn grow(&mut self) {
        self.slots = vec![Self::EMPTY; (self.slots.len() * 2).max(64)];
        for id in 0..self.keys.len() {
            let i = self.probe(self.keys[id]);
            self.slots[i] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Keys from a small pool, so re-inserts are common, mixed with states
    /// and nodes at the top of the `u32` range.
    fn arb_key() -> impl Strategy<Value = u64> {
        let near_max = (u32::MAX - 3)..=u32::MAX;
        prop_oneof![
            (0u32..40, 0u32..40),
            (near_max.clone(), 0u32..4),
            (0u32..4, near_max.clone()),
            (near_max.clone(), near_max),
        ]
        .prop_map(|(s, n)| key_at(s, n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inserts, re-inserts and growth past several table sizes agree
        /// with a `HashMap` oracle numbering keys in insertion order.
        #[test]
        fn pair_index_agrees_with_a_hash_map(keys in proptest::collection::vec(arb_key(), 0..600)) {
            let mut index = PairIndex::default();
            let mut oracle: HashMap<u64, u32> = HashMap::new();
            for &key in &keys {
                let fresh = oracle.len() as u32;
                let expected = *oracle.entry(key).or_insert(fresh);
                prop_assert_eq!(index.insert(key), (expected, expected == fresh));
                prop_assert_eq!(index.keys()[expected as usize], key);
            }
            prop_assert_eq!(index.keys().len(), oracle.len());
            for (&key, &id) in &oracle {
                prop_assert_eq!(index.insert(key), (id, false));
                prop_assert_eq!(index.keys()[id as usize], key);
            }
        }
    }

    #[test]
    fn packing_round_trips_at_the_top_of_the_range() {
        for (s, n) in [
            (0, 0),
            (u32::MAX, 7),
            (3, u32::MAX),
            (u32::MAX - 1, u32::MAX),
        ] {
            let pair = (
                StateId::from_index(s as usize),
                NormNodeId::from_index(n as usize),
            );
            assert_eq!(unpack(pack(pair.0, pair.1)), pair);
        }
        let mut index = PairIndex::default();
        assert_eq!(index.insert(7), (0, true));
        assert_eq!(index.insert(7), (0, false));
    }
}
