//! An ordered set of small indices, one bit per index.
//!
//! [`BitSet`] is the membership set behind every activity gate of the
//! simulator (routers holding a head or a staged packet, routers with
//! changed outputs, queued nodes, dirty groups, woken and waiting ranks):
//! insertion is O(1) in any order, and every walk — [`BitSet::iter`],
//! [`BitSet::drain`], [`BitSet::retain`] — visits the members in ascending
//! index order by construction, so a walk that schedules, draws or numbers
//! anything needs no sort to be deterministic.

/// A set of indices in `0..capacity`, iterated in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    /// Bit `i % 64` of word `i / 64` is set for member `i`.
    words: Vec<u64>,
    /// Members (kept by every update, so `len` and `is_empty` are O(1)).
    len: usize,
}

impl BitSet {
    /// An empty set over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// The set of every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = BitSet::new(capacity);
        for (w, word) in set.words.iter_mut().enumerate() {
            *word = u64::MAX >> (64 - (capacity - 64 * w).min(64));
        }
        set.len = capacity;
        set
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Add `i`; returns whether it was not a member yet.
    ///
    /// # Panics
    /// Panics if `i` is beyond the set's capacity (rounded up to 64).
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        let added = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(added);
        added
    }

    /// Remove `i`; returns whether it was a member.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        let removed = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(removed);
        removed
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.words.iter().enumerate()).flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    64 * w + b
                })
            })
        })
    }

    /// Remove and yield the members, ascending. A member leaves the set as
    /// it is yielded, so dropping the iterator early keeps the rest.
    pub fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        let mut w = 0;
        std::iter::from_fn(move || {
            while let Some(word) = self.words.get_mut(w) {
                if *word != 0 {
                    let b = word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    self.len -= 1;
                    return Some(64 * w + b);
                }
                w += 1;
            }
            None
        })
    }

    /// Visit the members ascending, keeping those `keep` returns `true` for.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(64 * w + b) {
                    *word &= !(1 << b);
                    self.len -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicRng;

    #[test]
    fn full_sets_hold_exactly_their_capacity() {
        for capacity in [0, 1, 63, 64, 65, 130] {
            let set = BitSet::full(capacity);
            assert_eq!(set.len(), capacity);
            assert!(set.iter().eq(0..capacity), "capacity {capacity}");
        }
    }

    /// Random inserts and removes against a sorted-vector model: every walk
    /// ascends and agrees with the model, and the count stays exact.
    #[test]
    fn walks_ascend_and_match_a_sorted_model() {
        let mut rng = DeterministicRng::new(7);
        let capacity = 200;
        let (mut set, mut model) = (BitSet::new(capacity), std::collections::BTreeSet::new());
        for round in 0..2_000 {
            let i = rng.index(capacity);
            if rng.bernoulli(0.6) {
                assert_eq!(set.insert(i), model.insert(i));
            } else {
                assert_eq!(set.remove(i), model.remove(&i));
            }
            assert_eq!(set.contains(i), model.contains(&i));
            assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
            match round % 100 {
                0 => {
                    // drop a drain half way: the rest stays
                    let half = model.len() / 2;
                    let taken: Vec<usize> = set.drain().take(half).collect();
                    assert!(taken.iter().eq(model.iter().take(half)));
                    taken.iter().for_each(|i| assert!(model.remove(i)));
                }
                50 => {
                    let mut visited = Vec::new();
                    set.retain(|i| {
                        visited.push(i);
                        i % 3 != 0
                    });
                    assert!(visited.iter().eq(model.iter()));
                    model.retain(|i| i % 3 != 0);
                }
                _ => {}
            }
            assert!(set.iter().eq(model.iter().copied()), "round {round}");
            assert_eq!(set.len(), model.len());
        }
        let drained: Vec<usize> = set.drain().collect();
        assert!(drained.iter().eq(model.iter()));
        assert!(set.is_empty() && set.iter().next().is_none());
    }
}
