//! The one fact type of the set-valued dataflow problems.
//!
//! Reaching definitions (a set of [`super::DefId`]s), liveness and the
//! verifier's definite assignment (sets of registers) all propagate a
//! [`BitSet`]. The solver clones a fact at every position it records,
//! so the first 128 elements live inline: for a function with at most
//! 128 registers or definitions a clone is two words and never calls
//! the allocator. Larger universes spill the remaining words to the
//! heap, and [`Clone::clone_from`] reuses that spill buffer.

/// Words held inline (128 elements).
const INLINE_WORDS: usize = 2;

/// A fixed-universe set of small integers, one bit per element.
///
/// Every set a problem builds spans the same universe, so binary
/// operations pair words one to one.
#[derive(PartialEq, Eq, Debug)]
pub struct BitSet {
    inline: [u64; INLINE_WORDS],
    /// Words past the inline ones; empty, so never allocated, for a
    /// universe of at most 128 elements.
    spill: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet {
            inline: self.inline,
            spill: self.spill.clone(),
        }
    }

    fn clone_from(&mut self, source: &BitSet) {
        self.inline = source.inline;
        self.spill.clone_from(&source.spill);
    }
}

impl BitSet {
    /// The empty set over the universe `0..len`.
    pub fn empty(len: usize) -> BitSet {
        BitSet {
            inline: [0; INLINE_WORDS],
            spill: vec![0; len.div_ceil(64).saturating_sub(INLINE_WORDS)],
        }
    }

    /// The set holding all of `0..len`.
    pub fn full(len: usize) -> BitSet {
        let mut set = BitSet::empty(len);
        set.insert_range(len);
        set
    }

    /// Add every element of `0..end`.
    pub fn insert_range(&mut self, end: usize) {
        for (w, word) in self.words_mut().enumerate() {
            let lo = w * 64;
            if end >= lo + 64 {
                *word = u64::MAX;
            } else if end > lo {
                *word |= (1 << (end - lo)) - 1;
            }
        }
    }

    fn word(&self, w: usize) -> u64 {
        match self.inline.get(w) {
            Some(&word) => word,
            None => self.spill[w - INLINE_WORDS],
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match self.inline.get_mut(w) {
            Some(word) => word,
            None => &mut self.spill[w - INLINE_WORDS],
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.inline.iter().chain(&self.spill).copied()
    }

    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.inline.iter_mut().chain(&mut self.spill)
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / 64) >> (i % 64) & 1 != 0
    }

    /// Add `i`.
    pub fn insert(&mut self, i: usize) {
        *self.word_mut(i / 64) |= 1 << (i % 64);
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        *self.word_mut(i / 64) &= !(1 << (i % 64));
    }

    /// Apply `op` to each pair of words; return whether `self` changed.
    fn combine(&mut self, other: &BitSet, op: impl Fn(u64, u64) -> u64) -> bool {
        let mut changed = false;
        for (word, theirs) in self.words_mut().zip(other.words()) {
            let new = op(*word, theirs);
            changed |= new != *word;
            *word = new;
        }
        changed
    }

    /// `self ∪= other`; return whether `self` grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.combine(other, |a, b| a | b)
    }

    /// `self ∩= other`; return whether `self` shrank.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.combine(other, |a, b| a & b)
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        self.combine(other, |a, b| a & !b);
    }

    /// The elements of `self ∩ mask`, ascending.
    pub fn iter_and<'a>(&'a self, mask: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        let words = self.words().zip(mask.words()).map(|(a, b)| a & b);
        words.enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_spilled_sets_agree() {
        for len in [0, 1, 63, 64, 65, 128, 129, 300] {
            let mut set = BitSet::empty(len);
            let picks: Vec<usize> = (0..len).filter(|i| i % 3 == 1 || i % 64 == 63).collect();
            for &i in &picks {
                set.insert(i);
            }
            let full = BitSet::full(len);
            assert_eq!(set.iter_and(&full).collect::<Vec<_>>(), picks, "len {len}");
            assert!(picks.iter().all(|&i| set.contains(i)));
            assert_eq!(full.iter_and(&full).count(), len, "len {len}");
            let mut copy = BitSet::full(len);
            copy.clone_from(&set);
            assert_eq!(copy, set);
            assert!(!copy.union_with(&set), "union with itself adds nothing");
            assert_eq!(copy.union_with(&full), len > picks.len());
            assert_eq!(copy, full);
            assert_eq!(copy.intersect_with(&set), len > picks.len());
            assert_eq!(copy, set);
            copy.subtract(&set);
            assert_eq!(copy, BitSet::empty(len));
            let mut low_half = BitSet::empty(len);
            low_half.insert_range(len / 2);
            assert_eq!(
                set.iter_and(&low_half).collect::<Vec<_>>(),
                picks
                    .iter()
                    .copied()
                    .filter(|&i| i < len / 2)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn removal_clears_one_element() {
        let mut set = BitSet::full(200);
        set.remove(5);
        set.remove(150);
        assert!(!set.contains(5) && !set.contains(150));
        assert_eq!(set.iter_and(&BitSet::full(200)).count(), 198);
    }
}
