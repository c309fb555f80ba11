//! Which record pairs the blocked join is allowed to emit.
//!
//! The classic join enumerates candidates implicitly from the value
//! universe — every cross-record pair of similar values survives, which
//! is an *all-pairs* policy over records. A blocking stage (see the
//! `hera-block` crate) replaces that policy with an explicit, typically
//! sub-quadratic, set of record pairs, the [`RecordPairSet`];
//! [`crate::SimilarityJoin::join_blocked`] then only compares values
//! across allowed pairs.

/// A deduplicated, sorted set of normalized record pairs (`a < b`).
///
/// This is the hand-off format between a blocker and the similarity
/// join: the blocker decides *which* record pairs are worth comparing,
/// the join decides *which value pairs within them* clear ξ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordPairSet {
    pairs: Vec<(u32, u32)>,
}

impl RecordPairSet {
    /// Builds a set from arbitrary pairs: orients each pair as
    /// `(min, max)`, drops self-pairs, sorts, and deduplicates.
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> Self {
        for p in pairs.iter_mut() {
            if p.0 > p.1 {
                *p = (p.1, p.0);
            }
        }
        pairs.retain(|p| p.0 != p.1);
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// Number of allowed record pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pair is allowed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test (either orientation).
    pub fn contains(&self, a: u32, b: u32) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pairs.binary_search(&key).is_ok()
    }

    /// The pairs, sorted ascending with `a < b` in each.
    pub fn as_slice(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Iterates pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pairs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_normalizes_sorts_dedups() {
        let set = RecordPairSet::from_pairs(vec![(3, 1), (1, 3), (2, 2), (0, 5), (1, 3)]);
        assert_eq!(set.as_slice(), &[(0, 5), (1, 3)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn contains_checks_both_orientations() {
        let set = RecordPairSet::from_pairs(vec![(4, 7)]);
        assert!(set.contains(4, 7));
        assert!(set.contains(7, 4));
        assert!(!set.contains(4, 6));
    }

    #[test]
    fn empty_set() {
        let set = RecordPairSet::from_pairs(vec![(9, 9)]);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }
}
