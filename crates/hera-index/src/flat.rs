//! The paper-literal flat index: one sorted array, probed by two nested
//! binary searches (Definition 6 / Algorithm 1 lines 4–5).
//!
//! Kept alongside [`ValuePairIndex`](crate::ValuePairIndex) for
//! differential testing and for benchmarking the paper's exact memory
//! layout. Queries match the production index entry-for-entry; merge
//! maintenance is the naive relabel-and-resort (`O(|𝒱| log |𝒱|)`), which
//! is the cost the grouped index's re-homing avoids.

use hera_join::ValuePair;
use hera_types::Label;

/// Flat sorted value-pair index.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    /// Sorted by `(rid₁, rid₂, sim desc, labels)`. Each position is the
    /// entry's `pid` (the paper numbers them from 1; we are 0-based).
    entries: Vec<ValuePair>,
}

impl FlatIndex {
    /// Builds from a similarity-join result.
    pub fn build(pairs: impl IntoIterator<Item = ValuePair>) -> Self {
        let mut entries: Vec<ValuePair> = pairs.into_iter().collect();
        for p in &entries {
            assert!(p.a.rid < p.b.rid, "value pair must be rid-normalized");
        }
        sort_entries(&mut entries);
        Self { entries }
    }

    /// `|𝒱|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry at `pid` (0-based).
    pub fn entry(&self, pid: usize) -> &ValuePair {
        &self.entries[pid]
    }

    /// `binary_search_l(1, |V|, i)` of Algorithm 1: the half-open range of
    /// entries whose `rid₁ == i`.
    pub fn rid1_range(&self, i: u32) -> std::ops::Range<usize> {
        let lo = self.entries.partition_point(|e| e.a.rid < i);
        let hi = self.entries.partition_point(|e| e.a.rid <= i);
        lo..hi
    }

    /// `binary_search_r(k, l, j)`: within a `rid₁` range, the sub-range
    /// with `rid₂ == j`.
    pub fn rid2_range(&self, within: std::ops::Range<usize>, j: u32) -> std::ops::Range<usize> {
        let slice = &self.entries[within.clone()];
        let lo = within.start + slice.partition_point(|e| e.b.rid < j);
        let hi = within.start + slice.partition_point(|e| e.b.rid <= j);
        lo..hi
    }

    /// `𝒱ᵢⱼ` via the two nested binary searches, similarity-descending.
    pub fn group(&self, i: u32, j: u32) -> &[ValuePair] {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let r1 = self.rid1_range(i);
        let r2 = self.rid2_range(r1, j);
        &self.entries[r2]
    }

    /// Merge maintenance, paper-naive: delete intra `(i, j)` pairs,
    /// rewrite labels of both rids through `remap`, resort the whole
    /// array.
    pub fn merge(&mut self, i: u32, j: u32, k: u32, remap: impl Fn(Label) -> Label) {
        assert!(
            k == i || k == j,
            "merge target must be one of the merged rids"
        );
        self.entries
            .retain(|e| !((e.a.rid == i && e.b.rid == j) || (e.a.rid == j && e.b.rid == i)));
        for e in &mut self.entries {
            if e.a.rid == i || e.a.rid == j {
                e.a = remap(e.a);
            }
            if e.b.rid == i || e.b.rid == j {
                e.b = remap(e.b);
            }
            if e.a.rid > e.b.rid {
                std::mem::swap(&mut e.a, &mut e.b);
            }
        }
        sort_entries(&mut self.entries);
        // Same duplicate-collapse as the grouped index (see its `merge`).
        let mut seen: std::collections::HashSet<(Label, Label)> = Default::default();
        self.entries.retain(|e| seen.insert((e.a, e.b)));
    }

    /// All entries (pid order).
    pub fn entries(&self) -> &[ValuePair] {
        &self.entries
    }
}

fn sort_entries(entries: &mut [ValuePair]) {
    entries.sort_unstable_by(|x, y| {
        (x.a.rid, x.b.rid)
            .cmp(&(y.a.rid, y.b.rid))
            .then_with(|| {
                y.sim
                    .partial_cmp(&x.sim)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValuePairIndex;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn vp(r1: u32, f1: u32, r2: u32, f2: u32, sim: f64) -> ValuePair {
        ValuePair {
            a: Label::new(r1, f1, 0),
            b: Label::new(r2, f2, 0),
            sim,
        }
    }

    #[test]
    fn nested_binary_search() {
        let idx = FlatIndex::build(vec![
            vp(1, 0, 2, 0, 0.9),
            vp(1, 0, 3, 0, 0.8),
            vp(1, 1, 3, 1, 0.7),
            vp(2, 0, 3, 0, 0.6),
        ]);
        assert_eq!(idx.rid1_range(1), 0..3);
        assert_eq!(idx.rid1_range(2), 3..4);
        assert_eq!(idx.rid1_range(9), 4..4);
        let g = idx.group(1, 3);
        assert_eq!(g.len(), 2);
        assert!(g[0].sim >= g[1].sim);
        assert!(idx.group(2, 9).is_empty());
    }

    #[test]
    fn example4_probe() {
        // Fig 4: rid₁ = 4 appears in pids 13..17 (1-based); finding
        // rid₂ = 6 within yields exactly three pairs.
        let idx = FlatIndex::build(vec![
            vp(1, 3, 4, 3, 1.0),
            vp(1, 1, 6, 1, 1.0),
            vp(2, 2, 6, 4, 1.0),
            vp(3, 1, 5, 1, 1.0),
            vp(4, 1, 5, 2, 0.83),
            vp(4, 2, 5, 2, 0.4),
            vp(4, 3, 6, 3, 1.0),
            vp(4, 4, 6, 4, 1.0),
            vp(4, 5, 6, 5, 0.9),
        ]);
        assert_eq!(idx.group(4, 6).len(), 3);
        // Range endpoints match the sorted layout.
        let r = idx.rid1_range(4);
        assert_eq!(r.len(), 5);
    }

    /// A record of the differential model: its labels and the value
    /// each holds. Similarity is a function of the two values, so labels
    /// a merge collapses — they hold one value — carry equal sims, as
    /// super-record merging guarantees.
    type Labels = Vec<(Label, u32)>;

    fn sim_of(u: u32, v: u32) -> f64 {
        let (u, v) = (u.min(v), u.max(v));
        ((u * 7 + v * 3) % 10 + 1) as f64 / 10.0
    }

    /// Up to `n` pairs between labels of two different live records that
    /// `have` does not hold yet, rid-normalized.
    fn fresh_pairs(
        rng: &mut impl Rng,
        records: &[Option<Labels>],
        have: &[ValuePair],
        n: usize,
    ) -> Vec<ValuePair> {
        let labels: Vec<(Label, u32)> = records.iter().flatten().flatten().copied().collect();
        let mut out: Vec<ValuePair> = Vec::new();
        for _ in 0..n {
            let (x, u) = labels[rng.gen_range(0..labels.len())];
            let (y, v) = labels[rng.gen_range(0..labels.len())];
            if x.rid == y.rid {
                continue;
            }
            let (a, b) = if x.rid < y.rid { (x, y) } else { (y, x) };
            if !have.iter().chain(&out).any(|p| (p.a, p.b) == (a, b)) {
                let sim = sim_of(u, v);
                out.push(ValuePair { a, b, sim });
            }
        }
        out
    }

    /// Every observable of the grouped index against the flat oracle.
    fn assert_same(flat: &FlatIndex, grouped: &ValuePairIndex, rids: u32, step: &str) {
        grouped
            .check_invariants()
            .unwrap_or_else(|e| panic!("{step}: {e}"));
        assert_eq!(flat.len(), grouped.len(), "{step}: len");
        let mut keys: Vec<(u32, u32)> = flat.entries().iter().map(|e| (e.a.rid, e.b.rid)).collect();
        keys.dedup();
        assert_eq!(keys.len(), grouped.group_count(), "{step}: group_count");
        assert_eq!(
            keys,
            grouped.record_pairs().collect::<Vec<_>>(),
            "{step}: record_pairs"
        );
        for i in 0..rids {
            let partners: Vec<u32> = (0..rids)
                .filter(|&p| keys.contains(&(i.min(p), i.max(p))))
                .collect();
            assert_eq!(
                partners,
                grouped.partners(i).collect::<Vec<_>>(),
                "{step}: partners of {i}"
            );
            for j in 0..rids {
                assert_eq!(
                    flat.group(i, j),
                    grouped.group(i, j),
                    "{step}: group ({i},{j})"
                );
            }
        }
        assert_eq!(
            ValuePairIndex::build(flat.entries().to_vec())
                .to_json()
                .to_string_compact(),
            grouped.to_json().to_string_compact(),
            "{step}: to_json"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Flat and grouped indexes agree on every observable through a
        /// random sequence of merges and arrivals: records merged again
        /// after a merge, either rid as the target, remaps that collapse
        /// labels holding one value (within the winner too) and that
        /// renumber the winner's labels, and new pairs filed into slots
        /// earlier merges freed.
        #[test]
        fn differential_with_grouped(seed in any::<u64>(), n in 0usize..60) {
            const RIDS: u32 = 8;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut records: Vec<Option<Labels>> = (0..RIDS)
                .map(|r| Some((0..3).map(|f| (Label::new(r, f, 0), rng.gen_range(0..5))).collect()))
                .collect();
            let pairs = fresh_pairs(&mut rng, &records, &[], n);
            let mut flat = FlatIndex::build(pairs.clone());
            let mut grouped = ValuePairIndex::build(pairs);
            assert_same(&flat, &grouped, RIDS, "build");

            for step in 1..RIDS {
                let live: Vec<u32> = (0..RIDS).filter(|&r| records[r as usize].is_some()).collect();
                let i = live[rng.gen_range(0..live.len())];
                let j = live[rng.gen_range(0..live.len())];
                if i == j {
                    continue;
                }
                let (k, folded) = if rng.gen_bool(0.5) { (i, j) } else { (j, i) };
                // One label per distinct value under k, the winner's
                // values first — unless this merge renumbers them.
                let mut old: Labels = records[k as usize].take().unwrap();
                let loser = records[folded as usize].take().unwrap();
                if rng.gen_bool(0.3) {
                    old.splice(0..0, loser);
                } else {
                    old.extend(loser);
                }
                let mut merged: Labels = Vec::new();
                let mut map = std::collections::HashMap::new();
                for (label, value) in old {
                    let at = merged.iter().position(|&(_, v)| v == value).unwrap_or_else(|| {
                        let nth = merged.len() as u32;
                        merged.push((Label::new(k, nth % 3, nth / 3), value));
                        merged.len() - 1
                    });
                    map.insert(label, merged[at].0);
                }
                records[k as usize] = Some(merged);
                flat.merge(i, j, k, |l| map[&l]);
                grouped.merge(i, j, k, |l| map[&l]);
                assert_same(&flat, &grouped, RIDS, &format!("merge {step}: {i}+{j}->{k}"));

                if rng.gen_bool(0.4) {
                    let arrivals = fresh_pairs(&mut rng, &records, flat.entries(), 4);
                    flat = FlatIndex::build(flat.entries().iter().copied().chain(arrivals.clone()));
                    grouped.extend(arrivals);
                    assert_same(&flat, &grouped, RIDS, &format!("extend {step}"));
                }
            }
        }
    }
}
