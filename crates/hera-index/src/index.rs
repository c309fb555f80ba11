//! The production value-pair index: grouped, ordered, and maintainable.

use crate::bounds::{
    compute_bounds, refined_field_set, refined_field_set_into, BoundMode, Bounds, FieldPairSim,
};
use hera_join::ValuePair;
use hera_types::json::Json;
use hera_types::{HeraError, Label, Result};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

/// The value-pair index of Definition 6.
///
/// Logically a single sequence sorted by `(rid₁, rid₂, sim desc)`;
/// physically a `BTreeMap` keyed by the `(rid₁, rid₂)` prefix with each
/// group kept similarity-descending. Lookups match the paper's two nested
/// binary searches (`O(log |𝒱| + |𝒱ᵢⱼ|)`), and merge maintenance re-homes
/// only the `O(|𝒱̂ᵢⱼ|)` affected entries instead of splicing a flat array.
#[derive(Debug, Clone, Default)]
pub struct ValuePairIndex {
    groups: BTreeMap<(u32, u32), Vec<ValuePair>>,
    /// rid → set of partner rids with at least one indexed pair.
    partners: FxHashMap<u32, FxHashSet<u32>>,
    /// Total entry count `|𝒱|`.
    total: usize,
}

impl ValuePairIndex {
    /// Builds the index from a similarity-join result. The iterator may
    /// yield pairs in any order (they are sorted here), but each pair
    /// itself must be rid-normalized (`a.rid < b.rid`) — a non-normalized
    /// pair panics, exactly as it does on the incremental path.
    ///
    /// Bulk path: pairs are sorted by group key (a no-op pass when the
    /// input is already in join output order) and consumed as sorted
    /// runs, so the tree, partner-map, and set operations happen once per
    /// **group** instead of once per pair (a per-pair reference build is
    /// the tests' differential oracle).
    pub fn build(pairs: impl IntoIterator<Item = ValuePair>) -> Self {
        let mut pairs: Vec<ValuePair> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|p| (p.a.rid, p.b.rid));
        let mut idx = Self {
            total: pairs.len(),
            ..Self::default()
        };
        let mut i = 0;
        while i < pairs.len() {
            let key = (pairs[i].a.rid, pairs[i].b.rid);
            assert!(key.0 < key.1, "value pair must be rid-normalized");
            let mut j = i + 1;
            while j < pairs.len() && (pairs[j].a.rid, pairs[j].b.rid) == key {
                j += 1;
            }
            let mut group = pairs[i..j].to_vec();
            sort_group(&mut group);
            idx.groups.insert(key, group);
            idx.partners.entry(key.0).or_default().insert(key.1);
            idx.partners.entry(key.1).or_default().insert(key.0);
            i = j;
        }
        idx
    }

    /// Reference build: one tree/partner insertion per pair — the
    /// differential oracle for the bulk [`Self::build`].
    #[cfg(test)]
    fn build_incremental(pairs: impl IntoIterator<Item = ValuePair>) -> Self {
        let mut idx = Self::default();
        for p in pairs {
            idx.insert(p);
        }
        idx.restore_group_order();
        idx
    }

    fn insert(&mut self, p: ValuePair) {
        assert!(p.a.rid < p.b.rid, "value pair must be rid-normalized");
        self.groups.entry((p.a.rid, p.b.rid)).or_default().push(p);
        self.partners.entry(p.a.rid).or_default().insert(p.b.rid);
        self.partners.entry(p.b.rid).or_default().insert(p.a.rid);
        self.total += 1;
    }

    fn restore_group_order(&mut self) {
        for g in self.groups.values_mut() {
            sort_group(g);
        }
    }

    /// Adds freshly joined pairs to an existing index (streaming ER: a
    /// new record's similar value pairs arrive after the initial build).
    /// Only the touched groups are re-sorted.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = ValuePair>) {
        let mut touched: FxHashSet<(u32, u32)> = FxHashSet::default();
        for p in pairs {
            touched.insert((p.a.rid, p.b.rid));
            self.insert(p);
        }
        for key in touched {
            if let Some(g) = self.groups.get_mut(&key) {
                sort_group(g);
            }
        }
    }

    /// `|𝒱|` — number of indexed value pairs (Table II's `|S|`).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The group `𝒱ᵢⱼ` for a record pair (either argument order),
    /// similarity-descending. Empty slice if the records share no similar
    /// values.
    pub fn group(&self, i: u32, j: u32) -> &[ValuePair] {
        let key = if i < j { (i, j) } else { (j, i) };
        self.groups.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates all record pairs that share at least one similar value —
    /// the raw candidate universe, obtained in linear time (Prop. 2).
    pub fn record_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.groups.keys().copied()
    }

    /// Number of record-pair groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Partners of a record (rids it shares similar values with).
    pub fn partners(&self, rid: u32) -> impl Iterator<Item = u32> + '_ {
        self.partners
            .get(&rid)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The refined field set `𝒱′ᵢⱼ` — all *similar field pairs* of the
    /// record pair with their field similarities (the verification step's
    /// input, §IV-A Step 1).
    pub fn similar_field_pairs(&self, i: u32, j: u32) -> Vec<FieldPairSim> {
        let mut out = Vec::new();
        self.similar_field_pairs_into(i, j, &mut out);
        out
    }

    /// [`ValuePairIndex::similar_field_pairs`] into a caller buffer: `out`
    /// is cleared and refilled, so the verifier's per-pair lookup reuses
    /// one allocation across its whole run.
    pub fn similar_field_pairs_into(&self, i: u32, j: u32, out: &mut Vec<FieldPairSim>) {
        let group = self.group(i, j);
        refined_field_set_into(group, out);
        if i > j {
            // Caller views `i` as the left record: swap sides in place.
            for p in out.iter_mut() {
                std::mem::swap(&mut p.left_fid, &mut p.right_fid);
            }
        }
    }

    /// Algorithm 1: bounds of `Sim(Rᵢ, Rⱼ)` given the two record sizes.
    pub fn bounds(&self, i: u32, j: u32, size_i: usize, size_j: usize, mode: BoundMode) -> Bounds {
        let (key_sizes, group) = if i < j {
            ((size_i, size_j), self.group(i, j))
        } else {
            ((size_j, size_i), self.group(i, j))
        };
        let refined = refined_field_set(group);
        compute_bounds(&refined, key_sizes.0, key_sizes.1, mode)
    }

    /// Bound-ordered candidate drain: computes Up/Low for each candidate
    /// root pair, prunes pairs whose upper bound cannot reach `delta`,
    /// and returns the survivors in deterministic priority order —
    /// highest expected value first (see [`RankedCandidate::priority`]).
    /// `size_of` supplies a root's informative size (the bound
    /// denominator); `members_of` its member-record count, which is
    /// summed per frontier component into the candidate gain. This is
    /// the scheduling signal progressive resolution spends its
    /// comparison budget along. Returns `(ranked survivors, pruned
    /// count)`.
    pub fn drain_ranked(
        &self,
        pairs: &[(u32, u32)],
        mut size_of: impl FnMut(u32) -> usize,
        mut members_of: impl FnMut(u32) -> u64,
        mode: BoundMode,
        delta: f64,
    ) -> (Vec<RankedCandidate>, usize) {
        // Pass 1: bounds; drop candidates whose upper bound cannot reach
        // δ. A pair is *confident* when its expected similarity (the
        // [Low, Up] midpoint) clears δ — only confident pairs carry and
        // contribute cluster gain below.
        let mut survivors: Vec<((u32, u32), Bounds, bool)> = Vec::with_capacity(pairs.len());
        let mut pruned = 0usize;
        for &(a, b) in pairs {
            let bounds = self.bounds(a, b, size_of(a), size_of(b), mode);
            if bounds.up < delta {
                pruned += 1;
                continue;
            }
            let confident = 0.5 * (bounds.up + bounds.low) >= delta;
            survivors.push(((a, b), bounds, confident));
        }

        // Pass 2: connected components of the confident frontier graph.
        // A component approximates one not-yet-coalesced cluster, and its
        // total record count is the payoff completing that cluster buys.
        // Union–find over the roots; the partition (and hence the gain)
        // is independent of edge order.
        let mut slot: FxHashMap<u32, u32> = FxHashMap::default();
        let mut parent: Vec<u32> = Vec::new();
        let mut weight: Vec<u64> = Vec::new();
        let mut slot_of = |r: u32, parent: &mut Vec<u32>, weight: &mut Vec<u64>| -> u32 {
            *slot.entry(r).or_insert_with(|| {
                let s = parent.len() as u32;
                parent.push(s);
                weight.push(members_of(r));
                s
            })
        };
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &((a, b), _, confident) in &survivors {
            if !confident {
                continue;
            }
            let (sa, sb) = (
                slot_of(a, &mut parent, &mut weight),
                slot_of(b, &mut parent, &mut weight),
            );
            let (ra, rb) = (find(&mut parent, sa), find(&mut parent, sb));
            if ra != rb {
                parent[ra as usize] = rb;
                weight[rb as usize] += weight[ra as usize];
            }
        }

        // Pass 3: gain = the candidate's component record total (1 for
        // non-confident pairs), then the deterministic priority sort.
        let mut ranked: Vec<RankedCandidate> = survivors
            .into_iter()
            .map(|((a, b), bounds, confident)| RankedCandidate {
                pair: (a, b),
                bounds,
                gain: if confident {
                    let s = slot[&a];
                    weight[find(&mut parent, s) as usize]
                } else {
                    1
                },
            })
            .collect();
        rank_candidates(&mut ranked);
        (ranked, pruned)
    }

    /// Merge maintenance (§III-B2): records `i` and `j` were merged into
    /// `k` (one of `i`/`j` per union–find). `remap` rewrites an old value
    /// label of `i` or `j` into its new label under `k` (reflecting field
    /// merges and value re-numbering); labels of other records are never
    /// passed to it.
    ///
    /// Effects, per the paper: the `(i, j)` group is **deleted** (its
    /// values are now intra-record), every other group touching `i` or `j`
    /// is relabeled and re-homed under `k`, and group order is restored.
    pub fn merge(&mut self, i: u32, j: u32, k: u32, remap: impl Fn(Label) -> Label) {
        assert!(
            k == i || k == j,
            "merge target must be one of the merged rids"
        );
        let (a, b) = if i < j { (i, j) } else { (j, i) };

        // 1. delete: intra-pairs between i and j.
        if let Some(gone) = self.groups.remove(&(a, b)) {
            self.total -= gone.len();
        }
        self.partners.entry(a).or_default().remove(&b);
        self.partners.entry(b).or_default().remove(&a);

        // 2. collect partners of both rids (excluding each other).
        let mut affected: FxHashSet<u32> = FxHashSet::default();
        for rid in [i, j] {
            if let Some(ps) = self.partners.get(&rid) {
                affected.extend(ps.iter().copied());
            }
        }
        affected.remove(&i);
        affected.remove(&j);

        // 3. update: re-home each affected group under k, relabeling.
        for p in affected {
            let mut merged: Vec<ValuePair> = Vec::new();
            for old in [i, j] {
                let key = if old < p { (old, p) } else { (p, old) };
                if let Some(entries) = self.groups.remove(&key) {
                    for e in entries {
                        // Rewrite the side that belonged to old → k.
                        let (mut x, mut y) = (e.a, e.b);
                        if x.rid == old {
                            x = remap(x);
                            debug_assert_eq!(x.rid, k, "remap must move labels to k");
                        } else {
                            y = remap(y);
                            debug_assert_eq!(y.rid, k, "remap must move labels to k");
                        }
                        let (x, y) = if x.rid < y.rid { (x, y) } else { (y, x) };
                        merged.push(ValuePair {
                            a: x,
                            b: y,
                            sim: e.sim,
                        });
                    }
                }
                self.partners.entry(old).or_default().remove(&p);
                self.partners.entry(p).or_default().remove(&old);
            }
            if merged.is_empty() {
                continue;
            }
            sort_group(&mut merged);
            // Super-record merging dedupes equal values, so two old labels
            // can remap to one new label; the resulting entries are exact
            // duplicates (equal values ⇒ equal sims). Keep the first.
            let mut seen_labels: FxHashSet<(Label, Label)> = FxHashSet::default();
            let before = merged.len();
            merged.retain(|e| seen_labels.insert((e.a, e.b)));
            self.total -= before - merged.len();
            let new_key = if k < p { (k, p) } else { (p, k) };
            // Both old groups were removed above; re-homing cannot collide
            // with an untouched group because any (k, p) group was one of
            // them (k ∈ {i, j}).
            let slot = self.groups.entry(new_key).or_default();
            debug_assert!(slot.is_empty(), "re-homed group collided");
            slot.extend(merged);
            self.partners.entry(k).or_default().insert(p);
            self.partners.entry(p).or_default().insert(k);
        }

        // Drop empty partner sets of the absorbed rid.
        let folded = if k == i { j } else { i };
        if self.partners.get(&folded).is_some_and(|s| s.is_empty()) {
            self.partners.remove(&folded);
        }
    }

    /// Encodes the index as a flat JSON array of value pairs in group
    /// order (key-ascending, each group similarity-descending). The group
    /// order is a total order — sim descending, then label pair — so
    /// rebuilding from this dump is a fixpoint: re-serializing a restored
    /// index yields byte-identical output.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.groups
                .values()
                .flatten()
                .map(|p| {
                    Json::Obj(vec![
                        ("a".into(), p.a.to_json()),
                        ("b".into(), p.b.to_json()),
                        ("sim".into(), Json::Float(p.sim)),
                    ])
                })
                .collect(),
        )
    }

    /// Decodes an index from [`ValuePairIndex::to_json`] output,
    /// rejecting non-normalized or non-finite pairs with a typed error
    /// instead of panicking.
    pub fn from_json(json: &Json) -> Result<Self> {
        let mut idx = Self::default();
        for p in json.as_arr()? {
            let pair = ValuePair {
                a: Label::from_json(p.expect("a")?)?,
                b: Label::from_json(p.expect("b")?)?,
                sim: p.expect("sim")?.as_f64()?,
            };
            if pair.a.rid >= pair.b.rid {
                return Err(HeraError::Corrupt(format!(
                    "index pair {}-{} not rid-normalized",
                    pair.a, pair.b
                )));
            }
            if !pair.sim.is_finite() {
                return Err(HeraError::Corrupt(format!(
                    "index pair {}-{} has non-finite sim",
                    pair.a, pair.b
                )));
            }
            idx.insert(pair);
        }
        idx.restore_group_order();
        Ok(idx)
    }

    /// Structural statistics for reports and tuning.
    pub fn stats(&self) -> IndexStats {
        let mut max_group = 0usize;
        for g in self.groups.values() {
            max_group = max_group.max(g.len());
        }
        IndexStats {
            entries: self.total,
            groups: self.groups.len(),
            records: self.partners.values().filter(|s| !s.is_empty()).count(),
            max_group,
        }
    }

    /// Emits a `stage` span with the index's structural statistics — all
    /// deterministic totals, so the line is part of the core journal.
    pub fn record_span(&self, recorder: &hera_obs::Recorder, stage: &str) {
        if !recorder.enabled() {
            return;
        }
        let s = self.stats();
        recorder.span(
            stage,
            None,
            &[
                ("entries", s.entries as i64),
                ("groups", s.groups as i64),
                ("records", s.records as i64),
                ("max_group", s.max_group as i64),
            ],
        );
    }

    /// The `k` partners of `rid` with the highest single-value-pair
    /// similarity — a cheap "who could this record be?" query for
    /// interactive use (each group is similarity-descending, so its head
    /// is its best pair).
    pub fn top_partners(&self, rid: u32, k: usize) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = self
            .partners(rid)
            .filter_map(|p| self.group(rid, p).first().map(|e| (p, e.sim)))
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out.truncate(k);
        out
    }

    /// Full-index invariant check (tests/debug): normalization, ordering,
    /// partner symmetry, and count consistency.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let mut count = 0;
        for (&(i, j), g) in &self.groups {
            if i >= j {
                return Err(format!("group key ({i},{j}) not normalized"));
            }
            for w in g.windows(2) {
                if w[0].sim < w[1].sim - 1e-12 {
                    return Err(format!("group ({i},{j}) not sim-descending"));
                }
            }
            for e in g {
                if e.a.rid != i || e.b.rid != j {
                    return Err(format!("entry {}-{} filed under group ({i},{j})", e.a, e.b));
                }
            }
            count += g.len();
            let pi = self.partners.get(&i).is_some_and(|s| s.contains(&j));
            let pj = self.partners.get(&j).is_some_and(|s| s.contains(&i));
            if !pi || !pj {
                return Err(format!("partner sets miss group ({i},{j})"));
            }
        }
        if count != self.total {
            return Err(format!("total {} != counted {count}", self.total));
        }
        Ok(())
    }
}

/// A candidate root pair with its similarity bounds and merge gain,
/// ready for priority-ordered verification (the progressive scheduler's
/// unit of work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCandidate {
    /// The normalized root pair `(min, max)`.
    pub pair: (u32, u32),
    /// Up/Low similarity bounds of the pair at drain time.
    pub bounds: Bounds,
    /// The total record count of this candidate's connected component in
    /// the confident frontier graph — the size of the cluster this merge
    /// is expected to help complete. Pair capture is quadratic in cluster
    /// size while merge cost is linear, so completing components in
    /// descending gain order is the pair-optimal anytime schedule. The
    /// component total is *forward-looking*: two hub singletons carry
    /// their whole hub's weight from round one, where an immediate payoff
    /// like `|A|·|B|` would be blind (every singleton pair scores 1 and
    /// the scheduler coalesces all clusters breadth-first in lockstep).
    /// Set to 1 at drain time when the pair's expected similarity falls
    /// short of δ — an unlikely pair must not borrow priority from a
    /// cluster it probably does not belong to.
    pub gain: u64,
}

impl RankedCandidate {
    /// The expected-value priority signal: merge probability times merge
    /// payoff. Probability is proxied by the midpoint of `[Low, Up]` —
    /// `Up` alone over-ranks wide, uncertain intervals; the midpoint is
    /// the expected similarity under an uninformative prior over the
    /// interval. Payoff is [`RankedCandidate::gain`], the record total of
    /// the candidate's frontier component. Ranking by probability alone
    /// coalesces every cluster breadth-first — a maximal matching per
    /// round across the whole frontier — so all clusters complete
    /// together at the *end* of the budget; weighting by component size
    /// makes every pair of the biggest pending cluster outrank every pair
    /// of smaller ones, so the scheduler completes clusters in descending
    /// size order and anytime quality front-loads.
    pub fn priority(&self) -> f64 {
        0.5 * (self.bounds.up + self.bounds.low) * self.gain as f64
    }
}

/// Sorts candidates into the deterministic scheduling order: priority
/// descending, then `Up` descending, then pair key ascending. All f64
/// comparisons use `total_cmp`, so the order is a total order — equal
/// inputs sort identically on every host, thread count, and run.
pub fn rank_candidates(v: &mut [RankedCandidate]) {
    v.sort_unstable_by(|x, y| {
        y.priority()
            .total_cmp(&x.priority())
            .then(y.bounds.up.total_cmp(&x.bounds.up))
            .then(x.pair.cmp(&y.pair))
    });
}

/// Summary shape of a [`ValuePairIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Total value pairs `|𝒱|`.
    pub entries: usize,
    /// Record-pair groups (pairs sharing ≥ 1 similar value).
    pub groups: usize,
    /// Records participating in at least one pair.
    pub records: usize,
    /// Largest group size.
    pub max_group: usize,
}

fn sort_group(g: &mut [ValuePair]) {
    g.sort_unstable_by(|x, y| {
        y.sim
            .partial_cmp(&x.sim)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundMode;

    fn vp(r1: u32, f1: u32, v1: u32, r2: u32, f2: u32, v2: u32, sim: f64) -> ValuePair {
        ValuePair {
            a: Label::new(r1, f1, v1),
            b: Label::new(r2, f2, v2),
            sim,
        }
    }

    /// The motivating example's index (Fig. 4), 1-based rids like the
    /// paper. 17 value pairs.
    fn fig4_index() -> ValuePairIndex {
        ValuePairIndex::build(vec![
            vp(1, 3, 1, 4, 3, 1, 1.0),
            vp(1, 1, 1, 6, 1, 1, 1.0),
            vp(1, 2, 1, 6, 2, 1, 1.0),
            vp(1, 3, 1, 6, 3, 1, 1.0),
            vp(1, 5, 1, 6, 5, 1, 0.9),
            vp(2, 1, 1, 4, 1, 1, 1.0),
            vp(2, 2, 1, 4, 4, 1, 1.0),
            vp(2, 3, 1, 3, 3, 1, 0.5),
            vp(2, 2, 1, 6, 4, 1, 1.0),
            vp(3, 1, 1, 5, 1, 1, 1.0),
            vp(3, 2, 1, 5, 4, 1, 1.0),
            vp(3, 3, 1, 5, 3, 1, 0.4),
            vp(4, 1, 1, 5, 2, 1, 0.83),
            vp(4, 2, 1, 5, 2, 1, 0.4),
            vp(4, 3, 1, 6, 3, 1, 1.0),
            vp(4, 4, 1, 6, 4, 1, 1.0),
            vp(4, 5, 1, 6, 5, 1, 0.9),
        ])
    }

    #[test]
    fn build_counts() {
        let idx = fig4_index();
        assert_eq!(idx.len(), 17);
        // Keys: (1,4),(1,6),(2,3),(2,4),(2,6),(3,5),(4,5),(4,6).
        assert_eq!(idx.group_count(), 8);
        idx.check_invariants().unwrap();
    }

    #[test]
    fn group_lookup_matches_example4() {
        // Example 4: V'_{46} has three value pairs.
        let idx = fig4_index();
        let g = idx.group(4, 6);
        assert_eq!(g.len(), 3);
        // Sorted sim-descending: 1.0, 1.0, 0.9.
        assert_eq!(g[0].sim, 1.0);
        assert_eq!(g[2].sim, 0.9);
        // Symmetric lookup.
        assert_eq!(idx.group(6, 4).len(), 3);
        // Missing group.
        assert!(idx.group(1, 2).is_empty());
    }

    #[test]
    fn example4_bounds_decide_directly() {
        let idx = fig4_index();
        for mode in [BoundMode::Paper, BoundMode::Sound] {
            let b = idx.bounds(4, 6, 5, 5, mode);
            assert!((b.up - 2.9 / 5.0).abs() < 1e-9, "{mode:?}: up {}", b.up);
            assert!(b.is_exact(), "{mode:?}");
        }
    }

    #[test]
    fn group_with_same_rid_pair_sorted_sim_desc() {
        // Pairs 13/14 of Fig 4 share (4,5): 0.83 before 0.4.
        let idx = fig4_index();
        let g = idx.group(4, 5);
        assert_eq!(g.len(), 2);
        assert!(g[0].sim > g[1].sim);
    }

    #[test]
    fn merge_example5() {
        // Example 5: merge r1 and r6 into R1. Four intra pairs deleted,
        // labels of r6 values rewritten to rid 1.
        let mut idx = fig4_index();
        // r6's fields keep their fids in this toy remap (they merge into
        // matching fields of r1 at the same positions).
        let remap = |l: Label| Label::new(1, l.fid, if l.rid == 6 { 2 } else { l.vid });
        idx.merge(1, 6, 1, remap);
        idx.check_invariants().unwrap();
        // 17 - 4 intra = 13 pairs remain.
        assert_eq!(idx.len(), 13);
        // Former (2,6) pair is now filed under (1,2) with rewritten label.
        let g12 = idx.group(1, 2);
        assert_eq!(g12.len(), 1);
        assert_eq!(g12[0].a.rid, 1);
        assert_eq!(g12[0].a.vid, 2); // relabeled r6 value
        assert_eq!(g12[0].b.rid, 2);
        // Former (4,6) pairs merged into the (1,4) group: 1 existing + 3.
        assert_eq!(idx.group(1, 4).len(), 4);
        // No group mentions rid 6 anymore.
        assert!(idx.record_pairs().all(|(i, j)| i != 6 && j != 6));
    }

    #[test]
    fn merge_into_higher_rid_side() {
        // Merge where k is the *second* rid: 4 = union over (4, 6) is the
        // small side, but test k == j by merging (1, 4) → 1 then (1, 6).
        let mut idx = fig4_index();
        let remap14 = |l: Label| Label::new(1, l.fid + 10 * u32::from(l.rid == 4), l.vid);
        idx.merge(1, 4, 1, remap14);
        idx.check_invariants().unwrap();
        // (1,4) group had 1 pair → deleted. (4,5) and (4,6) re-homed.
        assert_eq!(idx.len(), 16);
        assert!(idx.group(1, 5).len() >= 2);
        assert!(!idx.group(1, 6).is_empty());
    }

    #[test]
    fn merge_twice_keeps_prop3() {
        // Prop 3: after arbitrary merges, similar value pairs of merged
        // super records remain reachable via the index.
        let mut idx = fig4_index();
        idx.merge(1, 6, 1, |l| Label::new(1, l.fid, l.vid + 1));
        idx.merge(2, 4, 2, |l| Label::new(2, l.fid, l.vid + 1));
        idx.check_invariants().unwrap();
        // All evidence between super-record 1 = {r1, r6} and super-record
        // 2 = {r2, r4} is now in group (1,2): originally (1,4): 1 pair,
        // (2,6): 1 pair, (4,6): 3 pairs — but the (1,4) pair and the
        // (4,6) fid-3 pair collapse because this remap dedupes the equal
        // bush@gmail values of r1 and r6 into one label → 4 pairs.
        assert_eq!(idx.group(1, 2).len(), 4);
    }

    #[test]
    #[should_panic(expected = "merge target")]
    fn merge_rejects_foreign_target() {
        let mut idx = fig4_index();
        idx.merge(1, 6, 3, |l| l);
    }

    #[test]
    fn stats_summarize_structure() {
        let idx = fig4_index();
        let s = idx.stats();
        assert_eq!(s.entries, 17);
        assert_eq!(s.groups, 8);
        assert_eq!(s.records, 6);
        assert_eq!(s.max_group, 4); // the (1,6) group
    }

    #[test]
    fn top_partners_ranked_by_best_pair() {
        let idx = fig4_index();
        // r4's best single-value partners: r6 and r2 tie at 1.0 (rid
        // breaks the tie), then r5 (0.83), then r1 (1.0)… recount: groups
        // of 4: (1,4)=1.0, (2,4)=1.0, (4,5)=0.83, (4,6)=1.0.
        let top = idx.top_partners(4, 3);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|&(_, s)| s >= 0.83));
        assert!((top[0].1 - 1.0).abs() < 1e-12);
        // Full list includes r5 last.
        let all = idx.top_partners(4, 10);
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], (5, 0.83));
        // Unknown record: empty.
        assert!(idx.top_partners(99, 3).is_empty());
    }

    #[test]
    fn bulk_build_matches_incremental_reference() {
        // Same pairs, deliberately scrambled input order: both builds
        // must converge to the same canonical structure.
        let pairs = vec![
            vp(4, 5, 1, 6, 5, 1, 0.9),
            vp(1, 3, 1, 4, 3, 1, 1.0),
            vp(2, 1, 1, 4, 1, 1, 1.0),
            vp(1, 1, 1, 6, 1, 1, 1.0),
            vp(4, 1, 1, 5, 2, 1, 0.83),
            vp(1, 2, 1, 6, 2, 1, 1.0),
            vp(4, 2, 1, 5, 2, 1, 0.4),
            vp(2, 2, 1, 4, 4, 1, 1.0),
            vp(1, 3, 1, 6, 3, 1, 1.0),
        ];
        let bulk = ValuePairIndex::build(pairs.clone());
        let incr = ValuePairIndex::build_incremental(pairs);
        bulk.check_invariants().unwrap();
        incr.check_invariants().unwrap();
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(bulk.group_count(), incr.group_count());
        assert_eq!(
            bulk.to_json().to_string_compact(),
            incr.to_json().to_string_compact()
        );
    }

    #[test]
    #[should_panic(expected = "rid-normalized")]
    fn bulk_build_rejects_unnormalized_pairs() {
        ValuePairIndex::build(vec![vp(6, 1, 1, 2, 1, 1, 0.5)]);
    }

    #[test]
    fn json_roundtrip_is_a_fixpoint() {
        let idx = fig4_index();
        let dump = idx.to_json().to_string_compact();
        let back = ValuePairIndex::from_json(&hera_types::json::parse(&dump).unwrap()).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.group_count(), idx.group_count());
        assert_eq!(back.to_json().to_string_compact(), dump, "fixpoint");
    }

    #[test]
    fn json_rejects_non_normalized_pair() {
        let json = hera_types::json::parse(
            r#"[{"a":{"rid":4,"fid":0,"vid":0},"b":{"rid":2,"fid":0,"vid":0},"sim":0.5}]"#,
        )
        .unwrap();
        let err = ValuePairIndex::from_json(&json).unwrap_err();
        assert!(matches!(err, hera_types::HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn partners_track_groups() {
        let idx = fig4_index();
        let mut p4: Vec<u32> = idx.partners(4).collect();
        p4.sort_unstable();
        assert_eq!(p4, vec![1, 2, 5, 6]);
    }

    #[test]
    fn drain_ranked_orders_by_priority_and_prunes() {
        let idx = fig4_index();
        let pairs: Vec<(u32, u32)> = idx.record_pairs().collect();
        // δ = 0.9 prunes the weak groups (e.g. (2,3): up = 0.5/5 per
        // side pair — well under δ) and keeps the strong ones.
        let (ranked, pruned) = idx.drain_ranked(&pairs, |_| 5, |_| 1, BoundMode::Sound, 0.5);
        assert_eq!(ranked.len() + pruned, pairs.len());
        assert!(!ranked.is_empty());
        // Descending priority with the documented tie-breaks.
        for w in ranked.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            assert!(
                x.priority() > y.priority()
                    || (x.priority() == y.priority() && x.bounds.up > y.bounds.up)
                    || (x.priority() == y.priority()
                        && x.bounds.up == y.bounds.up
                        && x.pair < y.pair),
                "out of order: {x:?} before {y:?}"
            );
        }
        // Every survivor clears the pruning bar.
        for c in &ranked {
            assert!(c.bounds.up >= 0.5);
        }
    }

    #[test]
    fn drain_ranked_is_input_order_independent() {
        let idx = fig4_index();
        let mut pairs: Vec<(u32, u32)> = idx.record_pairs().collect();
        let (fwd, _) = idx.drain_ranked(&pairs, |_| 5, |_| 1, BoundMode::Sound, 0.3);
        pairs.reverse();
        let (rev, _) = idx.drain_ranked(&pairs, |_| 5, |_| 1, BoundMode::Sound, 0.3);
        assert_eq!(fwd, rev, "ranking must not depend on drain input order");
    }

    #[test]
    fn rank_candidates_ties_break_on_pair_key() {
        let b = Bounds { up: 0.8, low: 0.2 };
        let mut v = vec![
            RankedCandidate {
                pair: (3, 9),
                bounds: b,
                gain: 1,
            },
            RankedCandidate {
                pair: (1, 2),
                bounds: b,
                gain: 1,
            },
            RankedCandidate {
                pair: (5, 6),
                bounds: Bounds { up: 0.9, low: 0.1 }, // same midpoint, higher up
                gain: 1,
            },
        ];
        rank_candidates(&mut v);
        assert_eq!(v[0].pair, (5, 6));
        assert_eq!(v[1].pair, (1, 2));
        assert_eq!(v[2].pair, (3, 9));
    }

    #[test]
    fn drain_ranked_gain_is_component_record_total() {
        let idx = fig4_index();
        let pairs: Vec<(u32, u32)> = idx.record_pairs().collect();
        let (ranked, _) = idx.drain_ranked(&pairs, |_| 5, |_| 2, BoundMode::Sound, 0.3);
        assert!(!ranked.is_empty());
        // Recompute components naively from the confident survivors and
        // check every candidate's gain is its component's record total
        // (every root contributes members_of = 2 here), with
        // non-confident pairs pinned to gain 1.
        let confident: Vec<(u32, u32)> = ranked
            .iter()
            .filter(|c| 0.5 * (c.bounds.up + c.bounds.low) >= 0.3)
            .map(|c| c.pair)
            .collect();
        let mut comps: Vec<std::collections::BTreeSet<u32>> = Vec::new();
        for &(a, b) in &confident {
            let ia = comps.iter().position(|s| s.contains(&a));
            let ib = comps.iter().position(|s| s.contains(&b));
            match (ia, ib) {
                (Some(x), Some(y)) if x != y => {
                    let merged = comps.swap_remove(y.max(x));
                    comps[y.min(x)].extend(merged);
                }
                (Some(_), Some(_)) => {}
                (Some(x), None) => {
                    comps[x].insert(b);
                }
                (None, Some(y)) => {
                    comps[y].insert(a);
                }
                (None, None) => {
                    comps.push([a, b].into_iter().collect());
                }
            }
        }
        for c in &ranked {
            if 0.5 * (c.bounds.up + c.bounds.low) >= 0.3 {
                let comp = comps
                    .iter()
                    .find(|s| s.contains(&c.pair.0))
                    .expect("confident pair must be in a component");
                assert_eq!(c.gain, 2 * comp.len() as u64, "pair {:?}", c.pair);
            } else {
                assert_eq!(c.gain, 1, "non-confident pair {:?}", c.pair);
            }
        }
    }

    #[test]
    fn rank_candidates_weighs_gain_over_similarity() {
        // A fragment pair resolving 6 record pairs outranks a cleaner
        // singleton pair: expected value = probability × payoff.
        let mut v = vec![
            RankedCandidate {
                pair: (1, 2),
                bounds: Bounds { up: 1.0, low: 0.9 },
                gain: 1,
            },
            RankedCandidate {
                pair: (3, 4),
                bounds: Bounds { up: 0.8, low: 0.6 },
                gain: 6,
            },
        ];
        rank_candidates(&mut v);
        assert_eq!(v[0].pair, (3, 4));
        assert!(v[0].priority() > v[1].priority());
    }
}
