//! The production value-pair index: sorted partner rows over a group slab.

use crate::bounds::{
    group_bounds, refined_field_set_into, BoundMode, Bounds, BoundsScratch, FieldPairSim,
};
use hera_join::ValuePair;
use hera_types::json::Json;
use hera_types::{HeraError, Label, Result};
use rustc_hash::FxHashMap;

/// The value-pair index of Definition 6.
///
/// Logically a single sequence sorted by `(rid₁, rid₂, sim desc)`;
/// physically an adjacency layout. `rows[rid]` lists the record's
/// partners strictly ascending, each entry `(partner, slot)` naming the
/// group the two records share, and the entry is stored in both records'
/// rows. Groups live once, similarity-descending, in a slab of slots
/// recycled through a free list. Record ids are dense (batch rids are
/// dataset positions, session rids an arrival counter), so `rows` is
/// indexed by rid directly.
///
/// * **Lookup** — `group(i, j)` is one binary search in `rows[i]`.
/// * **Key order** — walking `rows` ascending and, in each row, the
///   partners above the row's own rid visits the groups in ascending
///   `(rid₁, rid₂)` order: Definition 6's sequence, and the order
///   [`Self::record_pairs`] and [`Self::to_json`] emit.
/// * **Merge maintenance** (§III-B2) — folding a record into `k` walks
///   the folded record's row once. Each of its `O(|𝒱̂ᵢⱼ|)` groups is
///   relabeled in place, dropped from its partner's row, and either
///   appended to the existing `(k, partner)` group or filed under
///   `(k, partner)` as it stands: two binary searches in rows plus a
///   sort of that one small group, no set and no fresh `Vec`.
#[derive(Debug, Clone, Default)]
pub struct ValuePairIndex {
    /// `rows[rid]`: `(partner, slot)`, strictly ascending by partner;
    /// `(p, s) ∈ rows[r]` iff `(r, s) ∈ rows[p]`.
    rows: Vec<Vec<(u32, u32)>>,
    /// The group slab. A slot a row names holds a non-empty group; a
    /// slot on the free list is empty and named by no row.
    groups: Vec<Vec<ValuePair>>,
    free: Vec<u32>,
    /// Total entry count `|𝒱|`.
    total: usize,
}

/// Position of `partner` in a row, or where it would be inserted.
fn find(row: &[(u32, u32)], partner: u32) -> std::result::Result<usize, usize> {
    row.binary_search_by_key(&partner, |&(p, _)| p)
}

impl ValuePairIndex {
    /// Builds the index from a similarity-join result. The iterator may
    /// yield pairs in any order (they are sorted here), but each pair
    /// itself must be rid-normalized (`a.rid < b.rid`) — a non-normalized
    /// pair panics, exactly as it does on the incremental path.
    ///
    /// Bulk path: pairs are sorted by group key (a no-op pass when the
    /// input is already in join output order) and consumed as sorted
    /// runs. Keys arrive ascending, so every row entry is a push at its
    /// row's end — no search (a per-pair reference build is the tests'
    /// differential oracle).
    pub fn build(pairs: impl IntoIterator<Item = ValuePair>) -> Self {
        let mut pairs: Vec<ValuePair> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|p| (p.a.rid, p.b.rid));
        let records = pairs.iter().map(|p| p.b.rid as usize + 1).max();
        let mut idx = Self {
            rows: vec![Vec::new(); records.unwrap_or(0)],
            total: pairs.len(),
            ..Self::default()
        };
        for run in pairs.chunk_by(|x, y| (x.a.rid, x.b.rid) == (y.a.rid, y.b.rid)) {
            let (i, j) = (run[0].a.rid, run[0].b.rid);
            assert!(i < j, "value pair must be rid-normalized");
            let slot = idx.groups.len() as u32;
            let mut group = run.to_vec();
            sort_group(&mut group);
            idx.groups.push(group);
            idx.rows[i as usize].push((j, slot));
            idx.rows[j as usize].push((i, slot));
        }
        idx
    }

    /// Reference build: one row search per pair — the differential
    /// oracle for the bulk [`Self::build`].
    #[cfg(test)]
    fn build_incremental(pairs: impl IntoIterator<Item = ValuePair>) -> Self {
        let mut idx = Self::default();
        idx.extend(pairs);
        idx
    }

    /// Files `slot` as the `(a, b)` group, which must not exist yet, in
    /// both records' rows.
    fn link(&mut self, a: u32, b: u32, slot: u32) {
        for (rid, partner) in [(a, b), (b, a)] {
            let row = &mut self.rows[rid as usize];
            let at = find(row, partner).expect_err("linking a record pair that has a group");
            row.insert(at, (partner, slot));
        }
    }

    /// Takes the `(a, b)` group out of both records' rows and returns
    /// its slot, still holding the entries; `None` if there is no such
    /// group.
    fn unlink(&mut self, a: u32, b: u32) -> Option<u32> {
        let row = &mut self.rows[a as usize];
        let (_, slot) = row.remove(find(row, b).ok()?);
        let row = &mut self.rows[b as usize];
        let at = find(row, a).expect("rows are symmetric");
        row.remove(at);
        Some(slot)
    }

    /// Empties an unlinked slot onto the free list and returns the
    /// entries it held.
    fn release(&mut self, slot: u32) -> Vec<ValuePair> {
        self.free.push(slot);
        std::mem::take(&mut self.groups[slot as usize])
    }

    /// Grows `rows` to hold records `a` and `b`.
    fn cover(&mut self, a: u32, b: u32) {
        let records = a.max(b) as usize + 1;
        if self.rows.len() < records {
            self.rows.resize_with(records, Vec::new);
        }
    }

    /// The slot of the `(a, b)` group, linking an empty one — recycled
    /// from the free list when it has any — if the pair has no group.
    fn slot_of(&mut self, a: u32, b: u32) -> u32 {
        self.cover(a, b);
        let row = &self.rows[a as usize];
        if let Ok(at) = find(row, b) {
            return row[at].1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.groups.push(Vec::new());
            self.groups.len() as u32 - 1
        });
        self.link(a, b, slot);
        slot
    }

    /// Adds one pair at the end of its group (creating the group if
    /// need be) and returns the group's slot; the caller restores the
    /// group's order.
    fn insert(&mut self, p: ValuePair) -> u32 {
        assert!(p.a.rid < p.b.rid, "value pair must be rid-normalized");
        let slot = self.slot_of(p.a.rid, p.b.rid);
        self.groups[slot as usize].push(p);
        self.total += 1;
        slot
    }

    /// Adds freshly joined pairs to an existing index (streaming ER: a
    /// new record's similar value pairs arrive after the initial build).
    /// Only the touched groups are re-sorted.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = ValuePair>) {
        let mut touched: Vec<u32> = pairs.into_iter().map(|p| self.insert(p)).collect();
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            sort_group(&mut self.groups[slot as usize]);
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
        let Some(row) = self.rows.get(i as usize) else {
            return &[];
        };
        match find(row, j) {
            Ok(at) => &self.groups[row[at].1 as usize],
            Err(_) => &[],
        }
    }

    /// The groups in key order — each row's partners above the row's
    /// own rid — as `(key, slot)`.
    fn keyed_slots(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        (0u32..).zip(&self.rows).flat_map(|(rid, row)| {
            row[row.partition_point(|&(p, _)| p < rid)..]
                .iter()
                .map(move |&(p, slot)| ((rid, p), slot))
        })
    }

    /// Iterates all record pairs that share at least one similar value —
    /// the raw candidate universe, in ascending `(rid₁, rid₂)` order,
    /// obtained in linear time (Prop. 2).
    pub fn record_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.keyed_slots().map(|(key, _)| key)
    }

    /// Number of record-pair groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len() - self.free.len()
    }

    /// Partners of a record (rids it shares similar values with),
    /// ascending.
    pub fn partners(&self, rid: u32) -> impl Iterator<Item = u32> + '_ {
        let row = self.rows.get(rid as usize);
        row.into_iter().flat_map(|r| r.iter().map(|&(p, _)| p))
    }

    /// The refined field set `𝒱′ᵢⱼ` — all *similar field pairs* of the
    /// record pair with their field similarities (the verification step's
    /// input, §IV-A Step 1), written into a caller buffer: `out` is
    /// cleared and refilled, so the verifier's per-pair lookup reuses one
    /// allocation across its whole run.
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
    /// One-shot form of [`Self::bounds_with`].
    pub fn bounds(&self, i: u32, j: u32, size_i: usize, size_j: usize, mode: BoundMode) -> Bounds {
        self.bounds_with(i, j, size_i, size_j, mode, &mut BoundsScratch::default())
    }

    /// [`Self::bounds`] over caller-owned buffers: a loop classifying
    /// many record pairs passes one `scratch` and allocates nothing per
    /// pair.
    pub fn bounds_with(
        &self,
        i: u32,
        j: u32,
        size_i: usize,
        size_j: usize,
        mode: BoundMode,
        scratch: &mut BoundsScratch,
    ) -> Bounds {
        let (size_left, size_right) = if i < j {
            (size_i, size_j)
        } else {
            (size_j, size_i)
        };
        group_bounds(self.group(i, j), size_left, size_right, mode, scratch)
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
        let mut scratch = BoundsScratch::default();
        for &(a, b) in pairs {
            let bounds = self.bounds_with(a, b, size_of(a), size_of(b), mode, &mut scratch);
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
    /// label of the folded record (the one of `i`/`j` that is not `k`)
    /// into its new label under `k`, reflecting field merges and value
    /// re-numbering. It must pass the labels of `k` through unchanged —
    /// all that `SuperRecord::absorb`'s remap produces — so `k`'s own
    /// groups are left as they are; debug builds check this. Labels of
    /// other records are never passed to it.
    ///
    /// Effects, per the paper: the `(i, j)` group is **deleted** (its
    /// values are now intra-record), every group of the folded record is
    /// relabeled and re-homed under `k`, and group order is restored.
    ///
    /// Super-record merging dedupes equal values, so two old labels can
    /// remap to one new label; the resulting entries are exact duplicates
    /// (equal values ⇒ equal sims), adjacent under the group's total
    /// order, and one of them is kept.
    pub fn merge(&mut self, i: u32, j: u32, k: u32, remap: impl Fn(Label) -> Label) {
        assert!(
            k == i || k == j,
            "merge target must be one of the merged rids"
        );
        let folded = if k == i { j } else { i };
        self.cover(i, j);

        // 1. delete: intra-pairs between i and j.
        if let Some(slot) = self.unlink(i, j) {
            self.total -= self.release(slot).len();
        }

        // 2. k's own groups stay where they are: the remap passes k's
        // labels through.
        debug_assert!(
            self.rows[k as usize].iter().all(|&(_, slot)| {
                self.groups[slot as usize].iter().all(|e| {
                    let side = if e.a.rid == k { e.a } else { e.b };
                    remap(side) == side
                })
            }),
            "merge: the remap must pass labels of k through"
        );

        // 3. re-home each of the folded record's groups under k.
        for (p, slot) in std::mem::take(&mut self.rows[folded as usize]) {
            relabel(&mut self.groups[slot as usize], folded, k, &remap);
            let row_p = &mut self.rows[p as usize];
            let at = find(row_p, folded).expect("rows are symmetric");
            row_p.remove(at);
            let home = match find(&self.rows[k as usize], p) {
                Ok(at) => {
                    let home = self.rows[k as usize][at].1;
                    let mut moved = self.release(slot);
                    self.groups[home as usize].append(&mut moved);
                    home
                }
                Err(_) => {
                    self.link(k, p, slot);
                    slot
                }
            };
            self.total -= restore_group(&mut self.groups[home as usize]);
        }
    }

    /// Encodes the index as a flat JSON array of value pairs in group
    /// order (key-ascending, each group similarity-descending). The group
    /// order is a total order — sim descending, then label pair — so
    /// rebuilding from this dump is a fixpoint: re-serializing a restored
    /// index yields byte-identical output.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.keyed_slots()
                .flat_map(|(_, slot)| &self.groups[slot as usize])
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

    /// Decodes an index over `records` records from
    /// [`ValuePairIndex::to_json`] output, rejecting pairs that are not
    /// rid-normalized, not finite, or name a record the caller does not
    /// have with a typed error instead of panicking. Rows are indexed by
    /// rid, so the last check also keeps a corrupt rid from sizing an
    /// allocation.
    pub fn from_json(json: &Json, records: usize) -> Result<Self> {
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
            if pair.b.rid as usize >= records {
                return Err(HeraError::Corrupt(format!(
                    "index pair {}-{} names a record outside the {records} restored",
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
        for group in &mut idx.groups {
            sort_group(group);
        }
        Ok(idx)
    }

    /// Structural statistics for reports and tuning.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            entries: self.total,
            groups: self.group_count(),
            records: self.rows.iter().filter(|row| !row.is_empty()).count(),
            max_group: self.groups.iter().map(Vec::len).max().unwrap_or(0),
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

    /// Full-index invariant check (tests/debug): rows strictly ascending
    /// and symmetric on one slot, every slot either a live non-empty
    /// group named by exactly one record pair or an empty free one,
    /// entries normalized, filed under their own key, similarity-
    /// descending and label-distinct, and both counts recounted.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for (rid, row) in (0u32..).zip(&self.rows) {
            if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("row {rid} not strictly ascending"));
            }
            for &(p, slot) in row {
                if p == rid {
                    return Err(format!("row {rid} names itself"));
                }
                let back = self.rows.get(p as usize).map_or(&[][..], Vec::as_slice);
                if find(back, rid).map(|at| back[at].1) != Ok(slot) {
                    return Err(format!("partner rows miss group ({rid},{p}) slot {slot}"));
                }
            }
        }
        let mut owners = vec![0usize; self.groups.len()];
        let (mut count, mut live) = (0, 0);
        for ((i, j), slot) in self.keyed_slots() {
            owners[slot as usize] += 1;
            let g = &self.groups[slot as usize];
            if g.is_empty() {
                return Err(format!("group ({i},{j}) is empty"));
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
            let mut labels: Vec<(Label, Label)> = g.iter().map(|e| (e.a, e.b)).collect();
            labels.sort_unstable();
            if labels.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("group ({i},{j}) repeats a label pair"));
            }
            count += g.len();
            live += 1;
        }
        for &slot in &self.free {
            if !self.groups[slot as usize].is_empty() {
                return Err(format!("free slot {slot} holds entries"));
            }
            if owners[slot as usize] != 0 {
                return Err(format!("free slot {slot} is named by a row"));
            }
            owners[slot as usize] = 1;
        }
        if let Some(slot) = owners.iter().position(|&n| n != 1) {
            return Err(format!(
                "slot {slot} is named by {} record pairs and free lists",
                owners[slot]
            ));
        }
        if live != self.group_count() {
            return Err(format!(
                "group_count {} != counted {live}",
                self.group_count()
            ));
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
pub(crate) fn rank_candidates(v: &mut [RankedCandidate]) {
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

/// Rewrites the `old` record's side of every entry through `remap`,
/// which must move it to `k`, keeping each entry rid-normalized.
fn relabel(group: &mut [ValuePair], old: u32, k: u32, remap: impl Fn(Label) -> Label) {
    for e in group {
        let side = if e.a.rid == old { &mut e.a } else { &mut e.b };
        *side = remap(*side);
        debug_assert_eq!(side.rid, k, "remap must move labels to k");
        if e.a.rid > e.b.rid {
            std::mem::swap(&mut e.a, &mut e.b);
        }
    }
}

/// Restores a relabeled or appended-to group's order and drops the exact
/// duplicates the relabeling produced — equal labels carry equal sims,
/// so they are adjacent once sorted. Returns the number dropped.
fn restore_group(group: &mut Vec<ValuePair>) -> usize {
    let before = group.len();
    sort_group(group);
    group.dedup_by(|x, y| (x.a, x.b) == (y.a, y.b));
    before - group.len()
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
        ValuePairIndex::build(fig4_pairs())
    }

    fn fig4_pairs() -> Vec<ValuePair> {
        vec![
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
        ]
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
        // super records remain reachable via the index. Each remap passes
        // the winner's labels through and, as `absorb` does, files a
        // folded value equal to one of the winner's under the winner's
        // label: r6's fids 1–3 equal r1's, r4's fids 1 and 4 equal r2's
        // fids 1 and 2. Other folded values get fresh labels.
        let mut idx = fig4_index();
        idx.merge(1, 6, 1, |l| match (l.rid, l.fid) {
            (6, 1..=3) => Label::new(1, l.fid, 1),
            (6, _) => Label::new(1, l.fid, 2),
            _ => l,
        });
        idx.merge(2, 4, 2, |l| match (l.rid, l.fid) {
            (4, 1) => Label::new(2, 1, 1),
            (4, 4) => Label::new(2, 2, 1),
            (4, _) => Label::new(2, l.fid, 2),
            _ => l,
        });
        idx.check_invariants().unwrap();
        // All evidence between super-record 1 = {r1, r6} and super-record
        // 2 = {r2, r4} is now in group (1,2): originally (1,4): 1 pair,
        // (2,6): 1 pair, (4,6): 3 pairs. Each merge collapses one exact
        // duplicate: the (4,6) fid-3 pair lands on the (1,4) pair once
        // r6's bush@gmail is r1's label, and the (4,6) fid-4 pair lands on
        // the (2,6) pair once r4's field 4 is r2's field 2 → 3 pairs.
        let g = idx.group(1, 2);
        let labels: Vec<(Label, Label)> = g.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(
            labels,
            vec![
                (Label::new(1, 3, 1), Label::new(2, 3, 2)),
                (Label::new(1, 4, 2), Label::new(2, 2, 1)),
                (Label::new(1, 5, 2), Label::new(2, 5, 2)),
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pass labels of k through")]
    fn merge_rejects_a_remap_that_renumbers_the_winner() {
        let mut idx = fig4_index();
        idx.merge(1, 6, 1, |l| Label::new(1, l.fid, l.vid + 1));
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
    fn extend_files_descending_partners_and_recycles_slots() {
        // A new record's pairs arrive partner-descending and out of sim
        // order: every row must still come out ascending, every group
        // sim-descending, as if bulk-built.
        let arrivals = vec![
            vp(6, 1, 1, 9, 1, 1, 0.6),
            vp(4, 1, 1, 9, 1, 1, 0.7),
            vp(4, 2, 1, 9, 2, 1, 0.9),
            vp(2, 1, 1, 9, 1, 1, 0.8),
            vp(1, 1, 1, 9, 1, 1, 1.0),
        ];
        let mut idx = fig4_index();
        idx.extend(arrivals.clone());
        idx.check_invariants().unwrap();
        assert_eq!(idx.partners(9).collect::<Vec<_>>(), vec![1, 2, 4, 6]);
        assert_eq!(idx.group(9, 4)[0].sim, 0.9);
        let mut all = fig4_pairs();
        all.extend(arrivals);
        assert_eq!(
            idx.to_json().to_string_compact(),
            ValuePairIndex::build(all).to_json().to_string_compact()
        );

        // The merge below frees the (1,6) slot and the slots of 6's
        // groups that land on a group 1 already has; later arrivals
        // take those slots instead of growing the slab.
        idx.merge(1, 6, 1, |l| {
            Label::new(1, l.fid, if l.rid == 6 { 2 } else { l.vid })
        });
        idx.check_invariants().unwrap();
        let (slab, free) = (idx.groups.len(), idx.free.len());
        assert!(free >= 2, "{free} slots freed");
        idx.extend(vec![vp(3, 1, 1, 9, 1, 1, 0.5), vp(2, 1, 1, 5, 1, 1, 0.5)]);
        idx.check_invariants().unwrap();
        assert_eq!((idx.groups.len(), idx.free.len()), (slab, free - 2));
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
        let back = ValuePairIndex::from_json(&hera_types::json::parse(&dump).unwrap(), 7).unwrap();
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
        let err = ValuePairIndex::from_json(&json, 5).unwrap_err();
        assert!(matches!(err, hera_types::HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn json_rejects_a_rid_past_the_record_count() {
        // Rows are indexed by rid: a pair naming a record the caller does
        // not have must be refused before it sizes anything.
        let json = hera_types::json::parse(
            r#"[{"a":{"rid":2,"fid":0,"vid":0},"b":{"rid":4000000000,"fid":0,"vid":0},"sim":0.5}]"#,
        )
        .unwrap();
        let err = ValuePairIndex::from_json(&json, 5).unwrap_err();
        assert!(matches!(err, hera_types::HeraError::Corrupt(_)), "{err}");
        assert!(ValuePairIndex::from_json(&json, 0).is_err());
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
