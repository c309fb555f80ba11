//! Merge-aware similarity memoization for the verification hot path.
//!
//! [`SimCache`] maps canonical value-label pairs `(Label, Label)` to
//! `metric.sim` results so that re-verifications across rounds (dirty
//! tracking re-verifies every touched pair after a merge) never recompute a
//! value-pair similarity they have already paid for. The cache is keyed by
//! the same labels the value-pair index uses, so it survives merges through
//! the *same* label-remap hook [`ValuePairIndex::merge`] consumes: entries
//! between the merged pair are invalidated (now intra-record), entries
//! toward third parties are re-homed under the winner rid.
//!
//! # Determinism
//!
//! The driver's parallel snapshot phase treats the cache as **read-only**:
//! workers record misses (label pair + computed sim) into a per-verification
//! [`SimDelta`] instead of writing shared state. Deltas are applied in the
//! sequential apply phase, in input order, and only for verdicts that are
//! actually used (stale verdicts are discarded together with their deltas —
//! their labels may reference pre-merge coordinates). Because every worker
//! sees the same frozen cache, each pair's hit/miss pattern — and therefore
//! every similarity ever produced — is bit-identical at every thread count.
//! Cached values are exact `metric.sim` outputs, so cache-on and cache-off
//! runs are bit-identical too.
//!
//! [`ValuePairIndex::merge`]: hera_index::ValuePairIndex::merge

use hera_types::json::Json;
use hera_types::{HeraError, Label, Result};
use rustc_hash::{FxHashMap, FxHashSet};

/// Orients a cross-record label pair canonically (smaller rid first).
#[inline]
fn canon(a: Label, b: Label) -> (Label, Label) {
    debug_assert_ne!(a.rid, b.rid, "sim cache stores cross-record pairs only");
    if a.rid < b.rid {
        (a, b)
    } else {
        (b, a)
    }
}

/// Memoized `metric.sim` results keyed by canonical value-label pairs,
/// grouped by record pair so merge maintenance mirrors the value-pair
/// index: delete the merged pair's group, re-home third-party groups
/// through the label remap.
#[derive(Debug, Default)]
pub(crate) struct SimCache {
    /// `(rid₁, rid₂)` with `rid₁ < rid₂` → canonical label pair → sim.
    groups: FxHashMap<(u32, u32), FxHashMap<(Label, Label), f64>>,
    /// rid → rids it shares a group with (for merge maintenance).
    partners: FxHashMap<u32, FxHashSet<u32>>,
    /// Total entries across all groups.
    len: usize,
    /// Entries dropped by [`SimCache::merge`] (now intra-record, or folded
    /// into an equal re-homed entry).
    invalidated: u64,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized value-pair similarities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries invalidated by merges so far.
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Looks up the memoized similarity of a value-label pair (orientation
    /// insensitive).
    pub fn get(&self, a: Label, b: Label) -> Option<f64> {
        let (x, y) = canon(a, b);
        self.groups.get(&(x.rid, y.rid))?.get(&(x, y)).copied()
    }

    /// Memoizes one similarity. Overwriting an existing entry is a no-op
    /// for correctness (equal labels ⇒ equal values ⇒ equal sims) and does
    /// not grow the cache.
    pub fn insert(&mut self, a: Label, b: Label, sim: f64) {
        let (x, y) = canon(a, b);
        let key = (x.rid, y.rid);
        if self
            .groups
            .entry(key)
            .or_default()
            .insert((x, y), sim)
            .is_none()
        {
            self.len += 1;
            self.partners.entry(key.0).or_default().insert(key.1);
            self.partners.entry(key.1).or_default().insert(key.0);
        }
    }

    /// Applies the fills a worker recorded against the frozen snapshot.
    pub fn apply(&mut self, delta: &SimDelta) {
        self.apply_if(delta, |_| true);
    }

    /// Applies a snapshot delta, keeping only fills whose labels `keep`
    /// accepts. The apply phases pass `keep = "rid is still a union–find
    /// root"`: winner labels survive merges verbatim (the remap is the
    /// identity on them), so such fills are still current, while a fill
    /// naming a since-folded record would insert a label the next merge's
    /// remap has never heard of.
    pub fn apply_if(&mut self, delta: &SimDelta, keep: impl Fn(Label) -> bool) {
        for &(a, b, sim) in &delta.fills {
            if keep(a) && keep(b) {
                self.insert(a, b, sim);
            }
        }
    }

    /// Merge maintenance, mirroring [`ValuePairIndex::merge`]: records `i`
    /// and `j` merged into `k` (one of the two). The `(i, j)` group is
    /// dropped — those pairs are intra-record now — and every group toward
    /// a third party is relabeled through `remap` and re-homed under `k`.
    ///
    /// [`ValuePairIndex::merge`]: hera_index::ValuePairIndex::merge
    pub fn merge(&mut self, i: u32, j: u32, k: u32, remap: impl Fn(Label) -> Label) {
        assert!(
            k == i || k == j,
            "merge target must be one of the merged rids"
        );
        let (a, b) = if i < j { (i, j) } else { (j, i) };

        // 1. delete: entries between i and j are intra-record now.
        if let Some(gone) = self.groups.remove(&(a, b)) {
            self.len -= gone.len();
            self.invalidated += gone.len() as u64;
        }
        self.partners.entry(a).or_default().remove(&b);
        self.partners.entry(b).or_default().remove(&a);

        // 2. collect third-party partners of both rids.
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
            let mut merged: FxHashMap<(Label, Label), f64> = FxHashMap::default();
            let mut moved = 0usize;
            for old in [i, j] {
                let key = if old < p { (old, p) } else { (p, old) };
                if let Some(entries) = self.groups.remove(&key) {
                    moved += entries.len();
                    for ((mut x, mut y), sim) in entries {
                        // Rewrite the side that belonged to old → k.
                        if x.rid == old {
                            x = remap(x);
                            debug_assert_eq!(x.rid, k, "remap must move labels to k");
                        } else {
                            y = remap(y);
                            debug_assert_eq!(y.rid, k, "remap must move labels to k");
                        }
                        let (x, y) = canon(x, y);
                        // Two old labels can fold into one (super-record
                        // value dedupe); equal labels ⇒ equal sims, keep one.
                        merged.insert((x, y), sim);
                    }
                }
                self.partners.entry(old).or_default().remove(&p);
                self.partners.entry(p).or_default().remove(&old);
            }
            if merged.is_empty() {
                continue;
            }
            self.len -= moved - merged.len();
            self.invalidated += (moved - merged.len()) as u64;
            let new_key = if k < p { (k, p) } else { (p, k) };
            // Both old groups were removed above; re-homing cannot collide
            // with an untouched group because any (k, p) group was one of
            // them (k ∈ {i, j}).
            let slot = self.groups.entry(new_key).or_default();
            debug_assert!(slot.is_empty(), "re-homed group collided");
            *slot = merged;
            self.partners.entry(k).or_default().insert(p);
            self.partners.entry(p).or_default().insert(k);
        }

        // Drop empty partner sets of the absorbed rid.
        let folded = if k == i { j } else { i };
        if self.partners.get(&folded).is_some_and(|s| s.is_empty()) {
            self.partners.remove(&folded);
        }
    }

    /// Encodes the cache as JSON: every memoized entry in sorted label
    /// order, plus the invalidation counter. Serializing the cache keeps
    /// a restored session's hit/miss history — and therefore its
    /// `RunStats` cache counters — bit-identical to an uninterrupted run.
    pub fn to_json(&self) -> Json {
        let mut entries: Vec<(&(Label, Label), &f64)> =
            self.groups.values().flat_map(|g| g.iter()).collect();
        entries.sort_unstable_by_key(|(&k, _)| k);
        Json::Obj(vec![
            ("invalidated".into(), Json::Int(self.invalidated as i64)),
            (
                "entries".into(),
                Json::Arr(
                    entries
                        .into_iter()
                        .map(|(&(a, b), &sim)| {
                            Json::Obj(vec![
                                ("a".into(), a.to_json()),
                                ("b".into(), b.to_json()),
                                ("sim".into(), Json::Float(sim)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a cache from [`SimCache::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Self> {
        let mut cache = Self::new();
        for e in json.expect("entries")?.as_arr()? {
            let a = Label::from_json(e.expect("a")?)?;
            let b = Label::from_json(e.expect("b")?)?;
            if a.rid == b.rid {
                return Err(HeraError::Corrupt(format!(
                    "sim-cache entry {a}-{b} is intra-record"
                )));
            }
            cache.insert(a, b, e.expect("sim")?.as_f64()?);
        }
        cache.invalidated = json
            .expect("invalidated")?
            .as_i64()?
            .try_into()
            .map_err(|_| HeraError::Corrupt("negative sim-cache invalidation count".into()))?;
        Ok(cache)
    }

    /// Checks internal bookkeeping (tests/debugging): `len` matches the
    /// stored entries, every entry is canonically oriented under its group
    /// key, and the partner map matches the group keys.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let mut count = 0usize;
        for (&(r1, r2), group) in &self.groups {
            if r1 >= r2 {
                return Err(format!("group key ({r1}, {r2}) not ascending"));
            }
            for &(x, y) in group.keys() {
                if (x.rid, y.rid) != (r1, r2) {
                    return Err(format!("entry ({x}, {y}) filed under ({r1}, {r2})"));
                }
            }
            count += group.len();
            let linked = self.partners.get(&r1).is_some_and(|s| s.contains(&r2))
                && self.partners.get(&r2).is_some_and(|s| s.contains(&r1));
            if !group.is_empty() && !linked {
                return Err(format!("partner map misses group ({r1}, {r2})"));
            }
        }
        if count != self.len {
            return Err(format!("len {} but {} entries stored", self.len, count));
        }
        Ok(())
    }
}

/// Per-verification record of cache traffic, produced by workers against a
/// frozen cache snapshot and applied sequentially (module docs).
#[derive(Debug, Default, Clone)]
pub(crate) struct SimDelta {
    /// Misses computed by the worker: `(label, label, sim)` to memoize.
    pub fills: Vec<(Label, Label, f64)>,
    /// Lookups answered by the snapshot.
    pub hits: u64,
    /// Lookups that fell through to the metric.
    pub misses: u64,
    /// `metric.sim` invocations (equals `misses` when the cache is on;
    /// counts every call when it is off).
    pub metric_calls: u64,
}

impl SimDelta {
    /// Resets the delta for reuse without dropping capacity.
    pub fn clear(&mut self) {
        self.fills.clear();
        self.hits = 0;
        self.misses = 0;
        self.metric_calls = 0;
    }

    /// Value-pair similarity lookups this verification performed,
    /// **identical with the cache on or off**: cache-on lookups are
    /// `hits + misses` (every miss also calls the metric, so
    /// `misses == metric_calls`); cache-off lookups all go straight to
    /// the metric (`hits = misses = 0`). The max folds both cases into
    /// one cache-invariant counter — the one journal spans report.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses.max(self.metric_calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(rid: u32, fid: u32, vid: u32) -> Label {
        Label::new(rid, fid, vid)
    }

    #[test]
    fn get_is_orientation_insensitive() {
        let mut c = SimCache::new();
        c.insert(l(3, 0, 0), l(1, 2, 0), 0.7);
        assert_eq!(c.get(l(1, 2, 0), l(3, 0, 0)), Some(0.7));
        assert_eq!(c.get(l(3, 0, 0), l(1, 2, 0)), Some(0.7));
        assert_eq!(c.len(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut c = SimCache::new();
        c.insert(l(0, 0, 0), l(1, 0, 0), 0.5);
        c.insert(l(1, 0, 0), l(0, 0, 0), 0.5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_drops_intra_pair_group() {
        let mut c = SimCache::new();
        c.insert(l(0, 0, 0), l(1, 0, 0), 0.9);
        c.insert(l(0, 1, 0), l(1, 1, 0), 0.8);
        c.merge(0, 1, 0, |x| x);
        assert_eq!(c.len(), 0);
        assert_eq!(c.invalidated(), 2);
        assert_eq!(c.get(l(0, 0, 0), l(1, 0, 0)), None);
        c.check_invariants().unwrap();
    }

    #[test]
    fn merge_rehomes_third_party_groups() {
        let mut c = SimCache::new();
        // 0–2 and 1–2 entries must both land under 0–2 after 0⊕1→0,
        // with 1's labels rewritten.
        c.insert(l(0, 0, 0), l(2, 0, 0), 0.6);
        c.insert(l(1, 3, 0), l(2, 0, 0), 0.4);
        c.merge(0, 1, 0, |x| {
            if x.rid == 1 {
                l(0, 5, x.vid) // pretend field 3 of r1 became field 5 of r0
            } else {
                x
            }
        });
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(l(0, 0, 0), l(2, 0, 0)), Some(0.6));
        assert_eq!(c.get(l(0, 5, 0), l(2, 0, 0)), Some(0.4));
        assert_eq!(c.get(l(1, 3, 0), l(2, 0, 0)), None);
        c.check_invariants().unwrap();
    }

    #[test]
    fn merge_dedupes_folded_labels() {
        let mut c = SimCache::new();
        // Both old entries remap to the same new label pair (value dedupe).
        c.insert(l(0, 0, 0), l(2, 0, 0), 0.6);
        c.insert(l(1, 0, 0), l(2, 0, 0), 0.6);
        c.merge(0, 1, 0, |x| if x.rid == 1 { l(0, 0, 0) } else { x });
        assert_eq!(c.len(), 1);
        assert_eq!(c.invalidated(), 1);
        assert_eq!(c.get(l(0, 0, 0), l(2, 0, 0)), Some(0.6));
        c.check_invariants().unwrap();
    }

    #[test]
    fn merge_survives_chain() {
        let mut c = SimCache::new();
        c.insert(l(0, 0, 0), l(1, 0, 0), 0.9);
        c.insert(l(0, 0, 0), l(2, 0, 0), 0.8);
        c.insert(l(1, 0, 0), l(3, 0, 0), 0.7);
        c.merge(0, 1, 0, |x| if x.rid == 1 { l(0, 6, 0) } else { x });
        c.check_invariants().unwrap();
        assert_eq!(c.get(l(0, 6, 0), l(3, 0, 0)), Some(0.7));
        c.merge(0, 2, 2, |x| {
            if x.rid == 0 {
                l(2, x.fid + 1, x.vid)
            } else {
                x
            }
        });
        c.check_invariants().unwrap();
        assert_eq!(c.get(l(2, 7, 0), l(3, 0, 0)), Some(0.7));
    }

    #[test]
    fn apply_installs_fills() {
        let mut c = SimCache::new();
        let delta = SimDelta {
            fills: vec![(l(0, 0, 0), l(1, 0, 0), 0.5), (l(0, 1, 0), l(2, 0, 0), 0.3)],
            hits: 0,
            misses: 2,
            metric_calls: 2,
        };
        c.apply(&delta);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(l(0, 1, 0), l(2, 0, 0)), Some(0.3));
        c.check_invariants().unwrap();
    }

    #[test]
    fn json_roundtrip_restores_entries_and_counter() {
        let mut c = SimCache::new();
        c.insert(l(0, 0, 0), l(1, 0, 0), 0.9);
        c.insert(l(0, 0, 0), l(2, 1, 0), 0.4);
        c.insert(l(1, 2, 0), l(3, 0, 0), 0.75);
        c.merge(0, 1, 0, |x| if x.rid == 1 { l(0, 9, x.vid) } else { x });
        let dump = c.to_json().to_string_compact();
        let back = SimCache::from_json(&hera_types::json::parse(&dump).unwrap()).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.invalidated(), c.invalidated());
        assert_eq!(back.get(l(0, 9, 0), l(3, 0, 0)), Some(0.75));
        assert_eq!(back.to_json().to_string_compact(), dump, "fixpoint");
    }

    #[test]
    fn json_rejects_intra_record_entry() {
        let json = hera_types::json::parse(
            r#"{"invalidated":0,"entries":[{"a":{"rid":1,"fid":0,"vid":0},"b":{"rid":1,"fid":1,"vid":0},"sim":0.5}]}"#,
        )
        .unwrap();
        let err = SimCache::from_json(&json).unwrap_err();
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn delta_clear_resets_counts() {
        let mut d = SimDelta {
            fills: vec![(l(0, 0, 0), l(1, 0, 0), 0.5)],
            hits: 3,
            misses: 1,
            metric_calls: 1,
        };
        d.clear();
        assert!(d.fills.is_empty());
        assert_eq!((d.hits, d.misses, d.metric_calls), (0, 0, 0));
    }
}
