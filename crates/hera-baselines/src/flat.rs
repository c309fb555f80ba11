//! Flat (homogeneous) super records and the shared record similarity.

use hera_join::{JoinConfig, SimilarityJoin};
use hera_sim::ValueSimilarity;
use hera_types::{Dataset, Value};
use rustc_hash::{FxHashMap, FxHashSet};

/// A merged homogeneous record: fields stay positionally aligned with the
/// (single) target schema; each field accumulates the values of all
/// members.
#[derive(Debug, Clone)]
pub(crate) struct FlatSuper {
    /// One value-set per target-schema position.
    pub fields: Vec<Vec<Value>>,
    /// Base records folded in (ascending).
    pub members: Vec<u32>,
}

impl FlatSuper {
    /// Lifts base record `rid` of a homogeneous dataset.
    pub fn from_record(ds: &Dataset, rid: u32) -> Self {
        let rec = &ds.records[rid as usize];
        Self {
            fields: rec
                .values
                .iter()
                .map(|v| {
                    if v.is_null() {
                        Vec::new()
                    } else {
                        vec![v.clone()]
                    }
                })
                .collect(),
            members: vec![rid],
        }
    }

    /// Merges `other` into `self`, position-wise, deduplicating equal
    /// values.
    pub fn absorb(&mut self, other: &FlatSuper) {
        debug_assert_eq!(self.fields.len(), other.fields.len());
        for (mine, theirs) in self.fields.iter_mut().zip(&other.fields) {
            for v in theirs {
                if !mine.iter().any(|x| x.same(v)) {
                    mine.push(v.clone());
                }
            }
        }
        self.members.extend(&other.members);
        self.members.sort_unstable();
        self.members.dedup();
    }

    /// Record similarity aligned with Definition 5, specialized for the
    /// positionally-matched homogeneous case: per-position field
    /// similarity is the max value-pair similarity; positions scoring
    /// `≥ ξ` accumulate; normalize by `min(|R_i|, |R_j|)`.
    ///
    /// Under one target schema every record *has* all target fields (some
    /// hold only nulls), so Definition 5's `|R|` is the schema arity.
    /// Normalizing by non-null counts instead lets records that retain
    /// only one or two values after exchange match anything sharing those
    /// values, and the merge closure then collapses the dataset into one
    /// cluster — an instructive failure, but not the baselines' intended
    /// semantics.
    pub fn similarity(&self, other: &FlatSuper, metric: &dyn ValueSimilarity, xi: f64) -> f64 {
        let mut total = 0.0;
        for (a, b) in self.fields.iter().zip(&other.fields) {
            let s = field_sim(a, b, metric);
            if s >= xi {
                total += s;
            }
        }
        let denom = self.fields.len().min(other.fields.len()).max(1);
        total / denom as f64
    }
}

/// Field similarity for flat supers: symmetric average-best linkage.
///
/// On base records (single values per field) this is exactly Definition
/// 3's max; on merged records each value contributes its best partner in
/// the other field, averaged over both sides — the average-linkage
/// discipline agglomerative ER implementations (e.g. Bhattacharya–Getoor)
/// use in practice. Pure max linkage makes R-Swoosh's transitive merge
/// closure snowball: a cluster that has accumulated thirty distributor
/// values matches *any* record on that field, and the output degenerates
/// into one cluster.
fn field_sim(a: &[Value], b: &[Value], metric: &dyn ValueSimilarity) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for va in a {
        let mut best = 0.0f64;
        for vb in b {
            let s = metric.sim(va, vb);
            if s > best {
                best = s;
            }
        }
        total += best;
    }
    for vb in b {
        let mut best = 0.0f64;
        for va in a {
            let s = metric.sim(va, vb);
            if s > best {
                best = s;
            }
        }
        total += best;
    }
    total / (a.len() + b.len()) as f64
}

/// Candidate record pairs for a homogeneous dataset: pairs sharing at
/// least one value pair with `simv ≥ ξ`, via the same similarity join
/// HERA's index uses. Returned as an adjacency map over base rids.
pub(crate) fn candidate_adjacency(
    ds: &Dataset,
    metric: &dyn ValueSimilarity,
    xi: f64,
) -> FxHashMap<u32, FxHashSet<u32>> {
    let pairs = SimilarityJoin::new(JoinConfig::new(xi), metric).join_dataset(ds);
    let mut adj: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
    for p in pairs {
        adj.entry(p.a.rid).or_default().insert(p.b.rid);
        adj.entry(p.b.rid).or_default().insert(p.a.rid);
    }
    adj
}

/// All candidate rid pairs `(i, j)` with `i < j`, sorted.
pub(crate) fn candidate_pairs(adj: &FxHashMap<u32, FxHashSet<u32>>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (&i, partners) in adj {
        for &j in partners {
            if i < j {
                out.push((i, j));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_sim::TypeDispatch;
    use hera_types::{motivating_example, CanonAttrId, DatasetBuilder, EntityId};

    fn homo() -> Dataset {
        let mut b = DatasetBuilder::new("h");
        let c = CanonAttrId::new;
        let s = b.add_schema("T", [("name", c(0)), ("city", c(1))]);
        let v = Value::from;
        b.add_record(s, vec![v("John Bush"), v("LA")], EntityId::new(0))
            .unwrap();
        b.add_record(s, vec![v("J. Bush"), Value::Null], EntityId::new(0))
            .unwrap();
        b.add_record(s, vec![v("Alice Wong"), v("NYC")], EntityId::new(1))
            .unwrap();
        b.build()
    }

    #[test]
    fn lift_and_similarity() {
        let ds = homo();
        let metric = TypeDispatch::paper_default();
        let a = FlatSuper::from_record(&ds, 0);
        let b = FlatSuper::from_record(&ds, 1);
        let c = FlatSuper::from_record(&ds, 2);
        // Names overlap; the null city contributes nothing and the
        // arity-2 denominator halves the name similarity.
        let sim_ab = a.similarity(&b, &metric, 0.3);
        assert!(sim_ab >= 0.2, "got {sim_ab}");
        let sim_ac = a.similarity(&c, &metric, 0.3);
        assert!(sim_ac < sim_ab);
    }

    #[test]
    fn absorb_merges_and_dedupes() {
        let ds = homo();
        let mut a = FlatSuper::from_record(&ds, 0);
        let b = FlatSuper::from_record(&ds, 1);
        a.absorb(&b);
        assert_eq!(a.members, vec![0, 1]);
        assert_eq!(a.fields[0].len(), 2); // two name variants
        assert_eq!(a.fields[1].len(), 1); // null contributed nothing
                                          // Absorbing the same record again changes nothing.
        let before = a.fields.clone();
        a.absorb(&b);
        assert_eq!(a.fields, before);
    }

    #[test]
    fn symmetry() {
        let ds = homo();
        let metric = TypeDispatch::paper_default();
        let a = FlatSuper::from_record(&ds, 0);
        let b = FlatSuper::from_record(&ds, 1);
        assert!((a.similarity(&b, &metric, 0.3) - b.similarity(&a, &metric, 0.3)).abs() < 1e-12);
    }

    #[test]
    fn adjacency_on_example() {
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        let adj = candidate_adjacency(&ds, &metric, 0.5);
        let pairs = candidate_pairs(&adj);
        assert!(!pairs.is_empty());
        for (i, j) in pairs {
            assert!(i < j);
        }
    }
}
