//! The schema-based method (§IV-B): probabilistic majority voting over
//! field-matching predictions.
//!
//! Every verified-similar record pair yields field matchings; each field
//! matching predicts that its source attributes correspond. Under the
//! no-redundant-attributes assumption \[12\], a source attribute matches at
//! most one attribute of any other schema, so conflicting predictions are
//! resolved by majority vote. Theorem 2 bounds the error probability of a
//! vote over `n` trials with per-trial accuracy `p`:
//!
//! `UP_error = exp(−(n / 2p) · (p − ½)²)`
//!
//! Once `UP_error < ρ`, the winner is *decided* and injected back into
//! instance-based verification as a forced field pair.

use hera_types::json::Json;
use hera_types::{Result, SchemaId, SchemaRegistry, SourceAttrId};
use rustc_hash::FxHashMap;

/// Theorem 2's upper bound on majority-vote error probability.
///
/// With the paper's example numbers (`p = 0.8`, `n = 10`):
/// `exp(−(10/1.6)·0.09) = exp(−0.5625) ≈ 0.57`.
///
/// # Panics
/// Panics unless `0.5 < p ≤ 1` (majority voting is meaningless for
/// `p ≤ ½`).
pub fn vote_error_bound(n: u32, p: f64) -> f64 {
    assert!(
        p > 0.5 && p <= 1.0,
        "vote prior must be in (0.5, 1], got {p}"
    );
    (-(n as f64) / (2.0 * p) * (p - 0.5).powi(2)).exp()
}

/// A schema matching decided by the voter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecidedMatching {
    /// The voted-on attribute.
    pub attr: SourceAttrId,
    /// The schema the partner lives in.
    pub partner_schema: SchemaId,
    /// The decided partner attribute.
    pub partner: SourceAttrId,
    /// Confidence `1 − UP_error` at decision time.
    pub confidence: f64,
}

impl DecidedMatching {
    /// Theorem 2's error bound at decision time (`1 − confidence`).
    pub fn up_error(&self) -> f64 {
        1.0 - self.confidence
    }
}

/// Collects predictions and decides attribute matchings.
#[derive(Debug, Default)]
pub struct SchemaVoter {
    /// (attr, partner schema) → per-candidate vote counts.
    votes: FxHashMap<(SourceAttrId, SchemaId), FxHashMap<SourceAttrId, u32>>,
    /// Decided matchings, keyed like `votes`. Decisions are final.
    decided: FxHashMap<(SourceAttrId, SchemaId), DecidedMatching>,
}

impl SchemaVoter {
    /// Creates an empty voter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one field-matching prediction between source attributes of
    /// different schemas. Votes are cast symmetrically (`a` about `b`'s
    /// schema and vice versa).
    pub(crate) fn add_vote(&mut self, registry: &SchemaRegistry, a: SourceAttrId, b: SourceAttrId) {
        let (sa, sb) = (registry.attr_schema(a), registry.attr_schema(b));
        if sa == sb {
            // Same-schema predictions violate the no-redundant-attributes
            // assumption; they carry no cross-schema information.
            return;
        }
        *self.votes.entry((a, sb)).or_default().entry(b).or_insert(0) += 1;
        *self.votes.entry((b, sa)).or_default().entry(a).or_insert(0) += 1;
    }

    /// Runs the decision rule over all open votes: for each `(attr,
    /// partner-schema)` bucket with at least `min_n` trials, if the
    /// majority candidate's error bound beats `rho`, the matching is
    /// decided. Returns the newly decided matchings.
    pub fn decide(&mut self, p: f64, rho: f64, min_n: u32) -> Vec<DecidedMatching> {
        let mut fresh = Vec::new();
        for (&key, counts) in &self.votes {
            if self.decided.contains_key(&key) {
                continue;
            }
            let n: u32 = counts.values().sum();
            if n < min_n {
                continue;
            }
            let err = vote_error_bound(n, p);
            if err >= rho {
                continue;
            }
            // Majority candidate; deterministic tie-break by attr id.
            let (&winner, &wins) = counts
                .iter()
                .max_by_key(|(attr, c)| (**c, std::cmp::Reverse(attr.raw())))
                .expect("non-empty vote bucket");
            // Require a strict majority of the trials.
            if 2 * wins <= n {
                continue;
            }
            let d = DecidedMatching {
                attr: key.0,
                partner_schema: key.1,
                partner: winner,
                confidence: 1.0 - err,
            };
            self.decided.insert(key, d);
            fresh.push(d);
        }
        fresh.sort_unstable_by_key(|d| (d.attr, d.partner_schema));
        fresh
    }

    /// The decided partner of `attr` in `schema`, if any.
    pub(crate) fn decided_partner(
        &self,
        attr: SourceAttrId,
        schema: SchemaId,
    ) -> Option<SourceAttrId> {
        self.decided.get(&(attr, schema)).map(|d| d.partner)
    }

    /// True if `a ≈ b` has been decided in either direction.
    pub(crate) fn is_decided_pair(
        &self,
        registry: &SchemaRegistry,
        a: SourceAttrId,
        b: SourceAttrId,
    ) -> bool {
        self.decided_partner(a, registry.attr_schema(b)) == Some(b)
            || self.decided_partner(b, registry.attr_schema(a)) == Some(a)
    }

    /// All decided matchings, deterministic order.
    pub fn decided(&self) -> Vec<DecidedMatching> {
        let mut out: Vec<DecidedMatching> = self.decided.values().copied().collect();
        out.sort_unstable_by_key(|d| (d.attr, d.partner_schema));
        out
    }

    /// Encodes the voter as JSON: open vote tallies *and* decided
    /// matchings, both in sorted key order. Serializing the open votes is
    /// what makes a restored session continuation-equivalent — future
    /// decisions depend on every vote cast so far, not just on the
    /// decided set.
    pub fn to_json(&self) -> Json {
        let mut votes: Vec<_> = self.votes.iter().collect();
        votes.sort_unstable_by_key(|(&(attr, schema), _)| (attr, schema));
        let votes = votes
            .into_iter()
            .map(|(&(attr, schema), counts)| {
                let mut counts: Vec<_> = counts.iter().collect();
                counts.sort_unstable_by_key(|(&cand, _)| cand);
                Json::Obj(vec![
                    ("attr".into(), Json::Int(i64::from(attr.raw()))),
                    ("schema".into(), Json::Int(i64::from(schema.raw()))),
                    (
                        "counts".into(),
                        Json::Arr(
                            counts
                                .into_iter()
                                .map(|(&cand, &n)| {
                                    Json::Obj(vec![
                                        ("cand".into(), Json::Int(i64::from(cand.raw()))),
                                        ("n".into(), Json::Int(i64::from(n))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut decided: Vec<_> = self.decided.values().collect();
        decided.sort_unstable_by_key(|d| (d.attr, d.partner_schema));
        let decided = decided
            .into_iter()
            .map(|d| {
                Json::Obj(vec![
                    ("attr".into(), Json::Int(i64::from(d.attr.raw()))),
                    (
                        "partner_schema".into(),
                        Json::Int(i64::from(d.partner_schema.raw())),
                    ),
                    ("partner".into(), Json::Int(i64::from(d.partner.raw()))),
                    ("confidence".into(), Json::Float(d.confidence)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("votes".into(), Json::Arr(votes)),
            ("decided".into(), Json::Arr(decided)),
        ])
    }

    /// Decodes a voter from [`SchemaVoter::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Self> {
        let mut voter = Self::default();
        for bucket in json.expect("votes")?.as_arr()? {
            let key = (
                SourceAttrId::new(bucket.expect("attr")?.as_u32()?),
                SchemaId::new(bucket.expect("schema")?.as_u32()?),
            );
            let mut counts = FxHashMap::default();
            for c in bucket.expect("counts")?.as_arr()? {
                counts.insert(
                    SourceAttrId::new(c.expect("cand")?.as_u32()?),
                    c.expect("n")?.as_u32()?,
                );
            }
            voter.votes.insert(key, counts);
        }
        for d in json.expect("decided")?.as_arr()? {
            let m = DecidedMatching {
                attr: SourceAttrId::new(d.expect("attr")?.as_u32()?),
                partner_schema: SchemaId::new(d.expect("partner_schema")?.as_u32()?),
                partner: SourceAttrId::new(d.expect("partner")?.as_u32()?),
                confidence: d.expect("confidence")?.as_f64()?,
            };
            voter.decided.insert((m.attr, m.partner_schema), m);
        }
        Ok(voter)
    }

    /// Number of open vote buckets (undecided).
    pub fn open_buckets(&self) -> usize {
        self.votes
            .keys()
            .filter(|k| !self.decided.contains_key(k))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::SchemaRegistry;

    fn registry() -> (SchemaRegistry, Vec<SourceAttrId>, Vec<SourceAttrId>) {
        let mut reg = SchemaRegistry::new();
        let s1 = reg.add_schema("S1", ["name", "mail"]);
        let s2 = reg.add_schema("S2", ["name", "mailbox"]);
        let a1: Vec<SourceAttrId> = reg.schema(s1).attrs.iter().map(|a| a.id).collect();
        let a2: Vec<SourceAttrId> = reg.schema(s2).attrs.iter().map(|a| a.id).collect();
        (reg, a1, a2)
    }

    #[test]
    fn paper_example_numbers() {
        // p = 0.8, n = 10 → UP_error ≈ 0.57 < ρ = 0.6 → decided with
        // confidence 0.43.
        let e = vote_error_bound(10, 0.8);
        assert!((e - 0.5698).abs() < 1e-3, "got {e}");
        assert!(e < 0.6);
    }

    #[test]
    fn bound_decreases_with_n() {
        let p = 0.8;
        let mut last = 1.0;
        for n in [1, 5, 10, 50, 100] {
            let e = vote_error_bound(n, p);
            assert!(e < last);
            last = e;
        }
        assert!(last < 0.01);
    }

    #[test]
    fn bound_decreases_with_p() {
        assert!(vote_error_bound(10, 0.9) < vote_error_bound(10, 0.7));
    }

    #[test]
    #[should_panic(expected = "vote prior")]
    fn coin_flip_prior_rejected() {
        vote_error_bound(10, 0.5);
    }

    #[test]
    fn majority_vote_decides() {
        let (reg, a1, a2) = registry();
        let mut voter = SchemaVoter::new();
        // name↔name seen 9 times, name↔mailbox once.
        for _ in 0..9 {
            voter.add_vote(&reg, a1[0], a2[0]);
        }
        voter.add_vote(&reg, a1[0], a2[1]);
        let fresh = voter.decide(0.8, 0.6, 3);
        // Both directions decided for name↔name; mailbox bucket (a2[1])
        // has n=1 < min_n.
        assert!(fresh.iter().any(|d| d.attr == a1[0] && d.partner == a2[0]));
        assert!(voter.is_decided_pair(&reg, a1[0], a2[0]));
        assert!(!voter.is_decided_pair(&reg, a1[0], a2[1]));
    }

    #[test]
    fn no_strict_majority_no_decision() {
        let (reg, a1, a2) = registry();
        let mut voter = SchemaVoter::new();
        for _ in 0..5 {
            voter.add_vote(&reg, a1[0], a2[0]);
            voter.add_vote(&reg, a1[0], a2[1]);
        }
        // 10 trials, 5/5 split: bound passes but no strict majority.
        let fresh = voter.decide(0.8, 0.6, 3);
        assert!(fresh.iter().all(|d| d.attr != a1[0]));
    }

    #[test]
    fn insufficient_votes_stay_open() {
        let (reg, a1, a2) = registry();
        let mut voter = SchemaVoter::new();
        voter.add_vote(&reg, a1[1], a2[1]);
        assert!(voter.decide(0.8, 0.6, 3).is_empty());
        assert_eq!(voter.open_buckets(), 2); // both directions open
    }

    #[test]
    fn decisions_are_final() {
        let (reg, a1, a2) = registry();
        let mut voter = SchemaVoter::new();
        for _ in 0..10 {
            voter.add_vote(&reg, a1[0], a2[0]);
        }
        let first = voter.decide(0.8, 0.6, 3);
        assert!(!first.is_empty());
        // Contradicting votes arrive later; the decision stands and
        // decide() does not re-emit it.
        for _ in 0..50 {
            voter.add_vote(&reg, a1[0], a2[1]);
        }
        let second = voter.decide(0.8, 0.6, 3);
        assert!(second.iter().all(|d| !(d.attr == a1[0]
            && reg.attr_schema(d.partner) == reg.attr_schema(a2[0])
            && d.partner == a2[0])));
        assert_eq!(
            voter.decided_partner(a1[0], reg.attr_schema(a2[0])),
            Some(a2[0])
        );
    }

    #[test]
    fn json_roundtrip_preserves_open_votes_and_decisions() {
        let (reg, a1, a2) = registry();
        let mut voter = SchemaVoter::new();
        for _ in 0..10 {
            voter.add_vote(&reg, a1[0], a2[0]);
        }
        voter.add_vote(&reg, a1[1], a2[1]); // stays open
        assert!(!voter.decide(0.8, 0.6, 3).is_empty());

        let dump = voter.to_json().to_string_compact();
        let mut back = SchemaVoter::from_json(&hera_types::json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.decided(), voter.decided());
        assert_eq!(back.open_buckets(), voter.open_buckets());
        assert_eq!(back.to_json().to_string_compact(), dump, "fixpoint");

        // Open votes keep accumulating after restore exactly as live.
        for v in [&mut voter, &mut back] {
            for _ in 0..9 {
                v.add_vote(&reg, a1[1], a2[1]);
            }
        }
        assert_eq!(
            back.decide(0.8, 0.6, 3),
            voter.decide(0.8, 0.6, 3),
            "continuation-equivalent decisions"
        );
    }

    #[test]
    fn same_schema_votes_ignored() {
        let (reg, a1, _) = registry();
        let mut voter = SchemaVoter::new();
        voter.add_vote(&reg, a1[0], a1[1]);
        assert_eq!(voter.open_buckets(), 0);
    }
}
