//! Schema matching + data exchange — the conventional pipeline of
//! Fig. 1(c) that HERA is evaluated against.
//!
//! Given a heterogeneous dataset, this module reproduces §VI-A's
//! construction of the *homogeneous* datasets:
//!
//! 1. **Target schema** — a user-defined schema is simulated by sampling a
//!    fraction of the dataset's distinct (canonical) attributes: `⅓` for
//!    the `-S` variants, `⅔` for `-L` (the paper "randomly selected part
//!    of distinct attributes from source schemas to generate the target
//!    schema").
//! 2. **Schema matchings → tgds** — each source schema gets one
//!    source-to-target tuple-generating dependency
//!    `∀x̄ (S(x̄) → ∃ȳ T(π(x̄), ȳ))` ([`Tgd`]), derived from the oracle
//!    attribute identity (the paper decides matchings manually).
//! 3. **Chase** — every source record is chased through its schema's tgd
//!    ([`chase`]): mapped positions copy values, existential positions
//!    become labeled nulls. The result is one flat relation under the
//!    target schema, with the original entity labels carried along.
//!
//! The *information loss* HERA exploits is measurable here:
//! [`ExchangePlan::dropped_value_count`] counts source values that no
//! target position preserves.

use hera_types::{CanonAttrId, Dataset, DatasetBuilder, EntityId, SchemaId, Value};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::{FxHashMap, FxHashSet};

/// A source-to-target tuple-generating dependency for one source schema.
///
/// `mapping[t]` says where target position `t` gets its value: `Some(s)`
/// copies source position `s` (the schema matching `source.a_s ≈
/// target.a_t`); `None` is existential — the chase emits a labeled null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    /// The source schema this dependency fires on.
    pub source_schema: SchemaId,
    /// Target-position → source-position map.
    pub mapping: Vec<Option<usize>>,
}

impl Tgd {
    /// Number of target positions filled from the source (the preserved
    /// information content).
    pub fn preserved(&self) -> usize {
        self.mapping.iter().filter(|m| m.is_some()).count()
    }
}

/// The complete exchange specification for a dataset.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    /// Canonical classes retained by the target schema, in target order.
    pub target_attrs: Vec<CanonAttrId>,
    /// Display names for the target attributes (borrowed from the first
    /// source attribute of each class).
    pub target_names: Vec<String>,
    /// One tgd per source schema, indexed by schema id.
    pub tgds: Vec<Tgd>,
    /// Source values that no tgd maps anywhere — the information loss.
    pub dropped_value_count: usize,
}

/// Samples a target schema covering `fraction` of the distinct attributes
/// and derives the tgds. Deterministic in `seed`.
///
/// # Panics
/// Panics if `fraction` is not in `(0, 1]` or the sample would be empty.
pub fn plan_exchange(ds: &Dataset, fraction: f64, seed: u64) -> ExchangePlan {
    plan_exchange_ensuring(ds, fraction, seed, &[])
}

/// Like [`plan_exchange`], but guarantees the listed canonical classes are
/// in the target schema (space permitting). §VI motivates this: "a target
/// schema is defined by the user for specific computation goals" — a user
/// consuming entity records keeps the entity's primary name attribute,
/// even when the rest of the selection is arbitrary.
pub fn plan_exchange_ensuring(
    ds: &Dataset,
    fraction: f64,
    seed: u64,
    ensure: &[CanonAttrId],
) -> ExchangePlan {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    // Distinct canonical classes present, with a representative name and
    // their source coverage (how many schemas expose them).
    let mut seen: FxHashSet<CanonAttrId> = FxHashSet::default();
    let mut classes: Vec<(CanonAttrId, String)> = Vec::new();
    let mut coverage: FxHashMap<CanonAttrId, usize> = FxHashMap::default();
    for schema in ds.registry.schemas() {
        let mut in_schema: FxHashSet<CanonAttrId> = FxHashSet::default();
        for attr in &schema.attrs {
            let c = ds.truth.canon_of(attr.id);
            if seen.insert(c) {
                classes.push((c, attr.name.clone()));
            }
            if in_schema.insert(c) {
                *coverage.entry(c).or_insert(0) += 1;
            }
        }
    }
    classes.sort_by_key(|(c, _)| *c);

    let keep = ((classes.len() as f64 * fraction).round() as usize).clamp(1, classes.len());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // A target schema is "defined by the user for specific computation
    // goals" (§VI): users pick attributes their sources can actually
    // populate, so selection prefers high-coverage classes — ensured
    // classes first, then descending source coverage, with the seeded
    // shuffle breaking ties (this is where the randomness the paper
    // mentions lives: most classes tie on coverage).
    let mut shuffled = classes.clone();
    shuffled.shuffle(&mut rng);
    shuffled.sort_by_key(|(c, _)| {
        (
            !ensure.contains(c),
            std::cmp::Reverse(coverage.get(c).copied().unwrap_or(0)),
        )
    });
    let mut selected: Vec<(CanonAttrId, String)> = shuffled.into_iter().take(keep).collect();
    selected.sort_by_key(|(c, _)| *c);

    let target_attrs: Vec<CanonAttrId> = selected.iter().map(|(c, _)| *c).collect();
    let target_names: Vec<String> = selected.iter().map(|(_, n)| n.clone()).collect();
    let pos_of_class: FxHashMap<CanonAttrId, usize> = target_attrs
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i))
        .collect();

    // One tgd per source schema: target position t copies the source
    // position whose attribute belongs to class target_attrs[t].
    let tgds: Vec<Tgd> = ds
        .registry
        .schemas()
        .map(|schema| {
            let mut mapping: Vec<Option<usize>> = vec![None; target_attrs.len()];
            for (s_pos, attr) in schema.attrs.iter().enumerate() {
                if let Some(&t_pos) = pos_of_class.get(&ds.truth.canon_of(attr.id)) {
                    // No redundant attributes per schema [12]: first wins.
                    if mapping[t_pos].is_none() {
                        mapping[t_pos] = Some(s_pos);
                    }
                }
            }
            Tgd {
                source_schema: schema.id,
                mapping,
            }
        })
        .collect();

    // Information loss: non-null source values in positions no tgd maps.
    let mut dropped = 0usize;
    for rec in ds.iter() {
        let tgd = &tgds[rec.schema.index()];
        let mapped: FxHashSet<usize> = tgd.mapping.iter().flatten().copied().collect();
        dropped += rec
            .values
            .iter()
            .enumerate()
            .filter(|(pos, v)| !v.is_null() && !mapped.contains(pos))
            .count();
    }

    ExchangePlan {
        target_attrs,
        target_names,
        tgds,
        dropped_value_count: dropped,
    }
}

/// Chases every record of `ds` through its schema's tgd, producing the
/// homogeneous dataset under the target schema. Entity labels carry over;
/// existential positions become nulls.
pub fn chase(ds: &Dataset, plan: &ExchangePlan, name: impl Into<String>) -> Dataset {
    let mut builder = DatasetBuilder::new(name);
    let schema_attrs: Vec<(String, CanonAttrId)> = plan
        .target_names
        .iter()
        .cloned()
        .zip(plan.target_attrs.iter().copied())
        .collect();
    let target = builder.add_schema("Target", schema_attrs);
    for rec in ds.iter() {
        let tgd = &plan.tgds[rec.schema.index()];
        debug_assert_eq!(tgd.source_schema, rec.schema);
        let values: Vec<Value> = tgd
            .mapping
            .iter()
            .map(|m| match m {
                Some(s_pos) => rec.values[*s_pos].clone(),
                None => Value::Null,
            })
            .collect();
        let entity: EntityId = ds.truth.entity_of(rec.id);
        builder
            .add_record(target, values, entity)
            .expect("chase emits target-arity tuples");
    }
    builder.build()
}

/// The *ideal* data exchange of the HERA framework (Fig. 1-d's final
/// step): convert records **with entity labels** to the target schema,
/// emitting one fused record per entity.
///
/// §I motivates this: "An ideal data exchange is to join instances
/// referring to the same real-world entity. However, most existing work
/// about data exchange join two records with the same or similar key
/// values … our framework accomplishes ER before data exchange, which
/// offers feasibility to an ideal exchange."
///
/// `entity_of[rid]` are the labels HERA produced (or any labeling). Per
/// entity and per target attribute, the fused value is the **most
/// frequent non-null candidate** across the entity's records (ties break
/// toward the longer text, then lexicographically — a standard
/// majority-consolidation fusion rule). The fused dataset's ground truth
/// maps each fused record to its (majority) true entity so fusion quality
/// remains measurable.
pub fn fuse_entities(
    ds: &Dataset,
    entity_of: &[u32],
    plan: &ExchangePlan,
    name: impl Into<String>,
) -> Dataset {
    assert_eq!(entity_of.len(), ds.len(), "one label per record");
    let mut builder = DatasetBuilder::new(name);
    let schema_attrs: Vec<(String, CanonAttrId)> = plan
        .target_names
        .iter()
        .cloned()
        .zip(plan.target_attrs.iter().copied())
        .collect();
    let target = builder.add_schema("Target", schema_attrs);

    // Group records by predicted entity label, deterministic order.
    let mut groups: std::collections::BTreeMap<u32, Vec<&hera_types::Record>> = Default::default();
    for rec in ds.iter() {
        groups
            .entry(entity_of[rec.id.index()])
            .or_default()
            .push(rec);
    }

    for members in groups.values() {
        let mut values: Vec<Value> = Vec::with_capacity(plan.target_attrs.len());
        for t_pos in 0..plan.target_attrs.len() {
            // Collect candidates via each member's tgd.
            let mut counts: Vec<(Value, usize)> = Vec::new();
            for rec in members {
                let tgd = &plan.tgds[rec.schema.index()];
                if let Some(s_pos) = tgd.mapping[t_pos] {
                    let v = &rec.values[s_pos];
                    if v.is_null() {
                        continue;
                    }
                    match counts.iter_mut().find(|(x, _)| x.same(v)) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((v.clone(), 1)),
                    }
                }
            }
            counts.sort_by(|(va, na), (vb, nb)| {
                nb.cmp(na)
                    .then_with(|| vb.to_text().len().cmp(&va.to_text().len()))
                    .then_with(|| va.to_text().cmp(&vb.to_text()))
            });
            values.push(
                counts
                    .into_iter()
                    .next()
                    .map(|(v, _)| v)
                    .unwrap_or(Value::Null),
            );
        }
        // Majority true entity of the members, for measurable fusion.
        let mut ecounts: FxHashMap<EntityId, usize> = FxHashMap::default();
        for rec in members {
            *ecounts.entry(ds.truth.entity_of(rec.id)).or_insert(0) += 1;
        }
        let majority = ecounts
            .into_iter()
            .max_by_key(|&(e, n)| (n, std::cmp::Reverse(e.raw())))
            .map(|(e, _)| e)
            .expect("non-empty entity group");
        builder
            .add_record(target, values, majority)
            .expect("fusion emits target-arity tuples");
    }
    builder.build()
}

/// Convenience: the paper's `-S` construction (⅓ of distinct attributes,
/// always retaining canonical class 0 — the primary name attribute by
/// workspace convention).
pub fn exchange_small(ds: &Dataset, seed: u64) -> (Dataset, ExchangePlan) {
    let plan = plan_exchange_ensuring(ds, 1.0 / 3.0, seed, &[CanonAttrId::new(0)]);
    let out = chase(ds, &plan, format!("{}-S", ds.name));
    (out, plan)
}

/// Convenience: the paper's `-L` construction (⅔ of distinct attributes,
/// always retaining canonical class 0).
pub fn exchange_large(ds: &Dataset, seed: u64) -> (Dataset, ExchangePlan) {
    let plan = plan_exchange_ensuring(ds, 2.0 / 3.0, seed, &[CanonAttrId::new(0)]);
    let out = chase(ds, &plan, format!("{}-L", ds.name));
    (out, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::motivating_example;

    #[test]
    fn full_fraction_preserves_everything() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0, 1);
        assert_eq!(plan.target_attrs.len(), 7);
        assert_eq!(plan.dropped_value_count, 0);
        let out = chase(&ds, &plan, "full");
        assert_eq!(out.len(), ds.len());
        // r1 (Customer I, 5 attrs) has 2 nulls under the 7-attr target.
        assert_eq!(out.record(hera_types::RecordId::new(0)).non_null_arity(), 5);
    }

    #[test]
    fn small_fraction_loses_information() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0 / 3.0, 1);
        assert_eq!(plan.target_attrs.len(), 2); // round(7/3)
        assert!(plan.dropped_value_count > 0);
    }

    #[test]
    fn chase_copies_mapped_values_only() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0, 1);
        let out = chase(&ds, &plan, "t");
        // Every non-null output value appears in its source record.
        for (src, dst) in ds.iter().zip(out.iter()) {
            for v in &dst.values {
                if !v.is_null() {
                    assert!(src.values.iter().any(|s| s.same(v)));
                }
            }
        }
    }

    #[test]
    fn entity_labels_carry_over() {
        let ds = motivating_example();
        let (out, _) = exchange_small(&ds, 7);
        assert_eq!(out.truth.entity_count(), ds.truth.entity_count());
        for rid in 0..ds.len() as u32 {
            assert_eq!(
                out.truth.entity_of(hera_types::RecordId::new(rid)),
                ds.truth.entity_of(hera_types::RecordId::new(rid))
            );
        }
    }

    #[test]
    fn exchange_is_deterministic() {
        let ds = motivating_example();
        let (a, _) = exchange_small(&ds, 7);
        let (b, _) = exchange_small(&ds, 7);
        assert_eq!(a.records, b.records);
        let (c, _) = exchange_small(&ds, 8);
        // Different seed may sample different attrs (not guaranteed to
        // differ, but plans must still be internally consistent).
        assert_eq!(c.len(), ds.len());
    }

    #[test]
    fn tgd_shapes() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0, 1);
        assert_eq!(plan.tgds.len(), 3);
        for tgd in &plan.tgds {
            assert_eq!(tgd.mapping.len(), plan.target_attrs.len());
            // Customer schemas have 5/3/5 attrs — preserved counts match.
        }
        let preserved: Vec<usize> = plan.tgds.iter().map(|t| t.preserved()).collect();
        assert_eq!(preserved, vec![5, 3, 5]);
    }

    #[test]
    fn names_and_s_l_suffixes() {
        let ds = motivating_example();
        let (s, _) = exchange_small(&ds, 7);
        let (l, _) = exchange_large(&ds, 7);
        assert_eq!(s.name, "fig1-customers-S");
        assert_eq!(l.name, "fig1-customers-L");
        assert!(
            l.registry.schema(hera_types::SchemaId::new(0)).arity()
                >= s.registry.schema(hera_types::SchemaId::new(0)).arity()
        );
    }

    #[test]
    fn works_on_generated_data() {
        let ds = hera_datagen::table1_dataset("dm1");
        let (out, plan) = exchange_small(&ds, 99);
        assert_eq!(out.len(), 1000);
        assert_eq!(out.registry.len(), 1);
        assert!(plan.dropped_value_count > 0, "a -S exchange must lose data");
        // Target arity = round(16/3) = 5.
        assert_eq!(plan.target_attrs.len(), 5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        plan_exchange(&motivating_example(), 0.0, 1);
    }

    #[test]
    fn fuse_entities_consolidates() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0, 1);
        // Ground-truth labels: {0,1,3,5} → 0, {2,4} → 2.
        let labels = vec![0u32, 0, 2, 0, 2, 0];
        let fused = fuse_entities(&ds, &labels, &plan, "fused");
        assert_eq!(fused.len(), 2);
        // Each fused record has the target arity.
        for rec in fused.iter() {
            assert_eq!(rec.arity(), plan.target_attrs.len());
        }
        // The bigger entity's name candidates are John×2, Bush×2,
        // J.Bush×0 (r2's name "Bush") — the 2-2 tie breaks by length then
        // lexicographic order, deterministically selecting "Bush".
        let name_pos = plan
            .target_attrs
            .iter()
            .position(|&c| c == CanonAttrId::new(0))
            .unwrap();
        let names: Vec<String> = fused.iter().map(|r| r.values[name_pos].to_text()).collect();
        assert!(names.contains(&"Bush".to_string()), "{names:?}");
        assert!(names.contains(&"J.Bush".to_string()), "{names:?}");
        // Ground truth carried over: two distinct entities.
        assert_eq!(fused.truth.entity_count(), 2);
    }

    #[test]
    fn fuse_entities_prefers_majority_then_longest() {
        use hera_types::{DatasetBuilder, EntityId};
        let mut b = DatasetBuilder::new("t");
        let s = b.add_schema("S", [("x", CanonAttrId::new(0))]);
        for v in ["aa", "aa", "bbbb"] {
            b.add_record(s, vec![Value::from(v)], EntityId::new(0))
                .unwrap();
        }
        let ds = b.build();
        let plan = plan_exchange(&ds, 1.0, 1);
        let fused = fuse_entities(&ds, &[0, 0, 0], &plan, "f");
        assert_eq!(
            fused.record(hera_types::RecordId::new(0)).values[0],
            Value::from("aa")
        );
        // Tie case: one of each → longest wins.
        let mut b = DatasetBuilder::new("t2");
        let s = b.add_schema("S", [("x", CanonAttrId::new(0))]);
        for v in ["aa", "bbbb"] {
            b.add_record(s, vec![Value::from(v)], EntityId::new(0))
                .unwrap();
        }
        let ds = b.build();
        let plan = plan_exchange(&ds, 1.0, 1);
        let fused = fuse_entities(&ds, &[0, 0], &plan, "f2");
        assert_eq!(
            fused.record(hera_types::RecordId::new(0)).values[0],
            Value::from("bbbb")
        );
    }

    #[test]
    #[should_panic(expected = "one label per record")]
    fn fuse_rejects_wrong_label_count() {
        let ds = motivating_example();
        let plan = plan_exchange(&ds, 1.0, 1);
        fuse_entities(&ds, &[0], &plan, "bad");
    }
}
