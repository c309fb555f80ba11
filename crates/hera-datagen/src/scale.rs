//! Large-dataset generation: 10⁵–10⁶ heterogeneous records with bounded
//! peak RSS.
//!
//! The Table I generator ([`crate::Generator`]) materializes a canonical
//! profile table — one `FxHashMap` per entity — before rendering records,
//! which is fine at n = 4000 and hopeless at n = 10⁶. This module
//! replaces the table with **derive-on-demand profiles**: every entity's
//! profile is a pure function of `(seed, entity)` (a splitmix-derived
//! ChaCha8 stream), recomputed in O(#attrs) whenever a record needs it.
//! [`ScaleGenerator::stream`] therefore yields records one at a time with
//! O(#sources · #attrs) resident state, independent of `n_records`.
//!
//! Two other departures from the toy generator keep *resolution* of the
//! output tractable at scale:
//!
//! * the attribute catalog (`scale_catalog`) uses only high-cardinality
//!   generators (`PersonFull`, `TitleLong`, `PickRange`, wide numeric
//!   ranges) — a low-cardinality categorical like `studio`
//!   (20 values) would put ~n/20 records in one same-value group and the
//!   value-pair index's within-group expansion is quadratic in group
//!   size;
//! * duplicate structure is controlled directly by
//!   [`ScaleConfig::duplicate_ratio`] instead of an entity count, which
//!   is the knob the scale experiments sweep.

use crate::attrs::{aliases_of, AttrKind, CanonAttr};
use crate::corrupt::CorruptionConfig;
use crate::vocab;
use hera_types::{CanonAttrId, Dataset, DatasetBuilder, EntityId, SchemaId, Value};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The scale domain's catalog: movie attributes restricted to
/// high-cardinality generators (see the module docs for why). The first
/// three entries — title, imdb_id, director — are the anchor trio present
/// in every source schema.
pub(crate) fn scale_catalog() -> &'static [CanonAttr] {
    const SCALE_CATALOG: &[CanonAttr] = &[
        CanonAttr {
            name: "title",
            kind: AttrKind::TitleLong,
        },
        CanonAttr {
            name: "imdb_id",
            kind: AttrKind::ExternalId,
        },
        CanonAttr {
            name: "director",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "actor1",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "actor2",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "producer",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "release_date",
            kind: AttrKind::Date,
        },
        CanonAttr {
            name: "budget",
            kind: AttrKind::IntRange(100_000, 300_000_000),
        },
        CanonAttr {
            name: "gross",
            kind: AttrKind::IntRange(10_000, 2_000_000_000),
        },
        CanonAttr {
            name: "votes",
            kind: AttrKind::IntRange(100, 2_000_000),
        },
        CanonAttr {
            name: "keyword",
            kind: AttrKind::PickRange(vocab::KEYWORDS, 3, 4),
        },
        CanonAttr {
            name: "genre",
            kind: AttrKind::PickRange(vocab::GENRES, 3, 4),
        },
        CanonAttr {
            name: "writer",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "composer",
            kind: AttrKind::PersonFull,
        },
        CanonAttr {
            name: "tagline",
            kind: AttrKind::TitleLong,
        },
        CanonAttr {
            name: "language",
            kind: AttrKind::PickRange(vocab::LANGUAGES, 3, 4),
        },
    ];
    SCALE_CATALOG
}

/// Configuration for the streaming scale generator.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Dataset name.
    pub name: String,
    /// RNG seed; equal seeds give byte-identical datasets.
    pub seed: u64,
    /// Number of records `n`.
    pub n_records: usize,
    /// Fraction of records that re-describe an already-introduced entity
    /// (in `[0, 1)`). The entity count is exactly
    /// `n − round(duplicate_ratio · n)` (min 1), so the realized ratio is
    /// within `1/n` of the request.
    pub duplicate_ratio: f64,
    /// Cluster-size skew of the duplicate stream, ≥ 1. At 1 a duplicate
    /// re-describes a uniformly random earlier entity, so cluster sizes
    /// concentrate near the mean. Above 1, duplicates prefer low-index
    /// entities via inverse-power sampling (`entity = ⌊n_e · u^skew⌋`),
    /// giving the heavy-tailed cluster sizes of real ER workloads — a
    /// few hub entities described by many sources plus a long tail of
    /// near-singletons. Most ground-truth record pairs then sit inside
    /// the hub clusters, which is the regime where anytime resolution
    /// pays off (see `quarter_budget_reaches_most_of_full_f1` in
    /// `tests/progressive.rs`).
    pub duplicate_skew: f64,
    /// Number of canonical attributes (4 ..= `scale_catalog` length).
    pub n_attrs: usize,
    /// Number of heterogeneous sources (schemas), ≥ 2.
    pub n_sources: usize,
    /// Value corruption profile.
    pub corruption: CorruptionConfig,
}

impl ScaleConfig {
    /// Checks the configuration's invariants, returning the first
    /// violation as a message naming the offending field. Callers with
    /// user-supplied input (the CLI's `generate --size`) surface the
    /// message; [`ScaleGenerator::new`] panics on it (programmer error).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.n_records < 1 {
            return Err("n_records must be >= 1".into());
        }
        if !(0.0..1.0).contains(&self.duplicate_ratio) {
            return Err(format!(
                "duplicate_ratio must be in [0, 1), got {}",
                self.duplicate_ratio
            ));
        }
        if self.duplicate_skew < 1.0 || self.duplicate_skew.is_nan() {
            return Err(format!(
                "duplicate_skew must be >= 1, got {}",
                self.duplicate_skew
            ));
        }
        if !(4..=scale_catalog().len()).contains(&self.n_attrs) {
            return Err(format!(
                "n_attrs must be in [4, {}], got {}",
                scale_catalog().len(),
                self.n_attrs
            ));
        }
        if self.n_sources < 2 {
            return Err(format!(
                "heterogeneity needs >= 2 sources, got {}",
                self.n_sources
            ));
        }
        Ok(())
    }

    /// The entity count implied by `n_records` and `duplicate_ratio`.
    pub fn n_entities(&self) -> usize {
        let dups = (self.duplicate_ratio * self.n_records as f64).round() as usize;
        self.n_records.saturating_sub(dups).max(1)
    }
}

/// A scale preset: `duplicate_ratio` 0.3, 12 attributes, 6 sources,
/// moderate corruption. `n_records` and `seed` select the tier.
pub fn scale_preset(n_records: usize, seed: u64) -> ScaleConfig {
    ScaleConfig {
        name: format!("scale_{n_records}"),
        seed,
        n_records,
        duplicate_ratio: 0.3,
        duplicate_skew: 1.0,
        n_attrs: 12,
        n_sources: 6,
        corruption: CorruptionConfig::moderate(),
    }
}

/// One streamed record: which source renders it, its schema-aligned
/// values, and its ground-truth entity.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpec {
    /// Index of the rendering source (< `n_sources`).
    pub source: usize,
    /// Values aligned to the source schema's field order.
    pub values: Vec<Value>,
    /// Ground-truth entity id.
    pub entity: usize,
}

/// One source schema of the scale dataset.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Schema name (`"source_0"` …).
    pub name: String,
    /// Field display names with their canonical attribute ids, in schema
    /// order. Canonical ids index into `scale_catalog`.
    pub fields: Vec<(String, CanonAttrId)>,
    /// For each field, the position of its attribute in the generator's
    /// selected attribute list.
    attr_positions: Vec<usize>,
}

// Domain-separation tags for the per-purpose RNG streams.
const TAG_SETUP: u64 = 1;
const TAG_ENTITY: u64 = 2;
const TAG_RECORD: u64 = 3;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent ChaCha8 seed for stream `(tag, i)` of `seed`.
fn derive_seed(seed: u64, tag: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
}

/// The streaming scale generator. Construction derives the source
/// schemas (cheap, O(sources · attrs)); records are produced on demand.
pub struct ScaleGenerator {
    cfg: ScaleConfig,
    ds_attrs: Vec<CanonAttr>,
    sources: Vec<SourceSpec>,
    n_entities: usize,
}

impl ScaleGenerator {
    /// Creates the generator and derives its source schemas.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ScaleConfig::validate`]; validate first
    /// when the configuration comes from user input.
    pub fn new(cfg: ScaleConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid ScaleConfig: {e}"));
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, TAG_SETUP, 0));
        let catalog = scale_catalog();

        // Selected attributes: the anchor trio plus a random sample.
        let mut attr_idx: Vec<usize> = vec![0, 1, 2];
        let mut rest: Vec<usize> = (3..catalog.len()).collect();
        rest.shuffle(&mut rng);
        attr_idx.extend(rest.into_iter().take(cfg.n_attrs - 3));
        let ds_attrs: Vec<CanonAttr> = attr_idx.iter().map(|&i| catalog[i]).collect();

        // Sources: every source carries the anchor trio; round-robin
        // distribution covers every selected attribute; random extras
        // grow each source to a target arity, then the field order is
        // shuffled so positions differ per source.
        let min_arity = (cfg.n_attrs * 3 / 5).max(4).min(cfg.n_attrs);
        let max_arity = (cfg.n_attrs * 9 / 10).max(min_arity);
        let mut per_source: Vec<Vec<usize>> = vec![vec![0, 1, 2]; cfg.n_sources];
        let mut shuffled: Vec<usize> = (3..ds_attrs.len()).collect();
        shuffled.shuffle(&mut rng);
        for (i, &pos) in shuffled.iter().enumerate() {
            let slot = &mut per_source[i % cfg.n_sources];
            if !slot.contains(&pos) {
                slot.push(pos);
            }
        }
        for attrs in per_source.iter_mut() {
            let target = rng.gen_range(min_arity..=max_arity).min(ds_attrs.len());
            while attrs.len() < target {
                let extra = rng.gen_range(0..ds_attrs.len());
                if !attrs.contains(&extra) {
                    attrs.push(extra);
                }
            }
            attrs.shuffle(&mut rng);
        }

        let sources: Vec<SourceSpec> = per_source
            .into_iter()
            .enumerate()
            .map(|(s, positions)| {
                let fields: Vec<(String, CanonAttrId)> = positions
                    .iter()
                    .map(|&pos| {
                        let canon = &ds_attrs[pos];
                        let alias_list = aliases_of(canon.name);
                        let alias = alias_list[rng.gen_range(0..alias_list.len())];
                        (alias.to_owned(), CanonAttrId::from(attr_idx[pos]))
                    })
                    .collect();
                SourceSpec {
                    name: format!("source_{s}"),
                    fields,
                    attr_positions: positions,
                }
            })
            .collect();

        let n_entities = cfg.n_entities();
        Self {
            cfg,
            ds_attrs,
            sources,
            n_entities,
        }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    /// Number of distinct entities the record stream describes.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// The derived source schemas.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Canonical profile of one entity, derived on demand: a pure
    /// function of `(seed, entity)`, one value per selected attribute.
    pub fn profile(&self, entity: usize) -> Vec<Value> {
        let mut rng =
            ChaCha8Rng::seed_from_u64(derive_seed(self.cfg.seed, TAG_ENTITY, entity as u64));
        self.ds_attrs.iter().map(|a| a.generate(&mut rng)).collect()
    }

    /// Picks the entity a duplicate record re-describes, honoring
    /// [`ScaleConfig::duplicate_skew`]. The uniform case keeps drawing
    /// through `gen_range` so existing seeds' streams stay
    /// byte-identical.
    fn dup_entity(&self, rng: &mut ChaCha8Rng) -> usize {
        if self.cfg.duplicate_skew == 1.0 {
            rng.gen_range(0..self.n_entities)
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            ((self.n_entities as f64 * u.powf(self.cfg.duplicate_skew)) as usize)
                .min(self.n_entities - 1)
        }
    }

    /// Derives record `i` (0-based). Records `0..n_entities` introduce
    /// their entity (so every entity appears at least once); later
    /// records re-describe an earlier entity drawn by `dup_entity`.
    pub fn record(&self, i: usize) -> RecordSpec {
        let cfg = &self.cfg;
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, TAG_RECORD, i as u64));
        let entity = if i < self.n_entities {
            i
        } else {
            self.dup_entity(&mut rng)
        };
        let source_id = rng.gen_range(0..self.sources.len());
        let profile = self.profile(entity);
        let values = self.render(source_id, &profile, &mut rng);
        RecordSpec {
            source: source_id,
            values,
            entity,
        }
    }

    /// Renders one record's values through a source with corruption; the
    /// record's own RNG drives every noise decision.
    fn render(&self, source_id: usize, profile: &[Value], rng: &mut ChaCha8Rng) -> Vec<Value> {
        let cfg = &self.cfg;
        self.sources[source_id]
            .attr_positions
            .iter()
            .map(|&pos| {
                // Wrong-value channel: sometimes a source simply has bad
                // data — a fresh value of the right kind that belongs to
                // no entity in particular.
                let raw = if rng.gen_bool(cfg.corruption.wrong_value) {
                    self.ds_attrs[pos].generate(rng)
                } else {
                    profile[pos].clone()
                };
                cfg.corruption.apply(&raw, rng)
            })
            .collect()
    }

    /// Streams all records in id order. Resident state is O(sources ·
    /// attrs) — nothing about the stream grows with `n_records`, which is
    /// what keeps peak RSS bounded for 10⁶-record generation.
    pub fn stream(&self) -> impl Iterator<Item = RecordSpec> + '_ {
        (0..self.cfg.n_records).map(|i| self.record(i))
    }

    /// Registers this generator's schemas on a dataset builder, returning
    /// the schema id for each source.
    pub(crate) fn register_schemas(&self, builder: &mut DatasetBuilder) -> Vec<SchemaId> {
        self.sources
            .iter()
            .map(|s| builder.add_schema(s.name.clone(), s.fields.clone()))
            .collect()
    }

    /// Generates the full materialized [`Dataset`] by driving
    /// [`Self::stream`] through a [`DatasetBuilder`].
    pub fn generate(&self) -> Dataset {
        let mut builder = DatasetBuilder::new(self.cfg.name.clone());
        let schemas = self.register_schemas(&mut builder);
        for spec in self.stream() {
            builder
                .add_record(
                    schemas[spec.source],
                    spec.values,
                    EntityId::from(spec.entity),
                )
                .expect("scale generator emits schema-aligned records");
        }
        builder.build()
    }

    /// Reference implementation of [`Self::generate`] that materializes
    /// the whole entity-profile table up front (the toy generator's
    /// strategy). Exists to pin the derive-on-demand contract: both paths
    /// must produce identical datasets. O(n_entities · n_attrs) memory —
    /// do not use at the 10⁶ tier.
    #[cfg(test)]
    fn generate_materialized(&self) -> Dataset {
        let profiles: Vec<Vec<Value>> = (0..self.n_entities).map(|e| self.profile(e)).collect();
        let mut builder = DatasetBuilder::new(self.cfg.name.clone());
        let schemas = self.register_schemas(&mut builder);
        for i in 0..self.cfg.n_records {
            let mut rng =
                ChaCha8Rng::seed_from_u64(derive_seed(self.cfg.seed, TAG_RECORD, i as u64));
            let entity = if i < self.n_entities {
                i
            } else {
                self.dup_entity(&mut rng)
            };
            let source_id = rng.gen_range(0..self.sources.len());
            let values = self.render(source_id, &profiles[entity], &mut rng);
            builder
                .add_record(schemas[source_id], values, EntityId::from(entity))
                .expect("scale generator emits schema-aligned records");
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small(seed: u64, n: usize, dup: f64) -> ScaleConfig {
        ScaleConfig {
            name: "scale_test".into(),
            seed,
            n_records: n,
            duplicate_ratio: dup,
            duplicate_skew: 1.0,
            n_attrs: 10,
            n_sources: 4,
            corruption: CorruptionConfig::moderate(),
        }
    }

    #[test]
    fn shape_matches_config() {
        let g = ScaleGenerator::new(small(9, 300, 0.3));
        let ds = g.generate();
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.truth.entity_count(), 300 - 90);
        assert_eq!(ds.truth.distinct_attr_count(), 10);
        assert_eq!(ds.registry.len(), 4);
    }

    #[test]
    fn every_entity_appears_at_least_once() {
        let g = ScaleGenerator::new(small(10, 200, 0.4));
        let clusters = g.generate().truth.clusters();
        assert_eq!(clusters.len(), g.n_entities());
        assert!(clusters.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn duplicate_skew_concentrates_clusters() {
        let uniform = ScaleGenerator::new(small(12, 2_000, 0.4));
        let mut skewed_cfg = small(12, 2_000, 0.4);
        skewed_cfg.duplicate_skew = 4.0;
        let skewed = ScaleGenerator::new(skewed_cfg);
        let max_cluster = |g: &ScaleGenerator| {
            g.generate()
                .truth
                .clusters()
                .iter()
                .map(|c| c.len())
                .max()
                .unwrap()
        };
        let (u, s) = (max_cluster(&uniform), max_cluster(&skewed));
        // Same entity count either way; skew only reshapes cluster sizes.
        assert_eq!(uniform.n_entities(), skewed.n_entities());
        assert!(
            s >= 4 * u,
            "skew 4 should grow the largest cluster well past uniform's ({u} -> {s})"
        );
    }

    #[test]
    fn duplicate_skew_below_one_is_rejected() {
        let mut cfg = small(13, 100, 0.3);
        cfg.duplicate_skew = 0.5;
        assert!(cfg.validate().unwrap_err().contains("duplicate_skew"));
    }

    #[test]
    fn anchor_trio_is_in_every_schema() {
        let g = ScaleGenerator::new(small(11, 50, 0.2));
        for s in g.sources() {
            for anchor in [0u32, 1, 2] {
                assert!(
                    s.fields.iter().any(|(_, c)| c.raw() == anchor),
                    "{} lacks anchor attr {anchor}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn stream_matches_indexed_access() {
        let g = ScaleGenerator::new(small(12, 80, 0.3));
        let streamed: Vec<RecordSpec> = g.stream().collect();
        assert_eq!(streamed.len(), 80);
        for (i, spec) in streamed.iter().enumerate() {
            assert_eq!(spec, &g.record(i), "record {i}");
        }
    }

    #[test]
    fn presets_have_documented_shape() {
        for n in [10_000, 100_000, 1_000_000] {
            let cfg = scale_preset(n, 51);
            assert_eq!(cfg.n_records, n);
            assert_eq!(cfg.n_attrs, 12);
            assert_eq!(cfg.n_sources, 6);
            // 30% duplicates ⇒ 70% entities.
            assert_eq!(cfg.n_entities(), n * 7 / 10);
        }
    }

    #[test]
    fn preset_generator_is_cheap_to_construct() {
        // Construction must not scale with n_records (streaming claim).
        let g = ScaleGenerator::new(scale_preset(1_000_000, 53));
        assert_eq!(g.n_entities(), 700_000);
        assert_eq!(g.sources().len(), 6);
        // Deriving a single record does not require the other 10⁶ − 1.
        let r = g.record(999_999);
        assert!(!r.values.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Generation is a pure function of the seed.
        #[test]
        fn deterministic_per_seed(seed in any::<u64>()) {
            let a = ScaleGenerator::new(small(seed, 60, 0.3)).generate();
            let b = ScaleGenerator::new(small(seed, 60, 0.3)).generate();
            prop_assert_eq!(&a.records, &b.records);
            let c = ScaleGenerator::new(small(seed ^ 1, 60, 0.3)).generate();
            prop_assert_ne!(&a.records, &c.records);
        }

        /// The realized duplicate ratio is within 1/n of the request.
        #[test]
        fn duplicate_ratio_within_tolerance(
            seed in any::<u64>(),
            dup in 0.0f64..0.9,
            n in 20usize..200,
        ) {
            let g = ScaleGenerator::new(small(seed, n, dup));
            let ds = g.generate();
            let realized = 1.0 - ds.truth.entity_count() as f64 / n as f64;
            prop_assert!(
                (realized - dup).abs() <= 1.0 / n as f64 + 1e-9,
                "requested {dup}, realized {realized} at n={n}"
            );
        }

        /// Streaming (derive-on-demand) and materialized (profile-table)
        /// generation produce identical datasets.
        #[test]
        fn streaming_equals_materialized(seed in any::<u64>()) {
            let g = ScaleGenerator::new(small(seed, 90, 0.35));
            let streamed = g.generate();
            let materialized = g.generate_materialized();
            prop_assert_eq!(&streamed.records, &materialized.records);
            prop_assert_eq!(
                streamed.truth.entity_count(),
                materialized.truth.entity_count()
            );
        }
    }
}
