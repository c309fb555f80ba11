//! The dataset generator.

use crate::attrs::{aliases_of, CanonAttr, CATALOG};
use crate::corrupt::CorruptionConfig;
use crate::pubs;
use hera_types::{CanonAttrId, Dataset, DatasetBuilder, EntityId, SchemaId, Value};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

/// Which synthetic domain to draw entities from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Domain {
    /// Movie profiles (the paper's D_movies substitute).
    #[default]
    Movies,
    /// Bibliographic records (DBLP/Cora-style).
    Publications,
}

impl Domain {
    /// The domain's canonical attribute catalog.
    pub(crate) fn catalog(self) -> &'static [CanonAttr] {
        match self {
            Domain::Movies => CATALOG,
            Domain::Publications => pubs::pub_catalog(),
        }
    }

    /// Display-name aliases for one canonical attribute.
    pub(crate) fn aliases_of(self, name: &str) -> &'static [&'static str] {
        match self {
            Domain::Movies => aliases_of(name),
            Domain::Publications => pubs::PUB_ALIASES
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, a)| *a)
                .unwrap_or_else(|| panic!("no aliases for {name}")),
        }
    }
}

/// Generator configuration. See [`crate::presets`] for the Table I
/// calibrations.
#[derive(Debug, Clone)]
pub struct DatagenConfig {
    /// Dataset name (`"D_m1"` …).
    pub name: String,
    /// RNG seed; equal seeds give byte-identical datasets.
    pub seed: u64,
    /// Number of records `n`.
    pub n_records: usize,
    /// Number of entities.
    pub n_entities: usize,
    /// Number of distinct canonical attributes (≤ 24).
    pub n_attrs: usize,
    /// Number of heterogeneous sources (schemas).
    pub n_sources: usize,
    /// Minimum attributes per source schema.
    pub min_source_attrs: usize,
    /// Maximum attributes per source schema.
    pub max_source_attrs: usize,
    /// Value corruption profile.
    pub corruption: CorruptionConfig,
    /// Synthetic domain (movies by default).
    pub domain: Domain,
}

impl DatagenConfig {
    fn validate(&self) {
        assert!(self.n_entities >= 1 && self.n_entities <= self.n_records);
        assert!(
            (4..=self.domain.catalog().len()).contains(&self.n_attrs),
            "n_attrs must be in [4, {}]",
            self.domain.catalog().len()
        );
        assert!(self.n_sources >= 2, "heterogeneity needs >= 2 sources");
        assert!(self.min_source_attrs >= 2 && self.min_source_attrs <= self.max_source_attrs);
    }
}

/// One source schema: which catalog attributes it exposes, under which
/// display names.
struct Source {
    schema: SchemaId,
    /// Positions into the dataset's attribute list, in schema order.
    attr_positions: Vec<usize>,
}

/// Deterministic heterogeneous dataset generator.
pub struct Generator {
    cfg: DatagenConfig,
}

impl Generator {
    /// Creates a generator.
    pub fn new(cfg: DatagenConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.cfg;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut builder = DatasetBuilder::new(cfg.name.clone());

        // ---- 1. Select the dataset's canonical attributes: the core
        // (title, year, director) plus a random sample of the catalog.
        let catalog = cfg.domain.catalog();
        let mut attr_idx: Vec<usize> = vec![0, 1, 2];
        let mut rest: Vec<usize> = (3..catalog.len()).collect();
        rest.shuffle(&mut rng);
        attr_idx.extend(rest.into_iter().take(cfg.n_attrs - 3));
        let ds_attrs: Vec<CanonAttr> = attr_idx.iter().map(|&i| catalog[i]).collect();

        // ---- 2. Build sources. Round-robin distribution guarantees the
        // union of source schemas covers every dataset attribute (so the
        // "distinct attribute" count of Table I is exactly n_attrs); each
        // source then grows to its target size with random extras. The
        // core trio title/year/director is in every source — mirroring
        // real movie profiles (IMDB and DBPedia both carry them), and
        // giving cross-source record pairs the anchor overlap the paper's
        // bootstrap implicitly relies on.
        let mut per_source: Vec<Vec<usize>> = vec![vec![0, 1, 2]; cfg.n_sources];
        let mut shuffled: Vec<usize> = (3..ds_attrs.len()).collect();
        shuffled.shuffle(&mut rng);
        for (i, &pos) in shuffled.iter().enumerate() {
            per_source[i % cfg.n_sources].push(pos);
        }
        for attrs in per_source.iter_mut() {
            let target = rng
                .gen_range(cfg.min_source_attrs..=cfg.max_source_attrs)
                .min(ds_attrs.len());
            while attrs.len() < target {
                let extra = rng.gen_range(0..ds_attrs.len());
                if !attrs.contains(&extra) {
                    attrs.push(extra);
                }
            }
            // Schema order: shuffled so field positions differ per source.
            attrs.shuffle(&mut rng);
        }

        let sources: Vec<Source> = per_source
            .iter()
            .enumerate()
            .map(|(s, positions)| {
                let schema_attrs: Vec<(String, CanonAttrId)> = positions
                    .iter()
                    .map(|&pos| {
                        let canon = &ds_attrs[pos];
                        let alias_list = cfg.domain.aliases_of(canon.name);
                        let alias = alias_list[rng.gen_range(0..alias_list.len())];
                        (alias.to_owned(), CanonAttrId::from(attr_idx[pos]))
                    })
                    .collect();
                let schema = builder.add_schema(format!("source_{s}"), schema_attrs);
                Source {
                    schema,
                    attr_positions: positions.clone(),
                }
            })
            .collect();

        // ---- 3. Canonical entity profiles. ~10% of entities are
        // "sequels": they copy an earlier entity's title plus a suffix and
        // share its director — the confusable-but-distinct structure
        // behind the paper's false-positive example (r7 vs r8).
        const SEQUEL_SUFFIXES: [&str; 5] = [" 2", " II", ": Part Two", " Returns", " Rises"];
        let mut entities: Vec<FxHashMap<usize, Value>> = Vec::with_capacity(cfg.n_entities);
        for e in 0..cfg.n_entities {
            let mut profile: FxHashMap<usize, Value> = ds_attrs
                .iter()
                .enumerate()
                .map(|(pos, a)| (pos, a.generate(&mut rng)))
                .collect();
            if e > 0 && rng.gen_bool(0.10) {
                let parent = rng.gen_range(0..e);
                let parent_title = entities[parent][&0].to_text();
                let suffix = SEQUEL_SUFFIXES[rng.gen_range(0..SEQUEL_SUFFIXES.len())];
                profile.insert(0, Value::from(format!("{parent_title}{suffix}")));
                // Sequels keep the director (position 2 is always in the
                // dataset attribute list).
                profile.insert(2, entities[parent][&2].clone());
            }
            entities.push(profile);
        }

        // ---- 4. Record plan: every entity appears at least once; the
        // remaining records go to random entities. Shuffled so records of
        // one entity are scattered through the id space.
        let mut plan: Vec<usize> = (0..cfg.n_entities).collect();
        for _ in cfg.n_entities..cfg.n_records {
            plan.push(rng.gen_range(0..cfg.n_entities));
        }
        plan.shuffle(&mut rng);

        // ---- 5. Render records through sources with corruption.
        for &entity in &plan {
            let source = &sources[rng.gen_range(0..sources.len())];
            let profile = &entities[entity];
            let values: Vec<Value> = source
                .attr_positions
                .iter()
                .map(|&pos| {
                    // Wrong-value channel: sometimes a source simply has
                    // bad data — a fresh value of the right kind that
                    // belongs to no entity in particular.
                    let raw = if rng.gen_bool(cfg.corruption.wrong_value) {
                        ds_attrs[pos].generate(&mut rng)
                    } else {
                        profile[&pos].clone()
                    };
                    cfg.corruption.apply(&raw, &mut rng)
                })
                .collect();
            builder
                .add_record(source.schema, values, EntityId::from(entity))
                .expect("generator emits schema-aligned records");
        }

        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn small() -> DatagenConfig {
        DatagenConfig {
            name: "test".into(),
            seed: 1,
            n_records: 120,
            n_entities: 20,
            n_attrs: 10,
            n_sources: 4,
            min_source_attrs: 4,
            max_source_attrs: 7,
            corruption: CorruptionConfig::moderate(),
            domain: Default::default(),
        }
    }

    #[test]
    fn shape_matches_config() {
        let ds = Generator::new(small()).generate();
        assert_eq!(ds.len(), 120);
        assert_eq!(ds.truth.entity_count(), 20);
        assert_eq!(ds.truth.distinct_attr_count(), 10);
        assert_eq!(ds.registry.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Generator::new(small()).generate();
        let b = Generator::new(small()).generate();
        assert_eq!(a.records, b.records);
        let mut cfg = small();
        cfg.seed = 2;
        let c = Generator::new(cfg).generate();
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn every_source_contributes() {
        let ds = Generator::new(small()).generate();
        let mut seen = vec![false; ds.registry.len()];
        for r in ds.iter() {
            seen[r.schema.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "a source emitted no records");
    }

    #[test]
    fn schemas_are_heterogeneous() {
        let ds = Generator::new(small()).generate();
        // At least two schemas must differ in arity or attribute canon.
        let arities: Vec<usize> = ds.registry.schemas().map(|s| s.arity()).collect();
        let canon_sets: Vec<Vec<u32>> = ds
            .registry
            .schemas()
            .map(|s| {
                let mut cs: Vec<u32> = s
                    .attrs
                    .iter()
                    .map(|a| ds.truth.canon_of(a.id).raw())
                    .collect();
                cs.sort_unstable();
                cs
            })
            .collect();
        let all_same = canon_sets.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same || arities.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn title_is_in_every_schema() {
        let ds = Generator::new(small()).generate();
        for s in ds.registry.schemas() {
            let has_title = s
                .attrs
                .iter()
                .any(|a| ds.truth.canon_of(a.id) == CanonAttrId::new(0));
            assert!(has_title, "schema {} lacks title", s.name);
        }
    }

    #[test]
    fn entities_have_multiple_records_on_average() {
        let ds = Generator::new(small()).generate();
        let clusters = ds.truth.clusters();
        let multi = clusters.iter().filter(|c| c.len() >= 2).count();
        assert!(multi * 2 >= clusters.len(), "too many singleton entities");
    }

    #[test]
    fn table1_presets_match_paper_shape() {
        for (name, n, entities, attrs) in [
            ("dm1", 1000usize, 121usize, 16usize),
            ("dm2", 2000, 277, 22),
            ("dm3", 3000, 361, 23),
            ("dm4", 4000, 533, 21),
        ] {
            let cfg = match name {
                "dm1" => presets::dm1(),
                "dm2" => presets::dm2(),
                "dm3" => presets::dm3(),
                _ => presets::dm4(),
            };
            let ds = Generator::new(cfg).generate();
            assert_eq!(ds.len(), n, "{name} n");
            assert_eq!(ds.truth.entity_count(), entities, "{name} entities");
            assert_eq!(ds.truth.distinct_attr_count(), attrs, "{name} attrs");
        }
    }

    #[test]
    #[should_panic(expected = "n_attrs")]
    fn too_many_attrs_rejected() {
        let mut cfg = small();
        cfg.n_attrs = 99;
        Generator::new(cfg);
    }
}
