//! The canonical attribute catalog and per-attribute value generation.

use crate::vocab;
use hera_types::Value;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// How an attribute's canonical values are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AttrKind {
    /// Multi-word title from [`vocab::TITLE_WORDS`].
    Title,
    /// `First Last` person name.
    Person,
    /// Pick from a fixed vocabulary.
    Pick(&'static [&'static str]),
    /// Pick 1..=k distinct entries and join with `", "` — models
    /// list-valued attributes (genres, spoken languages) and keeps value
    /// cardinality high enough that the value-pair index does not blow up
    /// quadratically on categorical cliques.
    PickMulti(&'static [&'static str], usize),
    /// Date string `"12 March 1994"`.
    Date,
    /// Page range `"123-145"`.
    PageRange,
    /// Integer in an inclusive range.
    IntRange(i64, i64),
    /// Float in a range with one decimal.
    FloatRange(f64, f64),
    /// Synthetic identifier `ttNNNNNNN`.
    ExternalId,
    /// `First M. Last` person name with a middle initial — ~97k distinct
    /// combinations versus ~3.7k for [`AttrKind::Person`], so value
    /// multiplicity stays O(1) at 10⁵⁺ records and the value-pair index
    /// does not blow up on name cliques.
    PersonFull,
    /// 3–5-word title from [`vocab::TITLE_WORDS`] — the scale variant of
    /// [`AttrKind::Title`], which allows 1-word titles whose huge
    /// same-value groups are quadratic poison at 10⁵⁺ records.
    TitleLong,
    /// Pick `lo..=hi` distinct entries and join with `", "` — like
    /// [`AttrKind::PickMulti`] but with a floor above 1, keeping
    /// list-valued categorical attributes high-cardinality.
    PickRange(&'static [&'static str], usize, usize),
}

/// One canonical (semantic) attribute of the movie domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CanonAttr {
    /// Canonical name — keys into [`vocab::ALIASES`].
    pub name: &'static str,
    /// Value generator.
    pub kind: AttrKind,
}

/// The full catalog: 24 canonical attributes. Table I datasets use
/// 16–23 of them.
pub(crate) const CATALOG: &[CanonAttr] = &[
    CanonAttr {
        name: "title",
        kind: AttrKind::Title,
    },
    CanonAttr {
        name: "year",
        kind: AttrKind::IntRange(1950, 2020),
    },
    CanonAttr {
        name: "director",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "actor1",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "actor2",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "genre",
        kind: AttrKind::PickMulti(vocab::GENRES, 3),
    },
    CanonAttr {
        name: "runtime",
        kind: AttrKind::IntRange(70, 210),
    },
    CanonAttr {
        name: "language",
        kind: AttrKind::PickMulti(vocab::LANGUAGES, 2),
    },
    CanonAttr {
        name: "country",
        kind: AttrKind::PickMulti(vocab::COUNTRIES, 2),
    },
    CanonAttr {
        name: "rating",
        kind: AttrKind::FloatRange(1.0, 10.0),
    },
    CanonAttr {
        name: "writer",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "studio",
        kind: AttrKind::Pick(vocab::STUDIOS),
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
        kind: AttrKind::PickMulti(vocab::KEYWORDS, 3),
    },
    CanonAttr {
        name: "release_date",
        kind: AttrKind::Date,
    },
    CanonAttr {
        name: "composer",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "editor",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "cinematographer",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "producer",
        kind: AttrKind::Person,
    },
    CanonAttr {
        name: "distributor",
        kind: AttrKind::Pick(vocab::STUDIOS),
    },
    CanonAttr {
        name: "tagline",
        kind: AttrKind::Title,
    },
    CanonAttr {
        name: "imdb_id",
        kind: AttrKind::ExternalId,
    },
];

/// Aliases for a canonical attribute name.
pub(crate) fn aliases_of(canon_name: &str) -> &'static [&'static str] {
    vocab::ALIASES
        .iter()
        .find(|(n, _)| *n == canon_name)
        .map(|(_, a)| *a)
        .unwrap_or_else(|| panic!("no aliases for {canon_name}"))
}

impl CanonAttr {
    /// Generates one canonical value.
    pub fn generate(&self, rng: &mut ChaCha8Rng) -> Value {
        match self.kind {
            AttrKind::Title => {
                let n = rng.gen_range(1..=3);
                let words: Vec<&str> = (0..n)
                    .map(|_| vocab::TITLE_WORDS[rng.gen_range(0..vocab::TITLE_WORDS.len())])
                    .collect();
                let mut s = words.join(" ");
                if rng.gen_bool(0.3) {
                    s = format!("The {s}");
                }
                Value::from(s)
            }
            AttrKind::Person => {
                let f = vocab::FIRST_NAMES[rng.gen_range(0..vocab::FIRST_NAMES.len())];
                let l = vocab::LAST_NAMES[rng.gen_range(0..vocab::LAST_NAMES.len())];
                Value::from(format!("{f} {l}"))
            }
            AttrKind::Pick(list) => Value::from(list[rng.gen_range(0..list.len())]),
            AttrKind::PickMulti(list, max_k) => {
                let k = rng.gen_range(1..=max_k.min(list.len()));
                let mut picks: Vec<&str> = Vec::with_capacity(k);
                while picks.len() < k {
                    let cand = list[rng.gen_range(0..list.len())];
                    if !picks.contains(&cand) {
                        picks.push(cand);
                    }
                }
                Value::from(picks.join(", "))
            }
            AttrKind::Date => {
                const MONTHS: [&str; 12] = [
                    "January",
                    "February",
                    "March",
                    "April",
                    "May",
                    "June",
                    "July",
                    "August",
                    "September",
                    "October",
                    "November",
                    "December",
                ];
                Value::from(format!(
                    "{} {} {}",
                    rng.gen_range(1..=28),
                    MONTHS[rng.gen_range(0..12)],
                    rng.gen_range(1950..=2020)
                ))
            }
            AttrKind::IntRange(lo, hi) => Value::from(rng.gen_range(lo..=hi)),
            AttrKind::FloatRange(lo, hi) => {
                let x = rng.gen_range(lo..hi);
                Value::from((x * 10.0).round() / 10.0)
            }
            AttrKind::ExternalId => Value::from(format!("tt{:07}", rng.gen_range(0..10_000_000))),
            AttrKind::PersonFull => {
                let f = vocab::FIRST_NAMES[rng.gen_range(0..vocab::FIRST_NAMES.len())];
                let m = (b'A' + rng.gen_range(0..26u8)) as char;
                let l = vocab::LAST_NAMES[rng.gen_range(0..vocab::LAST_NAMES.len())];
                Value::from(format!("{f} {m}. {l}"))
            }
            AttrKind::TitleLong => {
                let n = rng.gen_range(3..=5);
                let words: Vec<&str> = (0..n)
                    .map(|_| vocab::TITLE_WORDS[rng.gen_range(0..vocab::TITLE_WORDS.len())])
                    .collect();
                let mut s = words.join(" ");
                if rng.gen_bool(0.2) {
                    s = format!("The {s}");
                }
                Value::from(s)
            }
            AttrKind::PickRange(list, lo, hi) => {
                let k = rng.gen_range(lo.min(list.len())..=hi.min(list.len()));
                let mut picks: Vec<&str> = Vec::with_capacity(k);
                while picks.len() < k {
                    let cand = list[rng.gen_range(0..list.len())];
                    if !picks.contains(&cand) {
                        picks.push(cand);
                    }
                }
                Value::from(picks.join(", "))
            }
            AttrKind::PageRange => {
                let start = rng.gen_range(1..1400);
                let len = rng.gen_range(4..30);
                Value::from(format!("{start}-{}", start + len))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn catalog_has_24_unique_names() {
        assert_eq!(CATALOG.len(), 24);
        let mut names: Vec<&str> = CATALOG.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn every_catalog_attr_has_aliases() {
        for a in CATALOG {
            assert!(!aliases_of(a.name).is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        for a in CATALOG {
            assert_eq!(a.generate(&mut r1), a.generate(&mut r2));
        }
    }

    #[test]
    fn kinds_produce_expected_value_types() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            match CATALOG[1].generate(&mut rng) {
                // year
                Value::Int(y) => assert!((1950..=2020).contains(&y)),
                other => panic!("year produced {other:?}"),
            }
            match CATALOG[9].generate(&mut rng) {
                // rating
                Value::Float(r) => assert!((1.0..=10.0).contains(&r)),
                other => panic!("rating produced {other:?}"),
            }
            assert!(matches!(CATALOG[0].generate(&mut rng), Value::Str(_)));
        }
    }

    #[test]
    fn external_ids_look_like_imdb() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = CATALOG[23].generate(&mut rng);
        let s = v.as_str().unwrap();
        assert!(s.starts_with("tt"));
        assert_eq!(s.len(), 9);
    }
}
