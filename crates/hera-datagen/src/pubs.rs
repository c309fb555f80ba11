//! A second synthetic domain: bibliographic records (the DBLP/Cora
//! setting classic ER evaluations use). Exercises the same machinery as
//! the movie domain with a different attribute mix — more person-valued
//! fields, page ranges, identifiers — demonstrating that nothing in the
//! pipeline is movie-specific.

use crate::attrs::{AttrKind, CanonAttr};
use crate::corrupt::CorruptionConfig;
use crate::gen::DatagenConfig;
use crate::vocab;

/// Publication venues.
pub(crate) const VENUES: &[&str] = &[
    "SIGMOD",
    "VLDB",
    "ICDE",
    "EDBT",
    "CIDR",
    "PODS",
    "KDD",
    "WSDM",
    "WWW",
    "ICML",
    "NeurIPS",
    "AAAI",
    "IJCAI",
    "ACL",
    "EMNLP",
    "SOSP",
    "OSDI",
    "NSDI",
    "EuroSys",
    "USENIX ATC",
];

/// Publishers.
pub(crate) const PUBLISHERS: &[&str] = &[
    "ACM",
    "IEEE",
    "Springer",
    "Elsevier",
    "Morgan Kaufmann",
    "VLDB Endowment",
    "USENIX",
    "MIT Press",
    "Cambridge University Press",
    "Oxford University Press",
];

/// Research keywords.
pub(crate) const TOPICS: &[&str] = &[
    "entity resolution",
    "data integration",
    "query optimization",
    "stream processing",
    "transaction processing",
    "distributed systems",
    "machine learning",
    "graph processing",
    "data cleaning",
    "schema matching",
    "similarity join",
    "record linkage",
    "deduplication",
    "crowdsourcing",
    "provenance",
    "indexing",
    "approximate query processing",
    "concurrency control",
    "consensus",
    "storage engines",
];

/// Display-name aliases per canonical attribute of the publication
/// domain (position-aligned with [`pub_catalog`]).
pub(crate) const PUB_ALIASES: &[(&str, &[&str])] = &[
    ("p_title", &["title", "paper_title", "name", "article"]),
    ("p_year", &["year", "pub_year", "date", "published"]),
    (
        "p_author1",
        &["author", "first_author", "lead_author", "creator"],
    ),
    ("p_author2", &["author_2", "second_author", "coauthor"]),
    ("p_author3", &["author_3", "third_author", "coauthor_2"]),
    (
        "p_venue",
        &["venue", "conference", "booktitle", "published_in"],
    ),
    ("p_volume", &["volume", "vol"]),
    ("p_pages", &["pages", "page_range", "pp"]),
    ("p_publisher", &["publisher", "published_by", "press"]),
    ("p_topic", &["topic", "keywords", "subject", "area"]),
    ("p_citations", &["citations", "cited_by", "num_citations"]),
    ("p_doi", &["doi", "identifier", "ref"]),
    (
        "p_institution",
        &["institution", "affiliation", "organization"],
    ),
    ("p_abstract_tag", &["abstract_tag", "summary_tag", "tldr"]),
];

/// The publication-domain catalog: 14 canonical attributes.
pub(crate) fn pub_catalog() -> &'static [CanonAttr] {
    const CATALOG: &[CanonAttr] = &[
        CanonAttr {
            name: "p_title",
            kind: AttrKind::Title,
        },
        CanonAttr {
            name: "p_year",
            kind: AttrKind::IntRange(1980, 2020),
        },
        CanonAttr {
            name: "p_author1",
            kind: AttrKind::Person,
        },
        CanonAttr {
            name: "p_author2",
            kind: AttrKind::Person,
        },
        CanonAttr {
            name: "p_author3",
            kind: AttrKind::Person,
        },
        CanonAttr {
            name: "p_venue",
            kind: AttrKind::Pick(VENUES),
        },
        CanonAttr {
            name: "p_volume",
            kind: AttrKind::IntRange(1, 45),
        },
        CanonAttr {
            name: "p_pages",
            kind: AttrKind::PageRange,
        },
        CanonAttr {
            name: "p_publisher",
            kind: AttrKind::Pick(PUBLISHERS),
        },
        CanonAttr {
            name: "p_topic",
            kind: AttrKind::PickMulti(TOPICS, 3),
        },
        CanonAttr {
            name: "p_citations",
            kind: AttrKind::IntRange(0, 5000),
        },
        CanonAttr {
            name: "p_doi",
            kind: AttrKind::ExternalId,
        },
        CanonAttr {
            name: "p_institution",
            kind: AttrKind::Pick(vocab::STUDIOS),
        },
        CanonAttr {
            name: "p_abstract_tag",
            kind: AttrKind::Title,
        },
    ];
    CATALOG
}

/// A publications dataset config mirroring the movie presets' shape.
pub fn publications(n_records: usize, n_entities: usize, seed: u64) -> DatagenConfig {
    DatagenConfig {
        name: format!("pubs-{n_records}"),
        seed,
        n_records,
        n_entities,
        n_attrs: pub_catalog().len(),
        n_sources: 4,
        min_source_attrs: pub_catalog().len() * 3 / 5,
        max_source_attrs: pub_catalog().len() * 9 / 10,
        corruption: CorruptionConfig::moderate(),
        domain: crate::gen::Domain::Publications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;

    #[test]
    fn catalog_names_match_aliases() {
        let catalog = pub_catalog();
        assert_eq!(catalog.len(), PUB_ALIASES.len());
        for (a, (name, aliases)) in catalog.iter().zip(PUB_ALIASES) {
            assert_eq!(a.name, *name);
            assert!(!aliases.is_empty());
        }
    }

    #[test]
    fn generates_publication_datasets() {
        let ds = Generator::new(publications(300, 50, 9)).generate();
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.truth.entity_count(), 50);
        assert_eq!(ds.truth.distinct_attr_count(), 14);
        // Attribute display names come from the publication alias pool.
        let names: Vec<String> = ds
            .registry
            .schemas()
            .flat_map(|s| s.attrs.iter().map(|a| a.name.clone()))
            .collect();
        assert!(
            names.iter().any(|n| n == "venue"
                || n == "conference"
                || n == "booktitle"
                || n == "published_in"),
            "{names:?}"
        );
    }

    #[test]
    fn page_ranges_look_right() {
        let ds = Generator::new(publications(100, 20, 3)).generate();
        // Find a pages value somewhere.
        let mut found = false;
        for rec in ds.iter() {
            for (fid, v) in rec.values.iter().enumerate() {
                let attr = ds.attr_of_field(rec.id, fid);
                let canon = ds.truth.canon_of(attr);
                if canon.raw() == 7 {
                    // p_pages position in catalog
                    if let Some(s) = v.as_str() {
                        // uncorrupted shape: "123-145" (corruption may
                        // typo it, so only check the common case)
                        if s.contains('-') {
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(found, "no page-range values observed");
    }
}
