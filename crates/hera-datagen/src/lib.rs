//! Synthetic heterogeneous movie records — the workspace's stand-in for
//! the paper's `D_movies` (IMDB ⋈ DBPedia profiles).
//!
//! The real `D_movies` is not redistributable, so this crate generates the
//! closest synthetic equivalent that exercises the same code paths (see
//! DESIGN.md §Substitutions):
//!
//! * **entities** — movies with up to two dozen canonical attributes
//!   (title, year, director, cast, genre, …), values drawn from seeded
//!   vocabularies;
//! * **sources** — each with its own schema: a subset of the dataset's
//!   canonical attributes under source-specific display names
//!   (`"title"` vs `"name"` vs `"film"`), so records are genuinely
//!   heterogeneous and exhibit *description difference*;
//! * **corruption** — typos, token drops, abbreviations, case noise,
//!   numeric jitter and missing values, so string similarity actually has
//!   work to do;
//! * **ground truth** — exact by construction: entity labels per record,
//!   canonical class per source attribute.
//!
//! [`presets`] calibrates four configurations to Table I
//! (`D_m1` … `D_m4`: n = 1000–4000, 121–533 entities, 16–23 distinct
//! attributes). Generation is deterministic given the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrs;
mod corrupt;
mod gen;
pub mod presets;
pub mod pubs;
pub mod scale;
pub mod vocab;

pub use corrupt::CorruptionConfig;
pub use gen::{DatagenConfig, Domain, Generator};
pub use scale::{scale_preset, ScaleConfig, ScaleGenerator};

/// Convenience: generate one of the Table I datasets by name
/// (`"dm1"`…`"dm4"`), with the canonical seed.
pub fn table1_dataset(name: &str) -> hera_types::Dataset {
    let cfg = match name {
        "dm1" => presets::dm1(),
        "dm2" => presets::dm2(),
        "dm3" => presets::dm3(),
        "dm4" => presets::dm4(),
        other => panic!("unknown preset {other:?} (expected dm1..dm4)"),
    };
    Generator::new(cfg).generate()
}
