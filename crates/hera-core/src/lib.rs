//! HERA — the Heterogeneous Entity Resolution Algorithm (§II–§V).
//!
//! This crate assembles the substrates (`hera-sim`, `hera-join`,
//! `hera-index`, `hera-matching`) into the paper's system:
//!
//! * [`SuperRecord`] — the merged representation of co-referring records
//!   (Definition 2) with the `⊕` merge operation (Example 2);
//! * [`InstanceVerifier`] — record similarity without schema matchings
//!   (§IV-A): index-assisted similar-field-pair retrieval, graph
//!   simplification, Kuhn–Munkres field matching, Definition 5 scoring;
//! * [`SchemaVoter`] — majority voting over field-matching predictions
//!   with the Chernoff-style error bound of Theorem 2 (§IV-B), feeding
//!   decided attribute matchings back into verification;
//! * [`Hera`] — the iterative compare-and-merge driver (Algorithm 2) with
//!   candidate generation, direct decisions, verification, merging, and
//!   index maintenance;
//! * [`parallel`] — the scoped worker pool behind every parallel stage
//!   (re-exported from `hera-types`; deterministic: results are
//!   bit-identical for every thread count);
//! * [`RunStats`] — the counters behind Table II, Fig. 10 and Fig. 12.
//!
//! ```
//! use hera_core::{Hera, HeraConfig};
//! use hera_types::motivating_example;
//!
//! let dataset = motivating_example();
//! let result = Hera::builder(HeraConfig::new(0.5, 0.5)).build().run(&dataset)?;
//! // r1, r2, r4, r6 (1-based) end up in one entity; r3, r5 in another.
//! assert_eq!(result.entity_of.len(), 6);
//! assert_eq!(result.entity_count(), 2);
//! # Ok::<(), hera_types::HeraError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod config;
mod driver;
mod engine;
mod session;
mod stats;
pub mod store;
mod super_record;
mod verify;
mod voter;

pub use chaos::{check_no_torn_state, run_chaos, ChaosConfig, ChaosReport, ChaosVerdict};
pub use config::HeraConfig;
pub use driver::{Hera, HeraBuilder, HeraResult};
pub use session::{HeraSession, HeraSessionBuilder, MergeEvent, ProgressiveReport, ResolveBudget};
pub use stats::RunStats;
pub use store::Snapshot;
pub use super_record::{FieldRef, SuperRecord};
pub use verify::{InstanceVerifier, Verification};
pub use voter::{vote_error_bound, DecidedMatching, SchemaVoter};

pub use hera_block::{Blocker, BlockingScheme};
pub use hera_index::{BoundMode, Grouping};
pub use hera_obs::{JournalBuffer, Recorder};
pub use hera_types::parallel;
