//! # HERA — Efficient Entity Resolution on Heterogeneous Records
//!
//! A from-scratch Rust reproduction of Lin, Wang, Li & Gao's HERA
//! (ICDE 2020): entity resolution that runs *directly* on records whose
//! schemas differ from source to source, instead of forcing them through
//! schema matching + data exchange first.
//!
//! This facade re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hera-types` | records, schemas, values, datasets, ground truth |
//! | [`sim`] | `hera-sim` | pluggable value-similarity metrics (q-gram Jaccard, edit, Jaro-Winkler, cosine, Soft TF-IDF, numeric) |
//! | [`join`] | `hera-join` | similarity self-join (inverted q-gram index + prefix filter) |
//! | [`block`] | `hera-block` | blocking & meta-blocking: token / q-gram / MinHash-LSH candidate generation |
//! | [`matching`] | `hera-matching` | Kuhn–Munkres max-weight bipartite matching, simplification, greedy |
//! | [`index`] | `hera-index` | the value-pair index, Algorithm-1 bounds, union–find, merge maintenance |
//! | [`obs`] | `hera-obs` | structured run journal: spans, counters, merge/promotion events (JSON Lines) |
//! | [`serve`] | `hera-serve` | long-lived ER service: incremental ingest into one session, a published partition view, JSON-lines protocol over stdio/TCP |
//! | [`faults`] | `hera-faults` | deterministic fault injection: seeded failpoint plans, retry/backoff, injectable clocks |
//! | [`core`] | `hera-core` | super records, instance-/schema-based verification, the HERA driver, the chaos harness |
//! | [`store`] | `hera-store` | versioned, CRC-checked session snapshots (checkpoint/restore) |
//! | [`baselines`] | `hera-baselines` | R-Swoosh, correlation clustering, collective ER, nest-loop verifier |
//! | [`datagen`] | `hera-datagen` | synthetic heterogeneous movie datasets (Table I presets) |
//! | [`exchange`] | `hera-exchange` | target schemas, tgds, the chase (`-S` / `-L` homogeneous datasets) |
//! | [`eval`] | `hera-eval` | pairwise precision/recall/F1, B³ |
//!
//! ## Quickstart
//!
//! ```
//! use hera::{Hera, HeraConfig, motivating_example};
//!
//! let dataset = motivating_example(); // the paper's Fig. 1 customers
//! let result = Hera::builder(HeraConfig::new(0.5, 0.5)).build().run(&dataset)?;
//! assert_eq!(result.entity_count(), 2);
//! # Ok::<(), hera::HeraError>(())
//! ```
//!
//! Long-running sessions can be checkpointed to disk and restored later
//! (bit-identical continuation — see `DESIGN.md`, Persistence):
//!
//! ```no_run
//! use hera::{HeraConfig, HeraSession};
//!
//! let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
//! // … add schemas/records, resolve …
//! session.checkpoint("run.hera")?;
//! // later, possibly in another process:
//! let resumed = HeraSession::builder(HeraConfig::new(0.5, 0.5)).restore("run.hera")?;
//! # drop(resumed);
//! # Ok::<(), hera::HeraError>(())
//! ```
//!
//! See `examples/` for end-to-end walkthroughs, `crates/hera-bench` for
//! the experiment reproductions (Tables I–II, Figs. 9–12, ablations
//! A1–A4) and `benchmark/` for the performance ledger.

#![forbid(unsafe_code)]

pub use hera_baselines as baselines;
pub use hera_block as block;
pub use hera_core as core;
pub use hera_datagen as datagen;
pub use hera_eval as eval;
pub use hera_exchange as exchange;
pub use hera_faults as faults;
pub use hera_index as index;
pub use hera_join as join;
pub use hera_matching as matching;
pub use hera_obs as obs;
pub use hera_serve as serve;
pub use hera_sim as sim;
pub use hera_store as store;
pub use hera_types as types;

// The everyday API surface, flattened.
pub use hera_baselines::{
    CollectiveEr, CorrelationClustering, NestLoopVerifier, RSwoosh, Resolver,
};
pub use hera_block::{Blocker, BlockingScheme};
pub use hera_core::{
    check_no_torn_state, run_chaos, BoundMode, ChaosConfig, ChaosReport, ChaosVerdict, Hera,
    HeraBuilder, HeraConfig, HeraResult, HeraSession, HeraSessionBuilder, InstanceVerifier,
    MergeEvent, ProgressiveReport, ResolveBudget, RunStats, SchemaVoter, SuperRecord, Verification,
};
pub use hera_datagen::{table1_dataset, DatagenConfig, Domain, Generator};
pub use hera_eval::{adjusted_rand_index, bcubed, v_measure, PairMetrics};
pub use hera_exchange::{
    chase, exchange_large, exchange_small, fuse_entities, plan_exchange, plan_exchange_ensuring,
    ExchangePlan, Tgd,
};
pub use hera_faults::{
    io_retryable, retry, BackoffPolicy, Clock, FaultInjector, FaultKind, FaultPlan, FaultRule,
    FiredFault, ManualClock, RetryError, SystemClock,
};
pub use hera_index::{FlatIndex, UnionFind, ValuePair, ValuePairIndex};
pub use hera_join::{IncrementalJoin, JoinConfig, SimilarityJoin};
pub use hera_obs::{JournalBuffer, Recorder};
pub use hera_serve::{
    ErService, ErServiceBuilder, IngestReply, LoggedPass, LookupReply, LookupSample, RunLog,
    Schedule, ScheduledOp, ServeClient, TcpClient,
};
pub use hera_sim::{
    CosineTf, DiceQGram, EditSimilarity, ExactMatch, Jaro, JaroWinkler, MongeElkan,
    NumericProximity, OverlapQGram, QGramJaccard, SoftTfIdf, TokenJaccard, TypeDispatch,
    ValueSimilarity,
};
pub use hera_store::Snapshot;
pub use hera_types::{
    motivating_example, CanonAttrId, CsvImporter, Dataset, DatasetBuilder, EntityId, GroundTruth,
    HeraError, Label, Record, RecordId, Result, Schema, SchemaId, SchemaRegistry, SourceAttr,
    SourceAttrId, Value, ValueKind,
};
