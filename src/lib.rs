//! # HERA — Efficient Entity Resolution on Heterogeneous Records
//!
//! A from-scratch Rust reproduction of Lin, Wang, Li & Gao's HERA
//! (ICDE 2020): entity resolution that runs *directly* on records whose
//! schemas differ from source to source, instead of forcing them through
//! schema matching + data exchange first.
//!
//! This facade is the workspace's API: nine modules that in-repo callers
//! name by path, and the everyday names flattened beside them. The other
//! four library crates are reached through those flat names only.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hera-types` | records, schemas, values, datasets, ground truth, JSON |
//! | [`sim`] | `hera-sim` | the value-similarity black box and the paper's instance of it (2-gram Jaccard for text, numeric proximity, routed by kind); edit similarity |
//! | [`join`] | `hera-join` | similarity self-join (inverted q-gram index + prefix filter), batch and incremental |
//! | [`block`] | `hera-block` | blocking & meta-blocking: token / q-gram / MinHash-LSH candidate generation |
//! | [`obs`] | `hera-obs` | structured run journal: spans, counters, merge/promotion events (JSON Lines) |
//! | [`serve`] | `hera-serve` | long-lived ER service: incremental ingest into one session, a published partition view, JSON-lines protocol over stdio/TCP |
//! | [`core`] | `hera-core` | super records, instance-/schema-based verification, the HERA driver and session, the chaos harness |
//! | [`store`] | `hera-core` | versioned, CRC-checked session snapshots (checkpoint/restore) |
//! | [`datagen`] | `hera-datagen` | synthetic heterogeneous datasets (Table I presets, scale tiers) |
//! | — | `hera-matching` | Kuhn–Munkres max-weight bipartite matching with Theorem-1 simplification, greedy |
//! | — | `hera-index` | the value-pair index, Algorithm-1 bounds, union–find, merge maintenance ([`ValuePairIndex`], [`UnionFind`]) |
//! | — | `hera-faults` | deterministic fault injection: seeded failpoint plans, retry/backoff, injectable clocks ([`FaultPlan`], [`retry`]) |
//! | — | `hera-baselines` | the §VI comparator side: data exchange into `-S` / `-L` datasets ([`chase`]), R-Swoosh, correlation clustering, collective ER, nest-loop verifier, pairwise P/R/F1 ([`PairMetrics`]) |
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
//! // later, possibly in another process, under the config the snapshot
//! // recorded (the builder contributes its thread count):
//! let resumed = HeraSession::builder(HeraConfig::paper_example()).restore("run.hera")?;
//! # drop(resumed);
//! # Ok::<(), hera::HeraError>(())
//! ```
//!
//! See `examples/` for end-to-end walkthroughs, `crates/hera-bench` for
//! the experiment reproductions (Tables I–II, Figs. 9–12, ablations
//! A1–A4) and `benchmark/` for the performance ledger.

#![forbid(unsafe_code)]

pub use hera_block as block;
pub use hera_core as core;
pub use hera_core::store;
pub use hera_datagen as datagen;
pub use hera_join as join;
pub use hera_obs as obs;
pub use hera_serve as serve;
pub use hera_sim as sim;
pub use hera_types as types;

// The everyday API surface, flattened.
pub use hera_baselines::eval::{adjusted_rand_index, bcubed, v_measure, PairMetrics};
pub use hera_baselines::exchange::{
    chase, exchange_large, exchange_small, fuse_entities, plan_exchange, plan_exchange_ensuring,
    ExchangePlan, Tgd,
};
pub use hera_baselines::{
    CollectiveEr, CorrelationClustering, NestLoopVerifier, RSwoosh, Resolver,
};
pub use hera_block::{Blocker, BlockingScheme};
pub use hera_core::{
    check_no_torn_state, run_chaos, Ablation, BoundMode, ChaosConfig, ChaosReport, ChaosVerdict,
    Hera, HeraBuilder, HeraConfig, HeraResult, HeraSession, HeraSessionBuilder, InstanceVerifier,
    MergeEvent, ProgressiveReport, ResolveBudget, RunStats, SchemaVoter, Snapshot, SuperRecord,
    Verification,
};
pub use hera_datagen::{table1_dataset, DatagenConfig, Domain, Generator};
pub use hera_faults::{
    io_retryable, retry, BackoffPolicy, Clock, FaultInjector, FaultKind, FaultPlan, FaultRule,
    FiredFault, ManualClock, RetryError, SystemClock,
};
pub use hera_index::{UnionFind, ValuePair, ValuePairIndex};
pub use hera_join::{IncrementalJoin, JoinConfig, SimilarityJoin};
pub use hera_obs::{JournalBuffer, Recorder};
pub use hera_serve::{
    ErService, ErServiceBuilder, IngestReply, LoggedPass, LookupReply, LookupSample, RunLog,
    Schedule, ScheduledOp, ServeClient, TcpClient,
};
pub use hera_sim::{EditSimilarity, NumericProximity, QGramJaccard, TypeDispatch, ValueSimilarity};
pub use hera_types::{
    motivating_example, CanonAttrId, CsvImporter, Dataset, DatasetBuilder, EntityId, GroundTruth,
    HeraError, Label, Record, RecordId, Result, Schema, SchemaId, SchemaRegistry, SourceAttr,
    SourceAttrId, Value, ValueKind,
};

/// Names the API has shed stay shed. Each snippet below compiles only
/// while its name exists, so bringing one back fails `cargo test`
/// alongside the CI step that guards it.
///
/// The shard layer ("One session" in CI): a routing function and a
/// per-shard resolve reply.
///
/// ```compile_fail
/// let _shard: usize = hera::block::route_shard(&[hera::Value::from("x")], 4);
/// ```
///
/// ```compile_fail
/// fn merges(reply: &hera::serve::ResolveReply) -> usize {
///     reply.merges
/// }
/// ```
///
/// The similarity memo's knob ("No similarity memo"):
///
/// ```compile_fail
/// let _config: hera::HeraConfig = hera::HeraConfig::new(0.5, 0.5).without_sim_cache();
/// ```
///
/// The probing per-value insert ("One streaming join door"):
///
/// ```compile_fail
/// fn probe(join: &mut hera::IncrementalJoin) -> Vec<hera::ValuePair> {
///     join.insert(hera::Label::new(0, 0, 0), hera::Value::from("x"))
/// }
/// ```
///
/// A second door to one operation: the candidate-source enum beside
/// `join_dataset`, a restore beside the builder's, an unreported read
/// beside `read`, an allocating field-pair lookup beside the buffered one.
///
/// ```compile_fail
/// let _source = hera::join::CandidateSource::AllPairs;
/// ```
///
/// ```compile_fail
/// fn join(join: &hera::SimilarityJoin<'_>, ds: &hera::Dataset) -> Vec<hera::ValuePair> {
///     join.join_dataset_with(ds, &hera::join::CandidateSource::AllPairs)
/// }
/// ```
///
/// ```compile_fail
/// let _ = hera::HeraSession::restore(
///     "run.hera",
///     hera::HeraConfig::new(0.5, 0.5),
///     std::sync::Arc::new(hera::TypeDispatch::paper_default()),
/// );
/// ```
///
/// ```compile_fail
/// let _ = hera::Snapshot::read_report("run.hera");
/// ```
///
/// ```compile_fail
/// let _ = hera::ValuePairIndex::default().similar_field_pairs(0, 1);
/// ```
///
/// A second blocked join: a blocked `Hera::join` runs a session's
/// co-blocked scan, so the batch join's own blocked verifier and the
/// pair-set type it took are gone; a blocker hands over a sorted
/// `Vec<(u32, u32)>`.
///
/// ```compile_fail
/// fn join(join: &hera::SimilarityJoin<'_>, ds: &hera::Dataset) -> Vec<hera::ValuePair> {
///     join.join_blocked(ds, &Default::default())
/// }
/// ```
///
/// ```compile_fail
/// let _ = hera::join::RecordPairSet::default();
/// ```
///
/// The incremental join's record-level doors: a session's join pass
/// registers a batch of records and scans each with `pairs_of_each`, so
/// the register-and-scan of one record, against every other record or a
/// blocker's, had only unit tests left to call it.
///
/// ```compile_fail
/// fn insert(join: &mut hera::IncrementalJoin) -> Vec<hera::ValuePair> {
///     join.insert_record(0, &[hera::Value::from("x")])
/// }
/// ```
///
/// ```compile_fail
/// fn insert(join: &mut hera::IncrementalJoin) -> Vec<hera::ValuePair> {
///     join.insert_record_among(1, &[hera::Value::from("x")], &[0])
/// }
/// ```
///
/// Switches no caller set: the prefix filter's off position, which the
/// join only ever takes where the filter is not complete.
///
/// ```compile_fail
/// fn filtered(config: hera::join::JoinConfig) -> bool {
///     let hera::join::JoinConfig { prefix_filter, .. } = config;
///     prefix_filter
/// }
/// ```
///
/// Blocking parameters no caller set: a scheme is its name, so the
/// parameter structs, the public limits and the scheme's fields are gone.
///
/// ```compile_fail
/// fn named(_: hera::block::TokenParams) {}
/// ```
///
/// ```compile_fail
/// fn named(_: hera::block::QGramParams) {}
/// ```
///
/// ```compile_fail
/// fn named(_: hera::block::LshParams) {}
/// ```
///
/// ```compile_fail
/// fn named(_: hera::block::MetaBlocking) {}
/// ```
///
/// ```compile_fail
/// fn has_params(scheme: hera::BlockingScheme) -> bool {
///     matches!(scheme, hera::BlockingScheme::Token(_))
/// }
/// ```
///
/// Capabilities whose only caller was their own unit test:
///
/// ```compile_fail
/// let _ = hera::ValuePairIndex::default().top_partners(0, 3);
/// ```
///
/// ```compile_fail
/// let _: usize = hera::UnionFind::new(3).set_count();
/// ```
///
/// ```compile_fail
/// let _ = hera::QGramJaccard::new(2).case_sensitive();
/// ```
///
/// ```compile_fail
/// fn present(record: &hera::Record) -> usize {
///     record.present_fields().count()
/// }
/// ```
///
/// ```compile_fail
/// let _ = hera::CsvImporter::new("t").with_canonical_classes([("name", 0u32)]);
/// ```
///
/// ```compile_fail
/// fn attrs(registry: &hera::SchemaRegistry) -> usize {
///     registry.attr_count()
/// }
/// ```
///
/// ```compile_fail
/// let _ = hera::NestLoopVerifier::new(0.5).with_greedy();
/// ```
///
/// ```compile_fail
/// fn publications(config: hera::DatagenConfig) -> hera::DatagenConfig {
///     config.with_domain(hera::Domain::Publications)
/// }
/// ```
///
/// ```compile_fail
/// fn values(record: &hera::SuperRecord) -> usize {
///     record.value_count()
/// }
/// ```
///
/// ```compile_fail
/// fn nodes(graph: &hera_matching::BipartiteGraph) -> usize {
///     graph.left_count() + graph.right_count()
/// }
/// ```
///
/// Metrics no shipped path ran, and the setters that swapped a leg of
/// the paper's stack: every path runs `TypeDispatch::paper_default`, and
/// another metric is a `ValueSimilarity` handed to the builder whole.
///
/// ```compile_fail
/// fn named(_: hera::SoftTfIdf) {}
/// ```
///
/// ```compile_fail
/// let _ = hera::TypeDispatch::paper_default()
///     .with_string_metric(std::sync::Arc::new(hera::EditSimilarity));
/// ```
///
/// Config knobs no run set: the voter's prior, gate and minimum vote
/// count and the round cap are constants, and the two ablation switches
/// are one `Ablation`, so a snapshot can record every knob there is.
///
/// ```compile_fail
/// let _ = hera::HeraConfig::new(0.5, 0.5).without_schema_voting();
/// ```
///
/// ```compile_fail
/// let _ = hera::HeraConfig::new(0.5, 0.5).with_greedy_matching();
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> f64 {
///     config.vote_prior
/// }
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> f64 {
///     config.vote_error_threshold
/// }
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> u32 {
///     config.vote_min_n
/// }
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> usize {
///     config.max_iterations
/// }
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> bool {
///     config.schema_voting
/// }
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> bool {
///     config.use_kuhn_munkres
/// }
/// ```
///
/// Test oracles and a debug switch: the paper-literal flat index, the
/// brute-force matcher and the all-pairs join live in the tests that
/// check the production structures against them, and the per-round
/// invariant checks run in hera-core's own tests instead of behind a
/// config field that made a library `resolve` panic.
///
/// ```compile_fail
/// fn named(_: hera::FlatIndex) {}
/// ```
///
/// ```compile_fail
/// fn named(_: hera_index::FlatIndex) {}
/// ```
///
/// ```compile_fail
/// let _ = hera_matching::brute_force_matching(&hera_matching::BipartiteGraph::new());
/// ```
///
/// ```compile_fail
/// let _ = hera::HeraConfig::new(0.5, 0.5).with_index_validation();
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::HeraConfig) -> bool {
///     config.validate_index
/// }
/// ```
///
/// ```compile_fail
/// let _ = hera::JoinConfig::new(0.5).exhaustive();
/// ```
///
/// ```compile_fail
/// fn knob(config: &hera::JoinConfig) -> bool {
///     config.all_pairs
/// }
/// ```
///
/// The join's gram length is the metric's
/// (`ValueSimilarity::qgram_compatible`), not a config field.
///
/// ```compile_fail
/// fn knob(config: &hera::JoinConfig) -> usize {
///     config.q
/// }
/// ```
///
/// Module paths no in-repo caller named; their items stay reachable
/// through the flat names.
///
/// ```compile_fail
/// use hera::baselines::RSwoosh;
/// ```
///
/// ```compile_fail
/// use hera::eval::PairMetrics;
/// ```
///
/// ```compile_fail
/// use hera::exchange::chase;
/// ```
///
/// ```compile_fail
/// use hera::faults::FaultPlan;
/// ```
///
/// ```compile_fail
/// use hera::index::UnionFind;
/// ```
///
/// ```compile_fail
/// use hera::matching::BipartiteGraph;
/// ```
#[cfg(doctest)]
pub struct RemovedNames;
