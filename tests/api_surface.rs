//! The facade's public surface, pinned. One `use` per flat name that
//! `src/lib.rs` exports and per module path the repository's callers
//! import (`tests/`, `examples/`, the ledger under `benchmark/`, README
//! and DESIGN code). Removing or renaming one of them fails this file's
//! build; a new public name at the facade is a new line here, so it is
//! a reviewed one. The ledger's method calls are pinned by
//! `ledger_methods_exist`.

#![allow(unused_imports)]

mod module_aliases {
    use hera::block;
    use hera::core;
    use hera::datagen;
    use hera::join;
    use hera::obs;
    use hera::serve;
    use hera::sim;
    use hera::store;
    use hera::types;
}

mod flat_names {
    use hera::adjusted_rand_index;
    use hera::bcubed;
    use hera::chase;
    use hera::check_no_torn_state;
    use hera::exchange_large;
    use hera::exchange_small;
    use hera::fuse_entities;
    use hera::io_retryable;
    use hera::motivating_example;
    use hera::plan_exchange;
    use hera::plan_exchange_ensuring;
    use hera::retry;
    use hera::run_chaos;
    use hera::table1_dataset;
    use hera::v_measure;
    use hera::Ablation;
    use hera::BackoffPolicy;
    use hera::Blocker;
    use hera::BlockingScheme;
    use hera::BoundMode;
    use hera::CanonAttrId;
    use hera::ChaosConfig;
    use hera::ChaosReport;
    use hera::ChaosVerdict;
    use hera::Clock;
    use hera::CollectiveEr;
    use hera::CorrelationClustering;
    use hera::CsvImporter;
    use hera::DatagenConfig;
    use hera::Dataset;
    use hera::DatasetBuilder;
    use hera::Domain;
    use hera::EditSimilarity;
    use hera::EntityId;
    use hera::ErService;
    use hera::ErServiceBuilder;
    use hera::ExchangePlan;
    use hera::FaultInjector;
    use hera::FaultKind;
    use hera::FaultPlan;
    use hera::FaultRule;
    use hera::FiredFault;
    use hera::Generator;
    use hera::GroundTruth;
    use hera::Hera;
    use hera::HeraBuilder;
    use hera::HeraConfig;
    use hera::HeraError;
    use hera::HeraResult;
    use hera::HeraSession;
    use hera::HeraSessionBuilder;
    use hera::IncrementalJoin;
    use hera::IngestReply;
    use hera::InstanceVerifier;
    use hera::JoinConfig;
    use hera::JournalBuffer;
    use hera::Label;
    use hera::LoggedPass;
    use hera::LookupReply;
    use hera::LookupSample;
    use hera::ManualClock;
    use hera::MergeEvent;
    use hera::NestLoopVerifier;
    use hera::NumericProximity;
    use hera::PairMetrics;
    use hera::ProgressiveReport;
    use hera::QGramJaccard;
    use hera::RSwoosh;
    use hera::Record;
    use hera::RecordId;
    use hera::Recorder;
    use hera::ResolveBudget;
    use hera::Resolver;
    use hera::Result;
    use hera::RetryError;
    use hera::RunLog;
    use hera::RunStats;
    use hera::Schedule;
    use hera::ScheduledOp;
    use hera::Schema;
    use hera::SchemaId;
    use hera::SchemaRegistry;
    use hera::SchemaVoter;
    use hera::ServeClient;
    use hera::SimilarityJoin;
    use hera::Snapshot;
    use hera::SourceAttr;
    use hera::SourceAttrId;
    use hera::SuperRecord;
    use hera::SystemClock;
    use hera::TcpClient;
    use hera::Tgd;
    use hera::TypeDispatch;
    use hera::UnionFind;
    use hera::Value;
    use hera::ValueKind;
    use hera::ValuePair;
    use hera::ValuePairIndex;
    use hera::ValueSimilarity;
    use hera::Verification;
}

mod module_paths {
    use hera::block::StreamingBlocker;
    use hera::core::vote_error_bound;
    use hera::core::DecidedMatching;
    use hera::core::HeraSession;
    use hera::core::ProgressiveReport;
    use hera::datagen::presets;
    use hera::datagen::scale_preset;
    use hera::datagen::Generator;
    use hera::datagen::ScaleGenerator;
    use hera::join::JoinConfig;
    use hera::join::SimilarityJoin;
    use hera::join::ValuePair;
    use hera::obs::check_rounds_monotonic;
    use hera::obs::deterministic_view;
    use hera::obs::validate;
    use hera::serve::harness;
    use hera::serve::harness::drive;
    use hera::serve::harness::LoggedPass;
    use hera::serve::harness::Schedule;
    use hera::serve::harness::ScheduledOp;
    use hera::serve::serve_lines;
    use hera::serve::serve_tcp;
    use hera::serve::ErService;
    use hera::serve::LookupReply;
    use hera::serve::Request;
    use hera::serve::TcpClient;
    use hera::sim::TypeDispatch;
    use hera::sim::ValueSimilarity;
    use hera::store::crc32;
    use hera::types::json;
    use hera::types::json::parse;
    use hera::types::json::Json;
    use hera::types::Label;
    use hera::types::RecordId;
    use hera::types::Value;
}

#[test]
fn ledger_methods_exist() {
    // Named as paths, so a changed name or receiver fails to compile.
    let _ = hera::ErService::builder;
    let _ = hera::ErServiceBuilder::workers;
    let _ = hera::ErServiceBuilder::build;
    let _: fn(f64, usize, std::sync::Arc<dyn hera::ValueSimilarity>) -> hera::IncrementalJoin =
        hera::IncrementalJoin::new;
    let _: fn() -> hera::TypeDispatch = hera::TypeDispatch::paper_default;
    let _ = hera::IncrementalJoin::insert_among;
    let _ = hera::ValuePairIndex::bounds;
    let _ = hera::ValuePairIndex::stats;
    let _ = hera::RunStats::sim_cache_hit_rate;
    let _ = hera::HeraSession::sim_cache_size;
    let _: fn(&'static str) -> hera::Result<hera::Snapshot> = hera::Snapshot::read;
    let _: fn(hera::ErServiceBuilder, &'static str) -> hera::Result<hera::ErService> =
        hera::ErServiceBuilder::restore;
}
