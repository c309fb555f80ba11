//! Chaos property test: random heterogeneous datasets × random seeded
//! fault plans, asserting the *no-torn-state* invariant (see
//! `hera::check_no_torn_state` and DESIGN.md, "Fault model"): every run
//! either completes bit-identically to its fault-free reference, or
//! stops with a typed error after which restoring the last good
//! checkpoint fault-free reproduces the reference — never a panic,
//! never a partial snapshot file, never an unparseable journal.
//!
//! Failing cases are persisted under `/tmp/hera-chaos-<seed>/` together
//! with a ready-to-run `hera-cli faults replay` command, so any failure
//! reproduces outside the test harness from just the printed seed.

use hera::{check_no_torn_state, ChaosConfig, FaultPlan, HeraConfig};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use proptest::prelude::*;
use std::path::PathBuf;

/// splitmix64: one master seed deterministically fans out into every
/// per-case parameter (dataset shape, plan seed, chaos schedule).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dataset(seed: u64, n_records: usize, n_entities: usize, corruption: u8) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("chaos-{seed}"),
        seed,
        n_records,
        n_entities,
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: match corruption {
            0 => CorruptionConfig::light(),
            1 => CorruptionConfig::moderate(),
            _ => CorruptionConfig::heavy(),
        },
        domain: Default::default(),
    })
    .generate()
}

/// The full case a master seed expands to — everything `faults replay`
/// needs to reproduce it.
struct Case {
    ds: hera::Dataset,
    plan: FaultPlan,
    cfg: ChaosConfig,
}

fn expand(master_seed: u64) -> Case {
    let mut s = master_seed;
    let n_records = 10 + (next(&mut s) % 19) as usize; // 10..=28
    let n_entities = 3 + (next(&mut s) % 6) as usize; // 3..=8
    let corruption = (next(&mut s) % 3) as u8;
    let ds = dataset(next(&mut s), n_records, n_entities, corruption);

    let plan = FaultPlan::random(next(&mut s));
    let mut cfg = ChaosConfig::new(HeraConfig::new(0.5, 0.5), 1 + (next(&mut s) % 3) as usize);
    if next(&mut s).is_multiple_of(2) {
        cfg.crash_after = Some((next(&mut s) % n_records as u64) as usize);
    }
    cfg.strict_checkpoints = next(&mut s).is_multiple_of(4);
    // A third of the cases resolve progressively: a small per-record
    // comparison budget leaves deferred frontier work in (almost) every
    // snapshot, so recovery is exercised mid-schedule, not only at
    // fixpoints.
    if next(&mut s).is_multiple_of(3) {
        cfg.resolve_budget = Some(1 + next(&mut s) % 8);
    }
    Case { ds, plan, cfg }
}

/// `expand` with the progressive budget forced on — the PR-8 chaos
/// satellite's dedicated generator (crash/restore of budgeted runs).
fn expand_budgeted(master_seed: u64) -> Case {
    let mut case = expand(master_seed);
    if case.cfg.resolve_budget.is_none() {
        let mut s = master_seed ^ 0xb0d9_e7ed;
        case.cfg.resolve_budget = Some(1 + next(&mut s) % 8);
    }
    // Budgeted runs must still crash somewhere to test mid-budget
    // interruption; force a crash when expand() drew none.
    if case.cfg.crash_after.is_none() {
        let mut s = master_seed ^ 0xc4a5_11fe;
        case.cfg.crash_after = Some((next(&mut s) % case.ds.len() as u64) as usize);
    }
    case
}

/// Persists the failing case's dataset + plan and returns the
/// `faults replay` command that reproduces it.
fn persist_failure(master_seed: u64, case: &Case) -> String {
    let dir = std::env::temp_dir().join(format!("hera-chaos-{master_seed}"));
    let _ = std::fs::create_dir_all(&dir);
    let input = dir.join("dataset.json");
    let plan_path = dir.join("plan.json");
    let _ = std::fs::write(&input, case.ds.to_json().unwrap_or_default());
    let _ = std::fs::write(&plan_path, case.plan.to_json().to_string_pretty());
    let mut cmd = format!(
        "hera-cli faults replay --input {} --plan {} --checkpoint-every {}",
        input.display(),
        plan_path.display(),
        case.cfg.checkpoint_every,
    );
    if let Some(c) = case.cfg.crash_after {
        cmd.push_str(&format!(" --crash-after {c}"));
    }
    if case.cfg.strict_checkpoints {
        cmd.push_str(" --strict-checkpoints");
    }
    if let Some(b) = case.cfg.resolve_budget {
        cmd.push_str(&format!(" --resolve-budget {b}"));
    }
    cmd
}

fn case_dir(master_seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hera-chaos-case-{}-{master_seed}",
        std::process::id()
    ))
}

/// Runs one chaos case end to end; `Err` carries the verdict detail plus
/// the persisted repro command.
fn run_case(master_seed: u64) -> Result<(), String> {
    run_expanded_case(expand(master_seed), master_seed)
}

fn run_expanded_case(case: Case, master_seed: u64) -> Result<(), String> {
    let dir = case_dir(master_seed ^ case.cfg.resolve_budget.unwrap_or(0).wrapping_mul(0x9e37));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let verdict = check_no_torn_state(&case.ds, &case.cfg, &case.plan, &dir);
    let result = if verdict.ok {
        Ok(())
    } else {
        let repro = persist_failure(master_seed, &case);
        Err(format!(
            "no-torn-state violated (seed {master_seed}): {}\nfired: {:?}\nreproduce with:\n  {repro}",
            verdict.detail, verdict.report.fired,
        ))
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance criterion: 256 random dataset × fault-plan cases,
    /// zero panics, invariant holds in every one.
    #[test]
    fn chaos_no_torn_state(master_seed in any::<u64>()) {
        let outcome = run_case(master_seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PR-8 satellite: every case resolves under a per-record comparison
    /// budget AND crashes mid-stream — restoring must land the run
    /// bit-identically on the uninterrupted *budgeted* reference (the
    /// reference inside `check_no_torn_state` shares the budget), so
    /// progressive frontier state round-trips through snapshots.
    #[test]
    fn chaos_budgeted_runs_resume_exactly(master_seed in any::<u64>()) {
        let case = expand_budgeted(master_seed);
        let outcome = run_expanded_case(case, master_seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}

/// Short randomized smoke for CI: a fresh seed per run, taken from
/// `HERA_CHAOS_SEED` (skipped when unset so `cargo test` stays
/// deterministic). The seed is in every failure message.
#[test]
fn chaos_randomized_smoke() {
    let Ok(seed) = std::env::var("HERA_CHAOS_SEED") else {
        return;
    };
    let base: u64 = seed
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("HERA_CHAOS_SEED must be a u64, got {seed:?}"));
    let mut s = base;
    for i in 0..16 {
        let case_seed = next(&mut s);
        if let Err(msg) = run_case(case_seed) {
            panic!("randomized smoke failed (HERA_CHAOS_SEED={base}, case {i}): {msg}");
        }
    }
}

/// A crash with no checkpoint restarts from scratch and still matches
/// the fault-free reference (pinned, not random: exercises the
/// restart-at-zero recovery arm regardless of what proptest draws).
#[test]
fn crash_before_first_checkpoint_restarts_cleanly() {
    let ds = dataset(7, 12, 4, 0);
    let mut cfg = ChaosConfig::new(HeraConfig::new(0.5, 0.5), 6);
    cfg.crash_after = Some(3);
    let dir = case_dir(u64::MAX);
    std::fs::create_dir_all(&dir).unwrap();
    let verdict = check_no_torn_state(&ds, &cfg, &FaultPlan::none(), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(verdict.ok, "{}", verdict.detail);
    assert_eq!(verdict.report.restores, 1);
    assert!(verdict.report.completed());
}

/// A progressive run interrupted mid-budget restores and continues to
/// the same final state as the uninterrupted budgeted run (pinned:
/// exercises budget + crash + checkpoint together regardless of what
/// proptest draws).
#[test]
fn progressive_crash_mid_budget_resumes_exactly() {
    let ds = dataset(19, 20, 5, 1);
    let mut cfg = ChaosConfig::new(HeraConfig::new(0.5, 0.5), 2);
    cfg.resolve_budget = Some(2); // tight: every snapshot carries frontier work
    cfg.crash_after = Some(9);
    let dir = case_dir(u64::MAX - 1);
    std::fs::create_dir_all(&dir).unwrap();
    let verdict = check_no_torn_state(&ds, &cfg, &FaultPlan::none(), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(verdict.ok, "{}", verdict.detail);
    assert_eq!(verdict.report.restores, 1);
    assert!(verdict.report.completed());
}

/// The persisted repro command names files that actually round-trip.
#[test]
fn failing_case_artifacts_round_trip() {
    let case = expand(42);
    let repro = persist_failure(42, &case);
    let dir = std::env::temp_dir().join("hera-chaos-42");
    let ds = hera::Dataset::from_json(&std::fs::read_to_string(dir.join("dataset.json")).unwrap())
        .unwrap();
    assert_eq!(ds.len(), case.ds.len());
    let plan_json =
        hera::types::json::parse(&std::fs::read_to_string(dir.join("plan.json")).unwrap()).unwrap();
    let plan = FaultPlan::from_json(&plan_json).unwrap();
    assert_eq!(
        plan.to_json().to_string_compact(),
        case.plan.to_json().to_string_compact()
    );
    assert!(repro.contains("faults replay"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Service-level chaos: whole-service checkpoints racing live ingest.
//
// The service checkpoints its session — one snapshot file, written by
// the session thread in queue position — while another thread keeps
// ingesting. The invariant is the service-shaped no-torn-state rule: a
// checkpoint that *reports success* must restore (the session
// snapshot's own `Corrupt` checks) to a prefix of the stream, and the
// restored service must continue to the same final partition as the
// live one. A checkpoint that fails under injected faults must fail
// with a typed error, leave the live service serving, and leave no torn
// file behind the last good one.
// ---------------------------------------------------------------------------

mod serve_chaos {
    use super::{dataset, next};
    use hera::serve::ErService;
    use hera::{BackoffPolicy, FaultInjector, FaultPlan, HeraConfig, HeraError, HeraSession};
    use proptest::prelude::*;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    const DELTA: f64 = 0.5;
    const XI: f64 = 0.5;

    struct ServeCase {
        ds: hera::Dataset,
        plan: FaultPlan,
        stitch_every: usize,
        checkpoints: usize,
    }

    fn expand(master_seed: u64) -> ServeCase {
        let mut s = master_seed;
        let n_records = 24 + (next(&mut s) % 25) as usize; // 24..=48
        let ds = dataset(next(&mut s), n_records, (n_records / 5).max(2), 1);
        ServeCase {
            ds,
            plan: FaultPlan::random(next(&mut s)),
            stitch_every: if next(&mut s).is_multiple_of(2) {
                6 + (next(&mut s) % 10) as usize
            } else {
                0
            },
            checkpoints: 2 + (next(&mut s) % 3) as usize, // 2..=4
        }
    }

    fn case_dir(master_seed: u64) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hera-serve-chaos-{}-{master_seed}",
            std::process::id()
        ))
    }

    /// Registers the dataset's schemas; service ids mirror dataset ids.
    fn mirror_schemas(service: &ErService, ds: &hera::Dataset) -> Vec<hera::SchemaId> {
        ds.registry
            .schemas()
            .map(|s| {
                service.add_schema(
                    &s.name,
                    &s.attrs.iter().map(|a| a.name.clone()).collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Bare-session reference partition. The service's auto-boundaries
    /// sit at exact multiples of `stitch_every` — the reference resolves
    /// at those same prefixes, then once at the end for the final
    /// explicit stitch.
    fn reference_partition(ds: &hera::Dataset, stitch_every: usize) -> Vec<Vec<u32>> {
        let mut session = HeraSession::builder(HeraConfig::new(DELTA, XI)).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for (i, rec) in ds.iter().enumerate() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            if stitch_every > 0 && (i + 1).is_multiple_of(stitch_every) {
                session.resolve();
            }
        }
        session.resolve();
        session.clusters()
    }

    /// One case: an ingest thread pumps the whole dataset through the
    /// live service while the main thread fires `checkpoints` snapshot
    /// attempts under the seeded fault plan. Every reported-success
    /// checkpoint must restore; failures must be typed; the live
    /// service must end bit-identical to the sequential reference; and
    /// the last good checkpoint must continue to that same partition.
    fn run_serve_case(master_seed: u64) -> Result<(), String> {
        let case = expand(master_seed);
        let dir = case_dir(master_seed);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let result = run_in_dir(master_seed, &case, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn run_in_dir(master_seed: u64, case: &ServeCase, dir: &Path) -> Result<(), String> {
        let build =
            || ErService::builder(HeraConfig::new(DELTA, XI), 1).stitch_every(case.stitch_every);
        let service = Arc::new(
            build()
                .faults(FaultInjector::new(&case.plan))
                .retry(BackoffPolicy::none())
                .build(),
        );
        let schemas = mirror_schemas(&service, &case.ds);

        // The pump: one thread ingesting the whole dataset in order, so
        // the service's arrival order IS the dataset order and any
        // checkpoint captures a prefix of it.
        let pump = {
            let service = service.clone();
            let records: Vec<_> = case
                .ds
                .iter()
                .map(|r| (schemas[r.schema.index()], r.values.clone()))
                .collect();
            std::thread::spawn(move || {
                for (schema, values) in records {
                    service.ingest(schema, values).expect("live ingest");
                }
            })
        };

        // Checkpoints racing the pump, each to its own path.
        let mut outcomes: Vec<(PathBuf, Result<(), HeraError>)> = Vec::new();
        for i in 0..case.checkpoints {
            let path = dir.join(format!("race{i}.hera"));
            outcomes.push((path.clone(), service.checkpoint(&path)));
        }
        pump.join().map_err(|_| {
            format!("seed {master_seed}: ingest thread panicked while checkpoints raced it")
        })?;
        service.stitch();

        // The live service, faults and all, must still match the
        // bare-session reference — checkpointing is read-only w.r.t. ER
        // state no matter how it fails.
        let want = reference_partition(&case.ds, case.stitch_every);
        if service.stitched_partition() != want {
            return Err(format!(
                "seed {master_seed}: live service diverged from the bare-session \
                 reference after {} racing checkpoint(s)",
                case.checkpoints
            ));
        }

        let mut last_good: Option<PathBuf> = None;
        for (path, outcome) in &outcomes {
            match outcome {
                Ok(()) => {
                    // Reported success ⇒ restorable: the session snapshot
                    // re-checks its own sections on the way in, so a torn
                    // file fails typed here.
                    let restored = build().restore(path).map_err(|e| {
                        format!(
                            "seed {master_seed}: checkpoint at {} reported success \
                             but failed to restore (torn file?): {e}",
                            path.display()
                        )
                    })?;
                    if restored.len() > case.ds.len() {
                        return Err(format!(
                            "seed {master_seed}: restored service claims {} records, \
                             only {} were ever ingested",
                            restored.len(),
                            case.ds.len()
                        ));
                    }
                    last_good = Some(path.clone());
                }
                Err(
                    HeraError::Io(_) | HeraError::CheckpointFailed { .. } | HeraError::Corrupt(_),
                ) => {} // typed failure: the acceptable outcome
                Err(e) => {
                    return Err(format!(
                        "seed {master_seed}: checkpoint failed with a non-IO error: {e}"
                    ));
                }
            }
        }

        // Continuation: the last good checkpoint holds a prefix of the
        // dataset; feeding it the suffix must land on the same final
        // partition as the live service and the reference.
        if let Some(path) = last_good {
            let resumed = build().restore(&path).map_err(|e| {
                format!("seed {master_seed}: re-restore of last good checkpoint: {e}")
            })?;
            let from = resumed.len();
            for rec in case.ds.iter().skip(from) {
                resumed
                    .ingest(schemas[rec.schema.index()], rec.values.clone())
                    .map_err(|e| format!("seed {master_seed}: continuation ingest: {e}"))?;
            }
            resumed.stitch();
            if resumed.stitched_partition() != want {
                return Err(format!(
                    "seed {master_seed}: continuation from the last good checkpoint \
                     (prefix {from}) diverged from the reference partition"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fault-injected whole-service checkpoints racing live ingest:
        /// success ⇒ restorable + continuable, failure ⇒ typed, live
        /// service unharmed either way.
        #[test]
        fn checkpoint_races_live_ingest_without_tearing(master_seed in any::<u64>()) {
            let outcome = run_serve_case(master_seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
        }
    }

    /// Pinned fault-free twin of the property: with no faults at all,
    /// every racing checkpoint must succeed, restore, and continue —
    /// regardless of what proptest draws.
    #[test]
    fn fault_free_checkpoint_races_live_ingest() {
        let mut case = expand(777);
        case.plan = FaultPlan::none();
        case.checkpoints = 3;
        let dir = case_dir(u64::MAX - 7);
        std::fs::create_dir_all(&dir).unwrap();
        let result = run_in_dir(777, &case, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result.unwrap();
        // And with no faults, all three must actually have succeeded —
        // re-run inline to assert the Ok count, not just consistency.
        let dir = case_dir(u64::MAX - 8);
        std::fs::create_dir_all(&dir).unwrap();
        let service = Arc::new(
            ErService::builder(HeraConfig::new(DELTA, XI), 1)
                .stitch_every(case.stitch_every)
                .build(),
        );
        let schemas = mirror_schemas(&service, &case.ds);
        let pump = {
            let service = service.clone();
            let records: Vec<_> = case
                .ds
                .iter()
                .map(|r| (schemas[r.schema.index()], r.values.clone()))
                .collect();
            std::thread::spawn(move || {
                for (schema, values) in records {
                    service.ingest(schema, values).unwrap();
                }
            })
        };
        for i in 0..3 {
            service.checkpoint(dir.join(format!("ok{i}.hera"))).unwrap();
        }
        pump.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
