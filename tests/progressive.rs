//! Progressive (budget-scheduled) resolution invariants — the PR-8
//! headline claims, property-tested (see DESIGN.md, "Progressive
//! resolution"):
//!
//! 1. `resolve_progressive(∞)` **is** `resolve()` — same entities, same
//!    merges, same matchings to the confidence bit, byte-identical core
//!    journal — at 1–8 threads.
//! 2. The budget only truncates the schedule, never reorders it: the
//!    merge sequence under budget `b` is a prefix of the sequence under
//!    any `b' > b` (including `∞`), recall vs ground truth never
//!    decreases with budget, and F1 is non-decreasing up to a small
//!    precision-dip slack.
//! 3. Journal rounds stay monotonic across a checkpoint-resume of an
//!    exhausted run, and the resumed continuation is byte-identical to
//!    continuing in the original session.
//! 4. A quarter of the unlimited run's comparisons buys at least 80 % of
//!    its F1 on heavy-tailed data (the quality-at-budget gate).

use hera::{
    Ablation, BlockingScheme, HeraConfig, HeraSession, PairMetrics, Recorder, ResolveBudget,
};
use hera_datagen::{scale_preset, CorruptionConfig, DatagenConfig, Generator, ScaleGenerator};
use proptest::prelude::*;

/// splitmix64: one master seed fans out into every per-case parameter.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dataset(seed: u64, n_records: usize, n_entities: usize, corruption: u8) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("progressive-{seed}"),
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

fn random_dataset(master_seed: u64) -> hera::Dataset {
    let mut s = master_seed;
    let n_records = 12 + (next(&mut s) % 24) as usize; // 12..=35
    let n_entities = 3 + (next(&mut s) % 7) as usize; // 3..=9
    let corruption = (next(&mut s) % 3) as u8;
    dataset(next(&mut s), n_records, n_entities, corruption)
}

/// Builds a session with a deterministic memory journal, mirrors the
/// dataset's schemas, and ingests every record (no intermediate
/// resolution — the whole frontier goes to one resolve call).
fn ingest_all(cfg: HeraConfig, ds: &hera::Dataset) -> (HeraSession, hera::JournalBuffer) {
    let (rec, buf) = Recorder::to_memory();
    let mut session = HeraSession::builder(cfg)
        .recorder(rec.deterministic())
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    for rec in &ds.records {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .expect("ingest");
    }
    (session, buf)
}

fn labels_of(session: &HeraSession) -> Vec<u32> {
    (0..session.len() as u32)
        .map(|r| session.entity_of(hera::RecordId::new(r)))
        .collect()
}

/// The journal's `"ev":"merge"` lines, in order — the emitted merge
/// sequence, winner/loser/sim and all.
fn merge_lines(journal: &str) -> Vec<String> {
    journal
        .lines()
        .filter(|l| l.contains("\"ev\":\"merge\""))
        .map(String::from)
        .collect()
}

// ---------------------------------------------------------------------
// 1. Unlimited budget ≡ resolve().
// ---------------------------------------------------------------------

fn check_unlimited_equivalence(master_seed: u64) -> Result<(), String> {
    let ds = random_dataset(master_seed);
    let base_cfg = HeraConfig::new(0.5, 0.5).with_threads(1);
    let (mut base, base_buf) = ingest_all(base_cfg, &ds);
    let base_merges = base.resolve();
    let base_labels = labels_of(&base);
    let base_stats = base.stats().clone();
    let base_matchings = base.schema_matchings();
    let base_journal = base_buf.contents();

    for threads in [1usize, 2, 4, 8] {
        let name = format!("{threads}t");
        let (mut s, buf) = ingest_all(HeraConfig::new(0.5, 0.5).with_threads(threads), &ds);
        let report = s.resolve_progressive(ResolveBudget::unlimited());
        if report.exhausted || report.frontier != 0 {
            return Err(format!("[{name}] unlimited budget reported exhaustion"));
        }
        if report.merges != base_merges {
            return Err(format!(
                "[{name}] merges {} != resolve()'s {base_merges}",
                report.merges
            ));
        }
        if labels_of(&s) != base_labels {
            return Err(format!("[{name}] entity labels diverged"));
        }
        let stats = s.stats();
        if stats.comparisons != base_stats.comparisons
            || stats.iterations != base_stats.iterations
            || stats.pruned != base_stats.pruned
        {
            return Err(format!("[{name}] stats diverged"));
        }
        let matchings = s.schema_matchings();
        if matchings.len() != base_matchings.len() {
            return Err(format!("[{name}] matching count diverged"));
        }
        for (a, b) in base_matchings.iter().zip(&matchings) {
            if a.attr != b.attr
                || a.partner != b.partner
                || a.confidence.to_bits() != b.confidence.to_bits()
            {
                return Err(format!("[{name}] matchings diverged to the confidence bit"));
            }
        }
        if buf.contents() != base_journal {
            return Err(format!("[{name}] core journal is not byte-identical"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unlimited_budget_is_bit_identical_to_resolve(master_seed in any::<u64>()) {
        let outcome = check_unlimited_equivalence(master_seed);
        prop_assert!(outcome.is_ok(), "seed {master_seed}: {}", outcome.err().unwrap_or_default());
    }
}

// ---------------------------------------------------------------------
// 2. Budget-prefix property + quality monotonicity.
// ---------------------------------------------------------------------

/// Precision can dip when a budget happens to cut between a
/// false-positive merge and the later true merges that would outweigh
/// it, so F1 is only monotone up to a slack; recall — pure pair
/// coverage under a coarsening-only merge sequence — must be exactly
/// monotone.
const F1_SLACK: f64 = 0.05;

fn check_budget_prefix(master_seed: u64) -> Result<(), String> {
    let ds = random_dataset(master_seed);
    let cfg = || HeraConfig::new(0.5, 0.5).with_threads(2);

    let (mut full, full_buf) = ingest_all(cfg(), &ds);
    let full_report = full.resolve_progressive(ResolveBudget::unlimited());
    let full_merges = merge_lines(&full_buf.contents());
    let full_f1 = PairMetrics::score(&full.clusters(), &ds.truth).f1();
    let total = full_report.comparisons_spent.max(1);

    let budgets: Vec<u64> = [0.1f64, 0.25, 0.5, 0.75]
        .iter()
        .map(|f| ((total as f64) * f).ceil() as u64)
        .chain([total])
        .collect();

    let mut prev_merges: Vec<String> = Vec::new();
    let mut prev_recall = -1.0f64;
    let mut prev_f1 = -1.0f64;
    for &b in &budgets {
        let (mut s, buf) = ingest_all(cfg(), &ds);
        let report = s.resolve_progressive(ResolveBudget::comparisons(b));
        if report.comparisons_spent > b {
            return Err(format!(
                "budget {b}: overspent ({} comparisons)",
                report.comparisons_spent
            ));
        }
        let journal = buf.contents();
        let merges = merge_lines(&journal);
        if merges.len() != report.merges {
            return Err(format!(
                "budget {b}: journal has {} merge lines, report says {}",
                merges.len(),
                report.merges
            ));
        }
        // Prefix vs the previous (smaller) budget…
        if merges.len() < prev_merges.len() || merges[..prev_merges.len()] != prev_merges[..] {
            return Err(format!(
                "budget {b}: merge sequence is not an extension of the smaller budget's"
            ));
        }
        // …and vs the unlimited run.
        if merges[..] != full_merges[..merges.len()] {
            return Err(format!(
                "budget {b}: merge sequence is not a prefix of the unlimited run's"
            ));
        }
        let m = PairMetrics::score(&s.clusters(), &ds.truth);
        if m.recall() < prev_recall {
            return Err(format!(
                "budget {b}: recall decreased ({} -> {})",
                prev_recall,
                m.recall()
            ));
        }
        if m.f1() < prev_f1 - F1_SLACK {
            return Err(format!(
                "budget {b}: F1 dropped past slack ({prev_f1} -> {})",
                m.f1()
            ));
        }
        prev_merges = merges;
        prev_recall = m.recall();
        prev_f1 = m.f1();
    }
    // The final (full-budget) point reaches the unlimited run exactly.
    if prev_merges.len() != full_merges.len() {
        return Err(format!(
            "full budget emitted {} merges, unlimited emitted {}",
            prev_merges.len(),
            full_merges.len()
        ));
    }
    if (prev_f1 - full_f1).abs() > f64::EPSILON {
        return Err("full budget F1 != unlimited F1".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn budgeted_merges_are_a_prefix_and_quality_is_monotone(master_seed in any::<u64>()) {
        let outcome = check_budget_prefix(master_seed);
        prop_assert!(outcome.is_ok(), "seed {master_seed}: {}", outcome.err().unwrap_or_default());
    }
}

// ---------------------------------------------------------------------
// 3. Checkpoint-resume of an exhausted run (pinned regression).
// ---------------------------------------------------------------------

/// A budgeted run exhausts, checkpoints, restores in a fresh process
/// image, and finishes — bit-identical to never having checkpointed,
/// with the journal round counter carrying on where it stopped rather
/// than rewinding to 1 (the regression `check_rounds_monotonic`
/// guards).
#[test]
fn checkpoint_resume_keeps_rounds_monotonic_and_state_identical() {
    let ds = dataset(31, 40, 8, 1);
    let dir = std::env::temp_dir().join(format!("hera-progressive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("exhausted.hera");
    // Half the full run's spend is guaranteed to bite: a budgeted run
    // that reached the fixpoint under it would contradict the (shared,
    // deterministic) schedule's total.
    let total = {
        let (mut probe, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
        probe
            .resolve_progressive(ResolveBudget::unlimited())
            .comparisons_spent
    };
    assert!(total >= 4, "workload too small to split");
    let budget = ResolveBudget::comparisons(total / 2);

    // Uninterrupted: exhaust the budget, then continue to the fixpoint
    // in the same session.
    let (mut a, a_buf) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let a_report = a.resolve_progressive(budget);
    assert!(
        a_report.exhausted,
        "budget must bite for this test to mean anything"
    );
    assert!(a_report.frontier > 0);
    let a_mid_rounds = a.stats().iterations;
    a.resolve_progressive(ResolveBudget::unlimited());
    let a_journal = a_buf.contents();

    // Interrupted: same budgeted slice, checkpoint, restore, continue.
    let (mut b, b_buf) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let b_report = b.resolve_progressive(budget);
    assert_eq!(a_report, b_report, "budgeted slice must be deterministic");
    b.checkpoint(&snap).unwrap();
    drop(b);
    let (rec2, resumed_buf) = Recorder::to_memory();
    let mut resumed = HeraSession::builder(HeraConfig::new(0.5, 0.5))
        .recorder(rec2.deterministic())
        .restore(&snap)
        .unwrap();
    assert_eq!(
        resumed.stats().iterations,
        a_mid_rounds,
        "round counter survives restore"
    );
    resumed.resolve_progressive(ResolveBudget::unlimited());

    // Final state matches the uninterrupted run exactly.
    assert_eq!(labels_of(&resumed), labels_of(&a));
    assert_eq!(resumed.stats().iterations, a.stats().iterations);
    assert_eq!(resumed.stats().merges, a.stats().merges);
    assert_eq!(resumed.stats().comparisons, a.stats().comparisons);

    // The pre-checkpoint journal plus the resumed journal is exactly the
    // uninterrupted journal — once the checkpoint_save/checkpoint_load
    // IO spans (the only legitimate trace of the interruption) are
    // dropped: the continuation replays byte-identically and rounds keep
    // counting up across the seam.
    let strip_io = |j: &str| -> String {
        j.lines()
            .filter(|l| !l.contains("\"stage\":\"checkpoint_"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let stitched = format!("{}{}", b_buf.contents(), resumed_buf.contents());
    assert_eq!(strip_io(&stitched), a_journal);
    let checked = hera::obs::check_rounds_monotonic(&stitched).unwrap();
    assert!(checked > 0);
    hera::obs::check_rounds_monotonic(&a_journal).unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3b. Quality at a quarter of the budget.
// ---------------------------------------------------------------------

/// The Up/Low scheduler front-loads the merges that carry the F1: on
/// heavy-tailed scale data (duplicate skew 3, where most true pairs sit
/// in a few hub clusters) the first 25 % of the unlimited run's
/// comparisons must reach ≥ 0.8 × its F1. δ = 0.4, ξ = 0.55 keep the
/// frontier wide enough for the order to matter. Both runs restore one
/// ingested base, so they rank the identical frontier. Token blocking
/// keeps ingest affordable in a debug build and measures the same
/// ratio as all-pairs at 1 000 records; below that the ratio is noise.
#[test]
fn quarter_budget_reaches_most_of_full_f1() {
    let cfg = || HeraConfig::new(0.4, 0.55).with_blocking(BlockingScheme::token());
    let dir = std::env::temp_dir().join(format!("hera-progressive-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in [51, 52, 53] {
        let mut scale = scale_preset(2_000, seed);
        scale.duplicate_skew = 3.0;
        let ds = ScaleGenerator::new(scale).generate();
        let snap = dir.join(format!("base-{seed}.hera"));
        ingest_all(cfg(), &ds).0.checkpoint(&snap).unwrap();
        let restore = || HeraSession::builder(cfg()).restore(&snap).unwrap();

        let mut full = restore();
        let total = full
            .resolve_progressive(ResolveBudget::unlimited())
            .comparisons_spent;
        let full_f1 = PairMetrics::score(&full.clusters(), &ds.truth).f1();
        let mut quarter = restore();
        quarter.resolve_progressive(ResolveBudget::comparisons(total.div_ceil(4)));
        let f1 = PairMetrics::score(&quarter.clusters(), &ds.truth).f1();

        assert!(
            full_f1 > 0.0,
            "seed {seed}: the unlimited run found nothing"
        );
        let ratio = f1 / full_f1;
        assert!(
            ratio >= 0.8,
            "seed {seed}: F1(25 %) {f1:.4} is {ratio:.3} × F1(full) {full_f1:.4}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. A resolved session is a true fixpoint.
// ---------------------------------------------------------------------

/// `resolve()` must leave *no* mergeable pair behind: re-marking the
/// whole universe dirty and resolving again performs zero merges. This
/// guards the decide-then-merge-then-skip class of bug — a below-δ
/// verdict for (a, c) memoized early in a call must be re-examined
/// after (a, b) merges under the same root `a`, or the emergent merge
/// (a∪b ≈ c) is silently missed and the "fixpoint" returned here would
/// still have work in it.
///
/// Schema voting is off: decided matchings can retroactively raise the
/// similarity of pairs that are no longer dirty, and resolve() has
/// never re-dirtied the universe on a schema decision (matchings are
/// forward-looking by design — DESIGN.md, "Schema-based method"), so
/// under voting the re-scan can legitimately find late merges.
fn fixpoint_dataset(master_seed: u64) -> hera::Dataset {
    // Emergent merges need clusters whose pooled evidence crosses δ
    // where the fragments alone do not — a heavy-corruption, larger-n
    // regime than `random_dataset` (which almost never produces them).
    let mut s = master_seed;
    let n_records = 40 + (next(&mut s) % 81) as usize; // 40..=120
    let n_entities = 5 + (next(&mut s) % 8) as usize; // 5..=12
    let corruption = 1 + (next(&mut s) % 2) as u8; // moderate | heavy
    dataset(next(&mut s), n_records, n_entities, corruption)
}

fn check_resolved_is_fixpoint(master_seed: u64) -> Result<(), String> {
    let ds = fixpoint_dataset(master_seed);
    for threads in [1usize, 4] {
        let cfg = HeraConfig::new(0.5, 0.5)
            .with_threads(threads)
            .with_ablation(Ablation::NoSchemaVoting);
        let (mut s, _) = ingest_all(cfg, &ds);
        s.resolve();
        let labels = labels_of(&s);
        s.mark_all_dirty();
        let recheck = s.resolve_progressive(ResolveBudget::unlimited());
        if recheck.merges != 0 {
            return Err(format!(
                "[{threads}t] resolve() missed {} emergent merge(s)",
                recheck.merges
            ));
        }
        if recheck.exhausted || recheck.frontier != 0 {
            return Err(format!("[{threads}t] re-scan did not reach the fixpoint"));
        }
        if labels_of(&s) != labels {
            return Err(format!("[{threads}t] re-scan moved entity labels"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resolved_session_is_a_true_fixpoint(master_seed in any::<u64>()) {
        let outcome = check_resolved_is_fixpoint(master_seed);
        prop_assert!(outcome.is_ok(), "seed {master_seed}: {}", outcome.err().unwrap_or_default());
    }
}

/// Pinned decide-then-merge-then-skip regression. On this seed the
/// per-call memo used to keep a below-δ verdict alive after a merge
/// changed its evidence — the maximal matching defers the sibling pair
/// behind the memoized one, producing exactly the
/// decide-then-merge-then-skip ordering — so resolve() returned with an
/// emergent merge missing. The epoch-stamped memo re-verifies the pair
/// once either root's evidence (or the voter's decided-matching set)
/// changes, and the post-resolve re-scan here must find nothing left.
#[test]
fn emergent_merges_survive_the_decided_memo() {
    let ds = dataset(19, 60, 8, 2);
    let (mut s, _) = ingest_all(HeraConfig::new(0.4, 0.5), &ds);
    s.resolve();
    let labels = labels_of(&s);
    s.mark_all_dirty();
    let recheck = s.resolve_progressive(ResolveBudget::unlimited());
    assert_eq!(
        recheck.merges, 0,
        "resolve() left emergent merges on the table"
    );
    assert_eq!(labels_of(&s), labels);
}

/// A merge budget stops between rounds without spending comparisons,
/// and `--budget-merges`-style limits compose with comparison limits.
#[test]
fn merge_budget_stops_cleanly() {
    let ds = dataset(77, 36, 6, 0);
    let (mut s, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let r = s.resolve_progressive(ResolveBudget::merges(3));
    assert!(r.merges <= 3);
    assert!(r.comparisons_deferred <= r.comparisons_spent);
    assert!(r.comparisons_deferred == 0 || r.exhausted);
    if r.exhausted {
        // Spending the rest of the schedule lands on resolve()'s answer.
        let (mut full, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
        let full_merges = full.resolve();
        let rest = s.resolve_progressive(ResolveBudget::unlimited());
        assert_eq!(r.merges + rest.merges, full_merges);
        assert_eq!(labels_of(&s), labels_of(&full));
    }
    // Zero-merge budget is a no-op that reports the frontier.
    let (mut z, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let rz = z.resolve_progressive(ResolveBudget::merges(0));
    assert_eq!(rz.merges, 0);
    assert_eq!(rz.comparisons_spent, 0);
    assert!(rz.exhausted);
    assert!(rz.frontier > 0, "untouched dirty roots are the frontier");
}

// ---------------------------------------------------------------------
// 5. Streaming resolve (ROADMAP item 3(a)): the merge observer.
// ---------------------------------------------------------------------

/// The callback form sees exactly the journal's merge sequence —
/// winner, loser, confidence, in order — and leaves a report and
/// journal bit-identical to `resolve_progressive` under the same
/// budget. A consumer that stops listening after `k` events has seen
/// exactly the merges a merge budget of `k` applies.
#[test]
fn resolve_progressive_with_streams_the_merge_sequence() {
    let ds = dataset(23, 40, 7, 1);
    let mut unlimited_events: Vec<hera::MergeEvent> = Vec::new();
    for budget in [
        ResolveBudget::unlimited(),
        ResolveBudget::comparisons(40),
        ResolveBudget::merges(5),
    ] {
        let (mut polled, polled_buf) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
        let polled_report = polled.resolve_progressive(budget);

        let (mut streamed, streamed_buf) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
        let mut events: Vec<hera::MergeEvent> = Vec::new();
        let streamed_report = streamed.resolve_progressive_with(budget, |e| events.push(e));

        assert_eq!(streamed_report, polled_report);
        assert_eq!(streamed_buf.contents(), polled_buf.contents());
        assert_eq!(events.len(), streamed_report.merges);
        let journal_merges = merge_lines(&streamed_buf.contents());
        assert_eq!(events.len(), journal_merges.len());
        for (e, line) in events.iter().zip(&journal_merges) {
            assert!(
                line.contains(&format!("\"winner\":{}", e.winner))
                    && line.contains(&format!("\"loser\":{}", e.loser)),
                "event {e:?} does not match journal line {line}"
            );
            assert!(e.confidence >= 0.5, "merges never land below δ");
            assert!(e.comparisons_spent <= streamed_report.comparisons_spent);
        }
        // comparisons_spent is non-decreasing along the stream — the
        // x-axis of a progressive-recall curve.
        for w in events.windows(2) {
            assert!(w[0].comparisons_spent <= w[1].comparisons_spent);
        }
        assert_eq!(labels_of(&streamed), labels_of(&polled));
        if let Some(k) = budget.merges {
            assert_eq!(events, unlimited_events[..k as usize]);
        } else if !budget.is_bounded() {
            unlimited_events = events;
        }
    }
}

// ---------------------------------------------------------------------
// 6. Wall-clock budgets (ROADMAP item 3(b)) — best-effort by contract.
// ---------------------------------------------------------------------

/// A zero wall-clock budget stops at the first round boundary without
/// reaching the fixpoint; a generous one reaches exactly resolve()'s
/// answer. (No assertion relates spent time to the budget — wall-clock
/// cuts are best-effort, not bit-exact; see `ResolveBudget::wall_clock`.)
#[test]
fn wall_clock_budget_cuts_and_completes() {
    use std::time::Duration;
    let ds = dataset(41, 48, 7, 1);
    let (mut full, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let full_merges = full.resolve();
    assert!(full_merges > 0);

    let zero = ResolveBudget::wall_clock(Duration::ZERO);
    assert!(zero.is_bounded());
    let (mut starved, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let r = starved.resolve_progressive(zero);
    assert!(r.exhausted, "zero time must report exhaustion");
    assert_eq!(r.comparisons_spent, 0, "deadline met before any round");
    assert!(r.frontier > 0);
    // The cut is a clean boundary: the rest of the schedule still lands
    // on the full answer.
    let rest = starved.resolve_progressive(ResolveBudget::unlimited());
    assert_eq!(r.merges + rest.merges, full_merges);
    assert_eq!(labels_of(&starved), labels_of(&full));

    let generous = ResolveBudget::unlimited().with_wall_clock(Duration::from_secs(3600));
    let (mut relaxed, _) = ingest_all(HeraConfig::new(0.5, 0.5), &ds);
    let rr = relaxed.resolve_progressive(generous);
    assert!(!rr.exhausted);
    assert_eq!(rr.merges, full_merges);
    assert_eq!(labels_of(&relaxed), labels_of(&full));

    // The cost model exists once comparisons were spent, and is sane.
    assert!(relaxed.per_comparison_cost().is_some());
    assert!(starved.per_comparison_cost().unwrap() > Duration::ZERO);
}
