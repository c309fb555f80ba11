//! Scale sweep: generates 10⁴–10⁶-record heterogeneous datasets with the
//! streaming generator, runs the HERA pipeline per size, and records
//! wall-clock, peak RSS and per-stage throughput in
//! `results/BENCH_scale.json`.
//!
//! Each tier runs in a **child process** (the binary re-execs itself with
//! `--child`), so `VmHWM` in `/proc/self/status` is that tier's own peak
//! RSS rather than the high-water mark of whichever tier ran first. The
//! 10⁶ tier is generation-only: the stream is consumed without ever
//! materializing the dataset, which is what bounds its footprint
//! (resolving 10⁶ records end to end awaits blocking on the streaming
//! path — ROADMAP item 2).
//!
//! * `--smoke` — 10⁴ pipeline tier only (the CI perf-gate
//!   workload; see `perf_gate`).
//! * `--out PATH` — artifact path (default `results/BENCH_scale.json`).
//!   The committed perf-gate baseline is refreshed with
//!   `exp_scale --smoke --out results/BENCH_scale_baseline.json`.

use hera_bench::{header, row, BenchReport};
use hera_core::{Hera, HeraConfig, Recorder};
use hera_datagen::{scale_preset, ScaleGenerator};
use hera_types::json::{parse, Json};
use std::process::Command;
use std::time::Instant;

const DELTA: f64 = 0.5;
/// Value-similarity threshold for the scale sweep. The paper's worked
/// example uses ξ = 0.5, but at 10⁵ records the synthetic vocabularies
/// are dense enough that ξ = 0.5 admits a near-quadratic set of one-edit
/// value pairs (the 32k tier alone emits 14M pairs and peaks at 15 GB);
/// the sweep measures the *unblocked* baseline, so it runs at ξ = 0.7,
/// which keeps the candidate funnel selective while still exercising
/// every stage (the blocked pipeline is measured by `exp_blocking`).
const XI: f64 = 0.7;

/// One sweep tier: record count, generator seed, and how far to run.
struct Tier {
    n: usize,
    seed: u64,
    /// `"pipeline"` = generate → join → resolve; `"gen"` = stream the
    /// generator without materializing anything.
    mode: &'static str,
}

/// The full sweep. Seeds 51/52/53 match the `scale_10k`/`scale_100k`/
/// `scale_1m` presets; the 32k tier fills in the curve between them.
const FULL_TIERS: &[Tier] = &[
    Tier {
        n: 10_000,
        seed: 51,
        mode: "pipeline",
    },
    Tier {
        n: 32_000,
        seed: 54,
        mode: "pipeline",
    },
    Tier {
        n: 100_000,
        seed: 52,
        mode: "pipeline",
    },
    Tier {
        n: 1_000_000,
        seed: 53,
        mode: "gen",
    },
];

const SMOKE_TIERS: &[Tier] = &[Tier {
    n: 10_000,
    seed: 51,
    mode: "pipeline",
}];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |i: usize, usage: &str| -> &String {
        args.get(i).unwrap_or_else(|| {
            eprintln!("exp_scale: {usage}");
            std::process::exit(2);
        })
    };
    if let Some(i) = args.iter().position(|a| a == "--child") {
        let usage = "--child requires N SEED MODE";
        let n: usize = value_of(i + 1, usage).parse().expect("--child N");
        let seed: u64 = value_of(i + 2, usage).parse().expect("--child N SEED");
        let mode = value_of(i + 3, usage).as_str();
        let tier = match mode {
            "pipeline" => run_pipeline_tier(n, seed),
            "gen" => run_gen_tier(n, seed),
            other => panic!("unknown child mode {other:?}"),
        };
        // The JSON document is the child's entire stdout contract;
        // progress goes to stderr.
        println!("{}", tier.to_string_compact());
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| value_of(i + 1, "--out requires a PATH").clone())
        .unwrap_or_else(|| "results/BENCH_scale.json".to_string());
    let tiers = if smoke { SMOKE_TIERS } else { FULL_TIERS };

    println!(
        "# Scale sweep (δ = {DELTA}, ξ = {XI}, {} tier{})\n",
        tiers.len(),
        if tiers.len() == 1 { "" } else { "s" }
    );
    header(&[
        "records",
        "mode",
        "gen (ms)",
        "gen rec/s",
        "join (ms)",
        "pairs",
        "resolve (ms)",
        "merges",
        "RSS (MB)",
    ]);

    let exe = std::env::current_exe().expect("current_exe");
    let mut tier_entries: Vec<Json> = Vec::new();
    for t in tiers {
        let output = Command::new(&exe)
            .args(["--child", &t.n.to_string(), &t.seed.to_string(), t.mode])
            .output()
            .expect("spawn child tier");
        assert!(
            output.status.success(),
            "tier {} failed:\n{}",
            t.n,
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
        let line = stdout.lines().last().expect("child printed a JSON line");
        let tier = parse(line).expect("child JSON parses");
        let get_f = |k: &str| tier.get(k).and_then(|v| v.as_f64().ok());
        let fmt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.0}"));
        row(&[
            t.n.to_string(),
            t.mode.to_string(),
            fmt(get_f("gen_ms")),
            fmt(get_f("gen_records_per_sec")),
            fmt(get_f("join_ms")),
            fmt(get_f("pairs")),
            fmt(get_f("resolve_ms")),
            fmt(get_f("merges")),
            fmt(get_f("peak_rss_mb")),
        ]);
        tier_entries.push(tier);
    }

    // Per-tier pair realization, spelled out so candidate blowup is
    // visible in CI logs without opening the artifact or the journal.
    println!();
    let mut headline_candidates: Option<(u64, f64)> = None;
    for tier in &tier_entries {
        if tier.get("mode").and_then(|m| m.as_str().ok()) != Some("pipeline") {
            continue;
        }
        let n = tier
            .get("records")
            .and_then(|v| v.as_i64().ok())
            .unwrap_or(0);
        let pairs = tier.get("pairs").and_then(|v| v.as_i64().ok()).unwrap_or(0);
        let quad = n as f64 * (n as f64 - 1.0) / 2.0;
        let rr = if quad > 0.0 {
            1.0 - pairs as f64 / quad
        } else {
            0.0
        };
        println!(
            "summary: {n} records -> {pairs} value pairs \
             ({:.1} per record, reduction {rr:.4} vs n(n-1)/2)",
            pairs as f64 / (n as f64).max(1.0)
        );
        // Envelope headline: the smoke tier (smallest pipeline tier,
        // first in the sweep) — the one perf_gate compares.
        if headline_candidates.is_none() {
            headline_candidates = Some((pairs as u64, rr));
        }
    }

    let mut report = BenchReport::new("scale_sweep");
    if let Some((pairs, rr)) = headline_candidates {
        report = report.candidates(pairs, rr);
    }
    report
        .note(&format!(
            "delta={DELTA} xi={XI}; each tier runs in its own child process so peak_rss_mb is \
             per-tier VmHWM; the 10^6 tier is generation-only (streamed, never materialized)"
        ))
        .section("tiers", Json::Arr(tier_entries))
        .write(&out);
}

/// Generate → join → resolve at one size, reporting wall-clock, the
/// journal's per-stage timings, and this process's peak RSS.
fn run_pipeline_tier(n: usize, seed: u64) -> Json {
    let gen = ScaleGenerator::new(scale_preset(n, seed));
    eprintln!("[{n}] generating…");
    let t0 = Instant::now();
    let ds = gen.generate();
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (recorder, journal) = Recorder::to_memory();
    let hera = Hera::builder(HeraConfig::new(DELTA, XI))
        .recorder(recorder)
        .build();

    eprintln!("[{n}] joining…");
    let t0 = Instant::now();
    let pairs = hera.join(&ds);
    let join_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The realized pair count is the sweep's blowup indicator — log it
    // where CI sees it even if a later stage dies.
    eprintln!("[{n}] join done: {} value pairs", pairs.len());

    eprintln!("[{n}] resolving…");
    let t0 = Instant::now();
    let result = hera.run_with_pairs(&ds, pairs.clone()).unwrap();
    let resolve_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = &result.stats;

    let join_s = (join_ms / 1e3).max(1e-9);
    let resolve_s = (resolve_wall_ms / 1e3).max(1e-9);
    Json::Obj(vec![
        ("name".into(), Json::Str(ds.name.clone())),
        ("mode".into(), Json::Str("pipeline".into())),
        ("records".into(), Json::Int(n as i64)),
        ("entities".into(), Json::Int(ds.truth.entity_count() as i64)),
        ("seed".into(), Json::Int(seed as i64)),
        ("gen_ms".into(), Json::Float(gen_ms)),
        (
            "gen_records_per_sec".into(),
            Json::Float(n as f64 / (gen_ms / 1e3).max(1e-9)),
        ),
        ("join_ms".into(), Json::Float(join_ms)),
        ("pairs".into(), Json::Int(pairs.len() as i64)),
        (
            "join_pairs_per_sec".into(),
            Json::Float(pairs.len() as f64 / join_s),
        ),
        (
            "index_ms".into(),
            Json::Float(stats.index_build_time.as_secs_f64() * 1e3),
        ),
        ("index_entries".into(), Json::Int(stats.index_size as i64)),
        ("resolve_ms".into(), Json::Float(resolve_wall_ms)),
        (
            "resolve_records_per_sec".into(),
            Json::Float(n as f64 / resolve_s),
        ),
        (
            "verify_ms".into(),
            Json::Float(stats.verify_time.as_secs_f64() * 1e3),
        ),
        ("iterations".into(), Json::Int(stats.iterations as i64)),
        ("comparisons".into(), Json::Int(stats.comparisons as i64)),
        ("merges".into(), Json::Int(stats.merges as i64)),
        ("peak_rss_mb".into(), peak_rss_mb()),
        ("stages".into(), stage_timings(&journal.contents())),
    ])
}

/// Stream the generator at one size without materializing a dataset —
/// the footprint stays O(sources · attrs) no matter how large `n` is.
fn run_gen_tier(n: usize, seed: u64) -> Json {
    let gen = ScaleGenerator::new(scale_preset(n, seed));
    eprintln!("[{n}] streaming (generation only)…");
    let t0 = Instant::now();
    let mut records = 0u64;
    let mut checksum = 0u64;
    for spec in gen.stream() {
        records += 1;
        // Fold every value into a checksum so the stream is actually
        // rendered (and so reruns can be compared for determinism).
        for v in &spec.values {
            for b in v.to_text().as_bytes() {
                checksum = checksum.rotate_left(5) ^ u64::from(*b);
            }
        }
    }
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(records as usize, n);
    Json::Obj(vec![
        ("name".into(), Json::Str(format!("scale_{n}"))),
        ("mode".into(), Json::Str("gen".into())),
        ("records".into(), Json::Int(n as i64)),
        ("seed".into(), Json::Int(seed as i64)),
        ("gen_ms".into(), Json::Float(gen_ms)),
        (
            "gen_records_per_sec".into(),
            Json::Float(n as f64 / (gen_ms / 1e3).max(1e-9)),
        ),
        ("stream_checksum".into(), Json::Int(checksum as i64)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ])
}

/// Sums the journal's diagnostic `timing` lines per stage (ms).
fn stage_timings(journal: &str) -> Json {
    let mut stages: Vec<(String, f64)> = Vec::new();
    for line in journal.lines() {
        let Ok(ev) = parse(line) else { continue };
        if ev.get("ev").and_then(|v| v.as_str().ok()) != Some("timing") {
            continue;
        }
        let (Some(stage), Some(us)) = (
            ev.get("stage").and_then(|v| v.as_str().ok()),
            ev.get("wall_us").and_then(|v| v.as_f64().ok()),
        ) else {
            continue;
        };
        match stages.iter_mut().find(|(s, _)| s == stage) {
            Some((_, total)) => *total += us / 1e3,
            None => stages.push((stage.to_owned(), us / 1e3)),
        }
    }
    Json::Obj(
        stages
            .into_iter()
            .map(|(s, ms)| (format!("{s}_ms"), Json::Float(ms)))
            .collect(),
    )
}

/// `VmHWM` from `/proc/self/status`, in MB (`null` off Linux).
fn peak_rss_mb() -> Json {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Json::Null;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return Json::Float(kb / 1024.0);
            }
        }
    }
    Json::Null
}
