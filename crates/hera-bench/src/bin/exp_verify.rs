//! Verification-memoization experiment: measures verify-stage throughput
//! with the merge-aware similarity cache on vs off, on a multi-round
//! workload where every round re-verifies the surviving candidate pairs
//! (see `hera_bench::verify_workload`), plus the end-to-end pipeline at
//! 1 and N threads. Results are asserted bit-identical in every
//! configuration; `results/BENCH_verify.json` records the numbers.
//!
//! `--smoke` runs a miniature workload and skips the JSON write (used by
//! CI to exercise the path without clobbering the committed artifact).

use hera_bench::verify_workload::VerifyWorkload;
use hera_bench::{header, row, BenchReport};
use hera_core::{Hera, HeraConfig, InstanceVerifier, SimCache, VerifyScratch};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use hera_sim::{MongeElkan, TypeDispatch};
use hera_types::json::Json;
use hera_types::Dataset;
use std::sync::Arc;
use std::time::Instant;

/// Per-round numbers from one sweep run.
struct RoundStats {
    pairs: u64,
    sweep_ms: f64,
    metric_calls: u64,
    hits: u64,
}

/// Outcome of a full multi-round sweep (one cache mode).
struct SweepOutcome {
    rounds: Vec<RoundStats>,
    sweep_ms: f64,
    verified: u64,
    metric_calls: u64,
    hits: u64,
    /// Bit patterns of every verified `sim`, in sweep order — the two
    /// cache modes must produce the very same sequence.
    sims: Vec<u64>,
    cache_size: usize,
    cache_invalidated: u64,
}

fn dataset(smoke: bool) -> Dataset {
    let (n_records, n_entities) = if smoke { (100, 10) } else { (400, 10) };
    Generator::new(DatagenConfig {
        name: "verify-bench".into(),
        seed: 7,
        n_records,
        n_entities,
        n_attrs: 14,
        n_sources: 5,
        min_source_attrs: 7,
        max_source_attrs: 12,
        corruption: CorruptionConfig::heavy(),
        domain: Default::default(),
    })
    .generate()
}

/// Runs the multi-round sweep: verify every surviving candidate pair,
/// merge one ground-truth round, repeat until converged.
fn sweep(ds: &Dataset, xi: f64, cached: bool) -> SweepOutcome {
    // Monge–Elkan keeps the string comparisons honest-expensive (the
    // hybrid-metric configuration); dispatch still routes numerics.
    let metric = TypeDispatch::paper_default().with_string_metric(Arc::new(MongeElkan::default()));
    let mut w = VerifyWorkload::build(ds.clone(), xi, &metric);
    let verifier = InstanceVerifier::new(&metric, xi, true);
    let mut cache = cached.then(SimCache::new);
    let mut scratch = VerifyScratch::new();
    let mut out = SweepOutcome {
        rounds: Vec::new(),
        sweep_ms: 0.0,
        verified: 0,
        metric_calls: 0,
        hits: 0,
        sims: Vec::new(),
        cache_size: 0,
        cache_invalidated: 0,
    };
    loop {
        let list = w.candidates();
        let mut round = RoundStats {
            pairs: list.len() as u64,
            sweep_ms: 0.0,
            metric_calls: 0,
            hits: 0,
        };
        let t0 = Instant::now();
        for &(i, j) in &list {
            let v = verifier.verify_with(
                &w.index,
                &w.supers[&i],
                &w.supers[&j],
                &w.ds.registry,
                Some(&w.voter),
                cache.as_ref(),
                &mut scratch,
            );
            round.metric_calls += scratch.delta.metric_calls;
            round.hits += scratch.delta.hits;
            if let Some(c) = cache.as_mut() {
                c.apply(&scratch.delta);
            }
            out.sims.push(v.sim.to_bits());
        }
        round.sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.sweep_ms += round.sweep_ms;
        out.verified += round.pairs;
        out.metric_calls += round.metric_calls;
        out.hits += round.hits;
        out.rounds.push(round);
        if !w.merge_truth_round(&verifier, &mut cache, &mut scratch) {
            break;
        }
    }
    if let Some(c) = &cache {
        c.check_invariants().expect("cache invariants");
        out.cache_size = c.len();
        out.cache_invalidated = c.invalidated();
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    let ds = dataset(smoke);
    let xi = 0.6;

    // ---- Part 1: the verify-stage sweep, cache on vs off.
    println!(
        "# Verify-stage memoization ({} records, {} entities, ξ = {xi})\n",
        ds.len(),
        ds.truth.entity_count()
    );
    let mut on = sweep(&ds, xi, true);
    let mut off = sweep(&ds, xi, false);
    for _ in 1..reps {
        let r = sweep(&ds, xi, true);
        if r.sweep_ms < on.sweep_ms {
            on = r;
        }
        let r = sweep(&ds, xi, false);
        if r.sweep_ms < off.sweep_ms {
            off = r;
        }
    }
    assert_eq!(
        on.sims, off.sims,
        "cached and uncached sweeps must be bit-identical"
    );
    assert_eq!(off.hits, 0, "uncached sweep must report no cache traffic");
    assert!(
        on.metric_calls < off.metric_calls,
        "the cache must save metric calls"
    );

    header(&[
        "round",
        "pairs",
        "cached (ms)",
        "uncached (ms)",
        "metric calls (c)",
        "metric calls (u)",
        "hits",
    ]);
    let mut round_entries: Vec<Json> = Vec::new();
    for (r, (a, b)) in on.rounds.iter().zip(&off.rounds).enumerate() {
        row(&[
            r.to_string(),
            a.pairs.to_string(),
            format!("{:.1}", a.sweep_ms),
            format!("{:.1}", b.sweep_ms),
            a.metric_calls.to_string(),
            b.metric_calls.to_string(),
            a.hits.to_string(),
        ]);
        round_entries.push(Json::Obj(vec![
            ("round".into(), Json::Int(r as i64)),
            ("pairs".into(), Json::Int(a.pairs as i64)),
            ("cached_ms".into(), Json::Float(a.sweep_ms)),
            ("uncached_ms".into(), Json::Float(b.sweep_ms)),
            (
                "cached_metric_calls".into(),
                Json::Int(a.metric_calls as i64),
            ),
            (
                "uncached_metric_calls".into(),
                Json::Int(b.metric_calls as i64),
            ),
            ("cache_hits".into(), Json::Int(a.hits as i64)),
        ]));
    }
    let speedup = off.sweep_ms / on.sweep_ms;
    let throughput_on = on.verified as f64 / (on.sweep_ms / 1e3);
    let throughput_off = off.verified as f64 / (off.sweep_ms / 1e3);
    println!(
        "\nsweep totals: {} pairs verified | cached {:.1} ms ({:.0} pairs/s) vs uncached {:.1} ms \
         ({:.0} pairs/s) → {speedup:.2}× | metric calls {} vs {} | {:.0}% hit rate | {} live \
         entries, {} invalidated",
        on.verified,
        on.sweep_ms,
        throughput_on,
        off.sweep_ms,
        throughput_off,
        on.metric_calls,
        off.metric_calls,
        100.0 * on.hits as f64 / (on.hits + on.metric_calls).max(1) as f64,
        on.cache_size,
        on.cache_invalidated,
    );

    // ---- Part 2: end-to-end pipeline, cache on/off × 1/N threads.
    let n_threads = hera_bench::host_cpus().clamp(2, 8);
    println!("\n# End-to-end pipeline (δ = 0.45, ξ = {xi})\n");
    header(&[
        "threads",
        "cache",
        "resolve (ms)",
        "verify (ms)",
        "metric calls",
        "hit rate",
    ]);
    let mut pipeline_entries: Vec<Json> = Vec::new();
    let mut baseline_entity_of: Option<Vec<u32>> = None;
    let mut baseline_traffic: Option<(u64, u64)> = None;
    for &threads in &[1usize, n_threads] {
        for &cache_on in &[true, false] {
            let mut cfg = HeraConfig::new(0.45, xi).with_threads(threads);
            // Eager voting keeps the forced-pair path (the metric-calling
            // one) hot, like the sweep above.
            cfg.vote_min_n = 2;
            cfg.vote_error_threshold = 0.8;
            if !cache_on {
                cfg = cfg.without_sim_cache();
            }
            let hera = Hera::builder(cfg).build();
            let mut resolve_ms = f64::INFINITY;
            let mut result = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = hera.run(&ds).unwrap();
                resolve_ms = resolve_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                result = Some(r);
            }
            let r = result.expect("at least one rep ran");
            match &baseline_entity_of {
                None => baseline_entity_of = Some(r.entity_of.clone()),
                Some(base) => assert_eq!(
                    base, &r.entity_of,
                    "{threads}-thread cache={cache_on} run must be bit-identical"
                ),
            }
            if cache_on {
                // Cache traffic is part of the determinism contract too.
                match baseline_traffic {
                    None => {
                        baseline_traffic = Some((r.stats.sim_cache_hits, r.stats.sim_cache_misses))
                    }
                    Some(t) => assert_eq!(
                        t,
                        (r.stats.sim_cache_hits, r.stats.sim_cache_misses),
                        "cache traffic must not depend on thread count"
                    ),
                }
            }
            row(&[
                threads.to_string(),
                if cache_on { "on" } else { "off" }.to_string(),
                format!("{resolve_ms:.1}"),
                format!("{:.1}", r.stats.verify_time.as_secs_f64() * 1e3),
                r.stats.metric_sim_calls.to_string(),
                format!("{:.0}%", r.stats.sim_cache_hit_rate() * 100.0),
            ]);
            pipeline_entries.push(Json::Obj(vec![
                ("threads".into(), Json::Int(threads as i64)),
                (
                    "sim_cache".into(),
                    Json::Str(if cache_on { "on" } else { "off" }.into()),
                ),
                ("resolve_ms".into(), Json::Float(resolve_ms)),
                (
                    "verify_ms".into(),
                    Json::Float(r.stats.verify_time.as_secs_f64() * 1e3),
                ),
                (
                    "metric_sim_calls".into(),
                    Json::Int(r.stats.metric_sim_calls as i64),
                ),
                (
                    "metric_calls_by_round".into(),
                    Json::Arr(
                        r.stats
                            .metric_calls_by_round
                            .iter()
                            .map(|&c| Json::Int(c as i64))
                            .collect(),
                    ),
                ),
                (
                    "cache_hits".into(),
                    Json::Int(r.stats.sim_cache_hits as i64),
                ),
                (
                    "cache_misses".into(),
                    Json::Int(r.stats.sim_cache_misses as i64),
                ),
                ("merges".into(), Json::Int(r.stats.merges as i64)),
            ]));
        }
    }

    // ---- Part 3: one traced run — the journal rides next to the JSON
    // artifact. Smoke mode exercises the full serialization path through
    // a null sink instead of touching results/.
    let trace_path = "results/TRACE_verify.jsonl";
    let recorder = if smoke {
        hera_obs::Recorder::to_null()
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        hera_obs::Recorder::to_file(trace_path).expect("create trace journal")
    };
    let mut traced_cfg = HeraConfig::new(0.45, xi).with_threads(n_threads);
    traced_cfg.vote_min_n = 2;
    traced_cfg.vote_error_threshold = 0.8;
    let traced = Hera::builder(traced_cfg)
        .recorder(recorder.clone())
        .build()
        .run(&ds)
        .unwrap();
    recorder.flush();
    assert_eq!(
        baseline_entity_of.as_deref(),
        Some(traced.entity_of.as_slice()),
        "traced run must be bit-identical to the untraced pipeline"
    );
    if !smoke {
        let text = std::fs::read_to_string(trace_path).expect("read trace journal back");
        let summary = hera_obs::validate(&text).expect("trace journal validates");
        assert_eq!(summary.count("merge"), traced.stats.merges);
        println!("\nwrote {trace_path} ({} journal lines)", summary.lines);
    }

    if smoke {
        println!("\nsmoke mode: skipping results/BENCH_verify.json");
        return;
    }
    BenchReport::new("verify_memoization")
        .dataset_with_entities(&ds.name, ds.len(), ds.truth.entity_count())
        .reps(reps)
        .note(
            "sweep = verify all surviving candidate pairs each round, then merge one \
             ground-truth tree-reduction round; Monge–Elkan string metric; results are \
             bit-identical cache on/off and at every thread count",
        )
        .section(
            "sweep",
            Json::Obj(vec![
                ("pairs_verified".into(), Json::Int(on.verified as i64)),
                ("cached_ms".into(), Json::Float(on.sweep_ms)),
                ("uncached_ms".into(), Json::Float(off.sweep_ms)),
                ("speedup".into(), Json::Float(speedup)),
                ("cached_pairs_per_sec".into(), Json::Float(throughput_on)),
                ("uncached_pairs_per_sec".into(), Json::Float(throughput_off)),
                (
                    "cached_metric_calls".into(),
                    Json::Int(on.metric_calls as i64),
                ),
                (
                    "uncached_metric_calls".into(),
                    Json::Int(off.metric_calls as i64),
                ),
                ("cache_hits".into(), Json::Int(on.hits as i64)),
                ("cache_entries".into(), Json::Int(on.cache_size as i64)),
                (
                    "cache_invalidated".into(),
                    Json::Int(on.cache_invalidated as i64),
                ),
                ("rounds".into(), Json::Arr(round_entries)),
            ]),
        )
        .section("pipeline", Json::Arr(pipeline_entries))
        .write("results/BENCH_verify.json");
}
