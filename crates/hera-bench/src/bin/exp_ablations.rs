//! Ablations A1–A4 (DESIGN.md): the design choices behind HERA's
//! efficiency and quality, each toggled in isolation.
//!
//! * **A1** — index vs nest-loop verification (the paper claims the index
//!   cuts similarity computation by ~3 orders of magnitude);
//! * **A2** — Kuhn–Munkres vs greedy field matching;
//! * **A3** — schema-based method on/off;
//! * **A4** — BoundMode::Paper vs BoundMode::Sound candidate generation.

use hera_baselines::eval::PairMetrics;
use hera_bench::{header, row, run_at_delta, shared_join, XI};
use hera_core::{Ablation, BoundMode, Hera, HeraConfig, InstanceVerifier, SuperRecord};
use hera_index::ValuePairIndex;
use hera_sim::TypeDispatch;
use std::time::Instant;

fn main() {
    let ds = hera_datagen::table1_dataset("dm2");
    let pairs = shared_join(&ds);
    println!("# Ablations on {} (δ = ξ = 0.5)\n", ds.name);

    // ---- A1: indexed vs nest-loop verification on real record pairs.
    println!("## A1: index vs nest-loop record-similarity computation\n");
    let metric = TypeDispatch::paper_default();
    let index = ValuePairIndex::build(pairs.clone());
    let supers: Vec<SuperRecord> = ds
        .iter()
        .map(|r| SuperRecord::from_record(&ds, r))
        .collect();
    let sample: Vec<(u32, u32)> = index.record_pairs().take(2000).collect();
    let verifier = InstanceVerifier::new(&metric, XI, true);
    let t = Instant::now();
    let mut acc = 0.0;
    for &(i, j) in &sample {
        acc += verifier
            .verify(
                &index,
                &supers[i as usize],
                &supers[j as usize],
                &ds.registry,
                None,
            )
            .sim;
    }
    let indexed = t.elapsed();
    let nest = hera_baselines::NestLoopVerifier::new(XI);
    let t = Instant::now();
    let mut acc2 = 0.0;
    for &(i, j) in &sample {
        acc2 += nest.similarity(&supers[i as usize], &supers[j as usize], &metric);
    }
    let nested = t.elapsed();
    header(&["method", "pairs", "total", "per pair", "Σ sim (agreement)"]);
    row(&[
        "indexed".into(),
        sample.len().to_string(),
        format!("{indexed:.1?}"),
        format!("{:.2?}", indexed / sample.len() as u32),
        format!("{acc:.3}"),
    ]);
    row(&[
        "nest-loop".into(),
        sample.len().to_string(),
        format!("{nested:.1?}"),
        format!("{:.2?}", nested / sample.len() as u32),
        format!("{acc2:.3}"),
    ]);
    println!(
        "\nspeedup: {:.0}× (paper claims ~3 orders of magnitude; Σ sim agree: {})\n",
        nested.as_secs_f64() / indexed.as_secs_f64().max(1e-12),
        (acc - acc2).abs() < 1e-6
    );

    // ---- A2: Kuhn–Munkres vs greedy matching inside HERA.
    println!("## A2: Kuhn–Munkres vs greedy field matching\n");
    header(&["matcher", "P", "R", "F1", "resolve time"]);
    for (name, ablation) in [
        ("Kuhn–Munkres", Ablation::None),
        ("greedy", Ablation::GreedyMatching),
    ] {
        let result = Hera::builder(HeraConfig::new(0.5, XI).with_ablation(ablation))
            .build()
            .run_with_pairs(&ds, pairs.clone())
            .unwrap();
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        row(&[
            name.into(),
            format!("{:.3}", m.precision()),
            format!("{:.3}", m.recall()),
            format!("{:.3}", m.f1()),
            format!("{:.1?}", result.stats.resolve_time),
        ]);
    }

    // ---- A3: schema-based method on/off.
    println!("\n## A3: schema-based method (majority voting)\n");
    header(&[
        "voting",
        "P",
        "R",
        "F1",
        "matchings decided",
        "resolve time",
    ]);
    for (name, ablation) in [("on", Ablation::None), ("off", Ablation::NoSchemaVoting)] {
        let result = Hera::builder(HeraConfig::new(0.5, XI).with_ablation(ablation))
            .build()
            .run_with_pairs(&ds, pairs.clone())
            .unwrap();
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        row(&[
            name.into(),
            format!("{:.3}", m.precision()),
            format!("{:.3}", m.recall()),
            format!("{:.3}", m.f1()),
            result.schema_matchings.len().to_string(),
            format!("{:.1?}", result.stats.resolve_time),
        ]);
    }

    // ---- A4: bound modes.
    println!("\n## A4: candidate-generation bound modes\n");
    header(&[
        "mode",
        "P",
        "R",
        "F1",
        "pruned",
        "direct",
        "verified",
        "resolve time",
    ]);
    for (name, mode) in [("Sound", BoundMode::Sound), ("Paper", BoundMode::Paper)] {
        let cfg = HeraConfig::new(0.5, XI).with_bound_mode(mode);
        let result = Hera::builder(cfg)
            .build()
            .run_with_pairs(&ds, pairs.clone())
            .unwrap();
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        let s = &result.stats;
        row(&[
            name.into(),
            format!("{:.3}", m.precision()),
            format!("{:.3}", m.recall()),
            format!("{:.3}", m.f1()),
            s.pruned.to_string(),
            s.direct_decisions.to_string(),
            s.comparisons.to_string(),
            format!("{:.1?}", s.resolve_time),
        ]);
    }
    let _ = run_at_delta; // shared helper exercised elsewhere
}
