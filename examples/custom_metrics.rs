//! Swapping the similarity black box: the paper's `simv` is pluggable
//! ("other string similarity functions, such as Soft TF-IDF, edit
//! distance, etc, could be served as alternatives" — §II-A). This example
//! runs HERA over D_m1 under several metric stacks and compares quality.
//!
//! ```sh
//! cargo run --release --example custom_metrics
//! ```

use hera::{
    EditSimilarity, Hera, HeraConfig, MongeElkan, NumericProximity, PairMetrics, QGramJaccard,
    SoftTfIdf, TypeDispatch,
};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let ds = hera::table1_dataset("dm1");
    println!(
        "{}: {} records, {} entities — same data, different simv black boxes\n",
        ds.name,
        ds.len(),
        ds.truth.entity_count()
    );

    // Train Soft TF-IDF on the dataset's own string values (its IDF table
    // needs a corpus; the value universe is the natural one).
    let corpus: Vec<String> = ds
        .iter()
        .flat_map(|r| r.values.iter())
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    let soft = SoftTfIdf::train(corpus.iter().map(String::as_str), 0.9);

    // Each stack carries its own (δ, ξ): looser metrics (Monge-Elkan
    // scores any token-ish overlap highly) need stricter thresholds —
    // tuning δ/ξ per metric is exactly the knob the paper leaves to the
    // user.
    let stacks: Vec<(&str, TypeDispatch, f64, f64)> = vec![
        (
            "2-gram Jaccard (paper default)",
            TypeDispatch::paper_default(),
            0.5,
            0.5,
        ),
        (
            "3-gram Jaccard",
            TypeDispatch::paper_default().with_string_metric(Arc::new(QGramJaccard::new(3))),
            0.5,
            0.5,
        ),
        (
            "edit distance",
            TypeDispatch::paper_default().with_string_metric(Arc::new(EditSimilarity)),
            0.5,
            0.5,
        ),
        (
            "Monge-Elkan / Jaro-Winkler (strict)",
            TypeDispatch::paper_default().with_string_metric(Arc::new(MongeElkan::default())),
            0.62,
            0.72,
        ),
        (
            "Soft TF-IDF (trained on the data)",
            TypeDispatch::paper_default().with_string_metric(Arc::new(soft)),
            0.5,
            0.5,
        ),
        (
            "forgiving years (numeric scale 3)",
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(3.0))),
            0.5,
            0.5,
        ),
    ];

    println!(
        "{:<36} {:>4} {:>4} {:>7} {:>7} {:>7} {:>10}",
        "metric stack", "δ", "ξ", "P", "R", "F1", "time"
    );
    for (name, metric, delta, xi) in stacks {
        let t = Instant::now();
        let result = Hera::builder(HeraConfig::new(delta, xi))
            .metric(Arc::new(metric))
            .build()
            .run(&ds)
            .expect("resolution failed");
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        println!(
            "{:<36} {:>4.2} {:>4.2} {:>7.3} {:>7.3} {:>7.3} {:>9.1?}",
            name,
            delta,
            xi,
            m.precision(),
            m.recall(),
            m.f1(),
            t.elapsed()
        );
    }

    println!(
        "\nNote: the join's signature fast path and its prefix filter are exact\n\
         only for q-gram Jaccard, so under the other stacks the join asks the\n\
         metric about every pair of values sharing a gram — the rule streaming\n\
         ingest probes with, so both find the same pairs — and runs slower\n\
         (see hera-join docs)."
    );
}
