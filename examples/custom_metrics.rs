//! Swapping the similarity black box: the paper's `simv` is pluggable
//! ("other string similarity functions, such as Soft TF-IDF, edit
//! distance, etc, could be served as alternatives" — §II-A). Any
//! `ValueSimilarity` can stand in for the paper's stack; this example
//! defines its own kind router, hands HERA a few stacks built with it and
//! compares quality on D_m1.
//!
//! ```sh
//! cargo run --release --example custom_metrics
//! ```

use hera::{
    EditSimilarity, Hera, HeraConfig, NumericProximity, PairMetrics, QGramJaccard, TypeDispatch,
    Value, ValueKind, ValueSimilarity,
};
use std::sync::Arc;
use std::time::Instant;

/// A `simv` of our own: number × number goes to numeric proximity at
/// `scale`, any other pair of non-nulls to the string metric `S` (over
/// text renderings, so `"1984"` still meets `1984`), nulls score 0.
struct ByKind<S> {
    string: S,
    number: NumericProximity,
}

impl<S: ValueSimilarity> ByKind<S> {
    fn new(string: S, scale: f64) -> Self {
        let number = NumericProximity::new(scale);
        Self { string, number }
    }
}

impl<S: ValueSimilarity> ValueSimilarity for ByKind<S> {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        let num = |v: &Value| matches!(v.kind(), ValueKind::Int | ValueKind::Float);
        if a.is_null() || b.is_null() {
            0.0
        } else if num(a) && num(b) {
            self.number.sim(a, b)
        } else {
            self.string.sim(a, b)
        }
    }

    fn name(&self) -> &'static str {
        "by-kind"
    }

    /// Names both legs, so a session checkpointed under one stack is
    /// refused a restore under another.
    fn fingerprint(&self) -> String {
        let (string, number) = (self.string.fingerprint(), self.number.fingerprint());
        format!("by-kind(string={string},number={number})")
    }

    /// Declaring the string leg's gram length lets the join score text
    /// pairs from gram signatures, as it does for the paper's stack.
    fn qgram_compatible(&self) -> Option<usize> {
        self.string.qgram_compatible()
    }
}

fn main() {
    let ds = hera::table1_dataset("dm1");
    println!(
        "{}: {} records, {} entities — same data, different simv black boxes\n",
        ds.name,
        ds.len(),
        ds.truth.entity_count()
    );

    let stacks: Vec<(&str, Arc<dyn ValueSimilarity>)> = vec![
        (
            "2-gram Jaccard (paper default)",
            Arc::new(TypeDispatch::paper_default()),
        ),
        (
            "3-gram Jaccard",
            Arc::new(ByKind::new(QGramJaccard::new(3), 1.0)),
        ),
        ("edit distance", Arc::new(ByKind::new(EditSimilarity, 1.0))),
        (
            "forgiving years (numeric scale 3)",
            Arc::new(ByKind::new(QGramJaccard::default(), 3.0)),
        ),
    ];

    let (delta, xi) = (0.5, 0.5);
    println!(
        "{:<36} {:>4} {:>4} {:>7} {:>7} {:>7} {:>10}",
        "metric stack", "δ", "ξ", "P", "R", "F1", "time"
    );
    for (name, metric) in stacks {
        let t = Instant::now();
        let result = Hera::builder(HeraConfig::new(delta, xi))
            .metric(metric)
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
         only for q-gram Jaccard, so under edit distance the join asks the\n\
         metric about every pair of values sharing a gram — the rule streaming\n\
         ingest probes with, so both find the same pairs — and runs slower\n\
         (see hera-join docs)."
    );
}
