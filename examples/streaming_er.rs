//! Streaming entity resolution: records arrive one at a time from
//! heterogeneous sources and resolve immediately against everything seen
//! so far — HERA as a long-running service rather than a batch job.
//!
//! ```sh
//! cargo run --release --example streaming_er
//! ```

use hera::core::HeraSession;
use hera::{HeraConfig, PairMetrics};
use std::time::Instant;

fn main() {
    let ds = hera::table1_dataset("dm1");
    println!(
        "streaming {} records from {} heterogeneous sources...\n",
        ds.len(),
        ds.registry.len()
    );

    let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    let schemas = session.mirror_schemas(&ds.registry);

    let t = Instant::now();
    let mut latencies = Vec::with_capacity(ds.len());
    for (i, rec) in ds.iter().enumerate() {
        let t_rec = Instant::now();
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .expect("schema-aligned record");
        session.resolve();
        latencies.push(t_rec.elapsed());

        if (i + 1) % 250 == 0 {
            println!(
                "  after {:>4} records: {:>3} entities, {:>4} merges, {:>3} schema matchings, index |V| = {}",
                i + 1,
                session.clusters().len(),
                session.merge_count(),
                session.schema_matchings().len(),
                session.index_size()
            );
        }
    }
    let total = t.elapsed();

    latencies.sort_unstable();
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[latencies.len() * 99 / 100];
    let metrics = PairMetrics::score(&session.clusters(), &ds.truth);

    println!("\ningest+resolve: {total:.2?} total, per-record p50 {p50:.1?}, p99 {p99:.1?}");
    println!(
        "final: {} entities (truth: {}), quality {}",
        session.clusters().len(),
        ds.truth.entity_count(),
        metrics
    );
    println!(
        "schema matchings discovered along the way: {}",
        session.schema_matchings().len()
    );
}
