//! `scale_stream_blocked`: the streaming path. One `HeraSession` under
//! token blocking takes the scale stream record by record, resolves at
//! a fixed cadence and once more at the end, then hands out clusters.
//!
//! It runs the same crates as the batch workloads through different
//! doors — `StreamingBlocker::admit`, `IncrementalJoin::insert_among`,
//! `ValuePairIndex::extend`, the session's own fixpoint loop — so a
//! gain for the batch path that costs the streaming path shows here.

use super::{rep_output, Checks, RepArgs, RepOutput, LIBRARY_THREADS};
use crate::{host, stats};
use hera::block::StreamingBlocker;
use hera::datagen::{scale_preset, ScaleGenerator};
use hera::{
    BlockingScheme, Dataset, HeraConfig, HeraSession, IncrementalJoin, Label, Recorder, SchemaId,
    TypeDispatch, Value,
};
use std::sync::Arc;
use std::time::Instant;

/// `resolve()` runs this many times over the stream, evenly spaced,
/// the last time after the final record.
const RESOLVES: usize = 20;

/// q-gram length the session builds its incremental join with.
const SESSION_Q: usize = 2;

fn config() -> HeraConfig {
    HeraConfig::new(0.5, 0.7)
        .with_threads(LIBRARY_THREADS)
        .with_blocking(BlockingScheme::token())
}

fn session_for(ds: &Dataset) -> (HeraSession, Vec<SchemaId>) {
    let mut session = HeraSession::builder(config())
        .recorder(Recorder::disabled())
        .build();
    let schemas = ds
        .registry
        .schemas()
        .map(|s| session.add_schema(s.name.clone(), s.attrs.iter().map(|a| a.name.clone())))
        .collect();
    (session, schemas)
}

/// The stream as `add_record` takes it: schema index and owned values.
fn stream_of(ds: &Dataset) -> Vec<(usize, Vec<Value>)> {
    ds.records
        .iter()
        .map(|r| (r.schema.index(), r.values.clone()))
        .collect()
}

/// What the timers around the session's calls saw, when they were on.
#[derive(Default)]
struct CallTimes {
    add_us: Vec<f64>,
    resolve_ms: Vec<f64>,
}

/// Records in → partition out. With `times`, every `add_record` and
/// `resolve` call is timed from outside.
fn ingest(
    session: &mut HeraSession,
    schemas: &[SchemaId],
    stream: Vec<(usize, Vec<Value>)>,
    mut times: Option<&mut CallTimes>,
    checks: &mut Checks,
) -> Vec<Vec<u32>> {
    let n = stream.len();
    let every = n.div_ceil(RESOLVES).max(1);
    for (i, (schema, values)) in stream.into_iter().enumerate() {
        let t = times.is_some().then(Instant::now);
        let added = session.add_record(schemas[schema], values);
        if let (Some(times), Some(t)) = (times.as_deref_mut(), t) {
            times.add_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        checks.check(added.is_ok(), || format!("add_record {i}: {added:?}"));
        if (i + 1) % every == 0 || i + 1 == n {
            let t = times.is_some().then(Instant::now);
            session.resolve();
            if let (Some(times), Some(t)) = (times.as_deref_mut(), t) {
                times.resolve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    session.clusters()
}

pub fn rep(args: &RepArgs) -> RepOutput {
    let n = if args.smoke { 2000 } else { 5000 };
    let mut checks = Checks::default();

    let t = Instant::now();
    let ds = ScaleGenerator::new(scale_preset(n, args.seed)).generate();
    let generate_s = t.elapsed().as_secs_f64();
    let (mut session, schemas) = session_for(&ds);
    let stream = stream_of(&ds);
    let setup_s = t.elapsed().as_secs_f64();

    let end_to_end = move |checks: &mut Checks| {
        let t = Instant::now();
        let clusters = ingest(&mut session, &schemas, stream, None, checks);
        let wall = t.elapsed().as_secs_f64();
        (wall, checks.partition(&args.workload, clusters, n))
    };

    if !args.traced {
        let (wall, partition) = end_to_end(&mut checks);
        let mut out = rep_output(n, LIBRARY_THREADS, checks, &partition, &ds.truth);
        out.end_to_end(setup_s, wall, host::peak_rss_mb());
        return out;
    }

    let mut layers = Vec::new();
    let (wall, partition, traced) = if args.index % 2 == 1 {
        let traced = trace(&ds, &mut layers, &mut checks);
        let (wall, partition) = end_to_end(&mut checks);
        (wall, partition, traced)
    } else {
        let (wall, partition) = end_to_end(&mut checks);
        let traced = trace(&ds, &mut layers, &mut checks);
        (wall, partition, traced)
    };
    checks.check(traced.partition == partition, || {
        "the timed session disagrees with the untimed one".into()
    });
    let split = replay_block_and_join(&ds);

    let mut out = rep_output(n, LIBRARY_THREADS, checks, &partition, &ds.truth);
    out.push("datagen.generate_s", generate_s);
    out.push("trace_overhead_pct", 100.0 * (traced.wall - wall) / wall);
    out.push(
        "core.add_record_other_s",
        traced.add_s - split.admit_s - split.among_s,
    );
    out.push("block.stream_admit_s", split.admit_s);
    out.push("block.stream_candidates", split.candidates as f64);
    out.push("join.insert_among_s", split.among_s);
    out.push("join.stream_pairs", split.pairs as f64);
    out.samples.extend(layers);
    out
}

struct Traced {
    partition: Vec<Vec<u32>>,
    wall: f64,
    add_s: f64,
}

/// The same stream through a fresh session with a timer around every
/// call.
fn trace(ds: &Dataset, layers: &mut Vec<(&'static str, f64)>, checks: &mut Checks) -> Traced {
    let (mut session, schemas) = session_for(ds);
    let mut times = CallTimes::default();
    let stream = stream_of(ds);
    let t = Instant::now();
    let clusters = ingest(&mut session, &schemas, stream, Some(&mut times), checks);
    let wall = t.elapsed().as_secs_f64();

    let add_s = times.add_us.iter().sum::<f64>() / 1e6;
    let resolve_s = times.resolve_ms.iter().sum::<f64>() / 1e3;
    let s = session.stats();
    layers.extend([
        ("trace.e2e_wall_s", wall),
        ("trace.other_s", wall - add_s - resolve_s),
        ("core.add_record_s", add_s),
        (
            "core.add_record_p50_us",
            stats::percentile(&times.add_us, 0.5),
        ),
        (
            "core.add_record_p99_us",
            stats::percentile(&times.add_us, 0.99),
        ),
        ("core.session_resolve_s", resolve_s),
        (
            "core.resolve_call_max_ms",
            times.resolve_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("core.merges", session.merge_count() as f64),
        ("index.final_entries", session.index_size() as f64),
        ("core.simcache_size", session.sim_cache_size() as f64),
        ("core.verify_s", s.verify_time.as_secs_f64()),
        ("core.iterations", s.iterations as f64),
        ("core.pruned", s.pruned as f64),
        ("core.direct_decisions", s.direct_decisions as f64),
        ("core.comparisons", s.comparisons as f64),
        (
            "core.schema_matchings_decided",
            s.schema_matchings_decided as f64,
        ),
        ("matching.matchings_run", s.matchings_run as f64),
        ("sim.metric_calls", s.metric_sim_calls as f64),
        ("core.simcache_hit_rate", s.sim_cache_hit_rate()),
    ]);
    Traced {
        partition: checks.partition("traced", clusters, ds.len()),
        wall,
        add_s,
    }
}

struct BlockJoinSplit {
    admit_s: f64,
    candidates: usize,
    among_s: f64,
    pairs: usize,
}

/// Splits `add_record`: the stream once more through a standalone
/// blocker and incremental join, set up as the session sets up its own.
/// Nothing merges here, so candidate lists are not folded onto entity
/// roots as they are inside a session; the split is an estimate.
fn replay_block_and_join(ds: &Dataset) -> BlockJoinSplit {
    let config = config();
    let mut blocker =
        StreamingBlocker::new(&config.blocking).expect("token blocking has a streaming form");
    let mut join = IncrementalJoin::new(
        config.xi,
        SESSION_Q,
        Arc::new(TypeDispatch::paper_default()),
    );
    let mut split = BlockJoinSplit {
        admit_s: 0.0,
        candidates: 0,
        among_s: 0.0,
        pairs: 0,
    };
    for (rid, r) in ds.records.iter().enumerate() {
        let rid = rid as u32;
        let t = Instant::now();
        let mut allowed = blocker.admit(rid, &r.values);
        allowed.sort_unstable();
        allowed.dedup();
        split.admit_s += t.elapsed().as_secs_f64();
        split.candidates += allowed.len();

        let t = Instant::now();
        for (fid, v) in r.values.iter().enumerate() {
            if !v.is_null() {
                let label = Label::new(rid, fid as u32, 0);
                split.pairs += join.insert_among(label, v.clone(), &allowed).len();
            }
        }
        split.among_s += t.elapsed().as_secs_f64();
    }
    split
}
