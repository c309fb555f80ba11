//! `movies_allpairs` and `scale_allpairs`: the batch path,
//! `Hera::run` → `clusters()`, all pairs, no blocking.
//!
//! The two differ only in input and ξ. On the dense movie records the
//! fixpoint loop of `hera-core`/`hera-index` is most of the trip and
//! the join a quarter; on the sparse scale records the join is nearly
//! all of it. A change to one of the two layers should move one
//! workload and leave the other where it was.

use super::{rep_output, Checks, RepArgs, RepOutput, LIBRARY_THREADS};
use crate::host;
use hera::datagen::{presets, scale_preset, Generator, ScaleGenerator};
use hera::{Dataset, Hera, HeraConfig, Recorder, SuperRecord, ValuePair, ValuePairIndex};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Input {
    Movies,
    Scale,
}

impl Input {
    fn records(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Input::Movies, false) => 1000,
            (Input::Movies, true) => 400,
            (Input::Scale, false) => 2000,
            (Input::Scale, true) => 500,
        }
    }

    fn config(self) -> HeraConfig {
        let xi = match self {
            Input::Movies => 0.5,
            Input::Scale => 0.7,
        };
        HeraConfig::new(0.5, xi).with_threads(LIBRARY_THREADS)
    }

    /// The `D_m4` profile (533 entities per 4 000 records, 21
    /// attributes) resp. the scale preset, at this rep's size and seed.
    fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            Input::Movies => {
                let mut cfg = presets::dm4();
                cfg.seed = seed;
                cfg.n_entities = n * cfg.n_entities / cfg.n_records;
                cfg.n_records = n;
                Generator::new(cfg).generate()
            }
            Input::Scale => ScaleGenerator::new(scale_preset(n, seed)).generate(),
        }
    }
}

pub fn rep(input: Input, args: &RepArgs) -> RepOutput {
    let n = input.records(args.smoke);
    let mut checks = Checks::default();

    let t = Instant::now();
    let ds = input.generate(n, args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let hera = Hera::builder(input.config())
        .recorder(Recorder::disabled())
        .build();
    let setup_s = t.elapsed().as_secs_f64();

    let end_to_end = |checks: &mut Checks| {
        let t = Instant::now();
        let clusters = hera.run(&ds).map(|r| r.clusters());
        let wall = t.elapsed().as_secs_f64();
        checks.check(clusters.is_ok(), || format!("Hera::run: {clusters:?}"));
        let partition = checks.partition(&args.workload, clusters.unwrap_or_default(), n);
        (wall, partition)
    };

    if !args.traced {
        let (wall, partition) = end_to_end(&mut checks);
        let mut out = rep_output(n, LIBRARY_THREADS, checks, &partition, &ds.truth);
        out.end_to_end(setup_s, wall, host::peak_rss_mb());
        return out;
    }

    let mut layers = Vec::new();
    let (wall, partition, traced) = if args.index % 2 == 1 {
        let traced = trace(&hera, &ds, &mut layers, &mut checks);
        let (wall, partition) = end_to_end(&mut checks);
        (wall, partition, traced)
    } else {
        let (wall, partition) = end_to_end(&mut checks);
        let traced = trace(&hera, &ds, &mut layers, &mut checks);
        (wall, partition, traced)
    };
    checks.check(traced.partition == partition, || {
        "join + run_with_pairs disagrees with Hera::run".into()
    });
    bounds_scan(&hera, &ds, traced.pairs, &mut layers);

    let mut out = rep_output(n, LIBRARY_THREADS, checks, &partition, &ds.truth);
    out.push("datagen.generate_s", generate_s);
    out.push("trace_overhead_pct", 100.0 * (traced.wall - wall) / wall);
    out.samples.extend(layers);
    out
}

struct Traced {
    partition: Vec<Vec<u32>>,
    wall: f64,
    /// A copy of the join's output, for the bounds scan.
    pairs: Vec<ValuePair>,
}

/// The same trip taken apart: the join, then the fixpoint run on its
/// pairs, each timed from outside, with `RunStats` filling in what the
/// run counted.
fn trace(
    hera: &Hera,
    ds: &Dataset,
    layers: &mut Vec<(&'static str, f64)>,
    checks: &mut Checks,
) -> Traced {
    let t = Instant::now();
    let pairs = hera.join(ds);
    let join_s = t.elapsed().as_secs_f64();
    let value_pairs = pairs.len() as f64;
    let copy = pairs.clone();

    let t = Instant::now();
    let result = hera.run_with_pairs(ds, pairs);
    let run_s = t.elapsed().as_secs_f64();
    let clusters = result.as_ref().map(|r| r.clusters());
    let rest_s = t.elapsed().as_secs_f64() - run_s;
    checks.check(result.is_ok(), || {
        format!("run_with_pairs: {:?}", result.as_ref().err())
    });

    layers.extend([
        ("join.batch_s", join_s),
        ("join.value_pairs", value_pairs),
        ("join.pairs_per_s", value_pairs / join_s),
        ("core.run_with_pairs_s", run_s),
        ("trace.e2e_wall_s", join_s + run_s + rest_s),
        ("trace.other_s", rest_s),
    ]);
    if let Ok(result) = &result {
        let s = &result.stats;
        let (build_s, verify_s) = (
            s.index_build_time.as_secs_f64(),
            s.verify_time.as_secs_f64(),
        );
        layers.extend([
            ("index.build_s", build_s),
            ("core.verify_s", verify_s),
            ("core.fixpoint_other_s", run_s - build_s - verify_s),
            ("core.iterations", s.iterations as f64),
            ("core.pruned", s.pruned as f64),
            ("core.direct_decisions", s.direct_decisions as f64),
            ("core.comparisons", s.comparisons as f64),
            ("core.merges", s.merges as f64),
            (
                "core.schema_matchings_decided",
                s.schema_matchings_decided as f64,
            ),
            ("matching.matchings_run", s.matchings_run as f64),
            ("sim.metric_calls", s.metric_sim_calls as f64),
            ("core.simcache_hit_rate", s.sim_cache_hit_rate()),
            ("index.final_entries", s.final_index_size as f64),
        ]);
    }
    Traced {
        partition: checks.partition("traced", clusters.unwrap_or_default(), ds.len()),
        wall: join_s + run_s + rest_s,
        pairs: copy,
    }
}

/// Prices round 1's candidate generation on an index of the
/// benchmark's own: `bounds()` over every record-pair group. Not part
/// of the traced trip.
fn bounds_scan(
    hera: &Hera,
    ds: &Dataset,
    pairs: Vec<ValuePair>,
    layers: &mut Vec<(&'static str, f64)>,
) {
    let index = ValuePairIndex::build(pairs);
    let shape = index.stats();
    let sizes: Vec<usize> = ds
        .iter()
        .map(|r| SuperRecord::from_record(ds, r).informative_size())
        .collect();
    let mode = hera.config().bound_mode;
    let t = Instant::now();
    for (i, j) in index.record_pairs() {
        black_box(index.bounds(i, j, sizes[i as usize], sizes[j as usize], mode));
    }
    layers.extend([
        ("index.bounds_scan_s", t.elapsed().as_secs_f64()),
        ("index.entries", shape.entries as f64),
        ("index.groups", shape.groups as f64),
        ("index.max_group", shape.max_group as f64),
    ]);
}
