//! The ledger's vocabulary: workload names, metric names, units,
//! directions and regression bounds. Names are normative — later
//! changes are accepted or refused on them — so they live in one place
//! and `BENCHMARK.json` is checked against this file by a unit test.

use crate::stats::{Better, Bound};

pub const WORKLOADS: [&str; 4] = [
    "movies_allpairs",
    "scale_allpairs",
    "scale_stream_blocked",
    "serve_mixed",
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<Bound>,
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports; `BENCHMARK.json` lists
/// exactly these under `end_to_end`, with these bounds.
pub const COMMON_E2E: [MetricDef; 3] = [
    bounded("setup_s", "s", Lower, Bound::Rel(0.25)),
    bounded("e2e_wall_s", "s", Lower, Bound::Rel(0.25)),
    bounded("peak_rss_mb", "MB", Lower, Bound::Rel(0.20)),
];

/// User-visible metrics that cannot sit under `end_to_end`: `f1` is a
/// pure function of the seed (its spread over seeds is input variety,
/// not noise), and the rest exist on `serve_mixed` only. They are
/// emitted with the per-layer set and `compare` holds them to these
/// bounds between two run sets of equal seeds.
pub const LEDGER_E2E: [MetricDef; 9] = [
    bounded("f1", "ratio", Higher, Bound::Abs(0.002)),
    bounded("ingest_records_per_s", "rec/s", Higher, Bound::Rel(0.10)),
    bounded("ingest_p50_ms", "ms", Lower, Bound::Rel(0.10)),
    bounded("ingest_p95_ms", "ms", Lower, Bound::Rel(0.20)),
    bounded("lookup_p50_us", "us", Lower, Bound::Rel(0.10)),
    bounded("lookup_p95_us", "us", Lower, Bound::Rel(0.20)),
    bounded("stitch_total_s", "s", Lower, Bound::Rel(0.10)),
    bounded("checkpoint_s", "s", Lower, Bound::Rel(0.20)),
    bounded("restore_s", "s", Lower, Bound::Rel(0.20)),
];

/// Per-layer metrics, layer = crate. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("datagen.generate_s", "s", Lower),
    layer("join.batch_s", "s", Lower),
    layer("join.value_pairs", "count", Lower),
    layer("join.pairs_per_s", "1/s", Higher),
    layer("index.build_s", "s", Lower),
    layer("index.entries", "count", Lower),
    layer("index.groups", "count", Lower),
    layer("index.max_group", "count", Lower),
    layer("index.bounds_scan_s", "s", Lower),
    layer("core.run_with_pairs_s", "s", Lower),
    layer("core.verify_s", "s", Lower),
    layer("core.fixpoint_other_s", "s", Lower),
    layer("core.iterations", "count", Lower),
    layer("core.pruned", "count", Higher),
    layer("core.direct_decisions", "count", Higher),
    layer("core.comparisons", "count", Lower),
    layer("core.merges", "count", Higher),
    layer("core.schema_matchings_decided", "count", Higher),
    layer("matching.matchings_run", "count", Lower),
    layer("sim.metric_calls", "count", Lower),
    layer("core.simcache_hit_rate", "ratio", Higher),
    layer("core.add_record_s", "s", Lower),
    layer("core.add_record_p50_us", "us", Lower),
    layer("core.add_record_p99_us", "us", Lower),
    layer("core.session_resolve_s", "s", Lower),
    layer("core.resolve_call_max_ms", "ms", Lower),
    layer("index.final_entries", "count", Lower),
    layer("core.simcache_size", "count", Lower),
    layer("block.stream_admit_s", "s", Lower),
    layer("block.stream_candidates", "count", Lower),
    layer("join.insert_among_s", "s", Lower),
    layer("join.stream_pairs", "count", Lower),
    layer("core.add_record_other_s", "s", Lower),
    layer("serve.inproc_e2e_s", "s", Lower),
    layer("serve.transport_overhead_s", "s", Lower),
    layer("serve.wire_decode_s", "s", Lower),
    layer("serve.wire_encode_s", "s", Lower),
    layer("serve.wire_bytes_in", "B", Lower),
    layer("serve.wire_bytes_out", "B", Lower),
    layer("serve.shard_resolve_s", "s", Lower),
    layer("serve.stitch_pass_max_s", "s", Lower),
    layer("serve.stitch_merges", "count", Higher),
    layer("serve.lookup_provisional_share", "ratio", Lower),
    layer("serve.lookup_stitched_p50_us", "us", Lower),
    layer("serve.lookup_provisional_p50_us", "us", Lower),
    layer("serve.lookup_max_us", "us", Lower),
    layer("store.snapshot_bytes", "B", Lower),
    layer("store.bytes_per_record", "B", Lower),
    layer("store.peak_rss_mb", "MB", Lower),
    layer("trace.e2e_wall_s", "s", Lower),
    layer("trace.other_s", "s", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Every metric a `--trace 1` run prints: the ledger's bounded extras
/// first, then the layers.
pub fn traced_metrics() -> impl Iterator<Item = &'static MetricDef> {
    LEDGER_E2E.iter().chain(PER_LAYER.iter())
}

/// Every metric `compare` holds to a bound.
pub fn bounded_metrics() -> impl Iterator<Item = &'static MetricDef> {
    COMMON_E2E.iter().chain(LEDGER_E2E.iter())
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    COMMON_E2E
        .iter()
        .chain(traced_metrics())
        .find(|m| m.name == name)
}

/// A metric's unit; empty for a name this file does not know.
pub fn unit(name: &str) -> &'static str {
    find(name).map_or("", |m| m.unit)
}

/// The benchmark contract's rule for workload and metric names.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's rule for units.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera::types::json::{parse, Json};
    use std::collections::BTreeSet;

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "core.add_record_p99_us", "a-b", "9lives", "F1"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("rec/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in COMMON_E2E.iter().chain(traced_metrics()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert_eq!(
                m.bound.is_some(),
                bounded_metrics().any(|b| b.name == m.name)
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.expect(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.expect("name").unwrap().as_str().unwrap().to_string(),
                    m.expect("unit").unwrap().as_str().unwrap().to_string(),
                    m.expect("better").unwrap().as_str().unwrap().to_string(),
                    m.get("bound").map(|b| b.as_f64().unwrap()),
                )
            })
            .collect()
    }

    fn expected(m: &MetricDef) -> (String, String, String, Option<f64>) {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let bound = match m.bound {
            Some(Bound::Rel(b)) => Some(b),
            _ => None,
        };
        (m.name.into(), m.unit.into(), better.into(), bound)
    }

    #[test]
    fn benchmark_json_agrees_with_this_file() {
        let text = include_str!("../../BENCHMARK.json");
        let json = parse(text).unwrap();
        let workloads: Vec<&str> = json
            .expect("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.expect("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<_> = COMMON_E2E.iter().map(expected).collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<_> = traced_metrics()
            .map(|m| MetricDef { bound: None, ..*m })
            .map(|m| expected(&m))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
        assert_eq!(
            json.expect("run_seconds").unwrap().as_i64().unwrap(),
            crate::RUN_SECONDS as i64
        );
    }
}
