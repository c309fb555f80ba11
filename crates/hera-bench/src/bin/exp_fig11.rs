//! Fig. 11 — HERA vs R-Swoosh vs CR vs CC: precision (a), recall (b) and
//! F-measure (c) on the homogeneous `D_m1-S` … `D_m4-S` datasets.
//!
//! Setup per §VI: the baselines run on the exchanged data (target schema
//! = ⅓ of the distinct attributes); HERA runs on the heterogeneous
//! originals, then both are scored on the same ground truth. Paper shape:
//! HERA wins everywhere — precision > 0.9 (+6/12/13 points over
//! R-Swoosh/CR/CC), recall ≈ 0.93 (+6/10/16), F1 +6/11/15 — and HERA's
//! F-measure is the least sensitive to dataset size.

use hera_baselines::eval::PairMetrics;
use hera_baselines::{CollectiveEr, CorrelationClustering, RSwoosh, Resolver};
use hera_bench::{header, row, run_at_delta, shared_join, XI};
use hera_sim::TypeDispatch;

fn main() {
    let delta = 0.5;
    println!("# Fig 11: HERA vs baselines on -S datasets (δ = {delta}, ξ = {XI})\n");
    header(&["dataset", "system", "precision", "recall", "F1"]);
    let metric = TypeDispatch::paper_default();
    for ds in hera_bench::datasets() {
        // HERA on the heterogeneous original.
        let pairs = shared_join(&ds);
        let (_, m) = run_at_delta(&ds, &pairs, delta);
        row(&[
            format!("{}-S", ds.name),
            "HERA".into(),
            format!("{:.3}", m.precision()),
            format!("{:.3}", m.recall()),
            format!("{:.3}", m.f1()),
        ]);

        // Baselines on the exchanged -S variant.
        let (homo, _) = hera_baselines::exchange::exchange_small(&ds, 1);
        let baselines: Vec<Box<dyn Resolver>> = vec![
            Box::new(RSwoosh::new(delta, XI)),
            Box::new(CollectiveEr::new(delta, XI, 0.25)),
            Box::new(CorrelationClustering::new(delta, XI, 7)),
        ];
        for b in baselines {
            let clusters = b.resolve(&homo, &metric);
            let m = PairMetrics::score(&clusters, &homo.truth);
            row(&[
                format!("{}-S", ds.name),
                b.name().into(),
                format!("{:.3}", m.precision()),
                format!("{:.3}", m.recall()),
                format!("{:.3}", m.f1()),
            ]);
        }
    }
    println!("\npaper: HERA avg P>0.9 (+6/12/13 over R-Swoosh/CR/CC), avg R≈0.93 (+6/10/16), F1 +6/11/15");

    // The -L variants (⅔ of distinct attributes) — the paper defers these
    // to its tech report; reproduced here for completeness.
    println!("\n# Fig 11 (tech-report companion): baselines on -L datasets\n");
    header(&["dataset", "system", "precision", "recall", "F1"]);
    for ds in hera_bench::datasets() {
        let (homo, _) = hera_baselines::exchange::exchange_large(&ds, 1);
        let baselines: Vec<Box<dyn Resolver>> = vec![
            Box::new(RSwoosh::new(delta, XI)),
            Box::new(CollectiveEr::new(delta, XI, 0.25)),
            Box::new(CorrelationClustering::new(delta, XI, 7)),
        ];
        for b in baselines {
            let clusters = b.resolve(&homo, &metric);
            let m = PairMetrics::score(&clusters, &homo.truth);
            row(&[
                format!("{}-L", ds.name),
                b.name().into(),
                format!("{:.3}", m.precision()),
                format!("{:.3}", m.recall()),
                format!("{:.3}", m.f1()),
            ]);
        }
    }
}
