//! Developer smoke run: end-to-end HERA over the Table I presets with
//! timing and quality, for quick regressions while hacking on the
//! generator or the driver.
//!
//! ```sh
//! cargo run --release -p hera-datagen --example sanity
//! ```

use hera_baselines::eval::PairMetrics;
use hera_core::{Hera, HeraConfig};

fn main() {
    for name in ["dm1", "dm4"] {
        let ds = hera_datagen::table1_dataset(name);
        let result = Hera::builder(HeraConfig::new(0.5, 0.5))
            .build()
            .run(&ds)
            .unwrap();
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        let s = &result.stats;
        println!("{name}: build={:?} resolve={:?} iters={} |V|={} pruned={} direct={} cmp={} merges={} | {m}",
            s.index_build_time, s.resolve_time, s.iterations, s.index_size,
            s.pruned, s.direct_decisions, s.comparisons, s.merges);
    }
}
