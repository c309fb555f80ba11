//! The batch join's memory guard: joining the 20 000-record scale preset
//! may raise the process's peak resident set (`VmHWM`) by at most 50 MB.
//!
//! The figure is the process's own high-water mark, so the test is alone
//! in this file: the harness runs each `tests/` file as its own process,
//! and no other test's allocations can set the mark. It is `#[ignore]`d
//! because it wants a release build:
//!
//! ```sh
//! cargo test --release --test join_memory -- --ignored --nocapture
//! ```
//!
//! It skips (passes, saying so) where `/proc/self/status` has no `VmHWM`
//! line, i.e. off Linux.

use hera::datagen::{scale_preset, ScaleGenerator};
use hera::{Hera, HeraConfig, Recorder};
use std::time::Instant;

/// The allowed growth of the peak over the join, in MB.
const BUDGET_MB: f64 = 50.0;

/// `VmHWM` of this process in MB, if the kernel reports one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "a release-build memory measurement; run with --ignored"]
fn join_of_20k_scale_records_grows_the_peak_by_at_most_50_mb() {
    let Some(_) = peak_rss_mb() else {
        eprintln!("no VmHWM in /proc/self/status: skipped");
        return;
    };
    let ds = ScaleGenerator::new(scale_preset(20_000, 51)).generate();
    let hera = Hera::builder(HeraConfig::new(0.5, 0.7).with_threads(1))
        .recorder(Recorder::disabled())
        .build();
    let before = peak_rss_mb().expect("read once already");
    let t = Instant::now();
    let pairs = hera.join(&ds);
    let wall = t.elapsed();
    let after = peak_rss_mb().expect("read once already");
    let growth = after - before;
    eprintln!(
        "join of {} records: {} pairs in {:.2?}; VmHWM {before:.1} -> {after:.1} MB (+{growth:.1} MB)",
        ds.len(),
        pairs.len(),
        wall,
    );
    assert!(
        growth <= BUDGET_MB,
        "the join raised the peak by {growth:.1} MB, over the {BUDGET_MB} MB budget"
    );
}
