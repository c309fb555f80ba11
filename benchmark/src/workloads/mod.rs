//! The four workloads and what they share. A run is a parent that keeps
//! starting reps for as long as they fit into its time budget; a rep is
//! one child process that builds one input from its seed, takes it
//! through the measured path once and prints what it saw. One process
//! per rep makes `VmHWM` the peak of one trip, not the largest of many.

mod batch;
mod serve;
mod stream;

use crate::{metrics, stats};
use hera::types::json::{parse, Json};
use hera::{GroundTruth, PairMetrics};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Worker threads of the three library workloads (the reference host
/// has two cores; results are bit-identical at every setting).
pub const LIBRARY_THREADS: usize = 2;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock budget of the run's reps.
    pub seconds: f64,
    pub traced: bool,
    /// Shrunk inputs, one rep: a plumbing check, not a measurement.
    pub smoke: bool,
}

pub struct Measured {
    pub name: &'static str,
    /// Median over the run's reps.
    pub value: f64,
    /// Estimated spread of `value`, as a share of it (0 for one rep).
    pub spread: f64,
}

pub struct RunReport {
    pub records: usize,
    pub reps: usize,
    pub num_threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or output check.
    pub failures: Vec<String>,
    /// Hash of the first input's partition: a pure function of the seed.
    pub partition_digest: u64,
    pub metrics: Vec<Measured>,
}

impl RunReport {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Default `--seed` of each workload and the seed held out from
/// development (README: never tune a change against the second).
pub fn seeds(workload: &str) -> (u64, u64) {
    match workload {
        "movies_allpairs" => (46, 1046),
        "scale_allpairs" => (51, 1051),
        "scale_stream_blocked" => (52, 1052),
        _ => (52, 1053),
    }
}

/// Lowest acceptable `f1` of a run, whatever the seed.
fn f1_floor(workload: &str) -> f64 {
    match workload {
        "movies_allpairs" => 0.95,
        _ => 0.55,
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator seed of rep `k`: the run's own seed first, then a mixed
/// sequence, so every rep resolves a different dataset and a run's
/// median averages over input variety instead of inheriting it.
fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        splitmix64(seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// What one rep is asked to do.
pub struct RepArgs {
    pub workload: String,
    /// Generator seed of this rep's input.
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Position in the run; traced reps alternate which of the untraced
    /// and the taken-apart trip goes first, so neither always runs warm.
    pub index: usize,
}

/// What one rep saw.
struct RepOutput {
    records: usize,
    num_threads: usize,
    checks: Checks,
    samples: Vec<(&'static str, f64)>,
    /// Hash of the canonical partition: equal seeds must give equal ones.
    digest: u64,
}

impl RepOutput {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// The three figures every workload reports end to end.
    fn end_to_end(&mut self, setup_s: f64, e2e_wall_s: f64, peak_rss_mb: f64) {
        self.samples.extend([
            ("setup_s", setup_s),
            ("e2e_wall_s", e2e_wall_s),
            ("peak_rss_mb", peak_rss_mb),
        ]);
    }

    fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(name, v)| (name.to_string(), Json::Float(*v)))
            .collect();
        let failures = self
            .checks
            .failures
            .iter()
            .cloned()
            .map(Json::Str)
            .collect();
        Json::Obj(vec![
            ("records".into(), Json::Int(self.records as i64)),
            ("num_threads".into(), Json::Int(self.num_threads as i64)),
            ("attempted".into(), Json::Int(self.checks.attempted as i64)),
            ("failed".into(), Json::Int(self.checks.failed as i64)),
            ("failures".into(), Json::Arr(failures)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("samples".into(), Json::Obj(samples)),
        ])
    }

    fn from_json(json: &Json) -> hera::Result<Self> {
        let count = |key: &str| hera::Result::Ok(json.expect(key)?.as_i64()?.max(0) as u64);
        let Json::Obj(samples) = json.expect("samples")? else {
            return Err(hera::HeraError::Serialization(
                "samples: not an object".into(),
            ));
        };
        Ok(Self {
            records: count("records")? as usize,
            num_threads: count("num_threads")? as usize,
            checks: Checks {
                attempted: count("attempted")?,
                failed: count("failed")?,
                failures: json
                    .expect("failures")?
                    .as_arr()?
                    .iter()
                    .map(|f| Ok(f.as_str()?.to_string()))
                    .collect::<hera::Result<_>>()?,
            },
            samples: samples
                .iter()
                .filter_map(|(name, v)| Some((metrics::find(name)?.name, v.as_f64().ok()?)))
                .collect(),
            digest: u64::from_str_radix(json.expect("digest")?.as_str()?, 16).unwrap_or(0),
        })
    }
}

fn unknown(workload: &str) -> String {
    format!(
        "unknown workload {workload:?} (expected one of {:?})",
        metrics::WORKLOADS
    )
}

/// Runs one rep in this process and prints it for the parent.
pub fn rep(args: &RepArgs) -> Result<(), String> {
    let out = match args.workload.as_str() {
        "movies_allpairs" => batch::rep(batch::Input::Movies, args),
        "scale_allpairs" => batch::rep(batch::Input::Scale, args),
        "scale_stream_blocked" => stream::rep(args),
        "serve_mixed" => serve::rep(args),
        other => return Err(unknown(other)),
    };
    println!("rep {}", out.to_json().to_string_compact());
    Ok(())
}

/// Starts a rep as a child of this executable and waits for it.
fn spawn_rep(args: &RepArgs) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", &args.index.to_string()])
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("start a rep: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("rep "))
        .ok_or_else(|| format!("rep {} ended with {} and no result", args.index, out.status))?;
    parse(line)
        .and_then(|j| RepOutput::from_json(&j))
        .map_err(|e| format!("rep {}: unreadable result: {e}", args.index))
}

/// The parent: reps while another one as long as the last still ends
/// inside the budget, then medians over them. The second rep takes the
/// first one's input again and must arrive at the same partition.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(unknown(&args.workload));
    }
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut records, mut num_threads) = (0, 0);
    let mut first_digest = 0;

    let mut reps = 0usize;
    let mut last_rep_s = 0.0;
    while reps == 0 || (!args.smoke && start.elapsed().as_secs_f64() + last_rep_s <= args.seconds) {
        let began = Instant::now();
        let out = spawn_rep(&RepArgs {
            workload: args.workload.clone(),
            seed: sub_seed(args.seed, reps.saturating_sub(1)),
            traced: args.traced,
            smoke: args.smoke,
            index: reps,
        })?;
        match reps {
            0 => first_digest = out.digest,
            1 => checks.check(first_digest == out.digest, || {
                "two reps over one input gave different partitions".into()
            }),
            _ => {}
        }
        (records, num_threads) = (out.records, out.num_threads);
        checks.absorb(out.checks);
        // Timings are medians over however many reps fit; `f1` is taken
        // on the first input alone so that it repeats exactly.
        for (name, value) in out.samples {
            if name != "f1" || reps <= 1 {
                samples.entry(name).or_default().push(value);
            }
        }
        last_rep_s = began.elapsed().as_secs_f64();
        reps += 1;
    }

    let f1 = stats::median(samples.get("f1").map_or(&[], Vec::as_slice));
    let floor = f1_floor(&args.workload);
    checks.check(f1 >= floor, || {
        format!("f1 {f1:.4} is below the floor {floor}")
    });
    let metrics = samples
        .iter()
        .map(|(name, samples)| Measured {
            name,
            value: stats::median(samples),
            spread: stats::median_spread(samples),
        })
        .collect();
    Ok(RunReport {
        records,
        reps,
        num_threads,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        partition_digest: first_digest,
        metrics,
    })
}

/// Counts operations and output checks; remembers what failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the report readable when one fault repeats per request.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }

    /// The partition must cover ids `0..n` exactly once; returns it in
    /// canonical order (members ascending, clusters by first member).
    fn partition(&mut self, what: &str, mut clusters: Vec<Vec<u32>>, n: usize) -> Vec<Vec<u32>> {
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_unstable();
        let mut seen = vec![false; n];
        let mut exact = clusters.iter().all(|c| !c.is_empty());
        for &id in clusters.iter().flatten() {
            match seen.get_mut(id as usize) {
                Some(s) if !*s => *s = true,
                _ => exact = false,
            }
        }
        exact &= seen.iter().all(|&s| s);
        self.check(exact, || {
            format!("{what}: partition does not cover every record id exactly once")
        });
        clusters
    }
}

/// FNV-1a over a canonical partition, cluster boundaries included.
fn digest(partition: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cluster in partition {
        eat(cluster.len() as u32);
        cluster.iter().copied().for_each(&mut eat);
    }
    h
}

/// A rep's result, started from the checked partition of its
/// end-to-end trip.
fn rep_output(
    records: usize,
    num_threads: usize,
    checks: Checks,
    partition: &[Vec<u32>],
    truth: &GroundTruth,
) -> RepOutput {
    let mut out = RepOutput {
        records,
        num_threads,
        checks,
        samples: Vec::new(),
        digest: digest(partition),
    };
    out.push("f1", PairMetrics::score(partition, truth).f1());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_start_at_the_seed_and_differ() {
        assert_eq!(sub_seed(46, 0), 46);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for k in 0..50 {
                assert!(seen.insert(sub_seed(seed, k)));
            }
        }
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn partition_check_catches_gaps_and_repeats() {
        let mut c = Checks::default();
        let p = c.partition("ok", vec![vec![2, 0], vec![1]], 3);
        assert_eq!(p, vec![vec![0, 2], vec![1]]);
        assert_eq!(c.failed, 0);
        c.partition("gap", vec![vec![0], vec![1]], 3);
        c.partition("repeat", vec![vec![0, 1], vec![1, 2]], 3);
        c.partition("range", vec![vec![0, 1], vec![2, 3]], 3);
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn digest_sees_members_and_boundaries() {
        let a = digest(&[vec![0, 1], vec![2]]);
        assert_eq!(a, digest(&[vec![0, 1], vec![2]]));
        assert_ne!(a, digest(&[vec![0], vec![1, 2]]));
        assert_ne!(a, digest(&[vec![0, 1, 2]]));
    }

    #[test]
    fn a_rep_survives_its_own_json() {
        let mut checks = Checks::default();
        checks.check(false, || "broken".into());
        let truth = hera::motivating_example().truth;
        let partition = vec![vec![0, 1, 3, 5], vec![2, 4]];
        let mut out = rep_output(6, 2, checks, &partition, &truth);
        out.push("e2e_wall_s", 1.25);
        out.push("trace.other_s", f64::NAN);
        let line = out.to_json().to_string_compact();
        let back = RepOutput::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(
            (back.records, back.num_threads, back.digest),
            (6, 2, out.digest)
        );
        assert_eq!((back.checks.attempted, back.checks.failed), (1, 1));
        assert_eq!(back.checks.failures, ["broken"]);
        assert_eq!(back.samples, [("f1", 1.0), ("e2e_wall_s", 1.25)]);
    }
}
