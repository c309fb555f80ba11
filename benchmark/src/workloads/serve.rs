//! `serve_mixed`: writes beside reads on the service. An `ErService`
//! (2 shards, 2 workers, explicit stitches only) sits behind
//! `serve_tcp` on a loopback port inside this process; two unmodified
//! `TcpClient` connections drive it in a closed loop. The writer sends
//! the scale stream as `batch` requests with `resolve` and `stitch` at
//! fixed marks; the reader issues back-to-back `lookup`s of seeded ids
//! below the last acknowledged one until the final `stitch` replies.
//!
//! Wire codec, bookkeeping lock, shard channels, the stitcher's second
//! resolution of the stream and the snapshot store sit on this path and
//! on no other. No socket option is set from this side: the round trip
//! is measured as the repository's own client and server produce it.

use super::{rep_output, Checks, RepArgs, RepOutput};
use crate::{host, stats};
use hera::datagen::{scale_preset, ScaleGenerator};
use hera::serve::{serve_tcp, Request};
use hera::types::json::{parse, Json};
use hera::{
    BlockingScheme, Dataset, ErService, ErServiceBuilder, HeraConfig, Recorder, ResolveBudget,
    SchemaId, TcpClient,
};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Threads inside each shard session; the shards are the parallelism.
const SESSION_THREADS: usize = 1;
const BATCH_RECORDS: usize = 100;
/// `resolve` and `stitch` requests per episode, evenly spaced over the
/// batches; the last of each follows the last batch.
const RESOLVES: usize = 10;
const STITCHES: usize = 4;
/// The run sets up this many times and reports the median set-up time;
/// only the last set-up is driven.
const SETUPS: usize = 3;
/// Fewer lookup samples than this and the run fails its own check.
const MIN_LOOKUPS: usize = 200;

fn batches(smoke: bool) -> usize {
    if smoke {
        25
    } else {
        200
    }
}

fn builder() -> ErServiceBuilder {
    let config = HeraConfig::new(0.5, 0.7)
        .with_threads(SESSION_THREADS)
        .with_blocking(BlockingScheme::token());
    ErService::builder(config, SHARDS)
        .workers(WORKERS)
        .recorder(Recorder::disabled())
}

/// 1-based batch numbers after which one of `count` evenly spaced
/// requests is due; the last is the last batch.
fn marks(batches: usize, count: usize) -> Vec<usize> {
    (1..=count).map(|j| (batches * j).div_ceil(count)).collect()
}

fn command(request: &Request) -> &'static str {
    match request {
        Request::Batch { .. } => "batch",
        Request::Resolve { .. } => "resolve",
        Request::Stitch => "stitch",
        _ => "request",
    }
}

/// A served instance and the two connections to it.
struct Harness {
    service: Arc<ErService>,
    server: JoinHandle<hera::Result<()>>,
    writer: TcpClient,
    reader: TcpClient,
    dataset: Dataset,
    requests: Vec<Request>,
}

impl Harness {
    /// Everything before the first `batch` is sent: generate the
    /// stream, build and bind the service, connect, register schemas,
    /// cut the stream into requests.
    fn set_up(records: usize, seed: u64, checks: &mut Checks) -> Self {
        let dataset = ScaleGenerator::new(scale_preset(records, seed)).generate();
        let service = Arc::new(builder().build());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let server = {
            let service = service.clone();
            std::thread::spawn(move || serve_tcp(service, listener))
        };
        let mut writer = TcpClient::connect(addr).expect("connect the writer");
        let reader = TcpClient::connect(addr).expect("connect the reader");

        let schemas: Vec<u32> = dataset
            .registry
            .schemas()
            .map(|s| {
                let attrs: Vec<String> = s.attrs.iter().map(|a| a.name.clone()).collect();
                let id = writer.schema(&s.name, &attrs);
                checks.check(id.is_ok(), || format!("schema {}: {id:?}", s.name));
                id.map_or(0, SchemaId::raw)
            })
            .collect();
        let requests = dataset
            .records
            .chunks(BATCH_RECORDS)
            .map(|chunk| Request::Batch {
                records: chunk
                    .iter()
                    .map(|r| (schemas[r.schema.index()], r.values.clone()))
                    .collect(),
            })
            .collect();
        Self {
            service,
            server,
            writer,
            reader,
            dataset,
            requests,
        }
    }

    /// Stops the server and hands back what the replays need.
    fn shut_down(mut self, checks: &mut Checks) -> (Dataset, Vec<Request>) {
        let bye = self.writer.shutdown();
        checks.check(bye.is_ok(), || format!("shutdown: {bye:?}"));
        let served = self.server.join();
        checks.check(matches!(served, Ok(Ok(()))), || {
            format!("serve_tcp ended with {served:?}")
        });
        (self.dataset, self.requests)
    }
}

struct Lookup {
    id: u32,
    us: f64,
    provisional: bool,
    reply: Option<Json>,
}

/// What one closed-loop episode measured.
struct Episode {
    e2e_s: f64,
    ingest_phase_s: f64,
    batch_ms: Vec<f64>,
    resolve_s: Vec<f64>,
    stitch_s: Vec<f64>,
    stitch_merges: f64,
    lookups: Vec<Lookup>,
    /// Writer-side replies in request order, kept for the wire replay.
    replies: Vec<(Request, Json)>,
}

fn drive(h: &mut Harness, seed: u64, keep_lines: bool, checks: &mut Checks) -> Episode {
    let total = h.requests.len();
    let (resolve_at, stitch_at) = (marks(total, RESOLVES), marks(total, STITCHES));
    let acked = AtomicU32::new(0);
    let done = AtomicBool::new(false);
    let mut ep = Episode {
        e2e_s: 0.0,
        ingest_phase_s: 0.0,
        batch_ms: Vec::with_capacity(total),
        resolve_s: Vec::new(),
        stitch_s: Vec::new(),
        stitch_merges: 0.0,
        lookups: Vec::new(),
        replies: Vec::new(),
    };
    let (writer, reader, requests) = (&mut h.writer, &mut h.reader, &h.requests);

    let mut read_checks = Checks::default();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut rng = seed;
            let mut lookups = Vec::new();
            while !done.load(Ordering::Acquire) {
                let below = acked.load(Ordering::Acquire);
                if below == 0 {
                    std::thread::yield_now();
                    continue;
                }
                rng = super::splitmix64(rng);
                let id = (rng % u64::from(below)) as u32;
                let t = Instant::now();
                let reply = reader.request(&Request::Lookup { id });
                let us = t.elapsed().as_secs_f64() * 1e6;
                let members_hold_id = reply.as_ref().is_ok_and(|r| {
                    r.get("members")
                        .and_then(|m| m.as_arr().ok())
                        .is_some_and(|m| m.iter().any(|x| x.as_u32().ok() == Some(id)))
                });
                read_checks.check(members_hold_id, || {
                    format!("lookup {id}: members do not hold the id: {reply:?}")
                });
                let provisional = reply
                    .as_ref()
                    .is_ok_and(|r| matches!(r.get("provisional"), Some(Json::Bool(true))));
                lookups.push(Lookup {
                    id,
                    us,
                    provisional,
                    reply: reply.ok().filter(|_| keep_lines),
                });
            }
            lookups
        });

        let mut timed = |request: &Request, checks: &mut Checks| {
            let t = Instant::now();
            let reply = writer.request(request);
            let s = t.elapsed().as_secs_f64();
            checks.check(reply.is_ok(), || format!("{}: {reply:?}", command(request)));
            (s, reply.unwrap_or(Json::Null))
        };
        let first_sent = Instant::now();
        for (b, request) in requests.iter().enumerate() {
            let (s, reply) = timed(request, checks);
            ep.batch_ms.push(s * 1e3);
            if let Some(last) = reply.get("ids").and_then(|ids| ids.as_arr().ok()?.last()) {
                acked.store(last.as_u32().map_or(0, |id| id + 1), Ordering::Release);
            }
            let mut keep = |request: &Request, reply: Json| {
                if keep_lines {
                    ep.replies.push((request.clone(), reply));
                }
            };
            keep(request, reply);
            if resolve_at.contains(&(b + 1)) {
                let request = Request::Resolve {
                    budget: ResolveBudget::unlimited(),
                };
                let (s, reply) = timed(&request, checks);
                ep.resolve_s.push(s);
                keep(&request, reply);
            }
            if stitch_at.contains(&(b + 1)) {
                if b + 1 == total {
                    ep.ingest_phase_s = first_sent.elapsed().as_secs_f64();
                }
                let (s, reply) = timed(&Request::Stitch, checks);
                ep.stitch_s.push(s);
                ep.stitch_merges += reply
                    .get("merges")
                    .map_or(0.0, |m| m.as_f64().unwrap_or(0.0));
                keep(&Request::Stitch, reply);
            }
        }
        ep.e2e_s = first_sent.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        ep.lookups = reading.join().expect("the reader thread panicked");
    });
    checks.absorb(read_checks);
    ep
}

pub fn rep(args: &RepArgs) -> RepOutput {
    let records = batches(args.smoke) * BATCH_RECORDS;
    let mut checks = Checks::default();

    let mut setup_s = Vec::new();
    let mut set_up = |checks: &mut Checks| {
        let t = Instant::now();
        let harness = Harness::set_up(records, args.seed, checks);
        setup_s.push(t.elapsed().as_secs_f64());
        harness
    };
    for _ in 1..SETUPS {
        set_up(&mut checks).shut_down(&mut checks);
    }
    let mut h = set_up(&mut checks);

    let ep = drive(&mut h, args.seed, args.traced, &mut checks);
    let peak_rss_mb = host::peak_rss_mb();
    let partition = checks.partition(&args.workload, h.service.stitched_partition(), records);

    let mut layers = Vec::new();
    if args.traced {
        let scratch = Scratch::new();
        let manifest = scratch.0.join("service.hera");
        checkpoint_and_restore(&mut h, &manifest, &partition, &mut layers, &mut checks);
    }
    let (dataset, requests) = h.shut_down(&mut checks);
    if args.traced {
        replay_wire(&ep, &mut layers);
        let inproc_s = replay_in_process(&dataset, requests, &partition, &mut checks);
        layers.extend([
            ("serve.inproc_e2e_s", inproc_s),
            ("serve.transport_overhead_s", ep.e2e_s - inproc_s),
            ("store.peak_rss_mb", host::peak_rss_mb()),
            // The timers around each request are the measurement itself:
            // the traced episode is the untraced one plus kept reply lines.
            ("trace_overhead_pct", 0.0),
        ]);
    }
    ep.latencies(args.smoke, &mut layers, &mut checks);

    let mut out = rep_output(records, SESSION_THREADS, checks, &partition, &dataset.truth);
    out.end_to_end(stats::median(&setup_s), ep.e2e_s, peak_rss_mb);
    out.samples.extend(layers);
    out
}

impl Episode {
    /// The episode's own figures; a tail percentile its samples cannot
    /// carry fails a check (full-size runs only).
    fn latencies(&self, smoke: bool, out: &mut Vec<(&'static str, f64)>, checks: &mut Checks) {
        let records = self.batch_ms.len() * BATCH_RECORDS;
        let batch_s = self.batch_ms.iter().sum::<f64>() / 1e3;
        let resolve_s = self.resolve_s.iter().sum::<f64>();
        let stitch_s = self.stitch_s.iter().sum::<f64>();
        let lookup_us: Vec<f64> = self.lookups.iter().map(|l| l.us).collect();
        let of = |provisional: bool| -> Vec<f64> {
            let kind = self.lookups.iter().filter(|l| l.provisional == provisional);
            kind.map(|l| l.us).collect()
        };
        let (stitched_us, provisional_us) = (of(false), of(true));
        if !smoke {
            checks.check(lookup_us.len() >= MIN_LOOKUPS, || {
                format!(
                    "only {} lookup samples, {MIN_LOOKUPS} needed",
                    lookup_us.len()
                )
            });
            for (what, n) in [("batch", self.batch_ms.len()), ("lookup", lookup_us.len())] {
                checks.check(stats::supports_percentile(n, 0.95), || {
                    format!("{n} {what} samples leave fewer than ten beyond p95")
                });
            }
        }
        out.extend([
            ("ingest_records_per_s", records as f64 / self.ingest_phase_s),
            ("ingest_p50_ms", stats::percentile(&self.batch_ms, 0.5)),
            ("ingest_p95_ms", stats::percentile(&self.batch_ms, 0.95)),
            ("lookup_p50_us", stats::percentile(&lookup_us, 0.5)),
            ("lookup_p95_us", stats::percentile(&lookup_us, 0.95)),
            ("stitch_total_s", stitch_s),
            ("serve.shard_resolve_s", resolve_s),
            (
                "serve.stitch_pass_max_s",
                self.stitch_s.iter().copied().fold(0.0, f64::max),
            ),
            ("serve.stitch_merges", self.stitch_merges),
            (
                "serve.lookup_provisional_share",
                provisional_us.len() as f64 / lookup_us.len().max(1) as f64,
            ),
            ("serve.lookup_stitched_p50_us", stats::median(&stitched_us)),
            (
                "serve.lookup_provisional_p50_us",
                stats::median(&provisional_us),
            ),
            (
                "serve.lookup_max_us",
                lookup_us.iter().copied().fold(0.0, f64::max),
            ),
            ("trace.e2e_wall_s", self.e2e_s),
            ("trace.other_s", self.e2e_s - batch_s - resolve_s - stitch_s),
        ]);
    }
}

/// `checkpoint` over the wire, then a restore in this process until the
/// restored partition is readable; it must equal the one checkpointed.
fn checkpoint_and_restore(
    h: &mut Harness,
    manifest: &Path,
    partition: &[Vec<u32>],
    layers: &mut Vec<(&'static str, f64)>,
    checks: &mut Checks,
) {
    let records = h.dataset.len();
    let t = Instant::now();
    let saved = h.writer.checkpoint(&manifest.to_string_lossy());
    layers.push(("checkpoint_s", t.elapsed().as_secs_f64()));
    checks.check(saved.is_ok(), || format!("checkpoint: {saved:?}"));

    let bytes: u64 = manifest
        .parent()
        .and_then(|dir| std::fs::read_dir(dir).ok())
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    layers.push(("store.snapshot_bytes", bytes as f64));
    layers.push(("store.bytes_per_record", bytes as f64 / records as f64));

    let t = Instant::now();
    let restored = builder().restore(manifest).map(|s| {
        let partition = s.stitched_partition();
        (s, partition)
    });
    layers.push(("restore_s", t.elapsed().as_secs_f64()));
    match restored {
        Ok((service, restored)) => {
            let restored = checks.partition("restored", restored, records);
            checks.check(restored == partition, || {
                "the restored partition differs from the checkpointed one".into()
            });
            drop(service);
        }
        Err(e) => checks.check(false, || format!("restore: {e}")),
    }
}

/// Every line of the episode through the codec once more, off the
/// socket: requests encoded as the client does and decoded as the
/// server does, replies the other way round.
fn replay_wire(ep: &Episode, layers: &mut Vec<(&'static str, f64)>) {
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
    let mut replay = |request: &Request, reply: &Json| {
        let t = Instant::now();
        let request_line = request.to_json().to_string_compact();
        let reply_line = reply.to_string_compact();
        encode_s += t.elapsed().as_secs_f64();
        bytes_in += request_line.len() + 1;
        bytes_out += reply_line.len() + 1;

        let t = Instant::now();
        let decoded = parse(&request_line).and_then(|j| Request::from_json(&j));
        let parsed = parse(&reply_line);
        decode_s += t.elapsed().as_secs_f64();
        let _ = std::hint::black_box((decoded, parsed));
    };
    for (request, reply) in &ep.replies {
        replay(request, reply);
    }
    for lookup in &ep.lookups {
        if let Some(reply) = &lookup.reply {
            replay(&Request::Lookup { id: lookup.id }, reply);
        }
    }
    layers.extend([
        ("serve.wire_encode_s", encode_s),
        ("serve.wire_decode_s", decode_s),
        ("serve.wire_bytes_in", bytes_in as f64),
        ("serve.wire_bytes_out", bytes_out as f64),
    ]);
}

/// The writer's op sequence against a fresh service with no socket in
/// between, one lookup per batch; the partition must come out the same.
fn replay_in_process(
    dataset: &Dataset,
    requests: Vec<Request>,
    partition: &[Vec<u32>],
    checks: &mut Checks,
) -> f64 {
    let service = builder().build();
    for s in dataset.registry.schemas() {
        let attrs: Vec<String> = s.attrs.iter().map(|a| a.name.clone()).collect();
        service.add_schema(&s.name, &attrs);
    }
    let total = requests.len();
    let (resolve_at, stitch_at) = (marks(total, RESOLVES), marks(total, STITCHES));
    let t = Instant::now();
    for (b, request) in requests.into_iter().enumerate() {
        let Request::Batch { records } = request else {
            continue;
        };
        let mut last = 0;
        for (schema, values) in records {
            let reply = service.ingest(SchemaId::new(schema), values);
            checks.check(reply.is_ok(), || format!("in-process ingest: {reply:?}"));
            last = reply.map_or(last, |r| r.id);
        }
        std::hint::black_box(service.lookup(last).ok());
        if resolve_at.contains(&(b + 1)) {
            service.resolve(ResolveBudget::unlimited());
        }
        if stitch_at.contains(&(b + 1)) {
            service.stitch();
        }
    }
    let wall = t.elapsed().as_secs_f64();
    let replayed = checks.partition("in-process", service.stitched_partition(), dataset.len());
    checks.check(replayed == partition, || {
        "the in-process replay and the served run disagree on the partition".into()
    });
    wall
}

/// A directory inside the benchmark's own `out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = Path::new(crate::OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_even_and_end_on_the_last_batch() {
        assert_eq!(marks(200, 4), vec![50, 100, 150, 200]);
        assert_eq!(marks(25, 4), vec![7, 13, 19, 25]);
        assert_eq!(marks(200, 10).len(), 10);
        assert_eq!(marks(3, 4), vec![1, 2, 3, 3]);
    }
}
