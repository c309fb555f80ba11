//! Deterministic concurrency harness: a seeded schedule driver over the
//! service's command channels.
//!
//! Testing a concurrent service by hammering it from real threads makes
//! failures unreproducible. This harness takes the opposite route: one
//! driver thread plays the role of N interleaved clients, with the
//! interleaving chosen by a seeded PRNG — so every run of a
//! `(ops, Schedule)` pair issues the identical request sequence, and a
//! failing seed replays (and shrinks, under proptest) exactly.
//!
//! The concurrency is still real. Ingests are fire-and-forget commands
//! executing on the session thread, and `ErService::stitch_async` /
//! `ErService::resolve_async` passes run there while the driver
//! keeps issuing lookups against whatever view happens to be
//! published. What the seed pins down is the *request order* — the
//! service's own determinism guarantee (queue order = bookkeeping-lock
//! order) is then exactly the property under test: the final published
//! partition must be a pure function of the request order, independent
//! of session thread count and OS scheduling.
//! `tests/serve_concurrent.rs` asserts that against a bare
//! `HeraSession` replaying the logged arrivals and passes.

use crate::service::{ErService, LookupReply, ResolveHandle, StitchHandle};
use hera_core::ResolveBudget;
use hera_types::{Result, SchemaId, Value};

/// One client-visible operation in a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduledOp {
    /// Ingest a record (the payload is fixed by the test, not the seed).
    Ingest(SchemaId, Vec<Value>),
    /// Look up a seed-chosen already-ingested record.
    Lookup,
    /// Dispatch a budgeted resolve (async; the driver waits for all
    /// resolves before returning).
    Resolve(ResolveBudget),
    /// Dispatch a boundary pass (async; the driver records its boundary
    /// and waits for the pass before returning).
    Stitch,
}

/// A seeded interleaving: `ops` are dealt round-robin-by-PRNG onto
/// `clients` queues, then executed by drawing a random non-empty client
/// each step — so the same `(ops, seed, clients)` triple always issues
/// the identical request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// PRNG seed (splitmix64).
    pub seed: u64,
    /// Simulated client count (at least 1).
    pub clients: usize,
}

/// One lookup observation: what was asked, what had been dispatched by
/// then, and what came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupSample {
    /// Record id looked up.
    pub id: u32,
    /// How many passes had been *dispatched* when the lookup was issued
    /// (indexes a prefix of [`RunLog::passes`]). A non-provisional
    /// reply must match the reference partition at one of the boundary
    /// passes in that prefix covering `id` — anything else is a torn or
    /// future value.
    pub dispatched: usize,
    /// The service's reply.
    pub reply: LookupReply,
}

/// One resolution pass a schedule dispatched. Resolves act on the
/// authoritative session, so replaying a run needs every pass, not
/// only the boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedPass {
    /// Stream position: records ingested before the pass was dispatched.
    pub at: usize,
    /// `Some` for a budgeted `Resolve`; `None` for a boundary pass
    /// (explicit `Stitch` or `stitch_every` auto-pass), which resolves
    /// to fixpoint and publishes.
    pub budget: Option<ResolveBudget>,
}

/// Everything a schedule run observed, for replay-exact assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// The records in the arrival order the service saw — a reference
    /// session replays exactly this stream.
    pub arrivals: Vec<(SchemaId, Vec<Value>)>,
    /// Every dispatched pass, in dispatch order.
    pub passes: Vec<LoggedPass>,
    /// Every lookup the schedule issued, in issue order.
    pub lookups: Vec<LookupSample>,
    /// Records ingested by the schedule.
    pub ingested: usize,
}

/// splitmix64 — the same tiny deterministic generator the chaos suite
/// uses; no external PRNG dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `ops` against `service` under the seeded interleaving and
/// returns the run's observations. Schemas referenced by `Ingest` ops
/// must already be registered. All async work the schedule dispatched
/// (stitches, resolves) is awaited before returning, so the service is
/// quiescent afterwards — a final [`ErService::stitch`] then covers
/// every record.
pub fn drive(service: &ErService, ops: Vec<ScheduledOp>, schedule: &Schedule) -> Result<RunLog> {
    let clients = schedule.clients.max(1);
    let mut rng = schedule.seed;
    // Deal ops onto client queues; each queue preserves program order
    // for "its" client, the draw below interleaves across clients.
    let mut queues: Vec<std::collections::VecDeque<ScheduledOp>> = (0..clients)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for op in ops {
        let c = (next(&mut rng) % clients as u64) as usize;
        queues[c].push_back(op);
    }

    let mut log = RunLog {
        arrivals: Vec::new(),
        passes: Vec::new(),
        lookups: Vec::new(),
        ingested: 0,
    };
    let mut stitches: Vec<StitchHandle> = Vec::new();
    let mut resolves: Vec<ResolveHandle> = Vec::new();

    while queues.iter().any(|q| !q.is_empty()) {
        let mut c = (next(&mut rng) % clients as u64) as usize;
        while queues[c].is_empty() {
            c = (c + 1) % clients;
        }
        let op = queues[c].pop_front().expect("non-empty queue");
        match op {
            ScheduledOp::Ingest(schema, values) => {
                let reply = service.ingest(schema, values.clone())?;
                log.arrivals.push((schema, values));
                log.ingested += 1;
                if reply.stitched {
                    // Auto-pass: dispatched under the same lock hold as
                    // this ingest, so its boundary is id + 1.
                    log.passes.push(LoggedPass {
                        at: reply.id as usize + 1,
                        budget: None,
                    });
                }
            }
            ScheduledOp::Lookup => {
                if log.ingested == 0 {
                    continue;
                }
                let id = (next(&mut rng) % log.ingested as u64) as u32;
                let dispatched = log.passes.len();
                let reply = service.lookup(id)?;
                log.lookups.push(LookupSample {
                    id,
                    dispatched,
                    reply,
                });
            }
            ScheduledOp::Resolve(budget) => {
                resolves.push(service.resolve_async(budget));
                log.passes.push(LoggedPass {
                    at: log.ingested,
                    budget: Some(budget),
                });
            }
            ScheduledOp::Stitch => {
                let handle = service.stitch_async();
                log.passes.push(LoggedPass {
                    at: handle.boundary(),
                    budget: None,
                });
                stitches.push(handle);
            }
        }
    }

    for handle in resolves {
        handle.wait();
    }
    for handle in stitches {
        handle.wait();
    }
    Ok(log)
}
