//! The ER service: one [`HeraSession`] owned by one thread, and one
//! published view of its partition.
//!
//! # Model
//!
//! The paper's compare-and-merge loop is order-sensitive (Theorem-2
//! votes depend on merge order), so the service does not split it: every
//! record is ingested into, and resolved by, one authoritative session.
//! [`ErService::resolve`] spends a budget on that session;
//! [`ErService::stitch`] — the *boundary pass* — resolves it to a
//! fixpoint, captures the partition as an immutable generation and
//! swaps it in as the published view. A lookup below the published
//! boundary answers from the view; one above it asks the live session
//! and is flagged `provisional`.
//!
//! # Concurrency model
//!
//! The service is `&self` end to end and safe to share across threads
//! (`Arc<ErService>` behind any number of connections). The session
//! lives on a dedicated owner thread (see the crate-private `worker`
//! module); the front end keeps only bookkeeping — the schema arities,
//! the record count, the dispatched boundary — behind one mutex, and
//! *every command is sent while that mutex is held*. The queue order is
//! therefore the lock order, and the session is sequential, so its
//! state and every published partition are pure functions of the
//! request order — bit-identical to a bare `HeraSession` fed the same
//! arrivals and passes, at any session thread count, under any
//! interleaving. `tests/serve_concurrent.rs` holds this as a property
//! over seeded schedules.
//!
//! Published lookups take no lock and never wait on a boundary pass:
//! they read the last *published* generation. Provisional lookups queue
//! behind the session's work. A reply is always one consistent
//! generation or the live session's coherent view — bounded staleness,
//! never a torn value.

use crate::protocol::{err, ok, Request};
use crate::worker::{spawn_session_worker, Published, SessionCmd, StitchedView};
use hera_core::{HeraConfig, HeraSession, HeraSessionBuilder, ProgressiveReport, ResolveBudget};
use hera_faults::{BackoffPolicy, Clock, FaultInjector, SystemClock};
use hera_obs::Recorder;
use hera_types::json::Json;
use hera_types::{HeraError, Result, SchemaId, Value};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Builder for [`ErService`] — cadence, and the fault / journal
/// plumbing threaded into the session.
pub struct ErServiceBuilder {
    config: HeraConfig,
    stitch_every: usize,
    recorder: Recorder,
    faults: FaultInjector,
    retry: BackoffPolicy,
    clock: Arc<dyn Clock>,
}

impl ErServiceBuilder {
    /// Runs the boundary pass automatically whenever the record count
    /// reaches a multiple of `records` (0, the default, stitches only on
    /// explicit request). Automatic passes are dispatched
    /// asynchronously: the triggering ingest returns as soon as the
    /// pass is queued.
    pub fn stitch_every(mut self, records: usize) -> Self {
        self.stitch_every = records;
        self
    }

    /// Ignored, and holds no state: the service has one session on one
    /// thread. Kept only because the frozen `benchmark/` package calls
    /// it; ROADMAP item 1 schedules its removal.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Attaches the audit journal: every protocol request and boundary
    /// pass emits through it, alongside the session's own events.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Threads a fault injector into every snapshot write/read.
    pub fn faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Retry policy for checkpoint IO (default
    /// [`BackoffPolicy::checkpoint_default`]).
    pub fn retry(mut self, policy: BackoffPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Delay source behind retry backoff (tests inject a manual clock).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    fn session(&self) -> HeraSessionBuilder {
        HeraSession::builder(self.config.clone())
            .recorder(self.recorder.clone())
            .faults(self.faults.clone())
            .retry(self.retry)
            .clock(self.clock.clone())
    }

    /// Builds an empty service and spawns its session thread.
    pub fn build(self) -> ErService {
        let session = self.session().build();
        self.assemble(session)
    }

    /// Builds a service around the session snapshot at `path` — the one
    /// file [`ErService::checkpoint`] writes, which is the session's own
    /// (`HeraSessionBuilder::restore` opens it too). The restored
    /// partition is published as the first generation. The service runs
    /// under the config the snapshot records (δ, ξ, blocking, bound mode
    /// and ablation); of the builder's config only the thread count and
    /// index validation are used.
    pub fn restore(self, path: impl AsRef<Path>) -> Result<ErService> {
        let session = self.session().restore(path)?;
        Ok(self.assemble(session))
    }

    /// Hands the session off to its owner thread and wires the front
    /// end around the channel.
    fn assemble(self, session: HeraSession) -> ErService {
        let schemas = session.registry().schemas().map(|s| s.arity()).collect();
        let records = session.len();
        let (tx, published, handle) = spawn_session_worker(session, self.recorder.clone());
        ErService {
            state: Mutex::new(ServiceState {
                tx,
                schemas,
                records,
                dispatched: records,
            }),
            published,
            handle: Some(handle),
            stitch_every: self.stitch_every,
            recorder: self.recorder,
        }
    }
}

/// The error every channel operation maps a dead session thread to: the
/// only way it exits early is a panic, so the service is broken, not
/// the request.
fn worker_gone<T>(_: T) -> HeraError {
    HeraError::Io("service session thread terminated".into())
}

/// Reply to [`ErService::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReply {
    /// Record id (dense, arrival-ordered — the protocol's `id`).
    pub id: u32,
    /// Whether this ingest tripped the automatic boundary pass. The
    /// pass is dispatched, not complete: it publishes asynchronously.
    pub stitched: bool,
}

/// Reply to [`ErService::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupReply {
    /// Entity label: the id of the cluster's representative record.
    pub entity: u32,
    /// True when the record was not covered by the last published
    /// boundary pass: the entity reflects the live session mid-way to
    /// its next fixpoint and may change (only by growing or relabeling,
    /// never splitting) at the next stitch.
    pub provisional: bool,
    /// Ids of the entity's known members, ascending.
    pub members: Vec<u32>,
}

/// Reply to [`ErService::stitch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchReply {
    /// Records this pass added to the published view.
    pub ingested: usize,
    /// The session's resolution report for the pass.
    pub report: ProgressiveReport,
}

/// An in-flight boundary pass (from [`ErService::stitch_async`]). The
/// pass runs on the session thread; [`StitchHandle::wait`] blocks until
/// its view is published. Dropping the handle abandons the wait, not
/// the pass.
pub(crate) struct StitchHandle {
    boundary: usize,
    rx: Receiver<StitchReply>,
}

impl StitchHandle {
    /// Stream prefix length this pass covers once published.
    pub fn boundary(&self) -> usize {
        self.boundary
    }

    /// Blocks until the pass has published its view.
    ///
    /// # Panics
    /// When the session thread died (a service-level bug).
    pub fn wait(self) -> StitchReply {
        self.rx.recv().expect("session thread terminated")
    }
}

/// An in-flight budgeted resolve (from [`ErService::resolve_async`]).
pub(crate) struct ResolveHandle {
    rx: Receiver<ProgressiveReport>,
}

impl ResolveHandle {
    /// Blocks until the session finished its budgeted pass.
    ///
    /// # Panics
    /// When the session thread died (a service-level bug).
    pub fn wait(self) -> ProgressiveReport {
        self.rx.recv().expect("session thread terminated")
    }
}

/// Front-end bookkeeping, guarded by the service's one mutex. Every
/// command is sent under this lock — see the module docs for why that
/// ordering rule is the whole determinism argument.
struct ServiceState {
    /// The session thread's command queue.
    tx: Sender<SessionCmd>,
    /// Arity of each registered schema, id-ordered — request validation.
    schemas: Vec<usize>,
    /// Records ingested (the next record id).
    records: usize,
    /// Stream prefix covered by the last *dispatched* boundary pass.
    dispatched: usize,
}

impl ServiceState {
    /// Checks a record arriving as record `id` against its schema's
    /// arity.
    fn validate(&self, schema: SchemaId, values: &[Value], id: u32) -> Result<()> {
        match self.schemas.get(schema.index()) {
            None => Err(HeraError::UnknownId(format!("{schema}"))),
            Some(&arity) if arity != values.len() => Err(HeraError::ArityMismatch {
                record: id,
                expected: arity,
                actual: values.len(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// Queues a command that carries a reply channel. A dead session
    /// thread shows at the receiver: the send fails, the reply sender
    /// drops with the command, and `recv` errors.
    fn ask<T>(&self, cmd: impl FnOnce(Sender<T>) -> SessionCmd) -> Receiver<T> {
        let (reply, rx) = channel();
        self.tx.send(cmd(reply)).ok();
        rx
    }
}

/// A long-lived ER service — see the module docs for the model. All
/// methods take `&self`; share it as `Arc<ErService>` across connection
/// threads. Dropping the service shuts its session thread down and
/// joins it.
pub struct ErService {
    state: Mutex<ServiceState>,
    /// The double-buffered published view (see the worker module docs).
    published: Published,
    /// The session thread, joined on drop.
    handle: Option<JoinHandle<()>>,
    stitch_every: usize,
    recorder: Recorder,
}

impl ErService {
    /// Starts building a service. The second argument is ignored and
    /// holds no state (it was a shard count); it is kept only because
    /// the frozen `benchmark/` package passes one, and ROADMAP item 1
    /// schedules its removal. Pass `1`.
    pub fn builder(config: HeraConfig, _ignored: usize) -> ErServiceBuilder {
        ErServiceBuilder {
            config,
            stitch_every: 0,
            recorder: Recorder::disabled(),
            faults: FaultInjector::disabled(),
            retry: BackoffPolicy::checkpoint_default(),
            clock: Arc::new(SystemClock),
        }
    }

    fn state(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect("service state poisoned")
    }

    /// One consistent snapshot of the published view.
    fn view(&self) -> Arc<StitchedView> {
        self.published
            .read()
            .expect("published view poisoned")
            .clone()
    }

    /// Records ingested over the service's lifetime.
    pub fn len(&self) -> usize {
        self.state().records
    }

    /// True before the first ingest.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records ingested since the last dispatched boundary pass.
    pub fn pending_len(&self) -> usize {
        let st = self.state();
        st.records - st.dispatched
    }

    /// Boundary passes published so far.
    pub fn passes(&self) -> u64 {
        self.view().passes()
    }

    /// Records covered by the last published boundary pass.
    pub fn stitched_len(&self) -> usize {
        self.view().len()
    }

    /// Registers a schema; ids are assigned densely in registration
    /// order.
    pub fn add_schema(&self, name: &str, attrs: &[String]) -> SchemaId {
        let mut st = self.state();
        let id = SchemaId::new(st.schemas.len() as u32);
        st.tx
            .send(SessionCmd::Schema {
                name: name.to_string(),
                attrs: attrs.to_vec(),
            })
            .expect("session thread terminated");
        st.schemas.push(attrs.len());
        id
    }

    /// Ingests one record: [`ErService::ingest_batch`] of one.
    pub fn ingest(&self, schema: SchemaId, values: Vec<Value>) -> Result<IngestReply> {
        let (mut replies, outcome) = self.ingest_batch(vec![(schema, values)]);
        outcome?;
        Ok(replies.pop().expect("an accepted record has a reply"))
    }

    /// Ingests the records of one request, in order, under one hold of
    /// the bookkeeping lock, so they take consecutive ids. Each record is
    /// validated here on the front end (schema id, arity), so the
    /// fire-and-forget session command cannot fail, and the records move
    /// to the session thread as **one** command, which ingests and joins
    /// them as a batch. Where the record count reaches a multiple of the
    /// builder's `stitch_every`, the command is split and an automatic
    /// boundary pass is dispatched between the parts, so each pass covers
    /// the records it would cover were they ingested one at a time.
    ///
    /// The first record that fails validation ends the batch: the records
    /// before it are accepted and ingested. Returns the accepted records'
    /// replies and the failure, if any.
    pub fn ingest_batch(
        &self,
        records: Vec<(SchemaId, Vec<Value>)>,
    ) -> (Vec<IngestReply>, Result<()>) {
        let mut st = self.state();
        let mut replies = Vec::with_capacity(records.len());
        let mut unsent = Vec::new();
        for (schema, values) in records {
            let id = st.records as u32;
            if let Err(e) = st.validate(schema, &values, id) {
                return (replies, Self::send_ingest(&st, unsent).and(Err(e)));
            }
            unsent.push((schema, values));
            st.records += 1;
            let stitched = self.stitch_every > 0 && st.records.is_multiple_of(self.stitch_every);
            if stitched {
                if let Err(e) = Self::send_ingest(&st, std::mem::take(&mut unsent)) {
                    return (replies, Err(e));
                }
                // Fire-and-forget: dropping the handle abandons the wait,
                // not the pass.
                let _ = Self::dispatch_stitch(&mut st);
            }
            replies.push(IngestReply { id, stitched });
        }
        let sent = Self::send_ingest(&st, unsent);
        (replies, sent)
    }

    /// Moves validated records to the session thread as one command;
    /// none, no command.
    fn send_ingest(st: &ServiceState, records: Vec<(SchemaId, Vec<Value>)>) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        st.tx
            .send(SessionCmd::Ingest { records })
            .map_err(worker_gone)
    }

    /// Queues a boundary pass covering everything ingested so far. Runs
    /// under the state lock so the boundary is the pass's queue position.
    fn dispatch_stitch(st: &mut ServiceState) -> StitchHandle {
        st.dispatched = st.records;
        StitchHandle {
            boundary: st.dispatched,
            rx: st.ask(|reply| SessionCmd::Stitch { reply }),
        }
    }

    /// Dispatches a budgeted incremental resolve on the session and
    /// returns without waiting.
    pub(crate) fn resolve_async(&self, budget: ResolveBudget) -> ResolveHandle {
        let rx = self
            .state()
            .ask(|reply| SessionCmd::Resolve { budget, reply });
        ResolveHandle { rx }
    }

    /// Runs budgeted incremental resolution on the authoritative
    /// session and waits for its report.
    pub fn resolve(&self, budget: ResolveBudget) -> ProgressiveReport {
        self.resolve_async(budget).wait()
    }

    /// Dispatches the boundary pass — the session resolves to a
    /// fixpoint and publishes its partition — and returns without
    /// waiting. Lookups keep answering from the previous published view
    /// until the pass swaps its generation in.
    pub(crate) fn stitch_async(&self) -> StitchHandle {
        Self::dispatch_stitch(&mut self.state())
    }

    /// Runs the boundary pass and waits for its view to publish; once
    /// this returns, every record ingested before the call is part of
    /// the published partition.
    pub fn stitch(&self) -> StitchReply {
        self.stitch_async().wait()
    }

    /// Looks up the entity of a record by id. Records covered by the
    /// last published boundary pass answer from that immutable view
    /// without taking the state lock or waiting on an in-flight pass;
    /// records past it ask the live session, flagged provisional — a
    /// command like any other, answered when the session's queue
    /// reaches it.
    pub fn lookup(&self, id: u32) -> Result<LookupReply> {
        let view = self.view();
        if (id as usize) < view.len() {
            let entity = view.entity_of(id);
            let members = view
                .members_of(entity)
                .expect("published root has a member list")
                .to_vec();
            return Ok(LookupReply {
                entity,
                provisional: false,
                members,
            });
        }
        let rx = {
            let st = self.state();
            if (id as usize) >= st.records {
                return Err(HeraError::UnknownId(format!("record {id}")));
            }
            st.ask(|reply| SessionCmd::Lookup { id, reply })
        };
        // Outside the lock: the session answers from whatever coherent
        // state its queue has reached — the record's own ingest was
        // queued before this lookup, so it is always there.
        let (entity, members) = rx.recv().map_err(worker_gone)?;
        Ok(LookupReply {
            entity,
            provisional: true,
            members,
        })
    }

    /// Members of a published entity by label (a non-provisional
    /// `Lookup`'s `entity` field), from the last published view.
    pub fn entity(&self, label: u32) -> Result<Vec<u32>> {
        self.view()
            .members_of(label)
            .map(<[u32]>::to_vec)
            .ok_or_else(|| HeraError::UnknownId(format!("entity {label}")))
    }

    /// The published partition (one vec of record ids per entity) as of
    /// the last boundary pass — call [`ErService::stitch`] first for
    /// full coverage.
    pub fn stitched_partition(&self) -> Vec<Vec<u32>> {
        self.view().partition()
    }

    /// Service-wide counters as a JSON object (the `stats` reply body).
    pub fn stats(&self) -> Vec<(String, Json)> {
        let (records, dispatched, schemas, rx) = {
            let st = self.state();
            let rx = st.ask(|reply| SessionCmd::Stats { reply });
            (st.records, st.dispatched, st.schemas.len(), rx)
        };
        let (merges, comparisons) = rx.recv().expect("session thread terminated");
        let view = self.view();
        [
            ("records", records),
            ("stitched", view.len()),
            ("pending", records - dispatched),
            ("stitching", dispatched.saturating_sub(view.len())),
            ("schemas", schemas),
            ("passes", view.passes() as usize),
            ("merges", merges),
            ("comparisons", comparisons),
        ]
        .into_iter()
        .map(|(name, n)| (name.to_string(), Json::Int(n as i64)))
        .collect()
    }

    /// Checkpoints the service as **one file**: the session's own
    /// snapshot (`HeraSession::checkpoint` — atomic, CRC-checked,
    /// retried under the builder's policy, byte-identical for identical
    /// state), written by the session thread in queue position.
    ///
    /// Safe to race with live ingest: the command is queued under the
    /// state lock and the queue is FIFO, so the snapshot holds exactly
    /// the records ingested before this call, whatever other threads
    /// ingest while it is being written.
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref().to_path_buf();
        let rx = self
            .state()
            .ask(|reply| SessionCmd::Checkpoint { path, reply });
        rx.recv().map_err(worker_gone)?
    }

    /// Handles one protocol request, returning the response object and
    /// whether the service should keep running. Takes the request by
    /// value so record values move from the decoder into the session.
    /// Every request lands one `serve_request` audit line in the
    /// journal.
    pub fn handle(&self, request: Request) -> (Json, bool) {
        let cmd = cmd_name(&request);
        let (response, keep_going) = self.dispatch(request);
        let outcome = matches!(response.get("ok"), Some(Json::Bool(true)));
        self.recorder.emit(
            "serve_request",
            vec![("cmd", Json::Str(cmd.into())), ("ok", Json::Bool(outcome))],
        );
        self.recorder.flush();
        (response, keep_going)
    }

    fn dispatch(&self, request: Request) -> (Json, bool) {
        let response = match request {
            Request::Schema { name, attrs } => {
                let id = self.add_schema(&name, &attrs);
                ok(vec![("schema".into(), Json::Int(id.index() as i64))])
            }
            Request::Ingest { schema, values } => {
                match self.ingest(SchemaId::new(schema), values) {
                    Ok(r) => ingest_fields(&[r]),
                    Err(e) => err(e),
                }
            }
            Request::Batch { records } => {
                let records = records
                    .into_iter()
                    .map(|(schema, values)| (SchemaId::new(schema), values))
                    .collect();
                let (replies, outcome) = self.ingest_batch(records);
                match outcome {
                    // A mid-batch failure keeps the accepted prefix and
                    // reports where it stopped.
                    Err(e) => {
                        let at = replies.len();
                        err(format!("record {at}: {e} ({at} accepted)"))
                    }
                    Ok(()) => ingest_fields(&replies),
                }
            }
            Request::Resolve { budget } => {
                let r = self.resolve(budget);
                ok(vec![
                    ("merges".into(), Json::Int(r.merges as i64)),
                    ("comparisons".into(), Json::Int(r.comparisons_spent as i64)),
                    ("exhausted".into(), Json::Bool(r.exhausted)),
                ])
            }
            Request::Stitch => {
                let r = self.stitch();
                ok(vec![
                    ("ingested".into(), Json::Int(r.ingested as i64)),
                    ("merges".into(), Json::Int(r.report.merges as i64)),
                    ("stitched".into(), Json::Int(self.stitched_len() as i64)),
                ])
            }
            Request::Lookup { id } => match self.lookup(id) {
                Ok(r) => ok(vec![
                    ("entity".into(), Json::Int(r.entity as i64)),
                    ("provisional".into(), Json::Bool(r.provisional)),
                    (
                        "members".into(),
                        Json::Arr(r.members.iter().map(|&m| Json::Int(m as i64)).collect()),
                    ),
                ]),
                Err(e) => err(e),
            },
            Request::Entity { label } => match self.entity(label) {
                Ok(members) => ok(vec![(
                    "members".into(),
                    Json::Arr(members.iter().map(|&m| Json::Int(m as i64)).collect()),
                )]),
                Err(e) => err(e),
            },
            Request::Stats => ok(self.stats()),
            Request::Checkpoint { path } => match self.checkpoint(&path) {
                Ok(()) => ok(vec![("path".into(), Json::Str(path))]),
                Err(e) => err(e),
            },
            Request::Shutdown => return (ok(vec![("bye".into(), Json::Bool(true))]), false),
        };
        (response, true)
    }
}

impl Drop for ErService {
    /// Shuts the session thread down and joins it. A command in flight
    /// (e.g. a long stitch) finishes first — `Shutdown` queues behind
    /// everything already sent.
    fn drop(&mut self) {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .tx
            .send(SessionCmd::Shutdown)
            .ok();
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

fn cmd_name(request: &Request) -> &'static str {
    match request {
        Request::Schema { .. } => "schema",
        Request::Ingest { .. } => "ingest",
        Request::Batch { .. } => "batch",
        Request::Resolve { .. } => "resolve",
        Request::Stitch => "stitch",
        Request::Lookup { .. } => "lookup",
        Request::Entity { .. } => "entity",
        Request::Stats => "stats",
        Request::Checkpoint { .. } => "checkpoint",
        Request::Shutdown => "shutdown",
    }
}

fn ingest_fields(replies: &[IngestReply]) -> Json {
    let mut fields = vec![(
        "ids".to_string(),
        Json::Arr(replies.iter().map(|r| Json::Int(r.id as i64)).collect()),
    )];
    if let [only] = replies {
        fields.push(("id".into(), Json::Int(only.id as i64)));
    }
    if replies.iter().any(|r| r.stitched) {
        fields.push(("stitched".into(), Json::Bool(true)));
    }
    ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A published lookup reads the view and nothing else: it must
    /// answer while another thread holds the bookkeeping lock (as every
    /// ingest does).
    #[test]
    fn published_lookup_takes_no_lock() {
        let service = Arc::new(ErService::builder(HeraConfig::new(0.5, 0.5), 1).build());
        let schema = service.add_schema("crm", &["name".to_string()]);
        service.ingest(schema, vec!["alice".into()]).unwrap();
        service.stitch();

        let (tx, rx) = channel();
        let guard = service.state();
        let reader = {
            let service = service.clone();
            std::thread::spawn(move || tx.send(service.lookup(0)).ok())
        };
        let reply = rx.recv_timeout(Duration::from_secs(10));
        drop(guard);
        reader.join().unwrap();
        let reply = reply
            .expect("a published lookup waited on the state lock")
            .unwrap();
        assert_eq!((reply.provisional, reply.members), (false, vec![0]));
    }

    #[test]
    fn empty_service_publishes_an_empty_view() {
        let service = ErService::builder(HeraConfig::new(0.5, 0.5), 1).build();
        for _ in 0..2 {
            assert!(service.stitched_partition().is_empty());
            assert!(matches!(service.entity(0), Err(HeraError::UnknownId(_))));
            assert!(matches!(service.lookup(0), Err(HeraError::UnknownId(_))));
            service.stitch();
        }
    }

    /// A restored service answers from the view it publishes on start:
    /// the partition, lookups and member rows of the service that wrote
    /// the snapshot, and no members for a label that names no entity.
    #[test]
    fn restored_service_answers_from_its_first_view() {
        let config = || HeraConfig::new(0.5, 0.5);
        let service = ErService::builder(config(), 1).build();
        let schema = service.add_schema("crm", &["name".to_string()]);
        for name in ["alice smith", "bob jones", "alice smith"] {
            service.ingest(schema, vec![name.into()]).unwrap();
        }
        service.stitch();
        let path = std::env::temp_dir().join(format!(
            "hera-serve-restore-view-test-{}.hera",
            std::process::id()
        ));
        service.checkpoint(&path).unwrap();
        let restored = ErService::builder(config(), 1).restore(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.stitched_partition(), [vec![0, 2], vec![1]]);
        assert_eq!(restored.stitched_partition(), service.stitched_partition());
        let reply = restored.lookup(2).unwrap();
        assert_eq!((reply.entity, reply.provisional), (0, false));
        assert_eq!(reply.members, [0, 2]);
        assert_eq!(restored.entity(0).unwrap(), [0, 2]);
        assert!(matches!(restored.entity(2), Err(HeraError::UnknownId(_))));
    }
}
