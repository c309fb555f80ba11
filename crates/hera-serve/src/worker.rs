//! The session-owner thread behind [`ErService`](crate::service::ErService)
//! and the double-buffered published view.
//!
//! One thread exclusively owns the service's one [`HeraSession`]: ingest,
//! budgeted resolve, boundary pass, live lookup, stats and checkpoint all
//! arrive as [`SessionCmd`] messages on one unbounded FIFO channel and
//! run in arrival order. `HeraSession` is `Send` but deliberately not
//! `Sync`, so the compiler enforces the ownership. The front end sends
//! every command while holding its bookkeeping lock, which makes the
//! queue order the lock order — and since the session is sequential,
//! its state is a pure function of that order.
//!
//! # Publishing
//!
//! A boundary pass never blocks lookups. The owner resolves to fixpoint,
//! builds a complete [`StitchedView`] (the session's [`Grouping`]: entity
//! labels and member rows), and *then* swaps it into the published slot under a
//! write lock held only for the pointer swap. Readers clone the `Arc`
//! out under the read lock and answer from an immutable generation — a
//! lookup can observe the pass-*k* or pass-*k+1* view, never a mixture.

use crate::service::StitchReply;
use hera_core::{Grouping, HeraSession, ProgressiveReport, ResolveBudget};
use hera_obs::Recorder;
use hera_types::json::Json;
use hera_types::{RecordId, Result, SchemaId, Value};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// Commands the owner thread executes against the session; replies ride
/// one-shot mpsc channels.
pub(crate) enum SessionCmd {
    /// Register a source schema.
    Schema {
        /// Source name.
        name: String,
        /// Attribute names.
        attrs: Vec<String>,
    },
    /// Ingest the records of one request, in order, and join them: one
    /// `HeraSession::extend`. Pre-validated by the front end (schema id
    /// and arity checked against its schema list), so the session-side
    /// ingest cannot fail; fire-and-forget.
    Ingest {
        /// Each record's schema and values.
        records: Vec<(SchemaId, Vec<Value>)>,
    },
    /// Run one budgeted progressive resolve.
    Resolve {
        /// Per-request budget.
        budget: ResolveBudget,
        /// Where the report goes.
        reply: Sender<ProgressiveReport>,
    },
    /// One boundary pass: resolve to fixpoint, publish a fresh
    /// [`StitchedView`], then reply (auto-passes drop the receiver).
    Stitch {
        /// Where the pass report goes.
        reply: Sender<StitchReply>,
    },
    /// Live lookup of a record past the published boundary.
    Lookup {
        /// Record id.
        id: u32,
        /// `(entity label, member ids ascending)`.
        reply: Sender<(u32, Vec<u32>)>,
    },
    /// Session-lifetime counters for the `stats` reply.
    Stats {
        /// `(merges, comparisons)`.
        reply: Sender<(usize, usize)>,
    },
    /// Snapshot the session at `path`.
    Checkpoint {
        /// Snapshot path.
        path: PathBuf,
        /// Outcome of the (internally retried) write.
        reply: Sender<Result<()>>,
    },
    /// Stop the owner thread (on service drop).
    Shutdown,
}

/// One published generation of the authoritative partition: everything a
/// lookup needs, immutable, behind an `Arc`. Built by the owner thread
/// after each boundary pass and swapped in atomically.
pub(crate) struct StitchedView {
    /// Compressed rows: an entity label per record, every record grouped
    /// by label, a row start per label. Record ids `< entities.len()` are
    /// covered by this generation.
    entities: Grouping,
    /// Boundary passes published so far (generation counter).
    passes: u64,
}

/// A published generation is three rows of rids and a counter: the
/// compile-time twin of the "Base super records" CI step, which refuses
/// a map or a nested partition in the view again.
const _: () = assert!(size_of::<Grouping>() == 3 * size_of::<Vec<u32>>());
const _: () = assert!(size_of::<StitchedView>() == size_of::<Grouping>() + size_of::<u64>());

impl StitchedView {
    /// Records this generation covers.
    pub(crate) fn len(&self) -> usize {
        self.entities.len()
    }

    /// Entity label of a covered record id.
    pub(crate) fn entity_of(&self, id: u32) -> u32 {
        self.entities.root_of(id)
    }

    /// Members of an entity by label, ascending; `None` for a label that
    /// names no entity.
    pub(crate) fn members_of(&self, label: u32) -> Option<&[u32]> {
        self.entities.members_of(label)
    }

    /// The whole partition, in [`HeraSession::clusters`] order, built on
    /// each call.
    pub(crate) fn partition(&self) -> Vec<Vec<u32>> {
        self.entities.clusters()
    }

    /// Published boundary passes.
    pub(crate) fn passes(&self) -> u64 {
        self.passes
    }

    /// Captures the session's current partition as generation `passes`.
    fn capture(session: &mut HeraSession, passes: u64) -> Self {
        StitchedView {
            entities: session.grouping(),
            passes,
        }
    }
}

/// The published-view slot: readers clone the inner `Arc` under a read
/// lock; the owner thread swaps a fresh generation in under a write
/// lock held only for the assignment.
pub(crate) type Published = Arc<RwLock<Arc<StitchedView>>>;

/// Spawns the owner thread for `session`. The initial published view is
/// captured from the session *before* the handoff, so a restored
/// service answers lookups from its first generation immediately.
pub(crate) fn spawn_session_worker(
    mut session: HeraSession,
    recorder: Recorder,
) -> (Sender<SessionCmd>, Published, JoinHandle<()>) {
    let passes = u64::from(!session.is_empty());
    let published: Published = Arc::new(RwLock::new(Arc::new(StitchedView::capture(
        &mut session,
        passes,
    ))));
    let slot = published.clone();
    let (tx, rx) = channel();
    let handle = std::thread::Builder::new()
        .name("hera-session".into())
        .spawn(move || session_worker_loop(session, slot, recorder, rx, passes))
        .expect("spawn session worker");
    (tx, published, handle)
}

/// The owner body: drain commands until `Shutdown` or every sender is
/// gone. Replies to dropped callers are discarded (`.ok()`), so an
/// abandoned request can never wedge the thread.
fn session_worker_loop(
    mut session: HeraSession,
    published: Published,
    recorder: Recorder,
    rx: Receiver<SessionCmd>,
    mut passes: u64,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            SessionCmd::Schema { name, attrs } => {
                session.add_schema(name, attrs);
            }
            SessionCmd::Ingest { records } => {
                // The front end validated schema + arity under its
                // bookkeeping lock, so failure here is a service-level
                // bug, not bad client input.
                session.extend(records).expect("front-end-validated ingest");
            }
            SessionCmd::Resolve { budget, reply } => {
                reply.send(session.resolve_progressive(budget)).ok();
            }
            SessionCmd::Stitch { reply } => {
                let report = session.resolve_progressive(ResolveBudget::unlimited());
                passes += 1;
                let view = Arc::new(StitchedView::capture(&mut session, passes));
                let total = view.len();
                // Publish: the only write the slot ever sees, held just
                // long enough to swap the pointer.
                let previous = std::mem::replace(
                    &mut *published.write().expect("published view poisoned"),
                    view,
                );
                let ingested = total - previous.len();
                recorder.emit(
                    "serve_stitch",
                    vec![
                        ("ingested", Json::Int(ingested as i64)),
                        ("merges", Json::Int(report.merges as i64)),
                        ("stitched_total", Json::Int(total as i64)),
                        ("pass", Json::Int(passes as i64)),
                    ],
                );
                recorder.flush();
                reply.send(StitchReply { ingested, report }).ok();
            }
            SessionCmd::Lookup { id, reply } => {
                let entity = session.entity_of(RecordId::new(id));
                let members = session
                    .entity_members(entity)
                    .expect("a root has a super record")
                    .to_vec();
                reply.send((entity, members)).ok();
            }
            SessionCmd::Stats { reply } => {
                let stats = session.stats();
                reply.send((stats.merges, stats.comparisons)).ok();
            }
            SessionCmd::Checkpoint { path, reply } => {
                reply.send(session.checkpoint(path)).ok();
            }
            SessionCmd::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_core::HeraConfig;

    /// A session of four records: the two alices merge into entity 0,
    /// bob and carol stay alone.
    fn resolved_session() -> HeraSession {
        let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
        let schema = session.add_schema("crm", ["name"]);
        for name in ["alice smith", "bob jones", "alice smith", "carol white"] {
            session.add_record(schema, vec![name.into()]).unwrap();
        }
        session.resolve();
        session
    }

    /// Every covered record's entity and member row answer as the
    /// session does, and the partition is the session's.
    fn assert_mirrors(view: &StitchedView, session: &mut HeraSession) {
        assert_eq!(view.len(), session.len());
        for id in 0..session.len() as u32 {
            let entity = session.entity_of(RecordId::new(id));
            assert_eq!(view.entity_of(id), entity);
            assert_eq!(view.members_of(entity), session.entity_members(entity));
        }
        assert_eq!(view.partition(), session.clusters());
    }

    #[test]
    fn view_answers_as_the_session() {
        let mut session = resolved_session();
        let view = StitchedView::capture(&mut session, 1);
        assert_mirrors(&view, &mut session);
        assert_eq!(view.partition(), [vec![0, 2], vec![1], vec![3]]);
        assert_eq!(view.members_of(0), Some(&[0, 2][..]));
        assert_eq!(view.passes(), 1);
    }

    #[test]
    fn a_label_that_names_no_entity_has_no_members() {
        let mut session = resolved_session();
        let view = StitchedView::capture(&mut session, 1);
        assert_eq!(view.entity_of(2), 0, "record 2 folded into entity 0");
        assert_eq!(view.members_of(2), None);
        assert_eq!(view.members_of(4), None, "past the covered records");
        assert_eq!(view.members_of(u32::MAX), None);
    }

    #[test]
    fn empty_session_gives_an_empty_view() {
        let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
        let view = StitchedView::capture(&mut session, 0);
        assert_eq!(view.len(), 0);
        assert!(view.partition().is_empty());
        assert_eq!(view.members_of(0), None);
    }

    #[test]
    fn restored_session_gives_the_same_view() {
        let mut session = resolved_session();
        let path =
            std::env::temp_dir().join(format!("hera-serve-view-test-{}.hera", std::process::id()));
        session.checkpoint(&path).unwrap();
        let mut restored = HeraSession::builder(HeraConfig::new(0.5, 0.5))
            .restore(&path)
            .unwrap();
        std::fs::remove_file(&path).ok();
        let view = StitchedView::capture(&mut restored, 1);
        assert_mirrors(&view, &mut restored);
        assert_eq!(view.partition(), session.clusters());
    }
}
