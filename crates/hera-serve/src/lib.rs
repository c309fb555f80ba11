//! hera-serve — a long-lived entity-resolution service over the
//! incremental HERA session.
//!
//! The batch driver answers "resolve this dataset"; this crate answers
//! "keep resolving forever": records arrive in batches over a
//! line-delimited JSON protocol (stdin/stdout or TCP), join one
//! authoritative [`hera_core::HeraSession`], resolve incrementally
//! under per-request [`hera_core::ResolveBudget`]s, and stay queryable
//! the whole time (`lookup`, `entity`, `stats`). A *boundary pass*
//! (`stitch`) resolves the session to a fixpoint and publishes its
//! partition as an immutable generation; lookups below the published
//! boundary answer from it, lookups above it ask the live session and
//! are flagged provisional (see the [`service`] module docs).
//!
//! The service is durable: `checkpoint` writes one file — the session's
//! own `hera-store` snapshot (atomic, CRC-checked, retried under a
//! `hera-faults` backoff policy) — and [`ErServiceBuilder::restore`]
//! brings the service back from it. With a journal attached
//! ([`ErServiceBuilder::recorder`]), every protocol request lands an
//! audit line next to the session's own events.
//!
//! The service is concurrent: the session lives on one dedicated owner
//! thread fed by one command queue, the published view is
//! double-buffered (lookups answer from the last *published* generation
//! while the next one builds, then swap atomically), and the TCP
//! transport serves any number of simultaneous clients over one shared
//! `Arc<ErService>`. The [`harness`] module ships the seeded schedule
//! driver the concurrency test suite uses to make interleavings
//! reproducible.
//!
//! | module | contents |
//! |---|---|
//! | [`service`] | [`ErService`]: ingest, resolve, publish, checkpoint |
//! | `worker` | the session-owner thread and the published view (crate-private) |
//! | [`protocol`] | [`Request`] and the JSON-lines wire format |
//! | [`server`] | [`serve_lines`] (stdio) and [`serve_tcp`] loops |
//! | [`client`] | [`ServeClient`] / [`TcpClient`] typed client |
//! | [`harness`] | seeded schedule driver for concurrency tests |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod protocol;
pub mod server;
pub mod service;
mod worker;

pub use client::{ServeClient, TcpClient};
pub use harness::{LoggedPass, LookupSample, RunLog, Schedule, ScheduledOp};
pub use protocol::Request;
pub use server::{serve_lines, serve_tcp};
pub use service::{
    ErService, ErServiceBuilder, IngestReply, LookupReply, ResolveHandle, StitchHandle, StitchReply,
};
