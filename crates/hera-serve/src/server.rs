//! Transport loops: drive an [`ErService`] from any line-delimited byte
//! stream (stdio) or a TCP listener.
//!
//! The stdio loop is single-threaded. The TCP loop accepts any number
//! of simultaneous clients, one thread per connection, all sharing one
//! `Arc<ErService>` — the service is `&self` end to end, so a
//! connection thread never blocks another except at the service's
//! bookkeeping lock (held only for counter updates and channel sends,
//! never across session work).
//!
//! Client disconnects are connection-local: a socket that dies mid-line
//! or mid-request (reset, kill, half-close) ends only its own thread —
//! the partial line parses to an error reply whose write fails with a
//! broken pipe, which the thread absorbs and exits. Nothing panics,
//! nothing leaks, and the service keeps serving everyone else.
//!
//! Shutdown is cooperative: when any client's `shutdown` request is
//! acknowledged, the acceptor is woken by a loopback connection, every
//! live client socket is shut down (unblocking readers parked in
//! `read`), and all connection threads are joined before
//! [`serve_tcp`] returns.

use crate::protocol::{err, write_line, Request};
use crate::service::ErService;
use hera_types::json::parse;
use hera_types::{HeraError, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Longest request line [`serve_lines`] keeps, newline excluded: 64 MiB,
/// thousands of times a 100-record `batch` line. A longer line is read
/// to its newline without being kept and gets an error reply.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Serves line-delimited JSON requests from `input`, writing one
/// response line each to `output`, until the stream ends or a
/// `shutdown` request arrives. Returns `true` when the exit was an
/// explicit shutdown (the TCP loop uses this to distinguish "client
/// hung up" from "stop the server").
///
/// Malformed lines — including a final partial line from a client that
/// died mid-request, a line that is not UTF-8 and a line longer than
/// 64 MiB — get an error response and the loop continues; blank lines
/// are ignored. A failed read or reply write (broken pipe) surfaces as
/// `HeraError::Io`, never a panic.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &ErService,
    input: R,
    output: &mut W,
) -> Result<bool> {
    serve_capped(service, input, output, MAX_LINE_BYTES)
}

/// [`serve_lines`] with lines longer than `cap` bytes refused.
fn serve_capped<R: BufRead, W: Write>(
    service: &ErService,
    mut input: R,
    output: &mut W,
    cap: usize,
) -> Result<bool> {
    let io_err = |e: std::io::Error| HeraError::Io(e.to_string());
    let mut line = Vec::new();
    loop {
        line.clear();
        let mut limited = (&mut input).take(cap as u64 + 1);
        if limited.read_until(b'\n', &mut line).map_err(io_err)? == 0 {
            return Ok(false);
        }
        let request = if line.last() == Some(&b'\n') || line.len() <= cap {
            let text = line.strip_suffix(b"\n").unwrap_or(&line);
            let text = text.strip_suffix(b"\r").unwrap_or(text);
            match std::str::from_utf8(text) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse(text).and_then(|j| Request::from_json(&j)),
                Err(e) => Err(HeraError::Serialization(format!("request line: {e}"))),
            }
        } else {
            skip_line(&mut input).map_err(io_err)?;
            let long = format!("request line longer than {cap} bytes");
            Err(HeraError::Serialization(long))
        };
        let (response, keep_going) = match request {
            Ok(request) => service.handle(request),
            Err(e) => (err(e), true),
        };
        write_line(output, &response).map_err(io_err)?;
        if !keep_going {
            return Ok(true);
        }
    }
}

/// Consumes `input` through the next newline (or to its end) without
/// keeping what it reads.
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        let (used, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (buf.len(), false),
        };
        input.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Live-connection registry: socket clones the shutdown path uses to
/// unblock readers, keyed so each thread can deregister itself. The
/// `stopping` flag is only ever flipped while this registry's lock is
/// held, which closes the register/shutdown race: a socket either makes
/// it into `shutdown_all`'s sweep or observes the flag at registration
/// and is closed on the spot.
struct Connections {
    next_id: u64,
    open: Vec<(u64, TcpStream)>,
}

impl Connections {
    fn register(&mut self, stream: TcpStream, stopping: &AtomicBool) -> u64 {
        if stopping.load(Ordering::SeqCst) {
            stream.shutdown(Shutdown::Both).ok();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((id, stream));
        id
    }

    fn deregister(&mut self, id: u64) {
        self.open.retain(|(open_id, _)| *open_id != id);
    }

    fn shutdown_all(&self) {
        for (_, stream) in &self.open {
            stream.shutdown(Shutdown::Both).ok();
        }
    }
}

/// Runs when a connection thread exits for *any* reason — clean close,
/// IO error, or a panic inside the service — so a dead handler can
/// never leave its registered socket clone holding the client open.
/// Shutting the socket down here makes the client see EOF immediately.
struct DeregisterGuard {
    connections: Arc<Mutex<Connections>>,
    id: u64,
}

impl Drop for DeregisterGuard {
    fn drop(&mut self) {
        let mut registry = self.connections.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, stream)) = registry.open.iter().find(|(id, _)| *id == self.id) {
            stream.shutdown(Shutdown::Both).ok();
        }
        registry.deregister(self.id);
    }
}

/// Connection-thread epilogue (deregistration is the guard's job): if
/// this client requested shutdown, flip the flag, close every live
/// socket (unblocking their readers), and wake the acceptor.
fn finish_connection(
    connections: &Mutex<Connections>,
    outcome: Result<bool>,
    stopping: &AtomicBool,
    addr: SocketAddr,
) {
    match outcome {
        Ok(true) => {
            let registry = connections.lock().unwrap_or_else(|p| p.into_inner());
            stopping.store(true, Ordering::SeqCst);
            registry.shutdown_all();
            drop(registry);
            // Wake the acceptor so it observes the flag; harmless if a
            // real client races in first — that client is served until
            // the socket shutdown above reaches it.
            TcpStream::connect(addr).ok();
        }
        // Client hung up (clean close or mid-line): nothing to do, the
        // thread just ends.
        Ok(false) | Err(HeraError::Io(_)) => {}
        Err(e) => {
            // Non-IO errors out of serve_lines are service-level bugs;
            // surface them without taking the server down.
            eprintln!("hera-serve: connection error: {e}");
        }
    }
}

/// Accepts TCP connections concurrently — one thread per client, all
/// sharing `service` — until some client sends `shutdown`. A
/// disconnecting client (clean close, reset, or death mid-line) ends
/// only its own connection thread; the service state persists across
/// connections. On shutdown every live client socket is closed and
/// every connection thread joined before this returns.
pub fn serve_tcp(service: Arc<ErService>, listener: TcpListener) -> Result<()> {
    let io_err = |e: std::io::Error| HeraError::Io(e.to_string());
    let addr = listener.local_addr().map_err(io_err)?;
    let stopping = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(Mutex::new(Connections {
        next_id: 0,
        open: Vec::new(),
    }));
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();

    for conn in listener.incoming() {
        let conn = conn.map_err(io_err)?;
        // The shutdown path wakes this acceptor with a loopback
        // connection; the flag is set before that connect, so seeing
        // the wake-up connection implies seeing the flag.
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        threads.retain(|t| !t.is_finished());
        let Ok(read_half) = conn.try_clone() else {
            continue;
        };
        let id = connections
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .register(read_half, &stopping);

        let service = service.clone();
        let stopping = stopping.clone();
        let connections = connections.clone();
        threads.push(std::thread::spawn(move || {
            let _guard = DeregisterGuard {
                connections: connections.clone(),
                id,
            };
            let outcome = conn
                .try_clone()
                .map_err(|e| HeraError::Io(e.to_string()))
                .and_then(|reader| {
                    let mut writer = conn;
                    serve_lines(&service, BufReader::new(reader), &mut writer)
                });
            finish_connection(&connections, outcome, &stopping, addr);
        }));
    }

    // The acceptor saw the wake-up connection and broke out. Client
    // sockets are already shut down, so every reader unblocks and its
    // thread exits; join them all before returning.
    for thread in threads {
        thread.join().ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeClient;
    use hera_core::HeraConfig;

    /// Records every `write` call it receives, one entry per call.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn assert_one_write_per_line(log: &WriteLog, lines: usize) {
        assert_eq!(log.0.len(), lines, "one write call per line");
        for call in &log.0 {
            let newlines = call.iter().filter(|&&b| b == b'\n').count();
            assert_eq!((newlines, call.last()), (1, Some(&b'\n')), "{call:?}");
        }
    }

    /// The reply lines `serve` writes for `input`, which sends no
    /// shutdown.
    fn replies(
        serve: impl Fn(&ErService, &[u8], &mut Vec<u8>) -> Result<bool>,
        input: &[u8],
    ) -> Vec<String> {
        let service = ErService::builder(HeraConfig::new(0.5, 0.5), 1).build();
        let mut out = Vec::new();
        assert!(!serve(&service, input, &mut out).unwrap());
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    /// A line that is not UTF-8 gets an error reply, and the request
    /// after it is served.
    #[test]
    fn a_line_that_is_not_utf8_gets_an_error_reply() {
        let input = b"{\"cmd\":\"stats\"}\n\xff\n{\"cmd\":\"stats\"}\n";
        let got = replies(|s, i, o| serve_lines(s, i, o), input);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[0].starts_with(r#"{"ok":true"#), "{got:?}");
        assert!(
            got[1].starts_with(r#"{"ok":false"#) && got[1].contains("utf-8"),
            "{got:?}"
        );
        assert!(got[2].starts_with(r#"{"ok":true"#), "{got:?}");
    }

    /// A line past the cap is read to its newline without being kept and
    /// gets an error reply — a long one, and one a byte past — while
    /// lines of exactly the cap around it are served, the last one
    /// without a newline.
    #[test]
    fn a_line_past_the_cap_gets_an_error_reply() {
        let stats = r#"{"cmd":"stats"}"#;
        let cap = stats.len();
        for oversized in ["x".repeat(5 * cap), format!("{stats} ")] {
            let input = format!("{stats}\n{oversized}\n{stats}");
            let got = replies(|s, i, o| serve_capped(s, i, o, cap), input.as_bytes());
            assert_eq!(got.len(), 3, "{got:?}");
            assert!(got[0].starts_with(r#"{"ok":true"#), "{got:?}");
            let refusal = format!("longer than {cap} bytes");
            assert!(got[1].contains(&refusal), "{got:?}");
            assert!(got[2].starts_with(r#"{"ok":true"#), "{got:?}");
        }
    }

    /// Payload and newline must leave in the same write, from the server
    /// and from the client: split, they stall a raw socket (Nagle's
    /// algorithm against a delayed ACK) once per line.
    #[test]
    fn every_wire_line_is_one_write() {
        let service = ErService::builder(HeraConfig::new(0.5, 0.5), 1).build();
        let requests = concat!(
            r#"{"cmd":"schema","name":"crm","attrs":["name"]}"#,
            "\n\n",
            r#"{"cmd":"ingest","schema":0,"values":["alice"]}"#,
            "\nnot json\n",
            r#"{"cmd":"lookup","id":0}"#,
            "\n",
            r#"{"cmd":"stats"}"#,
            "\n",
        );
        let mut replies = WriteLog::default();
        let shutdown = serve_lines(&service, requests.as_bytes(), &mut replies).unwrap();
        assert!(!shutdown);
        assert_one_write_per_line(&replies, 5);

        let mut sent = WriteLog::default();
        let canned = "{\"ok\":true,\"stitched\":0}\n".repeat(3);
        let mut client = ServeClient::over(canned.as_bytes(), &mut sent);
        client.stitch().unwrap();
        client.stats().unwrap();
        client
            .request(&Request::Batch {
                records: vec![(0, vec!["alice".into()]), (0, vec!["bob".into()])],
            })
            .unwrap();
        assert_one_write_per_line(&sent, 3);
    }
}
