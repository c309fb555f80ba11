//! A thin typed client over the line protocol — what `hera-cli client`
//! and the tests use; re-exported through the `hera` facade.

use crate::protocol::{write_line, Request};
use crate::service::{IngestReply, LookupReply};
use hera_core::ResolveBudget;
use hera_types::json::{parse, Json};
use hera_types::{HeraError, Result, SchemaId, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking protocol client over any line-based byte stream.
///
/// [`ServeClient::connect`] gives the usual TCP client; [`ServeClient::over`]
/// wraps arbitrary reader/writer halves (tests drive an in-process
/// server through a pipe).
pub struct ServeClient<R, W> {
    reader: R,
    writer: W,
}

/// The TCP-backed client most callers want.
pub type TcpClient = ServeClient<BufReader<TcpStream>, TcpStream>;

impl TcpClient {
    /// Connects to a `hera-cli serve --listen` endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| HeraError::Io(e.to_string()))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| HeraError::Io(e.to_string()))?,
        );
        Ok(ServeClient {
            reader,
            writer: stream,
        })
    }
}

impl<R: BufRead, W: Write> ServeClient<R, W> {
    /// Wraps explicit reader/writer halves.
    pub fn over(reader: R, writer: W) -> Self {
        Self { reader, writer }
    }

    /// Sends one request and returns the parsed success response.
    /// Protocol-level failures (`"ok": false`) surface as
    /// [`HeraError::InvalidConfig`] carrying the server's message.
    pub fn request(&mut self, request: &Request) -> Result<Json> {
        let io_err = |e: std::io::Error| HeraError::Io(e.to_string());
        write_line(&mut self.writer, &request.to_json()).map_err(io_err)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line).map_err(io_err)? == 0 {
            return Err(HeraError::Io("server closed the connection".into()));
        }
        let response = parse(&line)?;
        match response.expect("ok")? {
            Json::Bool(true) => Ok(response),
            _ => {
                let msg = response
                    .get("error")
                    .and_then(|e| e.as_str().ok())
                    .unwrap_or("unspecified server error");
                Err(HeraError::InvalidConfig(format!("server: {msg}")))
            }
        }
    }

    /// Registers a schema; returns its id.
    pub fn schema(&mut self, name: &str, attrs: &[String]) -> Result<SchemaId> {
        let reply = self.request(&Request::Schema {
            name: name.to_string(),
            attrs: attrs.to_vec(),
        })?;
        Ok(SchemaId::new(reply.expect("schema")?.as_u32()?))
    }

    /// Ingests one record; returns its id.
    pub fn ingest(&mut self, schema: SchemaId, values: Vec<Value>) -> Result<IngestReply> {
        let reply = self.request(&Request::Ingest {
            schema: schema.raw(),
            values,
        })?;
        Ok(IngestReply {
            id: reply.expect("id")?.as_u32()?,
            stitched: matches!(reply.get("stitched"), Some(Json::Bool(true))),
        })
    }

    /// Ingests a batch; returns the assigned ids.
    pub fn batch(&mut self, records: Vec<(SchemaId, Vec<Value>)>) -> Result<Vec<u32>> {
        let reply = self.request(&Request::Batch {
            records: records.into_iter().map(|(s, v)| (s.raw(), v)).collect(),
        })?;
        reply
            .expect("ids")?
            .as_arr()?
            .iter()
            .map(|j| j.as_u32())
            .collect()
    }

    /// Runs budgeted resolution; returns `(merges, exhausted)`.
    pub fn resolve(&mut self, budget: ResolveBudget) -> Result<(usize, bool)> {
        let reply = self.request(&Request::Resolve { budget })?;
        let merges = reply.expect("merges")?.as_i64()? as usize;
        let exhausted = matches!(reply.expect("exhausted")?, Json::Bool(true));
        Ok((merges, exhausted))
    }

    /// Runs the boundary pass; returns the published total.
    pub fn stitch(&mut self) -> Result<usize> {
        let reply = self.request(&Request::Stitch)?;
        Ok(reply.expect("stitched")?.as_i64()? as usize)
    }

    /// Looks up a record's entity by id.
    pub fn lookup(&mut self, id: u32) -> Result<LookupReply> {
        let reply = self.request(&Request::Lookup { id })?;
        Ok(LookupReply {
            entity: reply.expect("entity")?.as_u32()?,
            provisional: matches!(reply.expect("provisional")?, Json::Bool(true)),
            members: reply
                .expect("members")?
                .as_arr()?
                .iter()
                .map(|j| j.as_u32())
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Lists a published entity's members.
    pub fn entity(&mut self, label: u32) -> Result<Vec<u32>> {
        let reply = self.request(&Request::Entity { label })?;
        reply
            .expect("members")?
            .as_arr()?
            .iter()
            .map(|j| j.as_u32())
            .collect()
    }

    /// Fetches the service-wide counters object.
    pub fn stats(&mut self) -> Result<Json> {
        self.request(&Request::Stats)
    }

    /// Asks the service to checkpoint itself at a server-side path.
    pub fn checkpoint(&mut self, path: &str) -> Result<()> {
        self.request(&Request::Checkpoint {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    /// Stops the service.
    pub fn shutdown(&mut self) -> Result<()> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}
