//! The wire protocol: one JSON object per line, request in, response
//! out, over any byte stream (stdio or TCP — the service never sees the
//! transport).
//!
//! Every request is an object with a `"cmd"` discriminant; every
//! response is an object with `"ok": true` plus command-specific fields,
//! or `"ok": false` with an `"error"` string. Unknown commands and
//! malformed requests produce an error *response* — a bad line never
//! kills the connection, let alone the service.

use hera_core::ResolveBudget;
use hera_types::json::Json;
use hera_types::{HeraError, Result, Value};
use std::io::Write;
use std::time::Duration;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a source schema; replies with its id.
    Schema {
        /// Source name.
        name: String,
        /// Attribute names, in order.
        attrs: Vec<String>,
    },
    /// Ingest one record; replies with its id.
    Ingest {
        /// Schema id from a prior `Schema` reply.
        schema: u32,
        /// Values, aligned with the schema's attributes.
        values: Vec<Value>,
    },
    /// Ingest many records in one round trip.
    Batch {
        /// `(schema, values)` per record, in arrival order.
        records: Vec<(u32, Vec<Value>)>,
    },
    /// Run budgeted incremental resolution on the authoritative session.
    ///
    /// A wall-clock budget makes the *published* partition
    /// host-timing-dependent, exactly as [`ResolveBudget::wall_clock`]
    /// states for a bare session: where the clock cuts the schedule
    /// decides which merges precede the next arrivals. Count budgets
    /// (`comparisons`, `merges`) stay bit-exact.
    Resolve {
        /// The budget (unlimited when the field is omitted).
        budget: ResolveBudget,
    },
    /// Run the boundary pass: resolve to fixpoint and publish.
    Stitch,
    /// Look up the entity of a record by id.
    Lookup {
        /// Record id from an `Ingest`/`Batch` reply.
        id: u32,
    },
    /// List the members of a published entity.
    Entity {
        /// Entity label from a `Lookup` reply.
        label: u32,
    },
    /// Service-wide counters.
    Stats,
    /// Snapshot the session to one file.
    Checkpoint {
        /// Server-side snapshot path.
        path: String,
    },
    /// Stop the service (the reply is sent before it stops).
    Shutdown,
}

fn budget_to_json(b: &ResolveBudget) -> Json {
    let mut fields = Vec::new();
    if let Some(n) = b.comparisons {
        fields.push(("comparisons".into(), Json::Int(n as i64)));
    }
    if let Some(n) = b.merges {
        fields.push(("merges".into(), Json::Int(n as i64)));
    }
    if let Some(d) = b.wall_clock {
        // Rounded up: a non-zero budget must never arrive as zero, which
        // exhausts before the first round.
        let ms = d.as_nanos().div_ceil(1_000_000);
        fields.push(("wall_clock_ms".into(), Json::Int(ms as i64)));
    }
    Json::Obj(fields)
}

fn budget_from_json(json: Option<&Json>) -> Result<ResolveBudget> {
    let mut budget = ResolveBudget::unlimited();
    let Some(json) = json else {
        return Ok(budget);
    };
    if let Some(n) = json.get("comparisons") {
        budget.comparisons = Some(n.as_i64()?.try_into().map_err(bad_count)?);
    }
    if let Some(n) = json.get("merges") {
        budget.merges = Some(n.as_i64()?.try_into().map_err(bad_count)?);
    }
    if let Some(ms) = json.get("wall_clock_ms") {
        let ms: u64 = ms.as_i64()?.try_into().map_err(bad_count)?;
        budget.wall_clock = Some(Duration::from_millis(ms));
    }
    Ok(budget)
}

fn bad_count<E>(_: E) -> HeraError {
    HeraError::Serialization("budget counts must be non-negative".into())
}

fn record_from_json(json: &Json) -> Result<(u32, Vec<Value>)> {
    let schema = json.expect("schema")?.as_u32()?;
    let values = json
        .expect("values")?
        .as_arr()?
        .iter()
        .map(Value::from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok((schema, values))
}

fn record_to_json(schema: u32, values: &[Value]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Int(schema as i64)),
        (
            "values".into(),
            Json::Arr(values.iter().map(Value::to_json).collect()),
        ),
    ])
}

impl Request {
    /// Parses one protocol line (already JSON-parsed by the caller).
    pub fn from_json(json: &Json) -> Result<Self> {
        let cmd = json.expect("cmd")?.as_str()?;
        Ok(match cmd {
            "schema" => Request::Schema {
                name: json.expect("name")?.as_str()?.to_string(),
                attrs: json
                    .expect("attrs")?
                    .as_arr()?
                    .iter()
                    .map(|a| Ok(a.as_str()?.to_string()))
                    .collect::<Result<Vec<_>>>()?,
            },
            "ingest" => {
                let (schema, values) = record_from_json(json)?;
                Request::Ingest { schema, values }
            }
            "batch" => Request::Batch {
                records: json
                    .expect("records")?
                    .as_arr()?
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<Vec<_>>>()?,
            },
            "resolve" => Request::Resolve {
                budget: budget_from_json(json.get("budget"))?,
            },
            "stitch" => Request::Stitch,
            "lookup" => Request::Lookup {
                id: json.expect("id")?.as_u32()?,
            },
            "entity" => Request::Entity {
                label: json.expect("label")?.as_u32()?,
            },
            "stats" => Request::Stats,
            "checkpoint" => Request::Checkpoint {
                path: json.expect("path")?.as_str()?.to_string(),
            },
            "shutdown" => Request::Shutdown,
            other => {
                return Err(HeraError::Serialization(format!(
                    "unknown command {other:?}"
                )))
            }
        })
    }

    /// Encodes the request as one protocol line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let cmd = |name: &str| ("cmd".to_string(), Json::Str(name.to_string()));
        match self {
            Request::Schema { name, attrs } => Json::Obj(vec![
                cmd("schema"),
                ("name".into(), Json::Str(name.clone())),
                (
                    "attrs".into(),
                    Json::Arr(attrs.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
            ]),
            Request::Ingest { schema, values } => {
                let Json::Obj(mut fields) = record_to_json(*schema, values) else {
                    unreachable!()
                };
                fields.insert(0, cmd("ingest"));
                Json::Obj(fields)
            }
            Request::Batch { records } => Json::Obj(vec![
                cmd("batch"),
                (
                    "records".into(),
                    Json::Arr(records.iter().map(|(s, v)| record_to_json(*s, v)).collect()),
                ),
            ]),
            Request::Resolve { budget } => Json::Obj(vec![
                cmd("resolve"),
                ("budget".into(), budget_to_json(budget)),
            ]),
            Request::Stitch => Json::Obj(vec![cmd("stitch")]),
            Request::Lookup { id } => {
                Json::Obj(vec![cmd("lookup"), ("id".into(), Json::Int(*id as i64))])
            }
            Request::Entity { label } => Json::Obj(vec![
                cmd("entity"),
                ("label".into(), Json::Int(*label as i64)),
            ]),
            Request::Stats => Json::Obj(vec![cmd("stats")]),
            Request::Checkpoint { path } => Json::Obj(vec![
                cmd("checkpoint"),
                ("path".into(), Json::Str(path.clone())),
            ]),
            Request::Shutdown => Json::Obj(vec![cmd("shutdown")]),
        }
    }
}

/// Builds a success response from command-specific fields.
pub fn ok(fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields);
    Json::Obj(all)
}

/// Builds an error response.
pub fn err(e: impl std::fmt::Display) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(e.to_string())),
    ])
}

/// Sends `json` as one protocol line in a single write, payload and
/// newline together, then flushes. Two small writes followed by a read
/// are what Nagle's algorithm and a delayed ACK turn into a stall per
/// line on a raw socket.
pub(crate) fn write_line<W: Write>(out: &mut W, json: &Json) -> std::io::Result<()> {
    let mut line = json.to_string_compact();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::json::parse;

    #[test]
    fn requests_roundtrip_through_json() {
        let requests = [
            Request::Schema {
                name: "crm".into(),
                attrs: vec!["name".into(), "city".into()],
            },
            Request::Ingest {
                schema: 1,
                values: vec![Value::from("alice"), Value::Null, Value::from(3i64)],
            },
            Request::Batch {
                records: vec![(0, vec![Value::from("x")]), (1, vec![Value::Null])],
            },
            Request::Resolve {
                budget: ResolveBudget::comparisons(500)
                    .with_merges(3)
                    .with_wall_clock(Duration::from_millis(250)),
            },
            Request::Resolve {
                budget: ResolveBudget::unlimited(),
            },
            Request::Stitch,
            Request::Lookup { id: 7 },
            Request::Entity { label: 3 },
            Request::Stats,
            Request::Checkpoint {
                path: "/tmp/x.hera".into(),
            },
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_json().to_string_compact();
            let back = Request::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, req, "{line}");
        }
    }

    /// The wire carries whole milliseconds; a finer budget rounds up so
    /// it stays a budget.
    #[test]
    fn sub_millisecond_wall_clock_budgets_round_up() {
        for (sent, arrives_ms) in [(500, 1), (1_000, 1), (1_001, 2), (0, 0)] {
            let req = Request::Resolve {
                budget: ResolveBudget::wall_clock(Duration::from_micros(sent)),
            };
            let line = req.to_json().to_string_compact();
            let back = Request::from_json(&parse(&line).unwrap()).unwrap();
            let want = Request::Resolve {
                budget: ResolveBudget::wall_clock(Duration::from_millis(arrives_ms)),
            };
            assert_eq!(back, want, "{sent} us: {line}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            r#"{"cmd":"warp"}"#,
            r#"{"id":3}"#,
            r#"{"cmd":"lookup"}"#,
            r#"{"cmd":"resolve","budget":{"comparisons":-4}}"#,
        ] {
            let json = parse(bad).unwrap();
            assert!(Request::from_json(&json).is_err(), "{bad}");
        }
    }
}
