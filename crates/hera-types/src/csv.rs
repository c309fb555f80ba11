//! CSV ingestion: build heterogeneous datasets from one CSV file per
//! source.
//!
//! Each file's header row becomes a source schema; each data row becomes
//! a record. Values parse as integers, then floats, then strings; empty
//! cells become nulls. The parser handles RFC-4180 quoting (embedded
//! commas, escaped quotes, newlines inside quoted fields).
//!
//! Ground truth is optional: [`CsvImporter::with_entity_column`] names a
//! column holding entity identifiers (dropped from the schema, used as
//! labels); without it every record gets a distinct entity, which makes
//! recall metrics meaningless but lets HERA run on unlabeled data.

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{HeraError, Result};
use crate::ids::{CanonAttrId, EntityId};
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Splits one CSV record (RFC-4180): returns the fields and the number
/// of input bytes consumed (including the terminating newline).
fn parse_record(input: &str) -> Option<(Vec<String>, usize)> {
    if input.is_empty() {
        return None;
    }
    let bytes = input.as_bytes();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    let mut in_quotes = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_quotes {
            if c == '"' {
                if bytes.get(i + 1) == Some(&b'"') {
                    field.push('"');
                    i += 2;
                } else {
                    in_quotes = false;
                    i += 1;
                }
            } else {
                // Multi-byte chars: push the full char.
                let ch = input[i..].chars().next().unwrap();
                field.push(ch);
                i += ch.len_utf8();
            }
        } else {
            match c {
                '"' if field.is_empty() => {
                    in_quotes = true;
                    i += 1;
                }
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    i += 1;
                }
                '\r' if bytes.get(i + 1) == Some(&b'\n') => {
                    fields.push(field);
                    return Some((fields, i + 2));
                }
                '\n' => {
                    fields.push(field);
                    return Some((fields, i + 1));
                }
                _ => {
                    let ch = input[i..].chars().next().unwrap();
                    field.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
    }
    fields.push(field);
    Some((fields, bytes.len()))
}

/// Parses a whole CSV document into records.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some((rec, used)) = parse_record(rest) {
        // Skip completely empty trailing lines.
        if !(rec.len() == 1 && rec[0].is_empty()) {
            out.push(rec);
        }
        rest = &rest[used..];
        if rest.is_empty() {
            break;
        }
    }
    out
}

fn parse_value(cell: &str) -> Value {
    let t = cell.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        if f.is_finite() {
            return Value::Float(f);
        }
    }
    Value::Str(t.to_owned())
}

/// Builds a heterogeneous [`Dataset`] from per-source CSV documents.
#[derive(Debug, Default)]
pub struct CsvImporter {
    name: String,
    entity_column: Option<String>,
    /// (source name, csv text) in registration order.
    sources: Vec<(String, String)>,
}

impl CsvImporter {
    /// Creates an importer for a named dataset.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Names the column carrying ground-truth entity ids (must be present
    /// in every source that has labels; missing cells error).
    pub fn with_entity_column(mut self, column: impl Into<String>) -> Self {
        self.entity_column = Some(column.into());
        self
    }

    /// Adds one source's CSV text (header row + data rows).
    pub fn add_source(mut self, name: impl Into<String>, csv: impl Into<String>) -> Self {
        self.sources.push((name.into(), csv.into()));
        self
    }

    /// Parses everything into a dataset.
    pub fn build(self) -> Result<Dataset> {
        let mut builder = DatasetBuilder::new(self.name.clone());
        // Canonical classes by distinct column name.
        let mut next_class = 0u32;
        let mut class_of_name: FxHashMap<String, u32> = FxHashMap::default();
        let mut entity_ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut next_entity = 0u32;

        for (source_name, text) in &self.sources {
            let rows = parse_csv(text);
            let Some(header) = rows.first() else {
                return Err(HeraError::Serialization(format!(
                    "source {source_name}: empty CSV"
                )));
            };
            let entity_pos = self
                .entity_column
                .as_ref()
                .and_then(|c| header.iter().position(|h| h == c));
            if self.entity_column.is_some() && entity_pos.is_none() {
                return Err(HeraError::GroundTruth(format!(
                    "source {source_name}: entity column {:?} not in header",
                    self.entity_column.as_deref().unwrap()
                )));
            }
            let attr_cols: Vec<(usize, String)> = header
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != entity_pos)
                .map(|(i, h)| (i, h.clone()))
                .collect();
            let schema_attrs: Vec<(String, CanonAttrId)> = attr_cols
                .iter()
                .map(|(_, h)| {
                    let class = *class_of_name.entry(h.clone()).or_insert_with(|| {
                        let c = next_class;
                        next_class += 1;
                        c
                    });
                    (h.clone(), CanonAttrId::new(class))
                })
                .collect();
            let schema = builder.add_schema(source_name.clone(), schema_attrs);

            for (rowno, row) in rows.iter().enumerate().skip(1) {
                if row.len() != header.len() {
                    return Err(HeraError::Serialization(format!(
                        "source {source_name} row {}: {} fields, header has {}",
                        rowno + 1,
                        row.len(),
                        header.len()
                    )));
                }
                let entity = match entity_pos {
                    Some(pos) => {
                        let key = row[pos].trim().to_owned();
                        if key.is_empty() {
                            return Err(HeraError::GroundTruth(format!(
                                "source {source_name} row {}: empty entity id",
                                rowno + 1
                            )));
                        }
                        *entity_ids.entry(key).or_insert_with(|| {
                            let e = next_entity;
                            next_entity += 1;
                            e
                        })
                    }
                    None => {
                        let e = next_entity;
                        next_entity += 1;
                        e
                    }
                };
                let values: Vec<Value> = attr_cols
                    .iter()
                    .map(|(i, _)| parse_value(&row[*i]))
                    .collect();
                builder.add_record(schema, values, EntityId::new(entity))?;
            }
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RecordId;

    const CRM_A: &str = "entity,name,email,city\n\
        e1,John Bush,bush@gmail,LA\n\
        e2,\"Wong, Alice\",alice@x,NYC\n";
    const CRM_B: &str = "name,phone,entity\n\
        J. Bush,831-432,e1\n\
        A. Wong,555-123,e2\n";

    fn import() -> Dataset {
        CsvImporter::new("crm")
            .with_entity_column("entity")
            .add_source("CRM A", CRM_A)
            .add_source("CRM B", CRM_B)
            .build()
            .unwrap()
    }

    #[test]
    fn basic_import() {
        let ds = import();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.registry.len(), 2);
        assert_eq!(ds.truth.entity_count(), 2);
        // Entity column excluded from schemas.
        assert_eq!(ds.registry.schema(crate::SchemaId::new(0)).arity(), 3);
        assert_eq!(ds.registry.schema(crate::SchemaId::new(1)).arity(), 2);
        // Cross-source entity identity via shared keys.
        assert!(ds.truth.same_entity(RecordId::new(0), RecordId::new(2)));
        assert!(!ds.truth.same_entity(RecordId::new(0), RecordId::new(1)));
    }

    #[test]
    fn quoted_fields_and_embedded_commas() {
        let ds = import();
        assert_eq!(
            ds.record(RecordId::new(1)).values[0],
            Value::from("Wong, Alice")
        );
    }

    #[test]
    fn shared_column_names_share_classes() {
        let ds = import();
        let name_a = ds.attr_of_field(RecordId::new(0), 0);
        let name_b = ds.attr_of_field(RecordId::new(2), 0);
        assert!(ds.truth.same_attr(name_a, name_b));
        let email = ds.attr_of_field(RecordId::new(0), 1);
        assert!(!ds.truth.same_attr(name_a, email));
    }

    #[test]
    fn type_inference() {
        let ds = CsvImporter::new("t")
            .add_source("A", "a,b,c,d\n1984,3.5,text,\n")
            .build()
            .unwrap();
        let r = ds.record(RecordId::new(0));
        assert_eq!(r.values[0], Value::Int(1984));
        assert_eq!(r.values[1], Value::Float(3.5));
        assert_eq!(r.values[2], Value::from("text"));
        assert!(r.values[3].is_null());
    }

    #[test]
    fn escaped_quotes_and_crlf() {
        let csv = "a,b\r\n\"say \"\"hi\"\"\",2\r\n";
        let ds = CsvImporter::new("t").add_source("A", csv).build().unwrap();
        assert_eq!(
            ds.record(RecordId::new(0)).values[0],
            Value::from("say \"hi\"")
        );
    }

    #[test]
    fn newline_inside_quotes() {
        let csv = "a\n\"line1\nline2\"\n";
        let ds = CsvImporter::new("t").add_source("A", csv).build().unwrap();
        assert_eq!(
            ds.record(RecordId::new(0)).values[0],
            Value::from("line1\nline2")
        );
    }

    #[test]
    fn ragged_row_rejected() {
        let err = CsvImporter::new("t")
            .add_source("A", "a,b\n1\n")
            .build()
            .unwrap_err();
        assert!(matches!(err, HeraError::Serialization(_)));
    }

    #[test]
    fn missing_entity_column_rejected() {
        let err = CsvImporter::new("t")
            .with_entity_column("entity")
            .add_source("A", "a,b\n1,2\n")
            .build()
            .unwrap_err();
        assert!(matches!(err, HeraError::GroundTruth(_)));
    }

    #[test]
    fn unlabeled_import_gets_distinct_entities() {
        let ds = CsvImporter::new("t")
            .add_source("A", "a\nx\ny\n")
            .build()
            .unwrap();
        assert_eq!(ds.truth.entity_count(), 2);
    }
}
