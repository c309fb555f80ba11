//! Base records.

use crate::error::Result;
use crate::ids::{RecordId, SchemaId};
use crate::json::Json;
use crate::value::Value;

/// A base record: one tuple under one source schema.
///
/// `values[k]` is the value of the schema's `k`-th attribute. Base records
/// are the "simplest super record, where each field stores one value"
/// (§II-A); `hera-core` lifts them into
/// [`SuperRecord`](https://docs.rs/hera-core)s when HERA starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Dense record id within its dataset.
    pub id: RecordId,
    /// The schema this record is an instance of.
    pub schema: SchemaId,
    /// One value per schema attribute, positionally aligned.
    pub values: Vec<Value>,
}

impl Record {
    /// Creates a record; `values.len()` must match the schema arity (checked
    /// by [`DatasetBuilder`](crate::DatasetBuilder) on insert).
    pub fn new(id: RecordId, schema: SchemaId, values: Vec<Value>) -> Self {
        Self { id, schema, values }
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Number of non-null fields — the record's usable information content.
    pub fn non_null_arity(&self) -> usize {
        self.values.iter().filter(|v| !v.is_null()).count()
    }

    /// Encodes as JSON: `{"id": .., "schema": .., "values": [..]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Int(i64::from(self.id.raw()))),
            ("schema".into(), Json::Int(i64::from(self.schema.raw()))),
            (
                "values".into(),
                Json::Arr(self.values.iter().map(Value::to_json).collect()),
            ),
        ])
    }

    /// Decodes from the representation produced by [`Record::to_json`].
    pub fn from_json(json: &Json) -> Result<Self> {
        let values = json
            .expect("values")?
            .as_arr()?
            .iter()
            .map(Value::from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            id: RecordId::new(json.expect("id")?.as_u32()?),
            schema: SchemaId::new(json.expect("schema")?.as_u32()?),
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_counts() {
        let r = Record::new(
            RecordId::new(0),
            SchemaId::new(0),
            vec![Value::from("x"), Value::Null, Value::from(3i64)],
        );
        assert_eq!(r.arity(), 3);
        assert_eq!(r.non_null_arity(), 2);
    }
}
