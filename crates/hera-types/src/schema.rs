//! Source schemas and the schema registry.

use crate::error::Result;
use crate::ids::{SchemaId, SourceAttrId};
use crate::json::Json;

/// One attribute of a source schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceAttr {
    /// Globally unique id of this attribute.
    pub id: SourceAttrId,
    /// Display name within its schema (e.g. `"Tel"`, `"Contact No."`).
    /// Names are *not* unique across schemas and carry no identity.
    pub name: String,
}

/// A source schema: an ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Id of this schema.
    pub id: SchemaId,
    /// Human-readable name (e.g. `"Customer I"`, `"IMDB"`, `"Target"`).
    pub name: String,
    /// Ordered attributes; a record under this schema stores one value per
    /// attribute, positionally aligned.
    pub attrs: Vec<SourceAttr>,
}

impl Schema {
    /// Number of attributes (`k_i` in the paper).
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }
}

/// Interns schemas and hands out globally unique [`SourceAttrId`]s.
///
/// The registry is the single authority for "which attribute is this" —
/// every record's field positions resolve through it, and the schema-based
/// method's votes are keyed by the `SourceAttrId`s it mints.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    schemas: Vec<Schema>,
    /// Maps each `SourceAttrId` back to its owning schema. Derived; not
    /// serialized — rebuilt via [`SchemaRegistry::rebuild_lookups`].
    attr_owner: Vec<SchemaId>,
    /// Maps each `SourceAttrId` to its position within its schema.
    /// Derived; not serialized.
    attr_pos: Vec<u32>,
    next_attr: u32,
}

impl SchemaRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new schema from attribute display names, minting fresh
    /// attribute ids. Returns the new schema's id.
    pub fn add_schema<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        name: impl Into<String>,
        attr_names: I,
    ) -> SchemaId {
        let id = SchemaId::from(self.schemas.len());
        let attrs: Vec<SourceAttr> = attr_names
            .into_iter()
            .enumerate()
            .map(|(pos, n)| {
                let attr_id = SourceAttrId::new(self.next_attr);
                self.next_attr += 1;
                self.attr_owner.push(id);
                self.attr_pos.push(pos as u32);
                SourceAttr {
                    id: attr_id,
                    name: n.into(),
                }
            })
            .collect();
        self.schemas.push(Schema {
            id,
            name: name.into(),
            attrs,
        });
        id
    }

    /// Number of registered schemas.
    #[inline]
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True if no schemas are registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Looks up a schema.
    ///
    /// # Panics
    /// Panics if the id was not minted by this registry.
    #[inline]
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Iterates over all schemas in registration order.
    pub fn schemas(&self) -> impl Iterator<Item = &Schema> {
        self.schemas.iter()
    }

    /// The schema that owns `attr`.
    #[inline]
    pub fn attr_schema(&self, attr: SourceAttrId) -> SchemaId {
        self.attr_owner[attr.index()]
    }

    /// The position of `attr` within its owning schema.
    #[inline]
    pub(crate) fn attr_position(&self, attr: SourceAttrId) -> usize {
        self.attr_pos[attr.index()] as usize
    }

    /// The display name of `attr`, qualified by its schema
    /// (`"Customer I.name"`).
    pub fn attr_qualified_name(&self, attr: SourceAttrId) -> String {
        let schema = self.schema(self.attr_schema(attr));
        let pos = self.attr_position(attr);
        format!("{}.{}", schema.name, schema.attrs[pos].name)
    }

    /// Encodes as JSON: `{"schemas": [..], "next_attr": n}`. The derived
    /// lookup tables are omitted, matching the serde `skip` encoding of
    /// earlier builds.
    pub fn to_json(&self) -> Json {
        let schemas = self
            .schemas
            .iter()
            .map(|schema| {
                let attrs = schema
                    .attrs
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("id".into(), Json::Int(i64::from(a.id.raw()))),
                            ("name".into(), Json::Str(a.name.clone())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".into(), Json::Int(i64::from(schema.id.raw()))),
                    ("name".into(), Json::Str(schema.name.clone())),
                    ("attrs".into(), Json::Arr(attrs)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schemas".into(), Json::Arr(schemas)),
            ("next_attr".into(), Json::Int(i64::from(self.next_attr))),
        ])
    }

    /// Decodes from the representation produced by
    /// [`SchemaRegistry::to_json`]. The derived lookup tables start empty;
    /// call [`SchemaRegistry::rebuild_lookups`] before resolving attributes.
    pub fn from_json(json: &Json) -> Result<Self> {
        let mut schemas = Vec::new();
        for s in json.expect("schemas")?.as_arr()? {
            let mut attrs = Vec::new();
            for a in s.expect("attrs")?.as_arr()? {
                attrs.push(SourceAttr {
                    id: SourceAttrId::new(a.expect("id")?.as_u32()?),
                    name: a.expect("name")?.as_str()?.to_owned(),
                });
            }
            schemas.push(Schema {
                id: SchemaId::new(s.expect("id")?.as_u32()?),
                name: s.expect("name")?.as_str()?.to_owned(),
                attrs,
            });
        }
        Ok(Self {
            schemas,
            attr_owner: Vec::new(),
            attr_pos: Vec::new(),
            next_attr: json.expect("next_attr")?.as_u32()?,
        })
    }

    /// Rebuilds the derived (non-serialized) lookup tables after
    /// deserialization.
    pub fn rebuild_lookups(&mut self) {
        self.attr_owner = vec![SchemaId::new(0); self.next_attr as usize];
        self.attr_pos = vec![0; self.next_attr as usize];
        for schema in &self.schemas {
            for (pos, attr) in schema.attrs.iter().enumerate() {
                self.attr_owner[attr.id.index()] = schema.id;
                self.attr_pos[attr.id.index()] = pos as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_two() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.add_schema(
            "Customer I",
            ["name", "address", "e-mail", "city", "Con.Type"],
        );
        reg.add_schema("Customer II", ["name", "Contact No.", "Job"]);
        reg
    }

    #[test]
    fn schema_ids_are_dense() {
        let reg = registry_with_two();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.schema(SchemaId::new(0)).name, "Customer I");
        assert_eq!(reg.schema(SchemaId::new(1)).name, "Customer II");
    }

    #[test]
    fn attr_ids_are_globally_unique() {
        let reg = registry_with_two();
        let s0 = reg.schema(SchemaId::new(0));
        let s1 = reg.schema(SchemaId::new(1));
        // Both schemas have an attribute called "name" — different ids.
        let id_of = |s: &Schema| s.attrs.iter().find(|a| a.name == "name").unwrap().id;
        let (a0, a1) = (id_of(s0), id_of(s1));
        assert_ne!(a0, a1);
    }

    #[test]
    fn attr_reverse_lookup() {
        let reg = registry_with_two();
        let s1 = reg.schema(SchemaId::new(1));
        let tel = s1.attrs[1].id;
        assert_eq!(reg.attr_schema(tel), SchemaId::new(1));
        assert_eq!(reg.attr_position(tel), 1);
        assert_eq!(reg.attr_qualified_name(tel), "Customer II.Contact No.");
    }

    #[test]
    fn arity() {
        let reg = registry_with_two();
        assert_eq!(reg.schema(SchemaId::new(0)).arity(), 5);
        assert_eq!(reg.schema(SchemaId::new(1)).arity(), 3);
    }

    #[test]
    fn rebuild_lookups_after_json_roundtrip() {
        let reg = registry_with_two();
        let json = reg.to_json().to_string_compact();
        let mut back = SchemaRegistry::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        back.rebuild_lookups();
        let s1 = back.schema(SchemaId::new(1));
        let tel = s1.attrs[1].id;
        assert_eq!(back.attr_qualified_name(tel), "Customer II.Contact No.");
    }
}
