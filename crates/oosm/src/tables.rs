//! The §4.6 mapping tables, typed.
//!
//! §4.6: "Persistence of object state in the OOSM is implemented using a
//! relational database. Object types are mapped to tables and properties
//! and relationships are mapped to columns and helper tables." No
//! external DBMS is available here, and the model needs four tables with
//! fixed columns, so each is a vector of typed rows in insertion order.
//! A deleted row stays as a tombstone, so no row ever moves:
//!
//! * `objects (id, kind, name)`: an object's id is its row's position;
//! * `properties (row_id, object_id, key, value_json)`: one row per
//!   property, its value held as JSON text (`null` or `{"i":…}`, `{"f":…}`,
//!   `{"t":…}`, `{"b":…}`);
//! * `relationships (row_id, from_id, relation, to_id)`;
//! * `reports`: one typed row per posted report (see [`crate::reports`]).
//!
//! The tables are their own index. Beside its rows each keeps only the
//! maps its queries read, current after every write: the objects of
//! each kind; each object's property rows; machine objects by
//! `machine_id`; the relation graph in both directions; each report
//! object's row; and report objects by report id and by machine id. So
//! posting a report or exporting a machine costs the same with 1k or
//! 40k stored reports. The maps are never encoded. Decode builds them as
//! it reads the rows, and refuses any row the model could not have
//! written, so a hostile snapshot is an `Err` and not a panic on a later
//! write.
//!
//! The byte format is the one the generic relational store of earlier
//! versions wrote, so snapshot and WAL bytes are unchanged: the table
//! count, then each table in name order as its name, its column names,
//! its rows as `Option<Vec<Value>>` (tombstones included) and the list
//! of columns that store indexed (`[1, 2]` for `objects`, `[1]` for
//! `properties`, none for the others), then the object and row id
//! allocators.
//!
//! [`Tables::rows_visited`] counts the rows queries examine, as the
//! generic store counted them: a row found by id, an object's property
//! rows for a property read, each object a kind lists, every row of a
//! scan. It is a deterministic measure of query work, so a test can pin
//! how much a query path reads independent of host speed. Reading the
//! relation graph or an id map adds nothing.

use crate::model::{ObjectKind, Relation};
use crate::reports::{report_column, REPORT_COLUMNS};
use mpros_core::{Durable, Error, ObjectId, Result};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// A typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (also used for object ids).
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// SQL-style NULL.
    Null,
}

impl Value {
    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float value (`Float` or widened `Int`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The text value, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// True if NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// An `Int` cell.
fn put_int(out: &mut Vec<u8>, v: i64) {
    out.push(0);
    v.encode(out);
}

/// A `Float` cell.
fn put_float(out: &mut Vec<u8>, v: f64) {
    out.push(1);
    v.encode(out);
}

/// A `Text` cell.
fn put_text(out: &mut Vec<u8>, s: &str) {
    out.push(2);
    put_str(out, s);
}

/// A string in `String`'s durable form.
fn put_str(out: &mut Vec<u8>, s: &str) {
    s.len().encode(out);
    out.extend_from_slice(s.as_bytes());
}

impl Durable for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => put_int(out, *v),
            Value::Float(v) => put_float(out, *v),
            Value::Text(s) => put_text(out, s),
            Value::Bool(b) => {
                out.push(3);
                b.encode(out);
            }
            Value::Null => out.push(4),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        match u8::decode(input)? {
            0 => Ok(Value::Int(i64::decode(input)?)),
            1 => Ok(Value::Float(f64::decode(input)?)),
            2 => Ok(Value::Text(String::decode(input)?)),
            3 => Ok(Value::Bool(bool::decode(input)?)),
            4 => Ok(Value::Null),
            tag => Err(Error::invalid(format!("value tag {tag} out of range"))),
        }
    }
}

/// A property value as the JSON text of its `value_json` cell.
pub(crate) fn encode_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{{\"i\":{i}}}"),
        Value::Float(f) => format!("{{\"f\":{f}}}"),
        Value::Text(s) => {
            // One buffer: the escaped text is written straight into the
            // cell.
            let mut cell = Vec::with_capacity(s.len() + 16);
            cell.extend_from_slice(b"{\"t\":");
            serde::Writer::new(&mut cell).str(s);
            cell.push(b'}');
            // The writer copies UTF-8 runs and escapes in ASCII, so the
            // lossy branch is never taken.
            String::from_utf8(cell)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
        }
        Value::Bool(b) => format!("{{\"b\":{b}}}"),
        Value::Null => "null".to_string(),
    }
}

/// The value of a `value_json` cell, or `None` unless the cell is one of
/// the five forms [`encode_value`] writes: `null`, or an object of one
/// entry, `i` (an integer), `f` (a finite number), `t` (a string) or
/// `b` (a boolean).
pub(crate) fn decode_value(json: &str) -> Option<Value> {
    let mut cell = serde::Reader::new(json.as_bytes());
    let value = if cell.null().ok()? {
        Value::Null
    } else {
        if !cell.object().ok()? {
            return None;
        }
        let value = match &*cell.key().ok()? {
            "i" => Value::Int(
                Some(cell.number().ok()?)
                    .filter(|n| !n.is_f64())?
                    .as_i64()?,
            ),
            "f" => Value::Float(Some(cell.number().ok()?.as_f64()?).filter(|f| f.is_finite())?),
            "t" => Value::Text(cell.str().ok()?.into_owned()),
            "b" => Value::Bool(cell.bool().ok()?),
            _ => return None,
        };
        if cell.next_entry().ok()? {
            return None;
        }
        value
    };
    cell.end().ok()?;
    Some(value)
}

/// One `objects` row. Its id is its position.
#[derive(Debug)]
pub(crate) struct Object {
    pub(crate) kind: ObjectKind,
    pub(crate) name: String,
}

/// One `properties` row.
#[derive(Debug)]
pub(crate) struct Property {
    row_id: i64,
    object: ObjectId,
    pub(crate) key: String,
    json: String,
}

impl Property {
    /// The value its cell holds. Every cell is one [`encode_value`]
    /// wrote, since writes encode and decode checks, so the `Null`
    /// fallback is never taken.
    pub(crate) fn value(&self) -> Value {
        decode_value(&self.json).unwrap_or(Value::Null)
    }
}

/// One `relationships` row.
#[derive(Debug)]
struct Relationship {
    row_id: i64,
    from: ObjectId,
    relation: Relation,
    to: ObjectId,
}

/// One `reports` row: a posted report's typed columns (see
/// [`crate::reports`]).
#[derive(Debug)]
pub(crate) struct Report {
    pub(crate) object: ObjectId,
    pub(crate) report_id: i64,
    pub(crate) machine_id: i64,
    pub(crate) condition: i64,
    pub(crate) belief: f64,
    pub(crate) severity: f64,
    pub(crate) timestamp: f64,
    pub(crate) payload: String,
}

impl Report {
    /// The cell of column `col` of [`REPORT_COLUMNS`] after `object_id`.
    pub(crate) fn cell(&self, col: usize) -> Value {
        match col {
            1 => Value::Int(self.report_id),
            2 => Value::Int(self.machine_id),
            3 => Value::Int(self.condition),
            4 => Value::Float(self.belief),
            5 => Value::Float(self.severity),
            6 => Value::Float(self.timestamp),
            7 => Value::Text(self.payload.clone()),
            _ => Value::Null,
        }
    }
}

/// A table's name, its columns and the columns the generic store
/// indexed, as the byte format carries them.
struct Schema {
    name: &'static str,
    columns: &'static [&'static str],
    indexed: &'static [usize],
}

const OBJECTS: Schema = Schema {
    name: "objects",
    columns: &["id", "kind", "name"],
    indexed: &[1, 2],
};

const PROPERTIES: Schema = Schema {
    name: "properties",
    columns: &["row_id", "object_id", "key", "value_json"],
    indexed: &[1],
};

const RELATIONSHIPS: Schema = Schema {
    name: "relationships",
    columns: &["row_id", "from_id", "relation", "to_id"],
    indexed: &[],
};

const REPORTS: Schema = Schema {
    name: "reports",
    columns: &REPORT_COLUMNS,
    indexed: &[],
};

/// Rows in insertion order; a deleted row stays as a `None` tombstone.
#[derive(Debug)]
struct Rows<R> {
    slots: Vec<Option<R>>,
    live: usize,
}

impl<R> Default for Rows<R> {
    fn default() -> Self {
        Rows {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<R> Rows<R> {
    fn push(&mut self, slot: Option<R>) -> usize {
        self.live += usize::from(slot.is_some());
        self.slots.push(slot);
        self.slots.len() - 1
    }

    fn get(&self, at: usize) -> Option<&R> {
        self.slots.get(at)?.as_ref()
    }

    fn take(&mut self, at: usize) -> Option<R> {
        let row = self.slots.get_mut(at)?.take();
        self.live -= usize::from(row.is_some());
        row
    }
}

/// Add `id` to the ascending list under `key`.
fn hold<K: Hash + Eq>(map: &mut HashMap<K, Vec<ObjectId>>, key: K, id: ObjectId) {
    let ids = map.entry(key).or_default();
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

/// Drop `item` from the list under `key`, and the list once empty.
fn unlist<K: Hash + Eq, T: PartialEq>(map: &mut HashMap<K, Vec<T>>, key: K, item: T) {
    if let Some(list) = map.get_mut(&key) {
        list.retain(|x| *x != item);
        if list.is_empty() {
            map.remove(&key);
        }
    }
}

/// True if a `machine_id` property of an object of `kind` names the
/// machine it is registered for.
fn names_machine(kind: ObjectKind, key: &str) -> bool {
    kind == ObjectKind::Machine && key == "machine_id"
}

/// The four mapping tables. [`crate::Oosm::store`] hands out a read-only
/// view: row counts, the rows visited, and each table's live rows.
#[derive(Debug, Default)]
pub struct Tables {
    objects: Rows<Object>,
    /// Live objects of each kind, ascending.
    kinds: HashMap<ObjectKind, Vec<ObjectId>>,
    properties: Rows<Property>,
    /// Each object's property rows, in insertion order.
    properties_of: HashMap<ObjectId, Vec<usize>>,
    /// Machine objects whose `machine_id` property is an `Int`, by that
    /// value, ascending.
    machines: HashMap<i64, Vec<ObjectId>>,
    relationships: Rows<Relationship>,
    /// Relationship rows by `(from, relation)`, in insertion order.
    outgoing: HashMap<(ObjectId, Relation), Vec<usize>>,
    /// Relationship rows by `(to, relation)`, in insertion order.
    incoming: HashMap<(ObjectId, Relation), Vec<usize>>,
    reports: Rows<Report>,
    /// Each posted report object's `reports` row.
    report_rows: HashMap<ObjectId, usize>,
    /// Report objects by report id, ascending.
    by_report: HashMap<i64, Vec<ObjectId>>,
    /// Report objects by machine id, ascending.
    by_machine: HashMap<i64, Vec<ObjectId>>,
    /// The last row id handed to a property or relationship row.
    next_row: i64,
    /// Rows read by queries since construction or decode (never
    /// encoded).
    rows_visited: AtomicU64,
}

impl Tables {
    /// The table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        [OBJECTS, PROPERTIES, RELATIONSHIPS, REPORTS]
            .map(|t| t.name)
            .to_vec()
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        match table {
            "objects" => Ok(self.objects.live),
            "properties" => Ok(self.properties.live),
            "relationships" => Ok(self.relationships.live),
            "reports" => Ok(self.reports.live),
            _ => Err(Error::not_found(format!("table {table}"))),
        }
    }

    /// Rows examined by queries since construction or decode (see the
    /// module docs).
    pub fn rows_visited(&self) -> u64 {
        self.rows_visited.load(Ordering::Relaxed)
    }

    /// The live rows of `table` in row order, as the cells the snapshot
    /// holds for them. Reads every live row (a scan, for inspection and
    /// tests), and every one counts as visited.
    pub fn rows(&self, table: &str) -> Result<Vec<Vec<Value>>> {
        type Encoded = (String, (Vec<String>, Vec<Option<Vec<Value>>>, Vec<usize>));
        self.visit(self.row_count(table)?);
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        let (tables, _, _) = <(Vec<Encoded>, u64, i64)>::from_durable_bytes(&bytes)?;
        let (_, (_, rows, _)) = tables
            .into_iter()
            .find(|(name, _)| name == table)
            .ok_or_else(|| Error::not_found(format!("table {table}")))?;
        Ok(rows.into_iter().flatten().collect())
    }

    fn visit(&self, rows: usize) {
        self.rows_visited.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// A live object's row.
    pub(crate) fn object(&self, id: ObjectId) -> Option<&Object> {
        let row = usize::try_from(id.raw())
            .ok()
            .and_then(|at| self.objects.get(at));
        self.visit(usize::from(row.is_some()));
        row
    }

    /// Live objects of `kind`, ascending.
    pub(crate) fn objects_of_kind(&self, kind: ObjectKind) -> &[ObjectId] {
        let ids = self.kinds.get(&kind).map_or(&[][..], Vec::as_slice);
        self.visit(ids.len());
        ids
    }

    /// The live object an `Int` cell names, with its kind, reading no
    /// row.
    fn live_object(&self, cell: i64) -> Option<(ObjectId, ObjectKind)> {
        let object = self.objects.get(usize::try_from(cell).ok()?)?;
        Some((ObjectId::new(cell as u64), object.kind))
    }

    /// Number of live objects.
    pub(crate) fn object_count(&self) -> usize {
        self.objects.live
    }

    /// The lowest live object named `name` (a scan).
    pub(crate) fn find_by_name(&self, name: &str) -> Option<ObjectId> {
        self.visit(self.objects.live);
        let at = self
            .objects
            .slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|o| o.name == name))?;
        Some(ObjectId::new(at as u64))
    }

    /// Create an object; its id is the next row position.
    pub(crate) fn insert_object(&mut self, kind: ObjectKind, name: &str) -> ObjectId {
        let id = ObjectId::new(self.objects.slots.len() as u64);
        self.objects.push(Some(Object {
            kind,
            name: name.to_string(),
        }));
        self.kinds.entry(kind).or_default().push(id);
        id
    }

    /// An object's property rows, in insertion order.
    pub(crate) fn properties(&self, object: ObjectId) -> impl Iterator<Item = &Property> {
        let rows = self
            .properties_of
            .get(&object)
            .map_or(&[][..], Vec::as_slice);
        self.visit(rows.len());
        rows.iter().filter_map(|&at| self.properties.get(at))
    }

    /// An object's property row under `key`.
    pub(crate) fn property(&self, object: ObjectId, key: &str) -> Option<&Property> {
        self.properties(object).find(|p| p.key == key)
    }

    /// Set property `key` of `object`, of `kind`: the row under that key
    /// takes the new value in place, or a new row is appended.
    pub(crate) fn set_property(
        &mut self,
        object: ObjectId,
        kind: ObjectKind,
        key: &str,
        value: &Value,
    ) {
        let json = encode_value(value);
        let rows = self.properties_of.entry(object).or_default();
        self.rows_visited
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        let existing = rows
            .iter()
            .copied()
            .find(|&at| self.properties.get(at).is_some_and(|p| p.key == key));
        let old = match existing.and_then(|at| self.properties.slots[at].as_mut()) {
            Some(row) => Some(std::mem::replace(&mut row.json, json)),
            None => {
                self.next_row += 1;
                let at = self.properties.push(Some(Property {
                    row_id: self.next_row,
                    object,
                    key: key.to_string(),
                    json,
                }));
                rows.push(at);
                None
            }
        };
        if names_machine(kind, key) {
            if let Some(Value::Int(old)) = old.as_deref().and_then(decode_value) {
                unlist(&mut self.machines, old, object);
            }
            if let Value::Int(new) = value {
                hold(&mut self.machines, *new, object);
            }
        }
    }

    /// Machine objects registered for machine id `machine`, ascending.
    pub(crate) fn machine_objects(&self, machine: i64) -> &[ObjectId] {
        self.machines.get(&machine).map_or(&[], Vec::as_slice)
    }

    /// The live relationship rows `map` lists under `key`, in insertion
    /// order.
    fn edges<'a>(
        &'a self,
        map: &'a HashMap<(ObjectId, Relation), Vec<usize>>,
        key: (ObjectId, Relation),
    ) -> impl Iterator<Item = &'a Relationship> {
        let rows = map.get(&key).into_iter().flatten();
        rows.filter_map(|&at| self.relationships.get(at))
    }

    /// Targets of `from --relation--> ?`, in insertion order.
    pub(crate) fn related(&self, from: ObjectId, relation: Relation) -> Vec<ObjectId> {
        let edges = self.edges(&self.outgoing, (from, relation));
        edges.map(|r| r.to).collect()
    }

    /// Sources of `? --relation--> to`, in insertion order.
    pub(crate) fn related_to(&self, to: ObjectId, relation: Relation) -> Vec<ObjectId> {
        let edges = self.edges(&self.incoming, (to, relation));
        edges.map(|r| r.from).collect()
    }

    /// Add the edge `from --relation--> to` unless it exists; true if it
    /// was added. Searches the shorter of the two adjacency lists.
    pub(crate) fn relate(&mut self, from: ObjectId, relation: Relation, to: ObjectId) -> bool {
        let (out, inc) = ((from, relation), (to, relation));
        let len = |map: &HashMap<_, Vec<usize>>, key| map.get(&key).map_or(0, Vec::len);
        let exists = if len(&self.outgoing, out) <= len(&self.incoming, inc) {
            self.edges(&self.outgoing, out).any(|r| r.to == to)
        } else {
            self.edges(&self.incoming, inc).any(|r| r.from == from)
        };
        if exists {
            return false;
        }
        self.next_row += 1;
        let at = self.relationships.push(Some(Relationship {
            row_id: self.next_row,
            from,
            relation,
            to,
        }));
        self.outgoing.entry(out).or_default().push(at);
        self.incoming.entry(inc).or_default().push(at);
        true
    }

    /// A posted report object's `reports` row.
    pub(crate) fn report(&self, object: ObjectId) -> Option<&Report> {
        let row = self
            .report_rows
            .get(&object)
            .and_then(|&at| self.reports.get(at));
        self.visit(usize::from(row.is_some()));
        row
    }

    /// Store a posted report's typed row.
    pub(crate) fn insert_report(&mut self, report: Report) {
        let object = report.object;
        hold(&mut self.by_report, report.report_id, object);
        hold(&mut self.by_machine, report.machine_id, object);
        let at = self.reports.push(Some(report));
        self.report_rows.insert(object, at);
    }

    /// Report objects holding report id `report`, ascending.
    pub(crate) fn report_objects(&self, report: i64) -> &[ObjectId] {
        self.by_report.get(&report).map_or(&[], Vec::as_slice)
    }

    /// Report objects whose report concerns machine id `machine`,
    /// ascending.
    pub(crate) fn machine_reports(&self, machine: i64) -> &[ObjectId] {
        self.by_machine.get(&machine).map_or(&[], Vec::as_slice)
    }

    /// Delete `object`, of `kind`, with its property rows, its report
    /// row and every relationship into or out of it. Each row deleted
    /// counts as visited.
    pub(crate) fn delete_object(&mut self, object: ObjectId, kind: ObjectKind) {
        let mut visited = 0;
        if let Some(o) = usize::try_from(object.raw())
            .ok()
            .and_then(|at| self.objects.take(at))
        {
            unlist(&mut self.kinds, o.kind, object);
            visited += 1;
        }
        for at in self.properties_of.remove(&object).unwrap_or_default() {
            if let Some(p) = self.properties.take(at) {
                if let (true, Some(Value::Int(machine))) =
                    (names_machine(kind, &p.key), decode_value(&p.json))
                {
                    unlist(&mut self.machines, machine, object);
                }
                visited += 1;
            }
        }
        if let Some(r) = self
            .report_rows
            .remove(&object)
            .and_then(|at| self.reports.take(at))
        {
            unlist(&mut self.by_report, r.report_id, object);
            unlist(&mut self.by_machine, r.machine_id, object);
            visited += 1;
        }
        for relation in Relation::ALL {
            for at in self
                .outgoing
                .remove(&(object, relation))
                .unwrap_or_default()
            {
                if let Some(r) = self.relationships.take(at) {
                    unlist(&mut self.incoming, (r.to, relation), at);
                    visited += 1;
                }
            }
            for at in self
                .incoming
                .remove(&(object, relation))
                .unwrap_or_default()
            {
                if let Some(r) = self.relationships.take(at) {
                    unlist(&mut self.outgoing, (r.from, relation), at);
                    visited += 1;
                }
            }
        }
        self.visit(visited);
    }

    /// Write the tables and then the allocators: the next object id,
    /// which is the objects table's length, and the last row id.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        4usize.encode(out);
        open_table(out, &OBJECTS, self.objects.slots.len());
        for (at, slot) in self.objects.slots.iter().enumerate() {
            if let Some(o) = open_row(out, slot, &OBJECTS) {
                put_int(out, at as i64);
                put_text(out, o.kind.as_str());
                put_text(out, &o.name);
            }
        }
        close_table(out, &OBJECTS);
        open_table(out, &PROPERTIES, self.properties.slots.len());
        for slot in &self.properties.slots {
            if let Some(p) = open_row(out, slot, &PROPERTIES) {
                put_int(out, p.row_id);
                put_int(out, p.object.raw() as i64);
                put_text(out, &p.key);
                put_text(out, &p.json);
            }
        }
        close_table(out, &PROPERTIES);
        open_table(out, &RELATIONSHIPS, self.relationships.slots.len());
        for slot in &self.relationships.slots {
            if let Some(r) = open_row(out, slot, &RELATIONSHIPS) {
                put_int(out, r.row_id);
                put_int(out, r.from.raw() as i64);
                put_text(out, r.relation.as_str());
                put_int(out, r.to.raw() as i64);
            }
        }
        close_table(out, &RELATIONSHIPS);
        open_table(out, &REPORTS, self.reports.slots.len());
        for slot in &self.reports.slots {
            if let Some(r) = open_row(out, slot, &REPORTS) {
                put_int(out, r.object.raw() as i64);
                put_int(out, r.report_id);
                put_int(out, r.machine_id);
                put_int(out, r.condition);
                put_float(out, r.belief);
                put_float(out, r.severity);
                put_float(out, r.timestamp);
                put_text(out, &r.payload);
            }
        }
        close_table(out, &REPORTS);
        (self.objects.slots.len() as u64).encode(out);
        self.next_row.encode(out);
    }

    /// Read the tables and the allocators, building the maps as the rows
    /// are read. Refused: anything but the four mapping tables with
    /// their columns, in name order; a row of the wrong arity or with a
    /// mistyped cell; an object whose id is not its position, or of an
    /// unknown kind; a property, relationship or report row naming a
    /// missing object; an unknown relation; property and relationship
    /// row ids that do not ascend from 1; a property cell that is not
    /// one [`encode_value`] writes; a second property row for one
    /// `(object, key)`; a property row holding a report's typed column;
    /// a report row of an object that is not a report, or a second one
    /// for an object; and allocators that do not match the tables.
    pub(crate) fn decode(input: &mut &[u8]) -> Result<Tables> {
        use Value::{Float, Int, Text};
        let corrupt = |what: &str| Error::invalid(format!("durable OOSM: {what}"));
        if usize::decode(input)? != 4 {
            return Err(schema_mismatch());
        }
        let mut t = Tables::default();

        for at in 0..read_table_header(input, &OBJECTS)? {
            let row = match read_row(input)? {
                None => None,
                Some([Int(id), Text(kind), Text(name)]) if id == at as i64 => {
                    let kind =
                        ObjectKind::parse(&kind).ok_or_else(|| corrupt("unknown object kind"))?;
                    t.kinds
                        .entry(kind)
                        .or_default()
                        .push(ObjectId::new(id as u64));
                    Some(Object { kind, name })
                }
                Some(_) => return Err(corrupt(&format!("bad objects row {at}"))),
            };
            t.objects.push(row);
        }
        read_table_trailer(input, &OBJECTS)?;
        // The last live row id of each table so far.
        let (mut last_property, mut last_relationship) = (0, 0);

        for _ in 0..read_table_header(input, &PROPERTIES)? {
            let Some(cells) = read_row(input)? else {
                t.properties.push(None);
                continue;
            };
            let [Int(row_id), Int(obj), Text(key), Text(json)] = cells else {
                return Err(corrupt("mistyped properties row"));
            };
            let (Some(row_id), Some((obj, kind))) =
                (ascending(&mut last_property, row_id), t.live_object(obj))
            else {
                return Err(corrupt(&format!("bad properties row {row_id}")));
            };
            if kind == ObjectKind::Report && report_column(&key).is_some() {
                return Err(corrupt(&format!(
                    "report {obj} holds its typed column {key} as a property"
                )));
            }
            let value = decode_value(&json)
                .ok_or_else(|| corrupt(&format!("{obj} property {key} is not a value cell")))?;
            let rows = t.properties_of.entry(obj).or_default();
            if rows
                .iter()
                .any(|&at| t.properties.get(at).is_some_and(|p| p.key == key))
            {
                return Err(corrupt(&format!("{obj} repeats property {key}")));
            }
            if let (true, Int(machine)) = (names_machine(kind, &key), value) {
                hold(&mut t.machines, machine, obj);
            }
            rows.push(t.properties.push(Some(Property {
                row_id,
                object: obj,
                key,
                json,
            })));
        }
        read_table_trailer(input, &PROPERTIES)?;

        for _ in 0..read_table_header(input, &RELATIONSHIPS)? {
            let Some(cells) = read_row(input)? else {
                t.relationships.push(None);
                continue;
            };
            let [Int(row_id), Int(from), Text(relation), Int(to)] = cells else {
                return Err(corrupt("mistyped relationships row"));
            };
            let (Some(row_id), Some((from, _)), Some(relation), Some((to, _))) = (
                ascending(&mut last_relationship, row_id),
                t.live_object(from),
                Relation::parse(&relation),
                t.live_object(to),
            ) else {
                return Err(corrupt(&format!("bad relationships row {row_id}")));
            };
            let at = t.relationships.push(Some(Relationship {
                row_id,
                from,
                relation,
                to,
            }));
            t.outgoing.entry((from, relation)).or_default().push(at);
            t.incoming.entry((to, relation)).or_default().push(at);
        }
        read_table_trailer(input, &RELATIONSHIPS)?;

        for _ in 0..read_table_header(input, &REPORTS)? {
            let Some(cells) = read_row(input)? else {
                t.reports.push(None);
                continue;
            };
            let [Int(obj), Int(report_id), Int(machine_id), Int(condition), Float(belief), Float(severity), Float(timestamp), Text(payload)] =
                cells
            else {
                return Err(corrupt("mistyped reports row"));
            };
            let Some((object, ObjectKind::Report)) = t.live_object(obj) else {
                return Err(corrupt(&format!(
                    "reports row of object {obj}, which is missing or not a report"
                )));
            };
            if t.report_rows.contains_key(&object) {
                return Err(corrupt(&format!("{object} has two reports rows")));
            }
            t.insert_report(Report {
                object,
                report_id,
                machine_id,
                condition,
                belief,
                severity,
                timestamp,
                payload,
            });
        }
        read_table_trailer(input, &REPORTS)?;

        let next_object = u64::decode(input)?;
        t.next_row = i64::decode(input)?;
        if next_object != t.objects.slots.len() as u64 {
            return Err(corrupt(&format!(
                "object allocator {next_object} does not follow the {} object row(s)",
                t.objects.slots.len()
            )));
        }
        if !(last_property.max(last_relationship)..i64::MAX).contains(&t.next_row) {
            return Err(corrupt(&format!(
                "row allocator {} out of range",
                t.next_row
            )));
        }
        Ok(t)
    }
}

/// `row_id` if it is above `last`, the table's previous live row id,
/// which it then becomes.
fn ascending(last: &mut i64, row_id: i64) -> Option<i64> {
    (row_id > *last).then(|| {
        *last = row_id;
        row_id
    })
}

/// The error for bytes that do not hold the four mapping tables.
fn schema_mismatch() -> Error {
    Error::invalid("durable OOSM store does not hold the mapping tables")
}

/// Write a table's name and columns and the count of its row slots.
fn open_table(out: &mut Vec<u8>, schema: &Schema, slots: usize) {
    put_str(out, schema.name);
    schema.columns.len().encode(out);
    for column in schema.columns {
        put_str(out, column);
    }
    slots.encode(out);
}

/// Write a row slot's header: a tombstone, or a row of the table's
/// arity whose cells the caller writes next.
fn open_row<'a, R>(out: &mut Vec<u8>, slot: &'a Option<R>, schema: &Schema) -> Option<&'a R> {
    out.push(u8::from(slot.is_some()));
    if slot.is_some() {
        schema.columns.len().encode(out);
    }
    slot.as_ref()
}

/// Write the columns the generic store indexed.
fn close_table(out: &mut Vec<u8>, schema: &Schema) {
    schema.indexed.len().encode(out);
    for column in schema.indexed {
        column.encode(out);
    }
}

/// Read a table's name and columns, which must be `schema`'s, and
/// return the count of its row slots.
fn read_table_header(input: &mut &[u8], schema: &Schema) -> Result<usize> {
    let name = String::decode(input)?;
    let columns = Vec::<String>::decode(input)?;
    if name != schema.name
        || !columns
            .iter()
            .map(String::as_str)
            .eq(schema.columns.iter().copied())
    {
        return Err(schema_mismatch());
    }
    let slots = usize::decode(input)?;
    // A slot takes at least one byte, so a count beyond the input is
    // corrupt.
    if slots > input.len() {
        return Err(Error::invalid(format!(
            "durable OOSM: {} claims {slots} row(s) but only {} byte(s) remain",
            schema.name,
            input.len()
        )));
    }
    Ok(slots)
}

/// Read one row slot: `None` for a tombstone, else its `N` cells.
fn read_row<const N: usize>(input: &mut &[u8]) -> Result<Option<[Value; N]>> {
    Option::<Vec<Value>>::decode(input)?
        .map(<[Value; N]>::try_from)
        .transpose()
        .map_err(|cells| {
            Error::invalid(format!(
                "durable OOSM: a row of {} cell(s) in a table of {N} column(s)",
                cells.len()
            ))
        })
}

/// Read the indexed-column list, which must be `schema`'s.
fn read_table_trailer(input: &mut &[u8], schema: &Schema) -> Result<()> {
    if Vec::<usize>::decode(input)? != schema.indexed {
        return Err(schema_mismatch());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("x".into()).to_string(), "'x'");
    }

    #[test]
    fn the_view_counts_rows_and_refuses_an_unknown_table() {
        let mut t = Tables::default();
        let a = t.insert_object(ObjectKind::Machine, "a");
        t.insert_object(ObjectKind::Ship, "b");
        t.set_property(a, ObjectKind::Machine, "machine_id", &Value::Int(7));
        assert_eq!(t.row_count("objects").unwrap(), 2);
        assert_eq!(t.row_count("properties").unwrap(), 1);
        assert!(t.row_count("nope").is_err());
        assert!(t.rows("nope").is_err());
        let before = t.rows_visited();
        assert_eq!(t.object(a).map(|o| o.kind), Some(ObjectKind::Machine));
        assert_eq!(t.rows_visited(), before + 1, "one row read by id");
        t.delete_object(a, ObjectKind::Machine);
        assert_eq!(t.row_count("objects").unwrap(), 1);
        assert!(t.machine_objects(7).is_empty());
        // A deleted row stays a tombstone: the next object takes the
        // next position, not the freed one.
        assert_eq!(t.insert_object(ObjectKind::Part, "c").raw(), 2);
    }

    #[test]
    fn the_maps_list_only_live_rows_and_objects() {
        let mut t = Tables::default();
        let kinds = [ObjectKind::Machine, ObjectKind::Report, ObjectKind::Ship];
        let ids: Vec<(ObjectId, ObjectKind)> = (0..6)
            .map(|i| (t.insert_object(kinds[i % 3], "o"), kinds[i % 3]))
            .collect();
        for (i, &(a, kind)) in ids.iter().enumerate() {
            t.set_property(a, kind, "machine_id", &Value::Int(i as i64 % 2));
            for &(b, _) in &ids {
                t.relate(a, Relation::ALL[i % 5], b);
            }
            if kind == ObjectKind::Report {
                t.insert_report(Report {
                    object: a,
                    report_id: 1,
                    machine_id: 1,
                    condition: 0,
                    belief: 0.5,
                    severity: 0.5,
                    timestamp: 0.0,
                    payload: "{}".into(),
                });
            }
        }
        // After deleting half, every map lists only live rows and objects.
        for &(a, kind) in ids.iter().step_by(2) {
            t.delete_object(a, kind);
        }
        for (&object, rows) in &t.properties_of {
            assert!(rows
                .iter()
                .all(|&at| t.properties.get(at).is_some_and(|p| p.object == object)));
        }
        for (&(from, _), rows) in &t.outgoing {
            assert!(rows
                .iter()
                .all(|&at| t.relationships.get(at).is_some_and(|r| r.from == from)));
        }
        for (&(to, _), rows) in &t.incoming {
            assert!(rows
                .iter()
                .all(|&at| t.relationships.get(at).is_some_and(|r| r.to == to)));
        }
        let id_lists = t.kinds.values().chain(t.machines.values());
        let id_lists = id_lists
            .chain(t.by_report.values())
            .chain(t.by_machine.values());
        assert!(id_lists
            .flatten()
            .all(|&id| t.live_object(id.raw() as i64).is_some()));
        for &(a, kind) in ids.iter().skip(1).step_by(2) {
            t.delete_object(a, kind);
        }
        assert!(t.kinds.is_empty() && t.properties_of.is_empty() && t.machines.is_empty());
        assert!(t.outgoing.is_empty() && t.incoming.is_empty());
        assert!(t.report_rows.is_empty() && t.by_report.is_empty() && t.by_machine.is_empty());
        for table in t.table_names() {
            assert_eq!(t.row_count(table).unwrap(), 0, "{table}");
        }
    }
}
