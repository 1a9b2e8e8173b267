//! The embedded relational-style store.
//!
//! §4.6: "Persistence of object state in the OOSM is implemented using a
//! relational database. Object types are mapped to tables and properties
//! and relationships are mapped to columns and helper tables." No
//! external DBMS is available here, so this module provides the needed
//! subset: named tables with typed columns, insert/update/delete by
//! predicate, equality selection with a primary-key index on the first
//! column when it is an integer.
//!
//! The store counts the live rows its queries examine
//! ([`Store::rows_visited`]): a deterministic measure of query work, so
//! a test can pin how much a query path reads independent of host speed.

use mpros_core::{Durable, Error, Result};
use std::collections::HashMap;
use std::fmt;
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

/// One row.
pub type Row = Vec<Value>;

/// Key type for secondary indexes (only Int and Text columns are
/// indexable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    Int(i64),
    Text(String),
}

impl IndexKey {
    fn of(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Int(i) => Some(IndexKey::Int(*i)),
            Value::Text(s) => Some(IndexKey::Text(s.clone())),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct SecondaryIndex {
    column: usize,
    map: HashMap<IndexKey, Vec<usize>>,
}

#[derive(Debug, Default)]
struct Table {
    columns: Vec<String>,
    rows: Vec<Option<Row>>, // tombstoned deletion keeps row ids stable
    /// Primary-key index over the first column when it holds Ints.
    pk_index: HashMap<i64, usize>,
    /// Secondary equality indexes (see [`Store::create_index`]).
    indexes: Vec<SecondaryIndex>,
    live: usize,
}

impl Table {
    fn index_insert(&mut self, row_idx: usize) {
        let row = self.rows[row_idx].as_ref().expect("row just inserted");
        for idx in &mut self.indexes {
            if let Some(key) = IndexKey::of(&row[idx.column]) {
                idx.map.entry(key).or_default().push(row_idx);
            }
        }
    }

    fn index_remove(&mut self, row_idx: usize, row: &Row) {
        for idx in &mut self.indexes {
            if let Some(key) = IndexKey::of(&row[idx.column]) {
                if let Some(v) = idx.map.get_mut(&key) {
                    v.retain(|&r| r != row_idx);
                    if v.is_empty() {
                        idx.map.remove(&key);
                    }
                }
            }
        }
    }
}

/// An embedded multi-table store.
#[derive(Debug, Default)]
pub struct Store {
    tables: HashMap<String, Table>,
    /// Live rows examined by `get`, `select`, `select_eq`, `update`,
    /// `update_eq` and `delete` (derived state, never encoded).
    rows_visited: AtomicU64,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table with the given column names. Fails if it exists or
    /// has no columns.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<()> {
        if columns.is_empty() {
            return Err(Error::invalid("table needs at least one column"));
        }
        if self.tables.contains_key(name) {
            return Err(Error::invalid(format!("table {name} already exists")));
        }
        self.tables.insert(
            name.to_string(),
            Table {
                columns: columns.iter().map(|c| c.to_string()).collect(),
                ..Default::default()
            },
        );
        Ok(())
    }

    /// The tables present.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Live rows examined by queries and updates since construction or
    /// decode.
    pub fn rows_visited(&self) -> u64 {
        self.rows_visited.load(Ordering::Relaxed)
    }

    fn visit(&self, rows: usize) {
        self.rows_visited.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// True if `table` exists with exactly these columns and secondary
    /// indexes (in creation order).
    pub(crate) fn has_schema(&self, table: &str, columns: &[&str], indexed: &[&str]) -> bool {
        let Some(t) = self.tables.get(table) else {
            return false;
        };
        t.columns
            .iter()
            .map(String::as_str)
            .eq(columns.iter().copied())
            && t.indexes
                .iter()
                .map(|i| t.columns[i.column].as_str())
                .eq(indexed.iter().copied())
    }

    fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::not_found(format!("table {name}")))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::not_found(format!("table {name}")))
    }

    /// Column index in a table.
    pub fn column_index(&self, table: &str, column: &str) -> Result<usize> {
        let t = self.table(table)?;
        t.columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| Error::not_found(format!("column {table}.{column}")))
    }

    /// Create a secondary equality index over `column` (Int/Text values
    /// are indexed; other values in that column fall back to scans).
    /// Existing rows are indexed immediately; idempotent per column.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let col = self.column_index(table, column)?;
        let t = self.table_mut(table)?;
        if t.indexes.iter().any(|i| i.column == col) {
            return Ok(());
        }
        let mut map: HashMap<IndexKey, Vec<usize>> = HashMap::new();
        for (row_idx, slot) in t.rows.iter().enumerate() {
            if let Some(row) = slot {
                if let Some(key) = IndexKey::of(&row[col]) {
                    map.entry(key).or_default().push(row_idx);
                }
            }
        }
        t.indexes.push(SecondaryIndex { column: col, map });
        Ok(())
    }

    /// Insert a row; returns its internal row id. The first column, when
    /// an `Int`, must be unique (primary key).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<usize> {
        let t = self.table_mut(table)?;
        if row.len() != t.columns.len() {
            return Err(Error::invalid(format!(
                "row arity {} != table arity {}",
                row.len(),
                t.columns.len()
            )));
        }
        if let Some(pk) = row[0].as_int() {
            if t.pk_index.contains_key(&pk) {
                return Err(Error::invalid(format!(
                    "duplicate primary key {pk} in {table}"
                )));
            }
            t.pk_index.insert(pk, t.rows.len());
        }
        t.rows.push(Some(row));
        t.live += 1;
        let row_idx = t.rows.len() - 1;
        t.index_insert(row_idx);
        Ok(row_idx)
    }

    /// Fetch by primary key (first column `Int`).
    pub fn get(&self, table: &str, pk: i64) -> Result<Option<&Row>> {
        let t = self.table(table)?;
        let row = t.pk_index.get(&pk).and_then(|&i| t.rows[i].as_ref());
        self.visit(usize::from(row.is_some()));
        Ok(row)
    }

    /// Rows matching `predicate` (full scan).
    pub fn select<'a>(
        &'a self,
        table: &str,
        predicate: impl Fn(&Row) -> bool + 'a,
    ) -> Result<Vec<&'a Row>> {
        let t = self.table(table)?;
        self.visit(t.live);
        Ok(t.rows
            .iter()
            .filter_map(|r| r.as_ref())
            .filter(|r| predicate(r))
            .collect())
    }

    /// Rows where `column == value` (uses the pk index or a secondary
    /// index when one covers the column).
    pub fn select_eq(&self, table: &str, column: &str, value: &Value) -> Result<Vec<&Row>> {
        let idx = self.column_index(table, column)?;
        if idx == 0 {
            if let Some(pk) = value.as_int() {
                return Ok(self.get(table, pk)?.into_iter().collect());
            }
        }
        let t = self.table(table)?;
        if let Some(key) = IndexKey::of(value) {
            if let Some(sec) = t.indexes.iter().find(|i| i.column == idx) {
                let rows: Vec<&Row> = sec
                    .map
                    .get(&key)
                    .map(|rows| rows.iter().filter_map(|&r| t.rows[r].as_ref()).collect())
                    .unwrap_or_default();
                self.visit(rows.len());
                return Ok(rows);
            }
        }
        let value = value.clone();
        self.select(table, move |r| r[idx] == value)
    }

    /// Index-accelerated update: rows where `column == value` and
    /// `predicate` holds are passed to `mutate`; returns the count. The
    /// primary key must not be modified; indexed columns may be (the
    /// indexes are maintained).
    pub fn update_eq(
        &mut self,
        table: &str,
        column: &str,
        value: &Value,
        predicate: impl Fn(&Row) -> bool,
        mutate: impl Fn(&mut Row),
    ) -> Result<usize> {
        let col = self.column_index(table, column)?;
        let t = self.table(table)?;
        let candidates: Vec<usize> = match (
            IndexKey::of(value),
            t.indexes.iter().find(|i| i.column == col),
        ) {
            (Some(key), Some(sec)) => sec.map.get(&key).cloned().unwrap_or_default(),
            _ => (0..t.rows.len()).collect(),
        };
        self.visit(candidates.iter().filter(|&&r| t.rows[r].is_some()).count());
        let t = self.table_mut(table)?;
        let mut n = 0;
        for row_idx in candidates {
            let Some(row) = t.rows[row_idx].as_ref() else {
                continue;
            };
            if &row[col] != value || !predicate(row) {
                continue;
            }
            let before = row.clone();
            let row_mut = t.rows[row_idx].as_mut().expect("checked above");
            mutate(row_mut);
            if row_mut[0] != before[0] {
                return Err(Error::invalid("primary key is immutable"));
            }
            // Re-index if any indexed column changed.
            let changed: bool = t
                .indexes
                .iter()
                .any(|i| t.rows[row_idx].as_ref().expect("present")[i.column] != before[i.column]);
            if changed {
                t.index_remove(row_idx, &before);
                t.index_insert(row_idx);
            }
            n += 1;
        }
        Ok(n)
    }

    /// Update all rows matching `predicate` via `mutate`; returns the
    /// count. The primary key column must not be modified.
    pub fn update(
        &mut self,
        table: &str,
        predicate: impl Fn(&Row) -> bool,
        mutate: impl Fn(&mut Row),
    ) -> Result<usize> {
        self.visit(self.table(table)?.live);
        let t = self.table_mut(table)?;
        let mut n = 0;
        for row_idx in 0..t.rows.len() {
            let Some(row) = t.rows[row_idx].as_ref() else {
                continue;
            };
            if !predicate(row) {
                continue;
            }
            let before = row.clone();
            let row_mut = t.rows[row_idx].as_mut().expect("checked above");
            mutate(row_mut);
            if row_mut[0] != before[0] {
                return Err(Error::invalid("primary key is immutable"));
            }
            let changed: bool = t
                .indexes
                .iter()
                .any(|i| t.rows[row_idx].as_ref().expect("present")[i.column] != before[i.column]);
            if changed {
                t.index_remove(row_idx, &before);
                t.index_insert(row_idx);
            }
            n += 1;
        }
        Ok(n)
    }

    /// Delete rows matching `predicate`; returns the count.
    pub fn delete(&mut self, table: &str, predicate: impl Fn(&Row) -> bool) -> Result<usize> {
        self.visit(self.table(table)?.live);
        let t = self.table_mut(table)?;
        let mut n = 0;
        for row_idx in 0..t.rows.len() {
            let matched = t.rows[row_idx].as_ref().is_some_and(&predicate);
            if matched {
                if let Some(row) = t.rows[row_idx].take() {
                    if let Some(pk) = row[0].as_int() {
                        t.pk_index.remove(&pk);
                    }
                    t.index_remove(row_idx, &row);
                    n += 1;
                }
            }
        }
        t.live -= n;
        Ok(n)
    }

    /// Number of live rows.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.live)
    }
}

impl Durable for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0);
                v.encode(out);
            }
            Value::Float(v) => {
                out.push(1);
                v.encode(out);
            }
            Value::Text(s) => {
                out.push(2);
                s.encode(out);
            }
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

/// Persistence: tables serialize sorted by name; each table carries its
/// columns, its full row vector *including tombstones* (so internal row
/// ids — positions — survive a restore) and the list of secondarily
/// indexed columns. The pk index, secondary index maps and live count
/// are derived state (as is the rows-visited count, which restarts at
/// zero) and are rebuilt on decode by scanning rows in
/// ascending order, which reproduces the live index ordering because no
/// MPROS write path mutates an indexed column in place.
impl Durable for Store {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort_unstable();
        names.len().encode(out);
        for name in names {
            let t = &self.tables[name];
            (*name).encode(out);
            t.columns.encode(out);
            t.rows.encode(out);
            let indexed: Vec<usize> = t.indexes.iter().map(|i| i.column).collect();
            indexed.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let n = usize::decode(input)?;
        // A table takes more than one byte, so a count beyond the input
        // is corrupt; checking first bounds the preallocation.
        if n > input.len() {
            return Err(Error::invalid(format!(
                "durable store claims {n} table(s) but only {} byte(s) remain",
                input.len()
            )));
        }
        let mut tables = HashMap::with_capacity(n);
        for _ in 0..n {
            let name = String::decode(input)?;
            let columns = Vec::<String>::decode(input)?;
            if columns.is_empty() {
                return Err(Error::invalid(format!(
                    "durable table {name} has no columns"
                )));
            }
            let rows = Vec::<Option<Row>>::decode(input)?;
            let indexed = Vec::<usize>::decode(input)?;
            let mut table = Table {
                columns,
                rows,
                ..Default::default()
            };
            for (row_idx, slot) in table.rows.iter().enumerate() {
                let Some(row) = slot else { continue };
                if row.len() != table.columns.len() {
                    return Err(Error::invalid(format!(
                        "durable table {name} row {row_idx} arity mismatch"
                    )));
                }
                if let Some(pk) = row[0].as_int() {
                    if table.pk_index.insert(pk, row_idx).is_some() {
                        return Err(Error::invalid(format!(
                            "durable table {name} has duplicate primary key {pk}"
                        )));
                    }
                }
                table.live += 1;
            }
            for col in indexed {
                if col >= table.columns.len() {
                    return Err(Error::invalid(format!(
                        "durable table {name} indexes out-of-range column {col}"
                    )));
                }
                let mut map: HashMap<IndexKey, Vec<usize>> = HashMap::new();
                for (row_idx, slot) in table.rows.iter().enumerate() {
                    if let Some(row) = slot {
                        if let Some(key) = IndexKey::of(&row[col]) {
                            map.entry(key).or_default().push(row_idx);
                        }
                    }
                }
                table.indexes.push(SecondaryIndex { column: col, map });
            }
            if tables.insert(name.clone(), table).is_some() {
                return Err(Error::invalid(format!(
                    "durable store repeats table {name}"
                )));
            }
        }
        Ok(Store {
            tables,
            ..Store::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_machines() -> Store {
        let mut s = Store::new();
        s.create_table("machines", &["id", "name", "rpm"]).unwrap();
        s.insert(
            "machines",
            vec![
                Value::Int(1),
                Value::Text("motor".into()),
                Value::Float(3550.0),
            ],
        )
        .unwrap();
        s.insert(
            "machines",
            vec![
                Value::Int(2),
                Value::Text("pump".into()),
                Value::Float(1750.0),
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn create_insert_get() {
        let s = store_with_machines();
        let row = s.get("machines", 1).unwrap().unwrap();
        assert_eq!(row[1].as_text(), Some("motor"));
        assert_eq!(s.get("machines", 99).unwrap(), None);
        assert_eq!(s.row_count("machines").unwrap(), 2);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut s = store_with_machines();
        let err = s
            .insert("machines", vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn arity_checked() {
        let mut s = store_with_machines();
        assert!(s.insert("machines", vec![Value::Int(9)]).is_err());
    }

    #[test]
    fn select_predicates_and_eq() {
        let s = store_with_machines();
        let fast = s
            .select("machines", |r| r[2].as_float().unwrap_or(0.0) > 2000.0)
            .unwrap();
        assert_eq!(fast.len(), 1);
        let pumps = s
            .select_eq("machines", "name", &Value::Text("pump".into()))
            .unwrap();
        assert_eq!(pumps.len(), 1);
        assert_eq!(pumps[0][0].as_int(), Some(2));
        // Pk-indexed path.
        let one = s.select_eq("machines", "id", &Value::Int(1)).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn update_mutates_matching_rows() {
        let mut s = store_with_machines();
        let n = s
            .update(
                "machines",
                |r| r[0].as_int() == Some(1),
                |r| r[2] = Value::Float(3600.0),
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            s.get("machines", 1).unwrap().unwrap()[2].as_float(),
            Some(3600.0)
        );
    }

    #[test]
    fn update_cannot_touch_pk() {
        let mut s = store_with_machines();
        let err = s
            .update("machines", |_| true, |r| r[0] = Value::Int(77))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn delete_removes_and_unindexes() {
        let mut s = store_with_machines();
        let n = s.delete("machines", |r| r[0].as_int() == Some(1)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.get("machines", 1).unwrap(), None);
        assert_eq!(s.row_count("machines").unwrap(), 1);
        // The pk can be reused after deletion.
        s.insert("machines", vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        assert!(s.get("machines", 1).unwrap().is_some());
    }

    #[test]
    fn missing_table_and_column_errors() {
        let s = store_with_machines();
        assert!(s.get("nope", 1).is_err());
        assert!(s.column_index("machines", "nope").is_err());
        assert!(Store::new().create_table("x", &[]).is_err());
        let mut s2 = store_with_machines();
        assert!(s2.create_table("machines", &["id"]).is_err());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("x".into()).to_string(), "'x'");
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;

    fn indexed_store() -> Store {
        let mut s = Store::new();
        s.create_table("props", &["row_id", "object_id", "key", "value"])
            .unwrap();
        s.create_index("props", "object_id").unwrap();
        for i in 0..100i64 {
            s.insert(
                "props",
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Text(format!("k{}", i % 3)),
                    Value::Float(i as f64),
                ],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn indexed_select_matches_scan() {
        let s = indexed_store();
        let via_index = s.select_eq("props", "object_id", &Value::Int(3)).unwrap();
        let via_scan = s.select("props", |r| r[1] == Value::Int(3)).unwrap();
        assert_eq!(via_index.len(), 10);
        assert_eq!(via_index.len(), via_scan.len());
    }

    #[test]
    fn index_follows_deletes() {
        let mut s = indexed_store();
        s.delete("props", |r| r[1] == Value::Int(3)).unwrap();
        assert!(s
            .select_eq("props", "object_id", &Value::Int(3))
            .unwrap()
            .is_empty());
        // Other keys untouched.
        assert_eq!(
            s.select_eq("props", "object_id", &Value::Int(4))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn index_follows_updates_of_indexed_column() {
        let mut s = indexed_store();
        // Move object 3's rows to object 77 via the generic update path.
        s.update(
            "props",
            |r| r[1] == Value::Int(3),
            |r| r[1] = Value::Int(77),
        )
        .unwrap();
        assert!(s
            .select_eq("props", "object_id", &Value::Int(3))
            .unwrap()
            .is_empty());
        assert_eq!(
            s.select_eq("props", "object_id", &Value::Int(77))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn update_eq_uses_index_and_respects_predicate() {
        let mut s = indexed_store();
        let n = s
            .update_eq(
                "props",
                "object_id",
                &Value::Int(3),
                |r| r[2] == Value::Text("k0".into()),
                |r| r[3] = Value::Float(-1.0),
            )
            .unwrap();
        assert!(n > 0 && n < 10, "predicate filtered: {n}");
        let changed = s
            .select("props", |r| r[3] == Value::Float(-1.0))
            .unwrap()
            .len();
        assert_eq!(changed, n);
    }

    #[test]
    fn update_eq_protects_primary_key() {
        let mut s = indexed_store();
        assert!(s
            .update_eq(
                "props",
                "object_id",
                &Value::Int(3),
                |_| true,
                |r| r[0] = Value::Int(9999),
            )
            .is_err());
    }

    #[test]
    fn create_index_is_idempotent_and_indexes_existing_rows() {
        let mut s = indexed_store();
        s.create_index("props", "object_id").unwrap(); // again
        s.create_index("props", "key").unwrap(); // late index
        let k1 = s
            .select_eq("props", "key", &Value::Text("k1".into()))
            .unwrap();
        assert_eq!(k1.len(), 33);
        assert!(s.create_index("props", "nope").is_err());
    }
}
