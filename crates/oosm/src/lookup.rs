//! Derived lookups over the §4.6 mapping tables.
//!
//! The tables answer "which machine object holds machine id 7" or "what
//! does this report refer to" only by scanning the objects, properties,
//! reports or relationships they hold. The model keeps those answers beside the
//! tables instead, updated by every write path, so posting a report or
//! exporting a machine costs the same with 1k or 40k stored reports.
//! Like the store's own indexes this is derived state: it is never
//! encoded, and [`Lookups::rebuild`] recomputes it from the tables on
//! decode, so snapshot and WAL bytes do not depend on it.

use crate::model::{decode_value, ObjectKind, Relation};
use crate::reports::{report_column, typed_ids, REPORTS};
use crate::store::{Store, Value};
use mpros_core::{Error, ObjectId, Result};
use std::collections::{HashMap, HashSet};

/// The integer-valued properties indexed per object kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IdKey {
    MachineId,
    ReportId,
}

impl IdKey {
    /// Both keys.
    pub(crate) const ALL: [IdKey; 2] = [IdKey::MachineId, IdKey::ReportId];

    /// The key a property name is indexed under, if any.
    pub(crate) fn of(key: &str) -> Option<IdKey> {
        match key {
            "machine_id" => Some(IdKey::MachineId),
            "report_id" => Some(IdKey::ReportId),
            _ => None,
        }
    }

    /// The property name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            IdKey::MachineId => "machine_id",
            IdKey::ReportId => "report_id",
        }
    }
}

/// Object ids by indexed property value, and the relationship graph in
/// both directions.
#[derive(Debug, Default)]
pub(crate) struct Lookups {
    /// Objects of a kind holding an `Int` value under a key, ascending.
    ids: HashMap<(ObjectKind, IdKey, i64), Vec<ObjectId>>,
    /// `from --relation--> to` targets by `(from, relation)`, in
    /// insertion order.
    out: HashMap<(ObjectId, Relation), Vec<ObjectId>>,
    /// The same edges' sources by `(to, relation)`, in insertion order.
    inc: HashMap<(ObjectId, Relation), Vec<ObjectId>>,
}

impl Lookups {
    /// Objects of `kind` whose `key` property is `Int(value)`, ascending.
    pub(crate) fn holders(&self, kind: ObjectKind, key: IdKey, value: i64) -> &[ObjectId] {
        self.ids.get(&(kind, key, value)).map_or(&[], Vec::as_slice)
    }

    /// Move `object` from the holders of `old` to those of `new`.
    pub(crate) fn reindex(
        &mut self,
        object: ObjectId,
        kind: ObjectKind,
        key: IdKey,
        old: Option<i64>,
        new: Option<i64>,
    ) {
        if let Some(value) = old {
            if let Some(holders) = self.ids.get_mut(&(kind, key, value)) {
                if let Ok(at) = holders.binary_search(&object) {
                    holders.remove(at);
                }
                if holders.is_empty() {
                    self.ids.remove(&(kind, key, value));
                }
            }
        }
        if let Some(value) = new {
            let holders = self.ids.entry((kind, key, value)).or_default();
            if let Err(at) = holders.binary_search(&object) {
                holders.insert(at, object);
            }
        }
    }

    /// Targets of `from --relation--> ?`, in insertion order.
    pub(crate) fn related(&self, from: ObjectId, relation: Relation) -> &[ObjectId] {
        self.out.get(&(from, relation)).map_or(&[], Vec::as_slice)
    }

    /// Sources of `? --relation--> to`, in insertion order.
    pub(crate) fn related_to(&self, to: ObjectId, relation: Relation) -> &[ObjectId] {
        self.inc.get(&(to, relation)).map_or(&[], Vec::as_slice)
    }

    /// True if the edge exists; searches the shorter adjacency list.
    pub(crate) fn is_related(&self, from: ObjectId, relation: Relation, to: ObjectId) -> bool {
        let (targets, sources) = (self.related(from, relation), self.related_to(to, relation));
        if targets.len() <= sources.len() {
            targets.contains(&to)
        } else {
            sources.contains(&from)
        }
    }

    /// Record a new edge.
    pub(crate) fn relate(&mut self, from: ObjectId, relation: Relation, to: ObjectId) {
        self.out.entry((from, relation)).or_default().push(to);
        self.inc.entry((to, relation)).or_default().push(from);
    }

    /// Drop every edge into or out of `object`. Its indexed values are
    /// dropped through [`Lookups::reindex`].
    pub(crate) fn remove_edges(&mut self, object: ObjectId) {
        fn detach(
            map: &mut HashMap<(ObjectId, Relation), Vec<ObjectId>>,
            at: (ObjectId, Relation),
            object: ObjectId,
        ) {
            if let Some(list) = map.get_mut(&at) {
                list.retain(|&o| o != object);
                if list.is_empty() {
                    map.remove(&at);
                }
            }
        }
        for relation in Relation::ALL {
            for to in self.out.remove(&(object, relation)).unwrap_or_default() {
                detach(&mut self.inc, (to, relation), object);
            }
            for from in self.inc.remove(&(object, relation)).unwrap_or_default() {
                detach(&mut self.out, (from, relation), object);
            }
        }
    }

    /// Rebuild from the mapping tables, rejecting rows the model never
    /// writes: mistyped cells, unknown kinds or relations, references to
    /// missing objects, a `reports` row of an object that is not a
    /// report, a `properties` row holding a report's typed column, a
    /// second row for one indexed property, and ids the allocators
    /// `next_object` / `next_row` have not yet handed out. A report's ids
    /// are indexed from its `reports` row only.
    pub(crate) fn rebuild(store: &Store, next_object: u64, next_row: i64) -> Result<Lookups> {
        let corrupt = |what: &str| Error::invalid(format!("durable OOSM: {what}"));
        // Ids are stored as `Int`, so the allocators must stay below
        // `i64::MAX` for the next id to fit.
        if next_object >= i64::MAX as u64 || !(0..i64::MAX).contains(&next_row) {
            return Err(corrupt("id allocator out of range"));
        }
        let mut kinds = HashMap::new();
        for row in store.select("objects", |_| true)? {
            let (Value::Int(id), Value::Text(kind), Value::Text(_)) = (&row[0], &row[1], &row[2])
            else {
                return Err(corrupt("mistyped objects row"));
            };
            if !(0..next_object as i64).contains(id) {
                return Err(corrupt(&format!("object id {id} not below {next_object}")));
            }
            let kind = ObjectKind::parse(kind).ok_or_else(|| corrupt("unknown object kind"))?;
            kinds.insert(ObjectId::new(*id as u64), kind);
        }
        let object = |cell: &Value| match cell {
            Value::Int(id) if *id >= 0 => {
                let object = ObjectId::new(*id as u64);
                kinds.get(&object).map(|&kind| (object, kind))
            }
            _ => None,
        };
        let row_id = |cell: &Value| matches!(cell, Value::Int(id) if (1..=next_row).contains(id));

        let mut lookups = Lookups::default();
        for row in store.select(REPORTS, |_| true)? {
            let Some((obj, report_id, machine_id)) = typed_ids(row) else {
                return Err(corrupt("mistyped reports row"));
            };
            let Some((obj, ObjectKind::Report)) = object(&Value::Int(obj)) else {
                return Err(corrupt(&format!(
                    "reports row of object {obj}, which is missing or not a report"
                )));
            };
            let kind = ObjectKind::Report;
            lookups.reindex(obj, kind, IdKey::ReportId, None, Some(report_id));
            lookups.reindex(obj, kind, IdKey::MachineId, None, Some(machine_id));
        }
        let mut indexed = HashSet::new();
        for row in store.select("properties", |_| true)? {
            let (true, Some((obj, kind)), Value::Text(key), Value::Text(json)) =
                (row_id(&row[0]), object(&row[1]), &row[2], &row[3])
            else {
                return Err(corrupt("bad properties row"));
            };
            if kind == ObjectKind::Report && report_column(key).is_some() {
                return Err(corrupt(&format!(
                    "report {obj} holds its typed column {key} as a property"
                )));
            }
            if let Some(key) = IdKey::of(key) {
                if !indexed.insert((obj, key)) {
                    return Err(corrupt(&format!("{obj} repeats {}", key.as_str())));
                }
                lookups.reindex(obj, kind, key, None, decode_value(json).as_int());
            }
        }
        for row in store.select("relationships", |_| true)? {
            let (true, Some((from, _)), Value::Text(relation), Some((to, _))) =
                (row_id(&row[0]), object(&row[1]), &row[2], object(&row[3]))
            else {
                return Err(corrupt("bad relationships row"));
            };
            let relation = Relation::parse(relation).ok_or_else(|| corrupt("unknown relation"))?;
            lookups.relate(from, relation, to);
        }
        Ok(lookups)
    }
}
