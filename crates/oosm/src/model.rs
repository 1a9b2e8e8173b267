//! The object model API (§4.2–§4.4).

use crate::events::{EventBus, OosmEvent, Subscription};
use crate::lookup::{IdKey, Lookups};
use crate::reports::{report_column, REPORTS, REPORT_COLUMNS};
use crate::store::{Row, Store, Value};
use mpros_core::{Durable, Error, ObjectId, Result};
use mpros_telemetry::{Counter, Telemetry};
use std::fmt;
use std::sync::Arc;

/// Kinds of OOSM objects. §4.2: "Some of the OOSM objects represent
/// physical entities such as sensors, motors, compressors, decks, and
/// ships while other OOSM objects represent more abstract items such as
/// a failure prediction report or a knowledge source."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ObjectKind {
    Ship,
    Deck,
    System,
    Machine,
    Part,
    Sensor,
    DataConcentrator,
    KnowledgeSource,
    Report,
}

impl ObjectKind {
    /// Stable string form (the `kind` column).
    pub fn as_str(self) -> &'static str {
        match self {
            ObjectKind::Ship => "ship",
            ObjectKind::Deck => "deck",
            ObjectKind::System => "system",
            ObjectKind::Machine => "machine",
            ObjectKind::Part => "part",
            ObjectKind::Sensor => "sensor",
            ObjectKind::DataConcentrator => "data_concentrator",
            ObjectKind::KnowledgeSource => "knowledge_source",
            ObjectKind::Report => "report",
        }
    }

    /// Parse the string form.
    pub fn parse(s: &str) -> Option<ObjectKind> {
        Some(match s {
            "ship" => ObjectKind::Ship,
            "deck" => ObjectKind::Deck,
            "system" => ObjectKind::System,
            "machine" => ObjectKind::Machine,
            "part" => ObjectKind::Part,
            "sensor" => ObjectKind::Sensor,
            "data_concentrator" => ObjectKind::DataConcentrator,
            "knowledge_source" => ObjectKind::KnowledgeSource,
            "report" => ObjectKind::Report,
            _ => return None,
        })
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Relationship types (§4.2: part-of, kind-of, proximity, refers-to;
/// §10.1 adds flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Relation {
    PartOf,
    KindOf,
    ProximateTo,
    FlowsTo,
    RefersTo,
}

impl Relation {
    /// Every relation.
    pub(crate) const ALL: [Relation; 5] = [
        Relation::PartOf,
        Relation::KindOf,
        Relation::ProximateTo,
        Relation::FlowsTo,
        Relation::RefersTo,
    ];

    /// Stable string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Relation::PartOf => "part_of",
            Relation::KindOf => "kind_of",
            Relation::ProximateTo => "proximate_to",
            Relation::FlowsTo => "flows_to",
            Relation::RefersTo => "refers_to",
        }
    }

    /// Parse the string form.
    pub fn parse(s: &str) -> Option<Relation> {
        Some(match s {
            "part_of" => Relation::PartOf,
            "kind_of" => Relation::KindOf,
            "proximate_to" => Relation::ProximateTo,
            "flows_to" => Relation::FlowsTo,
            "refers_to" => Relation::RefersTo,
            _ => return None,
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The §4.6 mapping tables: name, columns, and the secondarily indexed
/// columns (object lookups by kind/name, property lookups by object).
/// Relationship traversal and the report id queries are answered by the
/// derived lookups, so those tables carry no secondary index.
const SCHEMA: [(&str, &[&str], &[&str]); 4] = [
    ("objects", &["id", "kind", "name"], &["kind", "name"]),
    (
        "properties",
        &["row_id", "object_id", "key", "value_json"],
        &["object_id"],
    ),
    (
        "relationships",
        &["row_id", "from_id", "relation", "to_id"],
        &[],
    ),
    (REPORTS, &REPORT_COLUMNS, &[]),
];

/// The Object-Oriented Ship Model: object graph over the relational
/// store, with change events.
#[derive(Debug)]
pub struct Oosm {
    store: Store,
    /// Indexed answers to the id and relationship lookups (derived from
    /// `store`, never encoded; see [`crate::lookup`]).
    lookups: Lookups,
    bus: EventBus,
    next_object: u64,
    next_row: i64,
    telemetry: Telemetry,
    pub(crate) m_reports_posted: Arc<Counter>,
}

impl Default for Oosm {
    fn default() -> Self {
        Self::new()
    }
}

impl Oosm {
    /// An empty model with the relational mapping tables created.
    pub fn new() -> Self {
        let mut store = Store::new();
        for (table, columns, indexed) in SCHEMA {
            store.create_table(table, columns).expect("fresh store");
            for column in indexed {
                store.create_index(table, column).expect("fresh schema");
            }
        }
        let telemetry = Telemetry::new();
        let m_reports_posted = telemetry.counter("oosm", "reports_posted");
        Oosm {
            store,
            lookups: Lookups::default(),
            bus: EventBus::new(),
            next_object: 0,
            next_row: 0,
            telemetry,
            m_reports_posted,
        }
    }

    /// Record into `telemetry` from now on; nothing recorded so far
    /// moves over (see [`mpros_telemetry::Instrumented`]).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.m_reports_posted = telemetry.counter("oosm", "reports_posted");
        self.telemetry = telemetry.clone();
    }

    /// The telemetry domain this model records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Subscribe to change events (§4.5).
    pub fn subscribe(&mut self) -> Subscription {
        self.bus.subscribe()
    }

    /// Publish the event `event` builds, if anyone is subscribed.
    pub(crate) fn publish(&mut self, event: impl FnOnce() -> OosmEvent) {
        self.bus.publish(event);
    }

    pub(crate) fn next_row_id(&mut self) -> i64 {
        self.next_row += 1;
        self.next_row
    }

    /// Direct read access to the persistence layer (debugging, row
    /// counts; §4.6's mapping is observable here).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Objects of `kind` whose `key` property is `Int(value)`, ascending.
    pub(crate) fn holders(&self, kind: ObjectKind, key: IdKey, value: i64) -> &[ObjectId] {
        self.lookups.holders(kind, key, value)
    }

    /// The object's typed `reports` row, if it is a posted report.
    pub(crate) fn report_row(&self, object: ObjectId) -> Option<&Row> {
        self.store.get(REPORTS, object.raw() as i64).ok().flatten()
    }

    /// Store a posted report's typed row (see [`crate::reports`]) and
    /// index its report and machine ids.
    pub(crate) fn insert_report_row(&mut self, object: ObjectId, row: Row) -> Result<()> {
        let (report_id, machine_id) = (row[1].as_int(), row[2].as_int());
        self.store.insert(REPORTS, row)?;
        let kind = ObjectKind::Report;
        self.lookups
            .reindex(object, kind, IdKey::ReportId, None, report_id);
        self.lookups
            .reindex(object, kind, IdKey::MachineId, None, machine_id);
        Ok(())
    }

    /// Create an object; returns its id.
    pub fn create_object(&mut self, kind: ObjectKind, name: &str) -> ObjectId {
        let id = ObjectId::new(self.next_object);
        self.next_object += 1;
        self.store
            .insert(
                "objects",
                vec![
                    Value::Int(id.raw() as i64),
                    Value::Text(kind.as_str().into()),
                    Value::Text(name.into()),
                ],
            )
            .expect("object ids are unique by construction");
        self.publish(|| OosmEvent::ObjectCreated { object: id, kind });
        id
    }

    /// True if the object exists.
    pub fn exists(&self, object: ObjectId) -> bool {
        self.store
            .get("objects", object.raw() as i64)
            .map(|r| r.is_some())
            .unwrap_or(false)
    }

    /// The object's kind.
    pub fn kind(&self, object: ObjectId) -> Result<ObjectKind> {
        let row = self
            .store
            .get("objects", object.raw() as i64)?
            .ok_or_else(|| Error::not_found(object.to_string()))?;
        ObjectKind::parse(row[1].as_text().unwrap_or(""))
            .ok_or_else(|| Error::Encoding("bad kind cell".into()))
    }

    /// The object's name.
    pub fn name(&self, object: ObjectId) -> Result<String> {
        let row = self
            .store
            .get("objects", object.raw() as i64)?
            .ok_or_else(|| Error::not_found(object.to_string()))?;
        Ok(row[2].as_text().unwrap_or("").to_string())
    }

    /// All objects of a kind.
    pub fn objects_of_kind(&self, kind: ObjectKind) -> Vec<ObjectId> {
        self.store
            .select_eq("objects", "kind", &Value::Text(kind.as_str().into()))
            .expect("objects table exists")
            .iter()
            .filter_map(|r| r[0].as_int())
            .map(|i| ObjectId::new(i as u64))
            .collect()
    }

    /// Find an object by its (unique-by-convention) name.
    pub fn find_by_name(&self, name: &str) -> Option<ObjectId> {
        self.store
            .select_eq("objects", "name", &Value::Text(name.into()))
            .expect("objects table exists")
            .first()
            .and_then(|r| r[0].as_int())
            .map(|i| ObjectId::new(i as u64))
    }

    /// Set (insert or overwrite) a property. Values are stored as JSON
    /// text in the `properties` helper table — the §4.6 column mapping.
    /// A report's typed columns (see [`crate::reports`]) live only in
    /// its `reports` row, written once when it is posted: setting one on
    /// a report object is [`Error::InvalidInput`].
    pub fn set_property(&mut self, object: ObjectId, key: &str, value: Value) -> Result<()> {
        let kind = self.kind(object)?;
        if kind == ObjectKind::Report && report_column(key).is_some() {
            return Err(Error::invalid(format!(
                "{object} is a report; its {key} column is set only by post_report"
            )));
        }
        let id_key = IdKey::of(key);
        let old_id = id_key.and_then(|_| self.property(object, key)?.as_int());
        let oid = Value::Int(object.raw() as i64);
        let key_v = Value::Text(key.into());
        let json = encode_value(&value)?;
        let updated = self.store.update_eq(
            "properties",
            "object_id",
            &oid,
            |r| r[2] == key_v,
            |r| r[3] = Value::Text(json.clone()),
        )?;
        if updated == 0 {
            let row_id = self.next_row_id();
            self.store.insert(
                "properties",
                vec![Value::Int(row_id), oid, key_v, Value::Text(json)],
            )?;
        }
        if let Some(id_key) = id_key {
            // `Int` values round-trip exactly through the JSON cell.
            self.lookups
                .reindex(object, kind, id_key, old_id, value.as_int());
        }
        self.publish(|| OosmEvent::PropertyChanged {
            object,
            property: key.to_string(),
            value,
        });
        Ok(())
    }

    /// Read a property. A posted report's typed columns are read from
    /// its `reports` row.
    pub fn property(&self, object: ObjectId, key: &str) -> Option<Value> {
        if let Some(col) = report_column(key) {
            if let Some(row) = self.report_row(object) {
                return Some(row[col].clone());
            }
        }
        let oid = Value::Int(object.raw() as i64);
        let key_v = Value::Text(key.into());
        self.store
            .select_eq("properties", "object_id", &oid)
            .expect("properties table exists")
            .iter()
            .find(|r| r[2] == key_v)
            .and_then(|r| r[3].as_text())
            .map(decode_value)
    }

    /// All properties of an object.
    pub fn properties(&self, object: ObjectId) -> Vec<(String, Value)> {
        let oid = Value::Int(object.raw() as i64);
        let mut props: Vec<(String, Value)> = self
            .store
            .select_eq("properties", "object_id", &oid)
            .expect("properties table exists")
            .iter()
            .map(|r| {
                (
                    r[2].as_text().unwrap_or("").to_string(),
                    r[3].as_text().map(decode_value).unwrap_or(Value::Null),
                )
            })
            .collect();
        if let Some(row) = self.report_row(object) {
            let typed = REPORT_COLUMNS.iter().zip(row).skip(1);
            props.extend(typed.map(|(key, value)| (key.to_string(), value.clone())));
        }
        props.sort_by(|a, b| a.0.cmp(&b.0));
        props
    }

    /// Add a relationship (idempotent).
    pub fn relate(&mut self, from: ObjectId, relation: Relation, to: ObjectId) -> Result<()> {
        if !self.exists(from) {
            return Err(Error::not_found(from.to_string()));
        }
        if !self.exists(to) {
            return Err(Error::not_found(to.to_string()));
        }
        if !self.lookups.is_related(from, relation, to) {
            let row_id = self.next_row_id();
            self.store.insert(
                "relationships",
                vec![
                    Value::Int(row_id),
                    Value::Int(from.raw() as i64),
                    Value::Text(relation.as_str().into()),
                    Value::Int(to.raw() as i64),
                ],
            )?;
            self.lookups.relate(from, relation, to);
            self.publish(|| OosmEvent::RelationAdded { from, relation, to });
        }
        Ok(())
    }

    /// Outgoing related objects: `from --relation--> ?`.
    pub fn related(&self, from: ObjectId, relation: Relation) -> Vec<ObjectId> {
        self.lookups.related(from, relation).to_vec()
    }

    /// Incoming related objects: `? --relation--> to`.
    pub fn related_to(&self, to: ObjectId, relation: Relation) -> Vec<ObjectId> {
        self.lookups.related_to(to, relation).to_vec()
    }

    /// Delete an object with its properties, relationships and typed
    /// report row.
    pub fn delete_object(&mut self, object: ObjectId) -> Result<()> {
        let kind = self.kind(object)?;
        let old_ids = IdKey::ALL.map(|key| self.property(object, key.as_str())?.as_int());
        let oid = Value::Int(object.raw() as i64);
        self.store.delete("objects", {
            let oid = oid.clone();
            move |r| r[0] == oid
        })?;
        self.store.delete("properties", {
            let oid = oid.clone();
            move |r| r[1] == oid
        })?;
        if kind == ObjectKind::Report {
            self.store.delete(REPORTS, {
                let oid = oid.clone();
                move |r| r[0] == oid
            })?;
        }
        self.store
            .delete("relationships", move |r| r[1] == oid || r[3] == oid)?;
        for (key, old) in IdKey::ALL.into_iter().zip(old_ids) {
            self.lookups.reindex(object, kind, key, old, None);
        }
        self.lookups.remove_edges(object);
        self.publish(|| OosmEvent::ObjectDeleted { object });
        Ok(())
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.store
            .row_count("objects")
            .expect("objects table exists")
    }
}

/// Persistence: the relational store plus the two id allocators. The
/// event bus is volatile by design — subscriptions belong to their
/// clients, which re-subscribe after a restore — and the
/// decoded model observes a fresh private telemetry domain until the
/// host rebinds it. The lookups are derived: decode rebuilds them from
/// the tables, after checking the tables hold the §4.6 schema and only
/// rows the model could have written, so a hostile snapshot is an
/// `Err` here rather than a panic on the next write.
impl Durable for Oosm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.store.encode(out);
        self.next_object.encode(out);
        self.next_row.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let store = Store::decode(input)?;
        let next_object = u64::decode(input)?;
        let next_row = i64::decode(input)?;
        if store.table_names().len() != SCHEMA.len()
            || !SCHEMA
                .iter()
                .all(|(table, columns, indexed)| store.has_schema(table, columns, indexed))
        {
            // Also a snapshot from before the typed `reports` table: no
            // deployed store predates it, so there is no migration.
            return Err(Error::invalid(
                "durable OOSM store does not hold the mapping tables",
            ));
        }
        let lookups = Lookups::rebuild(&store, next_object, next_row)?;
        let telemetry = Telemetry::new();
        let m_reports_posted = telemetry.counter("oosm", "reports_posted");
        Ok(Oosm {
            store,
            lookups,
            bus: EventBus::new(),
            next_object,
            next_row,
            telemetry,
            m_reports_posted,
        })
    }
}

/// Encode a store value as JSON text for the properties table.
fn encode_value(v: &Value) -> Result<String> {
    Ok(match v {
        Value::Int(i) => format!("{{\"i\":{i}}}"),
        Value::Float(f) => format!("{{\"f\":{f}}}"),
        Value::Text(s) => {
            // One buffer: the escaped text is written straight into the
            // cell.
            let mut cell = Vec::with_capacity(s.len() + 16);
            cell.extend_from_slice(b"{\"t\":");
            serde::Writer::new(&mut cell).str(s);
            cell.push(b'}');
            return String::from_utf8(cell)
                .map_err(|e| Error::Encoding(format!("property cell: {e}")));
        }
        Value::Bool(b) => format!("{{\"b\":{b}}}"),
        Value::Null => "null".to_string(),
    })
}

/// Decode the JSON property representation.
pub(crate) fn decode_value(json: &str) -> Value {
    let parsed: serde_json::Value = match serde_json::from_str(json) {
        Ok(v) => v,
        Err(_) => return Value::Null,
    };
    if parsed.is_null() {
        return Value::Null;
    }
    let obj = match parsed.as_object() {
        Some(o) => o,
        None => return Value::Null,
    };
    if let Some(i) = obj.get("i").and_then(|v| v.as_i64()) {
        Value::Int(i)
    } else if let Some(f) = obj.get("f").and_then(|v| v.as_f64()) {
        Value::Float(f)
    } else if let Some(t) = obj.get("t").and_then(|v| v.as_str()) {
        Value::Text(t.to_string())
    } else if let Some(b) = obj.get("b").and_then(|v| v.as_bool()) {
        Value::Bool(b)
    } else {
        Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the §4.3 model fragment: ship → chiller system → machines.
    fn ship_model() -> (Oosm, ObjectId, ObjectId, ObjectId) {
        let mut o = Oosm::new();
        let ship = o.create_object(ObjectKind::Ship, "USNS Mercy");
        let chiller = o.create_object(ObjectKind::System, "AC Plant 1");
        let motor = o.create_object(ObjectKind::Machine, "A/C Compressor Motor 1");
        let compressor = o.create_object(ObjectKind::Machine, "A/C Compressor 1");
        o.relate(chiller, Relation::PartOf, ship).unwrap();
        o.relate(motor, Relation::PartOf, chiller).unwrap();
        o.relate(compressor, Relation::PartOf, chiller).unwrap();
        o.relate(motor, Relation::ProximateTo, compressor).unwrap();
        o.relate(motor, Relation::FlowsTo, compressor).unwrap();
        (o, ship, chiller, motor)
    }

    #[test]
    fn objects_have_kind_and_name() {
        let (o, ship, _, motor) = ship_model();
        assert_eq!(o.kind(ship).unwrap(), ObjectKind::Ship);
        assert_eq!(o.name(motor).unwrap(), "A/C Compressor Motor 1");
        assert_eq!(o.object_count(), 4);
        assert!(o.exists(ship));
        assert!(!o.exists(ObjectId::new(999)));
        assert!(o.kind(ObjectId::new(999)).is_err());
    }

    #[test]
    fn part_of_traversal_both_directions() {
        let (o, ship, chiller, motor) = ship_model();
        assert_eq!(o.related(motor, Relation::PartOf), vec![chiller]);
        let parts = o.related_to(chiller, Relation::PartOf);
        assert_eq!(parts.len(), 2);
        assert_eq!(o.related(chiller, Relation::PartOf), vec![ship]);
    }

    #[test]
    fn properties_roundtrip_all_value_types() {
        let (mut o, _, _, motor) = ship_model();
        o.set_property(motor, "manufacturer", Value::Text("GE".into()))
            .unwrap();
        o.set_property(motor, "rated_kw", Value::Float(450.0))
            .unwrap();
        o.set_property(motor, "poles", Value::Int(2)).unwrap();
        o.set_property(motor, "critical", Value::Bool(true))
            .unwrap();
        o.set_property(motor, "notes", Value::Null).unwrap();
        assert_eq!(
            o.property(motor, "manufacturer"),
            Some(Value::Text("GE".into()))
        );
        assert_eq!(o.property(motor, "rated_kw"), Some(Value::Float(450.0)));
        assert_eq!(o.property(motor, "poles"), Some(Value::Int(2)));
        assert_eq!(o.property(motor, "critical"), Some(Value::Bool(true)));
        assert_eq!(o.property(motor, "notes"), Some(Value::Null));
        assert_eq!(o.property(motor, "missing"), None);
        assert_eq!(o.properties(motor).len(), 5);
    }

    #[test]
    fn property_overwrite_keeps_one_row() {
        let (mut o, _, _, motor) = ship_model();
        o.set_property(motor, "rpm", Value::Float(3550.0)).unwrap();
        o.set_property(motor, "rpm", Value::Float(3540.0)).unwrap();
        assert_eq!(o.property(motor, "rpm"), Some(Value::Float(3540.0)));
        assert_eq!(o.store().row_count("properties").unwrap(), 1);
    }

    #[test]
    fn set_property_on_missing_object_fails() {
        let mut o = Oosm::new();
        assert!(o
            .set_property(ObjectId::new(4), "x", Value::Int(1))
            .is_err());
    }

    #[test]
    fn relate_is_idempotent_and_validated() {
        let (mut o, ship, chiller, _) = ship_model();
        o.relate(chiller, Relation::PartOf, ship).unwrap(); // duplicate
        let rels = o
            .store()
            .select("relationships", |r| r[2] == Value::Text("part_of".into()))
            .unwrap();
        assert_eq!(rels.len(), 3, "no duplicate rows");
        assert!(o.relate(ship, Relation::PartOf, ObjectId::new(88)).is_err());
    }

    #[test]
    fn events_fire_for_changes() {
        let mut o = Oosm::new();
        let sub = o.subscribe();
        let m = o.create_object(ObjectKind::Machine, "pump");
        o.set_property(m, "rpm", Value::Float(1750.0)).unwrap();
        let s = o.create_object(ObjectKind::Sensor, "accel-1");
        o.relate(s, Relation::PartOf, m).unwrap();
        o.delete_object(s).unwrap();
        let events = sub.drain();
        assert_eq!(events.len(), 5);
        assert!(matches!(events[0], OosmEvent::ObjectCreated { .. }));
        assert!(matches!(
            &events[1],
            OosmEvent::PropertyChanged { property, .. } if property == "rpm"
        ));
        assert!(matches!(events[3], OosmEvent::RelationAdded { .. }));
        assert!(matches!(events[4], OosmEvent::ObjectDeleted { .. }));
    }

    #[test]
    fn delete_cascades_to_properties_and_relationships() {
        let (mut o, _, chiller, motor) = ship_model();
        o.set_property(motor, "rpm", Value::Float(3550.0)).unwrap();
        o.delete_object(motor).unwrap();
        assert!(!o.exists(motor));
        assert_eq!(o.property(motor, "rpm"), None);
        assert!(!o.related_to(chiller, Relation::PartOf).contains(&motor));
        assert!(o.delete_object(motor).is_err(), "double delete");
    }

    #[test]
    fn find_by_name_and_kind_queries() {
        let (o, _, _, motor) = ship_model();
        assert_eq!(o.find_by_name("A/C Compressor Motor 1"), Some(motor));
        assert_eq!(o.find_by_name("nonexistent"), None);
        assert_eq!(o.objects_of_kind(ObjectKind::Machine).len(), 2);
        assert_eq!(o.objects_of_kind(ObjectKind::Deck).len(), 0);
    }

    #[test]
    fn kind_and_relation_string_roundtrip() {
        for k in [
            ObjectKind::Ship,
            ObjectKind::Deck,
            ObjectKind::System,
            ObjectKind::Machine,
            ObjectKind::Part,
            ObjectKind::Sensor,
            ObjectKind::DataConcentrator,
            ObjectKind::KnowledgeSource,
            ObjectKind::Report,
        ] {
            assert_eq!(ObjectKind::parse(k.as_str()), Some(k));
        }
        for r in [
            Relation::PartOf,
            Relation::KindOf,
            Relation::ProximateTo,
            Relation::FlowsTo,
            Relation::RefersTo,
        ] {
            assert_eq!(Relation::parse(r.as_str()), Some(r));
        }
        assert_eq!(ObjectKind::parse("alien"), None);
        assert_eq!(Relation::parse("orbits"), None);
    }
}
