//! The object model API (§4.2–§4.4).

use crate::events::{EventBus, OosmEvent, Subscription};
use crate::reports::{report_column, REPORT_COLUMNS};
use crate::tables::{Property, Tables, Value};
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

/// The Object-Oriented Ship Model: object graph over the §4.6 mapping
/// tables, with change events.
#[derive(Debug)]
pub struct Oosm {
    pub(crate) tables: Tables,
    bus: EventBus,
    telemetry: Telemetry,
    pub(crate) metrics: OosmCounters,
}

/// The model's instruments, named once.
#[derive(Debug)]
pub(crate) struct OosmCounters {
    pub(crate) reports_posted: Arc<Counter>,
}

impl OosmCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        let reports_posted = telemetry.counter("oosm", "reports_posted");
        OosmCounters { reports_posted }
    }
}

impl Default for Oosm {
    fn default() -> Self {
        Self::new()
    }
}

impl Oosm {
    /// An empty model.
    pub fn new() -> Self {
        Self::with_tables(Tables::default())
    }

    /// A model over `tables`, observing a fresh private telemetry domain.
    fn with_tables(tables: Tables) -> Self {
        let telemetry = Telemetry::new();
        Oosm {
            tables,
            bus: EventBus::new(),
            metrics: OosmCounters::wire(&telemetry),
            telemetry,
        }
    }

    /// Record into `telemetry` from now on; nothing recorded so far
    /// moves over (see [`mpros_telemetry::Instrumented`]).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = OosmCounters::wire(telemetry);
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

    /// Read-only view of the persistence layer: row counts, the rows
    /// queries visited, and each table's live rows (§4.6's mapping is
    /// observable here).
    pub fn store(&self) -> &Tables {
        &self.tables
    }

    /// Create an object; returns its id.
    pub fn create_object(&mut self, kind: ObjectKind, name: &str) -> ObjectId {
        let id = self.tables.insert_object(kind, name);
        self.publish(|| OosmEvent::ObjectCreated { object: id, kind });
        id
    }

    /// True if the object exists.
    pub fn exists(&self, object: ObjectId) -> bool {
        self.tables.object(object).is_some()
    }

    /// The object's kind.
    pub fn kind(&self, object: ObjectId) -> Result<ObjectKind> {
        self.tables
            .object(object)
            .map(|o| o.kind)
            .ok_or_else(|| Error::not_found(object.to_string()))
    }

    /// The object's name.
    pub fn name(&self, object: ObjectId) -> Result<String> {
        self.tables
            .object(object)
            .map(|o| o.name.clone())
            .ok_or_else(|| Error::not_found(object.to_string()))
    }

    /// All objects of a kind, ascending.
    pub fn objects_of_kind(&self, kind: ObjectKind) -> Vec<ObjectId> {
        self.tables.objects_of_kind(kind).to_vec()
    }

    /// Find an object by its (unique-by-convention) name: the lowest id
    /// holding it. Scans the objects table (a browser helper, off every
    /// ingest and export path).
    pub fn find_by_name(&self, name: &str) -> Option<ObjectId> {
        self.tables.find_by_name(name)
    }

    /// Set (insert or overwrite) a property. Values are stored as JSON
    /// text in the `properties` helper table — the §4.6 column mapping;
    /// an overwrite keeps the row where it is. A non-finite
    /// `Value::Float` is [`Error::InvalidInput`]: JSON has no text for
    /// it. A report's typed columns (see [`crate::reports`]) live only
    /// in its `reports` row, written once when it is posted: setting one
    /// on a report object is [`Error::InvalidInput`].
    pub fn set_property(&mut self, object: ObjectId, key: &str, value: Value) -> Result<()> {
        if matches!(value, Value::Float(f) if !f.is_finite()) {
            return Err(Error::invalid(format!(
                "property {key} of {object} is not finite"
            )));
        }
        let kind = self.kind(object)?;
        if kind == ObjectKind::Report && report_column(key).is_some() {
            return Err(Error::invalid(format!(
                "{object} is a report; its {key} column is set only by post_report"
            )));
        }
        self.write_property(object, kind, key, value);
        Ok(())
    }

    /// Set a property of `object`, of `kind`, that the caller has
    /// checked may be set, and publish the change.
    pub(crate) fn write_property(
        &mut self,
        object: ObjectId,
        kind: ObjectKind,
        key: &str,
        value: Value,
    ) {
        self.tables.set_property(object, kind, key, &value);
        self.publish(|| OosmEvent::PropertyChanged {
            object,
            property: key.to_string(),
            value,
        });
    }

    /// Read a property. A posted report's typed columns are read from
    /// its `reports` row.
    pub fn property(&self, object: ObjectId, key: &str) -> Option<Value> {
        if let Some(col) = report_column(key) {
            if let Some(row) = self.tables.report(object) {
                return Some(row.cell(col));
            }
        }
        self.tables.property(object, key).map(Property::value)
    }

    /// All properties of an object, sorted by key.
    pub fn properties(&self, object: ObjectId) -> Vec<(String, Value)> {
        let mut props: Vec<(String, Value)> = self
            .tables
            .properties(object)
            .map(|p| (p.key.clone(), p.value()))
            .collect();
        if let Some(row) = self.tables.report(object) {
            let typed = REPORT_COLUMNS.iter().enumerate().skip(1);
            props.extend(typed.map(|(col, key)| (key.to_string(), row.cell(col))));
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
        if self.tables.relate(from, relation, to) {
            self.publish(|| OosmEvent::RelationAdded { from, relation, to });
        }
        Ok(())
    }

    /// Outgoing related objects: `from --relation--> ?`.
    pub fn related(&self, from: ObjectId, relation: Relation) -> Vec<ObjectId> {
        self.tables.related(from, relation)
    }

    /// Incoming related objects: `? --relation--> to`.
    pub fn related_to(&self, to: ObjectId, relation: Relation) -> Vec<ObjectId> {
        self.tables.related_to(to, relation)
    }

    /// Delete an object with its properties, relationships and typed
    /// report row.
    pub fn delete_object(&mut self, object: ObjectId) -> Result<()> {
        let kind = self.kind(object)?;
        self.tables.delete_object(object, kind);
        self.publish(|| OosmEvent::ObjectDeleted { object });
        Ok(())
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.tables.object_count()
    }
}

/// Persistence: the mapping tables and the two id allocators, in the
/// byte format [`crate::tables`] describes. The event bus is volatile by
/// design — subscriptions belong to their clients, which re-subscribe
/// after a restore — and the decoded model observes a fresh private
/// telemetry domain until the host rebinds it. Decode refuses any table
/// or row the model could not have written, so a hostile snapshot is an
/// `Err` here rather than a panic on the next write.
impl Durable for Oosm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tables.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Tables::decode(input).map(Self::with_tables)
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
    fn a_negative_zero_float_keeps_its_sign() {
        let (mut o, _, _, motor) = ship_model();
        o.set_property(motor, "offset", Value::Float(-0.0)).unwrap();
        // `-0.0 == 0.0`, so compare the sign bit.
        let negative_zero = |o: &Oosm| {
            matches!(o.property(motor, "offset"),
                Some(Value::Float(f)) if f.to_bits() == (-0.0f64).to_bits())
        };
        assert!(negative_zero(&o));
        let restored = Oosm::from_durable_bytes(&o.to_durable_bytes()).unwrap();
        assert!(negative_zero(&restored));
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
    fn a_non_finite_float_property_is_refused() {
        let (mut o, _, _, motor) = ship_model();
        let sub = o.subscribe();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                o.set_property(motor, "x", Value::Float(bad)),
                Err(Error::InvalidInput(_))
            ));
        }
        assert_eq!(o.property(motor, "x"), None);
        assert_eq!(o.store().row_count("properties").unwrap(), 0);
        assert!(sub.drain().is_empty(), "nothing was published");
        o.set_property(motor, "x", Value::Float(f64::MAX)).unwrap();
        assert_eq!(o.property(motor, "x"), Some(Value::Float(f64::MAX)));
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
        assert_eq!(
            o.store().row_count("relationships").unwrap(),
            5,
            "no duplicate rows"
        );
        assert_eq!(o.related(chiller, Relation::PartOf), vec![ship]);
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
