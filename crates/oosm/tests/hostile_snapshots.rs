//! A hostile or corrupt snapshot decodes to `Err` or to a model that
//! answers queries and takes writes — never to a later panic.
//!
//! Hostile bytes are built in the snapshot's own layout: a list of
//! tables, each its name, column names, row slots and indexed-column
//! list, then the two id allocators, written through the `Durable`
//! impls of tuples, vectors and [`Value`].

use mpros_core::{
    Belief, ConditionReport, Durable, MachineCondition, MachineId, ObjectId, ReportId,
};
use mpros_oosm::{ObjectKind, Oosm, Relation, Value};
use proptest::prelude::*;

/// One table as a snapshot encodes it: its name, then its columns, its
/// row slots (a tombstone is `None`) and its indexed columns.
type Table = (String, (Vec<String>, Vec<Option<Vec<Value>>>, Vec<usize>));

/// A whole snapshot: the tables, `next_object` and `next_row`.
type Snapshot = (Vec<Table>, u64, i64);

/// An empty table.
fn table(name: &str, columns: &[&str], indexed: &[usize]) -> Table {
    let columns = columns.iter().map(|c| c.to_string()).collect();
    (name.to_string(), (columns, Vec::new(), indexed.to_vec()))
}

/// The row slots of table `name`.
fn slots<'a>(tables: &'a mut [Table], name: &str) -> &'a mut Vec<Option<Vec<Value>>> {
    let table = tables.iter_mut().find(|t| t.0 == name).unwrap();
    &mut (table.1).1
}

fn report(id: u64, machine: u64) -> ConditionReport {
    ConditionReport::builder(
        MachineId::new(machine),
        MachineCondition::MotorImbalance,
        Belief::new(0.6),
    )
    .id(ReportId::new(id))
    .explanation("imbalance")
    .build()
}

/// A small real model: ship → plant → two machines, a few reports.
fn populated() -> Oosm {
    let mut o = Oosm::new();
    let ship = o.create_object(ObjectKind::Ship, "ship");
    let plant = o.create_object(ObjectKind::System, "plant");
    o.relate(plant, Relation::PartOf, ship).unwrap();
    for m in 1..=2 {
        let obj = o.register_machine(MachineId::new(m), "machine");
        o.relate(obj, Relation::PartOf, plant).unwrap();
        o.set_property(obj, "status", Value::Text("ok".into()))
            .unwrap();
    }
    for r in 0..4 {
        o.post_report(&report(r, 1 + r % 2)).unwrap();
    }
    o
}

/// Snapshot bytes of `tables` with the given id allocators.
fn snapshot(tables: &[Table], next_object: u64, next_row: i64) -> Vec<u8> {
    (tables.to_vec(), next_object, next_row).to_durable_bytes()
}

/// Exercise every query and write path of a decoded model.
fn drive(mut o: Oosm) {
    for table in ["objects", "properties", "relationships", "reports", "nope"] {
        let _ = (o.store().row_count(table), o.store().rows(table));
    }
    for kind in [ObjectKind::Machine, ObjectKind::Report, ObjectKind::Ship] {
        for obj in o.objects_of_kind(kind) {
            let _ = (o.kind(obj), o.name(obj), o.properties(obj));
            let _ = (
                o.related(obj, Relation::PartOf),
                o.related_to(obj, Relation::RefersTo),
            );
            let _ = o.report_payload(obj);
        }
    }
    for m in (0..4).map(MachineId::new) {
        let _ = (
            o.machine_object(m),
            o.reports_for_machine(m),
            o.report_count_for(m),
        );
    }
    let _ = (
        o.report_object(ReportId::new(1)),
        o.report_count(),
        o.object_count(),
    );
    let machine = o.register_machine(MachineId::new(9), "new machine");
    let posted = o.post_report(&report(99, 9)).unwrap();
    assert_eq!(o.related(posted, Relation::RefersTo), vec![machine]);
    let _ = o.relate(ObjectId::new(0), Relation::FlowsTo, machine);
    let _ = o.delete_object(ObjectId::new(1));
    let _ = o.to_durable_bytes();
}

#[test]
fn a_store_without_the_mapping_tables_is_rejected() {
    let bytes = snapshot(&[], 0, 0);
    assert!(Oosm::from_durable_bytes(&bytes).is_err());
}

#[test]
fn a_store_with_a_wrong_schema_is_rejected() {
    let tables =
        ["objects", "properties", "relationships", "reports"].map(|t| table(t, &["id"], &[]));
    assert!(Oosm::from_durable_bytes(&snapshot(&tables, 0, 0)).is_err());
}

#[test]
fn rewound_allocators_are_rejected() {
    let (store, next_object, next_row) = parts(&populated());
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row)).is_ok());
    // Rewound object ids would reissue a live id on the next create.
    assert!(Oosm::from_durable_bytes(&snapshot(&store, 0, next_row)).is_err());
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object - 1, next_row)).is_err());
    // Rewound row ids would reissue a live property or relationship key.
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, 0)).is_err());
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row - 1)).is_err());
    // Allocators past the `Int` range cannot issue a storable id.
    assert!(Oosm::from_durable_bytes(&snapshot(&store, u64::MAX, next_row)).is_err());
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, i64::MAX)).is_err());
}

#[test]
fn a_real_snapshot_decodes_and_takes_writes() {
    let o = populated();
    let bytes = o.to_durable_bytes();
    drive(Oosm::from_durable_bytes(&bytes).unwrap());
}

/// The snapshot's tables and allocators, split apart for editing.
fn parts(o: &Oosm) -> Snapshot {
    Snapshot::from_durable_bytes(&o.to_durable_bytes()).unwrap()
}

#[test]
fn every_corrupt_reports_table_is_rejected() {
    let mut o = populated();
    let machine = o.machine_object(MachineId::new(1)).unwrap();
    // An object with no property a report's typed columns could clash with.
    let ship = o.objects_of_kind(ObjectKind::Ship)[0];
    let report_obj = o.report_object(ReportId::new(0)).unwrap();
    let deleted = o.report_object(ReportId::new(3)).unwrap();
    o.delete_object(deleted).unwrap();
    // A report object with no typed row, which `post_report` never makes.
    let draft = o.create_object(ObjectKind::Report, "draft");
    let (mut store, next_object, next_row) = parts(&o);
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row)).is_ok());
    let row = slots(&mut store, "reports")
        .iter()
        .flatten()
        .next()
        .unwrap()
        .clone();
    let object_cell = row[0].clone();
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();

    // Each cell given a type its column never holds.
    for col in 0..row.len() {
        let wrong = match row[col] {
            Value::Int(_) | Value::Float(_) => Value::Text("7".into()),
            _ => Value::Int(7),
        };
        for bad in [wrong, Value::Null, Value::Bool(true)] {
            // The row is replaced: its slot becomes a tombstone and the
            // mistyped row is appended.
            let mut store = parts(&o).0;
            let reports = slots(&mut store, "reports");
            let at = reports
                .iter()
                .position(|r| r.as_ref().is_some_and(|r| r[0] == object_cell))
                .unwrap();
            reports[at] = None;
            let mut mistyped = row.clone();
            mistyped[col] = bad;
            reports.push(Some(mistyped));
            cases.push((
                format!("column {col} mistyped"),
                snapshot(&store, next_object, next_row),
            ));
        }
    }
    // A typed row whose object is missing (deleted) or not a report.
    for (what, object) in [("missing", deleted), ("a ship", ship)] {
        let mut store = parts(&o).0;
        let mut orphan = row.clone();
        orphan[0] = Value::Int(object.raw() as i64);
        slots(&mut store, "reports").push(Some(orphan));
        cases.push((
            format!("reports row of {what} object"),
            snapshot(&store, next_object, next_row),
        ));
    }
    // A properties row holding one of a report's typed columns, on a
    // posted report (repeating its row) or on a report with no row.
    for key in [
        "report_id",
        "machine_id",
        "condition",
        "belief",
        "severity",
        "timestamp",
        "payload",
    ] {
        for (what, report_obj) in [("posted", report_obj), ("draft", draft)] {
            let mut store = parts(&o).0;
            slots(&mut store, "properties").push(Some(vec![
                Value::Int(next_row + 1),
                Value::Int(report_obj.raw() as i64),
                Value::Text(key.into()),
                Value::Text("{\"i\":1}".into()),
            ]));
            cases.push((
                format!("properties row holding {key} on a {what} report"),
                snapshot(&store, next_object, next_row + 1),
            ));
        }
    }
    for (what, bytes) in cases {
        assert!(Oosm::from_durable_bytes(&bytes).is_err(), "{what}");
    }
    // The same properties row on a machine object is an ordinary property.
    let mut store = parts(&o).0;
    slots(&mut store, "properties").push(Some(vec![
        Value::Int(next_row + 1),
        Value::Int(machine.raw() as i64),
        Value::Text("belief".into()),
        Value::Text("{\"f\":0.5}".into()),
    ]));
    let decoded = Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row + 1)).unwrap();
    assert_eq!(decoded.property(machine, "belief"), Some(Value::Float(0.5)));
}

#[test]
fn a_snapshot_from_before_the_reports_table_is_refused() {
    // An empty model's store as it stood before reports had their own
    // table: three tables, relationships indexed in both directions.
    let store = [
        table("objects", &["id", "kind", "name"], &[1, 2]),
        table(
            "properties",
            &["row_id", "object_id", "key", "value_json"],
            &[1],
        ),
        table(
            "relationships",
            &["row_id", "from_id", "relation", "to_id"],
            &[1, 3],
        ),
    ];
    assert!(matches!(
        Oosm::from_durable_bytes(&snapshot(&store, 0, 0)),
        Err(mpros_core::Error::InvalidInput(_))
    ));
}

/// The slot of `object`'s property row under `key`.
fn property_slot(store: &mut [Table], object: ObjectId, key: &str) -> usize {
    let (object, key) = (Value::Int(object.raw() as i64), Value::Text(key.into()));
    slots(store, "properties")
        .iter()
        .position(|r| r.as_ref().is_some_and(|r| r[1] == object && r[2] == key))
        .unwrap()
}

#[test]
fn a_property_cell_that_is_not_a_value_is_rejected() {
    let o = populated();
    let machine = o.machine_object(MachineId::new(1)).unwrap();
    let (store, next_object, next_row) = parts(&o);
    let with_cell = |key: &str, cell: &str| {
        let mut store = store.clone();
        let at = property_slot(&mut store, machine, key);
        slots(&mut store, "properties")[at].as_mut().unwrap()[3] = Value::Text(cell.into());
        snapshot(&store, next_object, next_row)
    };
    // Each of the five forms the model writes reads back as its value.
    for (cell, value) in [
        ("null", Value::Null),
        ("{\"i\":-3}", Value::Int(-3)),
        ("{\"f\":0.5}", Value::Float(0.5)),
        ("{\"f\":2}", Value::Float(2.0)),
        ("{\"t\":\"a\\\"b\"}", Value::Text("a\"b".into())),
        ("{\"b\":false}", Value::Bool(false)),
    ] {
        let decoded = Oosm::from_durable_bytes(&with_cell("status", cell)).unwrap();
        assert_eq!(decoded.property(machine, "status"), Some(value), "{cell}");
    }
    // Anything else is refused, whichever property holds it: read as
    // `Null`, a garbled `machine_id` would silently unregister the
    // machine.
    for key in ["machine_id", "status"] {
        for cell in [
            "garbage",
            "",
            "{}",
            "[1]",
            "nul",
            "{\"i\":1.5}",
            "{\"i\":1e3}",
            "{\"i\":-0}",
            "{\"i\":\"1\"}",
            "{\"i\":99999999999999999999}",
            "{\"f\":NaN}",
            "{\"f\":inf}",
            "{\"f\":1e999}",
            "{\"t\":1}",
            "{\"b\":1}",
            "{\"x\":1}",
            "{\"i\":1,\"i\":2}",
            "{\"i\":1}x",
        ] {
            assert!(
                Oosm::from_durable_bytes(&with_cell(key, cell)).is_err(),
                "{key} = {cell}"
            );
        }
    }
}

#[test]
fn a_repeated_property_is_rejected() {
    let o = populated();
    let machine = o.machine_object(MachineId::new(1)).unwrap();
    let (store, next_object, next_row) = parts(&o);
    for (key, cell) in [("status", "{\"t\":\"ok\"}"), ("machine_id", "{\"i\":1}")] {
        let mut store = store.clone();
        slots(&mut store, "properties").push(Some(vec![
            Value::Int(next_row + 1),
            Value::Int(machine.raw() as i64),
            Value::Text(key.into()),
            Value::Text(cell.into()),
        ]));
        let bytes = snapshot(&store, next_object, next_row + 1);
        assert!(Oosm::from_durable_bytes(&bytes).is_err(), "{key}");
    }
}

#[test]
fn rows_the_model_never_writes_are_rejected() {
    let o = populated();
    let (store, next_object, next_row) = parts(&o);
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    // Tables out of name order.
    let mut swapped = store.clone();
    swapped.swap(0, 3);
    cases.push((
        "tables out of order",
        snapshot(&swapped, next_object, next_row),
    ));
    // An object whose id is not its position.
    let mut moved = store.clone();
    let objects = slots(&mut moved, "objects");
    objects.push(None);
    let last = objects.len() - 2;
    objects.swap(last, last + 1);
    cases.push((
        "object off its position",
        snapshot(&moved, next_object + 1, next_row),
    ));
    // Property and relationship row ids that do not ascend.
    for table in ["properties", "relationships"] {
        let mut reversed = store.clone();
        slots(&mut reversed, table).reverse();
        cases.push((table, snapshot(&reversed, next_object, next_row)));
    }
    // A row one cell short of its table's columns.
    let mut short = store.clone();
    let properties = slots(&mut short, "properties");
    let at = properties.iter().position(Option::is_some).unwrap();
    if let Some(row) = properties[at].as_mut() {
        row.pop();
    }
    cases.push(("a short row", snapshot(&short, next_object, next_row)));
    // A second reports row for one report object.
    let mut doubled = store.clone();
    let reports = slots(&mut doubled, "reports");
    let row = reports.iter().flatten().next().unwrap().clone();
    reports.push(Some(row));
    cases.push((
        "two reports rows",
        snapshot(&doubled, next_object, next_row),
    ));
    for (what, bytes) in cases {
        assert!(Oosm::from_durable_bytes(&bytes).is_err(), "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = Snapshot::from_durable_bytes(&bytes);
        if let Ok(o) = Oosm::from_durable_bytes(&bytes) {
            drive(o);
        }
    }

    #[test]
    fn single_byte_mutations_of_a_snapshot_never_panic(
        position in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let mut bytes = populated().to_durable_bytes();
        let at = ((bytes.len() as f64) * position) as usize;
        bytes[at] ^= flip;
        let _ = Snapshot::from_durable_bytes(&bytes);
        if let Ok(o) = Oosm::from_durable_bytes(&bytes) {
            drive(o);
        }
    }
}
