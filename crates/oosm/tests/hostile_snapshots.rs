//! A hostile or corrupt snapshot decodes to `Err` or to a model that
//! answers queries and takes writes — never to a later panic.

use mpros_core::{
    Belief, ConditionReport, Durable, MachineCondition, MachineId, ObjectId, ReportId,
};
use mpros_oosm::{ObjectKind, Oosm, Relation, Store, Value};
use proptest::prelude::*;

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

/// Snapshot bytes of `store` with the given id allocators.
fn snapshot(store: &Store, next_object: u64, next_row: i64) -> Vec<u8> {
    let mut bytes = store.to_durable_bytes();
    next_object.encode(&mut bytes);
    next_row.encode(&mut bytes);
    bytes
}

/// Exercise every query and write path of a decoded model.
fn drive(mut o: Oosm) {
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
    let bytes = snapshot(&Store::new(), 0, 0);
    assert!(Oosm::from_durable_bytes(&bytes).is_err());
}

#[test]
fn a_store_with_a_wrong_schema_is_rejected() {
    let mut store = Store::new();
    for table in ["objects", "properties", "relationships", "reports"] {
        store.create_table(table, &["id"]).unwrap();
    }
    assert!(Oosm::from_durable_bytes(&snapshot(&store, 0, 0)).is_err());
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

/// The snapshot's store and allocators, split apart for editing.
fn parts(o: &Oosm) -> (Store, u64, i64) {
    let bytes = o.to_durable_bytes();
    let tail = &bytes[bytes.len() - 16..];
    let store = Store::from_durable_bytes(&bytes[..bytes.len() - 16]).unwrap();
    let next_object = u64::from_le_bytes(tail[..8].try_into().unwrap());
    let next_row = i64::from_le_bytes(tail[8..].try_into().unwrap());
    (store, next_object, next_row)
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
    let (store, next_object, next_row) = parts(&o);
    assert!(Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row)).is_ok());
    let row = store.select("reports", |_| true).unwrap()[0].clone();
    let object_cell = row[0].clone();
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();

    // Each cell given a type its column never holds.
    for col in 0..row.len() {
        let wrong = match row[col] {
            Value::Int(_) | Value::Float(_) => Value::Text("7".into()),
            _ => Value::Int(7),
        };
        for bad in [wrong, Value::Null, Value::Bool(true)] {
            // The store keeps a primary key immutable, so the row is
            // replaced rather than updated.
            let mut store = parts(&o).0;
            let cell = object_cell.clone();
            store.delete("reports", move |r| r[0] == cell).unwrap();
            let mut mistyped = row.clone();
            mistyped[col] = bad;
            store.insert("reports", mistyped).unwrap();
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
        store.insert("reports", orphan).unwrap();
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
            store
                .insert(
                    "properties",
                    vec![
                        Value::Int(next_row + 1),
                        Value::Int(report_obj.raw() as i64),
                        Value::Text(key.into()),
                        Value::Text("{\"i\":1}".into()),
                    ],
                )
                .unwrap();
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
    store
        .insert(
            "properties",
            vec![
                Value::Int(next_row + 1),
                Value::Int(machine.raw() as i64),
                Value::Text("belief".into()),
                Value::Text("{\"f\":0.5}".into()),
            ],
        )
        .unwrap();
    let decoded = Oosm::from_durable_bytes(&snapshot(&store, next_object, next_row + 1)).unwrap();
    assert_eq!(decoded.property(machine, "belief"), Some(Value::Float(0.5)));
}

#[test]
fn a_snapshot_from_before_the_reports_table_is_refused() {
    // An empty model's store as it stood before reports had their own
    // table: three tables, relationships indexed in both directions.
    let mut store = Store::new();
    for (table, columns, indexed) in [
        (
            "objects",
            &["id", "kind", "name"][..],
            &["kind", "name"][..],
        ),
        (
            "properties",
            &["row_id", "object_id", "key", "value_json"],
            &["object_id"],
        ),
        (
            "relationships",
            &["row_id", "from_id", "relation", "to_id"],
            &["from_id", "to_id"],
        ),
    ] {
        store.create_table(table, columns).unwrap();
        for column in indexed {
            store.create_index(table, column).unwrap();
        }
    }
    assert!(matches!(
        Oosm::from_durable_bytes(&snapshot(&store, 0, 0)),
        Err(mpros_core::Error::InvalidInput(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        if let Ok(store) = Store::from_durable_bytes(&bytes) {
            for table in store.table_names() {
                let _ = (store.row_count(table), store.get(table, 0));
                let _ = store.select(table, |_| true);
            }
        }
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
        // The store is the snapshot less its two trailing allocators.
        if let Ok(store) = Store::from_durable_bytes(&bytes[..bytes.len() - 16]) {
            for table in store.table_names() {
                let _ = (store.row_count(table), store.get(table, 0));
            }
        }
        if let Ok(o) = Oosm::from_durable_bytes(&bytes) {
            drive(o);
        }
    }
}
