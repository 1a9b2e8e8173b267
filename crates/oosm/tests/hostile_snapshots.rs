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
    for table in ["objects", "properties", "relationships"] {
        store.create_table(table, &["id"]).unwrap();
    }
    assert!(Oosm::from_durable_bytes(&snapshot(&store, 0, 0)).is_err());
}

#[test]
fn rewound_allocators_are_rejected() {
    let o = populated();
    let bytes = o.to_durable_bytes();
    let store = Store::from_durable_bytes(&bytes[..bytes.len() - 16]).unwrap();
    let next_object =
        u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
    let next_row = i64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
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
