//! The model's indexed lookups answer exactly what a scan of the
//! mapping tables answers, in the same order, across random sequences
//! of writes and encode/decode round trips.
//!
//! The `scan_*` functions are the reference: each scans the live rows
//! the tables hold, as their snapshot cells (`Tables::rows`), and so
//! reads none of the maps kept beside the rows.

use mpros_core::{
    Belief, ConditionReport, Durable, MachineCondition, MachineId, ObjectId, ReportId,
};
use mpros_oosm::{ObjectKind, Oosm, Relation, Value};
use proptest::prelude::*;

const KINDS: [ObjectKind; 4] = [
    ObjectKind::Ship,
    ObjectKind::System,
    ObjectKind::Machine,
    ObjectKind::Report,
];

const RELATIONS: [Relation; 5] = [
    Relation::PartOf,
    Relation::KindOf,
    Relation::ProximateTo,
    Relation::FlowsTo,
    Relation::RefersTo,
];

/// Machine ids the queries probe: the small ids operations use plus the
/// ids whose `Int` cells are `-1` and `i64::MIN`.
const MACHINES: [u64; 7] = [0, 1, 2, 3, 4, u64::MAX, 1 << 63];

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Register(u64),
    SetProperty(usize, &'static str, Value),
    Relate(usize, usize, usize),
    Post(u64, u64),
    Delete(usize),
    RoundTrip,
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..5).prop_map(Value::Int),
        prop_oneof![Just(-1i64), Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
        (0i64..5).prop_map(|i| Value::Float(i as f64)),
        (0i64..5).prop_map(|i| Value::Text(i.to_string())),
        Just(Value::Null),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..KINDS.len()).prop_map(Op::Create),
        (0u64..5).prop_map(Op::Register),
        (
            0usize..64,
            // `belief` is a typed report column: refused on a report
            // object, an ordinary property row on any other object.
            prop_oneof![
                Just("machine_id"),
                Just("report_id"),
                Just("belief"),
                Just("status")
            ],
            arb_value()
        )
            .prop_map(|(o, k, v)| Op::SetProperty(o, k, v)),
        (0usize..64, 0usize..RELATIONS.len(), 0usize..64).prop_map(|(f, r, t)| Op::Relate(f, r, t)),
        (0u64..8, 0u64..6).prop_map(|(r, m)| Op::Post(r, m)),
        (0usize..64).prop_map(Op::Delete),
        Just(Op::RoundTrip),
    ]
}

fn report(id: u64, machine: u64) -> ConditionReport {
    ConditionReport::builder(
        MachineId::new(machine),
        MachineCondition::ALL[(id % 12) as usize],
        Belief::new(0.5),
    )
    .id(ReportId::new(id))
    .build()
}

/// The live rows of the four tables, read once per check.
struct Tables {
    objects: Vec<Vec<Value>>,
    properties: Vec<Vec<Value>>,
    relationships: Vec<Vec<Value>>,
    reports: Vec<Vec<Value>>,
}

impl Tables {
    fn of(o: &Oosm) -> Tables {
        let rows = |table| o.store().rows(table).unwrap();
        Tables {
            objects: rows("objects"),
            properties: rows("properties"),
            relationships: rows("relationships"),
            reports: rows("reports"),
        }
    }
}

fn object(cell: &Value) -> Option<ObjectId> {
    cell.as_int().map(|i| ObjectId::new(i as u64))
}

/// Objects of `kind`, ascending, from the objects table.
fn scan_kind(t: &Tables, kind: ObjectKind) -> Vec<ObjectId> {
    let kind = Value::Text(kind.as_str().into());
    t.objects
        .iter()
        .filter(|row| row[1] == kind)
        .filter_map(|row| object(&row[0]))
        .collect()
}

/// Objects of `kind` holding `Int(value)` under `key`, ascending: in a
/// `properties` row, or in the `reports` row's column of that name.
fn scan_holder(t: &Tables, kind: ObjectKind, key: &str, value: i64) -> Vec<ObjectId> {
    let key_cell = Value::Text(key.into());
    let json_cell = Value::Text(format!("{{\"i\":{value}}}"));
    let column = ["report_id", "machine_id"]
        .iter()
        .position(|&c| c == key)
        .map(|i| i + 1);
    scan_kind(t, kind)
        .into_iter()
        .filter(|&obj| {
            let obj = Value::Int(obj.raw() as i64);
            t.properties
                .iter()
                .any(|row| row[1] == obj && row[2] == key_cell && row[3] == json_cell)
                || column.is_some_and(|col| {
                    t.reports
                        .iter()
                        .any(|row| row[0] == obj && row[col] == Value::Int(value))
                })
        })
        .collect()
}

fn scan_machine_object(t: &Tables, machine: MachineId) -> Option<ObjectId> {
    scan_holder(t, ObjectKind::Machine, "machine_id", machine.raw() as i64)
        .first()
        .copied()
}

fn scan_report_object(t: &Tables, report: ReportId) -> Option<ObjectId> {
    scan_holder(t, ObjectKind::Report, "report_id", report.raw() as i64)
        .first()
        .copied()
}

fn scan_reports_for_machine(o: &Oosm, t: &Tables, machine: MachineId) -> Vec<ConditionReport> {
    let mut objs = scan_holder(t, ObjectKind::Report, "machine_id", machine.raw() as i64);
    objs.sort();
    objs.into_iter()
        .filter_map(|obj| o.report_payload(obj).ok())
        .collect()
}

fn scan_related(t: &Tables, from: ObjectId, relation: Relation) -> Vec<ObjectId> {
    let r = Value::Text(relation.as_str().into());
    let from = Value::Int(from.raw() as i64);
    t.relationships
        .iter()
        .filter(|row| row[1] == from && row[2] == r)
        .filter_map(|row| object(&row[3]))
        .collect()
}

fn scan_related_to(t: &Tables, to: ObjectId, relation: Relation) -> Vec<ObjectId> {
    let r = Value::Text(relation.as_str().into());
    let to = Value::Int(to.raw() as i64);
    t.relationships
        .iter()
        .filter(|row| row[3] == to && row[2] == r)
        .filter_map(|row| object(&row[1]))
        .collect()
}

/// Every indexed lookup equals its scan reference on `o`.
fn assert_lookups_match_scans(o: &Oosm, objects: &[ObjectId], step: usize) {
    let t = &Tables::of(o);
    for m in MACHINES.map(MachineId::new) {
        assert_eq!(
            o.machine_object(m),
            scan_machine_object(t, m),
            "step {step} {m}"
        );
        assert_eq!(
            o.report_count_for(m),
            scan_holder(t, ObjectKind::Report, "machine_id", m.raw() as i64).len(),
            "step {step} {m}"
        );
        assert_eq!(
            o.reports_for_machine(m),
            scan_reports_for_machine(o, t, m),
            "step {step} {m}"
        );
    }
    for r in (0..8).map(ReportId::new) {
        assert_eq!(o.report_object(r), scan_report_object(t, r), "step {step}");
    }
    assert_eq!(
        o.report_count(),
        o.objects_of_kind(ObjectKind::Report).len(),
        "step {step}"
    );
    for kind in KINDS {
        assert_eq!(o.objects_of_kind(kind), scan_kind(t, kind), "step {step}");
    }
    for &obj in objects {
        for rel in RELATIONS {
            assert_eq!(
                o.related(obj, rel),
                scan_related(t, obj, rel),
                "step {step}"
            );
            assert_eq!(
                o.related_to(obj, rel),
                scan_related_to(t, obj, rel),
                "step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_lookups_equal_scans(ops in proptest::collection::vec(arb_op(), 1..48)) {
        let mut o = Oosm::new();
        // Every id ever handed out, deleted ones included, so operations
        // and queries also probe objects that no longer exist.
        let mut objects: Vec<ObjectId> = Vec::new();
        let pick = |objects: &[ObjectId], i: usize| {
            if objects.is_empty() { ObjectId::new(i as u64) } else { objects[i % objects.len()] }
        };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Create(k) => objects.push(o.create_object(KINDS[k], "obj")),
                Op::Register(m) => {
                    let obj = o.register_machine(MachineId::new(m), "machine");
                    if !objects.contains(&obj) {
                        objects.push(obj);
                    }
                }
                Op::SetProperty(i, key, value) => {
                    let _ = o.set_property(pick(&objects, i), key, value);
                }
                Op::Relate(f, r, t) => {
                    let _ = o.relate(pick(&objects, f), RELATIONS[r], pick(&objects, t));
                }
                Op::Post(r, m) => objects.push(o.post_report(&report(r, m)).unwrap()),
                Op::Delete(i) => {
                    let _ = o.delete_object(pick(&objects, i));
                }
                Op::RoundTrip => {
                    let bytes = o.to_durable_bytes();
                    o = Oosm::from_durable_bytes(&bytes).unwrap();
                    prop_assert_eq!(o.to_durable_bytes(), bytes, "step {}", step);
                }
            }
            assert_lookups_match_scans(&o, &objects, step);
            // The lookups a decode rebuilds equal the ones the writes kept.
            let bytes = o.to_durable_bytes();
            let decoded = Oosm::from_durable_bytes(&bytes).unwrap();
            prop_assert_eq!(decoded.to_durable_bytes(), bytes, "step {}", step);
            assert_lookups_match_scans(&decoded, &objects, step);
        }
    }
}
