//! §4: the Object-Oriented Ship Model exercised as the paper describes —
//! physical hierarchy, relationships, persistence mapping, events, and
//! the §10.1 health rollup over it.

use mpros::core::{Belief, ConditionReport, MachineCondition, MachineId, ReportId, SimTime};
use mpros::network::NetMessage;
use mpros::oosm::{ObjectKind, Oosm, OosmEvent, Relation, Value};
use mpros::pdme::{health, PdmeExecutive};

/// Build the §4.3 model: ship → decks → A/C system → machines with
/// part-of, proximity and flow relations.
fn build_ship(oosm: &mut Oosm) -> (mpros::core::ObjectId, Vec<mpros::core::ObjectId>) {
    let ship = oosm.create_object(ObjectKind::Ship, "USNS Mercy");
    let deck = oosm.create_object(ObjectKind::Deck, "3rd deck");
    let system = oosm.create_object(ObjectKind::System, "chilled water system");
    oosm.relate(deck, Relation::PartOf, ship).unwrap();
    oosm.relate(system, Relation::PartOf, deck).unwrap();
    let names = ["motor", "compressor", "condenser", "evaporator", "chw pump"];
    let machines: Vec<_> = names
        .iter()
        .map(|n| {
            let m = oosm.create_object(ObjectKind::Machine, n);
            oosm.relate(m, Relation::PartOf, system).unwrap();
            m
        })
        .collect();
    oosm.relate(machines[0], Relation::ProximateTo, machines[1])
        .unwrap();
    oosm.relate(machines[1], Relation::FlowsTo, machines[2])
        .unwrap();
    oosm.relate(machines[2], Relation::FlowsTo, machines[3])
        .unwrap();
    (ship, machines)
}

#[test]
fn hierarchy_traverses_in_both_directions() {
    let mut oosm = Oosm::new();
    let (ship, machines) = build_ship(&mut oosm);
    // Downward: ship → deck → system → machines.
    let decks = oosm.related_to(ship, Relation::PartOf);
    assert_eq!(decks.len(), 1);
    let systems = oosm.related_to(decks[0], Relation::PartOf);
    assert_eq!(systems.len(), 1);
    assert_eq!(oosm.related_to(systems[0], Relation::PartOf).len(), 5);
    // Upward from any machine.
    assert_eq!(
        oosm.related(machines[0], Relation::PartOf),
        vec![systems[0]]
    );
    // Flow chain.
    assert_eq!(
        oosm.related(machines[1], Relation::FlowsTo),
        vec![machines[2]]
    );
    assert_eq!(
        oosm.related(machines[2], Relation::FlowsTo),
        vec![machines[3]]
    );
}

#[test]
fn persistence_mapping_is_observable() {
    // §4.6: "Object types are mapped to tables and properties and
    // relationships are mapped to columns and helper tables."
    let mut oosm = Oosm::new();
    let (_, machines) = build_ship(&mut oosm);
    for (i, &m) in machines.iter().enumerate() {
        oosm.set_property(m, "manufacturer", Value::Text("York".into()))
            .unwrap();
        oosm.set_property(m, "capacity_tons", Value::Float(150.0 + i as f64))
            .unwrap();
    }
    let store = oosm.store();
    assert_eq!(
        store.table_names(),
        vec!["objects", "properties", "relationships", "reports"]
    );
    assert_eq!(store.row_count("objects").unwrap(), 8); // ship+deck+system+5
    assert_eq!(store.row_count("properties").unwrap(), 10);
    assert_eq!(store.row_count("relationships").unwrap(), 10); // 7 part-of + 1 prox + 2 flow
    assert_eq!(store.row_count("reports").unwrap(), 0);

    // A report is its own object type, so it maps to its own table: one
    // object row, one typed `reports` row, its refers-to row and no
    // property rows.
    oosm.register_machine(MachineId::new(1), "motor");
    let tables = ["objects", "reports", "relationships", "properties"];
    let rows = |oosm: &Oosm| tables.map(|t| oosm.store().row_count(t).unwrap());
    let before = rows(&oosm);
    let report = ConditionReport::builder(
        MachineId::new(1),
        MachineCondition::MotorImbalance,
        Belief::new(0.7),
    )
    .id(ReportId::new(1))
    .build();
    let obj = oosm.post_report(&report).unwrap();
    let after = rows(&oosm);
    let added: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(added, [1, 1, 1, 0], "rows added to {tables:?}");
    // The column is read back as the report object's property.
    assert_eq!(oosm.property(obj, "belief"), Some(Value::Float(0.7)));
}

#[test]
fn common_properties_of_the_paper_roundtrip() {
    // §4.2: "Some common properties include name, manufacturer, energy
    // usage, capacity, and location."
    let mut oosm = Oosm::new();
    let m = oosm.create_object(ObjectKind::Machine, "A/C Compressor 1");
    oosm.set_property(m, "manufacturer", Value::Text("Carrier".into()))
        .unwrap();
    oosm.set_property(m, "energy_usage_kw", Value::Float(420.0))
        .unwrap();
    oosm.set_property(m, "capacity_tons", Value::Int(200))
        .unwrap();
    oosm.set_property(m, "location", Value::Text("3rd deck, frame 110".into()))
        .unwrap();
    let props = oosm.properties(m);
    assert_eq!(props.len(), 4);
    assert_eq!(
        oosm.property(m, "location"),
        Some(Value::Text("3rd deck, frame 110".into()))
    );
}

#[test]
fn events_fire_for_every_mutation_kind() {
    let mut oosm = Oosm::new();
    let sub = oosm.subscribe();
    let (_, machines) = build_ship(&mut oosm);
    oosm.set_property(machines[0], "rpm", Value::Float(3550.0))
        .unwrap();
    oosm.delete_object(machines[4]).unwrap();
    let events = sub.drain();
    let created = events
        .iter()
        .filter(|e| matches!(e, OosmEvent::ObjectCreated { .. }))
        .count();
    let related = events
        .iter()
        .filter(|e| matches!(e, OosmEvent::RelationAdded { .. }))
        .count();
    assert_eq!(created, 8);
    assert_eq!(related, 10);
    assert!(events
        .iter()
        .any(|e| matches!(e, OosmEvent::PropertyChanged { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, OosmEvent::ObjectDeleted { .. })));
}

#[test]
fn health_rollup_spans_the_full_hierarchy() {
    let mut pdme = PdmeExecutive::new();
    pdme.register_machine(MachineId::new(1), "chiller motor");
    let motor_obj = pdme.oosm().machine_object(MachineId::new(1)).unwrap();
    let ship = {
        let oosm = pdme.oosm_mut();
        let (ship, _) = build_ship(oosm);
        // Attach the registered machine under the same system.
        let system = oosm.find_by_name("chilled water system").unwrap();
        oosm.relate(motor_obj, Relation::PartOf, system).unwrap();
        ship
    };
    // Fault the registered machine.
    let r = ConditionReport::builder(
        MachineId::new(1),
        MachineCondition::GearToothWear,
        Belief::new(0.9),
    )
    .id(ReportId::new(1))
    .build();
    pdme.ingest(&[NetMessage::Report(r)], SimTime::ZERO)
        .unwrap();
    let tree = health::health_of(&pdme, ship);
    assert!(
        (tree.health - 0.1).abs() < 1e-6,
        "ship health {}",
        tree.health
    );
    // Four levels deep: ship → deck → system → machine.
    let rendered = health::render(&tree);
    assert!(
        rendered.contains("      chiller motor"),
        "render:\n{rendered}"
    );
}
