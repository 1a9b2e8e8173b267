//! The report repository.
//!
//! §4.1: the OOSM "also serves as a repository of diagnostic conclusions
//! – both those of the individual algorithms and those reached by KF."
//! §4.6 maps object types to tables, and reports, the object type that
//! fills the store, get their own: a posted report is one
//! [`ObjectKind::Report`] object, one row of the typed `reports` table
//! and a `refers-to` relationship to the machine object it concerns
//! (when that machine is registered). The row is
//! `(object_id, report_id, machine_id, condition, belief, severity,
//! timestamp, payload)`: `object_id` is its primary key, the ids and the
//! condition index are `Int`, belief, severity and timestamp (seconds)
//! are `Float`, and `payload` is the report's full §7.2 JSON, stored
//! once. A report has no `properties` rows, yet [`Oosm::property`] and
//! [`Oosm::properties`] answer the seven typed columns from the row, and
//! a posted report never changes: [`Oosm::set_property`] refuses a typed
//! column on any report object.
//!
//! Posting publishes [`OosmEvent::ObjectCreated`],
//! [`OosmEvent::RelationAdded`] (registered machine only) and
//! [`OosmEvent::ReportPosted`] to any subscriber, and no per-column
//! [`OosmEvent::PropertyChanged`]. The `ReportPosted` event carries the
//! posted report, which equals what [`Oosm::report_payload`] decodes
//! from the store because only reports whose every float is finite are
//! accepted. The PDME fuses the report it posted directly, on the same
//! invariant.
//!
//! The id lookups here (`machine_object`, `report_object`,
//! `reports_for_machine`, `report_count_for`) read the tables' id maps
//! rather than scanning reports, so their cost does not grow with the
//! stored history.

use crate::events::OosmEvent;
use crate::model::{ObjectKind, Oosm, Relation};
use crate::tables::{Report, Value};
use mpros_core::{ConditionReport, Error, MachineId, ObjectId, ReportId, Result};
use mpros_telemetry::{Stage, WallTimer};
use std::sync::Arc;

/// The columns of the typed `reports` table. `object_id` names the
/// report object; the other seven are the report's typed columns, read
/// as properties of the report object.
pub(crate) const REPORT_COLUMNS: [&str; 8] = [
    "object_id",
    "report_id",
    "machine_id",
    "condition",
    "belief",
    "severity",
    "timestamp",
    "payload",
];

/// The `reports` column holding property `key` of a posted report.
pub(crate) fn report_column(key: &str) -> Option<usize> {
    REPORT_COLUMNS
        .iter()
        .skip(1)
        .position(|&c| c == key)
        .map(|i| i + 1)
}

/// Report-repository operations on the OOSM.
impl Oosm {
    /// Register a machine object for a machine id, so reports can be
    /// linked to it. Returns the OOSM object. Idempotent per id.
    pub fn register_machine(&mut self, machine: MachineId, name: &str) -> ObjectId {
        if let Some(existing) = self.machine_object(machine) {
            return existing;
        }
        let obj = self.create_object(ObjectKind::Machine, name);
        let id = Value::Int(machine.raw() as i64);
        self.write_property(obj, ObjectKind::Machine, "machine_id", id);
        obj
    }

    /// The OOSM object registered for a machine id (the lowest id if
    /// several machine objects hold it).
    pub fn machine_object(&self, machine: MachineId) -> Option<ObjectId> {
        self.tables
            .machine_objects(machine.raw() as i64)
            .first()
            .copied()
    }

    /// Post a failure-prediction report (§5.1 step 1: "New reports
    /// arriving to the PDME are posted in the OOSM") as one report
    /// object with its typed `reports` row. Returns the report object.
    /// Publishes [`OosmEvent::ReportPosted`].
    ///
    /// A report with a non-finite float (timestamp, belief, severity or
    /// a prognostic point) is refused with [`Error::InvalidInput`]
    /// before any object is created: JSON stores it as `null`, so the
    /// stored payload could not be decoded back into the posted report.
    pub fn post_report(&mut self, report: &ConditionReport) -> Result<ObjectId> {
        let timer = WallTimer::start();
        if let Some(field) = non_finite_field(report) {
            return Err(Error::invalid(format!(
                "report {} has a non-finite {field}",
                report.id.raw()
            )));
        }
        let json = serde_json::to_string(report)
            .map_err(|e| Error::Encoding(format!("report serialization: {e}")))?;
        let obj = self.create_object(ObjectKind::Report, &format!("report-{}", report.id.raw()));
        self.tables.insert_report(Report {
            object: obj,
            report_id: report.id.raw() as i64,
            machine_id: report.machine.raw() as i64,
            condition: report.condition.index() as i64,
            belief: report.belief.value(),
            severity: report.severity.value(),
            timestamp: report.timestamp.as_secs(),
            payload: json,
        });
        if let Some(machine_obj) = self.machine_object(report.machine) {
            self.relate(obj, Relation::RefersTo, machine_obj)?;
        }
        self.publish(|| OosmEvent::ReportPosted {
            report: Arc::new(report.clone()),
            object: obj,
        });
        self.metrics.reports_posted.inc();
        self.telemetry()
            .record_span_wall(Stage::OosmPost, timer.elapsed());
        Ok(obj)
    }

    /// Decode the report stored in a report object.
    pub fn report_payload(&self, object: ObjectId) -> Result<ConditionReport> {
        let json = self
            .property(object, "payload")
            .and_then(|v| v.as_text().map(str::to_string))
            .ok_or_else(|| Error::not_found(format!("report payload on {object}")))?;
        serde_json::from_str(&json)
            .map_err(|e| Error::Encoding(format!("report deserialization: {e}")))
    }

    /// Find the report object holding a report id (the lowest id if
    /// several report objects hold it).
    pub fn report_object(&self, report: ReportId) -> Option<ObjectId> {
        self.tables
            .report_objects(report.raw() as i64)
            .first()
            .copied()
    }

    /// All reports concerning a machine, in posting order.
    pub fn reports_for_machine(&self, machine: MachineId) -> Vec<ConditionReport> {
        self.report_objects_for(machine)
            .iter()
            .filter_map(|&o| self.report_payload(o).ok())
            .collect()
    }

    /// Number of report objects whose `machine_id` is `machine`, without
    /// decoding their payloads. For reports stored by
    /// [`Oosm::post_report`] this is the length of
    /// [`Oosm::reports_for_machine`].
    pub fn report_count_for(&self, machine: MachineId) -> usize {
        self.report_objects_for(machine).len()
    }

    /// Report objects whose `machine_id` is `machine`, ascending.
    fn report_objects_for(&self, machine: MachineId) -> &[ObjectId] {
        self.tables.machine_reports(machine.raw() as i64)
    }

    /// Total number of stored reports.
    pub fn report_count(&self) -> usize {
        self.tables.objects_of_kind(ObjectKind::Report).len()
    }
}

/// The first field of `report` holding a NaN or infinite float.
fn non_finite_field(report: &ConditionReport) -> Option<&'static str> {
    if !report.timestamp.as_secs().is_finite() {
        return Some("timestamp");
    }
    if !report.belief.value().is_finite() {
        return Some("belief");
    }
    if !report.severity.value().is_finite() {
        return Some("severity");
    }
    report
        .prognostic
        .points()
        .iter()
        .any(|p| !p.horizon.as_secs().is_finite() || !p.probability.value().is_finite())
        .then_some("prognostic point")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{
        Belief, DcId, KnowledgeSourceId, MachineCondition, PrognosticPoint, PrognosticVector,
        SimDuration, SimTime,
    };
    use proptest::prelude::*;

    fn report(id: u64, machine: u64, belief: f64) -> ConditionReport {
        ConditionReport::builder(
            MachineId::new(machine),
            MachineCondition::MotorImbalance,
            Belief::new(belief),
        )
        .id(ReportId::new(id))
        .timestamp(SimTime::from_secs(id as f64))
        .prognostic(PrognosticVector::from_months(&[(2.0, 0.5)]).unwrap())
        .build()
    }

    #[test]
    fn post_and_fetch_roundtrip() {
        let mut o = Oosm::new();
        o.register_machine(MachineId::new(1), "motor 1");
        let obj = o.post_report(&report(10, 1, 0.7)).unwrap();
        let back = o.report_payload(obj).unwrap();
        assert_eq!(back.id, ReportId::new(10));
        assert_eq!(back.belief.value(), 0.7);
        assert!(back.has_prognostic());
        assert_eq!(o.report_count(), 1);
    }

    #[test]
    fn posted_report_links_to_machine_object() {
        let mut o = Oosm::new();
        let m = o.register_machine(MachineId::new(1), "motor 1");
        let obj = o.post_report(&report(1, 1, 0.5)).unwrap();
        assert_eq!(o.related(obj, Relation::RefersTo), vec![m]);
        // Reverse traversal: which reports refer to this machine?
        assert_eq!(o.related_to(m, Relation::RefersTo), vec![obj]);
    }

    #[test]
    fn report_without_registered_machine_still_posts() {
        let mut o = Oosm::new();
        let obj = o.post_report(&report(1, 42, 0.5)).unwrap();
        assert!(o.related(obj, Relation::RefersTo).is_empty());
        assert_eq!(o.reports_for_machine(MachineId::new(42)).len(), 1);
    }

    #[test]
    fn register_machine_is_idempotent() {
        let mut o = Oosm::new();
        let a = o.register_machine(MachineId::new(3), "pump");
        let b = o.register_machine(MachineId::new(3), "pump again");
        assert_eq!(a, b);
        assert_eq!(o.objects_of_kind(ObjectKind::Machine).len(), 1);
    }

    #[test]
    fn reports_filtered_per_machine_in_order() {
        let mut o = Oosm::new();
        o.post_report(&report(1, 1, 0.3)).unwrap();
        o.post_report(&report(2, 2, 0.4)).unwrap();
        o.post_report(&report(3, 1, 0.5)).unwrap();
        let for_m1 = o.reports_for_machine(MachineId::new(1));
        assert_eq!(for_m1.len(), 2);
        assert_eq!(for_m1[0].id, ReportId::new(1));
        assert_eq!(for_m1[1].id, ReportId::new(3));
    }

    #[test]
    fn posting_publishes_the_kf_event() {
        let mut o = Oosm::new();
        let sub = o.subscribe();
        o.post_report(&report(7, 1, 0.6)).unwrap();
        let events = sub.drain();
        let posted = events
            .iter()
            .filter(|e| matches!(e, OosmEvent::ReportPosted { .. }))
            .count();
        assert_eq!(posted, 1);
        if let Some(OosmEvent::ReportPosted { report, .. }) = events.last() {
            assert_eq!(report.id, ReportId::new(7));
        } else {
            panic!("ReportPosted must be the final event");
        }
    }

    #[test]
    fn a_report_is_one_typed_row_read_as_seven_properties() {
        let mut o = Oosm::new();
        let machine = o.register_machine(MachineId::new(1), "motor 1");
        let properties = o.store().row_count("properties").unwrap();
        let r = report(10, 1, 0.7);
        let obj = o.post_report(&r).unwrap();
        assert_eq!(o.store().row_count("properties").unwrap(), properties);
        assert_eq!(o.store().row_count("reports").unwrap(), 1);
        assert_eq!(o.related(obj, Relation::RefersTo), vec![machine]);
        let props = o.properties(obj);
        let keys: Vec<&str> = props.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "belief",
                "condition",
                "machine_id",
                "payload",
                "report_id",
                "severity",
                "timestamp"
            ]
        );
        let json = serde_json::to_string(&r).unwrap();
        for (key, value) in [
            ("report_id", Value::Int(10)),
            ("machine_id", Value::Int(1)),
            ("condition", Value::Int(r.condition.index() as i64)),
            ("belief", Value::Float(0.7)),
            ("severity", Value::Float(r.severity.value())),
            ("timestamp", Value::Float(10.0)),
            ("payload", Value::Text(json)),
        ] {
            assert_eq!(o.property(obj, key), Some(value.clone()), "{key}");
            assert!(props.contains(&(key.to_string(), value)), "{key}");
        }
    }

    #[test]
    fn a_posted_report_never_changes_but_takes_other_properties() {
        let mut o = Oosm::new();
        let obj = o.post_report(&report(3, 1, 0.5)).unwrap();
        for key in &REPORT_COLUMNS[1..] {
            assert!(
                matches!(
                    o.set_property(obj, key, Value::Int(0)),
                    Err(Error::InvalidInput(_))
                ),
                "{key}"
            );
        }
        assert_eq!(o.property(obj, "report_id"), Some(Value::Int(3)));
        o.set_property(obj, "reviewed", Value::Bool(true)).unwrap();
        assert_eq!(o.property(obj, "reviewed"), Some(Value::Bool(true)));
        assert_eq!(o.properties(obj).len(), 8);
        // Only `post_report` writes a typed column, on any report object.
        let draft = o.create_object(ObjectKind::Report, "draft");
        assert!(matches!(
            o.set_property(draft, "belief", Value::Float(0.2)),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn deleting_a_report_removes_its_typed_row_and_ids() {
        let mut o = Oosm::new();
        o.register_machine(MachineId::new(1), "motor 1");
        let obj = o.post_report(&report(4, 1, 0.5)).unwrap();
        o.delete_object(obj).unwrap();
        assert_eq!(o.store().row_count("reports").unwrap(), 0);
        assert_eq!(o.store().row_count("relationships").unwrap(), 0);
        assert_eq!(o.property(obj, "belief"), None);
        assert!(o.properties(obj).is_empty());
        assert_eq!(o.report_object(ReportId::new(4)), None);
        assert!(o.reports_for_machine(MachineId::new(1)).is_empty());
    }

    #[test]
    fn posting_emits_no_per_column_property_events() {
        let mut o = Oosm::new();
        let machine = o.register_machine(MachineId::new(1), "motor 1");
        let sub = o.subscribe();
        let obj = o.post_report(&report(5, 1, 0.5)).unwrap();
        let events = sub.drain();
        assert_eq!(events.len(), 3, "{events:?}");
        assert_eq!(
            events[0],
            OosmEvent::ObjectCreated {
                object: obj,
                kind: ObjectKind::Report
            }
        );
        assert_eq!(
            events[1],
            OosmEvent::RelationAdded {
                from: obj,
                relation: Relation::RefersTo,
                to: machine
            }
        );
        assert!(matches!(&events[2], OosmEvent::ReportPosted { object, .. } if *object == obj));
    }

    #[test]
    fn non_finite_report_is_refused_before_any_object_exists() {
        // Overflowing arithmetic reaches the values the constructors
        // refuse: +inf, and inf - inf = NaN.
        let inf_horizon = SimDuration::from_secs(f64::MAX) * 2.0;
        let nan_time = SimTime::ZERO + inf_horizon - inf_horizon;
        assert!(nan_time.as_secs().is_nan() && inf_horizon.as_secs().is_infinite());
        let mut late = report(1, 1, 0.5);
        late.timestamp = nan_time;
        let mut endless = report(2, 1, 0.5);
        endless.prognostic =
            PrognosticVector::new(vec![PrognosticPoint::new(inf_horizon, 0.5)]).unwrap();
        let mut o = Oosm::new();
        let sub = o.subscribe();
        for bad in [late, endless] {
            assert!(matches!(o.post_report(&bad), Err(Error::InvalidInput(_))));
        }
        assert_eq!(o.report_count(), 0);
        assert!(sub.drain().is_empty(), "nothing was created or published");
    }

    /// A finite `f64` from an arbitrary bit pattern, with the edge
    /// values (signed zero, subnormals, huge integers) drawn often.
    fn finite_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..=u64::MAX).prop_map(|bits| {
                let x = f64::from_bits(bits);
                if x.is_finite() {
                    x
                } else {
                    bits as f64
                }
            }),
            Just(-0.0),
            Just(5e-324),
            Just(1e300),
            0.0..1e6f64,
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                0u32..0x80,
                0x80u32..0xD800,
                0xE000u32..0x11_0000,
                Just('"' as u32),
                Just('\\' as u32)
            ],
            0..12,
        )
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
    }

    fn arbitrary_report() -> impl Strategy<Value = ConditionReport> {
        (
            (
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                0u64..=u64::MAX,
            ),
            (
                0usize..MachineCondition::ALL.len(),
                0.0..=1.0f64,
                0.0..=1.0f64,
            ),
            finite_f64(),
            (text(), text(), text()),
            proptest::collection::vec((finite_f64(), 0.0..=1.0f64), 0..4),
        )
            .prop_map(
                |((id, dc, ks, machine), (cond, belief, severity), t, strings, points)| {
                    let mut horizons: Vec<f64> = points.iter().map(|p| p.0.abs()).collect();
                    horizons.retain(|h| *h > 0.0);
                    horizons.sort_by(f64::total_cmp);
                    horizons.dedup();
                    let mut probs: Vec<f64> = points.iter().map(|p| p.1).collect();
                    probs.sort_by(f64::total_cmp);
                    let prognostic = PrognosticVector::new(
                        horizons
                            .iter()
                            .zip(&probs)
                            .map(|(&h, &p)| PrognosticPoint::new(SimDuration::from_secs(h), p))
                            .collect(),
                    )
                    .expect("sorted positive horizons, non-decreasing probabilities");
                    ConditionReport::builder(
                        MachineId::new(machine),
                        MachineCondition::ALL[cond],
                        Belief::new(belief),
                    )
                    .id(ReportId::new(id))
                    .dc(DcId::new(dc))
                    .knowledge_source(KnowledgeSourceId::new(ks))
                    .severity(severity)
                    .timestamp(SimTime::from_secs(t))
                    .explanation(strings.0)
                    .recommendation(strings.1)
                    .additional_info(strings.2)
                    .prognostic(prognostic)
                    .build()
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The invariant fusion on the posted report rests on: what the
        /// store decodes is exactly what was posted.
        #[test]
        fn stored_payload_decodes_to_the_posted_report(r in arbitrary_report()) {
            let mut o = Oosm::new();
            let obj = o.post_report(&r).unwrap();
            prop_assert_eq!(o.report_payload(obj).unwrap(), r);
        }
    }

    #[test]
    fn report_object_lookup() {
        let mut o = Oosm::new();
        let obj = o.post_report(&report(5, 1, 0.5)).unwrap();
        assert_eq!(o.report_object(ReportId::new(5)), Some(obj));
        assert_eq!(o.report_object(ReportId::new(99)), None);
    }
}
