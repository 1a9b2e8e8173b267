//! The versioned, immutable serving snapshot.
//!
//! Built on the simulation's control thread after a step, then
//! published to the [`crate::server::Gateway`] by pointer swap. Every
//! field is an owned, deterministic product of the engine state the
//! parallel-determinism suite already pins byte-identical across
//! execution modes (the ICAS export, the fused prognostic curves, the
//! counter registry, the SLO verdict) — which is what lets the gateway
//! promise byte-identical responses for a fixed snapshot version no
//! matter how the simulation that produced it was scheduled.
//!
//! A publish costs in proportion to what changed since the previous
//! one. [`ServingSnapshot::build_after`] takes the previous snapshot
//! and shares, by `Arc`, every ICAS machine entry whose
//! [`Revision`] has not moved, and the whole prognostic list when the
//! engine's revision has not moved. `at_secs`, DC liveness and the SLO
//! verdict are copied fresh every time. The sim-domain series are read
//! by [`Telemetry::sim_series`] against `prev`'s: their names stay in
//! `prev`'s shared key table while no series has been registered since,
//! and only their values are read fresh. A from-scratch
//! [`ServingSnapshot::build`] is the same builder run against
//! [`ServingSnapshot::empty`], which has nothing to reuse. Nothing is
//! turned into owned wire rows on the step thread: `GetCounters`,
//! `GetMetrics` and the text exposition build them from the
//! [`SimSeries`] on the serving thread, and the exposition is rendered
//! on the first [`ServingSnapshot::exposition`] call for the version
//! (the first `GetMetrics`) and kept.

use crate::proto::{DeltaKind, GatewayRequest, GatewayResponse, StatusDelta};
use crate::serving::Published;
use mpros_core::{PrognosticVector, SimDuration, SimTime};
use mpros_pdme::icas::{export_dcs, export_machines, IcasMachine};
use mpros_pdme::{IcasSnapshot, PdmeExecutive, Revision};
use mpros_telemetry::{exposition, SimSeries, SloVerdict, Telemetry};
use std::sync::{Arc, OnceLock};

/// One fused prognostic curve, keyed for lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct PrognosticEntry {
    /// Raw machine id.
    pub machine_id: u64,
    /// Condition catalog index.
    pub condition_id: usize,
    /// The fused (conservative-envelope) curve.
    pub vector: PrognosticVector,
}

/// An immutable, epoch-stamped view of the fused shipboard state.
///
/// Construction reads the engine; serving reads only this. The
/// `version` is the publishing step's ordinal and is stamped onto every
/// response served from the snapshot. Equality compares the served
/// content only: not the revision stamps, the rebuild count, or whether
/// the exposition has been rendered yet.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServingSnapshot {
    /// Publishing epoch (the simulation step count at build time).
    pub version: u64,
    /// Simulated seconds at build time.
    pub at_secs: f64,
    /// The full ICAS interchange document.
    pub icas: IcasSnapshot,
    /// The SLO watchdog's verdict from the publishing step, if any.
    pub slo: Option<SloVerdict>,
    /// The sim-domain series: the counters and gauges of every
    /// component but `exec` (scheduling) and `gateway` (client
    /// traffic), and the histograms of simulated time, so what remains
    /// is a deterministic product of the seeded simulation
    /// ([`Telemetry::sim_series`]).
    pub series: SimSeries,
    /// Fused prognostic curves, sorted by `(machine_id, condition_id)`.
    /// Shared with the previous snapshot while the engine is unchanged.
    pub prognostics: Arc<[PrognosticEntry]>,
    /// The engine revision `icas.machines` and `prognostics` show.
    revision: Revision,
    /// Each ICAS machine entry's revision, index for index.
    machine_revisions: Vec<Revision>,
    /// ICAS machine entries this build made fresh.
    rebuilt_machines: usize,
    /// The text exposition, rendered on first use.
    exposition: OnceLock<String>,
}

impl PartialEq for ServingSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.at_secs == other.at_secs
            && self.icas == other.icas
            && self.slo == other.slo
            && self.series == other.series
            && self.prognostics == other.prognostics
    }
}

impl ServingSnapshot {
    /// An empty pre-publication snapshot (version 0, nothing known).
    /// Gateways serve this until the first real publish.
    pub fn empty() -> Self {
        ServingSnapshot {
            version: 0,
            at_secs: 0.0,
            icas: IcasSnapshot {
                schema_version: mpros_pdme::icas::ICAS_SCHEMA_VERSION,
                at_secs: 0.0,
                machines: Vec::new(),
                data_concentrators: Vec::new(),
            },
            slo: None,
            series: SimSeries::default(),
            prognostics: Arc::new([]),
            revision: Revision::default(),
            machine_revisions: Vec::new(),
            rebuilt_machines: 0,
            exposition: OnceLock::new(),
        }
    }

    /// Build a snapshot of `pdme` as of `now`, stamped `version`, from
    /// scratch: [`Self::build_after`] against [`Self::empty`].
    pub fn build(
        version: u64,
        now: SimTime,
        pdme: &PdmeExecutive,
        dc_timeout: SimDuration,
        slo: Option<&SloVerdict>,
        telemetry: &Telemetry,
    ) -> Self {
        Self::build_after(
            &ServingSnapshot::empty(),
            version,
            now,
            pdme,
            dc_timeout,
            slo,
            telemetry,
        )
    }

    /// Build the snapshot that follows `prev`: a snapshot of `pdme` as
    /// of `now`, stamped `version`, that shares every part of `prev`
    /// the engine has not changed since (see the module docs). Equal to
    /// a from-scratch [`Self::build`] of the same engine state.
    ///
    /// Runs on the control thread between steps (the engine is quiet),
    /// so plain `&` reads are race-free; nothing is shared with the
    /// live engine.
    pub fn build_after(
        prev: &ServingSnapshot,
        version: u64,
        now: SimTime,
        pdme: &PdmeExecutive,
        dc_timeout: SimDuration,
        slo: Option<&SloVerdict>,
        telemetry: &Telemetry,
    ) -> Self {
        let revision = pdme.revision();
        let (machines, machine_revisions, prognostics, rebuilt_machines) =
            if revision == prev.revision {
                (
                    prev.icas.machines.clone(),
                    prev.machine_revisions.clone(),
                    Arc::clone(&prev.prognostics),
                    0,
                )
            } else {
                let list = pdme.maintenance_list();
                let mut reused = 0;
                let (machines, machine_revisions): (Vec<_>, Vec<_>) =
                    export_machines(pdme, &list, |machine, at| {
                        let entry = prev.entry_at(machine.raw(), at)?;
                        reused += 1;
                        Some(entry)
                    })
                    .into_iter()
                    .unzip();
                let mut prognostics: Vec<PrognosticEntry> = list
                    .into_iter()
                    .map(|item| PrognosticEntry {
                        machine_id: item.machine.raw(),
                        condition_id: item.condition.index(),
                        vector: item.prognostic,
                    })
                    .collect();
                prognostics.sort_by_key(|e| (e.machine_id, e.condition_id));
                let rebuilt = machines.len() - reused;
                (machines, machine_revisions, prognostics.into(), rebuilt)
            };
        let data_concentrators = export_dcs(pdme, now, dc_timeout);
        ServingSnapshot {
            version,
            at_secs: now.as_secs(),
            icas: IcasSnapshot {
                schema_version: mpros_pdme::icas::ICAS_SCHEMA_VERSION,
                at_secs: now.as_secs(),
                machines,
                data_concentrators,
            },
            slo: slo.cloned(),
            series: telemetry.sim_series(&prev.series),
            prognostics,
            revision,
            machine_revisions,
            rebuilt_machines,
            exposition: OnceLock::new(),
        }
    }

    /// ICAS machine entries this build made fresh rather than sharing
    /// with the previous snapshot: 0 on a step that changed nothing,
    /// every entry for a from-scratch [`Self::build`].
    pub fn rebuilt_machines(&self) -> usize {
        self.rebuilt_machines
    }

    /// Prometheus-style text exposition of `series`. Rendered on the
    /// first call and kept, so every `GetMetrics` answer for one
    /// snapshot version is the same bytes and the step thread never
    /// pays for it.
    pub fn exposition(&self) -> &str {
        self.exposition.get_or_init(|| {
            let s = &self.series;
            exposition::render(&s.counters(), &s.gauges(), &s.histograms())
        })
    }

    /// The machine's ICAS entry, if it exists.
    pub fn machine(&self, machine_id: u64) -> Option<&IcasMachine> {
        self.machine_index(machine_id)
            .map(|i| &*self.icas.machines[i])
    }

    /// Position of the machine's entry in the (ascending) ICAS list.
    fn machine_index(&self, machine_id: u64) -> Option<usize> {
        self.icas
            .machines
            .binary_search_by_key(&machine_id, |m| m.machine_id)
            .ok()
    }

    /// The machine's entry, if this snapshot built it at revision `at`.
    fn entry_at(&self, machine_id: u64, at: Revision) -> Option<Arc<IcasMachine>> {
        let i = self.machine_index(machine_id)?;
        (self.machine_revisions.get(i) == Some(&at)).then(|| Arc::clone(&self.icas.machines[i]))
    }

    /// The fused prognostic curve for `(machine_id, condition_id)`.
    pub fn prognostic(&self, machine_id: u64, condition_id: usize) -> Option<&PrognosticVector> {
        self.prognostics
            .binary_search_by_key(&(machine_id, condition_id), |e| {
                (e.machine_id, e.condition_id)
            })
            .ok()
            .map(|i| &self.prognostics[i].vector)
    }
}

impl Published for ServingSnapshot {
    type Request = GatewayRequest;
    type Response = GatewayResponse;
    type Delta = StatusDelta;

    fn version(&self) -> u64 {
        self.version
    }

    fn at_secs(&self) -> f64 {
        self.at_secs
    }

    /// The edge-triggered supervision deltas between `prev` and `self`:
    /// one [`StatusDelta`] per machine whose ICAS `status` flipped
    /// between `"ok"` and `"degraded"` across the two snapshots, in
    /// ascending machine-id order. Machines absent from `prev` only
    /// produce a delta when they arrive already degraded.
    fn deltas_since(&self, prev: &ServingSnapshot) -> Vec<StatusDelta> {
        let mut out = Vec::new();
        for machine in &self.icas.machines {
            let before = prev
                .machine_index(machine.machine_id)
                .map(|i| &prev.icas.machines[i]);
            if before.is_some_and(|m| Arc::ptr_eq(m, machine)) {
                continue;
            }
            let was_degraded = before.is_some_and(|m| m.status == "degraded");
            let is_degraded = machine.status == "degraded";
            if was_degraded == is_degraded {
                continue;
            }
            out.push(StatusDelta {
                snapshot_version: self.version,
                at_secs: self.at_secs,
                machine_id: machine.machine_id,
                kind: if is_degraded {
                    DeltaKind::Degraded
                } else {
                    DeltaKind::Recovered
                },
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{
        Belief, ConditionReport, DcId, MachineCondition, MachineId, PrognosticVector, ReportId,
    };
    use mpros_network::NetMessage;
    use mpros_telemetry::Instrumented;

    fn timeout() -> SimDuration {
        SimDuration::from_secs(60.0)
    }

    fn report(id: u64, machine: u64) -> NetMessage {
        NetMessage::Report(
            ConditionReport::builder(
                MachineId::new(machine),
                MachineCondition::MotorBearingDefect,
                Belief::new(0.7),
            )
            .id(ReportId::new(id))
            .dc(DcId::new(machine))
            .severity(0.5)
            .prognostic(PrognosticVector::from_months(&[(1.0, 0.6)]).unwrap())
            .build(),
        )
    }

    /// Three machines, one with a fused report.
    fn engine() -> PdmeExecutive {
        let mut p = PdmeExecutive::new();
        for m in 1..=3 {
            p.register_machine(MachineId::new(m), &format!("chiller {m}"));
        }
        p.ingest(&[report(1, 1)], SimTime::from_secs(1.0)).unwrap();
        p
    }

    fn build_after(prev: &ServingSnapshot, version: u64, pdme: &PdmeExecutive) -> ServingSnapshot {
        let now = SimTime::from_secs(version as f64);
        ServingSnapshot::build_after(prev, version, now, pdme, timeout(), None, pdme.telemetry())
    }

    fn shared(a: &ServingSnapshot, b: &ServingSnapshot) -> Vec<bool> {
        a.icas
            .machines
            .iter()
            .zip(&b.icas.machines)
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect()
    }

    #[test]
    fn an_unchanged_engine_shares_every_entry_with_the_previous_build() {
        let p = engine();
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        assert_eq!(first.rebuilt_machines(), 3, "nothing to reuse in empty()");
        let second = build_after(&first, 2, &p);
        assert_eq!(second.rebuilt_machines(), 0);
        assert_eq!(shared(&first, &second), vec![true; 3]);
        assert!(Arc::ptr_eq(&first.prognostics, &second.prognostics));
        // Shared, and still what a fresh build serves.
        let scratch = ServingSnapshot::build(
            2,
            SimTime::from_secs(2.0),
            &p,
            timeout(),
            None,
            p.telemetry(),
        );
        assert_eq!(scratch.rebuilt_machines(), 3);
        assert_eq!(second, scratch);
    }

    #[test]
    fn quiet_publishes_share_one_key_table() {
        let p = engine();
        let sent = p.telemetry().counter("net", "sent");
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        sent.add(5);
        let second = build_after(&first, 2, &p);
        let third = build_after(&second, 3, &p);
        assert!(second.series.shares_keys_with(&first.series));
        assert!(third.series.shares_keys_with(&first.series));
        assert_ne!(second.series, first.series, "values are read fresh");
        let sent = |s: &ServingSnapshot| {
            s.series
                .counter_values()
                .find(|&(c, n, _)| (c, n) == ("net", "sent"))
                .map(|(_, _, v)| v)
        };
        assert_eq!((sent(&first), sent(&second)), (Some(0), Some(5)));
    }

    #[test]
    fn a_series_registered_between_publishes_is_in_the_next() {
        let p = engine();
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        p.telemetry().counter("net", "late").add(2);
        p.telemetry().histogram("net", "late_latency_s").record(0.5);
        let second = build_after(&first, 2, &p);
        assert!(!second.series.shares_keys_with(&first.series));
        assert!(second
            .series
            .counter_values()
            .any(|c| c == ("net", "late", 2)));
        assert!(second
            .series
            .histograms()
            .iter()
            .any(|h| h.name == "late_latency_s" && h.count == 1));
        let scratch = ServingSnapshot::build(
            2,
            SimTime::from_secs(2.0),
            &p,
            timeout(),
            None,
            p.telemetry(),
        );
        assert_eq!(second, scratch);
        let third = build_after(&second, 3, &p);
        assert!(third.series.shares_keys_with(&second.series));
    }

    #[test]
    fn a_report_rebuilds_only_its_machine() {
        let mut p = engine();
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        p.ingest(&[report(2, 2)], SimTime::from_secs(2.0)).unwrap();
        let second = build_after(&first, 2, &p);
        assert_eq!(second.rebuilt_machines(), 1);
        assert_eq!(shared(&first, &second), vec![true, false, true]);
        assert_eq!(second.machine(2).unwrap().report_count, 1);
        assert!(!Arc::ptr_eq(&first.prognostics, &second.prognostics));
        assert!(second
            .prognostic(2, MachineCondition::MotorBearingDefect.index())
            .is_some());
    }

    #[test]
    fn a_report_that_surfaces_no_belief_still_rebuilds_its_machine() {
        let mut p = engine();
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        let silent = ConditionReport::builder(
            MachineId::new(3),
            MachineCondition::MotorImbalance,
            Belief::new(0.0),
        )
        .id(ReportId::new(2))
        .dc(DcId::new(3))
        .build();
        p.ingest(&[NetMessage::Report(silent)], SimTime::from_secs(2.0))
            .unwrap();
        let second = build_after(&first, 2, &p);
        assert!(second.machine(3).unwrap().conditions.is_empty());
        assert_eq!(second.machine(3).unwrap().report_count, 1);
        assert_eq!(shared(&first, &second), vec![true, true, false]);
    }

    #[test]
    fn a_restored_engine_reuses_nothing() {
        let p = engine();
        let first = build_after(&ServingSnapshot::empty(), 1, &p);
        let restored = PdmeExecutive::from_snapshot_bytes(&p.snapshot_bytes()).unwrap();
        let second = build_after(&first, 2, &restored);
        assert_eq!(second.rebuilt_machines(), 3);
        assert_eq!(shared(&first, &second), vec![false; 3]);
        assert_eq!(second.icas.machines, first.icas.machines, "same content");
    }

    #[test]
    fn the_exposition_renders_on_first_use_and_equality_ignores_it() {
        let p = engine();
        let snapshot = build_after(&ServingSnapshot::empty(), 1, &p);
        let untouched = snapshot.clone();
        assert_eq!(
            snapshot.exposition(),
            exposition::render(
                &snapshot.series.counters(),
                &snapshot.series.gauges(),
                &snapshot.series.histograms()
            )
        );
        assert!(!snapshot.exposition().is_empty());
        assert_eq!(snapshot, untouched, "rendering moves no served content");
    }

    #[test]
    fn lookups_find_entries_in_the_sorted_lists() {
        let mut p = engine();
        p.ingest(&[report(2, 3)], SimTime::from_secs(2.0)).unwrap();
        let snapshot = build_after(&ServingSnapshot::empty(), 1, &p);
        for m in 1..=3 {
            assert_eq!(snapshot.machine(m).unwrap().machine_id, m);
        }
        assert!(snapshot.machine(4).is_none());
        let bearing = MachineCondition::MotorBearingDefect.index();
        assert!(snapshot.prognostic(1, bearing).is_some());
        assert!(snapshot.prognostic(2, bearing).is_none());
        assert!(snapshot.prognostic(3, bearing).is_some());
    }
}
