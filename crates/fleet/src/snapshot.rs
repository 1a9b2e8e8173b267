//! The versioned, immutable fleet snapshot and its knowledge rollup.
//!
//! Built on the fleet's control thread after every shard has stepped,
//! in ascending ship-id order (the deterministic shard merge), then
//! published to the [`crate::FleetGateway`] by pointer swap. Each ship
//! contributes its already-deterministic [`ServingSnapshot`] — pinned
//! as an `Arc`, never rebuilt — so the fleet snapshot inherits the
//! per-ship byte-identity guarantees wholesale and adds only the
//! rollup, itself a pure fold over the pinned ship states. A publish
//! folds only what moved: the census and the prognostic envelopes of
//! the previous fleet snapshot are shared by `Arc` while every
//! available ship still pins the same machine entries and prognostic
//! list. The rest of the rollup is left to the serving thread: the
//! first `GetFleetRollup` of a version folds the counter sums and keeps
//! them, and each answer assembles the served [`FleetRollup`] from the
//! pinned ships, the shared census and the kept sums. An answer copies
//! the rollup onto the wire either way, so assembling it there costs
//! the step thread nothing.

use crate::proto::{FleetRequest, FleetResponse, ShipDelta};
use mpros_core::{PrognosticVector, Result};
use mpros_fusion::fuse_prognostics;
use mpros_gateway::{Published, ServingSnapshot};
use mpros_telemetry::CounterSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One shard's contribution to a [`FleetSnapshot`].
#[derive(Debug, Clone)]
pub struct ShipEntry {
    /// The shard's ship id (its index at fleet construction).
    pub ship_id: u64,
    /// False while the shard is crashed/crash-restoring; an
    /// unavailable ship keeps its last pinned snapshot but is excluded
    /// from the rollup's fusion and listed as `shard_unavailable`.
    pub available: bool,
    /// The ship's serving snapshot, pinned at fleet-publish time.
    pub snapshot: Arc<ServingSnapshot>,
}

/// One machine class in the fleet census: the same machine id across
/// every available ship, rolled up worst-status-wins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMachine {
    /// Raw machine id (the same id names the same machine class on
    /// every ship of the fleet).
    pub machine_id: u64,
    /// Ship-model name (identical across ships by construction).
    pub name: String,
    /// Ships whose ICAS reports this machine, ascending.
    pub ships: Vec<u64>,
    /// Worst status across ships: `degraded` if *any* ship's instance
    /// is degraded, else `ok`.
    pub status: String,
    /// Minimum (worst) rolled-up health across ships.
    pub health: f64,
    /// Ships whose instance is currently degraded, ascending.
    pub degraded_ships: Vec<u64>,
}

/// One fleet-fused prognostic curve: the §5.4 conservative envelope
/// taken across every available ship's fused curve for the same
/// `(machine class, condition)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPrognostic {
    /// Raw machine id (machine class).
    pub machine_id: u64,
    /// Condition catalog index.
    pub condition_id: usize,
    /// Ships contributing a curve, ascending.
    pub ships: Vec<u64>,
    /// The across-ships conservative-envelope curve.
    pub vector: PrognosticVector,
}

/// The fleet's SLO verdict: pass iff every *available* ship's own
/// watchdog passes. Unavailable ships cannot vouch for their
/// objectives and are listed separately rather than silently assumed
/// healthy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSloVerdict {
    /// Whether every available ship with a verdict passes.
    pub pass: bool,
    /// Available ships whose last verdict failed, ascending.
    pub failing_ships: Vec<u64>,
    /// Ships excluded from the verdict as `shard_unavailable`.
    pub unavailable_ships: Vec<u64>,
}

/// The fleet-wide knowledge rollup: a pure fold over the available
/// ships' pinned serving snapshots, as served by `GetFleetRollup`
/// ([`FleetSnapshot::rollup`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRollup {
    /// Total shards in the fleet.
    pub ship_count: usize,
    /// Ships contributing to this rollup, ascending.
    pub available_ships: Vec<u64>,
    /// Crashed/crash-restoring ships (`shard_unavailable`), ascending.
    pub unavailable_ships: Vec<u64>,
    /// Machine census, worst-status-wins, sorted by machine id.
    pub machines: Vec<FleetMachine>,
    /// Across-ships conservative-envelope prognostics, sorted by
    /// `(machine_id, condition_id)`.
    pub prognostics: Vec<FleetPrognostic>,
    /// The fleet SLO verdict.
    pub slo: FleetSloVerdict,
    /// Sim-domain counters summed across available ships, sorted by
    /// `(component, name)`.
    pub counters: Vec<CounterSnapshot>,
}

/// The census and the prognostic envelopes, folded over one set of
/// available ships.
#[derive(Debug, Default)]
struct Knowledge {
    /// The ships folded, ascending.
    available_ships: Vec<u64>,
    machines: Vec<FleetMachine>,
    prognostics: Vec<FleetPrognostic>,
}

impl Knowledge {
    /// `prev`'s knowledge again when the available set is the same and
    /// every available ship's ICAS machine entries and prognostic list
    /// are the very `Arc`s `prev` pinned; otherwise a fresh fold.
    fn after(prev: &FleetSnapshot, ships: &[ShipEntry]) -> Result<Arc<Knowledge>> {
        let available = || ships.iter().filter(|s| s.available);
        let same_set =
            (available().map(|s| s.ship_id)).eq(prev.knowledge.available_ships.iter().copied());
        let unchanged = same_set
            && available().all(|ship| {
                prev.ship(ship.ship_id)
                    .is_some_and(|before| same_knowledge(&before.snapshot, &ship.snapshot))
            });
        if unchanged {
            return Ok(Arc::clone(&prev.knowledge));
        }
        let available: Vec<&ShipEntry> = available().collect();
        Ok(Arc::new(Knowledge {
            available_ships: available.iter().map(|s| s.ship_id).collect(),
            machines: census(&available),
            prognostics: envelopes(&available)?,
        }))
    }
}

/// Whether two pinned ship snapshots share their machine entries and
/// prognostic list, `Arc` for `Arc`. Both snapshots are alive, so no
/// address can have been reused between them.
fn same_knowledge(a: &ServingSnapshot, b: &ServingSnapshot) -> bool {
    Arc::ptr_eq(&a.prognostics, &b.prognostics)
        && a.icas.machines.len() == b.icas.machines.len()
        && a.icas
            .machines
            .iter()
            .zip(&b.icas.machines)
            .all(|(x, y)| Arc::ptr_eq(x, y))
}

/// Census: the ICAS machines grouped by machine id across ships,
/// worst-status-wins.
fn census(available: &[&ShipEntry]) -> Vec<FleetMachine> {
    let mut census: BTreeMap<u64, FleetMachine> = BTreeMap::new();
    for ship in available {
        for machine in &ship.snapshot.icas.machines {
            let entry = census
                .entry(machine.machine_id)
                .or_insert_with(|| FleetMachine {
                    machine_id: machine.machine_id,
                    name: machine.name.clone(),
                    ships: Vec::new(),
                    status: "ok".into(),
                    health: machine.health,
                    degraded_ships: Vec::new(),
                });
            entry.ships.push(ship.ship_id);
            entry.health = entry.health.min(machine.health);
            if machine.status == "degraded" {
                entry.status = "degraded".into();
                entry.degraded_ships.push(ship.ship_id);
            }
        }
    }
    census.into_values().collect()
}

/// Prognostics: envelope-fuse each (machine, condition) pair's per-ship
/// curves. Ships are visited ascending, so the fusion input order — and
/// with it the output — is fixed.
fn envelopes(available: &[&ShipEntry]) -> Result<Vec<FleetPrognostic>> {
    let mut curves: BTreeMap<(u64, usize), (Vec<u64>, Vec<PrognosticVector>)> = BTreeMap::new();
    for ship in available {
        for entry in ship.snapshot.prognostics.iter() {
            let slot = curves
                .entry((entry.machine_id, entry.condition_id))
                .or_default();
            slot.0.push(ship.ship_id);
            slot.1.push(entry.vector.clone());
        }
    }
    let mut prognostics = Vec::with_capacity(curves.len());
    for ((machine_id, condition_id), (ships, vectors)) in curves {
        prognostics.push(FleetPrognostic {
            machine_id,
            condition_id,
            ships,
            vector: fuse_prognostics(&vectors)?,
        });
    }
    Ok(prognostics)
}

/// Counters: the available ships' sim-domain counters summed by
/// `(component, name)`. Each ship's list is in that key order, so one
/// stable sort of the borrowed rows merges them and equal keys end up
/// adjacent; only the summed output is copied.
fn sum_counters(ships: &[ShipEntry]) -> Vec<CounterSnapshot> {
    let mut all: Vec<(&str, &str, u64)> = ships
        .iter()
        .filter(|s| s.available)
        .flat_map(|s| s.snapshot.series.counter_values())
        .collect();
    all.sort_by_key(|&(component, name, _)| (component, name));
    let mut summed: Vec<CounterSnapshot> = Vec::new();
    for (component, name, value) in all {
        match summed.last_mut() {
            Some(last) if last.component == component && last.name == name => {
                last.value += value;
            }
            _ => summed.push(CounterSnapshot {
                component: component.to_owned(),
                name: name.to_owned(),
                value,
            }),
        }
    }
    summed
}

/// An immutable, epoch-stamped view of the whole fleet: every ship's
/// pinned serving snapshot plus the knowledge folded from them.
///
/// The census and the prognostic envelopes are shared by `Arc` with
/// the previous snapshot while no ship's knowledge moved; the counter
/// sums are folded on the first [`FleetSnapshot::rollup`] of a version
/// (the first `GetFleetRollup`) and kept.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetSnapshot {
    /// Fleet publishing epoch (count of fleet publishes).
    pub version: u64,
    /// Simulated seconds: the maximum over the available ships'
    /// snapshot times (ships step in lockstep, so normally they agree).
    pub at_secs: f64,
    /// Per-ship entries, ascending ship id.
    pub ships: Vec<ShipEntry>,
    knowledge: Arc<Knowledge>,
    /// The counter sums, folded on first use.
    counters: OnceLock<Vec<CounterSnapshot>>,
}

impl FleetSnapshot {
    /// The empty pre-publication snapshot (version 0, no ships).
    pub fn empty() -> Self {
        FleetSnapshot {
            version: 0,
            at_secs: 0.0,
            ships: Vec::new(),
            knowledge: Arc::default(),
            counters: OnceLock::new(),
        }
    }

    /// Assemble a fleet snapshot from per-ship entries (must already be
    /// in ascending ship order — the fleet's shard-index merge order),
    /// from scratch: [`Self::build_after`] against [`Self::empty`].
    pub fn build(version: u64, ships: Vec<ShipEntry>) -> Result<Self> {
        Self::build_after(&FleetSnapshot::empty(), version, ships)
    }

    /// Assemble the fleet snapshot that follows `prev`, taking over
    /// `prev`'s census and prognostic envelopes when the available set
    /// is the same and every available ship still pins the machine
    /// entries and prognostic list `prev` pinned; otherwise they are
    /// folded afresh. Deterministic: inputs are visited in ascending
    /// ship order and every folded list is sorted.
    pub fn build_after(prev: &FleetSnapshot, version: u64, ships: Vec<ShipEntry>) -> Result<Self> {
        let knowledge = Knowledge::after(prev, &ships)?;
        let at_secs = ships
            .iter()
            .filter(|s| s.available)
            .map(|s| s.snapshot.at_secs)
            .fold(0.0, f64::max);
        Ok(FleetSnapshot {
            version,
            at_secs,
            ships,
            knowledge,
            counters: OnceLock::new(),
        })
    }

    /// The entry for `ship_id`, if the fleet has such a shard.
    pub fn ship(&self, ship_id: u64) -> Option<&ShipEntry> {
        self.ships.iter().find(|s| s.ship_id == ship_id)
    }

    /// The knowledge rollup over the available ships, as served. The
    /// SLO verdict is pass iff every available ship with a verdict
    /// passes.
    pub fn rollup(&self) -> FleetRollup {
        let ship_ids = |available: bool| -> Vec<u64> {
            (self.ships.iter())
                .filter(|s| s.available == available)
                .map(|s| s.ship_id)
                .collect()
        };
        let failing_ships: Vec<u64> = (self.ships.iter())
            .filter(|s| s.available && s.snapshot.slo.as_ref().is_some_and(|v| !v.pass))
            .map(|s| s.ship_id)
            .collect();
        let unavailable_ships = ship_ids(false);
        let counters = self.counters.get_or_init(|| sum_counters(&self.ships));
        FleetRollup {
            ship_count: self.ships.len(),
            available_ships: ship_ids(true),
            unavailable_ships: unavailable_ships.clone(),
            machines: self.knowledge.machines.clone(),
            prognostics: self.knowledge.prognostics.clone(),
            slo: FleetSloVerdict {
                pass: failing_ships.is_empty(),
                failing_ships,
                unavailable_ships,
            },
            counters: counters.clone(),
        }
    }
}

impl Published for FleetSnapshot {
    type Request = FleetRequest;
    type Response = FleetResponse;
    type Delta = ShipDelta;

    fn version(&self) -> u64 {
        self.version
    }

    fn at_secs(&self) -> f64 {
        self.at_secs
    }

    /// Every available ship's pinned-snapshot deltas against its entry
    /// in `prev`, in ascending ship order. Ships unavailable now, or
    /// absent from `prev`, contribute none.
    fn deltas_since(&self, prev: &FleetSnapshot) -> Vec<ShipDelta> {
        let mut out = Vec::new();
        for ship in self.ships.iter().filter(|s| s.available) {
            let Some(prev_ship) = prev.ship(ship.ship_id) else {
                continue;
            };
            for delta in ship.snapshot.deltas_since(&prev_ship.snapshot) {
                out.push(ShipDelta {
                    ship_id: ship.ship_id,
                    fleet_version: self.version,
                    delta,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_pdme::icas::{IcasMachine, IcasSnapshot, ICAS_SCHEMA_VERSION};
    use mpros_telemetry::{SimSeries, Telemetry};

    /// A sim-domain reading holding `counters` (and the trace counter
    /// every domain registers).
    fn series(counters: &[(&str, &str, u64)]) -> SimSeries {
        let telemetry = Telemetry::new();
        for &(component, name, value) in counters {
            telemetry.counter(component, name).add(value);
        }
        telemetry.sim_series(&SimSeries::default())
    }

    fn entry(ship_id: u64, available: bool, statuses: &[(u64, &str, f64)]) -> ShipEntry {
        let mut snap = ServingSnapshot::empty();
        snap.version = 5;
        snap.icas = IcasSnapshot {
            schema_version: ICAS_SCHEMA_VERSION,
            at_secs: 0.0,
            machines: statuses
                .iter()
                .map(|&(id, status, health)| {
                    Arc::new(IcasMachine {
                        machine_id: id,
                        name: format!("machine {id}"),
                        health,
                        status: status.to_string(),
                        report_count: 0,
                        conditions: Vec::new(),
                    })
                })
                .collect(),
            data_concentrators: Vec::new(),
        };
        snap.series = series(&[("net", "sent", 3)]);
        ShipEntry {
            ship_id,
            available,
            snapshot: Arc::new(snap),
        }
    }

    fn rollup(ships: Vec<ShipEntry>) -> FleetRollup {
        FleetSnapshot::build(1, ships).unwrap().rollup()
    }

    #[test]
    fn census_is_worst_status_wins() {
        let rollup = rollup(vec![
            entry(0, true, &[(1, "ok", 1.0)]),
            entry(1, true, &[(1, "degraded", 0.4)]),
        ]);
        assert_eq!(rollup.machines.len(), 1);
        let m = &rollup.machines[0];
        assert_eq!(m.status, "degraded");
        assert_eq!(m.health, 0.4);
        assert_eq!(m.ships, vec![0, 1]);
        assert_eq!(m.degraded_ships, vec![1]);
        assert_eq!(rollup.counters[0].value, 6, "counters sum across ships");
    }

    #[test]
    fn unavailable_ships_are_excluded_and_listed() {
        let rollup = rollup(vec![
            entry(0, true, &[(1, "ok", 1.0)]),
            entry(1, false, &[(1, "degraded", 0.1)]),
        ]);
        assert_eq!(rollup.ship_count, 2);
        assert_eq!(rollup.available_ships, vec![0]);
        assert_eq!(rollup.unavailable_ships, vec![1]);
        assert_eq!(rollup.machines[0].status, "ok", "crashed shard excluded");
        assert_eq!(rollup.slo.unavailable_ships, vec![1]);
        assert!(rollup.slo.pass);
        assert_eq!(rollup.counters[0].value, 3);
    }

    #[test]
    fn an_unchanged_fleet_shares_its_census_and_envelopes() {
        let ships = vec![
            entry(0, true, &[(1, "ok", 1.0)]),
            entry(1, true, &[(1, "degraded", 0.4)]),
        ];
        let prev = FleetSnapshot::build(1, ships.clone()).unwrap();
        let next = FleetSnapshot::build_after(&prev, 2, ships.clone()).unwrap();
        assert!(Arc::ptr_eq(&next.knowledge, &prev.knowledge));
        assert_eq!(next.rollup(), prev.rollup());

        // Equal content behind new `Arc`s is folded again.
        let rebuilt = vec![
            entry(0, true, &[(1, "ok", 1.0)]),
            entry(1, true, &[(1, "degraded", 0.4)]),
        ];
        let next = FleetSnapshot::build_after(&prev, 3, rebuilt).unwrap();
        assert!(!Arc::ptr_eq(&next.knowledge, &prev.knowledge));
        assert_eq!(next.rollup(), prev.rollup());
        // So is a change in the available set, even with the same `Arc`s.
        let mut crashed = ships;
        crashed[1].available = false;
        let next = FleetSnapshot::build_after(&prev, 4, crashed).unwrap();
        assert!(!Arc::ptr_eq(&next.knowledge, &prev.knowledge));
        assert_eq!(next.rollup().machines[0].status, "ok");
    }

    /// Reference: the counter sum as a fold over each ship's owned rows.
    fn summed_rows(ships: &[ShipEntry]) -> Vec<CounterSnapshot> {
        let rows: Vec<Vec<CounterSnapshot>> = (ships.iter())
            .filter(|s| s.available)
            .map(|s| s.snapshot.series.counters())
            .collect();
        let mut all: Vec<&CounterSnapshot> = rows.iter().flatten().collect();
        all.sort_by(|a, b| (&a.component, &a.name).cmp(&(&b.component, &b.name)));
        let mut summed: Vec<CounterSnapshot> = Vec::new();
        for c in all {
            match summed.last_mut() {
                Some(last) if last.component == c.component && last.name == c.name => {
                    last.value += c.value;
                }
                _ => summed.push(c.clone()),
            }
        }
        summed
    }

    #[test]
    fn counters_fold_on_first_rollup_and_match_the_row_sum() {
        let counter = |component: &str, name: &str, value| CounterSnapshot {
            component: component.into(),
            name: name.into(),
            value,
        };
        let with = |ship_id, available, counters: &[(&str, &str, u64)]| {
            let mut e = entry(ship_id, available, &[]);
            Arc::make_mut(&mut e.snapshot).series = series(counters);
            e
        };
        let ships = vec![
            with(0, true, &[("net", "a", 1), ("pdme", "b", 2)]),
            with(
                1,
                true,
                &[("net", "a", 3), ("net", "c", 4), ("store", "d", 5)],
            ),
            with(2, false, &[("net", "a", 100), ("zeta", "e", 7)]),
            with(3, true, &[("dc", "z", 9), ("net", "c", 1)]),
        ];
        let snapshot = FleetSnapshot::build(1, ships.clone()).unwrap();
        assert!(snapshot.counters.get().is_none(), "not folded at publish");
        let counters = snapshot.rollup().counters;
        assert!(snapshot.counters.get().is_some(), "kept for the version");
        assert_eq!(counters, summed_rows(&ships));
        assert_eq!(
            counters,
            vec![
                counter("dc", "z", 9),
                counter("net", "a", 4),
                counter("net", "c", 5),
                counter("pdme", "b", 2),
                counter("store", "d", 5),
                counter("trace", "hops_evicted", 0),
            ],
            "ship 2 is unavailable and left out"
        );
        assert_eq!(snapshot.rollup().counters, counters);
    }
}
