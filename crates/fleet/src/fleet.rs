//! The sharded fleet: N independent ships stepped under one control
//! thread and published as one [`FleetSnapshot`].
//!
//! Each shard is a full [`ShipboardSim`] — its own plants, DCs,
//! network, PDME, WAL store, fault plan, telemetry domain and serving
//! gateway. Shard seeds derive from the fleet master seed and the ship
//! id alone (`derive_salted_seed(master, ship_id, SHIP_STREAM_SALT)`),
//! so a ship's entire trajectory is independent of how many other
//! ships exist and in what order the shards are stepped.
//!
//! Stepping: one fleet step advances every available shard by `dt` —
//! sequentially in ascending ship order, or concurrently with one
//! scoped thread per shard ([`FleetConfig::with_parallel_ships`]), so
//! shards run in whatever order the host schedules them — then
//! assembles and publishes the fleet snapshot in ascending ship-id
//! order (the deterministic shard merge). Because shards share
//! nothing, both schedules produce byte-identical served state;
//! `tests/fleet_serving.rs` pins that promise.

use crate::server::FleetGateway;
use crate::snapshot::{FleetSnapshot, ShipEntry};
use mpros_core::{derive_salted_seed, Error, FaultPlan, Result, SimDuration};
use mpros_gateway::Gateway;
use mpros_ship::sim::{ShipboardSim, ShipboardSimConfig};
use mpros_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Salt separating per-ship master-seed streams from every other
/// consumer of the fleet seed.
pub const SHIP_STREAM_SALT: u64 = 0x5419_F1EE_7C4A_B055;

/// Configuration of a fleet.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Number of ship shards.
    pub ship_count: usize,
    /// Fleet master seed; ship `i` sails under
    /// `derive_salted_seed(seed, i, SHIP_STREAM_SALT)`.
    pub seed: u64,
    /// Template for every ship (DC count, network, exec mode, SLOs,
    /// ...). The template's own `seed` and `fault_plan` are overridden
    /// per ship.
    pub ship: ShipboardSimConfig,
    /// Per-ship fault plans; ships without an entry sail the template's
    /// plan.
    pub fault_plans: BTreeMap<usize, FaultPlan>,
    /// Step shards concurrently, one scoped thread per shard. Byte-
    /// identical to sequential stepping (shards share nothing); spends
    /// host cores to cut fleet-step wall time.
    pub parallel_ships: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            ship_count: 2,
            seed: 7,
            ship: ShipboardSimConfig::new(),
            fault_plans: BTreeMap::new(),
            parallel_ships: false,
        }
    }
}

impl FleetConfig {
    /// The default configuration: two ships, seed 7, template defaults,
    /// sequential shard stepping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of ship shards.
    pub fn with_ship_count(mut self, ship_count: usize) -> Self {
        self.ship_count = ship_count;
        self
    }

    /// Set the fleet master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-ship template configuration.
    pub fn with_ship(mut self, ship: ShipboardSimConfig) -> Self {
        self.ship = ship;
        self
    }

    /// Schedule `plan` against ship `ship_id` (other ships keep the
    /// template's plan).
    pub fn with_ship_fault_plan(mut self, ship_id: usize, plan: FaultPlan) -> Self {
        self.fault_plans.insert(ship_id, plan);
        self
    }

    /// Step shards concurrently (one scoped thread per shard).
    pub fn with_parallel_ships(mut self, parallel_ships: bool) -> Self {
        self.parallel_ships = parallel_ships;
        self
    }
}

/// One ship shard.
struct Shard {
    ship_id: u64,
    sim: ShipboardSim,
    gateway: Arc<Gateway>,
    /// False while the shard is crashed; a crashed shard is skipped by
    /// stepping and degrades to `shard_unavailable` in the rollup.
    available: bool,
}

/// The running fleet: N ship shards, one router, one publish cadence.
pub struct Fleet {
    shards: Vec<Shard>,
    gateway: Arc<FleetGateway>,
    telemetry: Telemetry,
    counters: FleetCounters,
    parallel_ships: bool,
    /// Fleet publishes so far (the fleet snapshot version stamp).
    version: u64,
}

/// The fleet's own shard counters, named once.
struct FleetCounters {
    shard_steps: Arc<Counter>,
    shard_crashes: Arc<Counter>,
    shard_restores: Arc<Counter>,
}

impl FleetCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        FleetCounters {
            shard_steps: telemetry.counter("fleet", "shard_steps"),
            shard_crashes: telemetry.counter("fleet", "shard_crashes"),
            shard_restores: telemetry.counter("fleet", "shard_restores"),
        }
    }
}

impl Fleet {
    /// Build the fleet: `ship_count` independent ships, each with its
    /// own derived seed, WAL store, fault plan and serving gateway,
    /// behind one [`FleetGateway`]. An initial fleet snapshot (at
    /// version 1) is published before this returns, so clients never
    /// observe the empty version 0.
    pub fn new(config: FleetConfig) -> Result<Fleet> {
        if config.ship_count == 0 {
            return Err(Error::invalid("fleet needs at least one ship"));
        }
        if let Some((&ship_id, _)) = config.fault_plans.last_key_value() {
            if ship_id >= config.ship_count {
                return Err(Error::invalid(format!(
                    "fault plan for ship {ship_id}, but the fleet has {} ships",
                    config.ship_count
                )));
            }
        }
        let telemetry = Telemetry::new();
        let mut shards = Vec::with_capacity(config.ship_count);
        for i in 0..config.ship_count {
            let ship_seed = derive_salted_seed(config.seed, i as u64, SHIP_STREAM_SALT);
            let mut ship_config = config.ship.clone().with_seed(ship_seed);
            if let Some(plan) = config.fault_plans.get(&i) {
                ship_config = ship_config.with_fault_plan(plan.clone());
            }
            let mut sim = ShipboardSim::new(ship_config)?;
            let gateway = sim.attach_gateway();
            shards.push(Shard {
                ship_id: i as u64,
                sim,
                gateway,
                available: true,
            });
        }
        let handles = shards.iter().map(|s| s.gateway.clone()).collect();
        let gateway = Arc::new(FleetGateway::new(&telemetry, handles));
        let mut fleet = Fleet {
            shards,
            gateway,
            counters: FleetCounters::wire(&telemetry),
            telemetry,
            parallel_ships: config.parallel_ships,
            version: 0,
        };
        fleet.publish()?;
        Ok(fleet)
    }

    /// The fleet router handle; share with any number of client
    /// threads.
    pub fn gateway(&self) -> &Arc<FleetGateway> {
        &self.gateway
    }

    /// The fleet's own telemetry domain (`fleet.*` counters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of ship shards.
    pub fn ship_count(&self) -> usize {
        self.shards.len()
    }

    /// Fleet publishes so far (the published snapshot's version).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One ship's simulation, immutably (assertions, ground truth).
    pub fn ship(&self, ship_id: usize) -> &ShipboardSim {
        &self.shards[ship_id].sim
    }

    /// One ship's simulation, mutably (fault seeding, configuration).
    pub fn ship_mut(&mut self, ship_id: usize) -> &mut ShipboardSim {
        &mut self.shards[ship_id].sim
    }

    /// Crash ship `ship_id`'s shard: it stops stepping and serving
    /// (`shard_unavailable`) until [`Fleet::restore_shard`]. The change
    /// reaches clients with the next publish.
    pub fn crash_shard(&mut self, ship_id: usize) {
        if self.shards[ship_id].available {
            self.shards[ship_id].available = false;
            self.counters.shard_crashes.inc();
        }
    }

    /// Restore a crashed shard: the ship's PDME is crash-restored from
    /// its durable store (snapshot + WAL tail), then the shard rejoins
    /// stepping and serving with the next publish.
    pub fn restore_shard(&mut self, ship_id: usize) -> Result<()> {
        if self.shards[ship_id].available {
            return Ok(());
        }
        self.shards[ship_id].sim.crash_restore_pdme()?;
        self.shards[ship_id].available = true;
        self.counters.shard_restores.inc();
        Ok(())
    }

    /// Advance every available shard by `dt` (ascending ship order, or
    /// one scoped thread per shard under
    /// [`FleetConfig::with_parallel_ships`]), then publish a fresh
    /// fleet snapshot.
    pub fn step(&mut self, dt: SimDuration) -> Result<()> {
        if self.parallel_ships {
            self.step_shards_parallel(dt)?;
        } else {
            for shard in &mut self.shards {
                if shard.available {
                    shard.sim.step(dt)?;
                }
            }
        }
        self.counters
            .shard_steps
            .add(self.shards.iter().filter(|s| s.available).count() as u64);
        self.publish()
    }

    fn step_shards_parallel(&mut self, dt: SimDuration) -> Result<()> {
        let results: Vec<Result<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .filter(|s| s.available)
                .map(|shard| scope.spawn(move || shard.sim.step(dt)))
                .collect();
            // Joined in ascending ship order: the deterministic merge. A
            // panicking shard's panic carries on out of the step.
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Run for `duration` in fleet steps of `dt`.
    pub fn run_for(&mut self, duration: SimDuration, dt: SimDuration) -> Result<()> {
        let steps = (duration.as_secs() / dt.as_secs()).ceil() as usize;
        for _ in 0..steps {
            self.step(dt)?;
        }
        Ok(())
    }

    /// Assemble and publish a fleet snapshot from every shard's pinned
    /// serving snapshot, in ascending ship order, reusing what the
    /// published one already folded.
    pub fn publish(&mut self) -> Result<()> {
        self.version += 1;
        let ships: Vec<ShipEntry> = self
            .shards
            .iter()
            .map(|s| ShipEntry {
                ship_id: s.ship_id,
                available: s.available,
                snapshot: s.gateway.snapshot(),
            })
            .collect();
        let snapshot = FleetSnapshot::build_after(&self.gateway.snapshot(), self.version, ships)?;
        self.gateway.publish(snapshot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::SimTime;

    #[test]
    fn ship_seeds_are_independent_of_fleet_size() {
        // The defining shard property: ship 2's seed is a function of
        // the fleet seed and its id alone.
        let in_small = derive_salted_seed(7, 2, SHIP_STREAM_SALT);
        let in_large = derive_salted_seed(7, 2, SHIP_STREAM_SALT);
        assert_eq!(in_small, in_large);
        assert_ne!(
            derive_salted_seed(7, 0, SHIP_STREAM_SALT),
            derive_salted_seed(7, 1, SHIP_STREAM_SALT)
        );
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(Fleet::new(FleetConfig::new().with_ship_count(0)).is_err());
    }

    #[test]
    fn fault_plan_for_a_missing_ship_is_rejected() {
        let plan = FaultPlan::none().with_pdme_stall(SimTime::ZERO, SimTime::from_secs(1.0));
        let config = FleetConfig::new().with_ship_count(2);
        assert!(Fleet::new(config.clone().with_ship_fault_plan(1, plan.clone())).is_ok());
        assert!(matches!(
            Fleet::new(config.with_ship_fault_plan(2, plan)),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn initial_publish_lists_every_ship() {
        let fleet = Fleet::new(FleetConfig::new().with_ship_count(3)).unwrap();
        let snap = fleet.gateway().snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.ships.len(), 3);
        assert!(snap.ships.iter().all(|s| s.available));
        assert_eq!(snap.rollup().available_ships, vec![0, 1, 2]);
    }
}
