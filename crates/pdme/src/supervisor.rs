//! Fleet supervision and DC recovery (§4.9, §6.3).
//!
//! A crashed or partitioned DC goes silent; its last conclusions grow
//! stale in the OOSM with nothing to say so. The supervisor closes that
//! gap: each pass compares every *assigned* DC's last-contact time
//! against a staleness timeout. A DC that falls silent has its
//! machines' `status` property marked `degraded` in the ship model —
//! the ICAS export and the browser surface it — and a DC heard from
//! again after an outage is treated as freshly restarted: the PDME
//! re-downloads its SBFR machine set (a restarted DC lost its volatile
//! program store) and journals the recovery. Machines stay `degraded`
//! until a fresh report actually arrives from them, because a DC that
//! answers heartbeats may still be re-warming its detectors.

use mpros_core::{DcId, Durable, Error, MachineId, Result, SimDuration, SimTime};
use mpros_network::NetMessage;
use mpros_oosm::{Oosm, Value};
use mpros_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the PDME knows about one DC's station: the machines it
/// monitors and the SBFR images to restore after a restart.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Machines whose reports come from this DC.
    pub machines: Vec<MachineId>,
    /// `(slot, encoded image)` pairs to re-download on recovery (§6.3).
    pub sbfr_images: Vec<(u32, Vec<u8>)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DcState {
    Healthy,
    Stale,
}

/// The supervision state machine over the assigned fleet.
#[derive(Debug, Default)]
pub struct Supervisor {
    assignments: BTreeMap<DcId, Assignment>,
    states: BTreeMap<DcId, DcState>,
    degraded: BTreeSet<MachineId>,
}

impl Supervisor {
    /// An empty supervisor: nothing assigned, nothing degraded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or replace) a DC's station.
    pub fn assign(&mut self, dc: DcId, machines: Vec<MachineId>, sbfr_images: Vec<(u32, Vec<u8>)>) {
        self.assignments.insert(
            dc,
            Assignment {
                machines,
                sbfr_images,
            },
        );
        self.states.entry(dc).or_insert(DcState::Healthy);
    }

    /// Clear a machine's degraded mark (a fresh report arrived).
    /// Returns true when the machine was actually marked.
    pub fn clear_degraded(&mut self, machine: MachineId) -> bool {
        self.degraded.remove(&machine)
    }

    /// Machines currently marked degraded, sorted.
    pub fn degraded_machines(&self) -> Vec<MachineId> {
        self.degraded.iter().copied().collect()
    }

    /// One supervision pass. DCs never heard from are left alone (the
    /// fleet is still booting); silence past `timeout` degrades the
    /// DC's machines; contact after an outage emits the §6.3
    /// re-download commands, in slot order, DCs in id order.
    pub fn supervise(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
        last_seen: &HashMap<DcId, SimTime>,
        oosm: &mut Oosm,
        telemetry: &Telemetry,
    ) -> Result<Vec<NetMessage>> {
        let mut commands = Vec::new();
        for (&dc, assignment) in &self.assignments {
            let Some(&seen) = last_seen.get(&dc) else {
                continue;
            };
            let stale = now.since(seen) > timeout;
            let state = self.states.entry(dc).or_insert(DcState::Healthy);
            match (*state, stale) {
                (DcState::Healthy, true) => {
                    *state = DcState::Stale;
                    telemetry.event_at(
                        now,
                        "pdme",
                        "dc_degraded",
                        format!(
                            "{dc} silent past {timeout}; {} machine(s) degraded",
                            assignment.machines.len()
                        ),
                    );
                    for &machine in &assignment.machines {
                        if self.degraded.insert(machine) {
                            if let Some(obj) = oosm.machine_object(machine) {
                                oosm.set_property(obj, "status", Value::Text("degraded".into()))?;
                            }
                            telemetry.event_at(
                                now,
                                "pdme",
                                "machine_degraded",
                                format!("{machine}: its {dc} went silent"),
                            );
                        }
                    }
                }
                (DcState::Stale, false) => {
                    *state = DcState::Healthy;
                    telemetry.event_at(
                        now,
                        "pdme",
                        "dc_recovered",
                        format!(
                            "{dc} back in contact; re-downloading {} SBFR machine(s)",
                            assignment.sbfr_images.len()
                        ),
                    );
                    for (slot, image) in &assignment.sbfr_images {
                        commands.push(NetMessage::DownloadSbfr {
                            dc,
                            slot: *slot,
                            image: image.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(commands)
    }
}

impl Durable for Assignment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.machines.encode(out);
        self.sbfr_images.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(Assignment {
            machines: Vec::<MachineId>::decode(input)?,
            sbfr_images: Vec::<(u32, Vec<u8>)>::decode(input)?,
        })
    }
}

impl Durable for DcState {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DcState::Healthy => 0,
            DcState::Stale => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        match u8::decode(input)? {
            0 => Ok(DcState::Healthy),
            1 => Ok(DcState::Stale),
            t => Err(Error::invalid(format!("durable dc state: bad tag {t}"))),
        }
    }
}

/// Wire form: the two maps and the degraded set, each in the keyed
/// encoding (ascending keys, enforced on decode).
impl Durable for Supervisor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.assignments.encode(out);
        self.states.encode(out);
        self.degraded.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(Supervisor {
            assignments: BTreeMap::decode(input)?,
            states: BTreeMap::decode(input)?,
            degraded: BTreeSet::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(pairs: &[(u64, f64)]) -> HashMap<DcId, SimTime> {
        pairs
            .iter()
            .map(|&(dc, t)| (DcId::new(dc), SimTime::from_secs(t)))
            .collect()
    }

    fn rigged() -> (Supervisor, Oosm, Telemetry) {
        let mut sup = Supervisor::new();
        sup.assign(
            DcId::new(1),
            vec![MachineId::new(10), MachineId::new(11)],
            vec![(0, vec![1, 2, 3])],
        );
        let mut oosm = Oosm::new();
        oosm.register_machine(MachineId::new(10), "compressor");
        oosm.register_machine(MachineId::new(11), "pump");
        (sup, oosm, Telemetry::new())
    }

    #[test]
    fn silence_degrades_then_contact_redownloads() {
        let (mut sup, mut oosm, tel) = rigged();
        let timeout = SimDuration::from_secs(30.0);
        // Fresh contact: nothing happens.
        let cmds = sup
            .supervise(
                SimTime::from_secs(10.0),
                timeout,
                &seen(&[(1, 5.0)]),
                &mut oosm,
                &tel,
            )
            .unwrap();
        assert!(cmds.is_empty());
        assert!(sup.degraded_machines().is_empty());
        // Past the timeout: both machines degrade, once.
        for _ in 0..2 {
            let cmds = sup
                .supervise(
                    SimTime::from_secs(50.0),
                    timeout,
                    &seen(&[(1, 5.0)]),
                    &mut oosm,
                    &tel,
                )
                .unwrap();
            assert!(cmds.is_empty());
        }
        assert_eq!(
            sup.degraded_machines(),
            vec![MachineId::new(10), MachineId::new(11)]
        );
        let obj = oosm.machine_object(MachineId::new(10)).unwrap();
        assert_eq!(
            oosm.property(obj, "status"),
            Some(Value::Text("degraded".into()))
        );
        assert_eq!(
            tel.events()
                .iter()
                .filter(|e| e.kind == "machine_degraded")
                .count(),
            2,
            "degrade journaled once per machine"
        );
        // Contact again: SBFR set re-downloaded, machines still degraded
        // until fresh reports arrive.
        let cmds = sup
            .supervise(
                SimTime::from_secs(60.0),
                timeout,
                &seen(&[(1, 55.0)]),
                &mut oosm,
                &tel,
            )
            .unwrap();
        assert_eq!(cmds.len(), 1);
        assert!(matches!(
            &cmds[0],
            NetMessage::DownloadSbfr { dc, slot: 0, image } if *dc == DcId::new(1) && image == &[1, 2, 3]
        ));
        assert_eq!(sup.degraded_machines().len(), 2);
        assert!(sup.clear_degraded(MachineId::new(10)));
        assert!(!sup.clear_degraded(MachineId::new(10)), "already cleared");
        assert_eq!(sup.degraded_machines(), vec![MachineId::new(11)]);
    }

    #[test]
    fn durable_roundtrip_preserves_supervision_state() {
        let (mut sup, mut oosm, tel) = rigged();
        let timeout = SimDuration::from_secs(30.0);
        // Drive DC 1 stale so all three collections are non-trivial.
        sup.supervise(
            SimTime::from_secs(50.0),
            timeout,
            &seen(&[(1, 5.0)]),
            &mut oosm,
            &tel,
        )
        .unwrap();
        let bytes = sup.to_durable_bytes();
        let mut back = Supervisor::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back.to_durable_bytes(), bytes, "canonical encoding");
        assert_eq!(back.degraded_machines(), sup.degraded_machines());
        // The restored supervisor remembers DC 1 is stale: renewed
        // contact triggers the SBFR re-download exactly like the
        // original would.
        let cmds = back
            .supervise(
                SimTime::from_secs(60.0),
                timeout,
                &seen(&[(1, 55.0)]),
                &mut oosm,
                &tel,
            )
            .unwrap();
        assert_eq!(cmds.len(), 1, "stale→healthy transition survives");
    }

    #[test]
    fn unseen_dcs_are_left_alone() {
        let (mut sup, mut oosm, tel) = rigged();
        let cmds = sup
            .supervise(
                SimTime::from_secs(500.0),
                SimDuration::from_secs(30.0),
                &HashMap::new(),
                &mut oosm,
                &tel,
            )
            .unwrap();
        assert!(cmds.is_empty());
        assert!(sup.degraded_machines().is_empty());
        assert!(tel.events().is_empty());
    }
}
