//! The PDME's write-ahead journal vocabulary.
//!
//! Every state-changing entry point of [`crate::PdmeExecutive`] appends
//! one [`PdmeWalRecord`] to the attached `mpros-store` log *before*
//! applying the change (classic WAL discipline). Recovery replays the
//! records after the latest snapshot through the same entry points, so
//! a restored executive is byte-identical to one that never crashed:
//! ingestion and supervision are deterministic functions of their
//! journaled inputs.
//!
//! Each record maps to one WAL frame: the frame `kind` byte is the
//! record discriminant (kind 0 is reserved by the store for snapshots)
//! and the frame payload is the record's [`Durable`] encoding.
//! [`NetMessage`]s ride inside [`PdmeWalRecord::Ingest`] in their §7.x
//! wire form (`mpros_network::encode_into`), length-prefixed — the
//! journal re-uses the network codec rather than inventing a second
//! serialization of the protocol vocabulary.

use crate::historian::MaintenanceRecord;
use mpros_core::{DcId, Durable, Error, MachineCondition, MachineId, Result, SimDuration, SimTime};
use mpros_network::{decode_message, encode_into, NetMessage};
use mpros_store::Frame;

/// Frame kind: a machine registered in the ship model.
pub const KIND_REGISTER_MACHINE: u8 = 1;
/// Frame kind: a DC assignment (machines + SBFR images) recorded.
pub const KIND_ASSIGN_DC: u8 = 2;
/// Frame kind: one ingest pass over a step's delivered frames.
pub const KIND_INGEST: u8 = 3;
/// Frame kind: one supervision pass.
pub const KIND_SUPERVISE: u8 = 4;
/// Frame kind: a closed maintenance action archived.
pub const KIND_MAINTENANCE: u8 = 5;
/// Frame kind: a component (re)installed on a machine.
pub const KIND_COMPONENT_INSTALLED: u8 = 6;
/// Frame kind: a scenario fault-epoch transition. Informational — the
/// replay path skips it, but it anchors post-mortem analysis of the log
/// to the fault timeline.
pub const KIND_FAULT_TRANSITION: u8 = 7;

/// One journaled PDME state change.
#[derive(Debug, Clone, PartialEq)]
pub enum PdmeWalRecord {
    /// [`crate::PdmeExecutive::register_machine`] was called.
    RegisterMachine {
        /// The machine registered.
        machine: MachineId,
        /// Its display name in the ship model.
        name: String,
    },
    /// [`crate::PdmeExecutive::assign_dc`] was called.
    AssignDc {
        /// The DC assigned.
        dc: DcId,
        /// Machines the DC monitors.
        machines: Vec<MachineId>,
        /// `(slot, image)` pairs to re-download after a DC restart.
        sbfr_images: Vec<(u32, Vec<u8>)>,
    },
    /// One [`crate::PdmeExecutive::ingest`] pass and its inputs.
    Ingest {
        /// The simulated ingest time.
        now: SimTime,
        /// The delivered frames, in arrival order.
        msgs: Vec<NetMessage>,
    },
    /// One [`crate::PdmeExecutive::supervise`] pass and its inputs.
    Supervise {
        /// The simulated supervision time.
        now: SimTime,
        /// The staleness timeout used.
        timeout: SimDuration,
    },
    /// A maintenance action archived via
    /// [`crate::PdmeExecutive::record_maintenance`].
    Maintenance(MaintenanceRecord),
    /// A component installation recorded via
    /// [`crate::PdmeExecutive::component_installed`].
    ComponentInstalled {
        /// The machine serviced.
        machine: MachineId,
        /// The component's condition class.
        condition: MachineCondition,
        /// When it went into service.
        at: SimTime,
    },
    /// A scenario fault window opened (`start = true`) or closed.
    FaultTransition {
        /// The simulated transition time.
        at: SimTime,
        /// The fault kind's stable label (e.g. `dc_crash`).
        label: String,
        /// True at the window's start edge, false at its end.
        start: bool,
    },
}

/// Write an [`PdmeWalRecord::Ingest`] payload from borrowed frames, so
/// the ingest path journals them without cloning them into a record.
/// Each frame is encoded straight into the payload behind a placeholder
/// length prefix, patched once the frame's size is known: the bytes
/// `Vec<u8>::encode` of the frame would write, with no buffer between.
pub(crate) fn encode_ingest(now: SimTime, msgs: &[NetMessage], out: &mut Vec<u8>) -> Result<()> {
    now.encode(out);
    msgs.len().encode(out);
    for msg in msgs {
        let prefix = out.len();
        0usize.encode(out);
        let start = out.len();
        encode_into(msg, out)?;
        // A durable `usize` is its `u64` little-endian bytes.
        let len = (out.len() - start) as u64;
        out[prefix..start].copy_from_slice(&len.to_le_bytes());
    }
    Ok(())
}

impl PdmeWalRecord {
    /// The WAL frame kind byte for this record.
    pub fn kind(&self) -> u8 {
        match self {
            PdmeWalRecord::RegisterMachine { .. } => KIND_REGISTER_MACHINE,
            PdmeWalRecord::AssignDc { .. } => KIND_ASSIGN_DC,
            PdmeWalRecord::Ingest { .. } => KIND_INGEST,
            PdmeWalRecord::Supervise { .. } => KIND_SUPERVISE,
            PdmeWalRecord::Maintenance(_) => KIND_MAINTENANCE,
            PdmeWalRecord::ComponentInstalled { .. } => KIND_COMPONENT_INSTALLED,
            PdmeWalRecord::FaultTransition { .. } => KIND_FAULT_TRANSITION,
        }
    }

    /// The WAL frame payload for this record. Fails only when a
    /// [`NetMessage`] refuses to encode (oversized batch).
    pub fn payload(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            PdmeWalRecord::RegisterMachine { machine, name } => {
                machine.encode(&mut out);
                name.encode(&mut out);
            }
            PdmeWalRecord::AssignDc {
                dc,
                machines,
                sbfr_images,
            } => {
                dc.encode(&mut out);
                machines.encode(&mut out);
                sbfr_images.encode(&mut out);
            }
            PdmeWalRecord::Ingest { now, msgs } => encode_ingest(*now, msgs, &mut out)?,
            PdmeWalRecord::Supervise { now, timeout } => {
                now.encode(&mut out);
                timeout.encode(&mut out);
            }
            PdmeWalRecord::Maintenance(record) => record.encode(&mut out),
            PdmeWalRecord::ComponentInstalled {
                machine,
                condition,
                at,
            } => {
                machine.encode(&mut out);
                condition.encode(&mut out);
                at.encode(&mut out);
            }
            PdmeWalRecord::FaultTransition { at, label, start } => {
                at.encode(&mut out);
                label.encode(&mut out);
                start.encode(&mut out);
            }
        }
        Ok(out)
    }

    /// Decode one WAL frame back into a record. Rejects snapshot frames,
    /// unknown kinds, and trailing garbage.
    pub fn decode_frame(frame: &Frame) -> Result<Self> {
        let mut input: &[u8] = &frame.payload;
        let record = match frame.kind {
            KIND_REGISTER_MACHINE => PdmeWalRecord::RegisterMachine {
                machine: MachineId::decode(&mut input)?,
                name: String::decode(&mut input)?,
            },
            KIND_ASSIGN_DC => PdmeWalRecord::AssignDc {
                dc: DcId::decode(&mut input)?,
                machines: Vec::<MachineId>::decode(&mut input)?,
                sbfr_images: Vec::<(u32, Vec<u8>)>::decode(&mut input)?,
            },
            KIND_INGEST => {
                let now = SimTime::decode(&mut input)?;
                let count = usize::decode(&mut input)?;
                let mut msgs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let wire = Vec::<u8>::decode(&mut input)?;
                    msgs.push(decode_message(&wire)?);
                }
                PdmeWalRecord::Ingest { now, msgs }
            }
            KIND_SUPERVISE => PdmeWalRecord::Supervise {
                now: SimTime::decode(&mut input)?,
                timeout: SimDuration::decode(&mut input)?,
            },
            KIND_MAINTENANCE => PdmeWalRecord::Maintenance(MaintenanceRecord::decode(&mut input)?),
            KIND_COMPONENT_INSTALLED => PdmeWalRecord::ComponentInstalled {
                machine: MachineId::decode(&mut input)?,
                condition: MachineCondition::decode(&mut input)?,
                at: SimTime::decode(&mut input)?,
            },
            KIND_FAULT_TRANSITION => PdmeWalRecord::FaultTransition {
                at: SimTime::decode(&mut input)?,
                label: String::decode(&mut input)?,
                start: bool::decode(&mut input)?,
            },
            kind => {
                return Err(Error::invalid(format!(
                    "pdme journal: unknown WAL frame kind {kind} (seq {})",
                    frame.seq
                )))
            }
        };
        if !input.is_empty() {
            return Err(Error::invalid(format!(
                "pdme journal: {} trailing byte(s) after kind-{} record",
                input.len(),
                frame.kind
            )));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{Belief, ConditionReport};

    fn frame_of(record: &PdmeWalRecord) -> Frame {
        Frame {
            kind: record.kind(),
            seq: 7,
            payload: record.payload().unwrap(),
        }
    }

    #[test]
    fn every_record_kind_roundtrips() {
        let report = ConditionReport::builder(
            MachineId::new(3),
            MachineCondition::MotorImbalance,
            Belief::new(0.6),
        )
        .dc(DcId::new(1))
        .build();
        let records = vec![
            PdmeWalRecord::RegisterMachine {
                machine: MachineId::new(1),
                name: "chiller".into(),
            },
            PdmeWalRecord::AssignDc {
                dc: DcId::new(2),
                machines: vec![MachineId::new(1)],
                sbfr_images: vec![(0, vec![1, 2, 3])],
            },
            PdmeWalRecord::Ingest {
                now: SimTime::from_secs(12.5),
                msgs: vec![
                    NetMessage::Report(report),
                    NetMessage::Heartbeat {
                        dc: DcId::new(2),
                        at_secs: 12.0,
                    },
                ],
            },
            PdmeWalRecord::Supervise {
                now: SimTime::from_secs(13.0),
                timeout: SimDuration::from_secs(30.0),
            },
            PdmeWalRecord::Maintenance(MaintenanceRecord {
                at: SimTime::from_secs(99.0),
                machine: MachineId::new(1),
                condition: MachineCondition::MotorBearingDefect,
                outcome: crate::historian::Outcome::Confirmed,
                service_life: Some(SimDuration::from_hours(100.0)),
            }),
            PdmeWalRecord::ComponentInstalled {
                machine: MachineId::new(1),
                condition: MachineCondition::MotorBearingDefect,
                at: SimTime::from_secs(99.0),
            },
            PdmeWalRecord::FaultTransition {
                at: SimTime::from_secs(40.0),
                label: "pdme_crash".into(),
                start: true,
            },
        ];
        for record in records {
            let frame = frame_of(&record);
            let back = PdmeWalRecord::decode_frame(&frame).unwrap();
            assert_eq!(back, record, "kind {} roundtrip", frame.kind);
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        let record = PdmeWalRecord::Supervise {
            now: SimTime::ZERO,
            timeout: SimDuration::from_secs(30.0),
        };
        let mut frame = frame_of(&record);
        frame.kind = 200;
        assert!(PdmeWalRecord::decode_frame(&frame).is_err());
        let mut frame = frame_of(&record);
        frame.payload.push(0);
        assert!(PdmeWalRecord::decode_frame(&frame).is_err());
        // Kind 0 is the store's snapshot frame, never a journal record.
        let mut frame = frame_of(&record);
        frame.kind = 0;
        assert!(PdmeWalRecord::decode_frame(&frame).is_err());
    }
}
