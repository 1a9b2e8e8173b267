//! The wire format.
//!
//! Each message is one frame:
//!
//! ```text
//! magic "MP" (2) | version u8 | type u8 | payload_len u32 LE | payload
//! ```
//!
//! Payloads are JSON-serialized message bodies — self-describing and
//! diff-able in logs, which is what an open protocol for "many diverse
//! expert systems" (§7.1) needs more than raw compactness.
//!
//! Every message family on the wire — the ship network's own
//! [`NetMessage`] and the gateway and fleet query protocols — shares
//! this header and the one [`Tag`] table below. A message type joins
//! the wire by implementing [`Wire`]; the generic [`encode`] / [`decode`]
//! pair then frames it, and [`decode`] refuses any tag outside the
//! type's own [`Family`] before deserializing. Tags are unique because
//! the compiler rejects duplicate discriminants of one `#[repr(u8)]`
//! enum.

use mpros_core::{ConditionReport, DcId, Error, MachineId, Result};
use mpros_telemetry::TraceContext;
use serde::{Deserialize, Serialize, Writer};

const MAGIC: [u8; 2] = *b"MP";
/// Wire version: bumped whenever the header, the [`Tag`] table or a
/// payload schema changes incompatibly. Peers stamped with any other
/// version are rejected rather than mis-parsed. What v6 speaks is
/// exactly the [`Tag`] table below.
pub const WIRE_VERSION: u8 = 6;
const VERSION: u8 = WIRE_VERSION;
/// Bytes before the payload: magic, version, tag, payload length.
const HEADER_LEN: usize = 8;
/// Frames larger than this are rejected (corrupted length field guard).
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// Reports per batch frame; larger batches must be split by the sender.
pub const MAX_BATCH: usize = 1024;

/// The message families sharing the frame header. Each family's
/// decoder accepts only its own tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Ship network traffic between DCs and the PDME ([`NetMessage`]).
    Ship,
    /// Single-ship gateway requests (`mpros-gateway`).
    GatewayRequest,
    /// Single-ship gateway responses (`mpros-gateway`).
    GatewayResponse,
    /// Fleet router requests (`mpros-fleet`).
    FleetRequest,
    /// Fleet router responses (`mpros-fleet`).
    FleetResponse,
}

impl Family {
    /// Every family, in tag-table order.
    pub const ALL: [Family; 5] = [
        Family::Ship,
        Family::GatewayRequest,
        Family::GatewayResponse,
        Family::FleetRequest,
        Family::FleetResponse,
    ];

    /// Human-readable name used in decode errors.
    pub const fn name(self) -> &'static str {
        match self {
            Family::Ship => "ship message",
            Family::GatewayRequest => "gateway request",
            Family::GatewayResponse => "gateway response",
            Family::FleetRequest => "fleet request",
            Family::FleetResponse => "fleet response",
        }
    }
}

macro_rules! tag_table {
    ($( $family:ident { $( $tag:ident = $value:literal => $kind:literal, )+ } )+) => {
        /// Every frame type tag of wire v6, grouped by [`Family`]. The
        /// discriminant is the tag byte at frame offset 3.
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Tag {
            $($(
                #[doc = concat!("`", $kind, "`")]
                $tag = $value,
            )+)+
        }

        impl Family {
            /// The family's tags, in table order.
            pub const fn tags(self) -> &'static [Tag] {
                match self {
                    $( Family::$family => &[$( Tag::$tag ),+], )+
                }
            }
        }

        impl Tag {
            /// The family owning this tag.
            pub const fn family(self) -> Family {
                match self {
                    $($( Tag::$tag => Family::$family, )+)+
                }
            }

            /// Stable snake_case name of the message kind (telemetry
            /// instrument names are built from it).
            pub const fn kind(self) -> &'static str {
                match self {
                    $($( Tag::$tag => $kind, )+)+
                }
            }

            /// The tag with byte value `byte`, if any.
            pub const fn from_byte(byte: u8) -> Option<Tag> {
                match byte {
                    $($( $value => Some(Tag::$tag), )+)+
                    _ => None,
                }
            }
        }
    };
}

tag_table! {
    Ship {
        Report = 1 => "report",
        RunTest = 2 => "run_test",
        DownloadSbfr = 3 => "download_sbfr",
        Heartbeat = 4 => "heartbeat",
        ReportBatch = 5 => "report_batch",
        Ack = 6 => "ack",
    }
    GatewayRequest {
        GetMachineStatus = 32 => "get_machine_status",
        GetIcas = 33 => "get_icas",
        GetPrognosticVector = 34 => "get_prognostic_vector",
        GetSloVerdict = 35 => "get_slo_verdict",
        GetCounters = 36 => "get_counters",
        Subscribe = 37 => "subscribe",
        GetMetrics = 38 => "get_metrics",
        StreamJournal = 39 => "stream_journal",
        ListIncidents = 40 => "list_incidents",
        GetIncident = 41 => "get_incident",
        GetTrace = 42 => "get_trace",
    }
    GatewayResponse {
        MachineStatus = 64 => "machine_status",
        Icas = 65 => "icas",
        PrognosticVector = 66 => "prognostic_vector",
        SloVerdict = 67 => "slo_verdict",
        Counters = 68 => "counters",
        Deltas = 69 => "deltas",
        NotFound = 70 => "not_found",
        Metrics = 71 => "metrics",
        Journal = 72 => "journal",
        Incidents = 73 => "incidents",
        Incident = 74 => "incident",
        Trace = 75 => "trace",
    }
    FleetRequest {
        ListShips = 96 => "list_ships",
        GetFleetRollup = 97 => "get_fleet_rollup",
        GetShipIcas = 98 => "get_ship_icas",
        FleetSubscribe = 99 => "subscribe",
        ForShip = 100 => "for_ship",
    }
    FleetResponse {
        Ships = 112 => "ships",
        FleetRollup = 113 => "fleet_rollup",
        ShipIcas = 114 => "ship_icas",
        FleetDeltas = 115 => "fleet_deltas",
        ShipUnavailable = 116 => "ship_unavailable",
        ShipReply = 117 => "ship_reply",
    }
}

impl Tag {
    /// Position of the tag within its family's [`Family::tags`] — a
    /// dense index for per-kind instrument tables.
    pub const fn index(self) -> usize {
        let tags = self.family().tags();
        let mut i = 0;
        while i < tags.len() && tags[i] as u8 != self as u8 {
            i += 1;
        }
        i
    }

    /// The tag a frame declares (offset 3), without validating the rest
    /// of the header; `None` for short frames and unknown bytes.
    pub fn peek(frame: &[u8]) -> Option<Tag> {
        frame.get(3).and_then(|&byte| Tag::from_byte(byte))
    }
}

/// A message type carried on the wire: it owns one [`Family`] of tags
/// and maps each of its variants to one of them.
pub trait Wire: Serialize + Deserialize + Sized {
    /// The family whose tags this type's frames carry.
    const FAMILY: Family;

    /// The tag of this message's variant.
    fn tag(&self) -> Tag;

    /// The raw tag byte stamped into the frame header.
    fn type_tag(&self) -> u8 {
        self.tag() as u8
    }

    /// Structural checks beyond the schema, run on encode and decode.
    fn validate(&self) -> Result<()> {
        Ok(())
    }
}

/// Encode a message into one frame.
pub fn encode<M: Wire>(msg: &M) -> Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(FRAME_CAPACITY);
    encode_into(msg, &mut frame)?;
    Ok(frame)
}

/// Bytes a fresh frame buffer starts with: a ship report batch of a
/// few reports fits after one doubling.
const FRAME_CAPACITY: usize = 1024;

/// Append one frame encoding `msg` to `out` — the bytes [`encode`]
/// returns. The payload is written in place after a placeholder
/// length, which is patched once the payload's size is known. On error
/// `out` is left as it was.
pub fn encode_into<M: Wire>(msg: &M, out: &mut Vec<u8>) -> Result<()> {
    msg.validate()?;
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg.type_tag());
    out.extend_from_slice(&[0; 4]);
    msg.serialize(&mut Writer::new(out));
    let len = out.len() - start - HEADER_LEN;
    if len > MAX_PAYLOAD {
        out.truncate(start);
        return Err(Error::Encoding(format!("payload length {len} exceeds cap")));
    }
    out[start + 4..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Decode one frame of `M`'s family. Rejects bad magic, foreign
/// versions, oversized or mismatched lengths and tags of any other
/// family before deserializing; the declared tag must then match the
/// decoded body (defense against frame corruption).
pub fn decode<M: Wire>(frame: &[u8]) -> Result<M> {
    let (tag, payload) = deframe(frame)?;
    if Tag::from_byte(tag).map(Tag::family) != Some(M::FAMILY) {
        return Err(Error::Encoding(format!(
            "type tag {tag} is not a {}",
            M::FAMILY.name()
        )));
    }
    let msg: M = serde_json::from_slice(payload)
        .map_err(|e| Error::Encoding(format!("{} deserialization: {e}", M::FAMILY.name())))?;
    if msg.type_tag() != tag {
        return Err(Error::Encoding("type tag does not match body".into()));
    }
    msg.validate()?;
    Ok(msg)
}

/// Strip and validate a frame header; returns the declared type tag and
/// the payload bytes.
fn deframe(frame: &[u8]) -> Result<(u8, &[u8])> {
    let Some((header, payload)) = frame.split_first_chunk::<HEADER_LEN>() else {
        return Err(Error::Encoding("frame shorter than header".into()));
    };
    let [m0, m1, version, tag, l0, l1, l2, l3] = *header;
    if [m0, m1] != MAGIC {
        return Err(Error::Encoding("bad frame magic".into()));
    }
    if version != VERSION {
        return Err(Error::Encoding(format!(
            "unsupported frame version {version}"
        )));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD {
        return Err(Error::Encoding(format!("payload length {len} exceeds cap")));
    }
    if payload.len() != len {
        return Err(Error::Encoding(format!(
            "payload length mismatch: header {len}, actual {}",
            payload.len()
        )));
    }
    Ok((tag, payload))
}

/// One entry of a [`NetMessage::ReportBatch`]: a report tagged with the
/// originating DC's emission sequence number. Sequence numbers are
/// strictly increasing per DC, which lets the receiver reject duplicate
/// or replayed entries without inspecting report contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchEntry {
    /// The DC's emission sequence number for this report.
    pub seq: u64,
    /// The report's causal trace context (v3). Carried on every
    /// retransmission unchanged, so retries land on the same trace.
    pub trace: TraceContext,
    /// The report itself.
    pub report: ConditionReport,
}

/// Messages carried on the ship network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetMessage {
    /// A §7.2 failure-prediction report, DC → PDME.
    Report(ConditionReport),
    /// A batch of reports emitted by one DC in a single step, carried
    /// as one frame. Entries are ordered by strictly increasing
    /// sequence number; frames violating that (duplicates, reordering)
    /// are rejected by the codec on both encode and decode.
    ReportBatch {
        /// Originating DC.
        dc: DcId,
        /// The DC's restart epoch. A DC that crashes and restarts
        /// allocates report ids (and therefore batch sequence numbers)
        /// from scratch; the bumped epoch lets the receiver's replay
        /// guard distinguish a legitimate post-restart frame from a
        /// replay of a pre-crash one.
        epoch: u64,
        /// The batched reports, in emission order.
        entries: Vec<BatchEntry>,
    },
    /// Command a DC to run a test immediately (§5.8: "the PDME or any
    /// other client can command the scheduler to conduct another test").
    RunTest {
        /// Target DC.
        dc: DcId,
        /// Machine to survey.
        machine: MachineId,
    },
    /// Download a new SBFR machine image into a DC (§6.3).
    DownloadSbfr {
        /// Target DC.
        dc: DcId,
        /// Slot to replace.
        slot: u32,
        /// Encoded program image.
        image: Vec<u8>,
    },
    /// Liveness probe.
    Heartbeat {
        /// Originating DC.
        dc: DcId,
        /// Sender's simulated-clock seconds.
        at_secs: f64,
    },
    /// Cumulative acknowledgement, PDME → DC: every
    /// [`NetMessage::ReportBatch`] of `(dc, epoch)` whose highest entry
    /// sequence is ≤ `last_seq` has been ingested and may be released
    /// from the sender's retry outbox.
    Ack {
        /// The DC whose batches are acknowledged.
        dc: DcId,
        /// The restart epoch the acknowledgement applies to.
        epoch: u64,
        /// Highest acknowledged entry sequence number, cumulative.
        last_seq: u64,
    },
}

impl Wire for NetMessage {
    const FAMILY: Family = Family::Ship;

    fn tag(&self) -> Tag {
        match self {
            NetMessage::Report(_) => Tag::Report,
            NetMessage::RunTest { .. } => Tag::RunTest,
            NetMessage::DownloadSbfr { .. } => Tag::DownloadSbfr,
            NetMessage::Heartbeat { .. } => Tag::Heartbeat,
            NetMessage::ReportBatch { .. } => Tag::ReportBatch,
            NetMessage::Ack { .. } => Tag::Ack,
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            NetMessage::ReportBatch { entries, .. } => validate_batch(entries),
            _ => Ok(()),
        }
    }
}

/// Batch well-formedness: bounded size and strictly increasing sequence
/// numbers (which also rules out duplicates). Empty batches are legal —
/// they encode "nothing this step" for protocols that frame every step.
fn validate_batch(entries: &[BatchEntry]) -> Result<()> {
    if entries.len() > MAX_BATCH {
        return Err(Error::Encoding(format!(
            "batch of {} entries exceeds cap {MAX_BATCH}",
            entries.len()
        )));
    }
    for pair in entries.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Err(Error::Encoding(format!(
                "batch sequence numbers not strictly increasing: {} then {}",
                pair[0].seq, pair[1].seq
            )));
        }
    }
    Ok(())
}

/// Encode a ship network message into one frame.
pub fn encode_message(msg: &NetMessage) -> Result<Vec<u8>> {
    encode(msg)
}

/// Decode one ship network frame.
pub fn decode_message(frame: &[u8]) -> Result<NetMessage> {
    decode(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{Belief, MachineCondition, PrognosticVector, ReportId, SimTime};

    fn sample_report() -> ConditionReport {
        ConditionReport::builder(
            MachineId::new(3),
            MachineCondition::GearToothWear,
            Belief::new(0.8),
        )
        .id(ReportId::new(42))
        .dc(DcId::new(2))
        .severity(0.6)
        .timestamp(SimTime::from_secs(99.0))
        .explanation("gear mesh sidebands")
        .prognostic(PrognosticVector::from_months(&[(1.0, 0.4)]).unwrap())
        .build()
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let msgs = vec![
            NetMessage::Report(sample_report()),
            NetMessage::RunTest {
                dc: DcId::new(1),
                machine: MachineId::new(3),
            },
            NetMessage::DownloadSbfr {
                dc: DcId::new(1),
                slot: 2,
                image: vec![1, 2, 3, 255],
            },
            NetMessage::Heartbeat {
                dc: DcId::new(7),
                at_secs: 123.5,
            },
            NetMessage::Ack {
                dc: DcId::new(7),
                epoch: 3,
                last_seq: 12_345,
            },
        ];
        for m in msgs {
            let frame = encode_message(&m).unwrap();
            let back = decode_message(&frame).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn report_payload_survives_fully() {
        let r = sample_report();
        let frame = encode_message(&NetMessage::Report(r.clone())).unwrap();
        match decode_message(&frame).unwrap() {
            NetMessage::Report(back) => assert_eq!(back, r),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = encode_message(&NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 0.0,
        })
        .unwrap();
        // Too short.
        assert!(decode_message(&frame[..4]).is_err());
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(decode_message(&bad).is_err());
        // Bad version.
        let mut bad = frame.clone();
        bad[2] = 99;
        assert!(decode_message(&bad).is_err());
        // Mismatched type tag.
        let mut bad = frame.clone();
        bad[3] = 1;
        assert!(decode_message(&bad).is_err());
        // Truncated payload.
        assert!(decode_message(&frame[..frame.len() - 1]).is_err());
        // Garbage payload bytes.
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 3] = 0xFF;
        assert!(decode_message(&bad).is_err());
    }

    /// A frame assembled by hand, bypassing the encoder's checks.
    fn raw_frame(version: u8, tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = b"MP".to_vec();
        frame.extend_from_slice(&[version, tag]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    fn batch(seqs: &[u64]) -> NetMessage {
        NetMessage::ReportBatch {
            dc: DcId::new(2),
            epoch: 0,
            entries: seqs
                .iter()
                .map(|&seq| BatchEntry {
                    seq,
                    trace: TraceContext::for_enqueued(mpros_telemetry::TraceId(seq ^ 0xDEAD)),
                    report: sample_report(),
                })
                .collect(),
        }
    }

    #[test]
    fn report_batches_roundtrip() {
        for seqs in [&[][..], &[1], &[1, 2, 9], &[100, 200, 201]] {
            let m = batch(seqs);
            let back = decode_message(&encode_message(&m).unwrap()).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn batch_with_duplicate_or_reordered_seqs_is_rejected() {
        for seqs in [&[1u64, 1][..], &[5, 3], &[1, 2, 2], &[9, 9, 9]] {
            assert!(encode_message(&batch(seqs)).is_err(), "encoded {seqs:?}");
        }
        // A frame forged past the encoder is still caught on decode:
        // serialize a valid batch, then corrupt is hard via JSON, so
        // build the payload straight from serde like an attacker would.
        let forged = serde_json::to_vec(&batch(&[4, 4])).unwrap();
        let frame = raw_frame(VERSION, Tag::ReportBatch as u8, &forged);
        assert!(decode_message(&frame).is_err());
    }

    #[test]
    fn batch_size_cap_is_enforced() {
        let entries: Vec<BatchEntry> = (0..=MAX_BATCH as u64)
            .map(|seq| BatchEntry {
                seq,
                trace: TraceContext::default(),
                report: sample_report(),
            })
            .collect();
        let over = NetMessage::ReportBatch {
            dc: DcId::new(1),
            epoch: 0,
            entries,
        };
        assert!(encode_message(&over).is_err());
    }

    /// Every older wire version is refused at the version byte, before
    /// serde can mis-default a field it lacked: v1 batches had no epoch,
    /// v2 entries no trace context, and v3–v5 predate the gateway,
    /// observability and fleet tags (any frame of those versions fails
    /// the same check).
    #[test]
    fn stale_versions_are_rejected() {
        let frames: [(u8, Tag, &[u8]); 5] = [
            (
                1,
                Tag::ReportBatch,
                br#"{"ReportBatch":{"dc":2,"entries":[]}}"#,
            ),
            (
                2,
                Tag::ReportBatch,
                br#"{"ReportBatch":{"dc":2,"epoch":0,"entries":[]}}"#,
            ),
            (
                3,
                Tag::Heartbeat,
                br#"{"Heartbeat":{"dc":2,"at_secs":1.0}}"#,
            ),
            (4, Tag::GetCounters, br#""GetCounters""#),
            (5, Tag::GetIcas, br#""GetIcas""#),
        ];
        for (version, tag, payload) in frames {
            let err = decode_message(&raw_frame(version, tag as u8, payload)).unwrap_err();
            assert!(err.to_string().contains("version"), "v{version}: {err}");
        }
    }

    #[test]
    fn length_cap_is_enforced() {
        let mut frame = raw_frame(VERSION, Tag::Heartbeat as u8, b"");
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_message(&frame).is_err());
    }

    #[test]
    fn every_tag_sits_in_exactly_its_family() {
        let mut seen = std::collections::BTreeSet::new();
        for family in Family::ALL {
            for (i, &tag) in family.tags().iter().enumerate() {
                assert_eq!(tag.family(), family);
                assert_eq!(tag.index(), i);
                assert_eq!(Tag::from_byte(tag as u8), Some(tag));
                assert!(seen.insert(tag as u8), "tag {} listed twice", tag as u8);
            }
        }
        assert_eq!(seen.len(), (0..=u8::MAX).filter_map(Tag::from_byte).count());
    }

    #[test]
    fn foreign_family_frames_are_rejected_before_parsing() {
        // A well-formed body under a gateway tag is still not a ship
        // message: the family check runs before serde sees the payload.
        let frame = raw_frame(
            VERSION,
            Tag::GetIcas as u8,
            br#"{"Heartbeat":{"dc":1,"at_secs":0.0}}"#,
        );
        let err = decode_message(&frame).unwrap_err();
        assert!(err.to_string().contains("not a ship message"), "{err}");
    }
}
