//! # mpros-store
//!
//! Durable persistence for the MPROS PDME: an append-only, CRC32-framed,
//! versioned write-ahead log plus periodic full-state snapshots, and a
//! [`RecoveryManager`] that rebuilds engine state from
//! latest-snapshot-plus-WAL-tail.
//!
//! The paper grounds every tier of MPROS in durable storage — each DC
//! hosts "an embedded relational database" and the OOSM provides
//! "relational persistence" (§1, §4) — but it says nothing about *how*
//! the central engine survives a process death mid-cruise. This crate
//! supplies that machinery with embedded-systems discipline:
//!
//! * **One log, two frame kinds.** Snapshots are ordinary frames
//!   (kind [`FRAME_KIND_SNAPSHOT`]) interleaved with record frames in
//!   the same append-only byte stream. Recovery is a single forward
//!   scan: remember the last valid snapshot, replay every record after
//!   it. No sidecar files, no manifest to fsync in the right order.
//! * **Torn writes are expected.** A power cut can truncate the final
//!   frame at any byte offset. The scan stops at the first incomplete
//!   or corrupt frame and reports the prefix length that was valid, so
//!   the caller can truncate the tail and keep appending.
//! * **Byte-generic.** The log stores opaque payloads; the PDME layer
//!   defines what a record *means* (see `mpros-pdme`'s journal module).
//!   This crate only guarantees that whatever bytes went in come back
//!   out intact, in order, or not at all.
//!
//! ## Frame format (version 1)
//!
//! ```text
//! +----+----+---------+------+-----------+-------------+---------+----------+
//! | 'M'| 'W'| version | kind | seq (u64) | len (u32)   | payload | crc32    |
//! |  1 |  1 |    1    |  1   |  8, LE    |  4, LE      | len     | 4, LE    |
//! +----+----+---------+------+-----------+-------------+---------+----------+
//! ```
//!
//! The CRC-32 (IEEE) covers everything from `version` through the end of
//! `payload` — a flipped bit anywhere in the header or body invalidates
//! the frame. Sequence numbers are assigned by the [`Wal`] and strictly
//! increase within one log.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mpros_core::{Error, Result};
use mpros_telemetry::{Counter, Histogram, Telemetry};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Magic bytes opening every WAL frame.
pub const WAL_MAGIC: [u8; 2] = *b"MW";

/// Current frame-format version.
pub const WAL_VERSION: u8 = 1;

/// Frame kind reserved for full-state snapshots; every other kind is a
/// client-defined record.
pub const FRAME_KIND_SNAPSHOT: u8 = 0;

/// Fixed bytes before the payload: magic + version + kind + seq + len.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 1 + 8 + 4;

/// Trailing CRC bytes after the payload.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Largest accepted payload (a full fleet snapshot is well under this).
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), hand-rolled — core carries no checksum dependency.
// ---------------------------------------------------------------------------

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// (Kounavis & Berry, "A Systematic Approach to Building High
/// Performance Software-based CRC Generators", ISCC 2005). `t[0]` is the
/// byte-wise table; `t[k][b]` is the CRC register after byte `b` is
/// followed by `k` zero bytes, so eight lookups advance the CRC over
/// eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend a finished CRC-32 over more bytes: `crc32_update(crc32(a), b)`
/// equals the CRC-32 of `a` followed by `b`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// One decoded WAL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind ([`FRAME_KIND_SNAPSHOT`] or a client record kind).
    pub kind: u8,
    /// Log-assigned sequence number.
    pub seq: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// True if this frame carries a full-state snapshot.
    pub fn is_snapshot(&self) -> bool {
        self.kind == FRAME_KIND_SNAPSHOT
    }
}

/// The header and CRC trailer that frame `payload`: the one routine
/// behind both [`encode_frame`] and [`Wal`]'s appends. A payload over
/// [`MAX_FRAME_PAYLOAD`] is an error.
fn frame_envelope(
    kind: u8,
    seq: u64,
    payload: &[u8],
) -> Result<([u8; FRAME_HEADER_LEN], [u8; FRAME_TRAILER_LEN])> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(Error::CapacityExceeded(format!(
            "frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD ({MAX_FRAME_PAYLOAD})",
            payload.len()
        )));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..2].copy_from_slice(&WAL_MAGIC);
    header[2] = WAL_VERSION;
    header[3] = kind;
    header[4..12].copy_from_slice(&seq.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32_update(crc32(&header[2..]), payload);
    Ok((header, crc.to_le_bytes()))
}

/// Encode one frame into its on-log byte form: the bytes a [`Wal`]
/// appends for it. Errs when the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    let (header, trailer) = frame_envelope(frame.kind, frame.seq, &frame.payload)?;
    Ok([&header[..], &frame.payload, &trailer].concat())
}

/// Outcome of attempting to decode one frame off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScan {
    /// A valid frame and the total bytes it occupied.
    Valid(Frame, usize),
    /// The buffer ends mid-frame (torn write): fewer bytes than a
    /// complete frame of the advertised length.
    Incomplete,
    /// The bytes at the front are not a valid frame (bad magic, version,
    /// length, or CRC).
    Corrupt(String),
}

/// Decode the frame at the front of `bytes` without consuming it.
pub fn scan_frame(bytes: &[u8]) -> FrameScan {
    let Some(&header) = bytes.first_chunk::<FRAME_HEADER_LEN>() else {
        // A prefix of a valid header is a torn write; a wrong magic byte
        // is corruption even when short.
        if !WAL_MAGIC.starts_with(&bytes[..bytes.len().min(2)]) {
            return FrameScan::Corrupt("bad frame magic".into());
        }
        return FrameScan::Incomplete;
    };
    let [m0, m1, version, kind, seq @ .., l0, l1, l2, l3] = header;
    if [m0, m1] != WAL_MAGIC {
        return FrameScan::Corrupt("bad frame magic".into());
    }
    if version != WAL_VERSION {
        return FrameScan::Corrupt(format!("unsupported frame version {version}"));
    }
    let seq = u64::from_le_bytes(seq);
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return FrameScan::Corrupt(format!("frame payload length {len} exceeds cap"));
    }
    let body_end = FRAME_HEADER_LEN + len;
    let total = body_end + FRAME_TRAILER_LEN;
    let Some(&trailer) = bytes.get(body_end..).and_then(|rest| rest.first_chunk()) else {
        return FrameScan::Incomplete;
    };
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&bytes[2..body_end]);
    if expected != actual {
        return FrameScan::Corrupt(format!(
            "frame CRC mismatch: stored {expected:#010x}, computed {actual:#010x}"
        ));
    }
    FrameScan::Valid(
        Frame {
            kind,
            seq,
            payload: bytes[FRAME_HEADER_LEN..body_end].to_vec(),
        },
        total,
    )
}

// ---------------------------------------------------------------------------
// Storage media
// ---------------------------------------------------------------------------

/// Where the log's bytes live. Implementations only need append, full
/// read-back, and truncation — the WAL never seeks or rewrites.
pub trait Medium: Send {
    /// Append the concatenation of `parts` at the end of the medium (a
    /// frame's header, payload and trailer, written without joining
    /// them first).
    fn append(&mut self, parts: &[&[u8]]) -> Result<()>;
    /// The entire current contents.
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Cut the medium down to its first `len` bytes (tail repair after a
    /// torn write).
    fn truncate(&mut self, len: u64) -> Result<()>;
    /// Current length in bytes.
    fn len(&self) -> Result<u64>;
    /// True when the medium holds no bytes.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// An in-memory medium: the default for simulations and tests, where
/// durability across *process* death is simulated rather than real.
#[derive(Debug, Default)]
pub struct MemMedium {
    bytes: Vec<u8>,
}

impl MemMedium {
    /// An empty in-memory medium.
    pub fn new() -> Self {
        MemMedium::default()
    }

    /// A medium pre-loaded with `bytes` (e.g. a torn log under test).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemMedium { bytes }
    }
}

impl Medium for MemMedium {
    fn append(&mut self, parts: &[&[u8]]) -> Result<()> {
        self.bytes.reserve(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            self.bytes.extend_from_slice(part);
        }
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.bytes.clone())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        let len = usize::try_from(len).map_err(|_| Error::invalid("truncate length overflow"))?;
        if len > self.bytes.len() {
            return Err(Error::invalid(format!(
                "cannot truncate {}-byte medium to {len}",
                self.bytes.len()
            )));
        }
        self.bytes.truncate(len);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.bytes.len() as u64)
    }
}

/// A file-backed medium for real persistence across process restarts.
#[derive(Debug)]
pub struct FileMedium {
    path: std::path::PathBuf,
}

impl FileMedium {
    /// Open (creating if absent) the log file at `path`.
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        if !path.exists() {
            std::fs::write(&path, [])
                .map_err(|e| Error::invalid(format!("create WAL file {}: {e}", path.display())))?;
        }
        Ok(FileMedium { path })
    }

    /// The backing file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Medium for FileMedium {
    fn append(&mut self, parts: &[&[u8]]) -> Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| Error::invalid(format!("open WAL for append: {e}")))?;
        for part in parts {
            file.write_all(part)
                .map_err(|e| Error::invalid(format!("append to WAL: {e}")))?;
        }
        file.flush()
            .map_err(|e| Error::invalid(format!("flush WAL: {e}")))?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        std::fs::read(&self.path).map_err(|e| Error::invalid(format!("read WAL: {e}")))
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| Error::invalid(format!("open WAL for truncate: {e}")))?;
        file.set_len(len)
            .map_err(|e| Error::invalid(format!("truncate WAL: {e}")))?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        std::fs::metadata(&self.path)
            .map(|m| m.len())
            .map_err(|e| Error::invalid(format!("stat WAL: {e}")))
    }
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

/// The append-only write-ahead log over a [`Medium`].
pub struct Wal {
    medium: Box<dyn Medium>,
    next_seq: u64,
    m_appends: Arc<Counter>,
    m_bytes: Arc<Counter>,
    h_snapshot: Arc<Histogram>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Wal {
    /// Open a WAL over `medium`, resuming sequence numbering after the
    /// last valid frame already present. Instruments appends on the
    /// `store.wal_appends` / `store.wal_bytes` counters and snapshot
    /// writes on the `store.snapshot_duration_s` histogram of
    /// `telemetry`.
    pub fn open(medium: Box<dyn Medium>, telemetry: &Telemetry) -> Result<Self> {
        let scan = scan_log(&medium.read_all()?);
        let next_seq = scan
            .frames
            .last()
            .map(|f| f.seq.saturating_add(1))
            .unwrap_or(0);
        Ok(Wal::resume(medium, next_seq, telemetry))
    }

    /// A WAL over `medium` whose next frame gets sequence `next_seq`.
    fn resume(medium: Box<dyn Medium>, next_seq: u64, telemetry: &Telemetry) -> Self {
        Wal {
            medium,
            next_seq,
            m_appends: telemetry.counter("store", "wal_appends"),
            m_bytes: telemetry.counter("store", "wal_bytes"),
            h_snapshot: telemetry.histogram("store", "snapshot_duration_s"),
        }
    }

    /// Append one record frame; returns its assigned sequence number.
    /// A payload over [`MAX_FRAME_PAYLOAD`] is an error that leaves the
    /// log and the sequence counter untouched.
    pub fn append(&mut self, kind: u8, payload: Vec<u8>) -> Result<u64> {
        if kind == FRAME_KIND_SNAPSHOT {
            return Err(Error::invalid(
                "kind 0 is reserved for snapshots; use append_snapshot",
            ));
        }
        self.append_frame(kind, &payload)
    }

    /// Append a full-state snapshot frame, timing the write. Errs like
    /// [`Wal::append`] on an oversized payload.
    pub fn append_snapshot(&mut self, payload: Vec<u8>) -> Result<u64> {
        let started = std::time::Instant::now();
        let seq = self.append_frame(FRAME_KIND_SNAPSHOT, &payload)?;
        self.h_snapshot.record(started.elapsed().as_secs_f64());
        Ok(seq)
    }

    /// Write one frame straight into the medium: header, payload and
    /// CRC trailer, with the payload copied once.
    fn append_frame(&mut self, kind: u8, payload: &[u8]) -> Result<u64> {
        let seq = self.next_seq;
        let (header, trailer) = frame_envelope(kind, seq, payload)?;
        self.medium.append(&[&header, payload, &trailer])?;
        self.next_seq += 1;
        self.m_appends.inc();
        self.m_bytes
            .add((FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN) as u64);
        Ok(seq)
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The raw log contents (for scans and tests).
    pub fn contents(&self) -> Result<Vec<u8>> {
        self.medium.read_all()
    }

    /// Repair a torn tail: scan the log and cut the medium back to its
    /// last valid frame. Returns the number of bytes dropped.
    pub fn repair(&mut self) -> Result<u64> {
        let bytes = self.medium.read_all()?;
        let scan = scan_log(&bytes);
        let dropped = bytes.len() as u64 - scan.valid_len;
        if dropped > 0 {
            self.medium.truncate(scan.valid_len)?;
        }
        self.next_seq = scan
            .frames
            .last()
            .map(|f| f.seq.saturating_add(1))
            .unwrap_or(0);
        Ok(dropped)
    }
}

// ---------------------------------------------------------------------------
// Scan + recovery
// ---------------------------------------------------------------------------

/// The result of a forward scan over a (possibly torn) log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogScan {
    /// Every valid frame, in log order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix; everything past it is torn or
    /// corrupt and safe to truncate.
    pub valid_len: u64,
    /// Why the scan stopped, when it stopped before the end.
    pub tail_error: Option<String>,
}

/// Scan `bytes` front to back, collecting valid frames and stopping at
/// the first incomplete or corrupt one.
pub fn scan_log(bytes: &[u8]) -> LogScan {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    let mut tail_error = None;
    while offset < bytes.len() {
        match scan_frame(&bytes[offset..]) {
            FrameScan::Valid(frame, consumed) => {
                frames.push(frame);
                offset += consumed;
            }
            FrameScan::Incomplete => {
                tail_error = Some("torn frame at log tail".to_string());
                break;
            }
            FrameScan::Corrupt(reason) => {
                tail_error = Some(reason);
                break;
            }
        }
    }
    LogScan {
        frames,
        valid_len: offset as u64,
        tail_error,
    }
}

/// What a recovery scan found: the newest snapshot (if any) and the
/// record frames appended after it, ready to replay in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Payload of the last valid snapshot frame.
    pub snapshot: Option<Vec<u8>>,
    /// Record frames after that snapshot, in append order.
    pub tail: Vec<Frame>,
    /// Byte length of the valid log prefix.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn/corrupt tail) that were ignored.
    pub dropped_bytes: u64,
}

/// Restores engine state from latest-snapshot-plus-WAL-tail.
///
/// The manager is engine-agnostic: it hands back the snapshot payload
/// and the ordered record tail; the PDME layer decodes and replays them.
/// Replayed-record counts land on the `store.recovery_replayed` counter
/// and recovery wall time on `store.recovery_duration_s`.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    telemetry: Telemetry,
}

impl RecoveryManager {
    /// A manager recording into `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        RecoveryManager {
            telemetry: telemetry.clone(),
        }
    }

    /// Scan a raw log and split it into snapshot + replay tail.
    pub fn recover(&self, bytes: &[u8]) -> RecoveredState {
        let started = std::time::Instant::now();
        let scan = scan_log(bytes);
        let mut snapshot = None;
        let mut tail = Vec::new();
        for frame in scan.frames {
            if frame.is_snapshot() {
                snapshot = Some(frame.payload);
                tail.clear();
            } else {
                tail.push(frame);
            }
        }
        self.telemetry
            .counter("store", "recovery_replayed")
            .add(tail.len() as u64);
        self.telemetry
            .histogram("store", "recovery_duration_s")
            .record(started.elapsed().as_secs_f64());
        RecoveredState {
            snapshot,
            tail,
            valid_len: scan.valid_len,
            dropped_bytes: bytes.len() as u64 - scan.valid_len,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared handle
// ---------------------------------------------------------------------------

/// A cloneable handle to one WAL, shared between the engine that
/// journals into it and the harness that snapshots and recovers it.
#[derive(Debug, Clone)]
pub struct StoreHandle {
    inner: Arc<Mutex<Wal>>,
}

impl StoreHandle {
    /// A store over a fresh in-memory medium.
    pub fn in_memory(telemetry: &Telemetry) -> Self {
        // An empty medium holds no frame, so numbering starts at 0.
        let wal = Wal::resume(Box::new(MemMedium::new()), 0, telemetry);
        StoreHandle {
            inner: Arc::new(Mutex::new(wal)),
        }
    }

    /// A store over an arbitrary medium (repairing any torn tail first).
    pub fn open(medium: Box<dyn Medium>, telemetry: &Telemetry) -> Result<Self> {
        let mut wal = Wal::open(medium, telemetry)?;
        wal.repair()?;
        Ok(StoreHandle {
            inner: Arc::new(Mutex::new(wal)),
        })
    }

    /// Append one record frame.
    pub fn append(&self, kind: u8, payload: Vec<u8>) -> Result<u64> {
        self.wal().append(kind, payload)
    }

    /// Append a snapshot frame.
    pub fn append_snapshot(&self, payload: Vec<u8>) -> Result<u64> {
        self.wal().append_snapshot(payload)
    }

    /// The raw log bytes.
    pub fn contents(&self) -> Result<Vec<u8>> {
        self.wal().contents()
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.wal().next_seq()
    }

    /// Lock the log. A poisoned lock is taken over rather than
    /// propagated: a torn append is what frame checksums and tail repair
    /// already exist for.
    fn wal(&self) -> MutexGuard<'_, Wal> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: u8, seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind,
            seq,
            payload: payload.to_vec(),
        }
    }

    /// The byte-at-a-time CRC-32 the slicing-by-8 kernel replaced, kept
    /// as the oracle it must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any length up to 4 KiB, starting at every alignment mod 8 of
        /// the backing buffer, and split anywhere for an incremental
        /// update: slicing-by-8 equals the byte-wise loop.
        #[test]
        fn crc32_matches_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..4104),
            offset in 0usize..8,
            len in 0usize..4096,
            split in 0usize..4096,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            let data = &data[..len.min(data.len())];
            let expected = crc32_bytewise(data);
            proptest::prop_assert_eq!(crc32(data), expected);
            let (a, b) = data.split_at(split.min(data.len()));
            proptest::prop_assert_eq!(crc32_update(crc32(a), b), expected);
        }
    }

    #[test]
    fn oversized_frame_is_an_error_that_writes_nothing() {
        let too_big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(matches!(
            encode_frame(&frame(1, 0, &too_big)),
            Err(Error::CapacityExceeded(_))
        ));
        let t = Telemetry::new();
        let mut wal = Wal::open(Box::new(MemMedium::new()), &t).unwrap();
        wal.append(1, b"before".to_vec()).unwrap();
        let log = wal.contents().unwrap();
        assert!(matches!(
            wal.append(1, too_big.clone()),
            Err(Error::CapacityExceeded(_))
        ));
        assert!(matches!(
            wal.append_snapshot(too_big),
            Err(Error::CapacityExceeded(_))
        ));
        assert_eq!(wal.contents().unwrap(), log, "log untouched");
        assert_eq!(wal.next_seq(), 1, "sequence counter untouched");
        assert_eq!(t.counter("store", "wal_appends").get(), 1);
        assert_eq!(wal.append(1, b"after".to_vec()).unwrap(), 1);
    }

    #[test]
    fn wal_writes_exactly_the_encoded_frames() {
        let t = Telemetry::new();
        let mut wal = Wal::open(Box::new(MemMedium::new()), &t).unwrap();
        wal.append(1, b"record".to_vec()).unwrap();
        wal.append_snapshot(vec![7u8; 1000]).unwrap();
        let mut expected = encode_frame(&frame(1, 0, b"record")).unwrap();
        expected.extend(encode_frame(&frame(FRAME_KIND_SNAPSHOT, 1, &[7u8; 1000])).unwrap());
        assert_eq!(wal.contents().unwrap(), expected);
        assert_eq!(t.counter("store", "wal_bytes").get(), expected.len() as u64);
    }

    #[test]
    fn frame_roundtrips() {
        let f = frame(3, 17, b"hello wal");
        let bytes = encode_frame(&f).unwrap();
        match scan_frame(&bytes) {
            FrameScan::Valid(back, consumed) => {
                assert_eq!(back, f);
                assert_eq!(consumed, bytes.len());
            }
            other => panic!("expected valid frame, got {other:?}"),
        }
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let bytes = encode_frame(&frame(1, 0, b"payload")).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                !matches!(scan_frame(&bad), FrameScan::Valid(_, _)),
                "flip at byte {i} still decoded"
            );
        }
    }

    #[test]
    fn truncation_at_every_prefix_recovers_last_valid_frame() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(&frame(1, 0, b"one")).unwrap());
        log.extend_from_slice(&encode_frame(&frame(2, 1, b"two")).unwrap());
        let first_len = encode_frame(&frame(1, 0, b"one")).unwrap().len() as u64;
        for cut in 0..=log.len() {
            let scan = scan_log(&log[..cut]);
            let expect = if cut == log.len() {
                log.len() as u64
            } else if cut >= first_len as usize {
                first_len
            } else {
                0
            };
            assert_eq!(scan.valid_len, expect, "cut at {cut}");
        }
    }

    #[test]
    fn wal_appends_and_counts() {
        let t = Telemetry::new();
        let mut wal = Wal::open(Box::new(MemMedium::new()), &t).unwrap();
        let s0 = wal.append(1, b"a".to_vec()).unwrap();
        let s1 = wal.append_snapshot(b"snap".to_vec()).unwrap();
        let s2 = wal.append(2, b"b".to_vec()).unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(t.counter("store", "wal_appends").get(), 3);
        assert!(t.counter("store", "wal_bytes").get() > 0);
        assert_eq!(t.histogram("store", "snapshot_duration_s").count(), 1);
        assert!(wal.append(FRAME_KIND_SNAPSHOT, vec![]).is_err());
    }

    #[test]
    fn recovery_takes_latest_snapshot_plus_tail() {
        let t = Telemetry::new();
        let mut wal = Wal::open(Box::new(MemMedium::new()), &t).unwrap();
        wal.append(1, b"pre".to_vec()).unwrap();
        wal.append_snapshot(b"snap-a".to_vec()).unwrap();
        wal.append(1, b"mid".to_vec()).unwrap();
        wal.append_snapshot(b"snap-b".to_vec()).unwrap();
        wal.append(1, b"post-1".to_vec()).unwrap();
        wal.append(2, b"post-2".to_vec()).unwrap();
        let recovered = RecoveryManager::new(&t).recover(&wal.contents().unwrap());
        assert_eq!(recovered.snapshot.as_deref(), Some(b"snap-b".as_slice()));
        assert_eq!(recovered.tail.len(), 2);
        assert_eq!(recovered.tail[0].payload, b"post-1");
        assert_eq!(recovered.tail[1].payload, b"post-2");
        assert_eq!(recovered.dropped_bytes, 0);
        assert_eq!(t.counter("store", "recovery_replayed").get(), 2);
    }

    #[test]
    fn torn_tail_is_repaired_and_sequencing_resumes() {
        let t = Telemetry::new();
        let mut wal = Wal::open(Box::new(MemMedium::new()), &t).unwrap();
        wal.append(1, b"keep".to_vec()).unwrap();
        wal.append(1, b"lost".to_vec()).unwrap();
        let mut bytes = wal.contents().unwrap();
        bytes.truncate(bytes.len() - 3); // tear the second frame
        let handle = StoreHandle::open(Box::new(MemMedium::from_bytes(bytes)), &t).unwrap();
        let scan = scan_log(&handle.contents().unwrap());
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.tail_error.is_none(), "repair removed the torn tail");
        // Sequencing resumes after the surviving frame.
        assert_eq!(handle.next_seq(), 1);
        handle.append(1, b"next".to_vec()).unwrap();
        let scan = scan_log(&handle.contents().unwrap());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].seq, 1);
    }

    #[test]
    fn file_medium_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("mpros-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new();
        {
            let mut wal = Wal::open(Box::new(FileMedium::open(&path).unwrap()), &t).unwrap();
            wal.append(1, b"persisted".to_vec()).unwrap();
        }
        let wal = Wal::open(Box::new(FileMedium::open(&path).unwrap()), &t).unwrap();
        let scan = scan_log(&wal.contents().unwrap());
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].payload, b"persisted");
        assert_eq!(wal.next_seq(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
