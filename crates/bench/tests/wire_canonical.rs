//! The ship wire is canonical on real traffic: every frame the DCs of
//! the E7 runs (the calm and the lossy sea) delivered to the PDME
//! re-encodes to the same bytes after a decode. The PDME journals each
//! delivered frame in its WAL `Ingest` records, so the test reads the
//! frames back out of the run's log.

use mpros::sim::ExecMode;
use mpros_bench::scenario::{fleet_run, Sea};
use mpros_core::{Durable, SimTime};
use mpros_network::{decode_message, encode_message, NetMessage};
use mpros_pdme::journal::KIND_INGEST;
use mpros_store::scan_log;

/// Every wire frame inside the log's ingest records, in log order.
fn ingested_frames(log: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for record in scan_log(log).frames {
        if record.kind != KIND_INGEST {
            continue;
        }
        let mut input: &[u8] = &record.payload;
        SimTime::decode(&mut input).expect("ingest time");
        let count = usize::decode(&mut input).expect("frame count");
        for _ in 0..count {
            frames.push(Vec::<u8>::decode(&mut input).expect("frame bytes"));
        }
        assert!(input.is_empty(), "ingest record has trailing bytes");
    }
    frames
}

#[test]
fn every_frame_the_e7_dcs_delivered_reencodes_to_itself() {
    for sea in [Sea::Calm, Sea::Lossy] {
        let run = fleet_run(ExecMode::Sequential, sea);
        let frames = ingested_frames(&run.wal_log);
        let mut batches = 0;
        for frame in &frames {
            let msg = decode_message(frame).expect("journaled frame decodes");
            batches += usize::from(matches!(msg, NetMessage::ReportBatch { .. }));
            assert_eq!(&encode_message(&msg).expect("re-encodes"), frame, "{sea:?}");
        }
        assert!(batches > 0, "{sea:?}: no report batch was delivered");
        assert!(
            frames.len() > batches,
            "{sea:?}: no heartbeat was delivered"
        );
    }
}
