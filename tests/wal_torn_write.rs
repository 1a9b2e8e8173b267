//! Property tests for the `mpros-store` WAL frame codec: every frame
//! survives the byte format bit for bit, every corrupted byte is
//! rejected by the CRC (never silently accepted), and a log truncated
//! at **every** prefix length recovers to exactly the last valid frame
//! — the torn-write contract the crash-restore path relies on.

use mpros::store::{encode_frame, scan_frame, scan_log, Frame, FrameScan};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..=255,
        0u64..=u64::MAX,
        proptest::collection::vec(0u8..=255, 0..48),
    )
        .prop_map(|(kind, seq, payload)| Frame { kind, seq, payload })
}

fn arb_log() -> impl Strategy<Value = Vec<Frame>> {
    proptest::collection::vec(arb_frame(), 1..6)
}

/// Concatenated encoding plus the byte offset where each frame ends
/// (starting with offset 0 — the empty prefix is a valid log).
fn encode_log(frames: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0];
    for frame in frames {
        bytes.extend_from_slice(&encode_frame(frame).unwrap());
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_frame_roundtrips(frame in arb_frame()) {
        let encoded = encode_frame(&frame).unwrap();
        match scan_frame(&encoded) {
            FrameScan::Valid(back, consumed) => {
                prop_assert_eq!(&back, &frame);
                prop_assert_eq!(consumed, encoded.len());
            }
            other => prop_assert!(false, "valid frame did not scan: {:?}", other),
        }
        // Bytes after the frame must not change what is consumed.
        let mut padded = encoded.clone();
        padded.extend_from_slice(&[0xAA; 7]);
        match scan_frame(&padded) {
            FrameScan::Valid(back, consumed) => {
                prop_assert_eq!(back, frame);
                prop_assert_eq!(consumed, encoded.len());
            }
            other => prop_assert!(false, "padded frame did not scan: {:?}", other),
        }
    }

    #[test]
    fn any_corrupted_byte_is_rejected(frame in arb_frame(), pos_raw in 0usize..4096, bit in 0u8..8) {
        // Flip one bit anywhere in the encoded frame: magic, version,
        // kind, seq, length, payload or the CRC trailer itself. The
        // scan must never hand back a valid frame.
        let mut encoded = encode_frame(&frame).unwrap();
        let pos = pos_raw % encoded.len();
        encoded[pos] ^= 1 << bit;
        prop_assert!(
            !matches!(scan_frame(&encoded), FrameScan::Valid(..)),
            "bit {bit} of byte {pos} flipped yet the frame scanned as valid"
        );
    }

    #[test]
    fn truncation_at_every_prefix_recovers_last_valid_frame(frames in arb_log()) {
        let (bytes, boundaries) = encode_log(&frames);
        for cut in 0..=bytes.len() {
            let scan = scan_log(&bytes[..cut]);
            let last_valid = *boundaries.iter().rfind(|&&b| b <= cut).unwrap();
            let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(
                scan.valid_len as usize, last_valid,
                "cut at {} did not recover to the last valid frame", cut
            );
            prop_assert_eq!(
                scan.frames.len(), whole_frames,
                "cut at {} yielded the wrong frame count", cut
            );
            prop_assert_eq!(&scan.frames, &frames[..whole_frames]);
            // A cut on a frame boundary is a clean tail; anywhere else
            // the scan must say why it stopped.
            prop_assert_eq!(scan.tail_error.is_some(), cut != last_valid);
        }
    }

    #[test]
    fn corruption_mid_log_stops_at_the_damaged_frame(
        frames in arb_log(),
        victim_raw in 0usize..4096,
        offset_raw in 0usize..4096,
    ) {
        let (mut bytes, boundaries) = encode_log(&frames);
        let victim = victim_raw % frames.len();
        let flip_at = boundaries[victim]
            + offset_raw % (boundaries[victim + 1] - boundaries[victim]);
        bytes[flip_at] ^= 0x10;
        let scan = scan_log(&bytes);
        prop_assert_eq!(
            scan.valid_len as usize, boundaries[victim],
            "scan did not stop at the frame containing the flipped byte"
        );
        prop_assert_eq!(&scan.frames, &frames[..victim]);
        prop_assert!(scan.tail_error.is_some());
    }
}
