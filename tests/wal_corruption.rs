//! Randomised corruption tests for the write-ahead log.
//!
//! The WAL's safety contract: reading a damaged log **never panics and
//! never returns silently wrong records**. Every outcome is one of
//!
//! * a clean prefix of the original records (possibly with a reported
//!   [`TornTail`]) when the damage looks like a crash mid-append — i.e.
//!   the file simply ends early;
//! * a hard, typed [`WalError`] for anything else (bad header, oversized
//!   length, checksum mismatch, malformed payload).
//!
//! As in `tests/invariants.rs`, each property runs as an explicit
//! seeded-RNG case loop (the offline build cannot vendor proptest), so
//! failures are deterministic and print the offending case.

use foodmatch_core::{Order, OrderId};
use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
use foodmatch_roadnet::{Duration, NodeId, TimePoint};
use foodmatch_sim::wal::WAL_HEADER_LEN;
use foodmatch_sim::{read_wal_bytes, FlushPolicy, WalError, WalRecord, WriteAheadLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: usize = 64;

/// A mixed, realistic record stream: orders, disruption events, advances.
fn sample_records(rng: &mut StdRng) -> Vec<WalRecord> {
    let start = TimePoint::from_hms(12, 0, 0);
    let n = rng.random_range(3usize..20);
    (0..n)
        .map(|i| {
            let at = start + Duration::from_mins(i as f64);
            match rng.random_range(0u8..3) {
                0 => WalRecord::SubmitOrder(Order::new(
                    OrderId(i as u64 + 1),
                    NodeId(rng.random_range(0u32..400)),
                    NodeId(rng.random_range(0u32..400)),
                    at,
                    rng.random_range(1u32..4),
                    Duration::from_mins(rng.random_range(3.0f64..15.0)),
                )),
                1 => WalRecord::IngestEvent(DisruptionEvent::new(
                    at,
                    EventKind::Traffic(TrafficDisruption::city_wide(
                        DisruptionCause::Rain,
                        rng.random_range(1.1f64..2.5),
                        at + Duration::from_mins(30.0),
                    )),
                )),
                _ => WalRecord::AdvanceTo(at),
            }
        })
        .collect()
}

/// Writes `records` through the real appender under `policy` and returns
/// the file bytes (the drop flushes any partial group).
fn valid_wal_bytes_with(records: &[WalRecord], tag: &str, policy: FlushPolicy) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("fm-walcorrupt-{}-{tag}", std::process::id()));
    let mut wal = WriteAheadLog::create_with(&path, policy).expect("create wal");
    for record in records {
        wal.append(record).expect("append");
    }
    drop(wal);
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Writes `records` through the real appender and returns the file bytes.
fn valid_wal_bytes(records: &[WalRecord], tag: &str) -> Vec<u8> {
    valid_wal_bytes_with(records, tag, FlushPolicy::EveryRecord)
}

#[test]
fn random_truncation_yields_a_clean_prefix_or_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0xF00D_CA5E);
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let bytes = valid_wal_bytes(&records, "trunc");
        let cut = rng.random_range(0..=bytes.len());
        let truncated = &bytes[..cut];

        match read_wal_bytes(truncated) {
            Ok(outcome) => {
                // Whatever survives must be a verbatim prefix of what was
                // written — never a reordered, skipped or invented record.
                assert!(
                    outcome.records.len() <= records.len(),
                    "case {case}: more records than were written"
                );
                assert_eq!(
                    outcome.records[..],
                    records[..outcome.records.len()],
                    "case {case}: surviving records must be a verbatim prefix"
                );
                if outcome.records.len() < records.len() {
                    assert!(
                        outcome.torn_tail.is_some()
                            || cut == full_frame_end(&bytes, outcome.records.len()),
                        "case {case}: dropped records without reporting a tear"
                    );
                }
            }
            // A cut inside the file header is a BadHeader, never a panic.
            Err(_) => assert!(
                cut < WAL_HEADER_LEN,
                "case {case}: a clean truncation at {cut} must be tolerated"
            ),
        }
    }
}

/// Byte offset where the frame of record `index` ends (i.e. a truncation
/// exactly here leaves `index` whole records and no partial bytes).
fn full_frame_end(bytes: &[u8], index: usize) -> usize {
    let mut offset = WAL_HEADER_LEN;
    for _ in 0..index {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
    }
    offset
}

#[test]
fn random_bit_flips_never_panic_and_never_fabricate_records() {
    let mut rng = StdRng::seed_from_u64(0xF00D_B175);
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let mut bytes = valid_wal_bytes(&records, "flip");
        // Flip 1–4 random bits anywhere in the file.
        for _ in 0..rng.random_range(1usize..5) {
            let byte = rng.random_range(0..bytes.len());
            let bit = rng.random_range(0u8..8);
            bytes[byte] ^= 1 << bit;
        }

        match read_wal_bytes(&bytes) {
            // The flips may cancel out or land in a length field in a way
            // that still parses as a shorter-but-intact log; any records
            // returned must still be a checksummed verbatim prefix.
            Ok(outcome) => {
                let intact = outcome.records.len().min(records.len());
                assert_eq!(
                    outcome.records[..intact],
                    records[..intact],
                    "case {case}: surviving records must be a verbatim prefix"
                );
            }
            // Otherwise: a typed error. Reaching this arm at all (rather
            // than a panic or an abort) is the property.
            Err(error) => {
                let _ = format!("{error}"); // Display must not panic either.
            }
        }
    }
}

#[test]
fn flipping_one_payload_bit_of_a_mid_log_record_is_always_a_checksum_error() {
    let mut rng = StdRng::seed_from_u64(0xF00D_C32C);
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let bytes = valid_wal_bytes(&records, "crc");
        // Pick a record that is not the last one, so the damage can never
        // be mistaken for a torn tail.
        let victim = rng.random_range(0..records.len().saturating_sub(1).max(1));
        let mut offset = WAL_HEADER_LEN;
        for _ in 0..victim {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += 8 + len;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let mut damaged = bytes.clone();
        let target = offset + 8 + rng.random_range(0..len);
        damaged[target] ^= 1 << rng.random_range(0u8..8);

        match read_wal_bytes(&damaged) {
            Err(foodmatch_sim::WalError::ChecksumMismatch { index, .. }) => {
                assert_eq!(index, victim as u64, "case {case}: blames the damaged record");
            }
            other => panic!(
                "case {case}: payload damage in record {victim} must be a checksum mismatch, got {other:?}"
            ),
        }
    }
}

#[test]
fn truncating_a_group_committed_log_still_yields_a_clean_prefix() {
    // The group-commit property: a crash midway through a multi-record
    // flush leaves some prefix of the group's bytes. Whatever parses back
    // must be a verbatim prefix of the appended stream — a torn *group*
    // tail loses trailing records but never reorders, skips or invents.
    let mut rng = StdRng::seed_from_u64(0xF00D_6209);
    let policy = FlushPolicy::Window;
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let bytes = valid_wal_bytes_with(&records, "group", policy);
        // The drop flushed everything: the policy changes *when* fsyncs
        // happen, never what ends up in the file.
        assert_eq!(
            read_wal_bytes(&bytes).expect("clean group log").records,
            records,
            "case {case}: group-committed bytes must decode to the full stream ({policy:?})"
        );
        let cut = rng.random_range(WAL_HEADER_LEN..=bytes.len());
        let outcome = read_wal_bytes(&bytes[..cut]).expect("truncation is never corruption");
        assert_eq!(
            outcome.records[..],
            records[..outcome.records.len()],
            "case {case}: surviving records must be a verbatim prefix ({policy:?})"
        );
        if outcome.records.len() < records.len() {
            assert!(
                outcome.torn_tail.is_some() || cut == full_frame_end(&bytes, outcome.records.len()),
                "case {case}: dropped records without reporting a tear ({policy:?})"
            );
        }
    }
}

#[test]
fn discarded_groups_never_reach_disk_and_acked_prefixes_always_do() {
    // Simulated power cuts drop the in-memory group: the file must hold
    // exactly the acked prefix, no torn bytes, no partial group.
    let mut rng = StdRng::seed_from_u64(0xF00D_D15C);
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let path = std::env::temp_dir()
            .join(format!("fm-walcorrupt-{}-discard-{case}", std::process::id()));
        let mut wal = WriteAheadLog::create_with(&path, FlushPolicy::Window).expect("create");
        for record in &records {
            wal.append(record).expect("append");
        }
        let acked = wal.acked_seq() as usize;
        let dropped = wal.discard_unflushed();
        assert_eq!(dropped as usize, records.len() - acked, "case {case}: drop count");
        drop(wal);
        let outcome = read_wal_bytes(&std::fs::read(&path).expect("read")).expect("clean log");
        assert_eq!(
            outcome.records[..],
            records[..acked],
            "case {case}: exactly the acked prefix survives a power cut"
        );
        assert_eq!(outcome.torn_tail, None, "case {case}: no partial bytes");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn compaction_round_trips_and_guards_replay_below_the_anchor() {
    let mut rng = StdRng::seed_from_u64(0xF00D_C04A);
    for case in 0..CASES {
        let records = sample_records(&mut rng);
        let path = std::env::temp_dir()
            .join(format!("fm-walcorrupt-{}-compact-{case}", std::process::id()));
        let mut wal = WriteAheadLog::create(&path).expect("create");
        for record in &records {
            wal.append(record).expect("append");
        }
        let anchor = rng.random_range(0..=records.len() as u64);
        wal.compact_below(anchor).expect("compact");
        drop(wal);

        // Reopening a compacted log is clean: global numbering preserved,
        // suffix verbatim, replay below the anchor a typed error (the
        // "checkpoint is missing" recovery mistake), not a panic.
        let (reopened, outcome) = WriteAheadLog::open(&path).expect("reopen compacted log");
        assert_eq!(reopened.appended_seq(), records.len() as u64, "case {case}: global seq");
        assert_eq!(outcome.base_seq, anchor, "case {case}: base seq is the anchor");
        assert_eq!(
            outcome.records[..],
            records[anchor as usize..],
            "case {case}: the surviving suffix is verbatim"
        );
        assert_eq!(
            outcome.suffix_from(anchor).expect("anchored replay"),
            &records[anchor as usize..],
            "case {case}: replay from the anchor sees the whole suffix"
        );
        if anchor > 0 {
            assert!(
                matches!(
                    outcome.suffix_from(rng.random_range(0..anchor)),
                    Err(WalError::CompactedPast { .. })
                ),
                "case {case}: replay below the anchor must be CompactedPast"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
