//! Compact binary trace format (`DPGB`): fixed-width little-endian
//! records designed for zero-copy scans of large traces.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"DPGB"
//! 4       4     u32    format version (1)
//! 8       4     u32    header length in bytes (36)
//! 12      36    header:
//!   12    4     u32    servers  (m)
//!   16    4     u32    items    (k)
//!   20    8     u64    request record count (n)
//!   28    8     u64    item entry count (sum of |D_i|)
//!   36    4     u32    config blob length in bytes (0 = no config)
//!   40    8     2×u32  reserved (zero)
//! 48      24·n  request records, 8-aligned, 24 bytes each:
//!                 u64  f64 bit pattern of the request time t_i
//!                 u32  server id s_i
//!                 u32  item count |D_i|
//!                 u64  offset of D_i into the item entry section
//! ...     4·e   item entries: u32 item ids, grouped per record
//! ...     c     optional config blob: UTF-8 JSON of the WorkloadConfig
//! ```
//!
//! The record section starts at byte 48 and every record is 8-aligned, so
//! a memory-mapped reader can overlay `(u64, u32, u32, u64)` views
//! directly; times are stored as raw `f64` bit patterns, making the
//! round-trip bit-exact. Reading always revalidates through
//! [`RequestSeqBuilder`], so a corrupted or hand-built file cannot smuggle
//! in a sequence that violates the model's standing assumptions.

use std::io::Write;

use mcs_model::json::{self, FromJson, ToJson};
use mcs_model::request::RequestSeqBuilder;

use crate::io::{TraceFile, TraceIoError, FORMAT_VERSION};
use crate::workload::WorkloadConfig;

/// File magic identifying the binary trace format.
pub const BINARY_MAGIC: [u8; 4] = *b"DPGB";

/// Size of the fixed header that follows magic + version + header-length.
const HEADER_LEN: u32 = 36;

/// Byte offset of the first request record (8-aligned).
const RECORDS_AT: usize = 48;

/// Size of one request record in bytes.
const RECORD_LEN: usize = 24;

fn bad(msg: impl Into<String>) -> TraceIoError {
    TraceIoError::Binary { msg: msg.into() }
}

/// Serialises `file` in the binary format.
pub(crate) fn write_binary<W: Write>(file: &TraceFile, mut w: W) -> Result<(), TraceIoError> {
    let seq = &file.sequence;
    let config_blob: Vec<u8> = match &file.config {
        Some(cfg) => cfg.to_json().to_string().into_bytes(),
        None => Vec::new(),
    };
    let config_len =
        u32::try_from(config_blob.len()).map_err(|_| bad("config blob exceeds u32 length"))?;
    let entry_count: u64 = seq.requests().iter().map(|r| r.items.len() as u64).sum();

    let mut head = Vec::with_capacity(RECORDS_AT);
    head.extend_from_slice(&BINARY_MAGIC);
    head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    head.extend_from_slice(&HEADER_LEN.to_le_bytes());
    head.extend_from_slice(&seq.servers().to_le_bytes());
    head.extend_from_slice(&seq.items().to_le_bytes());
    head.extend_from_slice(&(seq.len() as u64).to_le_bytes());
    head.extend_from_slice(&entry_count.to_le_bytes());
    head.extend_from_slice(&config_len.to_le_bytes());
    head.extend_from_slice(&[0u8; 8]); // reserved
    debug_assert_eq!(head.len(), RECORDS_AT);
    w.write_all(&head)?;

    let mut entries: Vec<u8> = Vec::with_capacity(entry_count as usize * 4);
    let mut offset: u64 = 0;
    for r in seq.requests() {
        let mut rec = [0u8; RECORD_LEN];
        rec[0..8].copy_from_slice(&r.time.to_bits().to_le_bytes());
        rec[8..12].copy_from_slice(&r.server.0.to_le_bytes());
        rec[12..16].copy_from_slice(&(r.items.len() as u32).to_le_bytes());
        rec[16..24].copy_from_slice(&offset.to_le_bytes());
        w.write_all(&rec)?;
        for item in &r.items {
            entries.extend_from_slice(&item.0.to_le_bytes());
        }
        offset += r.items.len() as u64;
    }
    w.write_all(&entries)?;
    w.write_all(&config_blob)?;
    Ok(())
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Deserialises the binary format from a full in-memory byte image.
///
/// The caller has already matched [`BINARY_MAGIC`].
pub(crate) fn read_binary(bytes: &[u8]) -> Result<TraceFile, TraceIoError> {
    if bytes.len() < RECORDS_AT {
        return Err(bad(format!(
            "truncated header: {} bytes, need {RECORDS_AT}",
            bytes.len()
        )));
    }
    debug_assert_eq!(&bytes[0..4], &BINARY_MAGIC);
    let version = le_u32(bytes, 4);
    if version != FORMAT_VERSION {
        return Err(TraceIoError::Version { found: version });
    }
    let header_len = le_u32(bytes, 8);
    if header_len < HEADER_LEN {
        return Err(bad(format!(
            "header length {header_len} below minimum {HEADER_LEN}"
        )));
    }
    // A future revision may grow the header; skip what we don't know.
    let records_at = 12usize
        .checked_add(header_len as usize)
        .ok_or_else(|| bad("header length overflow"))?;
    if bytes.len() < records_at {
        return Err(bad(format!(
            "truncated header: {} bytes, need {records_at}",
            bytes.len()
        )));
    }
    let servers = le_u32(bytes, 12);
    let items = le_u32(bytes, 16);
    let request_count = le_u64(bytes, 20);
    let entry_count = le_u64(bytes, 28);
    let config_len = le_u32(bytes, 36) as usize;

    let records_len = (request_count as usize)
        .checked_mul(RECORD_LEN)
        .ok_or_else(|| bad("request count overflow"))?;
    let entries_at = records_at
        .checked_add(records_len)
        .ok_or_else(|| bad("record section overflow"))?;
    let entries_len = (entry_count as usize)
        .checked_mul(4)
        .ok_or_else(|| bad("item entry count overflow"))?;
    let config_at = entries_at
        .checked_add(entries_len)
        .ok_or_else(|| bad("item entry section overflow"))?;
    let total = config_at
        .checked_add(config_len)
        .ok_or_else(|| bad("config section overflow"))?;
    if bytes.len() < total {
        return Err(bad(format!(
            "truncated body: {} bytes, need {total}",
            bytes.len()
        )));
    }

    let entries = &bytes[entries_at..config_at];
    let mut builder = RequestSeqBuilder::new(servers, items);
    for i in 0..request_count as usize {
        let at = records_at + i * RECORD_LEN;
        let time = f64::from_bits(le_u64(bytes, at));
        let server = le_u32(bytes, at + 8);
        let count = le_u32(bytes, at + 12) as usize;
        let offset = le_u64(bytes, at + 16) as usize;
        let end = offset
            .checked_add(count)
            .filter(|&end| end <= entries.len() / 4)
            .ok_or_else(|| bad(format!("record #{}: item range out of bounds", i + 1)))?;
        let ids = (offset..end).map(|e| le_u32(entries, e * 4));
        builder = builder.push(server, time, ids);
    }
    let sequence = builder
        .build()
        .map_err(|e| bad(format!("invalid request sequence: {e}")))?;

    let config = if config_len == 0 {
        None
    } else {
        let text = std::str::from_utf8(&bytes[config_at..total])
            .map_err(|_| bad("config blob is not UTF-8"))?;
        let value = json::parse(text).map_err(|e| bad(format!("config blob: {}", e.msg)))?;
        Some(
            WorkloadConfig::from_json(&value)
                .map_err(|e| bad(format!("config blob: {}", e.msg)))?,
        )
    };

    Ok(TraceFile {
        version,
        config,
        sequence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;

    fn sample() -> TraceFile {
        let cfg = WorkloadConfig::small(11);
        let seq = generate(&cfg);
        TraceFile::synthetic(cfg, seq)
    }

    fn packed(file: &TraceFile) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(file, &mut buf).unwrap();
        buf
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let file = sample();
        let back = read_binary(&packed(&file)).unwrap();
        assert_eq!(file, back);
    }

    #[test]
    fn external_trace_has_empty_config_blob() {
        let file = TraceFile::external(generate(&WorkloadConfig::small(3)));
        let bytes = packed(&file);
        assert_eq!(le_u32(&bytes, 36), 0);
        let back = read_binary(&bytes).unwrap();
        assert_eq!(back.config, None);
        assert_eq!(file, back);
    }

    #[test]
    fn record_section_is_eight_aligned() {
        assert_eq!(RECORDS_AT % 8, 0);
        assert_eq!(RECORD_LEN % 8, 0);
    }

    #[test]
    fn truncated_files_are_rejected() {
        let bytes = packed(&sample());
        for cut in [3, 20, RECORDS_AT - 1, RECORDS_AT + 5, bytes.len() - 1] {
            let err = read_binary(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Binary { .. }),
                "cut at {cut}: {err}"
            );
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = packed(&sample());
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        let err = read_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceIoError::Version { found: 9 }));
    }

    #[test]
    fn corrupted_records_fail_builder_validation() {
        let file = sample();
        let mut bytes = packed(&file);
        // Zero the second record's time: violates strict monotonicity.
        let at = RECORDS_AT + RECORD_LEN;
        bytes[at..at + 8].copy_from_slice(&0f64.to_bits().to_le_bytes());
        let err = read_binary(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("invalid request sequence"),
            "{err}"
        );
    }

    #[test]
    fn out_of_bounds_item_offset_is_rejected() {
        // Offsets from 2^62 up overflow a byte offset (`4·end`), which
        // once panicked in debug builds and wrapped back in bounds in
        // release builds.
        for huge in [u64::MAX, 1 << 62, 1 << 63] {
            let mut bytes = packed(&sample());
            bytes[RECORDS_AT + 16..RECORDS_AT + 24].copy_from_slice(&huge.to_le_bytes());
            let err = read_binary(&bytes).unwrap_err();
            assert!(err.to_string().contains("item range"), "{huge}: {err}");
        }
    }

    #[test]
    fn times_survive_as_exact_bit_patterns() {
        let file = sample();
        let back = read_binary(&packed(&file)).unwrap();
        for (a, b) in file
            .sequence
            .requests()
            .iter()
            .zip(back.sequence.requests())
        {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
    }
}
