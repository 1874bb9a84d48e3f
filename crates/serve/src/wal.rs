//! Append-only write-ahead log, one file per epoch.
//!
//! Every admitted request is appended (and flushed) to
//! `wal-<epoch>.log` *before* it is applied to in-memory state, and every
//! epoch settlement appends a `settle` record *before* its outcome is
//! applied — so the log, replayed on top of the last checkpoint, always
//! reconstructs the exact pre-crash state. Records are newline-framed
//! text with floats written in shortest-round-trip form (times) or raw
//! bit patterns (settlement costs), so replay is bit-exact.
//!
//! Torn tails are expected, not fatal: `kill -9` mid-append leaves a
//! final line without its newline (or an unparsable fragment), which
//! [`read_records`] discards — the half-written record was by
//! construction never applied, so dropping it is the correct recovery.
//! Recovery then physically truncates the fragment ([`truncate_torn`])
//! before reopening the log for append, so the next record cannot be
//! concatenated onto the torn bytes into one malformed merged line.
//! Corruption *before* the tail is structural damage and is reported as
//! an error instead of silently skipped.
//!
//! Segments are deleted once a durable checkpoint covers them
//! ([`remove_segments_before`], after the checkpoint's rename and
//! directory sync). The deletion lists the directory, so a segment left
//! behind by a crash between the rename and the deletion goes with the
//! next checkpoint; recovery never reads one, since it starts at the
//! checkpoint's epoch.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use mcs_model::{ItemId, ServerId};

use crate::protocol::{parse_line, Frame};

/// How an epoch was settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochStatus {
    /// The solver returned within its deadline.
    Ok,
    /// The solver missed the settlement deadline; last-good placement
    /// fallback pricing was applied.
    Deadline,
    /// The solver panicked (isolated by `catch_unwind`); fallback applied.
    Panic,
}

impl EpochStatus {
    /// Stable on-disk / display label.
    pub fn label(self) -> &'static str {
        match self {
            EpochStatus::Ok => "ok",
            EpochStatus::Deadline => "deadline",
            EpochStatus::Panic => "panic",
        }
    }

    /// True for the two fallback (degraded) outcomes.
    pub fn is_degraded(self) -> bool {
        !matches!(self, EpochStatus::Ok)
    }

    fn from_label(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(EpochStatus::Ok),
            "deadline" => Some(EpochStatus::Deadline),
            "panic" => Some(EpochStatus::Panic),
            _ => None,
        }
    }
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An admitted request (items already validated, sorted, deduped).
    Req {
        /// Admission time.
        time: f64,
        /// Requesting server.
        server: ServerId,
        /// Sorted, duplicate-free item set.
        items: Vec<ItemId>,
    },
    /// The settlement outcome of this file's epoch — always the final
    /// record of a completed epoch log.
    Settle {
        /// How the epoch settled.
        status: EpochStatus,
        /// The settled epoch cost, as raw `f64` bits for exact replay.
        cost_bits: u64,
    },
}

impl WalRecord {
    fn to_line(&self) -> String {
        match self {
            WalRecord::Req {
                time,
                server,
                items,
            } => {
                let csv = items
                    .iter()
                    .map(|i| i.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                // `{:?}` is shortest-round-trip: replay parses the same bits.
                format!("req {time:?} {} {csv}\n", server.0)
            }
            WalRecord::Settle { status, cost_bits } => {
                format!("settle {} {cost_bits:016x}\n", status.label())
            }
        }
    }

    fn parse(text: &str) -> Option<WalRecord> {
        let mut words = text.split_ascii_whitespace();
        match words.next()? {
            "settle" => {
                let status = EpochStatus::from_label(words.next()?)?;
                let cost_bits = u64::from_str_radix(words.next()?, 16).ok()?;
                if words.next().is_some() {
                    return None;
                }
                Some(WalRecord::Settle { status, cost_bits })
            }
            // `req` lines are exactly protocol frames; reuse that parser.
            _ => match parse_line(text, 0).ok()?? {
                Frame::Req {
                    time,
                    server,
                    items,
                } => Some(WalRecord::Req {
                    time,
                    server,
                    items,
                }),
                Frame::Hello { .. } => None,
            },
        }
    }
}

/// The log path of one epoch within the serve directory.
pub fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

/// An open, appendable epoch log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The file's length: what it held when opened plus every append.
    bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the log of `epoch` for appending —
    /// both the live path and the recovery path land here, so a replayed
    /// epoch keeps appending to its existing file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(dir: &Path, epoch: u64) -> std::io::Result<Wal> {
        let path = wal_path(dir, epoch);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(Wal { file, path, bytes })
    }

    /// Appends one record and flushes it to the OS before returning —
    /// the durability point the daemon's write ordering relies on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let line = record.to_line();
        self.file.write_all(line.as_bytes())?;
        self.bytes += line.len() as u64;
        self.file.flush()
    }

    /// The file backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The log's length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Deletes every `wal-<N>.log` in `dir` with `N < epoch`: the segments a
/// checkpoint of `epoch` covers. Lists the directory rather than walking
/// back from `epoch`, so segments a crash left behind go too. Returns how
/// many were deleted.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn remove_segments_before(dir: &Path, epoch: u64) -> std::io::Result<u64> {
    let mut deleted = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let covered = name
            .to_str()
            .and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".log"))
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| n < epoch);
        if covered {
            std::fs::remove_file(entry.path())?;
            deleted += 1;
        }
    }
    Ok(deleted)
}

/// The parsed contents of one epoch log: the records, plus whether a torn
/// tail was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// Complete, well-formed records in append order.
    pub records: Vec<WalRecord>,
    /// True if a half-written final line was discarded.
    pub torn: bool,
    /// Byte length of the parsed prefix — the file offset right after the
    /// last complete record. When `torn`, everything past this offset is
    /// the discarded fragment; [`truncate_torn`] cuts the file here.
    pub valid_len: u64,
}

/// Reads the log of `epoch`, tolerating a torn tail. A missing file is an
/// empty log (the crash window between checkpoint rename and first
/// append of the next epoch).
///
/// # Errors
///
/// Propagates filesystem failures; reports malformed records *before*
/// the final line as corruption ([`std::io::ErrorKind::InvalidData`]).
pub fn read_records(dir: &Path, epoch: u64) -> std::io::Result<WalContents> {
    let path = wal_path(dir, epoch);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalContents {
                records: Vec::new(),
                torn: false,
                valid_len: 0,
            })
        }
        Err(e) => return Err(e),
    };
    // Lossy: a torn multi-byte write can leave invalid UTF-8 in the tail;
    // the replacement characters then simply fail the final-line parse.
    // Every parsed record line is pure ASCII, so replacement expansion can
    // only happen *after* the valid prefix — text offsets within it equal
    // file offsets, which is what makes `valid_len` a file truncation point.
    let text = String::from_utf8_lossy(&bytes);
    let complete_len = text.rfind('\n').map_or(0, |p| p + 1);
    let mut torn = complete_len < text.len();
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let complete = &text[..complete_len];
    let n_lines = complete.split_inclusive('\n').count();
    for (i, raw) in complete.split_inclusive('\n').enumerate() {
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        match WalRecord::parse(line) {
            Some(r) => {
                records.push(r);
                valid_len += raw.len();
            }
            // A malformed *final* complete line is still a torn tail
            // (e.g. the crash landed inside the line and the next run's
            // bytes were never written); anything earlier is corruption.
            None if i + 1 == n_lines => torn = true,
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "corrupt WAL record at {}:{}: `{line}`",
                        path.display(),
                        i + 1
                    ),
                ))
            }
        }
    }
    Ok(WalContents {
        records,
        torn,
        valid_len: valid_len as u64,
    })
}

/// Truncates the log of `epoch` to its valid prefix (the `valid_len`
/// reported by [`read_records`]), physically dropping a torn tail.
/// Recovery calls this before reopening the log for append: without it
/// the next record would be concatenated onto the fragment, producing a
/// malformed merged line that a later recovery reads as mid-log
/// corruption (or silently drops if it happens to be the final line).
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn truncate_torn(dir: &Path, epoch: u64, valid_len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(wal_path(dir, epoch))?;
    file.set_len(valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpg-wal-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Req {
                time: 0.1 + 0.2, // deliberately non-representable: bit test
                server: ServerId(3),
                items: vec![ItemId(0), ItemId(7)],
            },
            WalRecord::Req {
                time: 2.0,
                server: ServerId(0),
                items: vec![ItemId(1)],
            },
            WalRecord::Settle {
                status: EpochStatus::Deadline,
                cost_bits: 4.75_f64.to_bits(),
            },
        ]
    }

    #[test]
    fn append_then_replay_is_exact() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(&dir, 0).unwrap();
        let recs = sample_records();
        for r in &recs {
            wal.append(r).unwrap();
        }
        drop(wal);
        let back = read_records(&dir, 0).unwrap();
        assert!(!back.torn);
        assert_eq!(back.records, recs);
        match (&back.records[0], &recs[0]) {
            (WalRecord::Req { time: a, .. }, WalRecord::Req { time: b, .. }) => {
                assert_eq!(a.to_bits(), b.to_bits(), "time must replay bit-exactly");
            }
            _ => unreachable!(),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, 5).unwrap();
        for r in &sample_records()[..2] {
            wal.append(r).unwrap();
        }
        drop(wal);
        // Simulate kill -9 mid-append: a record missing its newline…
        let path = wal_path(&dir, 5);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"req 3.0 1 0,");
        std::fs::write(&path, &bytes).unwrap();
        let back = read_records(&dir, 5).unwrap();
        assert!(back.torn);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.valid_len, clean_len);
        // …and a complete-but-garbled final line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - b"req 3.0 1 0,".len());
        bytes.extend_from_slice(b"req 3.0 1 0,\xff\xfe\n");
        std::fs::write(&path, &bytes).unwrap();
        let back = read_records(&dir, 5).unwrap();
        assert!(back.torn);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.valid_len, clean_len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_makes_a_torn_log_appendable_again() {
        let dir = tmp_dir("truncate");
        let mut wal = Wal::open(&dir, 9).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        drop(wal);
        let path = wal_path(&dir, 9);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"req 3.0 1 0,");
        std::fs::write(&path, &bytes).unwrap();
        let back = read_records(&dir, 9).unwrap();
        assert!(back.torn);
        truncate_torn(&dir, 9, back.valid_len).unwrap();
        // An append after truncation starts on a fresh line — the merged
        // malformed record the untruncated log would have produced.
        let mut wal = Wal::open(&dir, 9).unwrap();
        wal.append(&recs[1]).unwrap();
        drop(wal);
        let back = read_records(&dir, 9).unwrap();
        assert!(!back.torn);
        assert_eq!(back.records, recs[..2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let dir = tmp_dir("corrupt");
        std::fs::write(
            wal_path(&dir, 1),
            "req 1.0 0 0\ngarbage line\nreq 2.0 0 0\n",
        )
        .unwrap();
        let err = read_records(&dir, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lengths_track_appends_and_covered_segments_are_removed() {
        let dir = tmp_dir("segments");
        for epoch in [0, 3, 7, 12] {
            let mut wal = Wal::open(&dir, epoch).unwrap();
            wal.append(&sample_records()[0]).unwrap();
            assert_eq!(wal.bytes(), std::fs::metadata(wal.path()).unwrap().len());
        }
        let reopened = Wal::open(&dir, 3).unwrap();
        assert_eq!(reopened.bytes(), Wal::open(&dir, 0).unwrap().bytes());
        std::fs::write(dir.join("checkpoint.json"), "{}").unwrap();
        std::fs::write(dir.join("wal-x.log"), "").unwrap();
        assert_eq!(remove_segments_before(&dir, 7).unwrap(), 2);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["checkpoint.json", "wal-12.log", "wal-7.log", "wal-x.log"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmp_dir("missing");
        let back = read_records(&dir, 42).unwrap();
        assert_eq!(
            back,
            WalContents {
                records: vec![],
                torn: false,
                valid_len: 0
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
