//! Append-only write-ahead log, one segment per checkpoint.
//!
//! Every admitted request is appended (and flushed) to the open segment
//! *before* it is applied to in-memory state, and every epoch settlement
//! appends a `settle` record *before* its outcome is applied — so the
//! log, replayed on top of the last checkpoint, always reconstructs the
//! exact pre-crash state. Records are newline-framed text with floats
//! written in shortest-round-trip form (times) or raw bit patterns
//! (settlement costs), so replay is bit-exact. [`Wal`] encodes each record
//! into a buffer it keeps and writes it with one `write`.
//!
//! A segment is `wal-<epoch>.log`, named after the epoch of the
//! checkpoint that opened it, and holds every epoch from there on: the
//! `req` records in admission order, and one `settle <status> <bits> <n>`
//! record per epoch, which settles the oldest `n` requests not yet
//! settled. The daemon solves an epoch while it admits the next one, so
//! an epoch's `settle` record may follow some of the next epoch's `req`
//! records. A `settle` record without `n` settles every request not yet
//! settled; earlier versions wrote only those, each straight after its
//! epoch's last request. A checkpoint starts its segment with copies of
//! the requests not yet settled ([`Wal::create`] truncates a leftover
//! from a rotation that crashed before its checkpoint was renamed into
//! place). Earlier versions also wrote one segment per epoch; recovery
//! reads both layouts, because it moves on from a segment to
//! `wal-<epoch reached>.log` only while the segment ends in a `settle`
//! record that leaves no request unsettled.
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
use mcs_obs::jsonl::push_u64;

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
    /// The settlement outcome of the oldest `requests` requests not yet
    /// settled: one epoch. It follows that epoch's last `req` record,
    /// though not always directly: `req` records of the next epoch,
    /// admitted while the epoch was being solved, may come between.
    Settle {
        /// How the epoch settled.
        status: EpochStatus,
        /// The settled epoch cost, as raw `f64` bits for exact replay.
        cost_bits: u64,
        /// How many requests the epoch holds, at least one; `None` in a
        /// record of an earlier version, which settles every request not
        /// yet settled.
        requests: Option<u64>,
    },
}

impl WalRecord {
    /// Appends the record's line, newline included, to `out`.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Req {
                time,
                server,
                items,
            } => encode_req(out, *time, server.0, items.iter().map(|i| i.0)),
            WalRecord::Settle {
                status,
                cost_bits,
                requests,
            } => {
                write!(out, "settle {} {cost_bits:016x}", status.label())
                    .expect("writing to a Vec cannot fail");
                if let Some(n) = requests {
                    out.push(b' ');
                    push_u64(out, *n);
                }
                out.push(b'\n');
            }
        }
    }

    fn parse(text: &str) -> Option<WalRecord> {
        let mut words = text.split_ascii_whitespace();
        match words.next()? {
            "settle" => {
                let status = EpochStatus::from_label(words.next()?)?;
                let cost_bits = u64::from_str_radix(words.next()?, 16).ok()?;
                let requests = match words.next() {
                    Some(n) => Some(n.parse::<u64>().ok().filter(|&n| n > 0)?),
                    None => None,
                };
                if words.next().is_some() {
                    return None;
                }
                Some(WalRecord::Settle {
                    status,
                    cost_bits,
                    requests,
                })
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

/// Appends `req <time> <server> <items,csv>` and a newline to `out`: the
/// time through `{:?}`, which is shortest-round-trip so replay parses the
/// same bits, and the integers through the allocation-free writer.
fn encode_req(out: &mut Vec<u8>, time: f64, server: u32, items: impl Iterator<Item = u32>) {
    write!(out, "req {time:?} ").expect("writing to a Vec cannot fail");
    push_u64(out, server.into());
    out.push(b' ');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, item.into());
    }
    out.push(b'\n');
}

/// The path of the segment opened at `epoch` within the serve directory.
pub fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

/// An open, appendable log segment.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The file's length: what it held when opened plus every append.
    bytes: u64,
    /// The record being written, reused so an append allocates nothing.
    line: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the segment of `epoch` for appending —
    /// recovery lands here, so a replayed segment keeps growing in place.
    /// Counts `serve.wal_segments` only if it creates the file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(dir: &Path, epoch: u64) -> std::io::Result<Wal> {
        let path = wal_path(dir, epoch);
        let file = match OpenOptions::new().append(true).create_new(true).open(&path) {
            Ok(file) => {
                count_segment();
                file
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                OpenOptions::new().append(true).open(&path)?
            }
            Err(e) => return Err(e),
        };
        let bytes = file.metadata()?.len();
        Ok(Wal::with_file(file, path, bytes))
    }

    /// Creates the segment of `epoch` empty, truncating whatever a
    /// rotation that crashed before its checkpoint's rename left there.
    /// Counts `serve.wal_segments`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(dir: &Path, epoch: u64) -> std::io::Result<Wal> {
        let path = wal_path(dir, epoch);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        count_segment();
        Ok(Wal::with_file(file, path, 0))
    }

    fn with_file(file: File, path: PathBuf, bytes: u64) -> Wal {
        Wal {
            file,
            path,
            bytes,
            line: Vec::new(),
        }
    }

    /// Appends one record and flushes it to the OS before returning —
    /// the durability point the daemon's write ordering relies on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.line.clear();
        record.encode(&mut self.line);
        self.write_line()
    }

    /// [`Self::append`] of a [`WalRecord::Req`] given by its parts: a
    /// checkpoint copies the buffered requests not yet settled, whose ids
    /// are plain integers, into its new segment.
    pub(crate) fn append_req(
        &mut self,
        time: f64,
        server: u32,
        items: &[u32],
    ) -> std::io::Result<()> {
        self.line.clear();
        encode_req(&mut self.line, time, server, items.iter().copied());
        self.write_line()
    }

    fn write_line(&mut self) -> std::io::Result<()> {
        self.file.write_all(&self.line)?;
        self.bytes += self.line.len() as u64;
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

/// Counts a segment file brought into being, where it happens: a daemon
/// that started a file per epoch again would show it even if it wrote
/// checkpoints no more often.
fn count_segment() {
    mcs_obs::counter_add("serve.wal_segments", 1);
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

/// The parsed contents of one segment: the records, plus whether a torn
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

/// Reads the segment of `epoch`, tolerating a torn tail. A missing file is
/// an empty segment: recovery asks for the segment of the epoch a settle
/// record reached, which exists only in the per-epoch layout or when a
/// checkpoint rotation created it.
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

/// Truncates the segment of `epoch` to its valid prefix (the `valid_len`
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
                requests: Some(2),
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

    /// The encoder writes the bytes of the `format!`-built line it
    /// replaced, for every server, item list and time, the non-round ones
    /// included.
    #[test]
    fn records_encode_to_the_formatted_line() {
        fn reference(record: &WalRecord) -> String {
            match record {
                WalRecord::Req {
                    time,
                    server,
                    items,
                } => {
                    let csv: Vec<String> = items.iter().map(|i| i.0.to_string()).collect();
                    format!("req {time:?} {} {}\n", server.0, csv.join(","))
                }
                WalRecord::Settle {
                    status,
                    cost_bits,
                    requests: Some(n),
                } => format!("settle {} {cost_bits:016x} {n}\n", status.label()),
                WalRecord::Settle {
                    status,
                    cost_bits,
                    requests: None,
                } => format!("settle {} {cost_bits:016x}\n", status.label()),
            }
        }
        let mut records = sample_records();
        for (i, time) in [1e-7, 0.25, 1.0, 123_456.789, 1e21, f64::MAX, 5e-324]
            .into_iter()
            .enumerate()
        {
            let n = i as u32;
            records.push(WalRecord::Req {
                time,
                server: ServerId(u32::MAX - n),
                items: (0..=n).map(|k| ItemId(k * 1_000_003)).collect(),
            });
            records.push(WalRecord::Settle {
                status: [EpochStatus::Ok, EpochStatus::Panic][i % 2],
                cost_bits: time.to_bits() >> n,
                requests: [None, Some(1), Some(u64::MAX)][i % 3],
            });
        }
        records.push(WalRecord::Req {
            time: 3.5,
            server: ServerId(0),
            items: vec![ItemId(u32::MAX)],
        });
        let mut line = Vec::new();
        for record in &records {
            line.clear();
            record.encode(&mut line);
            assert_eq!(String::from_utf8(line.clone()).unwrap(), reference(record));
        }
    }

    /// `create` empties a leftover segment, and `append_req` writes the
    /// bytes `append` writes for the same request.
    #[test]
    fn created_segments_start_empty_and_req_parts_encode_alike() {
        let dir = tmp_dir("create");
        std::fs::write(wal_path(&dir, 4), "req 1.0 0 0\nleft over").unwrap();
        let mut wal = Wal::create(&dir, 4).unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append_req(0.1 + 0.2, 3, &[0, 7]).unwrap();
        wal.append_req(2.0, 0, &[1]).unwrap();
        wal.append(&sample_records()[2]).unwrap();
        assert_eq!(wal.bytes(), std::fs::metadata(wal.path()).unwrap().len());
        drop(wal);
        let back = read_records(&dir, 4).unwrap();
        assert!(!back.torn);
        assert_eq!(back.records, sample_records());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `settle` record reads back with its count or, as earlier versions
    /// wrote it, without one; a count of zero or one that is not a number
    /// is malformed, so a final line holding one is a torn tail.
    #[test]
    fn settle_records_parse_with_and_without_their_count() {
        let bits = 2.5_f64.to_bits();
        for (line, requests) in [
            (format!("settle ok {bits:016x} 64"), Some(64)),
            (format!("settle panic {bits:016x}"), None),
        ] {
            let status = if requests.is_some() {
                EpochStatus::Ok
            } else {
                EpochStatus::Panic
            };
            assert_eq!(
                WalRecord::parse(&line),
                Some(WalRecord::Settle {
                    status,
                    cost_bits: bits,
                    requests
                }),
                "{line}"
            );
        }
        for bad in ["0", "-1", "x", "64 1"] {
            let line = format!("settle ok {bits:016x} {bad}");
            assert_eq!(WalRecord::parse(&line), None, "{line}");
        }
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
