//! Checkpointed daemon state with atomic, durable persistence.
//!
//! [`DaemonState`] is the *entire* recoverable state of a serving run:
//! the streaming co-occurrence statistics (bit-exact via
//! [`StreamingSnapshot`]), the last-good placement, the cost
//! accumulators split by settlement outcome, and the in-flight epoch
//! buffer. Serialisation goes through `mcs_model::json`, whose
//! shortest-round-trip float writer makes save → load the identity on
//! every `f64` bit — the foundation of the crash-recovery guarantee
//! (see `tests/serve_crash_recovery.rs` at the workspace root).
//!
//! [`DaemonState::canonical_json`] streams the state through
//! `mcs_model::json::JsonWriter` in one pass, with no `Json` tree: the
//! same bytes as pretty-printing the tree of
//! [`ToJson::to_json`](mcs_model::json::ToJson::to_json), which the tests
//! keep as the oracle. [`DaemonState::save`] writes those bytes through
//! a 64 KB buffer instead of building the whole document. Loading parses
//! the file (linear in its size) and rejects states the daemon could
//! never have written, including item ids outside the handshake's
//! catalog.
//!
//! # On disk
//!
//! `checkpoint.json` is the state at the start of its `epoch`, with
//! `pending` empty, and together with the WAL segment `wal-<epoch>.log`
//! — which the daemon writes just before the checkpoint, holding copies
//! of the requests not yet settled, and appends every later epoch to —
//! it reconstructs the daemon. It is written to a temporary file that is
//! synced, renamed into place, and made durable by syncing the
//! directory, so a crash (or power loss) mid-write can never destroy the
//! previous checkpoint: recovery sees either the old or the new file,
//! each consistent with the segments still on disk. Only after that does
//! the daemon delete the older segments.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use mcs_correlation::{StreamingCooccurrence, StreamingSnapshot};
use mcs_model::json::{self, FromJson};
use mcs_model::ItemId;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One buffered (admitted, not yet settled) request.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingReq {
    /// Admission time.
    pub time: f64,
    /// Requesting server index.
    pub server: u32,
    /// Sorted, duplicate-free item ids.
    pub items: Vec<u32>,
}

mcs_model::impl_json!(PendingReq {
    time,
    server,
    items
});

/// The full recoverable state of a serving daemon.
///
/// Invariant: an on-disk checkpoint always has `pending` empty (it is
/// written at epoch boundaries, right after a settlement); the in-memory
/// state carries the requests not yet settled — an epoch being solved,
/// then the open epoch — reconstructed from the WAL on recovery. [`DaemonState::canonical_json`] of the in-memory state is
/// the byte-identity witness the crash tests diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonState {
    /// Checkpoint format version.
    pub version: u32,
    /// Fleet size `m` from the handshake.
    pub servers: u32,
    /// Catalog size `k` from the handshake.
    pub items: u32,
    /// The open (not yet settled) epoch index.
    pub epoch: u64,
    /// Total admitted requests, across all epochs.
    pub admitted: u64,
    /// Time of the most recently admitted request (admission requires
    /// strictly increasing times; `0` before the first).
    pub last_time: f64,
    /// Total settled cost.
    pub cum_cost: f64,
    /// Settled cost of epochs that settled `ok`.
    pub ok_cost: f64,
    /// Item accesses of epochs that settled `ok`.
    pub ok_accesses: u64,
    /// Settled cost of degraded (deadline/panic) epochs.
    pub degraded_cost: f64,
    /// Item accesses of degraded epochs.
    pub degraded_accesses: u64,
    /// Indices of degraded epochs, ascending.
    pub degraded_epochs: Vec<u64>,
    /// Last-good placement: packed pairs `(a, b)`, `a < b`.
    pub placement_pairs: Vec<(ItemId, ItemId)>,
    /// Bit-exact streaming co-occurrence statistics.
    pub streaming: StreamingSnapshot,
    /// The admitted requests not yet settled, in admission order: an
    /// epoch being solved, if any, then the open epoch.
    pub pending: Vec<PendingReq>,
}

mcs_model::impl_json!(DaemonState {
    version,
    servers,
    items,
    epoch,
    admitted,
    last_time,
    cum_cost,
    ok_cost,
    ok_accesses,
    degraded_cost,
    degraded_accesses,
    degraded_epochs,
    placement_pairs,
    streaming,
    pending
});

/// The checkpoint path within a serve directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

impl DaemonState {
    /// A fresh state for a new serving run.
    pub fn fresh(servers: u32, items: u32, decay: f64) -> Self {
        DaemonState {
            version: CHECKPOINT_VERSION,
            servers,
            items,
            epoch: 0,
            admitted: 0,
            last_time: 0.0,
            cum_cost: 0.0,
            ok_cost: 0.0,
            ok_accesses: 0,
            degraded_cost: 0.0,
            degraded_accesses: 0,
            degraded_epochs: Vec::new(),
            placement_pairs: Vec::new(),
            streaming: StreamingCooccurrence::new(decay).snapshot(),
            pending: Vec::new(),
        }
    }

    /// The PR 1 degradation-ratio metric, lifted to the serving layer:
    /// average per-access cost of degraded epochs relative to ok epochs.
    /// `None` until both kinds of epoch have settled at least one access.
    pub fn degradation_ratio(&self) -> Option<f64> {
        if self.ok_accesses == 0 || self.degraded_accesses == 0 {
            return None;
        }
        let ok = self.ok_cost / self.ok_accesses as f64;
        if ok <= 0.0 {
            return None;
        }
        Some((self.degraded_cost / self.degraded_accesses as f64) / ok)
    }

    /// The canonical serialized form: deterministic field order, floats
    /// in shortest-round-trip notation. Equal states produce equal
    /// bytes; the crash-recovery gate diffs exactly this. Written in one
    /// pass, byte-identical to `self.to_json().to_string_pretty() + "\n"`.
    pub fn canonical_json(&self) -> String {
        let mut s = json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Atomically and durably persists to `checkpoint.json` in `dir`:
    /// writes a temporary file through a bounded buffer, syncs it, renames
    /// it into place and syncs `dir`, so a crash mid-write leaves the old
    /// checkpoint intact and a returned save survives power loss.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        self.write_checkpoint(dir).map(drop)
    }

    /// [`Self::save`], returning the size of the file written.
    pub(crate) fn write_checkpoint(&self, dir: &Path) -> std::io::Result<u64> {
        debug_assert!(
            self.pending.is_empty(),
            "checkpoints are epoch-boundary snapshots; pending lives in the WAL"
        );
        let tmp = dir.join("checkpoint.json.tmp");
        let mut file = File::create(&tmp)?;
        json::write_pretty(self, &mut file)?;
        file.write_all(b"\n")?;
        file.sync_all()?;
        let bytes = file.metadata()?.len();
        drop(file);
        std::fs::rename(&tmp, checkpoint_path(dir))?;
        File::open(dir)?.sync_all()?;
        Ok(bytes)
    }

    /// Loads a checkpoint if one exists, validating version, catalog and
    /// streaming-state invariants.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON (with position), a
    /// version mismatch, buffered requests (the open epoch lives in the
    /// WAL), an item id outside the catalog of `items`, or an invalid
    /// streaming snapshot.
    pub fn load(dir: &Path) -> Result<Option<Self>, String> {
        Ok(Self::read_checkpoint(dir)?.map(|(state, _)| state))
    }

    /// [`Self::load`], also returning the size of the file read.
    pub(crate) fn read_checkpoint(dir: &Path) -> Result<Option<(Self, u64)>, String> {
        let path = checkpoint_path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let value = json::parse(&text).map_err(|e| {
            let (line, col) = json::line_col(&text, e.at);
            format!(
                "corrupt checkpoint {} at line {line}, column {col}: {}",
                path.display(),
                e.msg
            )
        })?;
        let state = DaemonState::from_json(&value)
            .map_err(|e| format!("corrupt checkpoint {}: {}", path.display(), e.msg))?;
        if state.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                state.version
            ));
        }
        if !state.pending.is_empty() {
            return Err(format!(
                "corrupt checkpoint {}: {} pending requests (the open epoch lives in the WAL)",
                path.display(),
                state.pending.len()
            ));
        }
        // Surface invalid streaming state now, not at first observe.
        StreamingCooccurrence::from_snapshot(&state.streaming)
            .and_then(|_| state.check_catalog())
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?;
        Ok(Some((state, text.len() as u64)))
    }

    /// Rejects item ids at or above `items` in the statistics and the
    /// placement: admission never lets one in, and the placement refresh
    /// indexes per-item tables by id.
    fn check_catalog(&self) -> Result<(), String> {
        let streaming = &self.streaming;
        let ids = [
            (
                "streaming.item_counts",
                streaming.item_counts.iter().map(|&(i, _)| i).max(),
            ),
            (
                "streaming.pair_counts",
                streaming
                    .pair_counts
                    .iter()
                    .map(|&(a, b, _)| a.max(b))
                    .max(),
            ),
            (
                "placement_pairs",
                self.placement_pairs.iter().map(|&(a, b)| a.max(b)).max(),
            ),
        ];
        for (field, max) in ids {
            if let Some(id) = max.filter(|id| id.0 >= self.items) {
                return Err(format!(
                    "{field} names item {} outside the catalog of {} items",
                    id.0, self.items
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpg-ckpt-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated_state() -> DaemonState {
        let mut stream = StreamingCooccurrence::new(0.9);
        let seq = mcs_model::RequestSeqBuilder::new(2, 4)
            .push(0u32, 0.5, [0, 1])
            .push(1u32, 1.25, [2])
            .build()
            .unwrap();
        for r in seq.requests() {
            stream.observe(r);
        }
        DaemonState {
            version: CHECKPOINT_VERSION,
            servers: 2,
            items: 4,
            epoch: 3,
            admitted: 17,
            last_time: 1.25,
            cum_cost: 0.1 + 0.2, // non-representable on purpose
            ok_cost: 0.2,
            ok_accesses: 11,
            degraded_cost: 0.1,
            degraded_accesses: 6,
            degraded_epochs: vec![1],
            placement_pairs: vec![(ItemId(0), ItemId(1))],
            streaming: stream.snapshot(),
            pending: Vec::new(),
        }
    }

    #[test]
    fn save_load_is_the_identity_down_to_the_bits() {
        let dir = tmp_dir("identity");
        let state = populated_state();
        state.save(&dir).unwrap();
        let back = DaemonState::load(&dir).unwrap().unwrap();
        assert_eq!(back, state);
        assert_eq!(back.cum_cost.to_bits(), state.cum_cost.to_bits());
        assert_eq!(back.canonical_json(), state.canonical_json());
        assert!(!dir.join("checkpoint.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let dir = tmp_dir("none");
        assert_eq!(DaemonState::load(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_mismatched_checkpoints_are_rejected() {
        let dir = tmp_dir("reject");
        std::fs::write(checkpoint_path(&dir), "{\n  broken\n}").unwrap();
        let err = DaemonState::load(&dir).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let mut state = populated_state();
        state.version = 99;
        // Bypass save()'s invariants deliberately.
        std::fs::write(checkpoint_path(&dir), state.canonical_json()).unwrap();
        let err = DaemonState::load(&dir).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
