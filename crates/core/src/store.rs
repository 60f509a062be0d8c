//! The durable storage engine: a write-ahead log of committed update
//! batches plus binary-snapshot checkpoints.
//!
//! The paper models computation as *update sequences* applied to an
//! object base — which makes logical logging the natural durability
//! story: the on-disk log **is** an update sequence. Every committed
//! batch is appended as one checksummed record carrying the program
//! sources that produced it; recovery loads the latest checkpoint and
//! re-applies the logged tail through the ordinary engine.
//!
//! ## Data directory layout
//!
//! ```text
//! <dir>/checkpoint.ruvock   the checkpoint *chain* (see below)
//! <dir>/wal.log             committed batches since the chain's tip
//! ```
//!
//! **Checkpoint chain** (little-endian): `"RUVOCKPT"` magic + `u16`
//! version, then one [`codec frame`](ruvo_obase::codec::append_frame)
//! per *generation*. A generation's payload is a `u8` kind (0 full /
//! 1 delta), `u64` seq, `u64` epoch, then the body: a full
//! [`ruvo_obase::snapshot`] for kind 0, a
//! [shard delta](ruvo_obase::snapshot::write_delta) for kind 1.
//! Generation 0 is always full; each delta names the `seq` of the
//! generation it builds on. A **full** checkpoint atomically replaces
//! the whole file (tmp + rename + dir sync); a **delta** is appended
//! and fsynced in place — O(dirtied shards), not O(base). A shard is
//! dirty when its versions differ from the state the chain's tip
//! generation holds, which the store keeps as an O(shards)
//! copy-on-write clone; the comparison
//! ([`ObjectBase::version_shards_differing`]) runs when the delta is
//! encoded, off the writer lock for a background checkpoint. The chain
//! is compacted back into a single full generation when the deltas
//! outgrow half the base or number 64 (`COMPACT_FRACTION`,
//! `MAX_DELTA_GENERATIONS`).
//!
//! Chain damage is asymmetric by design: a *torn tail* (crash during
//! a delta append) is dropped — the WAL was not yet truncated, so the
//! log still covers the lost suffix, which [`read_state`] verifies —
//! while a *corrupt interior generation* (bit rot after durability)
//! fails closed with an error naming the generation.
//!
//! **WAL**: `"RUVOWAL\0"` magic + `u16` version, then one
//! [`codec frame`](ruvo_obase::codec::append_frame) per committed
//! batch. Each frame's payload is `u64` seq (of the batch's first
//! transaction), `u64` epoch (append counter), `u32` program count,
//! then per program a `u8` cycle policy and a length-prefixed UTF-8
//! source. A torn or bit-flipped tail record fails its checksum; the
//! valid prefix is kept, the tail dropped and truncated away.
//!
//! The file runs on past the last record: the store writes each record
//! at its cursor (`WAL_HEADER_LEN` + the log's bytes) inside a region
//! it has already filled with zero bytes, and grows that region by
//! whole 64 KiB chunks (`WAL_CHUNK`). A record that would cross the
//! region's end is written together with the zeros up to the next
//! chunk boundary, and the commit's one `fdatasync` makes both durable;
//! every later commit in the chunk overwrites blocks that are already
//! allocated and written, so its `fdatasync` flushes data only, not a
//! new file size through the filesystem journal. The zeros must be
//! real: a hole (`set_len`) or an `fallocate`d unwritten extent still
//! changes block metadata the first time each block is written.
//!
//! A zero length word is the end of the log — no record is empty —
//! so recovery stops there; the zero tail is not counted as dropped
//! bytes. (Without the explicit stop an all-zero frame would pass its
//! checksum, which is zero for zero bytes, and fail only to decode.)
//! Opening keeps a tail that is zeros only as the zeroed region, so
//! the first append after a reopen writes no zeros; a tail holding any
//! non-zero byte is cut after the valid prefix. A checkpoint still
//! truncates the file to the header; the next append zeroes a fresh
//! chunk. Overwriting a partly written block exposes a record
//! to a torn page write exactly as appending to that block does.
//!
//! The cursor advances only once the record's sync succeeds. After a
//! failed write the next append overwrites the same bytes (and zeroes
//! anything the failed one reached past them); after a failed
//! `fdatasync` the store refuses further appends, because what the
//! page cache then holds is unknown.
//!
//! ## Commit pipeline
//!
//! [`Session`](crate::Session) owns an optional [`DurabilitySink`]
//! (none by default: commits live and die with the process);
//! [`WalStore`] is the durable implementation. A commit batch — one
//! program, a group-commit drain, or a whole `transact` block — is
//! appended and fsynced (per
//! [`FsyncPolicy`]) as **one** record *before* the caller is
//! acknowledged and before the serving layer publishes the new head:
//! an acknowledged write is never lost, an unacknowledged torn tail is
//! dropped cleanly. After an append the store checkpoints
//! opportunistically when the log exceeds [`CheckpointPolicy`]
//! (snapshot the current base, then truncate the log).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ruvo_obase::codec::{self, DecodeError, Reader};
use ruvo_obase::{snapshot, ObjectBase, SnapshotFileError, SHARD_COUNT};

use crate::engine::CyclePolicy;

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint chain inside a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ruvock";

const WAL_MAGIC: &[u8; 8] = b"RUVOWAL\0";
const CKPT_MAGIC: &[u8; 8] = b"RUVOCKPT";
const FORMAT_VERSION: u16 = 1;
/// Chain-format version of `checkpoint.ruvock` (v1 was the single
/// monolithic snapshot; v2 is the framed generation chain).
const CKPT_VERSION: u16 = 2;
/// Magic + version.
const WAL_HEADER_LEN: u64 = 10;
/// The WAL grows by whole chunks of real zero bytes (see the
/// [module docs](self)): one file extension per this many log bytes.
const WAL_CHUNK: u64 = 64 * 1024;
/// The block a chunk extension writes its zeros from: one page, since
/// a read-only static is file-backed and counts in the process's
/// resident set once read.
static ZEROS: [u8; 4096] = [0; 4096];
/// Magic + version of the checkpoint chain file.
const CKPT_HEADER_LEN: u64 = 10;

// ----- errors --------------------------------------------------------

/// Why a storage operation failed. Carried by
/// [`Error::Storage`](crate::Error) under
/// [`ErrorKind::Storage`](crate::ErrorKind).
///
/// I/O failures are captured as data (`kind` + message) rather than a
/// live `std::io::Error`, so the unified error stays `Clone` and
/// comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// An I/O operation failed.
    Io {
        /// What was being attempted (`"append"`, `"read"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The `std::io::ErrorKind` of the failure.
        kind: std::io::ErrorKind,
        /// The underlying error message.
        message: String,
    },
    /// A file's bytes could not be decoded (corruption, truncation,
    /// or a format version from a newer ruvo).
    Decode {
        /// The file involved.
        path: String,
        /// The typed decode failure.
        error: DecodeError,
    },
    /// A generation inside the checkpoint chain is damaged *after*
    /// having been made durable (bit rot, manual edits). Unlike a
    /// torn tail this cannot be recovered around: everything stacked
    /// on top of the generation is untrusted, so recovery fails
    /// closed and names the culprit.
    CorruptGeneration {
        /// The chain file involved.
        path: String,
        /// Zero-based index of the damaged generation (0 = the full
        /// base generation).
        generation: u64,
        /// The typed decode failure.
        error: DecodeError,
    },
    /// A logged program failed to re-apply during recovery — the data
    /// directory was written under an incompatible engine
    /// configuration, or by a different program history.
    Replay {
        /// Sequence number of the transaction that failed.
        seq: u64,
        /// Display form of the underlying failure.
        error: String,
    },
    /// The operation does not make sense as requested.
    Misuse(&'static str),
    /// The target directory already contains a database.
    Exists {
        /// The directory involved.
        path: String,
    },
}

impl StorageError {
    pub(crate) fn io(op: &'static str, path: &Path, e: std::io::Error) -> StorageError {
        StorageError::Io {
            op,
            path: path.display().to_string(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, message, .. } => {
                write!(f, "cannot {op} {path}: {message}")
            }
            StorageError::Decode { path, error } => write!(f, "{path}: {error}"),
            StorageError::CorruptGeneration { path, generation, error } => {
                write!(f, "{path}: checkpoint chain generation #{generation} is corrupt: {error}")
            }
            StorageError::Replay { seq, error } => {
                write!(f, "recovery failed replaying transaction #{seq}: {error}")
            }
            StorageError::Misuse(what) => f.write_str(what),
            StorageError::Exists { path } => {
                write!(f, "{path} already contains a ruvo database")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<SnapshotFileError> for StorageError {
    fn from(e: SnapshotFileError) -> StorageError {
        match e {
            SnapshotFileError::Io { op, path, source } => {
                StorageError::io(if op == "read" { "read" } else { "write" }, &path, source)
            }
            SnapshotFileError::Decode { path, source } => {
                StorageError::Decode { path: path.display().to_string(), error: source }
            }
        }
    }
}

// ----- policies ------------------------------------------------------

/// When the WAL is flushed to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record (default): an
    /// acknowledged commit survives OS/machine crashes. Group commit
    /// amortizes this — a drained batch pays one fsync, not one per
    /// transaction.
    #[default]
    Always,
    /// Never fsync appends (checkpoints still sync). Survives process
    /// kills, not power loss — the fastest option for bulk loads.
    Never,
}

/// When an append triggers an automatic checkpoint (persist the
/// current base, truncate the log). Either threshold suffices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the WAL holds this many records.
    pub max_wal_records: u64,
    /// Checkpoint once the WAL holds this many payload bytes.
    pub max_wal_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { max_wal_records: 1024, max_wal_bytes: 8 * 1024 * 1024 }
    }
}

impl CheckpointPolicy {
    /// Never checkpoint automatically (explicit
    /// [`DurabilitySink::checkpoint`] calls — savepoint rollbacks
    /// included — still do, and still compact).
    pub fn never() -> Self {
        CheckpointPolicy { max_wal_records: u64::MAX, max_wal_bytes: u64::MAX }
    }
}

/// A checkpoint rewrites the chain into one full generation once the
/// delta generations' on-disk bytes exceed this fraction of the full
/// base generation's, so reopening decodes at most about
/// `base · (1 + COMPACT_FRACTION)` bytes.
const COMPACT_FRACTION: f64 = 0.5;

/// A checkpoint also compacts once the chain holds this many deltas,
/// whatever their size: it bounds the frames recovery walks.
const MAX_DELTA_GENERATIONS: usize = 64;

// ----- the sink trait ------------------------------------------------

/// One logged program of a commit batch: the source text plus the
/// cycle policy it was compiled under (recovery re-compiles under the
/// same policy, so a program accepted via
/// [`CyclePolicy::RuntimeStability`] replays even if the reopening
/// configuration defaults to `Reject`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalProgram {
    /// Cycle policy the program was compiled under.
    pub cycles: CyclePolicy,
    /// Re-parseable program source (the pretty-printed form).
    /// A shared handle: committing a reused [`crate::CompiledProgram`]
    /// clones the cached rendering instead of re-printing per commit.
    pub source: std::sync::Arc<str>,
}

/// One decoded WAL record: a commit batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number of the batch's first transaction.
    pub seq: u64,
    /// Append epoch (monotone per record).
    pub epoch: u64,
    /// The committed programs, in commit order. Only *successful*
    /// transactions are logged — a batch member that failed its own
    /// commit gate never reaches the record.
    pub programs: Vec<WalProgram>,
}

/// Where committed batches go. [`Session`](crate::Session) writes
/// every commit through its sink when it has one; [`WalStore`] makes
/// them durable.
///
/// Contract: when [`DurabilitySink::append_batch`] returns `Ok`, the
/// batch is as durable as the configured policy promises — callers
/// acknowledge commits (and publish new heads) only after it returns.
/// A checkpoint of any state — including one a savepoint rollback
/// moved backwards to — makes it the durable image: the sink diffs it
/// by content against the state it last wrote, which it need not
/// descend from.
pub trait DurabilitySink: fmt::Debug + Send {
    /// Persist one commit batch as a single record. `current` is the
    /// committed base *after* the batch (for opportunistic
    /// checkpointing).
    fn append_batch(
        &mut self,
        programs: &[WalProgram],
        current: &ObjectBase,
    ) -> Result<(), StorageError>;

    /// Force a checkpoint of `current` now (plan + encode + install
    /// in one synchronous call).
    fn checkpoint(&mut self, current: &ObjectBase) -> Result<CheckpointOutcome, StorageError>;

    /// Decide what the next checkpoint should persist — O(shards),
    /// safe to call under the writer lock. The plan covers the
    /// committed state as of this call; encode it against that state
    /// off-thread with [`encode_checkpoint_plan`] and hand the result
    /// back to [`DurabilitySink::install_checkpoint`].
    fn plan_checkpoint(&self, mode: CheckpointMode) -> CheckpointPlan;

    /// Make an encoded checkpoint durable. The sink re-validates the
    /// plan against the chain (another checkpoint may have landed in
    /// between) and reports [`CheckpointOutcome::Skipped`] instead of
    /// installing a stale delta.
    fn install_checkpoint(
        &mut self,
        encoded: EncodedCheckpoint,
    ) -> Result<CheckpointOutcome, StorageError>;
}

// ----- record encode/decode ------------------------------------------

fn encode_cycles(c: CyclePolicy) -> u8 {
    match c {
        CyclePolicy::Reject => 0,
        CyclePolicy::RuntimeStability => 1,
    }
}

fn decode_cycles(b: u8) -> Result<CyclePolicy, DecodeError> {
    match b {
        0 => Ok(CyclePolicy::Reject),
        1 => Ok(CyclePolicy::RuntimeStability),
        _ => Err(DecodeError::Corrupt("cycle policy tag")),
    }
}

/// Encode one record's payload onto `out` (a frame under construction
/// — see [`codec::append_frame_with`]).
fn encode_record(out: &mut Vec<u8>, seq: u64, epoch: u64, programs: &[WalProgram]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(programs.len() as u32).to_le_bytes());
    for p in programs {
        out.push(encode_cycles(p.cycles));
        out.extend_from_slice(&(p.source.len() as u32).to_le_bytes());
        out.extend_from_slice(p.source.as_bytes());
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let epoch = r.u64()?;
    let count = r.u32()? as usize;
    let mut programs = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let cycles = decode_cycles(r.u8()?)?;
        let len = r.u32()? as usize;
        let source: std::sync::Arc<str> = std::str::from_utf8(r.bytes(len)?)
            .map_err(|_| DecodeError::Corrupt("program utf-8"))?
            .into();
        programs.push(WalProgram { cycles, source });
    }
    if !r.is_empty() {
        return Err(DecodeError::Corrupt("trailing record bytes"));
    }
    Ok(WalRecord { seq, epoch, programs })
}

// ----- checkpoint chain encode/decode --------------------------------

/// Whether a chain generation carries the whole base or only the
/// shards dirtied since the previous generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenerationKind {
    /// A complete [`ruvo_obase::snapshot`] of the base.
    Full,
    /// A [shard delta](ruvo_obase::snapshot::write_delta) on top of
    /// the previous generation.
    Delta,
}

impl fmt::Display for GenerationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GenerationKind::Full => "full",
            GenerationKind::Delta => "delta",
        })
    }
}

/// One generation of the checkpoint chain, as stored on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Full base or shard delta.
    pub kind: GenerationKind,
    /// Transactions folded into the chain up to this generation.
    pub seq: u64,
    /// Append epoch at generation write time.
    pub epoch: u64,
    /// Payload bytes on disk (generation header + body, excluding the
    /// frame length/checksum overhead).
    pub bytes: u64,
    /// Version-table shards this generation carries
    /// ([`SHARD_COUNT`] for a full generation).
    pub dirty_shards: u32,
}

/// A decoded checkpoint chain: the durable state as of transaction
/// `seq`, assembled from one full generation plus any deltas.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Transactions folded into this state.
    pub seq: u64,
    /// Append epoch at checkpoint time.
    pub epoch: u64,
    /// The assembled state.
    pub base: ObjectBase,
    /// The generations the state was assembled from, oldest first.
    pub generations: Vec<GenerationInfo>,
    /// Torn trailing bytes dropped from the chain file — a crash hit
    /// mid-way through a delta append. Safe to drop: the WAL is only
    /// truncated *after* a delta is durable, so the log still covers
    /// the lost suffix (verified by [`read_state`]).
    pub torn_bytes: u64,
}

const GEN_FULL: u8 = 0;
const GEN_DELTA: u8 = 1;
/// kind byte + seq + epoch.
const GEN_HEADER_LEN: usize = 17;

fn encode_generation(kind: GenerationKind, seq: u64, epoch: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(GEN_HEADER_LEN + body.len());
    payload.push(match kind {
        GenerationKind::Full => GEN_FULL,
        GenerationKind::Delta => GEN_DELTA,
    });
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

/// A whole chain file holding exactly one full generation.
fn encode_chain_file(seq: u64, epoch: u64, snapshot_body: &[u8]) -> Vec<u8> {
    let payload = encode_generation(GenerationKind::Full, seq, epoch, snapshot_body);
    let mut out = Vec::with_capacity(CKPT_HEADER_LEN as usize + payload.len() + 16);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    codec::append_frame(&mut out, &payload);
    out
}

/// Decode a chain file into the assembled state plus per-generation
/// metadata.
fn decode_chain(data: &[u8], path: &Path) -> Result<Checkpoint, StorageError> {
    let decode_err = |error| StorageError::Decode { path: path.display().to_string(), error };
    let gen_err = |generation, error| StorageError::CorruptGeneration {
        path: path.display().to_string(),
        generation,
        error,
    };
    if data.len() < CKPT_HEADER_LEN as usize {
        return Err(decode_err(DecodeError::Truncated));
    }
    if &data[..8] != CKPT_MAGIC {
        return Err(decode_err(DecodeError::BadMagic));
    }
    let version = u16::from_le_bytes(data[8..10].try_into().expect("2 bytes"));
    if version != CKPT_VERSION {
        return Err(decode_err(DecodeError::BadVersion(version)));
    }

    let body = &data[CKPT_HEADER_LEN as usize..];
    let mut frames = codec::Frames::new(body);
    let mut base: Option<ObjectBase> = None;
    let mut generations: Vec<GenerationInfo> = Vec::new();
    let mut torn_bytes = 0u64;
    loop {
        let k = generations.len() as u64;
        match frames.next() {
            Some(Ok(payload)) => {
                let mut r = Reader::new(payload);
                let kind = r.u8().map_err(|e| gen_err(k, e))?;
                let seq = r.u64().map_err(|e| gen_err(k, e))?;
                let epoch = r.u64().map_err(|e| gen_err(k, e))?;
                let gen_body = r.bytes(r.remaining()).expect("remaining bytes");
                let prev = generations.last().copied();
                if let Some(p) = prev {
                    if seq < p.seq {
                        return Err(gen_err(k, DecodeError::Corrupt("generation seq regressed")));
                    }
                }
                let dirty_shards = match (kind, &mut base) {
                    (GEN_FULL, None) => {
                        base = Some(snapshot::read(gen_body).map_err(|e| gen_err(k, e))?);
                        SHARD_COUNT as u32
                    }
                    (GEN_FULL, Some(_)) => {
                        // The writer only produces a full generation as
                        // frame 0 (compaction replaces the whole file).
                        return Err(gen_err(k, DecodeError::Corrupt("full generation mid-chain")));
                    }
                    (GEN_DELTA, Some(ob)) => {
                        let info =
                            snapshot::apply_delta(ob, gen_body).map_err(|e| gen_err(k, e))?;
                        let p = prev.expect("base implies a previous generation");
                        if info.base_seq != p.seq {
                            return Err(gen_err(
                                k,
                                DecodeError::Corrupt("delta base-seq does not match the chain"),
                            ));
                        }
                        info.dirty_shards() as u32
                    }
                    (GEN_DELTA, None) => {
                        return Err(gen_err(k, DecodeError::Corrupt("chain starts with a delta")));
                    }
                    _ => return Err(gen_err(k, DecodeError::Corrupt("generation kind tag"))),
                };
                generations.push(GenerationInfo {
                    kind: if kind == GEN_FULL {
                        GenerationKind::Full
                    } else {
                        GenerationKind::Delta
                    },
                    seq,
                    epoch,
                    bytes: payload.len() as u64,
                    dirty_shards,
                });
            }
            // An incomplete trailing frame is a torn delta append: the
            // crash preceded WAL truncation, so the log still covers
            // it — drop the tail. Generation 0 is written atomically
            // (tmp + rename) and can only be short via rot: fail.
            Some(Err(DecodeError::Truncated)) if !generations.is_empty() => {
                torn_bytes = (body.len() - frames.good_offset()) as u64;
                break;
            }
            // A *complete* frame that fails its checksum is bit rot of
            // already-durable data: fail closed, naming the culprit.
            Some(Err(error)) => return Err(gen_err(k, error)),
            None => break,
        }
    }
    let Some(base) = base else {
        return Err(gen_err(0, DecodeError::Truncated));
    };
    let last = generations.last().expect("base implies a generation");
    Ok(Checkpoint { seq: last.seq, epoch: last.epoch, base, generations, torn_bytes })
}

// ----- split-phase checkpoints ---------------------------------------

/// How [`DurabilitySink::plan_checkpoint`] chooses the generation
/// kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Delta when possible, full when required (no chain yet, an
    /// unknown chain tail, or a chain due for compaction; see the
    /// [module docs](self)).
    Auto,
    /// Always write a fresh full generation, compacting the chain.
    ForceFull,
}

#[derive(Clone, Debug)]
enum PlannedKind {
    Full,
    Delta {
        base_seq: u64,
        /// The state the chain's tip generation holds (an O(shards)
        /// structural-sharing clone) — the diff base for the delta's
        /// dirty shards and removed-vid lists. See
        /// [`snapshot::write_delta`]. Boxed so a `Full` plan is not
        /// sized for the delta machinery.
        prev: Box<ObjectBase>,
    },
}

/// What the next checkpoint will persist: captured under the writer
/// lock in O(shards), encoded anywhere (a background thread, say)
/// against the matching base snapshot, installed back under the lock.
#[derive(Clone, Debug)]
pub struct CheckpointPlan {
    kind: PlannedKind,
    seq: u64,
    epoch: u64,
}

impl CheckpointPlan {
    /// True when the plan writes a full generation.
    pub fn is_full(&self) -> bool {
        matches!(self.kind, PlannedKind::Full)
    }
}

/// The CPU-heavy product of [`encode_checkpoint_plan`], ready for
/// [`DurabilitySink::install_checkpoint`].
#[derive(Clone, Debug)]
pub struct EncodedCheckpoint {
    plan: CheckpointPlan,
    body: ruvo_obase::Bytes,
    /// The encoded state itself (an O(shards) clone of the base the
    /// plan was taken against): once installed it becomes the store's
    /// diff reference for the *next* delta.
    state: ObjectBase,
    /// Version-table shards the body carries ([`SHARD_COUNT`] for a
    /// full generation).
    dirty_shards: u32,
}

/// Drop a value off the caller's critical path, on a detached thread.
///
/// A superseded diff-reference base can share little or nothing with
/// the live state (the commit path extracts fresh bases), so its
/// deallocation is O(facts) — tens of milliseconds at memory-resident
/// sizes, which would otherwise land on every synchronous delta
/// checkpoint. If the thread cannot be spawned the value is simply
/// dropped inline.
fn retire<T: Send + 'static>(value: T) {
    let _ = std::thread::Builder::new().name("ruvo-retire".into()).spawn(move || drop(value));
}

/// Encode a planned generation's body — pure CPU, no store access, so
/// it can run on a background thread while the writer keeps
/// committing. `base` must be the same state (an `Arc`-cheap clone of
/// it) that the plan was taken against. A delta carries exactly the
/// version-table shards whose contents differ from the chain tip's.
pub fn encode_checkpoint_plan(plan: &CheckpointPlan, base: &ObjectBase) -> EncodedCheckpoint {
    let (body, dirty_shards) = match &plan.kind {
        PlannedKind::Full => (snapshot::write(base), SHARD_COUNT as u32),
        PlannedKind::Delta { base_seq, prev } => {
            let dirty = base.version_shards_differing(prev);
            let count = dirty.iter().filter(|d| **d).count() as u32;
            (snapshot::write_delta(base, prev, &dirty, *base_seq), count)
        }
    };
    EncodedCheckpoint { plan: plan.clone(), body, state: base.clone(), dirty_shards }
}

/// What a checkpoint attempt actually wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// A full generation replaced the chain.
    Full {
        /// Payload bytes written.
        bytes: u64,
    },
    /// A delta generation was appended to the chain.
    Delta {
        /// Payload bytes written.
        bytes: u64,
        /// Shards the delta carries.
        dirty_shards: u32,
    },
    /// Nothing was written: the sink is volatile, the base was
    /// entirely clean, or the chain advanced past the plan before it
    /// could be installed.
    Skipped,
}

impl fmt::Display for CheckpointOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointOutcome::Full { bytes } => write!(f, "full checkpoint ({bytes} bytes)"),
            CheckpointOutcome::Delta { bytes, dirty_shards } => {
                write!(f, "delta checkpoint ({bytes} bytes, {dirty_shards} dirty shard(s))")
            }
            CheckpointOutcome::Skipped => write!(f, "checkpoint skipped (nothing to write)"),
        }
    }
}

// ----- reading a data directory --------------------------------------

/// What a read of a data directory found (see [`read_state`]).
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Valid WAL records (after the checkpoint's seq).
    pub wal_records: u64,
    /// Programs across those records.
    pub wal_programs: u64,
    /// WAL payload bytes past the file header.
    pub wal_bytes: u64,
    /// Bytes of torn/corrupt tail that will be dropped: from the end
    /// of the valid prefix to the file's last non-zero byte (the zero
    /// tail past the log's end is not damage).
    pub dropped_bytes: u64,
    /// Valid records skipped because an existing checkpoint already
    /// covers them (left behind by a crash between checkpoint rename
    /// and log truncation).
    pub skipped_records: u64,
}

/// The decoded durable state of a data directory.
#[derive(Debug)]
pub struct StoreState {
    /// The checkpoint, if one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Valid tail records to replay, in order.
    pub records: Vec<WalRecord>,
    /// Scan accounting.
    pub stats: ScanStats,
    /// Offset in `wal.log` just past the last valid record.
    good_offset: u64,
    /// Whether `wal.log` exists at all.
    wal_exists: bool,
}

/// Decode a WAL file's bytes: the records after `base_seq`, the scan
/// accounting, and the offset just past the last valid record. Only a
/// damaged header is an error; damage after it ends the valid prefix.
fn scan_wal(data: &[u8], base_seq: u64) -> Result<(Vec<WalRecord>, ScanStats, u64), DecodeError> {
    let mut stats = ScanStats::default();
    let mut records = Vec::new();
    let mut full_header = [0u8; WAL_HEADER_LEN as usize];
    full_header[..8].copy_from_slice(WAL_MAGIC);
    full_header[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    if data.len() < WAL_HEADER_LEN as usize {
        // A header prefix is a torn first write (the header is not
        // fsynced on creation): recoverable — the opener rewrites it.
        // Anything else is not our file.
        if !full_header.starts_with(data) {
            return Err(DecodeError::BadMagic);
        }
        return Ok((records, stats, WAL_HEADER_LEN));
    }
    if &data[..8] != WAL_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_le_bytes(data[8..10].try_into().expect("2 bytes"));
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let body = &data[WAL_HEADER_LEN as usize..];
    let mut frames = codec::Frames::new(body);
    let mut good = 0usize;
    loop {
        // A zero length word ends the log: no record is empty, and the
        // store fills the file ahead of its cursor with zeros. Checked
        // first because an all-zero frame would pass its checksum (the
        // checksum of zeros is zero).
        if body[good..].iter().take(4).all(|&b| b == 0) {
            break;
        }
        // `Frames` advances past a frame before we can decode its
        // payload, so `good` only moves once a record fully decodes: a
        // checksum-valid but undecodable frame must NOT end up inside
        // the kept prefix (truncating past it would bury it in front
        // of future appends, poisoning every later recovery).
        match frames.next() {
            Some(Ok(payload)) => match decode_record(payload) {
                Ok(rec) if rec.seq < base_seq => {
                    stats.skipped_records += 1;
                    good = frames.good_offset();
                }
                Ok(rec) => {
                    stats.wal_records += 1;
                    stats.wal_programs += rec.programs.len() as u64;
                    records.push(rec);
                    good = frames.good_offset();
                }
                // Checksum-valid but undecodable: treat like a torn
                // tail — keep the prefix *before* this frame, drop from
                // here.
                Err(_) => break,
            },
            Some(Err(_)) | None => break,
        }
    }
    // Damage runs to the last non-zero byte: the zeros after it are the
    // unused tail, whether or not a torn record precedes them. The tail
    // is compared a block at a time.
    let zero_tail: usize =
        body.rchunks(256).take_while(|c| *c == &ZEROS[..c.len()]).map(<[u8]>::len).sum();
    let damaged_end =
        body[..body.len() - zero_tail].iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    stats.dropped_bytes = damaged_end.saturating_sub(good) as u64;
    stats.wal_bytes = good as u64;
    Ok((records, stats, WAL_HEADER_LEN + good as u64))
}

/// Read (without modifying) the durable state under `dir`: the
/// checkpoint chain, the valid WAL tail, and what will be dropped.
/// This is what `ruvo recover` prints and what [`WalStore::open`]
/// builds on.
///
/// A corrupt *generation* in the chain is a hard error — it is part
/// of the recovery base and cannot be partially trusted. A torn chain
/// *tail* (crash during a delta append) is dropped, but only if the
/// WAL still covers the suffix. A torn WAL tail is expected after a
/// crash and reported, not failed.
pub fn read_state(dir: &Path) -> Result<StoreState, StorageError> {
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let checkpoint = if ckpt_path.exists() {
        let data =
            std::fs::read(&ckpt_path).map_err(|e| StorageError::io("read", &ckpt_path, e))?;
        Some(decode_chain(&data, &ckpt_path)?)
    } else {
        None
    };
    let base_seq = checkpoint.as_ref().map_or(0, |c| c.seq);

    let wal_path = dir.join(WAL_FILE);
    let wal_exists = wal_path.exists();
    let (records, stats, good_offset) = if wal_exists {
        let data = std::fs::read(&wal_path).map_err(|e| StorageError::io("read", &wal_path, e))?;
        scan_wal(&data, base_seq)
            .map_err(|error| StorageError::Decode { path: wal_path.display().to_string(), error })?
    } else {
        (Vec::new(), ScanStats::default(), WAL_HEADER_LEN)
    };
    // Replay must pick up exactly where the chain ends. A gap means a
    // chain suffix was lost *after* the WAL stopped covering it (bit
    // rot tearing an already-truncated-behind generation) — dropping
    // the torn tail would silently resurrect an older state, so fail
    // closed instead.
    if let Some(c) = &checkpoint {
        if records.first().is_some_and(|r| r.seq > c.seq) {
            return Err(StorageError::CorruptGeneration {
                path: ckpt_path.display().to_string(),
                generation: c.generations.len() as u64,
                error: DecodeError::Corrupt("log does not reach the end of the chain"),
            });
        }
    }
    Ok(StoreState { checkpoint, records, stats, good_offset, wal_exists })
}

// ----- the WAL store -------------------------------------------------

/// What [`WalStore::open`] recovered alongside the store handle.
#[derive(Debug)]
pub struct Opened {
    /// The ready-to-append store.
    pub store: WalStore,
    /// The checkpoint state, if any.
    pub checkpoint: Option<Checkpoint>,
    /// The valid WAL tail to replay on top of it.
    pub records: Vec<WalRecord>,
    /// Scan accounting (dropped bytes, skipped records, …).
    pub stats: ScanStats,
}

impl Opened {
    /// True when the directory held no durable state at all.
    pub fn is_fresh(&self) -> bool {
        self.checkpoint.is_none() && self.records.is_empty()
    }
}

/// In-memory accounting of the on-disk checkpoint chain.
#[derive(Clone, Debug)]
struct ChainState {
    /// Generations on disk, oldest first (index 0 is the full base).
    generations: Vec<GenerationInfo>,
    /// The state the tip generation holds (an O(shards)
    /// structural-sharing clone): what the next delta diffs against.
    tip: ObjectBase,
}

impl ChainState {
    fn seq(&self) -> u64 {
        self.generations.last().expect("chains are never empty").seq
    }

    /// Valid file length — the append offset for the next delta.
    fn file_len(&self) -> u64 {
        let frames = self.generations.iter().map(|g| g.bytes + codec::FRAME_OVERHEAD as u64);
        CKPT_HEADER_LEN + frames.sum::<u64>()
    }
}

/// The durable [`DurabilitySink`]: append-on-commit WAL plus an
/// incremental checkpoint chain in a data directory. See the
/// [module docs](self) for formats and the crash matrix.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    wal_path: PathBuf,
    ckpt_path: PathBuf,
    wal: File,
    /// Next transaction sequence number (monotone across reopens).
    seq: u64,
    /// Append epoch of the most recent record/checkpoint.
    epoch: u64,
    wal_records: u64,
    /// Bytes past the WAL header (i.e. the append offset is
    /// `WAL_HEADER_LEN + wal_bytes`).
    wal_bytes: u64,
    /// Every byte from the append offset up to here is a written zero
    /// (normally the file's length).
    zeroed_to: u64,
    /// No byte at or past here was written since the file was last
    /// cut: above `zeroed_to` only after a failed append, whose bytes
    /// the next extension overwrites with zeros.
    written_to: u64,
    /// The frame under construction, kept between appends.
    frame: Vec<u8>,
    fsync: FsyncPolicy,
    policy: CheckpointPolicy,
    /// Set when an append's `fdatasync` failed: what the file holds
    /// past the cursor is unknown, so further appends must refuse.
    wedged: bool,
    /// The checkpoint chain on disk (`None`: no chain yet, or its
    /// tail state became unknown after a failed delta append — either
    /// way the next checkpoint is a full rewrite).
    chain: Option<ChainState>,
}

impl WalStore {
    /// Open (or create) the store under `dir`, returning the decoded
    /// durable state to replay. A torn or corrupt WAL tail is dropped
    /// and truncated away so subsequent appends extend the valid
    /// prefix (a tail of zeros only stays, as the zeroed region);
    /// likewise a torn checkpoint-chain tail (the WAL is verified to
    /// cover it).
    pub fn open(
        dir: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        policy: CheckpointPolicy,
    ) -> Result<Opened, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::io("create", &dir, e))?;
        let state = read_state(&dir)?;

        let wal_path = dir.join(WAL_FILE);
        let mut wal = OpenOptions::new()
            .create(true)
            .truncate(false) // append-only: existing records must survive
            .read(true)
            .write(true)
            .open(&wal_path)
            .map_err(|e| StorageError::io("open", &wal_path, e))?;
        let mut file_len =
            wal.metadata().map_err(|e| StorageError::io("stat", &wal_path, e))?.len();
        if !state.wal_exists || file_len < WAL_HEADER_LEN {
            // Fresh file, or a header torn by a crash before its first
            // byte cycle completed (read_state verified the fragment
            // is a prefix of our header): (re)write it whole.
            wal.set_len(0).map_err(|e| StorageError::io("truncate", &wal_path, e))?;
            wal.seek(SeekFrom::Start(0)).map_err(|e| StorageError::io("seek", &wal_path, e))?;
            wal.write_all(WAL_MAGIC).map_err(|e| StorageError::io("write", &wal_path, e))?;
            wal.write_all(&FORMAT_VERSION.to_le_bytes())
                .map_err(|e| StorageError::io("write", &wal_path, e))?;
            file_len = WAL_HEADER_LEN;
        } else if state.stats.dropped_bytes > 0 {
            // Drop the torn tail so the next append extends the valid
            // prefix instead of burying records behind garbage. A tail
            // of zeros only is kept as the zeroed region: the next
            // appends overwrite it without writing a chunk again. One
            // non-zero byte anywhere past the prefix cuts it all, since
            // a torn frame can leave payload behind a zero length word.
            wal.set_len(state.good_offset)
                .map_err(|e| StorageError::io("truncate", &wal_path, e))?;
            file_len = state.good_offset;
        }

        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let chain = match &state.checkpoint {
            Some(c) => {
                let chain = ChainState { generations: c.generations.clone(), tip: c.base.clone() };
                if c.torn_bytes > 0 {
                    // Cut the torn delta append away so the next delta
                    // extends the valid prefix.
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&ckpt_path)
                        .map_err(|e| StorageError::io("open", &ckpt_path, e))?;
                    f.set_len(chain.file_len())
                        .map_err(|e| StorageError::io("truncate", &ckpt_path, e))?;
                }
                Some(chain)
            }
            None => None,
        };

        let ckpt_seq = state.checkpoint.as_ref().map_or(0, |c| c.seq);
        let ckpt_epoch = state.checkpoint.as_ref().map_or(0, |c| c.epoch);
        let seq = state
            .records
            .last()
            .map_or(ckpt_seq, |r| r.seq + r.programs.len() as u64)
            .max(ckpt_seq);
        let epoch = state.records.last().map_or(ckpt_epoch, |r| r.epoch).max(ckpt_epoch);

        let store = WalStore {
            dir,
            wal_path,
            ckpt_path,
            wal,
            seq,
            epoch,
            wal_records: state.stats.wal_records + state.stats.skipped_records,
            wal_bytes: state.good_offset - WAL_HEADER_LEN,
            zeroed_to: file_len,
            written_to: file_len,
            frame: Vec::new(),
            fsync,
            policy,
            wedged: false,
            chain,
        };
        Ok(Opened {
            store,
            checkpoint: state.checkpoint,
            records: state.records,
            stats: state.stats,
        })
    }

    /// The data directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next transaction sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records currently in the WAL (since the last checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// WAL payload bytes since the last checkpoint.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Metadata of the on-disk checkpoint chain, oldest generation
    /// first (empty when no chain exists yet).
    pub fn chain_generations(&self) -> &[GenerationInfo] {
        self.chain.as_ref().map_or(&[], |c| &c.generations)
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        self.wal.sync_data().map_err(|e| StorageError::io("fsync", &self.wal_path, e))
    }

    fn compaction_due(&self) -> bool {
        let Some(c) = &self.chain else { return false };
        let (base, deltas) = c.generations.split_first().expect("chains are never empty");
        let delta_bytes: u64 = deltas.iter().map(|g| g.bytes).sum();
        deltas.len() >= MAX_DELTA_GENERATIONS
            || (delta_bytes as f64) > (base.bytes as f64) * COMPACT_FRACTION
    }

    /// Truncate the WAL after a generation covering `plan_seq` became
    /// durable — but only if nothing was appended since the plan was
    /// taken: a background install races ongoing commits, and those
    /// records are NOT covered by the generation. Recovery's stale
    /// filter (`rec.seq < chain.seq`) makes the untruncated leftovers
    /// harmless; the next checkpoint reclaims the space.
    fn maybe_truncate_wal(&mut self, plan_seq: u64) -> Result<(), StorageError> {
        if self.seq != plan_seq {
            return Ok(());
        }
        self.wal
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| StorageError::io("truncate", &self.wal_path, e))?;
        self.sync_wal()?;
        self.wal_records = 0;
        self.wal_bytes = 0;
        self.zeroed_to = WAL_HEADER_LEN;
        self.written_to = WAL_HEADER_LEN;
        Ok(())
    }

    fn install_full(&mut self, enc: EncodedCheckpoint) -> Result<CheckpointOutcome, StorageError> {
        let EncodedCheckpoint { plan, body, state, .. } = enc;
        // Atomic replace: write + sync a temp file, rename over the
        // final name, sync the directory. A crash at any point leaves
        // either the old chain or the new checkpoint fully intact
        // (the tmp file is ignored — and clobbered — by recovery).
        let bytes = encode_chain_file(plan.seq, plan.epoch, &body);
        let payload_len = (bytes.len() as u64) - CKPT_HEADER_LEN - codec::FRAME_OVERHEAD as u64;
        let tmp_path = self.dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        {
            let mut tmp =
                File::create(&tmp_path).map_err(|e| StorageError::io("create", &tmp_path, e))?;
            tmp.write_all(&bytes).map_err(|e| StorageError::io("write", &tmp_path, e))?;
            tmp.sync_all().map_err(|e| StorageError::io("fsync", &tmp_path, e))?;
        }
        std::fs::rename(&tmp_path, &self.ckpt_path)
            .map_err(|e| StorageError::io("rename", &tmp_path, e))?;
        // Persist the rename itself before touching the log: if the
        // directory fsync cannot be confirmed, truncating would open
        // a loss window (power failure could resurrect the *old*
        // chain next to an already-emptied WAL).
        let d = File::open(&self.dir).map_err(|e| StorageError::io("open", &self.dir, e))?;
        d.sync_all().map_err(|e| StorageError::io("fsync", &self.dir, e))?;

        let chain = ChainState {
            generations: vec![GenerationInfo {
                kind: GenerationKind::Full,
                seq: plan.seq,
                epoch: plan.epoch,
                bytes: payload_len,
                dirty_shards: SHARD_COUNT as u32,
            }],
            tip: state,
        };
        let seq = plan.seq;
        retire((self.chain.replace(chain), plan));
        self.maybe_truncate_wal(seq)?;
        Ok(CheckpointOutcome::Full { bytes: payload_len })
    }

    fn install_delta(&mut self, enc: EncodedCheckpoint) -> Result<CheckpointOutcome, StorageError> {
        let EncodedCheckpoint { plan, body, state, dirty_shards } = enc;
        let payload = encode_generation(GenerationKind::Delta, plan.seq, plan.epoch, &body);
        let mut frame = Vec::with_capacity(payload.len() + codec::FRAME_OVERHEAD);
        codec::append_frame(&mut frame, &payload);

        let file_len = self.chain.as_ref().expect("install_delta requires a chain").file_len();
        let append = (|| -> std::io::Result<()> {
            let mut f = OpenOptions::new().write(true).open(&self.ckpt_path)?;
            // Seek to the *known-valid* length rather than the end:
            // if an earlier failed append left garbage, overwrite it.
            f.seek(SeekFrom::Start(file_len))?;
            f.write_all(&frame)?;
            f.set_len(file_len + frame.len() as u64)?;
            f.sync_all()?;
            Ok(())
        })();
        if let Err(e) = append {
            // The chain tail is now unknown (a partial frame may or
            // may not be on disk). Recovery handles it as a torn tail;
            // in-process, forget the chain so the next checkpoint is
            // a full atomic rewrite, which heals everything.
            retire((self.chain.take(), plan, state));
            return Err(StorageError::io("append", &self.ckpt_path, e));
        }

        let chain = self.chain.as_mut().expect("checked above");
        chain.generations.push(GenerationInfo {
            kind: GenerationKind::Delta,
            seq: plan.seq,
            epoch: plan.epoch,
            bytes: payload.len() as u64,
            dirty_shards,
        });
        let seq = plan.seq;
        retire((std::mem::replace(&mut chain.tip, state), plan));
        self.maybe_truncate_wal(seq)?;
        Ok(CheckpointOutcome::Delta { bytes: payload.len() as u64, dirty_shards })
    }
}

impl DurabilitySink for WalStore {
    fn append_batch(
        &mut self,
        programs: &[WalProgram],
        current: &ObjectBase,
    ) -> Result<(), StorageError> {
        if programs.is_empty() {
            return Ok(());
        }
        if self.wedged {
            return Err(StorageError::Misuse(
                "wal wedged by an earlier failed fsync; reopen the database",
            ));
        }
        let cursor = WAL_HEADER_LEN + self.wal_bytes;
        self.frame.clear();
        let (seq, epoch) = (self.seq, self.epoch + 1);
        codec::append_frame_with(&mut self.frame, |out| encode_record(out, seq, epoch, programs));
        let end = cursor + self.frame.len() as u64;
        // Past the zeroed region, write zeros up to the next chunk
        // boundary (and over whatever a failed append left) in this
        // same commit, so this one `fdatasync` also makes them durable.
        let fill_to = if end > self.zeroed_to {
            end.max(self.written_to).next_multiple_of(WAL_CHUNK)
        } else {
            end
        };
        let written = (|| {
            let mut wal = &self.wal;
            // Zeros before the record: a write that fails part-way then
            // never leaves a whole record on disk that its caller was
            // told had failed.
            if fill_to > end {
                wal.seek(SeekFrom::Start(end))?;
                let mut zeros = fill_to - end;
                while zeros > 0 {
                    let n = zeros.min(ZEROS.len() as u64);
                    wal.write_all(&ZEROS[..n as usize])?;
                    zeros -= n;
                }
            }
            wal.seek(SeekFrom::Start(cursor))?;
            wal.write_all(&self.frame)
        })();
        if self.frame.capacity() > WAL_CHUNK as usize {
            // Keep a buffer the size of a commit, not of a bulk load.
            self.frame = Vec::new();
        }
        if let Err(e) = written {
            // The cursor stays put: the next append overwrites whatever
            // part of this one reached the file, and re-zeroes from the
            // cursor on.
            self.zeroed_to = cursor;
            self.written_to = self.written_to.max(fill_to);
            return Err(StorageError::io("append", &self.wal_path, e));
        }
        let synced = match self.fsync {
            FsyncPolicy::Always => self.sync_wal(),
            FsyncPolicy::Never => Ok(()),
        };
        if let Err(e) = synced {
            // After a failed fsync the page cache may or may not hold
            // the record; no later append may be acknowledged beside it.
            self.wedged = true;
            return Err(e);
        }

        self.seq += programs.len() as u64;
        self.epoch += 1;
        self.wal_records += 1;
        self.wal_bytes = end - WAL_HEADER_LEN;
        self.zeroed_to = self.zeroed_to.max(fill_to);
        self.written_to = self.written_to.max(fill_to);

        if self.wal_records >= self.policy.max_wal_records
            || self.wal_bytes >= self.policy.max_wal_bytes
        {
            // Best-effort: the record above is already durable, and a
            // failed checkpoint leaves the log intact (truncation only
            // happens after the new checkpoint is fully durable), so
            // recovery stays correct either way. Failing the commit
            // here would roll back memory while the record stays in
            // the log — divergence on the next recovery — so the
            // error is deferred: the counters stay over threshold, the
            // checkpoint retries on the next append, and explicit
            // `checkpoint()` calls still propagate failures.
            let _ = self.checkpoint(current);
        }
        Ok(())
    }

    fn checkpoint(&mut self, current: &ObjectBase) -> Result<CheckpointOutcome, StorageError> {
        let plan = self.plan_checkpoint(CheckpointMode::Auto);
        let enc = encode_checkpoint_plan(&plan, current);
        let r = self.install_checkpoint(enc);
        // The plan holds a reference to the previous diff base; if the
        // install retired the store's own reference, this one is the
        // last — don't pay its O(facts) drop here.
        retire(plan);
        r
    }

    fn plan_checkpoint(&self, mode: CheckpointMode) -> CheckpointPlan {
        let kind = match &self.chain {
            Some(chain) if mode == CheckpointMode::Auto && !self.compaction_due() => {
                PlannedKind::Delta { base_seq: chain.seq(), prev: Box::new(chain.tip.clone()) }
            }
            _ => PlannedKind::Full,
        };
        CheckpointPlan { kind, seq: self.seq, epoch: self.epoch }
    }

    fn install_checkpoint(
        &mut self,
        encoded: EncodedCheckpoint,
    ) -> Result<CheckpointOutcome, StorageError> {
        let PlannedKind::Delta { base_seq, .. } = &encoded.plan.kind else {
            return self.install_full(encoded);
        };
        match &self.chain {
            Some(c) if c.seq() == *base_seq => {
                if encoded.dirty_shards == 0 && encoded.plan.seq == c.seq() {
                    // Nothing changed since the last generation at
                    // all — don't grow the chain.
                    self.maybe_truncate_wal(encoded.plan.seq)?;
                    return Ok(CheckpointOutcome::Skipped);
                }
                self.install_delta(encoded)
            }
            // Another checkpoint moved the chain while this one was
            // encoding: the delta no longer stacks. The competing
            // generation covers at least as much.
            _ => Ok(CheckpointOutcome::Skipped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid, sym};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ruvo-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn base(n: i64) -> ObjectBase {
        let mut ob = ObjectBase::new();
        for i in 0..n {
            ob.insert(
                ruvo_term::Vid::object(oid(&format!("o{i}"))),
                sym("m"),
                ruvo_obase::Args::empty(),
                int(i),
            );
        }
        ob
    }

    fn prog(src: &str) -> WalProgram {
        WalProgram { cycles: CyclePolicy::Reject, source: src.into() }
    }

    #[test]
    fn record_roundtrip() {
        let rec = WalRecord {
            seq: 7,
            epoch: 3,
            programs: vec![
                prog("ins[a].p -> 1 <= a.q -> 1."),
                WalProgram {
                    cycles: CyclePolicy::RuntimeStability,
                    source: "del[a].p -> 1 <= a.p -> 1.".into(),
                },
            ],
        };
        let mut payload = Vec::new();
        encode_record(&mut payload, rec.seq, rec.epoch, &rec.programs);
        assert_eq!(decode_record(&payload).unwrap(), rec);
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ob = base(20);
        let bytes = encode_chain_file(5, 2, &snapshot::write(&ob));
        let path = Path::new("test-chain");
        let ckpt = decode_chain(&bytes, path).unwrap();
        assert_eq!((ckpt.seq, ckpt.epoch), (5, 2));
        assert_eq!(ckpt.base, ob);
        assert_eq!(ckpt.generations.len(), 1);
        assert_eq!(ckpt.generations[0].kind, GenerationKind::Full);
        assert_eq!(ckpt.generations[0].dirty_shards, SHARD_COUNT as u32);
        assert_eq!(ckpt.torn_bytes, 0);

        // A single-generation chain is written atomically: any damage
        // to it — cuts or flips — is a hard error, never "torn".
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_chain(&bytes[..cut], path).is_err(), "cut at {cut}");
        }
        for byte in (0..bytes.len()).step_by(7) {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 0x10;
            assert!(decode_chain(&damaged, path).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn future_versions_are_rejected_with_a_clear_message() {
        // Chain file from "ruvo v9".
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.extend_from_slice(&9u16.to_le_bytes());
        bytes.extend_from_slice(&[0; 24]);
        match decode_chain(&bytes, Path::new("x")).unwrap_err() {
            StorageError::Decode { error, .. } => {
                assert_eq!(error, DecodeError::BadVersion(9));
                assert!(error.to_string().contains("newer ruvo"), "got: {error}");
            }
            other => panic!("expected Decode, got {other:?}"),
        }

        // WAL header from "ruvo v9".
        let dir = tmp_dir("future-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = WAL_MAGIC.to_vec();
        wal.extend_from_slice(&9u16.to_le_bytes());
        std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
        let err = read_state(&dir).unwrap_err();
        match err {
            StorageError::Decode { error: DecodeError::BadVersion(9), .. } => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn append_and_reopen_replays_tail() {
        let dir = tmp_dir("append");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert!(opened.is_fresh());
        let ob = base(2);
        opened.store.append_batch(&[prog("p1."), prog("p2.")], &ob).unwrap();
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        assert_eq!(opened.store.seq(), 3);
        assert_eq!(opened.store.wal_records(), 2);
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert!(reopened.checkpoint.is_none());
        assert_eq!(reopened.records.len(), 2);
        assert_eq!(reopened.records[0].seq, 0);
        assert_eq!(reopened.records[0].programs.len(), 2);
        assert_eq!(reopened.records[1].seq, 2);
        assert_eq!(reopened.store.seq(), 3);
        assert_eq!(reopened.stats.dropped_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = tmp_dir("torn");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("good.")], &base(1)).unwrap();
        let clean_len = WAL_HEADER_LEN + opened.store.wal_bytes();
        drop(opened);

        // Simulate a crash mid-append: garbage at the append cursor,
        // where the next record would have gone.
        let wal_path = dir.join(WAL_FILE);
        let mut data = std::fs::read(&wal_path).unwrap();
        data[clean_len as usize..][..13].fill(0x5A);
        std::fs::write(&wal_path, &data).unwrap();

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.records.len(), 1, "valid prefix survives");
        assert_eq!(reopened.stats.dropped_bytes, 13);
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            clean_len,
            "tail truncated on open"
        );

        // And appending continues cleanly after the truncation.
        let mut store = reopened.store;
        store.append_batch(&[prog("after.")], &base(1)).unwrap();
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(third.records.len(), 2);
        assert_eq!(&*third.records[1].programs[0].source, "after.");
    }

    fn sources(records: &[WalRecord]) -> Vec<&str> {
        records.iter().flat_map(|r| r.programs.iter().map(|p| &*p.source)).collect()
    }

    #[test]
    fn the_wal_ends_in_a_zero_chunk_tail_that_a_clean_reopen_does_not_drop() {
        let dir = tmp_dir("zero-tail");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        for i in 0..3 {
            opened.store.append_batch(&[prog(&format!("p{i}."))], &base(1)).unwrap();
        }
        let cursor = WAL_HEADER_LEN + opened.store.wal_bytes();
        drop(opened);
        let data = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(data.len() as u64, WAL_CHUNK, "one chunk holds the three records");
        assert!(data[cursor as usize..].iter().all(|&b| b == 0));

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.stats.dropped_bytes, 0);
        assert_eq!(reopened.stats.wal_bytes, cursor - WAL_HEADER_LEN);
        assert_eq!(sources(&reopened.records), ["p0.", "p1.", "p2."]);
    }

    #[test]
    fn a_reopen_keeps_the_zero_tail_so_the_next_append_leaves_the_length() {
        let dir = tmp_dir("keep-zero-tail");
        let wal_path = dir.join(WAL_FILE);
        let wal_len = || std::fs::metadata(&wal_path).unwrap().len();
        let mut expected = Vec::new();
        for round in 0..3 {
            let mut opened =
                WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
            assert_eq!(sources(&opened.records), expected);
            assert_eq!(opened.stats.dropped_bytes, 0);
            if round > 0 {
                assert_eq!(wal_len(), WAL_CHUNK, "reopen {round} kept the zero tail");
            }
            let src = format!("p{round}.");
            opened.store.append_batch(&[prog(&src)], &base(1)).unwrap();
            expected.push(src);
            assert_eq!(wal_len(), WAL_CHUNK, "append after reopen {round} wrote no new chunk");
        }
        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), expected);
        assert_eq!(reopened.store.seq(), 3);
    }

    #[test]
    fn one_non_zero_byte_in_the_zero_tail_still_cuts_the_tail() {
        let dir = tmp_dir("dirty-zero-tail");
        let wal_path = dir.join(WAL_FILE);
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("p0.")], &base(1)).unwrap();
        opened.store.append_batch(&[prog("p1.")], &base(1)).unwrap();
        let cursor = WAL_HEADER_LEN + opened.store.wal_bytes();
        drop(opened);

        // Behind the zero length word at the cursor, as a torn frame
        // whose length word never reached the disk would leave it.
        let mut data = std::fs::read(&wal_path).unwrap();
        data[cursor as usize + 100] = 0x01;
        std::fs::write(&wal_path, &data).unwrap();

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), ["p0.", "p1."]);
        assert_eq!(reopened.stats.dropped_bytes, 101);
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), cursor, "the tail is cut");
        let mut store = reopened.store;
        store.append_batch(&[prog("p2.")], &base(1)).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&third.records), ["p0.", "p1.", "p2."]);
        assert_eq!(third.stats.dropped_bytes, 0);
    }

    #[test]
    fn a_torn_record_inside_the_zeroed_region_drops_only_its_own_bytes() {
        let dir = tmp_dir("torn-in-zeros");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("p0.")], &base(1)).unwrap();
        opened.store.append_batch(&[prog("p1.")], &base(1)).unwrap();
        let cursor = (WAL_HEADER_LEN + opened.store.wal_bytes()) as usize;
        drop(opened);

        // The next record's frame got as far as three bytes into its
        // source text before the crash; zeros follow it.
        let mut frame = Vec::new();
        codec::append_frame_with(&mut frame, |out| encode_record(out, 2, 3, &[prog("torn.")]));
        let partial = &frame[..29 + 3];
        let wal_path = dir.join(WAL_FILE);
        let mut data = std::fs::read(&wal_path).unwrap();
        data[cursor..][..partial.len()].copy_from_slice(partial);
        std::fs::write(&wal_path, &data).unwrap();

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), ["p0.", "p1."]);
        assert_eq!(reopened.stats.dropped_bytes, partial.len() as u64);
        let mut store = reopened.store;
        store.append_batch(&[prog("p2.")], &base(1)).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&third.records), ["p0.", "p1.", "p2."]);
        assert_eq!(third.stats.dropped_bytes, 0);
    }

    #[test]
    fn records_ending_on_and_straddling_chunk_boundaries_reopen_equal() {
        let dir = tmp_dir("chunk-edges");
        let wal_path = dir.join(WAL_FILE);
        let mut store =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap().store;
        let wal_len = || std::fs::metadata(&wal_path).unwrap().len();
        // Frame overhead, seq, epoch, count, cycle tag, source length.
        let overhead = (codec::FRAME_OVERHEAD + 8 + 8 + 4 + 1 + 4) as u64;
        // Source length that ends a record `short` bytes before the
        // boundary `to`.
        let sized = |store: &WalStore, to: u64, short: u64| {
            "x".repeat((to - short - WAL_HEADER_LEN - store.wal_bytes() - overhead) as usize)
        };
        let mut expected = Vec::new();
        let mut append = |store: &mut WalStore, src: String| {
            store.append_batch(&[prog(&src)], &base(1)).unwrap();
            expected.push(src);
        };

        let src = sized(&store, WAL_CHUNK, 0);
        append(&mut store, src);
        assert_eq!(WAL_HEADER_LEN + store.wal_bytes(), WAL_CHUNK);
        assert_eq!(wal_len(), WAL_CHUNK, "a record ending on the boundary writes no zeros");
        append(&mut store, "p1.".into());
        assert_eq!(wal_len(), 2 * WAL_CHUNK);
        let src = sized(&store, 2 * WAL_CHUNK, 10);
        append(&mut store, src);
        append(&mut store, "straddles.".into());
        assert!(WAL_HEADER_LEN + store.wal_bytes() > 2 * WAL_CHUNK);
        assert_eq!(wal_len(), 3 * WAL_CHUNK);
        // One record longer than a chunk: the zeros run to the boundary
        // after its end.
        append(&mut store, "y".repeat(WAL_CHUNK as usize + 100));
        assert_eq!(wal_len(), (WAL_HEADER_LEN + store.wal_bytes()).next_multiple_of(WAL_CHUNK));
        let wal_bytes = store.wal_bytes();
        drop(store);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), expected);
        assert_eq!((reopened.stats.dropped_bytes, reopened.stats.wal_bytes), (0, wal_bytes));
        assert_eq!(reopened.store.seq(), 5);
    }

    #[test]
    fn appends_after_a_checkpoint_truncation_re_extend_the_zeroed_region() {
        let dir = tmp_dir("re-extend");
        let wal_path = dir.join(WAL_FILE);
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ob = base(4);
        opened.store.append_batch(&[prog("p0.")], &ob).unwrap();
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), WAL_HEADER_LEN);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), WAL_CHUNK);
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.checkpoint.expect("checkpoint written").seq, 2);
        assert_eq!(sources(&reopened.records), ["p2.", "p3."]);
        assert_eq!(reopened.stats.dropped_bytes, 0);
        assert_eq!(reopened.store.seq(), 4);
    }

    #[test]
    fn a_failed_write_keeps_the_cursor_and_the_next_append_overwrites_it() {
        let dir = tmp_dir("failed-write");
        let wal_path = dir.join(WAL_FILE);
        let mut store =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap().store;
        store.append_batch(&[prog("acked.")], &base(1)).unwrap();
        let cursor = WAL_HEADER_LEN + store.wal_bytes();

        // A read-only handle makes the write fail. The record is big
        // enough to reach two chunks past the zeroed region.
        let writable = std::mem::replace(&mut store.wal, File::open(&wal_path).unwrap());
        let big = "x".repeat(2 * WAL_CHUNK as usize);
        let err = store.append_batch(&[prog(&big)], &base(1)).unwrap_err();
        assert!(matches!(err, StorageError::Io { op: "append", .. }), "{err:?}");
        assert_eq!((store.seq(), store.wal_records()), (1, 1));
        assert_eq!(WAL_HEADER_LEN + store.wal_bytes(), cursor);

        // Say the failed write got all of its frame but the last byte
        // into the file: a crash now recovers the acknowledged record
        // alone.
        let mut failed = Vec::new();
        codec::append_frame_with(&mut failed, |out| encode_record(out, 1, 2, &[prog(&big)]));
        (&writable).seek(SeekFrom::Start(cursor)).unwrap();
        (&writable).write_all(&failed[..failed.len() - 1]).unwrap();
        assert_eq!(sources(&read_state(&dir).unwrap().records), ["acked."]);
        store.wal = writable;
        store.append_batch(&[prog("next.")], &base(1)).unwrap();

        // The next record lands at the cursor, and zeros cover every
        // byte of the failed one after it.
        let data = std::fs::read(&wal_path).unwrap();
        let mut frames = codec::Frames::new(&data[cursor as usize..]);
        let next = decode_record(frames.next().unwrap().unwrap()).unwrap();
        assert_eq!((next.seq, &*next.programs[0].source), (1, "next."));
        assert!(data[cursor as usize + frames.good_offset()..].iter().all(|&b| b == 0));
        drop(store);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), ["acked.", "next."]);
        assert_eq!(reopened.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(reopened.stats.dropped_bytes, 0);
    }

    #[test]
    fn a_failed_fsync_wedges_the_store_until_a_reopen() {
        let dir = tmp_dir("failed-fsync");
        let mut store =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap().store;
        store.append_batch(&[prog("acked.")], &base(1)).unwrap();
        let wal_bytes = store.wal_bytes();

        // On `/dev/null` the seek and the write succeed and
        // `fdatasync` fails (EINVAL).
        let null = OpenOptions::new().write(true).open("/dev/null").unwrap();
        let real = std::mem::replace(&mut store.wal, null);
        let err = store.append_batch(&[prog("unsynced.")], &base(1)).unwrap_err();
        assert!(matches!(err, StorageError::Io { op: "fsync", .. }), "{err:?}");
        assert_eq!((store.seq(), store.wal_records(), store.wal_bytes()), (1, 1, wal_bytes));

        // The real file back: still no append is acknowledged.
        store.wal = real;
        let err = store.append_batch(&[prog("later.")], &base(1)).unwrap_err();
        assert!(matches!(err, StorageError::Misuse(m) if m.contains("wedged")), "{err:?}");
        assert_eq!((store.seq(), store.wal_records()), (1, 1));
        drop(store);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(sources(&reopened.records), ["acked."]);
        assert_eq!(reopened.stats.dropped_bytes, 0);
    }

    #[test]
    fn bit_flips_anywhere_in_the_wal_never_panic() {
        let dir = tmp_dir("flips");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("ins[a].p -> 1 <= a.q -> 1.")], &base(1)).unwrap();
        opened.store.append_batch(&[prog("ins[b].p -> 2 <= b.q -> 2.")], &base(1)).unwrap();
        drop(opened);
        let wal_path = dir.join(WAL_FILE);
        let data = std::fs::read(&wal_path).unwrap();
        assert_eq!(data.len() as u64, WAL_CHUNK, "the sweep covers the zero tail");

        for byte in 0..data.len() {
            for bit in [0, 3, 7] {
                let mut damaged = data.clone();
                damaged[byte] ^= 1 << bit;
                // Must never panic; header damage errors, record
                // damage drops a suffix of the two records.
                if let Ok((records, ..)) = scan_wal(&damaged, 0) {
                    assert!(records.len() <= 2);
                }
            }
        }
    }

    #[test]
    fn checksum_valid_but_undecodable_record_is_excluded_from_the_kept_prefix() {
        let dir = tmp_dir("poison");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("good.")], &base(1)).unwrap();
        let clean_len = (WAL_HEADER_LEN + opened.store.wal_bytes()) as usize;
        drop(opened);

        // Hand-craft a frame whose checksum is valid but whose payload
        // cannot decode (cycle-policy tag 7): the worst-case "poison"
        // record, at the append cursor.
        let wal_path = dir.join(WAL_FILE);
        let mut data = std::fs::read(&wal_path).unwrap();
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // seq
        payload.extend_from_slice(&2u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&1u32.to_le_bytes()); // count
        payload.push(7); // invalid cycle tag
        payload.extend_from_slice(&0u32.to_le_bytes());
        let mut frame = Vec::new();
        codec::append_frame(&mut frame, &payload);
        data[clean_len..][..frame.len()].copy_from_slice(&frame);
        std::fs::write(&wal_path, &data).unwrap();

        // The poison frame must be *outside* the kept prefix…
        let state = read_state(&dir).unwrap();
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.good_offset, clean_len as u64, "poison frame kept in prefix");

        // …so reopening truncates it away, and records appended after
        // the truncation survive the *next* reopen (the original bug:
        // the poison frame stayed, and the second reopen chopped off
        // every acknowledged record appended behind it).
        let mut store =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap().store;
        store.append_batch(&[prog("after-poison.")], &base(1)).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(third.records.len(), 2);
        assert_eq!(&*third.records[1].programs[0].source, "after-poison.");
    }

    #[test]
    fn torn_wal_header_is_recoverable_when_a_checkpoint_exists() {
        let dir = tmp_dir("torn-header");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ob = base(5);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        drop(opened);

        // Crash window: the header write itself tore (the header is
        // not fsynced on creation). Only 5 of 10 bytes persisted.
        std::fs::write(dir.join(WAL_FILE), &WAL_MAGIC[..5]).unwrap();
        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.checkpoint.expect("checkpoint survives").base, ob);
        assert!(reopened.records.is_empty());
        // The header was rewritten whole: appends and reopens work.
        let mut store = reopened.store;
        store.append_batch(&[prog("p2.")], &ob).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(third.records.len(), 1);

        // A short file that is NOT a header prefix is foreign: hard
        // error, never clobbered.
        std::fs::write(dir.join(WAL_FILE), b"WRONG").unwrap();
        match read_state(&dir) {
            Err(StorageError::Decode { error: DecodeError::BadMagic, .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        let mut opened = WalStore::open(
            &dir,
            FsyncPolicy::Always,
            CheckpointPolicy { max_wal_records: 2, ..CheckpointPolicy::never() },
        )
        .unwrap();
        let ob = base(10);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        assert_eq!(opened.store.wal_records(), 1);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        // Threshold hit: checkpointed and truncated.
        assert_eq!(opened.store.wal_records(), 0);
        assert_eq!(opened.store.wal_bytes(), 0);
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("checkpoint written");
        assert_eq!(ckpt.seq, 2);
        assert_eq!(ckpt.base, ob);
        assert!(reopened.records.is_empty(), "wal was truncated");
        assert_eq!(reopened.store.seq(), 2, "seq continues after the checkpoint");
    }

    #[test]
    fn stale_records_behind_a_checkpoint_are_skipped() {
        // Crash window: checkpoint renamed into place but the WAL
        // truncation never happened. Recovery must not replay the
        // already-folded records.
        let dir = tmp_dir("stale");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ob = base(4);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        let wal_before = std::fs::read(dir.join(WAL_FILE)).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        drop(opened);
        // Undo the truncation, as if the crash hit between rename and
        // set_len.
        std::fs::write(dir.join(WAL_FILE), &wal_before).unwrap();

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert!(reopened.records.is_empty(), "both records predate the checkpoint");
        assert_eq!(reopened.stats.skipped_records, 2);
        assert_eq!(reopened.store.seq(), 2);
    }

    #[test]
    fn checkpoint_rebases_on_a_rolled_back_state() {
        let dir = tmp_dir("rollback");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[prog("doomed.")], &base(9)).unwrap();
        let rolled_back = base(3);
        opened.store.checkpoint(&rolled_back).unwrap();
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.checkpoint.expect("rollback checkpoints").base, rolled_back);
        assert!(reopened.records.is_empty());
    }

    #[test]
    fn fsync_policies_accept_appends() {
        for (tag, policy) in [("always", FsyncPolicy::Always), ("never", FsyncPolicy::Never)] {
            let dir = tmp_dir(&format!("fsync-{tag}"));
            let mut opened = WalStore::open(&dir, policy, CheckpointPolicy::never()).unwrap();
            for i in 0..10 {
                opened.store.append_batch(&[prog(&format!("p{i}."))], &base(1)).unwrap();
            }
            drop(opened);
            let reopened = WalStore::open(&dir, policy, CheckpointPolicy::never()).unwrap();
            assert_eq!(reopened.records.len(), 10, "policy {tag}");
        }
    }

    #[test]
    fn empty_batches_append_nothing() {
        let dir = tmp_dir("empty");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        opened.store.append_batch(&[], &base(1)).unwrap();
        assert_eq!(opened.store.wal_records(), 0);
        assert_eq!(opened.store.seq(), 0);
    }

    // ----- chain-specific coverage -----------------------------------

    /// Add `n` fresh facts to an evolving base.
    fn grow(ob: &mut ObjectBase, tag: &str, n: i64) {
        for i in 0..n {
            ob.insert(
                ruvo_term::Vid::object(oid(&format!("{tag}{i}"))),
                sym("m"),
                ruvo_obase::Args::empty(),
                int(i),
            );
        }
    }

    #[test]
    fn delta_checkpoints_stack_and_recover_bit_identical() {
        let dir = tmp_dir("chain-stack");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 40);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        assert_eq!(
            opened.store.checkpoint(&ob).unwrap(),
            CheckpointOutcome::Full { bytes: opened.store.chain_generations()[0].bytes }
        );

        grow(&mut ob, "b", 1);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        match opened.store.checkpoint(&ob).unwrap() {
            CheckpointOutcome::Delta { dirty_shards, .. } => {
                assert!(dirty_shards >= 1 && dirty_shards < SHARD_COUNT as u32)
            }
            other => panic!("expected a delta, got {other:?}"),
        }
        grow(&mut ob, "c", 3);
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        assert!(matches!(opened.store.checkpoint(&ob).unwrap(), CheckpointOutcome::Delta { .. }));
        let kinds: Vec<_> = opened.store.chain_generations().iter().map(|g| g.kind).collect();
        assert_eq!(kinds, [GenerationKind::Full, GenerationKind::Delta, GenerationKind::Delta]);
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("chain present");
        assert_eq!(ckpt.generations.len(), 3);
        assert_eq!(ckpt.seq, 3);
        assert_eq!(ckpt.base, ob);
        // Bit-identical, not just logically equal.
        assert_eq!(snapshot::write(&ckpt.base), snapshot::write(&ob));
        assert!(reopened.records.is_empty(), "each delta truncated the wal");
    }

    /// The deterministic half of incremental checkpointing: a 1 % dirty
    /// set clustered in few version-table shards costs a delta a
    /// fraction of the full generation's payload. (Its wall-clock is
    /// the `benchmark/` driver's `store.checkpoint_delta_ms`.)
    #[test]
    fn clustered_one_percent_delta_is_a_fraction_of_the_full_payload() {
        let dir = tmp_dir("chain-clustered");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = base(2_000);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        let CheckpointOutcome::Full { bytes: full_bytes } = opened.store.checkpoint(&ob).unwrap()
        else {
            panic!("the first checkpoint is a full generation")
        };

        // Modify the 20 objects that come first in shard order.
        let mut hot: Vec<_> =
            (0..2_000).map(|i| (ruvo_term::Vid::object(oid(&format!("o{i}"))), i)).collect();
        hot.sort_by_key(|&(vid, i)| (ruvo_obase::vid_shard(vid), i));
        for &(vid, i) in &hot[..20] {
            assert!(ob.remove(vid, sym("m"), &ruvo_obase::Args::empty(), int(i)));
            ob.insert(vid, sym("m"), ruvo_obase::Args::empty(), int(i + 1_000_000));
        }
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        match opened.store.checkpoint(&ob).unwrap() {
            CheckpointOutcome::Delta { bytes, dirty_shards } => {
                assert!(dirty_shards < SHARD_COUNT as u32, "{dirty_shards} shards dirty");
                assert!(bytes * 4 <= full_bytes, "delta {bytes} vs full {full_bytes} bytes");
            }
            other => panic!("expected a delta, got {other:?}"),
        }
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("chain present");
        assert_eq!(snapshot::write(&ckpt.base), snapshot::write(&ob));
    }

    #[test]
    fn unchanged_base_checkpoints_are_skipped_not_appended() {
        let dir = tmp_dir("chain-noop");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 8);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        assert_eq!(opened.store.checkpoint(&ob).unwrap(), CheckpointOutcome::Skipped);
        assert_eq!(opened.store.chain_generations().len(), 1, "no zero-dirty deltas");
    }

    #[test]
    fn torn_delta_tail_is_dropped_when_the_wal_covers_it() {
        let dir = tmp_dir("chain-torn");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        let full_len = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();

        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        let wal_before = std::fs::read(dir.join(WAL_FILE)).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        drop(opened);

        // Crash mid-way through the delta append: half the frame is on
        // disk, and the WAL truncation never happened.
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let torn_len = std::fs::metadata(&ckpt_path).unwrap().len();
        let cut = full_len + (torn_len - full_len) / 2;
        let mut data = std::fs::read(&ckpt_path).unwrap();
        data.truncate(cut as usize);
        std::fs::write(&ckpt_path, &data).unwrap();
        std::fs::write(dir.join(WAL_FILE), &wal_before).unwrap();

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("full generation survives");
        assert_eq!(ckpt.generations.len(), 1, "torn delta dropped");
        assert_eq!(ckpt.seq, 1);
        assert!(ckpt.torn_bytes > 0);
        assert_eq!(reopened.records.len(), 1, "the wal still covers the dropped delta");
        assert_eq!(reopened.records[0].seq, 1);
        assert_eq!(
            std::fs::metadata(&ckpt_path).unwrap().len(),
            full_len,
            "torn tail truncated on open"
        );

        // And the next delta stacks cleanly on the truncated chain.
        let mut store = reopened.store;
        store.checkpoint(&ob).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(third.checkpoint.expect("chain readable").base, ob);
    }

    #[test]
    fn torn_chain_tail_without_wal_coverage_fails_closed() {
        // Bit rot tearing a generation the WAL no longer covers must
        // NOT silently resurrect the older state.
        let dir = tmp_dir("chain-rot-tail");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        let full_len = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap(); // delta durable, WAL truncated
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap(); // seq 2
        drop(opened);

        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let torn_len = std::fs::metadata(&ckpt_path).unwrap().len();
        let mut data = std::fs::read(&ckpt_path).unwrap();
        data.truncate((full_len + (torn_len - full_len) / 2) as usize);
        std::fs::write(&ckpt_path, &data).unwrap();

        match read_state(&dir) {
            Err(StorageError::CorruptGeneration { .. }) => {}
            other => panic!("expected CorruptGeneration, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_middle_generation_fails_closed_naming_it() {
        let dir = tmp_dir("chain-middle");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        grow(&mut ob, "c", 2);
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        let gens: Vec<u64> = opened.store.chain_generations().iter().map(|g| g.bytes).collect();
        assert_eq!(gens.len(), 3);
        drop(opened);

        // Flip a byte inside generation #1 (the first delta).
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let mut data = std::fs::read(&ckpt_path).unwrap();
        let gen1_payload = CKPT_HEADER_LEN as usize
            + codec::FRAME_OVERHEAD
            + gens[0] as usize
            + 4 // into gen 1, past its frame length prefix
            + 3;
        data[gen1_payload] ^= 0x40;
        std::fs::write(&ckpt_path, &data).unwrap();

        match read_state(&dir) {
            Err(StorageError::CorruptGeneration { generation, .. }) => {
                assert_eq!(generation, 1);
            }
            other => panic!("expected CorruptGeneration #1, got {other:?}"),
        }
        let msg = read_state(&dir).unwrap_err().to_string();
        assert!(msg.contains("generation #1"), "got: {msg}");
    }

    /// A base whose bytes all sit in one version shard — one object
    /// with 4 000 facts — and a one-fact object routed to another, so a
    /// delta that only touches the latter stays a few dozen bytes.
    fn lopsided_base() -> (ObjectBase, ruvo_term::Vid) {
        let big = ruvo_term::Vid::object(oid("big"));
        let mut ob = ObjectBase::new();
        for i in 0..4_000 {
            ob.insert(big, sym("m"), ruvo_obase::Args::new(vec![int(i)]), int(i));
        }
        let small = (0..)
            .map(|i| ruvo_term::Vid::object(oid(&format!("small{i}"))))
            .find(|&v| ruvo_obase::vid_shard(v) != ruvo_obase::vid_shard(big))
            .unwrap();
        ob.insert(small, sym("n"), ruvo_obase::Args::empty(), int(0));
        (ob, small)
    }

    /// Rewrite `small`'s one fact to `value`, log it and checkpoint.
    fn bump(
        store: &mut WalStore,
        ob: &mut ObjectBase,
        small: ruvo_term::Vid,
        value: i64,
    ) -> CheckpointOutcome {
        let n = sym("n");
        let old = ob.results(small, n, &[]).next().unwrap();
        ob.remove(small, n, &ruvo_obase::Args::empty(), old);
        ob.insert(small, n, ruvo_obase::Args::empty(), int(value));
        store.append_batch(&[prog("p.")], ob).unwrap();
        store.checkpoint(ob).unwrap()
    }

    #[test]
    fn compaction_rewrites_the_chain_into_a_full_generation() {
        let dir = tmp_dir("chain-compact");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let (mut ob, small) = lopsided_base();
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        for value in 1..=MAX_DELTA_GENERATIONS as i64 {
            let outcome = bump(&mut opened.store, &mut ob, small, value);
            assert!(matches!(outcome, CheckpointOutcome::Delta { .. }), "{value}: {outcome}");
        }
        // The deltas stay far below the byte threshold: the count caps
        // the chain.
        let (base, deltas) = opened.store.chain_generations().split_first().unwrap();
        let delta_bytes: u64 = deltas.iter().map(|g| g.bytes).sum();
        assert!((delta_bytes as f64) < base.bytes as f64 * COMPACT_FRACTION / 2.0);
        let outcome = bump(&mut opened.store, &mut ob, small, -1);
        assert!(matches!(outcome, CheckpointOutcome::Full { .. }), "{outcome}");
        assert_eq!(opened.store.chain_generations().len(), 1);
        drop(opened);

        let reopened = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("compacted chain");
        assert_eq!(ckpt.generations.len(), 1);
        assert_eq!(ckpt.base, ob);
    }

    #[test]
    fn compaction_byte_threshold_forces_a_full_rewrite() {
        let dir = tmp_dir("chain-compact-bytes");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let (mut ob, small) = lopsided_base();
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        assert!(matches!(
            bump(&mut opened.store, &mut ob, small, 1),
            CheckpointOutcome::Delta { .. }
        ));
        // One more fact on `big` dirties the shard holding nearly the
        // whole base: a delta as large as the base.
        let big = ruvo_term::Vid::object(oid("big"));
        ob.insert(big, sym("m"), ruvo_obase::Args::new(vec![int(-1)]), int(-1));
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        assert!(matches!(opened.store.checkpoint(&ob).unwrap(), CheckpointOutcome::Delta { .. }));
        // Two deltas, past the byte threshold: the next one is full.
        assert_eq!(opened.store.chain_generations().len(), 3);
        let outcome = bump(&mut opened.store, &mut ob, small, 2);
        assert!(matches!(outcome, CheckpointOutcome::Full { .. }), "{outcome}");
        drop(opened);
        let reopened = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.checkpoint.expect("compacted chain").base, ob);
    }

    #[test]
    fn split_phase_install_skips_truncation_when_commits_raced_it() {
        let dir = tmp_dir("chain-split");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();

        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        let plan = opened.store.plan_checkpoint(CheckpointMode::Auto);
        assert!(!plan.is_full());
        // The writer's cheap head snapshot.
        let planned_at = ob.clone();
        // A commit lands while the encoder runs.
        grow(&mut ob, "c", 2);
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        let enc = encode_checkpoint_plan(&plan, &planned_at);
        assert!(matches!(
            opened.store.install_checkpoint(enc).unwrap(),
            CheckpointOutcome::Delta { .. }
        ));
        assert!(opened.store.wal_records() > 0, "raced wal must not be truncated");
        drop(opened);

        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("chain present");
        assert_eq!(ckpt.seq, 2, "delta covers the planned prefix");
        assert_eq!(ckpt.base, planned_at);
        assert_eq!(reopened.stats.skipped_records, 1, "the chain-covered record is skipped");
        assert_eq!(reopened.records.len(), 1, "the raced commit replays");
        assert_eq!(reopened.records[0].seq, 2, "records carry their pre-batch seq");
    }

    #[test]
    fn stale_delta_install_after_the_chain_moved_is_skipped() {
        let dir = tmp_dir("chain-stale-install");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();

        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        let plan = opened.store.plan_checkpoint(CheckpointMode::Auto);
        let planned_at = ob.clone();
        // A synchronous checkpoint lands before the install.
        grow(&mut ob, "c", 2);
        opened.store.append_batch(&[prog("p3.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        let gens_before = opened.store.chain_generations().len();
        let enc = encode_checkpoint_plan(&plan, &planned_at);
        assert_eq!(opened.store.install_checkpoint(enc).unwrap(), CheckpointOutcome::Skipped);
        assert_eq!(opened.store.chain_generations().len(), gens_before);
    }

    #[test]
    fn force_full_compacts_on_demand() {
        let dir = tmp_dir("chain-force");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        assert_eq!(opened.store.chain_generations().len(), 2);

        let plan = opened.store.plan_checkpoint(CheckpointMode::ForceFull);
        assert!(plan.is_full());
        let enc = encode_checkpoint_plan(&plan, &ob);
        assert!(matches!(
            opened.store.install_checkpoint(enc).unwrap(),
            CheckpointOutcome::Full { .. }
        ));
        assert_eq!(opened.store.chain_generations().len(), 1);
        drop(opened);
        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(reopened.checkpoint.expect("compacted").base, ob);
    }

    #[test]
    fn compaction_crash_leaves_old_chain_usable_and_tmp_ignored() {
        let dir = tmp_dir("chain-tmp");
        let mut opened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let mut ob = ObjectBase::new();
        grow(&mut ob, "a", 20);
        opened.store.append_batch(&[prog("p1.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        grow(&mut ob, "b", 2);
        opened.store.append_batch(&[prog("p2.")], &ob).unwrap();
        opened.store.checkpoint(&ob).unwrap();
        drop(opened);

        // Crash during compaction: the tmp file was written (possibly
        // partially) but never renamed. The old chain must win.
        std::fs::write(dir.join(format!("{CHECKPOINT_FILE}.tmp")), b"half a compaction").unwrap();
        let reopened =
            WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        let ckpt = reopened.checkpoint.expect("old chain intact");
        assert_eq!(ckpt.generations.len(), 2);
        assert_eq!(ckpt.base, ob);

        // The next full checkpoint clobbers the leftover tmp file.
        let mut store = reopened.store;
        grow(&mut ob, "c", 2);
        store.append_batch(&[prog("p3.")], &ob).unwrap();
        let plan = store.plan_checkpoint(CheckpointMode::ForceFull);
        let enc = encode_checkpoint_plan(&plan, &ob);
        store.install_checkpoint(enc).unwrap();
        drop(store);
        let third = WalStore::open(&dir, FsyncPolicy::Always, CheckpointPolicy::never()).unwrap();
        assert_eq!(third.checkpoint.expect("fresh full chain").base, ob);
    }
}
