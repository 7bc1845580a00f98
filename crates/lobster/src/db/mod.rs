//! The Lobster DB.
//!
//! "The main Lobster process creates a local SQLite database (Lobster DB)
//! which persistently records the mapping from tasklets to tasks" (§3).
//! Footnote 1 adds the requirement that matters: "the system state is
//! quickly and automatically recovered if the scheduler node should crash
//! and reboot".
//!
//! Here the DB is an embedded store with an append-only journal: every
//! state transition is one journal record, and [`LobsterDb::recover`]
//! replays the journal to rebuild the exact in-memory state — same
//! durability contract, no external database.
//!
//! # Journal format v3
//!
//! The journal path is a *directory*: one `shard-NNNN.wal` per registered
//! workflow plus `master.wal` for cross-workflow state (merges, attempt
//! accounting, backoffs, the merge side of the dead-letter ledger). Each
//! file is a 16-byte `LBSTRWAL` header (magic, `u32` LE version, `u32`
//! LE shard tag) followed by `u32` LE length + `u32` LE CRC-32 frames,
//! with a torn-tail drop on the final frame and a hard
//! [`io::ErrorKind::InvalidData`] anywhere earlier. A frame payload is a
//! *batch* of binary-coded records ([`codec`]).
//! Appends buffer in a group-commit window ([`journal`]) and reach disk
//! together: flush happens when the `JournalPolicy` record/byte
//! thresholds are crossed, on snapshot compaction, at [`LobsterDb::flush`]
//! (the driver's crash-point boundary), and on drop. Compaction is
//! per-file: a shard compacts into one [`Record::ShardSnapshot`] frame,
//! `master.wal` into one [`Record::MasterSnapshot`] frame. A shard frame
//! reuses the encoded bytes of the rows no transition can change any more
//! ([`SnapshotCache`]), so its cost follows the rows changed since the
//! last compaction.
//!
//! Anything else at the journal path — a regular file, whatever its
//! contents — is rejected with [`io::ErrorKind::InvalidData`] and left
//! untouched. See `docs/recovery.md`.

mod codec;
mod journal;

pub use journal::journal_bytes;

use crate::config::JournalPolicy;
use crate::monitor::Accounting;
use crate::wrapper::SegmentReport;
use codec::{MasterFrame, ShardHead};
use journal::{GroupCommit, Journal, Part, ScannedFile, MASTER_TAG};
use serde::{Deserialize, Serialize};
use simkit::time::SimDuration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use wqueue::task::{Category, DeadLetter, TaskId};

/// Journal magic bytes.
const MAGIC: &[u8; 8] = b"LBSTRWAL";
/// Journal format version written by this build.
pub const FORMAT_VERSION: u32 = journal::V3_VERSION;
/// Header: magic + version + shard tag.
const HEADER_LEN: usize = 16;
/// Frame header: payload length + CRC-32.
const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on a single frame; larger lengths are corruption.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Merge tasks are numbered from this base so they never collide with
/// analysis task ids (which count up from zero).
pub const MERGE_ID_BASE: u64 = 1_000_000_000;

/// The CRC-32 polynomial (IEEE 802.3), bit-reflected: bit 31 holds the
/// coefficient of x^0.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables for CRC-32 (reflected polynomial
/// [`CRC32_POLY`]). `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups fold in eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data`.
fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// CRC-32 of `m ‖ data`, given `crc = crc32(m)`: eight bytes per step,
/// then bytewise for the tail.
fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `a(x)·b(x) mod P(x)` for polynomials in the reflected bit order of
/// [`CRC32_POLY`].
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `CRC32_X2N[k]` is x^(2^k) mod P(x). The multiplicative order of x
/// modulo the CRC-32 polynomial divides 2^32 − 1, so x^(2^32) = x and the
/// sequence repeats every 32 entries.
const CRC32_X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// CRC-32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, without reading either (zlib's method). Appending
/// `len_b` bytes multiplies `a`'s remainder by x^(8·len_b) mod P(x), built
/// from the squares in [`CRC32_X2N`] in O(log len_b); the pre- and
/// post-conditioning cancel, leaving a plain xor with `crc_b`.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b;
    let mut k = 3; // a byte is 2^3 bits
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(CRC32_X2N[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

/// Lifecycle of a task in the DB.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Created, not yet dispatched.
    Ready,
    /// Dispatched to a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Lost (eviction/failure); its tasklets were returned to the pool.
    Lost,
    /// Dead-lettered: retry budget exhausted, withdrawn from the run.
    Withdrawn,
}

impl TaskState {
    /// `Done`, `Lost` or `Withdrawn`: no transition leaves these.
    fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Done | TaskState::Lost | TaskState::Withdrawn
        )
    }
}

/// A produced output file. Merge state (merged-into, withdrawn) lives in
/// the master-side maps, not on the row: the row is shard state, and the
/// two slices must stay disjoint for sharded replay.
#[derive(Clone, Debug)]
struct OutputFile {
    /// Producing task.
    task: TaskId,
    /// Size in bytes.
    bytes: u64,
    /// Global finish-order sequence of the producing task's completion.
    done_seq: u64,
}

/// The `(producer, bytes)` inputs of one planned merge group.
pub type MergeInputs = Vec<(TaskId, u64)>;

/// A transition request that was rejected because the task was not in a
/// legal source state (or did not exist). The DB state is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedTransition {
    /// The task the transition targeted.
    pub task: TaskId,
    /// Its state at rejection time (`None` — unknown task).
    pub from: Option<TaskState>,
    /// The attempted operation.
    pub action: &'static str,
}

impl fmt::Display for RejectedTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(s) => write!(f, "{}: illegal {} from {s:?}", self.task, self.action),
            None => write!(f, "{}: {} on unknown task", self.task, self.action),
        }
    }
}

impl std::error::Error for RejectedTransition {}

/// Monotonic run counters, journaled so a resumed run continues them.
///
/// `tasks_completed` is derived (one per done output) rather than
/// snapshotted: the master snapshot carries only the master-slice
/// counters, completions belong to the shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Analysis tasks that finished successfully.
    pub tasks_completed: u64,
    /// Failed attempts (any category).
    pub tasks_failed: u64,
    /// Attempts lost to worker eviction.
    pub evictions: u64,
    /// Merge files produced.
    pub merges_completed: u64,
    /// Transition requests rejected as illegal (diagnostic; not journaled,
    /// so it counts rejections since open, not since the run began).
    pub rejected_transitions: u64,
}

/// Journal records — one per state transition, binary-coded by [`codec`].
///
/// Task-lifecycle records carry the workflow-interned `wf` index (not the
/// name) and route to that workflow's shard file; everything else routes
/// to `master.wal`. `TaskDone` and `DeadLettered` carry a global sequence
/// number so sharded replay can reconstruct cross-shard finish/ledger
/// order.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    Workflow {
        wf: u32,
        name: String,
        tasklets: u64,
    },
    TaskCreated {
        id: TaskId,
        wf: u32,
        tasklets: Vec<u64>,
    },
    TaskRunning {
        id: TaskId,
    },
    TaskDone {
        id: TaskId,
        output_bytes: u64,
        done_seq: u64,
    },
    TaskLost {
        id: TaskId,
    },
    MergeCreated {
        id: TaskId,
        inputs: MergeInputs,
    },
    Merged {
        task: Option<TaskId>,
        outputs: Vec<TaskId>,
        into: String,
        bytes: u64,
    },
    Attempt {
        report: Box<SegmentReport>,
    },
    Backoff {
        wait: SimDuration,
    },
    DeadLettered {
        letter: Box<DeadLetter>,
        seq: u64,
    },
    ShardSnapshot {
        state: Box<ShardSnap>,
    },
    MasterSnapshot {
        state: Box<MasterSnap>,
    },
}

/// Snapshot image of one task row.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TaskSnap {
    pub id: TaskId,
    pub tasklets: Vec<u64>,
    pub state: TaskState,
    pub attempts: u32,
}

/// Snapshot image of one output row.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OutputSnap {
    pub task: TaskId,
    pub bytes: u64,
    pub done_seq: u64,
}

/// Per-workflow snapshot frame: the shard slice of the DB — workflow
/// decomposition state, this workflow's task and output rows, and its
/// side of the dead-letter ledger.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ShardSnap {
    pub wf: u32,
    pub name: String,
    pub total: u64,
    pub cursor: u64,
    pub returned: Vec<u64>,
    pub done: u64,
    pub dead: u64,
    pub tasks: Vec<TaskSnap>,
    pub outputs: Vec<OutputSnap>,
    pub dead_letters: Vec<(u64, DeadLetter)>,
}

/// `master.wal` snapshot frame: the cross-workflow slice — merge state,
/// accounting, and the master-side counters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MasterSnap {
    pub merged_files: Vec<(String, u64)>,
    pub merge_groups: Vec<(TaskId, MergeInputs)>,
    /// `(producer, index into merged_files)` for every merged output.
    pub merged_outputs: Vec<(TaskId, u32)>,
    /// Producer ids of outputs withdrawn with a dead-lettered merge.
    pub withdrawn_outputs: Vec<u64>,
    pub next_merge: u64,
    pub dead_letters: Vec<(u64, DeadLetter)>,
    pub accounting: Accounting,
    pub tasks_failed: u64,
    pub evictions: u64,
    pub merges_completed: u64,
}

#[derive(Clone, Debug, Default)]
struct WorkflowState {
    total_tasklets: u64,
    /// Next never-assigned tasklet index.
    cursor: u64,
    /// Tasklets returned by lost tasks, re-assigned first.
    returned: BTreeSet<u64>,
    /// Tasklets finished.
    done: u64,
    /// Tasklets withdrawn with dead-lettered tasks.
    dead: u64,
}

/// One registered workflow: interned name plus decomposition state.
/// Stored in registration order; task rows refer to workflows by index,
/// and workflow `i` journals to `shard-000i.wal`.
#[derive(Clone, Debug)]
struct WorkflowEntry {
    name: String,
    state: WorkflowState,
}

#[derive(Clone, Debug)]
struct TaskRow {
    /// Index into `workflows` (names are interned — a row carries no
    /// `String`).
    wf: u32,
    tasklets: Vec<u64>,
    state: TaskState,
    attempts: u32,
}

/// The bookkeeping store.
#[derive(Debug)]
pub struct LobsterDb {
    workflows: Vec<WorkflowEntry>,
    /// Task rows indexed by analysis task id. Analysis ids are handed out
    /// densely from zero, so the table is a `Vec`, not a tree: the
    /// per-completion hot path does O(1) state transitions no matter how
    /// many tasks the campaign has retired. Merge ids
    /// (>= [`MERGE_ID_BASE`]) fall outside the dense range and resolve to
    /// `None`, like a missing map key.
    tasks: Vec<Option<TaskRow>>,
    /// `Some` rows in `tasks`.
    n_tasks: usize,
    /// Output files indexed by producing task id (same dense id space).
    outputs: Vec<Option<OutputFile>>,
    /// Done tasks in finish order (drives merge planning on resume).
    done_order: Vec<TaskId>,
    /// `done_seq` of each `done_order` entry — parallel, ascending.
    /// Sharded replay delivers completions shard-by-shard; sorted
    /// insertion by sequence restores the global finish order.
    done_seqs: Vec<u64>,
    merged_files: BTreeMap<String, u64>,
    /// Planned merges not yet completed, keyed by merge task id.
    merge_groups: BTreeMap<TaskId, MergeInputs>,
    /// Outputs claimed by an open merge group.
    grouped: BTreeSet<TaskId>,
    /// Producer → merged file name, for every merged output.
    merged_outputs: BTreeMap<TaskId, String>,
    /// Outputs withdrawn with a dead-lettered merge.
    withdrawn_outputs: BTreeSet<TaskId>,
    /// The ledger in dead-letter order (sequence-sorted on replay).
    dead_letters: Vec<DeadLetter>,
    /// `seq` of each ledger entry — parallel, ascending.
    dead_letter_seqs: Vec<u64>,
    accounting: Accounting,
    counters: Counters,
    next_task: u64,
    next_merge: u64,
    journal: Option<Journal>,
    /// Compact a shard file after this many appended records (`None` —
    /// never).
    snapshot_every: Option<u64>,
    /// Attempt reports replayed since the last snapshot, for the driver
    /// to rebuild monitor state on resume.
    replayed_attempts: Vec<SegmentReport>,
    /// What compaction keeps between snapshots.
    snap: SnapshotCache,
}

/// Encoded snapshot rows that no transition can change any more, with
/// their count and CRC-32. Only ever appended to.
#[derive(Debug, Default)]
struct FrozenRows {
    bytes: Vec<u8>,
    count: u64,
    crc: u32,
}

/// Growth step of a [`FrozenRows`] buffer.
const FROZEN_GROWTH: usize = 64 * 1024;

impl FrozenRows {
    /// Append `n` rows, encoded in `rows`.
    fn append(&mut self, rows: &[u8], n: u64) {
        if self.bytes.capacity() - self.bytes.len() < rows.len() {
            // Grow in steps, not by doubling: the bytes are held for the
            // life of the db, and so is any slack.
            self.bytes.reserve_exact(rows.len().max(FROZEN_GROWTH));
        }
        self.bytes.extend_from_slice(rows);
        self.count += n;
        self.crc = crc32_extend(self.crc, rows);
    }

    fn part(&self) -> Part<'_> {
        Part {
            bytes: &self.bytes,
            crc: Some(self.crc),
        }
    }
}

/// The frozen prefix of one shard's snapshot. Every row of the shard
/// below slab index `upto` is `Done`, `Lost` or `Withdrawn`, states no
/// transition leaves, so its encoding — and its output row's — is fixed.
#[derive(Debug, Default)]
struct FrozenShard {
    upto: usize,
    rows: FrozenRows,
    outputs: FrozenRows,
}

/// Compaction state derived from the slabs and never journaled: it
/// starts empty at open and recover, and a snapshot install clears it.
#[derive(Debug, Default)]
struct SnapshotCache {
    /// Frozen prefixes, by workflow index.
    shards: Vec<FrozenShard>,
    /// Task rows encoded by shard snapshots, frozen or live; the tests
    /// bound it.
    #[cfg_attr(not(test), allow(dead_code))]
    rows_encoded: u64,
}

impl SnapshotCache {
    /// Workflow `wf`'s snapshot record as parts in frame order: head,
    /// frozen rows, live rows and the output count, frozen outputs, live
    /// outputs and the ledger. The frozen prefix first advances over the
    /// rows that became terminal; only the rows after it are encoded
    /// into `buf`, so the cost follows the rows changed since the last
    /// snapshot, not the rows the shard ever held.
    fn shard_record<'s>(
        &'s mut self,
        db: &LobsterDb,
        wf: u32,
        buf: &'s mut Vec<u8>,
    ) -> [Part<'s>; 5] {
        let ix = wf as usize;
        if self.shards.len() <= ix {
            self.shards.resize_with(ix + 1, FrozenShard::default);
        }
        let shard = &mut self.shards[ix];
        let rows_from = |from: usize| {
            db.tasks[from..]
                .iter()
                .zip(from..)
                .filter_map(move |(row, i)| row.as_ref().filter(|t| t.wf == wf).map(|t| (i, t)))
        };
        let output = |i: usize| db.outputs.get(i).and_then(Option::as_ref);

        // Rows of other workflows are stepped over, and so are empty slots:
        // ids below `next_task` that no task took, which none will now.
        let from = shard.upto;
        let upto = rows_from(from)
            .find(|(_, t)| !t.state.is_terminal())
            .map_or(db.tasks.len(), |(i, _)| i);
        let newly = || rows_from(from).take_while(move |(i, _)| *i < upto);
        buf.clear();
        let mut n = 0;
        for (i, t) in newly() {
            codec::put_task_row(buf, TaskId(i as u64), &t.tasklets, t.state, t.attempts);
            n += 1;
        }
        shard.rows.append(buf, n);
        buf.clear();
        let mut n_out = 0;
        for o in newly().filter_map(|(i, _)| output(i)) {
            codec::put_output_row(buf, o.task, o.bytes, o.done_seq);
            n_out += 1;
        }
        shard.outputs.append(buf, n_out);
        shard.upto = upto;

        buf.clear();
        let mut live = 0;
        let mut live_out = 0;
        for (i, t) in rows_from(upto) {
            codec::put_task_row(buf, TaskId(i as u64), &t.tasklets, t.state, t.attempts);
            live += 1;
            live_out += u64::from(output(i).is_some());
        }
        codec::put_u64(buf, shard.outputs.count + live_out);
        let outputs_at = buf.len();
        for o in rows_from(upto).filter_map(|(i, _)| output(i)) {
            codec::put_output_row(buf, o.task, o.bytes, o.done_seq);
        }
        codec::put_ledger(buf, db.ledger_of(wf));
        let head_at = buf.len();
        let entry = &db.workflows[ix];
        codec::put_shard_head(
            buf,
            ShardHead {
                wf,
                name: &entry.name,
                total: entry.state.total_tasklets,
                cursor: entry.state.cursor,
                returned: entry.state.returned.iter().copied(),
                done: entry.state.done,
                dead: entry.state.dead,
                tasks: shard.rows.count + live,
            },
        );
        self.rows_encoded += n + live;
        let fresh = |bytes| Part { bytes, crc: None };
        [
            fresh(&buf[head_at..]),
            shard.rows.part(),
            fresh(&buf[..outputs_at]),
            shard.outputs.part(),
            fresh(&buf[outputs_at..head_at]),
        ]
    }
}

impl LobsterDb {
    /// In-memory DB (no persistence) — used by simulations where the
    /// journal volume would be millions of records.
    pub fn in_memory() -> Self {
        LobsterDb {
            workflows: Vec::new(),
            tasks: Vec::new(),
            n_tasks: 0,
            outputs: Vec::new(),
            done_order: Vec::new(),
            done_seqs: Vec::new(),
            merged_files: BTreeMap::new(),
            merge_groups: BTreeMap::new(),
            grouped: BTreeSet::new(),
            merged_outputs: BTreeMap::new(),
            withdrawn_outputs: BTreeSet::new(),
            dead_letters: Vec::new(),
            dead_letter_seqs: Vec::new(),
            accounting: Accounting::default(),
            counters: Counters::default(),
            next_task: 0,
            next_merge: 0,
            journal: None,
            snapshot_every: None,
            replayed_attempts: Vec::new(),
            snap: SnapshotCache::default(),
        }
    }

    /// DB journaled at `path` (created or appended). Write-through (every
    /// record commits immediately), no auto-compaction — the
    /// byte-for-byte conservative policy.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_policy(path, &JournalPolicy::never())
    }

    /// DB journaled at `path` under `policy`: group-commit record/byte
    /// thresholds plus optional per-file auto-compaction. `path` is a v3
    /// shard directory, created when missing. Any torn tail left by a
    /// crash is truncated (before the append handle opens) so the next
    /// commit starts at a frame boundary.
    pub fn open_with_policy(path: impl AsRef<Path>, policy: &JournalPolicy) -> io::Result<Self> {
        let path = path.as_ref();
        let group = GroupCommit {
            records: policy.group_commit_records.max(1),
            bytes: policy.group_commit_bytes.max(1),
        };
        let mut db = if journal_dir_exists(path)? {
            let scans = journal::scan_dir(path)?;
            let mut db = Self::in_memory();
            let scans = replay_scans(&mut db, scans);
            db.audit_cross_shard(path)?;
            db.journal = Some(Journal::attach(path, &scans, group)?);
            db
        } else {
            let mut db = Self::in_memory();
            db.journal = Some(Journal::create(path, group)?);
            db
        };
        db.snapshot_every = policy.snapshot_every_records;
        if let Some(n) = policy.snapshot_every_records {
            // A crash can land after the record that crosses the
            // snapshot threshold but before its compaction; finishing
            // the compaction at open keeps the boundary deterministic
            // across crash/resume.
            let tags = db.journal.as_ref().map(Journal::tags).unwrap_or_default();
            for tag in tags {
                if db
                    .journal
                    .as_ref()
                    .is_some_and(|j| j.tail_records(tag) >= n)
                {
                    db.compact_file(tag)?;
                }
            }
        }
        Ok(db)
    }

    /// Cross-shard causality audit after a sharded replay. The commit
    /// protocol writes shards before `master.wal`, so master records can
    /// only depend on shard records that are already durable; a master
    /// record referencing a task output no shard delivered means a shard
    /// file lost fsynced history (truncated beyond its torn tail,
    /// restored from an older copy, …) — refuse to limp onward.
    fn audit_cross_shard(&self, path: &Path) -> io::Result<()> {
        for (gid, inputs) in &self.merge_groups {
            for (src, _) in inputs {
                if self.output_row(*src).is_none() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal causality violation in {path:?}: merge group \
                             {gid:?} references the output of task {src:?}, but no \
                             shard holds its TaskDone — a shard file has lost \
                             fsynced history"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Rebuild state by replaying the journal at `path` (missing →
    /// empty DB) — read-only: nothing is truncated or created. Use
    /// [`LobsterDb::open`] to attach.
    pub fn recover(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let mut db = Self::in_memory();
        if journal_dir_exists(path)? {
            replay_scans(&mut db, journal::scan_dir(path)?);
            db.audit_cross_shard(path)?;
        }
        Ok(db)
    }

    /// Compact every shard file (and `master.wal`) into a single
    /// snapshot frame each. Bounds future replay cost.
    pub fn compact(&mut self) -> io::Result<()> {
        let tags = match self.journal.as_ref() {
            Some(j) => j.tags(),
            None => return Ok(()), // in-memory: nothing to compact
        };
        for tag in tags {
            self.compact_file(tag)?;
        }
        Ok(())
    }

    /// Rewrite one shard file as header + one snapshot frame (tmp file,
    /// fsync, atomic rename). A shard's frame is written in parts, its
    /// frozen rows straight from the cache; the master's is encoded whole
    /// from the maps. Pending group-commit buffers are flushed first — a
    /// snapshot is a durability boundary.
    fn compact_file(&mut self, tag: u32) -> io::Result<()> {
        if self.journal.is_none() {
            return Ok(());
        }
        let mut buf = Vec::new();
        if tag == MASTER_TAG {
            self.put_master_snapshot(&mut buf);
            let whole = [Part {
                bytes: &buf,
                crc: None,
            }];
            return self
                .journal
                .as_mut()
                .map_or(Ok(()), |j| j.compact(tag, &whole));
        }
        // The cache is borrowed out while it encodes from the slabs.
        // simlint::allow(journal-coverage): derived compaction cache, never journaled
        let mut snap = std::mem::take(&mut self.snap);
        let parts = snap.shard_record(self, tag, &mut buf);
        let written = self
            .journal
            .as_mut()
            .map_or(Ok(()), |j| j.compact(tag, &parts));
        // simlint::allow(journal-coverage): derived compaction cache, never journaled
        self.snap = snap;
        written
    }

    /// Commit all buffered journal records to disk — the explicit
    /// durability boundary (the driver calls this at crash points and
    /// before reporting).
    pub fn flush(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            // A failed WAL write is unrecoverable by design (footnote 1
            // of the paper requires crash-consistent recovery): crashing
            // preserves the durable prefix, whereas continuing would
            // fork memory from disk.
            // simlint::allow(no-panic-in-lib): WAL commit failure is fatal by design
            j.commit().expect("journal write");
        }
    }

    /// Simulated crash *inside* the group-commit window: buffered
    /// records are dropped without reaching disk, as a real crash would
    /// lose them. The files stay at the last commit boundary.
    pub fn crash(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.abandon();
        }
    }

    /// Buffer one record for `tag`'s shard file, committing the group
    /// when the policy thresholds are crossed.
    fn log_to(&mut self, tag: Option<u32>, rec: &Record) {
        let Some(tag) = tag else { return };
        if let Some(j) = self.journal.as_mut() {
            // See `flush` for why WAL failures are fatal.
            // simlint::allow(no-panic-in-lib): WAL append failure is fatal by design
            let full = j.append(tag, rec).expect("journal write");
            if full {
                // simlint::allow(no-panic-in-lib): WAL commit failure is fatal by design
                j.commit().expect("journal write");
            }
        }
    }

    /// The shard file a record belongs to: task-lifecycle records go to
    /// their workflow's shard, everything else to `master.wal`.
    fn route(&self, rec: &Record) -> u32 {
        match rec {
            Record::Workflow { wf, .. } | Record::TaskCreated { wf, .. } => *wf,
            Record::TaskRunning { id } | Record::TaskDone { id, .. } | Record::TaskLost { id } => {
                self.task_row(*id).map_or(MASTER_TAG, |t| t.wf)
            }
            Record::DeadLettered { letter, .. } if letter.category != Category::Merge => {
                self.task_row(letter.task).map_or(MASTER_TAG, |t| t.wf)
            }
            _ => MASTER_TAG,
        }
    }

    /// The shard a ledger entry snapshots into — must agree with
    /// [`LobsterDb::route`]'s apply-time decision (rows are never
    /// removed, so it does).
    fn letter_shard(&self, l: &DeadLetter) -> u32 {
        if l.category == Category::Merge {
            MASTER_TAG
        } else {
            self.task_row(l.task).map_or(MASTER_TAG, |t| t.wf)
        }
    }

    fn apply(&mut self, rec: Record) {
        match rec {
            Record::Workflow { wf, name, tasklets } => {
                let state = WorkflowState {
                    total_tasklets: tasklets,
                    ..WorkflowState::default()
                };
                let ix = wf as usize;
                if ix < self.workflows.len() {
                    self.workflows[ix] = WorkflowEntry { name, state };
                } else {
                    // Indices are journaled densely; shard files replay
                    // in ascending order, so `ix == len` here.
                    self.workflows.push(WorkflowEntry { name, state });
                }
            }
            Record::TaskCreated { id, wf, tasklets } => {
                let wfe = &mut self.workflows[wf as usize].state;
                for t in &tasklets {
                    // Claim from the returned pool or advance the cursor.
                    if !wfe.returned.remove(t) {
                        wfe.cursor = wfe.cursor.max(t + 1);
                    }
                }
                self.insert_task_row(
                    id,
                    TaskRow {
                        wf,
                        tasklets,
                        state: TaskState::Ready,
                        attempts: 0,
                    },
                );
                self.next_task = self.next_task.max(id.0 + 1);
            }
            Record::TaskRunning { id } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Running;
                t.attempts += 1;
            }
            Record::TaskDone {
                id,
                output_bytes,
                done_seq,
            } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Done;
                let wf_ix = t.wf as usize;
                let tasklets = t.tasklets.len() as u64;
                self.workflows[wf_ix].state.done += tasklets;
                self.insert_output_row(
                    id,
                    OutputFile {
                        task: id,
                        bytes: output_bytes,
                        done_seq,
                    },
                );
                self.insert_done(id, done_seq);
            }
            Record::TaskLost { id } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Lost;
                let wf_ix = t.wf as usize;
                let returned: Vec<u64> = t.tasklets.clone();
                self.workflows[wf_ix].state.returned.extend(returned);
            }
            Record::MergeCreated { id, inputs } => {
                for (src, _) in &inputs {
                    self.grouped.insert(*src);
                }
                self.merge_groups.insert(id, inputs);
                self.next_merge = self.next_merge.max(id.0 - MERGE_ID_BASE + 1);
            }
            Record::Merged {
                task,
                outputs,
                into,
                bytes,
            } => {
                for id in &outputs {
                    self.merged_outputs.insert(*id, into.clone());
                    self.grouped.remove(id);
                }
                self.merged_files.insert(into, bytes);
                self.counters.merges_completed += 1;
                if let Some(t) = task {
                    self.merge_groups.remove(&t);
                }
            }
            Record::Attempt { report } => {
                self.apply_attempt(&report);
            }
            Record::Backoff { wait } => {
                self.accounting.record_backoff(wait);
            }
            Record::DeadLettered { letter, seq } => {
                let l = *letter;
                if l.category == Category::Merge {
                    // Withdraw the group: its inputs leave merge planning
                    // for good (they are neither merged nor re-groupable).
                    if let Some(inputs) = self.merge_groups.remove(&l.task) {
                        for (src, _) in inputs {
                            self.grouped.remove(&src);
                            self.withdrawn_outputs.insert(src);
                        }
                    }
                } else {
                    let wf_ix = match self.task_row_mut(l.task) {
                        Some(t) => {
                            t.state = TaskState::Withdrawn;
                            Some(t.wf as usize)
                        }
                        None => None,
                    };
                    if let Some(ix) = wf_ix {
                        self.workflows[ix].state.dead += l.units;
                    }
                }
                self.insert_dead_letter(seq, l);
            }
            Record::ShardSnapshot { state } => {
                self.install_shard(*state);
            }
            Record::MasterSnapshot { state } => {
                self.install_master(*state);
            }
        }
    }

    fn apply_attempt(&mut self, report: &SegmentReport) {
        self.accounting.record(report);
        if !report.is_success() {
            self.counters.tasks_failed += 1;
        }
        if report.evicted {
            self.counters.evictions += 1;
        }
    }

    /// Sorted insert into the finish-order index. Online appends are
    /// already in order (`seq` is assigned as `done_order.len()`); only
    /// sharded replay inserts out of order.
    fn insert_done(&mut self, id: TaskId, seq: u64) {
        let at = self.done_seqs.partition_point(|&s| s < seq);
        self.done_order.insert(at, id);
        self.done_seqs.insert(at, seq);
        self.counters.tasks_completed += 1;
    }

    /// Sorted insert into the dead-letter ledger. `dead_lettered` is
    /// derived from the ledger length rather than journaled separately:
    /// letters split across shard and master files, and a derived value
    /// cannot drift from the two halves.
    fn insert_dead_letter(&mut self, seq: u64, l: DeadLetter) {
        let at = self.dead_letter_seqs.partition_point(|&s| s < seq);
        self.dead_letters.insert(at, l);
        self.dead_letter_seqs.insert(at, seq);
        self.accounting.dead_lettered = self.dead_letters.len() as u64;
    }

    fn apply_and_log(&mut self, rec: Record) {
        let tag = if self.journal.is_some() {
            Some(self.route(&rec))
        } else {
            None
        };
        self.log_to(tag, &rec);
        // The log-then-apply wrapper is the one sanctioned entry into
        // the replay path: the record is durable (or buffered toward the
        // next commit boundary) before the in-memory state changes.
        // simlint::allow(journal-coverage): sanctioned log-then-apply entry point
        self.apply(rec);
        if let (Some(n), Some(tag)) = (self.snapshot_every, tag) {
            if self
                .journal
                .as_ref()
                .is_some_and(|j| j.tail_records(tag) >= n)
            {
                // Compaction failure would strand an unbounded journal
                // while memory marches on; same fatal-by-design stance as
                // a failed append.
                // simlint::allow(no-panic-in-lib): WAL compaction failure is fatal by design
                self.compact_file(tag).expect("journal compaction");
            }
        }
    }

    /// Append the master snapshot record to `buf`, read off the merge
    /// maps, the ledger, the accounting and the counters.
    fn put_master_snapshot(&self, buf: &mut Vec<u8>) {
        // Merged outputs name their file by its rank in the (sorted)
        // merged-file list instead of repeating the string. Outputs merged
        // together mostly sit next to each other in task order, so the
        // previous output's rank is tried before a search.
        let names: Vec<&str> = self.merged_files.keys().map(String::as_str).collect();
        let mut last: Option<(&str, u32)> = None;
        codec::put_master_snapshot(
            buf,
            MasterFrame {
                merged_files: self.merged_files.iter().map(|(k, v)| (k.as_str(), *v)),
                merge_groups: self.merge_groups.iter().map(|(k, v)| (*k, v.as_slice())),
                merged_outputs: self.merged_outputs.iter().map(move |(task, name)| {
                    let ix = match last {
                        Some((prev, ix)) if prev == name => ix,
                        _ => {
                            let ix = names.partition_point(|n| *n < name.as_str()) as u32;
                            last = Some((name, ix));
                            ix
                        }
                    };
                    (*task, ix)
                }),
                withdrawn_outputs: self.withdrawn_outputs.iter().map(|t| t.0),
                next_merge: self.next_merge,
                dead_letters: self.ledger_of(MASTER_TAG),
                accounting: &self.accounting,
                tasks_failed: self.counters.tasks_failed,
                evictions: self.counters.evictions,
                merges_completed: self.counters.merges_completed,
            },
        );
    }

    /// The ledger entries that snapshot into `tag`'s file, as
    /// `(seq, letter)` in ledger order.
    fn ledger_of(&self, tag: u32) -> impl Iterator<Item = (u64, &DeadLetter)> + Clone + '_ {
        self.dead_letters
            .iter()
            .zip(&self.dead_letter_seqs)
            .filter(move |(l, _)| self.letter_shard(l) == tag)
            .map(|(l, seq)| (*seq, l))
    }

    /// Install one shard snapshot — additive: shard files replay in
    /// ascending index order, each installing its own slice. The rows it
    /// replaces may sit in a frozen prefix, so the cache is dropped.
    fn install_shard(&mut self, s: ShardSnap) {
        self.snap.shards.clear();
        let entry = WorkflowEntry {
            name: s.name,
            state: WorkflowState {
                total_tasklets: s.total,
                cursor: s.cursor,
                returned: s.returned.into_iter().collect(),
                done: s.done,
                dead: s.dead,
            },
        };
        let ix = s.wf as usize;
        if ix < self.workflows.len() {
            self.workflows[ix] = entry;
        } else {
            self.workflows.push(entry);
        }
        for t in s.tasks {
            self.next_task = self.next_task.max(t.id.0 + 1);
            self.insert_task_row(
                t.id,
                TaskRow {
                    wf: s.wf,
                    tasklets: t.tasklets,
                    state: t.state,
                    attempts: t.attempts,
                },
            );
        }
        for o in s.outputs {
            self.insert_output_row(
                o.task,
                OutputFile {
                    task: o.task,
                    bytes: o.bytes,
                    done_seq: o.done_seq,
                },
            );
            self.insert_done(o.task, o.done_seq);
        }
        for (seq, l) in s.dead_letters {
            self.insert_dead_letter(seq, l);
        }
    }

    /// Install the master snapshot. Replays *after* every shard file
    /// (master sorts last), so the shard slices are already in place.
    fn install_master(&mut self, m: MasterSnap) {
        let file_names: Vec<String> = m.merged_files.iter().map(|(n, _)| n.clone()).collect();
        self.merged_files = m.merged_files.into_iter().collect();
        self.grouped = m
            .merge_groups
            .iter()
            .flat_map(|(_, inputs)| inputs.iter().map(|(src, _)| *src))
            .collect();
        self.merge_groups = m.merge_groups.into_iter().collect();
        self.merged_outputs = m
            .merged_outputs
            .into_iter()
            .map(|(task, ix)| (task, file_names[ix as usize].clone()))
            .collect();
        self.withdrawn_outputs = m.withdrawn_outputs.into_iter().map(TaskId).collect();
        self.next_merge = m.next_merge;
        for (seq, l) in m.dead_letters {
            self.insert_dead_letter(seq, l);
        }
        self.accounting = m.accounting;
        // Derived, not a master-slice scalar: the ledger spans both
        // slices and the shard halves installed first.
        self.accounting.dead_lettered = self.dead_letters.len() as u64;
        self.counters.tasks_failed = m.tasks_failed;
        self.counters.evictions = m.evictions;
        self.counters.merges_completed = m.merges_completed;
    }

    fn wf_index(&self, name: &str) -> Option<usize> {
        // Linear scan: a run has a handful of workflows, and the hot path
        // never resolves by name (rows carry the index).
        self.workflows.iter().position(|w| w.name == name)
    }

    /// Mirrors the old map indexing: an unknown workflow is a caller bug.
    fn wf_state(&self, name: &str) -> &WorkflowState {
        // simlint::allow(no-panic-in-lib): an unknown workflow is a caller bug
        &self.workflows[self.wf_index(name).expect("workflow registered")].state
    }

    fn task_row(&self, id: TaskId) -> Option<&TaskRow> {
        self.tasks.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    fn task_row_mut(&mut self, id: TaskId) -> Option<&mut TaskRow> {
        self.tasks.get_mut(usize::try_from(id.0).ok()?)?.as_mut()
    }

    fn insert_task_row(&mut self, id: TaskId, row: TaskRow) {
        debug_assert!(id.0 < MERGE_ID_BASE, "merge tasks have no task row");
        let ix = id.0 as usize;
        if self.tasks.len() <= ix {
            self.tasks.resize(ix + 1, None);
        }
        if self.tasks[ix].replace(row).is_none() {
            self.n_tasks += 1;
        }
    }

    fn output_row(&self, id: TaskId) -> Option<&OutputFile> {
        self.outputs.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    fn insert_output_row(&mut self, id: TaskId, out: OutputFile) {
        let ix = id.0 as usize;
        if self.outputs.len() <= ix {
            self.outputs.resize(ix + 1, None);
        }
        self.outputs[ix] = Some(out);
    }

    /// True when `id`'s output exists and is still mergeable.
    fn output_mergeable(&self, id: TaskId) -> bool {
        self.output_row(id).is_some()
            && !self.merged_outputs.contains_key(&id)
            && !self.withdrawn_outputs.contains(&id)
    }

    fn reject(&mut self, task: TaskId, action: &'static str) -> RejectedTransition {
        // rejected_transitions is a diagnostic-only counter, deliberately
        // unjournaled (see the Counters docs): replay equality is defined
        // over task state, not over how many invalid transitions were
        // attempted against it.
        // simlint::allow(journal-coverage): diagnostic-only counter, deliberately unjournaled
        self.counters.rejected_transitions += 1;
        RejectedTransition {
            task,
            from: self.task_row(task).map(|t| t.state),
            action,
        }
    }

    /// Register a workflow of `tasklets` total tasklets.
    pub fn register_workflow(&mut self, name: &str, tasklets: u64) {
        assert!(
            self.wf_index(name).is_none(),
            "workflow {name} already registered"
        );
        let wf = self.workflows.len() as u32;
        self.apply_and_log(Record::Workflow {
            wf,
            name: name.to_string(),
            tasklets,
        });
    }

    /// Tasklets not yet assigned to any live task.
    pub fn unassigned_tasklets(&self, workflow: &str) -> u64 {
        let wf = self.wf_state(workflow);
        (wf.total_tasklets - wf.cursor) + wf.returned.len() as u64
    }

    /// Tasklets finished.
    pub fn done_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).done
    }

    /// Tasklets withdrawn with dead-lettered tasks.
    pub fn dead_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).dead
    }

    /// Total tasklets in the workflow.
    pub fn total_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).total_tasklets
    }

    /// Tasklets finished, summed over every registered workflow (an
    /// index walk, no name lookups — safe for per-completion call sites).
    pub fn total_done_tasklets(&self) -> u64 {
        self.workflows.iter().map(|w| w.state.done).sum()
    }

    /// Dead-lettered tasklets, summed over every registered workflow.
    pub fn total_dead_tasklets(&self) -> u64 {
        self.workflows.iter().map(|w| w.state.dead).sum()
    }

    /// True if the workflow is registered.
    pub fn has_workflow(&self, workflow: &str) -> bool {
        self.wf_index(workflow).is_some()
    }

    /// Number of registered workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows.len()
    }

    /// True once every tasklet of every workflow is done.
    pub fn all_done(&self) -> bool {
        self.workflows
            .iter()
            .all(|w| w.state.done == w.state.total_tasklets)
    }

    /// Create a task covering the next `n` unassigned tasklets (returned
    /// tasklets first, then fresh ones). Returns `None` when the workflow
    /// is exhausted; a short final task is created if fewer than `n`
    /// remain.
    pub fn create_task(&mut self, workflow: &str, n: u32) -> Option<TaskId> {
        assert!(n >= 1);
        // simlint::allow(no-panic-in-lib): an unknown workflow is a caller bug
        let wf_ix = self.wf_index(workflow).expect("workflow registered") as u32;
        // Peek the claim without mutating: `apply` is the single place
        // that mutates state, so journal replay is authoritative.
        let wf = &self.workflows[wf_ix as usize].state;
        let mut claim: Vec<u64> = Vec::with_capacity(n as usize);
        let mut returned = wf.returned.iter().copied();
        let mut cursor = wf.cursor;
        while claim.len() < n as usize {
            if let Some(t) = returned.next() {
                claim.push(t);
            } else if cursor < wf.total_tasklets {
                claim.push(cursor);
                cursor += 1;
            } else {
                break;
            }
        }
        if claim.is_empty() {
            return None;
        }
        let id = TaskId(self.next_task);
        self.apply_and_log(Record::TaskCreated {
            id,
            wf: wf_ix,
            tasklets: claim,
        });
        Some(id)
    }

    /// Plan a merge over `inputs` (each a done, unmerged, unclaimed
    /// output). Journals the group so a resumed run re-issues exactly
    /// this merge; returns the merge task id (numbered from
    /// [`MERGE_ID_BASE`]).
    pub fn create_merge_group(
        &mut self,
        inputs: &[(TaskId, u64)],
    ) -> Result<TaskId, RejectedTransition> {
        for (src, _) in inputs {
            if !self.output_mergeable(*src) || self.grouped.contains(src) {
                return Err(self.reject(*src, "create_merge_group"));
            }
        }
        let id = TaskId(MERGE_ID_BASE + self.next_merge);
        self.apply_and_log(Record::MergeCreated {
            id,
            inputs: inputs.to_vec(),
        });
        Ok(id)
    }

    /// Mark a task dispatched. Legal from `Ready` or `Running` (a
    /// re-dispatch after a vanished worker).
    pub fn mark_running(&mut self, id: TaskId) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Ready | TaskState::Running) => {
                self.apply_and_log(Record::TaskRunning { id });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_running")),
        }
    }

    /// Mark a task finished with `output_bytes` of output. Legal from
    /// `Running` only.
    pub fn mark_done(&mut self, id: TaskId, output_bytes: u64) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Running) => {
                // The global finish sequence: dense because `done_order`
                // only ever grows, deterministic because replay rebuilds
                // the identical order before the next assignment.
                let done_seq = self.done_order.len() as u64;
                self.apply_and_log(Record::TaskDone {
                    id,
                    output_bytes,
                    done_seq,
                });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_done")),
        }
    }

    /// Mark a task lost; its tasklets return to the pool. Legal from
    /// `Ready` or `Running`.
    pub fn mark_lost(&mut self, id: TaskId) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Ready | TaskState::Running) => {
                self.apply_and_log(Record::TaskLost { id });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_lost")),
        }
    }

    /// Record a merge of `outputs` into `into` totalling `bytes`. `task`
    /// is the planned merge group being completed (`None` for merges
    /// planned outside the DB, e.g. the Hadoop-style global plan). Every
    /// output must be done, unmerged and not withdrawn; the file name
    /// must be unused.
    pub fn mark_merged(
        &mut self,
        task: Option<TaskId>,
        outputs: &[TaskId],
        into: &str,
        bytes: u64,
    ) -> Result<(), RejectedTransition> {
        if let Some(t) = task {
            if !self.merge_groups.contains_key(&t) {
                return Err(self.reject(t, "mark_merged (unknown merge group)"));
            }
        }
        if self.merged_files.contains_key(into) {
            let id = task
                .or_else(|| outputs.first().copied())
                .unwrap_or(TaskId(0));
            return Err(self.reject(id, "mark_merged (duplicate merged file)"));
        }
        for id in outputs {
            if !self.output_mergeable(*id) {
                return Err(self.reject(*id, "mark_merged"));
            }
        }
        self.apply_and_log(Record::Merged {
            task,
            outputs: outputs.to_vec(),
            into: into.to_string(),
            bytes,
        });
        Ok(())
    }

    /// Journal one attempt report into the durable accounting.
    pub fn record_attempt(&mut self, report: &SegmentReport) {
        if self.journal.is_some() {
            self.apply_and_log(Record::Attempt {
                report: Box::new(report.clone()),
            });
        } else {
            // In-memory mode: apply directly, skipping the per-attempt
            // `Box` + clone a journal record would cost on the hot path.
            // simlint::allow(journal-coverage): in-memory fast path gated on journal absence
            self.apply_attempt(report);
        }
    }

    /// Journal time spent in a backoff wait.
    pub fn record_backoff(&mut self, wait: SimDuration) {
        self.apply_and_log(Record::Backoff { wait });
    }

    /// Journal a task landing in the dead-letter ledger. For analysis
    /// tasks the task is withdrawn and its tasklets counted dead; for
    /// merges the group is dissolved and its inputs withdrawn. An analysis
    /// task that is already `Done`, `Lost` or `Withdrawn` is rejected:
    /// those rows never change again, which lets compaction keep their
    /// encoding.
    pub fn record_dead_letter(&mut self, letter: DeadLetter) -> Result<(), RejectedTransition> {
        if letter.category != Category::Merge
            && self
                .task_state(letter.task)
                .is_some_and(TaskState::is_terminal)
        {
            return Err(self.reject(letter.task, "record_dead_letter"));
        }
        let seq = self.dead_letters.len() as u64;
        self.apply_and_log(Record::DeadLettered {
            letter: Box::new(letter),
            seq,
        });
        Ok(())
    }

    /// Task state lookup.
    pub fn task_state(&self, id: TaskId) -> Option<TaskState> {
        self.task_row(id).map(|t| t.state)
    }

    /// Dispatch attempts of a task.
    pub fn attempts(&self, id: TaskId) -> u32 {
        self.task_row(id).map_or(0, |t| t.attempts)
    }

    /// Tasklets covered by a task.
    pub fn task_tasklets(&self, id: TaskId) -> Option<&[u64]> {
        self.task_row(id).map(|t| t.tasklets.as_slice())
    }

    /// Workflow a task belongs to.
    pub fn task_workflow(&self, id: TaskId) -> Option<&str> {
        self.task_row(id)
            .map(|t| self.workflows[t.wf as usize].name.as_str())
    }

    /// Outputs not yet merged (nor withdrawn), as `(task, bytes)` sorted
    /// by task id.
    pub fn unmerged_outputs(&self) -> Vec<(TaskId, u64)> {
        self.outputs
            .iter()
            .flatten()
            .filter(|o| self.output_mergeable(o.task))
            .map(|o| (o.task, o.bytes))
            .collect()
    }

    /// Unmerged, unwithdrawn outputs not claimed by any open merge group,
    /// in task *finish* order — the shape of the driver's pending-merge
    /// buffer at crash time.
    pub fn done_order_unmerged(&self) -> Vec<(TaskId, u64)> {
        self.done_order
            .iter()
            .filter(|id| self.output_mergeable(**id) && !self.grouped.contains(id))
            .filter_map(|id| self.output_row(*id).map(|o| (o.task, o.bytes)))
            .collect()
    }

    /// Open (planned, incomplete) merge groups as `(merge id, inputs)`.
    pub fn open_merge_groups(&self) -> Vec<(TaskId, MergeInputs)> {
        self.merge_groups
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Tasks currently in `Running` state (in-flight at crash time).
    pub fn running_tasks(&self) -> Vec<TaskId> {
        self.tasks_in_state(TaskState::Running)
    }

    /// Tasks still in `Ready` state: created (their tasklets are claimed
    /// off the workflow cursor) but never dispatched. A recovered master
    /// must re-dispatch these — nothing else will re-cover the tasklets.
    pub fn ready_tasks(&self) -> Vec<TaskId> {
        self.tasks_in_state(TaskState::Ready)
    }

    /// Live task ids in `state`, ascending.
    fn tasks_in_state(&self, state: TaskState) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, row)| row.as_ref().is_some_and(|t| t.state == state))
            .map(|(ix, _)| TaskId(ix as u64))
            .collect()
    }

    /// Merged files as `(name, bytes)`.
    pub fn merged_files(&self) -> Vec<(String, u64)> {
        self.merged_files
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Number of merged files produced so far.
    pub fn merged_file_count(&self) -> usize {
        self.merged_files.len()
    }

    /// Number of tasks ever created.
    pub fn task_count(&self) -> usize {
        self.n_tasks
    }

    /// The dead-letter ledger, in dead-letter order.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Durable run accounting (rebuilt on recovery).
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Durable run counters (rebuilt on recovery).
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Records appended since the last snapshot, summed over every shard
    /// file (buffered records included). Derived from the journal itself
    /// — identical whether the DB reached this state live or by replay.
    pub fn records_since_snapshot(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::total_tail_records)
    }

    /// Attempt reports replayed from the journal tail during recovery
    /// (empties the buffer). The driver uses these to rebuild monitor
    /// timelines on resume.
    pub fn take_replayed_attempts(&mut self) -> Vec<SegmentReport> {
        std::mem::take(&mut self.replayed_attempts)
    }
}

impl Drop for LobsterDb {
    fn drop(&mut self) {
        // Best-effort final commit of the group-commit window; a failure
        // must not panic in drop (the process is already on its way out,
        // and the torn-tail rule makes a lost window recoverable).
        if let Some(j) = self.journal.as_mut() {
            let _ = j.commit();
        }
    }
}

/// Whether a journal directory exists at `path`. Missing is `false`; a
/// regular file (or anything else that is not a directory) is
/// `InvalidData` and stays untouched.
fn journal_dir_exists(path: &Path) -> io::Result<bool> {
    match fs::metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
        Ok(m) if m.is_dir() => Ok(true),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal path {path:?} is not a v3 journal directory"),
        )),
    }
}

/// Replay scanned v3 shard files into `db` — shards in ascending index
/// order, master last (the order [`journal::scan_dir`] returns). A free
/// function rather than a method: replay re-enters `apply` with already-
/// journaled records, deliberately outside the journaled-write call graph.
/// Returns the scans (records drained) for [`Journal::attach`].
fn replay_scans(db: &mut LobsterDb, mut scans: Vec<ScannedFile>) -> Vec<ScannedFile> {
    for scan in &mut scans {
        for rec in std::mem::take(&mut scan.records) {
            if matches!(rec, Record::MasterSnapshot { .. }) {
                // Attempts live in master.wal; everything before its
                // snapshot is folded in, not replayed.
                db.replayed_attempts.clear();
            }
            if let Record::Attempt { report } = &rec {
                db.replayed_attempts.push((**report).clone());
            }
            db.apply(rec);
        }
    }
    scans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::Segment;
    use simkit::time::SimTime;
    use std::path::PathBuf;
    use wqueue::task::{FailureCode, TaskTimes};

    /// A fresh journal *path* (v3 journals are directories; the
    /// rejection tests write a file at the same path).
    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lobster-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}-{}.wal", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        std::fs::remove_file(p).ok();
        std::fs::remove_dir_all(p).ok();
    }

    fn shard_file(p: &Path, wf: u32) -> PathBuf {
        p.join(format!("shard-{wf:04}.wal"))
    }

    fn master_file(p: &Path) -> PathBuf {
        p.join("master.wal")
    }

    fn v3_header(tag: u32) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&tag.to_le_bytes());
        h
    }

    /// Policy with explicit group-commit thresholds, no auto-compaction.
    fn group_policy(records: u64, bytes: u64) -> JournalPolicy {
        JournalPolicy {
            snapshot_every_records: None,
            group_commit_records: records,
            group_commit_bytes: bytes,
        }
    }

    fn report(task: u64, ok: bool) -> SegmentReport {
        SegmentReport {
            task: TaskId(task),
            category: Category::Analysis,
            attempt: 0,
            worker: 1,
            times: TaskTimes {
                cpu: SimDuration::from_mins(10),
                ..TaskTimes::default()
            },
            failed_segment: if ok { None } else { Some(Segment::StageIn) },
            watchdog: false,
            evicted: false,
            dispatched_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(600),
            output_bytes: if ok { 1000 } else { 0 },
        }
    }

    fn letter(task: u64, category: Category, units: u64) -> DeadLetter {
        DeadLetter {
            task: TaskId(task),
            category,
            code: FailureCode::StageIn,
            attempts: 3,
            units,
            at: SimTime::from_secs(900),
        }
    }

    #[test]
    fn workflow_decomposition_bookkeeping() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 10);
        assert_eq!(db.unassigned_tasklets("wf"), 10);
        let t0 = db.create_task("wf", 4).unwrap();
        let t1 = db.create_task("wf", 4).unwrap();
        let t2 = db.create_task("wf", 4).unwrap(); // short final task
        assert!(db.create_task("wf", 4).is_none(), "exhausted");
        assert_eq!(db.task_tasklets(t0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(db.task_tasklets(t2).unwrap(), &[8, 9]);
        assert_eq!(db.unassigned_tasklets("wf"), 0);
        assert_eq!(db.task_count(), 3);
        let _ = t1;
    }

    #[test]
    fn lost_tasklets_are_reassigned_first() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let t0 = db.create_task("wf", 3).unwrap();
        db.mark_running(t0).unwrap();
        db.mark_lost(t0).unwrap();
        assert_eq!(db.unassigned_tasklets("wf"), 6);
        let t1 = db.create_task("wf", 4).unwrap();
        // Returned tasklets 0..3 come first, then fresh tasklet 3.
        assert_eq!(db.task_tasklets(t1).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(db.task_state(t0), Some(TaskState::Lost));
    }

    #[test]
    fn done_accounting() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let t = db.create_task("wf", 4).unwrap();
        db.mark_running(t).unwrap();
        assert!(!db.all_done());
        db.mark_done(t, 1000).unwrap();
        assert_eq!(db.done_tasklets("wf"), 4);
        assert!(db.all_done());
        assert_eq!(db.unmerged_outputs(), vec![(t, 1000)]);
        assert_eq!(db.counters().tasks_completed, 1);
    }

    #[test]
    fn attempts_count_redispatches() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        let t2 = db.create_task("wf", 2).unwrap();
        db.mark_running(t2).unwrap();
        db.mark_running(t2).unwrap(); // re-dispatch after a worker vanished
        assert_eq!(db.attempts(t2), 2);
    }

    #[test]
    fn merge_bookkeeping() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        db.mark_running(a).unwrap();
        db.mark_done(a, 100).unwrap();
        db.mark_running(b).unwrap();
        db.mark_done(b, 150).unwrap();
        let g = db.create_merge_group(&[(a, 100), (b, 150)]).unwrap();
        assert_eq!(g, TaskId(MERGE_ID_BASE));
        assert!(
            db.done_order_unmerged().is_empty(),
            "grouped outputs leave planning"
        );
        db.mark_merged(Some(g), &[a, b], "merged_0.root", 250)
            .unwrap();
        assert!(db.unmerged_outputs().is_empty());
        assert_eq!(db.merged_files(), vec![("merged_0.root".into(), 250)]);
        assert!(db.open_merge_groups().is_empty());
        assert_eq!(db.counters().merges_completed, 1);
    }

    #[test]
    fn journal_recovery_rebuilds_state() {
        let path = tmp_path("journal");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t0 = db.create_task("wf", 3).unwrap();
            let t1 = db.create_task("wf", 3).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 500).unwrap();
            db.mark_running(t1).unwrap();
            db.mark_lost(t1).unwrap();
        } // crash
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.total_tasklets("wf"), 8);
        assert_eq!(db.done_tasklets("wf"), 3);
        // t1's 3 tasklets returned + 2 never assigned.
        assert_eq!(db.unassigned_tasklets("wf"), 5);
        assert_eq!(db.task_state(TaskId(0)), Some(TaskState::Done));
        assert_eq!(db.task_state(TaskId(1)), Some(TaskState::Lost));
        assert_eq!(db.unmerged_outputs().len(), 1);
        cleanup(&path);
    }

    #[test]
    fn recovered_db_continues_numbering() {
        let path = tmp_path("journal2");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 10);
            db.create_task("wf", 2).unwrap();
        }
        {
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 2).unwrap();
            assert_eq!(t, TaskId(1), "ids continue after recovery");
            assert_eq!(db.task_tasklets(t).unwrap(), &[2, 3]);
        }
        cleanup(&path);
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let db = LobsterDb::recover("/nonexistent/path/journal.wal").unwrap();
        assert!(db.all_done(), "no workflows → vacuously done");
        assert_eq!(db.task_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_workflow_rejected() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 1);
        db.register_workflow("wf", 1);
    }

    // ---- v3 framing & torn-tail tolerance ------------------------------

    /// Byte-truncate the final frame of a shard file at *every* offset:
    /// recovery must succeed and yield exactly the state without that
    /// frame.
    #[test]
    fn torn_tail_tolerated_at_every_offset() {
        let path = tmp_path("torn");
        let len_without_last;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 6);
            let t0 = db.create_task("wf", 3).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 500).unwrap();
            len_without_last = std::fs::metadata(shard_file(&path, 0)).unwrap().len();
            // The final record, to be torn:
            db.create_task("wf", 3).unwrap();
        }
        let full = std::fs::read(shard_file(&path, 0)).unwrap();
        assert!(full.len() as u64 > len_without_last);
        for cut in len_without_last..full.len() as u64 {
            std::fs::write(shard_file(&path, 0), &full[..cut as usize]).unwrap();
            let db = LobsterDb::recover(&path)
                .unwrap_or_else(|e| panic!("torn tail at {cut} must be tolerated: {e}"));
            assert_eq!(db.task_count(), 1, "cut at {cut}: last record discarded");
            assert_eq!(db.done_tasklets("wf"), 3);
            // Re-opening truncates the torn tail and continues cleanly.
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 3).unwrap();
            assert_eq!(t, TaskId(1));
        }
        cleanup(&path);
    }

    /// The satellite-1 regression: open a torn journal and append
    /// *immediately* — the torn bytes must be truncated before the
    /// append handle exists, so the rewritten stream is byte-for-byte
    /// what an untorn journal would hold.
    #[test]
    fn torn_tail_then_append_replays_byte_for_byte() {
        let path = tmp_path("torn-append");
        let len_after_workflow;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 6);
            len_after_workflow = std::fs::metadata(shard_file(&path, 0)).unwrap().len();
            db.create_task("wf", 3).unwrap();
        }
        let full = std::fs::read(shard_file(&path, 0)).unwrap();
        // Tear into the TaskCreated frame.
        std::fs::write(shard_file(&path, 0), &full[..full.len() - 3]).unwrap();
        {
            // Open + append in one breath, no intermediate recover.
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 3).unwrap();
            assert_eq!(t, TaskId(0), "torn TaskCreated was discarded");
        }
        let rewritten = std::fs::read(shard_file(&path, 0)).unwrap();
        assert!(rewritten.len() as u64 > len_after_workflow);
        assert_eq!(
            rewritten, full,
            "truncate-then-append reproduces the identical byte stream"
        );
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 1);
        assert_eq!(db.task_tasklets(TaskId(0)).unwrap(), &[0, 1, 2]);
        cleanup(&path);
    }

    #[test]
    fn corrupt_final_record_discarded() {
        let path = tmp_path("corrupt-final");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            db.create_task("wf", 2).unwrap();
        }
        let shard = shard_file(&path, 0);
        let mut bytes = std::fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // CRC now fails on the final frame
        std::fs::write(&shard, &bytes).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 0, "corrupt final record discarded");
        assert_eq!(db.total_tasklets("wf"), 4, "earlier records intact");
        cleanup(&path);
    }

    #[test]
    fn mid_file_corruption_is_hard_error() {
        let path = tmp_path("corrupt-mid");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            db.create_task("wf", 2).unwrap();
            db.create_task("wf", 2).unwrap();
        }
        let shard = shard_file(&path, 0);
        let mut bytes = std::fs::read(&shard).unwrap();
        // Flip a payload byte of the *first* frame (just past its header).
        let at = HEADER_LEN + FRAME_HEADER_LEN + 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&shard, &bytes).unwrap();
        let err = LobsterDb::recover(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        cleanup(&path);
    }

    #[test]
    fn bad_header_rejected_torn_header_tolerated() {
        let path = tmp_path("header");
        drop(LobsterDb::open(&path).unwrap()); // fresh dir, master.wal only
        let master = master_file(&path);
        // Garbage that is not a prefix of the canonical header: hard error.
        std::fs::write(&master, b"NOTAWAL!").unwrap();
        assert_eq!(
            LobsterDb::recover(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Wrong version in an otherwise intact header: hard error.
        let mut h = v3_header(journal::MASTER_TAG);
        h[8] = 99;
        std::fs::write(&master, h).unwrap();
        assert_eq!(
            LobsterDb::recover(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A torn prefix of the canonical header (crash during the very
        // first write): tolerated as an empty journal.
        for cut in 1..HEADER_LEN {
            std::fs::write(&master, &v3_header(journal::MASTER_TAG)[..cut]).unwrap();
            let db = LobsterDb::recover(&path).unwrap();
            assert_eq!(db.task_count(), 0);
            // open() resets it to a fresh, usable journal.
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow(&format!("wf{cut}"), 1);
        }
        cleanup(&path);
    }

    /// v1 (and any unknown version) in a single-file journal is rejected
    /// — only v3 directories attach.
    #[test]
    fn v1_single_file_version_rejected() {
        let path = tmp_path("v1");
        for version in [1u32, 4, 99] {
            let mut h = [0u8; HEADER_LEN];
            h[..8].copy_from_slice(MAGIC);
            h[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, h).unwrap();
            assert_eq!(
                LobsterDb::recover(&path).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "version {version} must be rejected"
            );
            assert_eq!(
                LobsterDb::open(&path).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "version {version} must not open"
            );
        }
        cleanup(&path);
    }

    /// A regular file at the journal path — a v2 single-file journal, or
    /// anything else — fails both open and recover with `InvalidData`
    /// naming the path, and is left byte-for-byte untouched.
    #[test]
    fn regular_file_at_journal_path_is_rejected_untouched() {
        let path = tmp_path("not-a-dir");
        let mut v2_header = [0u8; HEADER_LEN];
        v2_header[..8].copy_from_slice(MAGIC);
        v2_header[8..12].copy_from_slice(&2u32.to_le_bytes());
        for bytes in [&v2_header[..], b"not a journal", b""] {
            std::fs::write(&path, bytes).unwrap();
            for err in [
                LobsterDb::recover(&path).unwrap_err(),
                LobsterDb::open(&path).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(&format!("{path:?}")), "{err}");
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file untouched");
        }
        cleanup(&path);
    }

    #[test]
    fn snapshot_compaction_preserves_state_and_shrinks_journal() {
        let path = tmp_path("compact");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t0 = db.create_task("wf", 4).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 700).unwrap();
            db.record_attempt(&report(t0.0, true));
            db.record_backoff(SimDuration::from_mins(5));
            for _ in 0..50 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_lost(t).unwrap();
            }
            let before = journal_bytes(&path).unwrap();
            db.compact().unwrap();
            assert_eq!(db.records_since_snapshot(), 0);
            assert!(
                journal_bytes(&path).unwrap() < before,
                "snapshot frames replace the record tail"
            );
            // Post-compaction appends land after the snapshot frame.
            let t = db.create_task("wf", 2).unwrap();
            db.mark_running(t).unwrap();
        }
        let mut db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("wf"), 4);
        assert_eq!(db.counters().tasks_completed, 1);
        assert!(db.accounting().cpu > 0.0);
        assert!(db.accounting().backoff_hours > 0.0);
        assert_eq!(db.task_state(TaskId(51)), Some(TaskState::Running));
        // Attempts before the snapshot are folded into it, not replayed.
        assert!(db.take_replayed_attempts().is_empty());
        cleanup(&path);
    }

    #[test]
    fn auto_snapshot_policy_compacts() {
        let path = tmp_path("auto-compact");
        let policy = JournalPolicy {
            snapshot_every_records: Some(10),
            ..JournalPolicy::never()
        };
        {
            let mut db = LobsterDb::open_with_policy(&path, &policy).unwrap();
            db.register_workflow("wf", 64);
            for _ in 0..30 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
            }
            assert!(
                db.records_since_snapshot() < 10,
                "policy keeps the tail short, got {}",
                db.records_since_snapshot()
            );
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("wf"), 30);
        assert_eq!(db.counters().tasks_completed, 30);
        assert_eq!(db.task_count(), 30);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_after_snapshot_tolerated() {
        let path = tmp_path("torn-after-snap");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t = db.create_task("wf", 4).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
            db.compact().unwrap();
            db.create_task("wf", 4).unwrap(); // the record to tear
        }
        let shard = shard_file(&path, 0);
        let full = std::fs::read(&shard).unwrap();
        // Tear half of the final record.
        std::fs::write(&shard, &full[..full.len() - 5]).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 1, "post-snapshot torn record discarded");
        assert_eq!(db.done_tasklets("wf"), 4, "snapshot state intact");
        cleanup(&path);
    }

    // ---- explicit transitions ------------------------------------------

    #[test]
    fn illegal_mark_done_from_ready() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Ready));
        assert_eq!(db.task_state(t), Some(TaskState::Ready), "state unchanged");
        assert_eq!(db.done_tasklets("wf"), 0);
        assert_eq!(db.counters().rejected_transitions, 1);
    }

    #[test]
    fn illegal_mark_done_twice() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(db.done_tasklets("wf"), 2, "not double counted");
    }

    #[test]
    fn illegal_mark_done_from_lost() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Lost));
        assert_eq!(db.unassigned_tasklets("wf"), 2, "tasklets stay returned");
    }

    #[test]
    fn illegal_mark_running_from_done() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_running(t).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(db.attempts(t), 1, "attempt count unchanged");
    }

    #[test]
    fn illegal_mark_running_from_lost() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        assert!(db.mark_running(t).is_err());
        assert_eq!(db.task_state(t), Some(TaskState::Lost));
    }

    #[test]
    fn illegal_mark_lost_from_done() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_lost(t).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(
            db.unassigned_tasklets("wf"),
            0,
            "done tasklets not returned"
        );
    }

    #[test]
    fn transitions_on_unknown_task_rejected() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let ghost = TaskId(404);
        assert_eq!(db.mark_running(ghost).unwrap_err().from, None);
        assert_eq!(db.mark_done(ghost, 1).unwrap_err().from, None);
        assert_eq!(db.mark_lost(ghost).unwrap_err().from, None);
        assert_eq!(db.counters().rejected_transitions, 3);
    }

    #[test]
    fn illegal_transitions_on_withdrawn_task() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.record_dead_letter(letter(t.0, Category::Analysis, 2))
            .unwrap();
        assert_eq!(db.task_state(t), Some(TaskState::Withdrawn));
        assert!(db.mark_running(t).is_err());
        assert!(db.mark_done(t, 1).is_err());
        assert!(db.mark_lost(t).is_err());
    }

    #[test]
    fn illegal_dead_letter_on_done_task() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db
            .record_dead_letter(letter(t.0, Category::Analysis, 2))
            .unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(db.task_state(t), Some(TaskState::Done), "state unchanged");
        assert_eq!(db.dead_tasklets("wf"), 0, "not counted dead");
        assert!(db.dead_letters().is_empty(), "ledger unchanged");
        assert_eq!(db.counters().rejected_transitions, 1);
    }

    #[test]
    fn illegal_dead_letter_on_lost_task() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        let err = db
            .record_dead_letter(letter(t.0, Category::Analysis, 2))
            .unwrap_err();
        assert_eq!(err.from, Some(TaskState::Lost));
        assert_eq!(db.task_state(t), Some(TaskState::Lost));
        assert_eq!(db.dead_tasklets("wf"), 0);
        assert_eq!(db.unassigned_tasklets("wf"), 2, "tasklets stay returned");
        assert!(db.dead_letters().is_empty());
    }

    #[test]
    fn illegal_dead_letter_on_withdrawn_task() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.record_dead_letter(letter(t.0, Category::Analysis, 2))
            .unwrap();
        let err = db
            .record_dead_letter(letter(t.0, Category::Analysis, 2))
            .unwrap_err();
        assert_eq!(err.from, Some(TaskState::Withdrawn));
        assert_eq!(db.dead_tasklets("wf"), 2, "not counted dead twice");
        assert_eq!(db.dead_letters().len(), 1);
        assert_eq!(db.accounting().dead_lettered, 1);
    }

    #[test]
    fn merge_group_rejections() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        db.mark_running(a).unwrap();
        db.mark_done(a, 100).unwrap();
        // b not done yet: no output to group.
        assert!(db.create_merge_group(&[(b, 100)]).is_err());
        db.mark_running(b).unwrap();
        db.mark_done(b, 150).unwrap();
        let g = db.create_merge_group(&[(a, 100)]).unwrap();
        // a already claimed by g.
        let err = db.create_merge_group(&[(a, 100)]).unwrap_err();
        assert_eq!(err.task, a);
        // Completing an unknown group is rejected.
        assert!(db
            .mark_merged(Some(TaskId(MERGE_ID_BASE + 77)), &[b], "x.root", 1)
            .is_err());
        db.mark_merged(Some(g), &[a], "m0.root", 100).unwrap();
        // a now merged: cannot merge again, cannot regroup.
        assert!(db.mark_merged(None, &[a], "m1.root", 100).is_err());
        assert!(db.create_merge_group(&[(a, 100)]).is_err());
        // Duplicate merged-file name is rejected.
        assert!(db.mark_merged(None, &[b], "m0.root", 150).is_err());
        db.mark_merged(None, &[b], "m1.root", 150).unwrap();
        std::mem::drop(db);
    }

    // ---- dead letters, accounting, ordering ----------------------------

    #[test]
    fn dead_letter_analysis_withdraws_tasklets() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let t = db.create_task("wf", 3).unwrap();
        db.mark_running(t).unwrap();
        db.record_dead_letter(letter(t.0, Category::Analysis, 3))
            .unwrap();
        assert_eq!(db.dead_tasklets("wf"), 3);
        assert_eq!(db.done_tasklets("wf"), 0);
        assert_eq!(db.dead_letters().len(), 1);
        assert_eq!(db.accounting().dead_lettered, 1);
        // Withdrawn tasklets are NOT returned to the pool.
        assert_eq!(db.unassigned_tasklets("wf"), 3);
    }

    #[test]
    fn dead_letter_merge_withdraws_inputs() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        for t in [a, b] {
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
        }
        let g = db.create_merge_group(&[(a, 100), (b, 100)]).unwrap();
        db.record_dead_letter(DeadLetter {
            category: Category::Merge,
            units: 2,
            ..letter(g.0, Category::Merge, 2)
        })
        .unwrap();
        assert!(db.open_merge_groups().is_empty(), "group dissolved");
        assert!(db.unmerged_outputs().is_empty(), "inputs withdrawn");
        assert!(db.done_order_unmerged().is_empty());
        assert!(db.mark_merged(None, &[a], "m.root", 100).is_err());
    }

    #[test]
    fn accounting_and_ledger_survive_recovery() {
        let path = tmp_path("acct");
        let (acct_json, letters) = {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t = db.create_task("wf", 4).unwrap();
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, false));
            db.record_backoff(SimDuration::from_mins(15));
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, true));
            db.mark_done(t, 1000).unwrap();
            let u = db.create_task("wf", 4).unwrap();
            db.mark_running(u).unwrap();
            db.record_dead_letter(letter(u.0, Category::Analysis, 4))
                .unwrap();
            (
                serde_json::to_string(db.accounting()).unwrap(),
                db.dead_letters().to_vec(),
            )
        };
        let mut db = LobsterDb::recover(&path).unwrap();
        assert_eq!(serde_json::to_string(db.accounting()).unwrap(), acct_json);
        assert_eq!(db.dead_letters(), letters.as_slice());
        assert_eq!(db.counters().tasks_failed, 1);
        assert_eq!(db.dead_tasklets("wf"), 4);
        assert_eq!(db.take_replayed_attempts().len(), 2);
        cleanup(&path);
    }

    #[test]
    fn done_order_unmerged_is_finish_order() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        let c = db.create_task("wf", 2).unwrap();
        for t in [a, b, c] {
            db.mark_running(t).unwrap();
        }
        // Finish out of id order: c, a, b.
        db.mark_done(c, 30).unwrap();
        db.mark_done(a, 10).unwrap();
        db.mark_done(b, 20).unwrap();
        assert_eq!(db.done_order_unmerged(), vec![(c, 30), (a, 10), (b, 20)]);
        // unmerged_outputs stays id-sorted.
        assert_eq!(db.unmerged_outputs(), vec![(a, 10), (b, 20), (c, 30)]);
    }

    #[test]
    fn merge_numbering_continues_after_recovery() {
        let path = tmp_path("merge-num");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            let a = db.create_task("wf", 2).unwrap();
            db.mark_running(a).unwrap();
            db.mark_done(a, 100).unwrap();
            let g = db.create_merge_group(&[(a, 100)]).unwrap();
            assert_eq!(g, TaskId(MERGE_ID_BASE));
        }
        {
            let mut db = LobsterDb::open(&path).unwrap();
            // The open group survived the crash.
            assert_eq!(db.open_merge_groups().len(), 1);
            let b = db.create_task("wf", 2).unwrap();
            db.mark_running(b).unwrap();
            db.mark_done(b, 150).unwrap();
            let g2 = db.create_merge_group(&[(b, 150)]).unwrap();
            assert_eq!(g2, TaskId(MERGE_ID_BASE + 1), "merge ids continue");
        }
        cleanup(&path);
    }

    // ---- sharding -------------------------------------------------------

    #[test]
    fn journal_shards_per_workflow() {
        let path = tmp_path("shards");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("alpha", 4);
            db.register_workflow("beta", 4);
            let a = db.create_task("alpha", 2).unwrap();
            let b = db.create_task("beta", 2).unwrap();
            for t in [a, b] {
                db.mark_running(t).unwrap();
                db.mark_done(t, 100).unwrap();
            }
            db.mark_merged(None, &[a, b], "m.root", 200).unwrap();
        }
        // One file per workflow plus master.
        assert!(shard_file(&path, 0).is_file());
        assert!(shard_file(&path, 1).is_file());
        assert!(master_file(&path).is_file());
        let hdr = HEADER_LEN as u64;
        let size = |p: &Path| std::fs::metadata(p).unwrap().len();
        assert!(size(&shard_file(&path, 0)) > hdr, "alpha records routed");
        assert!(size(&shard_file(&path, 1)) > hdr, "beta records routed");
        assert!(size(&master_file(&path)) > hdr, "merge routed to master");
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("alpha"), 2);
        assert_eq!(db.done_tasklets("beta"), 2);
        assert_eq!(db.merged_files(), vec![("m.root".into(), 200)]);
        cleanup(&path);
    }

    /// `done_seq` reconstructs the *global* finish order across shard
    /// files, which individually only know their own completions.
    #[test]
    fn cross_shard_finish_order_survives_recovery() {
        let path = tmp_path("cross-order");
        let live_order;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("alpha", 4);
            db.register_workflow("beta", 4);
            let a0 = db.create_task("alpha", 2).unwrap();
            let b0 = db.create_task("beta", 2).unwrap();
            let a1 = db.create_task("alpha", 2).unwrap();
            let b1 = db.create_task("beta", 2).unwrap();
            for t in [a0, b0, a1, b1] {
                db.mark_running(t).unwrap();
            }
            // Interleave finishes across the two shards.
            db.mark_done(b0, 20).unwrap();
            db.mark_done(a1, 30).unwrap();
            db.mark_done(a0, 10).unwrap();
            db.mark_done(b1, 40).unwrap();
            live_order = db.done_order_unmerged();
            assert_eq!(live_order, vec![(b0, 20), (a1, 30), (a0, 10), (b1, 40)]);
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_order_unmerged(), live_order);
        // And through a compacted journal (order now lives in the
        // per-shard snapshot `done_seq`s).
        let mut db = LobsterDb::open(&path).unwrap();
        db.compact().unwrap();
        drop(db);
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_order_unmerged(), live_order);
        cleanup(&path);
    }

    /// A master record depending on a shard record that no shard holds
    /// (here: a merge group whose input's `TaskDone` was torn away) is a
    /// causality violation no real crash can produce — the commit
    /// protocol writes shards before master. Recovery must fail hard.
    #[test]
    fn dangling_merge_reference_fails_hard() {
        let path = tmp_path("dangling");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            let t = db.create_task("wf", 2).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
            db.create_merge_group(&[(t, 100)]).unwrap();
        }
        // Tear the shard's final frame (the TaskDone) — a legitimate
        // torn tail on its own, but master.wal still holds MergeCreated.
        let shard = shard_file(&path, 0);
        let len = std::fs::metadata(&shard).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&shard)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        for res in [LobsterDb::recover(&path), LobsterDb::open(&path)] {
            let err = res.expect_err("dangling reference must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("causality"), "{err}");
        }
        cleanup(&path);
    }

    // ---- group commit ---------------------------------------------------

    #[test]
    fn group_commit_buffers_until_flush() {
        let path = tmp_path("gc-buffer");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(1000, u64::MAX)).unwrap();
        db.register_workflow("wf", 8);
        let t = db.create_task("wf", 4).unwrap();
        db.mark_running(t).unwrap();
        // Nothing committed yet: a reader sees an empty journal.
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.workflow_count(), 0, "window not yet durable");
        db.flush();
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.workflow_count(), 1);
        assert_eq!(cold.task_state(t), Some(TaskState::Running));
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn record_threshold_commits_the_group() {
        let path = tmp_path("gc-records");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(4, u64::MAX)).unwrap();
        db.register_workflow("wf", 8); // 1
        let t0 = db.create_task("wf", 2).unwrap(); // 2
        let t1 = db.create_task("wf", 2).unwrap(); // 3
        db.mark_running(t0).unwrap(); // 4 → commit
        db.mark_running(t1).unwrap(); // 5, buffered
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.task_state(t0), Some(TaskState::Running));
        assert_eq!(cold.task_state(t1), Some(TaskState::Ready), "5th buffered");
        drop(db); // Drop commits the open window best-effort.
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.task_state(t1), Some(TaskState::Running));
        cleanup(&path);
    }

    #[test]
    fn byte_threshold_commits_the_group() {
        let path = tmp_path("gc-bytes");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(u64::MAX, 64)).unwrap();
        db.register_workflow("wf", 64);
        for _ in 0..20 {
            let t = db.create_task("wf", 1).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 10).unwrap();
        }
        // 60 records at a 64-byte threshold: all but the last partial
        // window (< 64 bytes ≈ a handful of compact v3 records) must be
        // durable without an explicit flush.
        let cold = LobsterDb::recover(&path).unwrap();
        assert!(
            cold.counters().tasks_completed >= 12,
            "byte threshold fired (got {})",
            cold.counters().tasks_completed
        );
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn crash_inside_commit_window_loses_only_the_window() {
        let path = tmp_path("gc-crash");
        let t0;
        {
            let mut db = LobsterDb::open_with_policy(&path, &group_policy(1000, u64::MAX)).unwrap();
            db.register_workflow("wf", 8);
            t0 = db.create_task("wf", 4).unwrap();
            db.mark_running(t0).unwrap();
            db.flush(); // durability boundary
            let t1 = db.create_task("wf", 4).unwrap();
            db.mark_running(t1).unwrap();
            db.mark_done(t1, 500).unwrap();
            db.crash(); // the open window dies with the process
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(
            db.task_state(t0),
            Some(TaskState::Running),
            "flushed prefix"
        );
        assert_eq!(db.task_count(), 1, "window after flush lost as a group");
        assert_eq!(db.counters().tasks_completed, 0);
        // The journal is reusable: reopen and continue.
        let mut db = LobsterDb::open(&path).unwrap();
        let t1 = db.create_task("wf", 4).unwrap();
        assert_eq!(t1, TaskId(1));
        drop(db);
        cleanup(&path);
    }

    /// One commit group is one frame: tearing any byte off a committed
    /// batch drops the *whole* group, never a prefix of it.
    #[test]
    fn torn_batch_frame_drops_whole_group() {
        let path = tmp_path("gc-torn");
        {
            let mut db = LobsterDb::open_with_policy(&path, &group_policy(3, u64::MAX)).unwrap();
            db.register_workflow("wf", 8); // |
            let t = db.create_task("wf", 4).unwrap(); // | batch 1 (3 records)
            db.mark_running(t).unwrap(); // | → committed
            db.flush();
        }
        let shard = shard_file(&path, 0);
        let full = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &full[..full.len() - 1]).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.workflow_count(), 0, "whole commit group dropped");
        assert_eq!(db.task_count(), 0);
        cleanup(&path);
    }

    // ---- records_since_snapshot determinism (satellite 2) ---------------

    /// The compaction boundary must be a function of the journaled record
    /// stream alone: a master that crashed and resumed mid-run compacts
    /// at the identical record index as one that ran straight through.
    #[test]
    fn records_since_snapshot_deterministic_across_resume() {
        let straight_path = tmp_path("rss-straight");
        let resumed_path = tmp_path("rss-resumed");
        let policy = JournalPolicy {
            snapshot_every_records: Some(7),
            ..JournalPolicy::never()
        };
        let run = |db: &mut LobsterDb, from: u64, to: u64, trace: &mut Vec<u64>| {
            for _ in from..to {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
                trace.push(db.records_since_snapshot());
            }
        };
        let mut straight = Vec::new();
        {
            let mut db = LobsterDb::open_with_policy(&straight_path, &policy).unwrap();
            db.register_workflow("wf", 64);
            run(&mut db, 0, 12, &mut straight);
        }
        let mut resumed = Vec::new();
        {
            let mut db = LobsterDb::open_with_policy(&resumed_path, &policy).unwrap();
            db.register_workflow("wf", 64);
            run(&mut db, 0, 5, &mut resumed);
        } // crash
        {
            let mut db = LobsterDb::open_with_policy(&resumed_path, &policy).unwrap();
            assert_eq!(
                db.records_since_snapshot(),
                straight[4],
                "replay rebuilds the same tail length"
            );
            run(&mut db, 5, 12, &mut resumed);
        }
        assert_eq!(resumed, straight, "compaction boundaries identical");
        cleanup(&straight_path);
        cleanup(&resumed_path);
    }

    /// A crash can land after the record that crosses the snapshot
    /// threshold but before its compaction; reopening under the policy
    /// finishes the compaction so the tail never exceeds the threshold.
    #[test]
    fn open_finishes_overdue_compaction() {
        let path = tmp_path("rss-overdue");
        {
            // No auto-compaction: build a 3×12-record tail.
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 64);
            for _ in 0..12 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
            }
            assert!(db.records_since_snapshot() >= 36);
        }
        let policy = JournalPolicy {
            snapshot_every_records: Some(5),
            ..JournalPolicy::never()
        };
        let db = LobsterDb::open_with_policy(&path, &policy).unwrap();
        assert_eq!(
            db.records_since_snapshot(),
            0,
            "overdue tails compacted at open"
        );
        drop(db);
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.counters().tasks_completed, 12);
        cleanup(&path);
    }

    // ---- snapshot oracles -----------------------------------------------

    /// The shard slice of workflow `wf` as a decoded snapshot, built row
    /// by row on its own: the oracle for [`SnapshotCache::shard_record`].
    fn shard_snap(db: &LobsterDb, wf: u32) -> ShardSnap {
        let entry = &db.workflows[wf as usize];
        ShardSnap {
            wf,
            name: entry.name.clone(),
            total: entry.state.total_tasklets,
            cursor: entry.state.cursor,
            returned: entry.state.returned.iter().copied().collect(),
            done: entry.state.done,
            dead: entry.state.dead,
            tasks: db
                .tasks
                .iter()
                .enumerate()
                .filter_map(|(ix, row)| {
                    row.as_ref().filter(|t| t.wf == wf).map(|t| TaskSnap {
                        id: TaskId(ix as u64),
                        tasklets: t.tasklets.clone(),
                        state: t.state,
                        attempts: t.attempts,
                    })
                })
                .collect(),
            outputs: db
                .outputs
                .iter()
                .flatten()
                .filter(|o| db.task_row(o.task).is_some_and(|t| t.wf == wf))
                .map(|o| OutputSnap {
                    task: o.task,
                    bytes: o.bytes,
                    done_seq: o.done_seq,
                })
                .collect(),
            dead_letters: db
                .dead_letters
                .iter()
                .zip(&db.dead_letter_seqs)
                .filter(|(l, _)| db.letter_shard(l) == wf)
                .map(|(l, seq)| (*seq, *l))
                .collect(),
        }
    }

    /// The master slice as a decoded snapshot: the oracle for
    /// [`LobsterDb::put_master_snapshot`].
    fn master_snap(db: &LobsterDb) -> MasterSnap {
        let file_ix: BTreeMap<&String, u32> = db
            .merged_files
            .keys()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        MasterSnap {
            merged_files: db
                .merged_files
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            merge_groups: db
                .merge_groups
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            merged_outputs: db
                .merged_outputs
                .iter()
                .map(|(task, name)| (*task, file_ix[name]))
                .collect(),
            withdrawn_outputs: db.withdrawn_outputs.iter().map(|t| t.0).collect(),
            next_merge: db.next_merge,
            dead_letters: db
                .dead_letters
                .iter()
                .zip(&db.dead_letter_seqs)
                .filter(|(l, _)| db.letter_shard(l) == MASTER_TAG)
                .map(|(l, seq)| (*seq, *l))
                .collect(),
            accounting: db.accounting.clone(),
            tasks_failed: db.counters.tasks_failed,
            evictions: db.counters.evictions,
            merges_completed: db.counters.merges_completed,
        }
    }

    /// The live encoder's bytes for `tag`'s snapshot record, a shard's
    /// from a cold cache.
    fn snapshot_bytes(db: &LobsterDb, tag: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        if tag == MASTER_TAG {
            db.put_master_snapshot(&mut buf);
        } else {
            let mut parts = Vec::new();
            for part in SnapshotCache::default().shard_record(db, tag, &mut parts) {
                buf.extend_from_slice(part.bytes);
            }
        }
        buf
    }

    /// The oracle's snapshot record for `tag`.
    fn oracle_record(db: &LobsterDb, tag: u32) -> Record {
        if tag == MASTER_TAG {
            Record::MasterSnapshot {
                state: Box::new(master_snap(db)),
            }
        } else {
            Record::ShardSnapshot {
                state: Box::new(shard_snap(db, tag)),
            }
        }
    }

    /// The oracle's bytes for `tag`'s snapshot record.
    fn oracle_bytes(db: &LobsterDb, tag: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::encode_record(&mut buf, &oracle_record(db, tag));
        buf
    }

    fn snapshot_tags(db: &LobsterDb) -> Vec<u32> {
        let mut tags: Vec<u32> = (0..db.workflow_count() as u32).collect();
        tags.push(MASTER_TAG);
        tags
    }

    /// Same state, field by field: every snapshot frame plus the indexes
    /// and counters that snapshots derive rather than carry.
    fn assert_same_state(live: &LobsterDb, other: &LobsterDb) {
        assert_eq!(snapshot_tags(live), snapshot_tags(other));
        for tag in snapshot_tags(live) {
            assert_eq!(
                snapshot_bytes(other, tag),
                snapshot_bytes(live, tag),
                "tag {tag:#x}"
            );
        }
        assert_eq!(other.done_order, live.done_order);
        assert_eq!(other.done_seqs, live.done_seqs);
        assert_eq!(other.grouped, live.grouped);
        assert_eq!(other.dead_letters, live.dead_letters);
        assert_eq!(other.dead_letter_seqs, live.dead_letter_seqs);
        assert_eq!(other.accounting, live.accounting);
        assert_eq!(other.next_task, live.next_task);
        assert_eq!(other.next_merge, live.next_merge);
        assert_eq!(other.n_tasks, live.n_tasks);
        assert_eq!(
            other.counters().tasks_completed,
            live.counters().tasks_completed
        );
        assert_eq!(other.done_order_unmerged(), live.done_order_unmerged());
        assert_eq!(other.unmerged_outputs(), live.unmerged_outputs());
        assert_eq!(other.open_merge_groups(), live.open_merge_groups());
        assert_eq!(other.merged_files(), live.merged_files());
        for wf in ["alpha", "beta"] {
            assert_eq!(other.unassigned_tasklets(wf), live.unassigned_tasklets(wf));
        }
    }

    /// A whole-file image as the writer lays it out: header, then one
    /// frame per batch (`u32` LE length, CRC-32 from the bytewise
    /// reference, record-count varint, records).
    fn expected_file(tag: u32, batches: &[&[Record]]) -> Vec<u8> {
        let mut file = v3_header(tag).to_vec();
        for batch in batches {
            let mut payload = Vec::new();
            codec::put_u64(&mut payload, batch.len() as u64);
            for rec in *batch {
                codec::encode_record(&mut payload, rec);
            }
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
            file.extend_from_slice(&payload);
        }
        file
    }

    /// Two workflows with every task state, outputs, open/merged/withdrawn
    /// merge groups, ledger entries on both sides and non-zero accounting.
    fn populated_db(path: &Path) -> LobsterDb {
        let mut db = LobsterDb::open(path).unwrap();
        db.register_workflow("alpha", 40);
        db.register_workflow("beta", 40);
        let run_done = |db: &mut LobsterDb, wf: &str, bytes: u64| {
            let t = db.create_task(wf, 3).unwrap();
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, true));
            db.mark_done(t, bytes).unwrap();
            t
        };
        let a0 = run_done(&mut db, "alpha", 100);
        let b0 = run_done(&mut db, "beta", 200);
        let a1 = run_done(&mut db, "alpha", 300);
        let b1 = run_done(&mut db, "beta", 400);
        let a2 = run_done(&mut db, "alpha", 500);
        let b2 = run_done(&mut db, "beta", 600);
        let _ready = db.create_task("alpha", 2).unwrap();
        let running = db.create_task("beta", 2).unwrap();
        db.mark_running(running).unwrap();
        db.mark_running(running).unwrap();
        for wf in ["alpha", "beta"] {
            let t = db.create_task(wf, 2).unwrap();
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, false));
            db.record_dead_letter(letter(t.0, Category::Analysis, 2))
                .unwrap();
        }
        let lost = db.create_task("alpha", 4).unwrap();
        db.mark_running(lost).unwrap();
        db.record_attempt(&SegmentReport {
            evicted: true,
            ..report(lost.0, false)
        });
        db.mark_lost(lost).unwrap();
        db.record_backoff(SimDuration::from_mins(7));
        let merged = db.create_merge_group(&[(a0, 100), (b0, 200)]).unwrap();
        db.mark_merged(Some(merged), &[a0, b0], "m-zz.root", 300)
            .unwrap();
        db.mark_merged(None, &[a1], "m-aa.root", 300).unwrap();
        db.create_merge_group(&[(a2, 500), (b1, 400)]).unwrap();
        let dead = db.create_merge_group(&[(b2, 600)]).unwrap();
        db.record_dead_letter(letter(dead.0, Category::Merge, 1))
            .unwrap();
        db
    }

    /// The slab-walking encoders reproduce the oracle snapshots byte for
    /// byte, and decoding + installing their frames rebuilds the live
    /// state — in memory and through a compacted journal on disk.
    #[test]
    fn snapshot_encoders_match_the_oracles() {
        let path = tmp_path("oracle");
        let mut live = populated_db(&path);
        let states: BTreeSet<String> = live
            .tasks
            .iter()
            .flatten()
            .map(|t| format!("{:?}", t.state))
            .collect();
        assert_eq!(states.len(), 5, "every TaskState present: {states:?}");
        assert!(!live.grouped.is_empty() && !live.withdrawn_outputs.is_empty());
        assert_eq!(live.merged_outputs.len(), 3);
        for tag in snapshot_tags(&live) {
            assert!(live.ledger_of(tag).count() > 0, "ledger on {tag:#x}");
        }

        let mut rebuilt = LobsterDb::in_memory();
        for tag in snapshot_tags(&live) {
            let bytes = snapshot_bytes(&live, tag);
            assert_eq!(bytes, oracle_bytes(&live, tag), "tag {tag:#x}");
            let mut r = codec::Reader::new(&bytes);
            let rec = codec::decode_record(&mut r).unwrap();
            assert!(r.is_empty());
            rebuilt.apply(rec);
        }
        assert_same_state(&live, &rebuilt);

        // Compaction writes exactly one such frame per file.
        live.compact().unwrap();
        for tag in snapshot_tags(&live) {
            let bytes = snapshot_bytes(&live, tag);
            let rec = codec::decode_record(&mut codec::Reader::new(&bytes)).unwrap();
            let file = if tag == MASTER_TAG {
                master_file(&path)
            } else {
                shard_file(&path, tag)
            };
            assert_eq!(
                std::fs::read(file).unwrap(),
                expected_file(tag, &[&[rec]]),
                "tag {tag:#x}"
            );
        }
        assert_same_state(&live, &LobsterDb::recover(&path).unwrap());
        drop(live);
        cleanup(&path);
    }

    /// Bit-at-a-time CRC-32: the reference the slice-by-8 tables must
    /// reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic filler bytes (64-bit LCG, high byte).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let buf = seeded_bytes(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(0x5EED, 1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    /// Commit frames are byte-identical to a frame built record by record
    /// into a fresh payload, for batch counts on both sides of the one-byte
    /// varint boundary, across commits that reuse the buffer.
    #[test]
    fn commit_frames_are_byte_identical() {
        for batch in [1usize, 3, 127, 128, 300] {
            let path = tmp_path(&format!("frames-{batch}"));
            let recs: Vec<Record> = (0..2 * batch as u64 + 1)
                .map(|i| match i % 3 {
                    0 => Record::TaskRunning { id: TaskId(i) },
                    1 => Record::TaskDone {
                        id: TaskId(i),
                        output_bytes: i * 1_000_003,
                        done_seq: i,
                    },
                    _ => Record::TaskCreated {
                        id: TaskId(i),
                        wf: 0,
                        tasklets: (i..i + 5).collect(),
                    },
                })
                .collect();
            let group = GroupCommit {
                records: batch as u64,
                bytes: u64::MAX,
            };
            let mut j = Journal::create(&path, group).unwrap();
            for rec in &recs {
                if j.append(0, rec).unwrap() {
                    j.commit().unwrap();
                }
            }
            j.commit().unwrap();
            let batches: Vec<&[Record]> = recs.chunks(batch).collect();
            assert_eq!(
                std::fs::read(shard_file(&path, 0)).unwrap(),
                expected_file(0, &batches),
                "batch {batch}"
            );
            drop(j);
            cleanup(&path);
        }
    }

    /// Deterministic draws for the seeded db tests (64-bit LCG, high
    /// bits).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }

        fn pick<T: Copy>(&mut self, v: &[T]) -> Option<T> {
            if v.is_empty() {
                None
            } else {
                Some(v[self.below(v.len() as u64) as usize])
            }
        }
    }

    /// One seeded journaled operation on a two-workflow db: task
    /// creation and every task transition, dead letters on both sides,
    /// merge groups, merges and attempts.
    fn mutate(db: &mut LobsterDb, rng: &mut Lcg) {
        let live = [db.ready_tasks(), db.running_tasks()].concat();
        match rng.below(12) {
            0..=2 => {
                let wf = ["alpha", "beta"][rng.below(2) as usize];
                if db.unassigned_tasklets(wf) > 0 {
                    db.create_task(wf, 1 + rng.below(3) as u32);
                }
            }
            3 | 4 => {
                if let Some(t) = rng.pick(&live) {
                    db.mark_running(t).unwrap();
                }
            }
            5 | 6 => {
                if let Some(t) = rng.pick(&db.running_tasks()) {
                    db.mark_done(t, 100 + rng.below(1000)).unwrap();
                }
            }
            7 => {
                if let Some(t) = rng.pick(&live) {
                    db.mark_lost(t).unwrap();
                }
            }
            8 => {
                if let Some(t) = rng.pick(&live) {
                    let units = db.task_tasklets(t).map_or(0, |v| v.len() as u64);
                    db.record_dead_letter(letter(t.0, Category::Analysis, units))
                        .unwrap();
                }
            }
            9 => {
                let outs = db.done_order_unmerged();
                let k = outs.len().min(1 + rng.below(3) as usize);
                if k == 0 {
                } else if rng.below(2) == 0 {
                    db.create_merge_group(&outs[..k]).unwrap();
                } else {
                    let ids: Vec<TaskId> = outs[..k].iter().map(|o| o.0).collect();
                    let name = format!("m{}.root", db.merged_file_count());
                    db.mark_merged(None, &ids, &name, 1).unwrap();
                }
            }
            10 => {
                if let Some((g, inputs)) = db.open_merge_groups().first() {
                    if rng.below(3) == 0 {
                        let l = letter(g.0, Category::Merge, inputs.len() as u64);
                        db.record_dead_letter(l).unwrap();
                    } else {
                        let ids: Vec<TaskId> = inputs.iter().map(|o| o.0).collect();
                        let name = format!("m{}.root", db.merged_file_count());
                        db.mark_merged(Some(*g), &ids, &name, 1).unwrap();
                    }
                }
            }
            _ => {
                let task = rng.pick(&live).map_or(0, |t| t.0);
                db.record_attempt(&report(task, rng.below(2) == 0));
            }
        }
    }

    /// The files compacted by the last operation, each checked against
    /// the oracle frame of the current state: a compacted file holds one
    /// snapshot frame and nothing after it. `tails` carries every file's
    /// replay tail from one call to the next.
    fn check_compactions(db: &LobsterDb, path: &Path, tails: &mut BTreeMap<u32, u64>) -> Vec<u32> {
        let j = db.journal.as_ref().unwrap();
        let mut compacted = Vec::new();
        for tag in j.tags() {
            let tail = j.tail_records(tag);
            if tails.insert(tag, tail).is_some_and(|before| before > tail) {
                let file = if tag == MASTER_TAG {
                    master_file(path)
                } else {
                    shard_file(path, tag)
                };
                assert_eq!(
                    std::fs::read(file).unwrap(),
                    expected_file(tag, &[&[oracle_record(db, tag)]]),
                    "tag {tag:#x}"
                );
                compacted.push(tag);
            }
        }
        compacted
    }

    /// Part-wise shard frames over a frozen prefix are the oracle's frames
    /// byte for byte at every compaction of a seeded run, and stay so
    /// after a restart rebuilds the cache from cold.
    #[test]
    fn compaction_frames_match_the_oracle() {
        let path = tmp_path("frozen-oracle");
        let policy = JournalPolicy {
            snapshot_every_records: Some(16),
            group_commit_records: 4,
            ..JournalPolicy::never()
        };
        let mut rng = Lcg(0x5EED);
        let mut run = |db: &mut LobsterDb, steps: usize| {
            let mut tails = BTreeMap::new();
            check_compactions(db, &path, &mut tails);
            let mut compacted = BTreeSet::new();
            for _ in 0..steps {
                mutate(db, &mut rng);
                compacted.extend(check_compactions(db, &path, &mut tails));
            }
            assert_eq!(compacted.len(), 3, "every file compacted: {compacted:?}");
            assert!(
                db.snap
                    .shards
                    .iter()
                    .all(|s| s.rows.count > 0 && s.outputs.count > 0),
                "both shards froze rows and outputs"
            );
        };
        {
            let mut db = LobsterDb::open_with_policy(&path, &policy).unwrap();
            db.register_workflow("alpha", 1000);
            db.register_workflow("beta", 1000);
            run(&mut db, 1200);
            db.flush();
            assert_same_state(&db, &LobsterDb::recover(&path).unwrap());
        }
        let recovered = LobsterDb::recover(&path).unwrap();
        let mut db = LobsterDb::open_with_policy(&path, &policy).unwrap();
        assert!(db.snap.shards.is_empty(), "the cache starts cold");
        assert_same_state(&recovered, &db);
        run(&mut db, 1200);
        db.flush();
        let states: BTreeSet<String> = db
            .tasks
            .iter()
            .flatten()
            .map(|t| format!("{:?}", t.state))
            .collect();
        assert_eq!(states.len(), 5, "every TaskState reached: {states:?}");
        assert_same_state(&db, &LobsterDb::recover(&path).unwrap());
        drop(db);
        cleanup(&path);
    }

    /// A compaction encodes the rows past the frozen prefix, and each row
    /// once more when it freezes: over `n` tasks finishing in order with
    /// at most `window` in flight, that is at most `n + compactions ×
    /// window` rows, where re-encoding the whole shard would cost the sum
    /// of the shard's sizes over all compactions.
    #[test]
    fn compaction_encodes_only_the_rows_past_the_frozen_prefix() {
        let path = tmp_path("frozen-count");
        let policy = JournalPolicy {
            snapshot_every_records: Some(16),
            ..JournalPolicy::never()
        };
        let (n, in_flight) = (600u64, 4);
        let mut db = LobsterDb::open_with_policy(&path, &policy).unwrap();
        db.register_workflow("wf", n);
        let mut tails = BTreeMap::new();
        let mut compactions = 0;
        let mut flying = std::collections::VecDeque::new();
        for i in 0..n {
            let t = db.create_task("wf", 1).unwrap();
            compactions += check_compactions(&db, &path, &mut tails).len() as u64;
            db.mark_running(t).unwrap();
            compactions += check_compactions(&db, &path, &mut tails).len() as u64;
            flying.push_back(t);
            if flying.len() > in_flight {
                let done = flying.pop_front().unwrap();
                if i % 5 == 0 {
                    db.mark_lost(done).unwrap();
                } else {
                    db.mark_done(done, 10).unwrap();
                }
                compactions += check_compactions(&db, &path, &mut tails).len() as u64;
            }
        }
        // Rows from the oldest in-flight task on: the tasks in flight and
        // the one just created.
        let window = in_flight as u64 + 1;
        assert!(compactions > 100, "{compactions} compactions");
        assert!(
            db.snap.rows_encoded <= n + compactions * window,
            "{} rows encoded over {compactions} compactions of {n} tasks",
            db.snap.rows_encoded
        );
        drop(db);
        cleanup(&path);
    }

    /// Combining the CRCs of the two sides of every split point gives the
    /// CRC of the whole, empty sides included.
    #[test]
    fn crc32_combine_matches_bytewise_reference() {
        for (seed, len) in [(1, 0), (2, 1), (3, 9), (4, 64), (5, 300)] {
            let buf = seeded_bytes(seed, len);
            let whole = crc32_bytewise(&buf);
            for cut in 0..=len {
                let (a, b) = buf.split_at(cut);
                let (ca, cb) = (crc32_bytewise(a), crc32_bytewise(b));
                assert_eq!(crc32_combine(ca, cb, b.len()), whole, "len {len} cut {cut}");
                assert_eq!(crc32_extend(ca, b), whole, "len {len} cut {cut}");
            }
        }
        // A frame folded from parts the way `Journal::compact` folds them.
        let buf = seeded_bytes(6, 1 << 16);
        let (a, rest) = buf.split_at(1000);
        let (b, c) = rest.split_at(40_000);
        let folded = crc32_extend(crc32_combine(crc32(a), crc32(b), b.len()), c);
        assert_eq!(folded, crc32_bytewise(&buf));
        // The squares of x repeat every 32 entries, as `crc32_combine`'s
        // index wrap assumes.
        assert_eq!(multmodp(CRC32_X2N[31], CRC32_X2N[31]), CRC32_X2N[0]);
    }
}
