//! WAL v3 shard files and group commit.
//!
//! A v3 journal is a *directory*: one `shard-NNNN.wal` per registered
//! workflow plus `master.wal` for cross-workflow state (merges, attempt
//! accounting, backoffs). Each file is a 16-byte `LBSTRWAL` header
//! (version 3, then a word naming the shard) followed by `len + CRC-32`
//! frames, with a torn-tail drop on the final frame and a hard
//! `InvalidData` anywhere earlier. A frame payload is a *batch*: a
//! record-count varint followed by that many binary-coded records
//! ([`super::codec`]).
//!
//! # Group commit
//!
//! Appends buffer in memory per file and reach disk together at a
//! *commit boundary*: when buffered records/bytes cross the
//! `JournalPolicy` thresholds, on snapshot compaction, at a simulated
//! crash point, and on drop. One batch is one frame, so the torn-tail
//! rule classifies a mid-commit crash as an interrupted append: the
//! final (partial) frame — the whole commit group on that file — is
//! dropped.
//!
//! # Causal flush order
//!
//! A commit always writes shard files in ascending index order and
//! `master.wal` last. Master records (merge completions, accounting)
//! can depend on shard records (a task finishing); shard records never
//! depend on master records or on other shards. Flushing master last
//! means a crash that tears one file can only lose the *dependent* end
//! of the stream — replay never sees a merge of an output whose
//! `TaskDone` was lost.

use super::codec::{self, Reader};
use super::{
    crc32, crc32_combine, crc32_extend, Record, FRAME_HEADER_LEN, HEADER_LEN, MAGIC, MAX_RECORD_LEN,
};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Format version the v3 writer stamps into every shard header.
pub const V3_VERSION: u32 = 3;

/// The shard tag of `master.wal` (real workflow indices are dense from
/// zero, so the all-ones tag can never collide — and it sorts *after*
/// every shard, which is exactly the flush order the causal contract
/// needs).
pub(crate) const MASTER_TAG: u32 = u32::MAX;

/// Group-commit thresholds (from `JournalPolicy`), in records and bytes
/// buffered across all shard files.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GroupCommit {
    pub records: u64,
    pub bytes: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `master.wal` / `shard-0007.wal`.
fn file_name(tag: u32) -> String {
    if tag == MASTER_TAG {
        "master.wal".to_string()
    } else {
        format!("shard-{tag:04}.wal")
    }
}

fn tag_of_name(name: &str) -> Option<u32> {
    if name == "master.wal" {
        return Some(MASTER_TAG);
    }
    let digits = name.strip_prefix("shard-")?.strip_suffix(".wal")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<u32>().ok().filter(|&t| t != MASTER_TAG)
}

fn header_bytes(tag: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&V3_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&tag.to_le_bytes());
    h
}

/// Frame header of a `len`-byte payload with CRC-32 `crc`: `u32` LE
/// length, then `u32` LE CRC-32.
fn frame_header(len: usize, crc: u32) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// One piece of a snapshot record handed to [`Journal::compact`]: its
/// bytes and, when the caller keeps it, their CRC-32 (computed here
/// otherwise).
pub(crate) struct Part<'a> {
    pub bytes: &'a [u8],
    pub crc: Option<u32>,
}

/// Room at the front of a commit buffer for the frame header and the
/// batch's record-count varint. Both are filled in place at commit,
/// right-aligned against the records, so a batch goes to disk as one
/// write of one buffer with no copy.
const COMMIT_PREFIX: usize = FRAME_HEADER_LEN + codec::MAX_VARINT_LEN;

/// A snapshot frame's record count: its batch is one record, and the
/// varint of 1 is this single byte.
const ONE_RECORD: u8 = 1;

fn read_u32_le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// One scanned shard file: its replayable records, the byte offset of
/// the end of the last intact frame, and how many non-snapshot records
/// follow the last snapshot frame (the replay tail length).
pub(crate) struct ScannedFile {
    pub tag: u32,
    pub records: Vec<Record>,
    pub valid_len: u64,
    pub tail_records: u64,
}

/// Scan every shard file of a v3 journal directory, shards in ascending
/// index order and master last — the replay order. Files that are not
/// shard files (including `.waltmp` compaction leftovers) are ignored.
pub(crate) fn scan_dir(dir: &Path) -> io::Result<Vec<ScannedFile>> {
    let mut tags = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(tag) = entry.file_name().to_str().and_then(tag_of_name) {
            tags.push(tag);
        }
    }
    tags.sort_unstable(); // MASTER_TAG = u32::MAX sorts last
    let mut out = Vec::with_capacity(tags.len());
    for tag in tags {
        out.push(scan_file(&dir.join(file_name(tag)), tag)?);
    }
    Ok(out)
}

/// Torn-tail frame walk of one shard file.
fn scan_file(path: &Path, tag: u32) -> io::Result<ScannedFile> {
    let buf = fs::read(path)?;
    let canonical = header_bytes(tag);
    let mut scanned = ScannedFile {
        tag,
        records: Vec::new(),
        valid_len: 0,
        tail_records: 0,
    };
    if buf.is_empty() {
        return Ok(scanned);
    }
    if buf.len() < HEADER_LEN {
        // A crash can tear even the initial header write.
        return if canonical.starts_with(&buf) {
            Ok(scanned)
        } else {
            Err(invalid(format!("unrecognised journal header in {path:?}")))
        };
    }
    if buf[..HEADER_LEN] != canonical {
        return Err(invalid(format!(
            "bad journal header in {path:?} (want magic {MAGIC:?} version {V3_VERSION} shard {tag:#x})"
        )));
    }
    let mut pos = HEADER_LEN;
    while pos < buf.len() {
        if buf.len() - pos < FRAME_HEADER_LEN {
            break; // torn frame header at EOF: interrupted commit
        }
        let len = read_u32_le(&buf, pos) as usize;
        let crc = read_u32_le(&buf, pos + 4);
        let frame_end = pos + FRAME_HEADER_LEN + len;
        if len > MAX_RECORD_LEN as usize {
            if frame_end >= buf.len() {
                break; // garbage length from a torn final frame
            }
            return Err(invalid(format!(
                "oversized journal frame ({len} bytes) in {path:?}"
            )));
        }
        if frame_end > buf.len() {
            break; // frame extends past EOF: interrupted commit
        }
        let payload = &buf[pos + FRAME_HEADER_LEN..frame_end];
        let is_final = frame_end == buf.len();
        if crc32(payload) != crc {
            if is_final {
                break; // corrupt final frame: interrupted commit
            }
            return Err(invalid(format!(
                "journal CRC mismatch at offset {pos} in {path:?}"
            )));
        }
        match decode_batch(payload) {
            Ok(batch) => {
                for rec in batch {
                    if matches!(
                        rec,
                        Record::ShardSnapshot { .. } | Record::MasterSnapshot { .. }
                    ) {
                        scanned.tail_records = 0;
                    } else {
                        scanned.tail_records += 1;
                    }
                    scanned.records.push(rec);
                }
            }
            Err(e) => {
                if is_final {
                    break; // undecodable final frame: interrupted commit
                }
                return Err(invalid(format!(
                    "undecodable journal frame at offset {pos} in {path:?}: {e}"
                )));
            }
        }
        pos = frame_end;
    }
    scanned.valid_len = pos as u64;
    Ok(scanned)
}

/// Decode one batch payload: record-count varint + records, no slack.
fn decode_batch(payload: &[u8]) -> io::Result<Vec<Record>> {
    let mut r = Reader::new(payload);
    let count = r.u64v()?;
    if count > payload.len() as u64 {
        return Err(invalid("batch record count exceeds payload".to_string()));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(codec::decode_record(&mut r)?);
    }
    if !r.is_empty() {
        return Err(invalid("trailing bytes after batch".to_string()));
    }
    Ok(out)
}

struct ShardFile {
    file: File,
    /// The commit buffer: [`COMMIT_PREFIX`] reserved bytes, then the
    /// encoded records buffered since the last commit. Reused by every
    /// commit.
    buf: Vec<u8>,
    buf_records: u64,
    /// Records appended since the last snapshot frame, buffered or not.
    tail_records: u64,
}

impl ShardFile {
    fn new(file: File, tail_records: u64) -> ShardFile {
        ShardFile {
            file,
            buf: vec![0; COMMIT_PREFIX],
            buf_records: 0,
            tail_records,
        }
    }

    /// Drop the buffered records, keeping the buffer and its prefix.
    fn clear(&mut self) {
        self.buf.truncate(COMMIT_PREFIX);
        self.buf_records = 0;
    }
}

/// The open write side of a v3 journal directory.
#[derive(Debug)]
pub(crate) struct Journal {
    dir: PathBuf,
    files: BTreeMap<u32, ShardFile>,
    pending_records: u64,
    pending_bytes: u64,
    group: GroupCommit,
}

impl std::fmt::Debug for ShardFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardFile")
            .field("buf_records", &self.buf_records)
            .field("tail_records", &self.tail_records)
            .finish()
    }
}

impl Journal {
    /// Create a fresh journal directory (just `master.wal`; shard files
    /// appear when their workflow registers).
    pub fn create(dir: &Path, group: GroupCommit) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let mut j = Journal {
            dir: dir.to_path_buf(),
            files: BTreeMap::new(),
            pending_records: 0,
            pending_bytes: 0,
            group,
        };
        j.create_file(MASTER_TAG)?;
        Ok(j)
    }

    /// Attach to an existing directory after [`scan_dir`]: truncate each
    /// torn tail *first* through a dedicated write handle, then open the
    /// append handle — the append side never observes (or re-extends
    /// over) torn bytes. Stray `.waltmp` compaction leftovers are
    /// removed.
    pub fn attach(dir: &Path, scans: &[ScannedFile], group: GroupCommit) -> io::Result<Journal> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|n| n.ends_with(".waltmp")) {
                fs::remove_file(entry.path())?;
            }
        }
        let mut files = BTreeMap::new();
        for scan in scans {
            let path = dir.join(file_name(scan.tag));
            if scan.valid_len < HEADER_LEN as u64 {
                // Torn header: restart the file from a clean header.
                let mut f = File::create(&path)?;
                f.write_all(&header_bytes(scan.tag))?;
            } else {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
            }
            let file = OpenOptions::new().append(true).open(&path)?;
            files.insert(scan.tag, ShardFile::new(file, scan.tail_records));
        }
        let mut j = Journal {
            dir: dir.to_path_buf(),
            files,
            pending_records: 0,
            pending_bytes: 0,
            group,
        };
        if !j.files.contains_key(&MASTER_TAG) {
            j.create_file(MASTER_TAG)?;
        }
        Ok(j)
    }

    fn create_file(&mut self, tag: u32) -> io::Result<()> {
        let path = self.dir.join(file_name(tag));
        let mut f = File::create(&path)?;
        f.write_all(&header_bytes(tag))?;
        drop(f);
        let file = OpenOptions::new().append(true).open(&path)?;
        self.files.insert(tag, ShardFile::new(file, 0));
        Ok(())
    }

    /// Buffer one record for `tag`, creating the shard file on first
    /// use. Returns `true` when the group-commit thresholds are crossed
    /// and the caller should [`Journal::commit`].
    pub fn append(&mut self, tag: u32, rec: &Record) -> io::Result<bool> {
        if !self.files.contains_key(&tag) {
            self.create_file(tag)?;
        }
        // simlint::allow(no-panic-in-lib): entry inserted just above
        let sf = self.files.get_mut(&tag).expect("shard file exists");
        let before = sf.buf.len();
        codec::encode_record(&mut sf.buf, rec);
        sf.buf_records += 1;
        sf.tail_records += 1;
        self.pending_records += 1;
        self.pending_bytes += (sf.buf.len() - before) as u64;
        Ok(self.pending_records >= self.group.records || self.pending_bytes >= self.group.bytes)
    }

    /// Flush every buffered batch — shards in ascending order, master
    /// last (the causal order; see the module docs). One batch is one
    /// frame, assembled in place in the file's commit buffer. This is the
    /// durability boundary: records are recoverable after `commit`
    /// returns, and lost as a group before it.
    pub fn commit(&mut self) -> io::Result<()> {
        for sf in self.files.values_mut() {
            if sf.buf_records == 0 {
                continue;
            }
            let (count, n) = codec::varint(sf.buf_records);
            let frame_at = COMMIT_PREFIX - n - FRAME_HEADER_LEN;
            let payload_at = frame_at + FRAME_HEADER_LEN;
            sf.buf[payload_at..COMMIT_PREFIX].copy_from_slice(&count[..n]);
            let payload = &sf.buf[payload_at..];
            let header = frame_header(payload.len(), crc32(payload));
            sf.buf[frame_at..payload_at].copy_from_slice(&header);
            sf.file.write_all(&sf.buf[frame_at..])?;
            sf.clear();
        }
        self.pending_records = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// Drop every buffered record without writing — the simulated crash
    /// *inside* a group-commit window. The file contents stay exactly at
    /// the last commit boundary.
    pub fn abandon(&mut self) {
        for sf in self.files.values_mut() {
            sf.tail_records -= sf.buf_records;
            sf.clear();
        }
        self.pending_records = 0;
        self.pending_bytes = 0;
    }

    /// Rewrite one shard file as header + a single snapshot frame (tmp
    /// file, fsync, atomic rename). The frame's payload is a batch of one
    /// record, the concatenation of `record`'s parts: they are written in
    /// order, never gathered into one buffer, and the frame CRC is folded
    /// from theirs. Commits all pending buffers first: a snapshot is a
    /// durability boundary, and the master snapshot's state may depend on
    /// shard records that were still buffered.
    pub fn compact(&mut self, tag: u32, record: &[Part<'_>]) -> io::Result<()> {
        self.commit()?;
        if !self.files.contains_key(&tag) {
            self.create_file(tag)?;
        }
        let (mut len, mut crc) = (1, crc32(&[ONE_RECORD]));
        for p in record {
            len += p.bytes.len();
            crc = match p.crc {
                Some(c) => crc32_combine(crc, c, p.bytes.len()),
                None => crc32_extend(crc, p.bytes),
            };
        }
        let mut head = [ONE_RECORD; HEADER_LEN + FRAME_HEADER_LEN + 1];
        head[..HEADER_LEN].copy_from_slice(&header_bytes(tag));
        head[HEADER_LEN..HEADER_LEN + FRAME_HEADER_LEN].copy_from_slice(&frame_header(len, crc));
        let path = self.dir.join(file_name(tag));
        let tmp = self.dir.join(format!("{}.waltmp", file_name(tag)));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&head)?;
            for p in record {
                f.write_all(p.bytes)?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        // simlint::allow(no-panic-in-lib): entry ensured at function head
        let sf = self.files.get_mut(&tag).expect("shard file exists");
        sf.file = file;
        sf.tail_records = 0;
        Ok(())
    }

    /// Records appended to `tag` since its last snapshot frame
    /// (including any still buffered).
    pub fn tail_records(&self, tag: u32) -> u64 {
        self.files.get(&tag).map_or(0, |sf| sf.tail_records)
    }

    /// Sum of per-file replay tails.
    pub fn total_tail_records(&self) -> u64 {
        self.files.values().map(|sf| sf.tail_records).sum()
    }

    /// Every shard tag with an open file, master included, in flush
    /// order.
    pub fn tags(&self) -> Vec<u32> {
        self.files.keys().copied().collect()
    }
}

/// Total on-disk size of a journal: the sum of its shard files.
pub fn journal_bytes(path: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(path)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".wal"))
        {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}
