//! Append-only write-ahead log with checksummed frames and torn-tail
//! recovery.
//!
//! On-disk layout:
//!
//! ```text
//! [MAGIC "MPSJ"][version u32 LE]          file preamble
//! [len u32 LE][fnv64 u64 LE][payload]     frame, repeated
//! ```
//!
//! Durability model: every frame is `write_all`'d directly to the file
//! (no userspace buffering), so a SIGKILL loses at most the frame being
//! written — the OS page cache holds everything already written. `fsync`
//! is batched (every [`WalWriter::FSYNC_EVERY`] frames plus explicit
//! [`WalWriter::sync`] calls) and only matters for power loss. Either
//! way the tail of the file may be torn or half-written; recovery walks
//! frames from the start and truncates the file at the first frame whose
//! length, checksum, or payload fails to validate. Everything before
//! that point is intact by checksum.

use crate::record::Record;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

pub const MAGIC: [u8; 4] = *b"MPSJ";
pub const VERSION: u32 = 1;
const PREAMBLE_LEN: u64 = 8;
/// Frames are campaign facts, not bulk data; anything bigger than this
/// is corruption masquerading as a length.
const MAX_FRAME: u32 = 64 << 20;

/// FNV-1a 64 — the same fingerprint family the rest of the workspace
/// uses; collision resistance is irrelevant here, torn-write detection is
/// the job.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What recovery found in an existing log.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// File offset after the last intact frame (the append point).
    pub valid_len: u64,
    /// Bytes discarded past `valid_len` (torn or corrupt tail).
    pub truncated_bytes: u64,
    /// Intact-looking frames found *past* the first invalid one. A plain
    /// torn tail (crash mid-append) has none; a nonzero count means the
    /// middle of the log rotted and `dropped_records` good records were
    /// cut off with it — a loud, distinct recovery outcome, not a normal
    /// crash artifact. The dropped facts are recomputed on resume.
    pub dropped_records: u64,
    /// Where [`open_wal`] quarantined the severed suffix bytes
    /// (only on mid-file corruption; a torn tail is just truncated).
    pub quarantined_tail: Option<std::path::PathBuf>,
}

impl Recovery {
    /// True when the invalid region was followed by intact frames:
    /// corruption struck the middle of the file, not the append point.
    pub fn mid_file_corruption(&self) -> bool {
        self.dropped_records > 0
    }
}

/// Try to parse one frame at `pos`; returns the record and the offset
/// just past the frame.
fn try_frame(bytes: &[u8], pos: usize) -> Option<(Record, usize)> {
    let head = bytes.get(pos..pos + 12)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap());
    if len > MAX_FRAME {
        return None;
    }
    let sum = u64::from_le_bytes(head[4..12].try_into().unwrap());
    let payload = bytes.get(pos + 12..pos + 12 + len as usize)?;
    if fnv64(payload) != sum {
        return None;
    }
    let record = Record::decode(payload).ok()?;
    Some((record, pos + 12 + len as usize))
}

/// Count intact frames in the severed region after the first invalid
/// frame, resynchronizing byte-by-byte. Recovery still stops at the
/// corruption point — records past a rotten frame cannot be trusted to
/// be complete — but the count tells the operator (and the trace) that
/// this was bit rot, not a torn tail, and how much was lost.
fn count_dropped(bytes: &[u8], from: usize) -> u64 {
    let mut count = 0u64;
    let mut pos = from;
    while pos + 12 <= bytes.len() {
        match try_frame(bytes, pos) {
            Some((_, next)) => {
                count += 1;
                pos = next;
            }
            None => pos += 1,
        }
    }
    count
}

/// Parse the byte image of a log. Never fails: a log that is corrupt
/// from the first frame simply recovers zero records.
fn scan(bytes: &[u8]) -> Recovery {
    let mut rec = Recovery::default();
    let total = bytes.len() as u64;
    if bytes.len() < PREAMBLE_LEN as usize
        || bytes[..4] != MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION
    {
        // no valid preamble: the whole file is tail
        rec.truncated_bytes = total;
        return rec;
    }
    let mut pos = PREAMBLE_LEN as usize;
    while let Some((record, next)) = try_frame(bytes, pos) {
        rec.records.push(record);
        pos = next;
    }
    rec.valid_len = pos as u64;
    rec.truncated_bytes = total - pos as u64;
    if rec.truncated_bytes > 0 {
        rec.dropped_records = count_dropped(bytes, pos + 1);
    }
    rec
}

/// Parse a byte image that is already in memory (e.g. a spool segment
/// loaded — verified — from the artifact store).
pub fn scan_bytes(bytes: &[u8]) -> Recovery {
    scan(bytes)
}

/// The full byte image of a log holding exactly `records` — preamble
/// plus checksummed frames, identical to what [`rewrite_wal`] puts on
/// disk. Used to publish compacted WALs to the artifact store.
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PREAMBLE_LEN as usize + records.len() * 32);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    for record in records {
        let payload = record.to_bytes();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
    }
    buf
}

/// Appending side of the log. Writes are unbuffered (see module docs);
/// `fsync` is batched.
pub struct WalWriter {
    file: File,
    unsynced: u32,
    fsync_every: u32,
}

impl WalWriter {
    /// How many appended frames may await fsync (power-loss exposure
    /// window; process crashes lose nothing regardless).
    pub const FSYNC_EVERY: u32 = 64;

    /// A writer appending at `file`'s current position.
    pub(crate) fn over(file: File) -> WalWriter {
        WalWriter {
            file,
            unsynced: 0,
            fsync_every: WalWriter::FSYNC_EVERY,
        }
    }

    /// Override the automatic fsync cadence. `0` disables periodic
    /// fsync entirely: only explicit [`sync`](Self::sync) calls hit
    /// stable storage. Logs whose durability point is a single
    /// end-of-batch barrier (fleet spool segments fsync once before
    /// `SHARD_DONE`) use this to avoid paying fsync per batch slice.
    pub fn set_fsync_every(&mut self, every: u32) {
        self.fsync_every = every;
    }

    /// Append one record as a checksummed frame.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Append several records with a single `write` — frame encoding is
    /// identical to one [`append`](Self::append) per record, but
    /// high-rate writers (fleet spool segments at microseconds per
    /// record) pay one syscall per batch instead of one per record. A
    /// crash loses at most the batch being written, which batching
    /// callers must already tolerate.
    pub fn append_batch(&mut self, records: &[Record]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(records.len() * 32);
        for record in records {
            let payload = record.to_bytes();
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&fnv64(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        self.file.write_all(&buf)?;
        self.unsynced += records.len() as u32;
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

/// Open (or create) the log at `path`: recover its intact prefix,
/// truncate any torn tail, and return a writer positioned at the end of
/// the valid data.
pub fn open_wal(path: &Path) -> io::Result<(WalWriter, Recovery)> {
    let mut bytes = Vec::new();
    let existed = match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
            true
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => false,
        Err(e) => return Err(e),
    };

    if !existed || bytes.is_empty() {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.sync_data()?;
        return Ok((WalWriter::over(file), Recovery::default()));
    }

    let mut recovery = scan(&bytes);
    if recovery.valid_len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a minpsid journal (bad magic)", path.display()),
        ));
    }
    // Mid-file corruption (intact frames beyond the rot) is evidence of
    // bit rot, not a crash: preserve the severed suffix next to the log
    // for post-mortem before truncating it away. Torn tails are not
    // preserved — they are an expected crash artifact.
    if recovery.dropped_records > 0 {
        let suffix = &bytes[recovery.valid_len as usize..];
        let mut n = 0u32;
        let qpath = loop {
            let candidate = path.with_extension(if n == 0 {
                "corrupt".to_string()
            } else {
                format!("corrupt.{n}")
            });
            if !candidate.exists() {
                break candidate;
            }
            n += 1;
        };
        std::fs::write(&qpath, suffix)?;
        recovery.quarantined_tail = Some(qpath);
    }

    let file = OpenOptions::new().write(true).open(path)?;
    if recovery.truncated_bytes > 0 {
        file.set_len(recovery.valid_len)?;
        file.sync_data()?;
    }
    // position at the append point (set_len does not move the cursor)
    let mut file = file;
    use std::io::Seek;
    file.seek(io::SeekFrom::Start(recovery.valid_len))?;
    recovery.records.shrink_to_fit();
    Ok((WalWriter::over(file), recovery))
}

/// Read-only scan of the log at `path`: recover the intact record prefix
/// without touching the file (no tail truncation, no writer). A missing
/// file recovers zero records — callers merging spool segments treat
/// "worker died before its first sync" and "empty segment" the same way.
pub fn read_wal(path: &Path) -> io::Result<Recovery> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    }
    Ok(scan(&bytes))
}

/// Atomically replace the log at `path` with a compacted one holding
/// exactly `records`, via the artifact store's crash-safe two-phase
/// write (hidden tmp sibling + fsync + rename + directory fsync).
/// Returns a writer positioned at the end of the new log.
pub fn rewrite_wal(path: &Path, records: &[Record]) -> io::Result<WalWriter> {
    minpsid_store::two_phase_write(path, &encode_records(records))?;
    let mut file = OpenOptions::new().write(true).open(path)?;
    use std::io::Seek;
    file.seek(io::SeekFrom::End(0))?;
    Ok(WalWriter::over(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("minpsid-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(n: u64) -> Record {
        Record::PerInstOutcome {
            input_fp: n,
            dense: n * 3,
            k: n * 7,
            outcome: (n % 6) as u8,
        }
    }

    #[test]
    fn append_reopen_recovers_everything() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("j.wal");
        let (mut w, rec) = open_wal(&path).unwrap();
        assert!(rec.records.is_empty());
        for i in 0..100 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 100);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records[41], sample(41));
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_record() {
        let dir = tmpdir("torn");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..10 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // tear the file mid-frame
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 9, "last frame was torn");
        assert!(rec.truncated_bytes > 0);
        // the truncation is persistent: reopening again is clean
        let (_, rec2) = open_wal(&path).unwrap();
        assert_eq!(rec2.records.len(), 9);
        assert_eq!(rec2.truncated_bytes, 0);
    }

    #[test]
    fn bit_flip_in_tail_frame_is_dropped() {
        let dir = tmpdir("flip");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..10 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // corrupt the last frame's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 9);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(*r, sample(i as u64), "prefix intact");
        }
    }

    /// Locate the byte offset of frame `index` (0-based) in a log image.
    fn frame_offset(bytes: &[u8], index: usize) -> usize {
        let mut pos = PREAMBLE_LEN as usize;
        for _ in 0..index {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
        }
        pos
    }

    #[test]
    fn mid_file_corruption_is_counted_and_suffix_quarantined() {
        let dir = tmpdir("midrot");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..10 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // rot one payload byte in frame 3: frames 0..=2 stay intact,
        // frames 4..=9 are intact but unreachable past the rot
        let mut bytes = std::fs::read(&path).unwrap();
        let off = frame_offset(&bytes, 3);
        bytes[off + 12] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 3, "replay stops at the rot");
        assert!(rec.mid_file_corruption());
        assert_eq!(rec.dropped_records, 6, "intact suffix frames counted");
        let q = rec.quarantined_tail.expect("severed suffix preserved");
        assert!(q.exists());
        assert_eq!(
            std::fs::read(&q).unwrap().len() as u64,
            rec.truncated_bytes,
            "quarantine holds exactly the severed bytes"
        );
        // truncation is persistent and the next open is clean
        let (_, rec2) = open_wal(&path).unwrap();
        assert_eq!(rec2.records.len(), 3);
        assert_eq!(rec2.dropped_records, 0);
        assert!(rec2.quarantined_tail.is_none());
    }

    #[test]
    fn torn_tail_is_not_mid_file_corruption() {
        let dir = tmpdir("torn-vs-rot");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..10 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 9);
        assert!(!rec.mid_file_corruption(), "torn tail has no intact suffix");
        assert!(rec.quarantined_tail.is_none());
    }

    #[test]
    fn encode_records_matches_rewrite_image() {
        let dir = tmpdir("encode");
        let path = dir.join("j.wal");
        let records: Vec<Record> = (0..7).map(sample).collect();
        drop(rewrite_wal(&path, &records).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), encode_records(&records));
        let rec = scan_bytes(&encode_records(&records));
        assert_eq!(rec.records, records);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn garbage_file_is_rejected_not_clobbered() {
        let dir = tmpdir("garbage");
        let path = dir.join("j.wal");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(open_wal(&path).is_err());
        // the file was not overwritten
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a journal".to_vec()
        );
    }

    #[test]
    fn read_wal_scans_without_truncating() {
        let dir = tmpdir("readonly");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..8 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // tear the tail; read_wal must report it but leave the file alone
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.records.len(), 7);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            full.len() - 3,
            "file untouched"
        );
        // a missing segment is an empty recovery, not an error
        let rec = read_wal(&dir.join("absent.wal")).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn rewrite_compacts_and_survives_reopen() {
        let dir = tmpdir("rewrite");
        let path = dir.join("j.wal");
        let (mut w, _) = open_wal(&path).unwrap();
        for i in 0..50 {
            w.append(&sample(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let compacted: Vec<Record> = (0..5).map(sample).collect();
        let w = rewrite_wal(&path, &compacted).unwrap();
        drop(w);
        let (_, rec) = open_wal(&path).unwrap();
        assert_eq!(rec.records, compacted);
    }
}
