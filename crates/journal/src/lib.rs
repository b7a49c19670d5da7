//! # minpsid-journal — crash-safe campaign journal
//!
//! Fleet-scale SDC screening runs for hours; this crate makes the run's
//! progress durable so a crash, OOM, or `kill -9` costs seconds of
//! replay instead of the whole campaign. The design follows the
//! append-only, checksummed, recovery-by-replay idioms of persistent
//! log libraries:
//!
//! * [`record`] — the durable facts: per-injection outcomes, golden-run
//!   digests, GA evaluation memos, accepted search inputs, the knapsack
//!   selection, all keyed by FNV-64 fingerprints.
//! * [`wal`] — framing, checksums, batched fsync, and torn-tail
//!   recovery (truncate to the last intact record).
//! * [`CampaignJournal`] — the in-memory index over the log that the
//!   pipeline consults: campaigns ask it for already-journaled outcomes
//!   (recovered work) and append fresh ones (new work). Resume is
//!   replay: the deterministic pipeline re-walks its decisions and the
//!   journal short-circuits everything expensive, which is what makes a
//!   resumed run bit-identical to an uninterrupted one.
//! * [`interrupt`] — a process-wide cooperative stop flag (set by the
//!   CLI's SIGINT handler) that campaign loops poll, so ^C flushes the
//!   journal and exits cleanly instead of mid-write.
//!
//! Campaign workers never append to the WAL directly: the faultsim
//! `CampaignEngine` buffers each unit's records worker-locally and a
//! single ordered writer appends completed units in plan order, so a
//! journaled campaign parallelizes while its WAL (and therefore any
//! resume) stays byte-identical to a serial run's.
//!
//! The crate sits just above `minpsid-trace` in the dependency order:
//! recovery and usage statistics flow into the trace so `trace report`
//! shows injections recovered vs replayed.

pub mod record;
pub mod wal;

use minpsid_store::{ArtifactStore, StoreError};
use record::Record;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use wal::{encode_records, open_wal, rewrite_wal, WalWriter};

/// Cooperative interruption: one process-wide flag, set from a signal
/// handler (it is only an atomic store, so it is async-signal-safe) and
/// polled by campaign loops between injections.
pub mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    /// Request a clean stop (safe to call from a signal handler).
    pub fn request() {
        FLAG.store(true, Ordering::SeqCst);
    }

    /// Has a stop been requested?
    pub fn requested() -> bool {
        FLAG.load(Ordering::SeqCst)
    }

    /// Reset the flag (tests; a fresh run after a handled interrupt).
    pub fn clear() {
        FLAG.store(false, Ordering::SeqCst);
    }
}

/// The run was cooperatively interrupted (SIGINT); journaled state is
/// flushed and the campaign can be resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign interrupted; progress saved to the journal")
    }
}

impl std::error::Error for Interrupted {}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalError {
    Io(io::Error),
    /// The log belongs to a different (module, config) pair; replaying
    /// its outcomes into this run would be silent garbage.
    Mismatch {
        expected: (u64, u64),
        found: (u64, u64),
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Mismatch { expected, found } => write!(
                f,
                "journal belongs to a different run: module/config fingerprint \
                 {found:#x?} but this run is {expected:#x?} — \
                 resume with the same program, inputs, and campaign settings, \
                 or point --journal at a fresh directory"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

const WAL_FILE: &str = "campaign.wal";

/// Store ref name for a run's compacted-WAL snapshot: one snapshot per
/// (module, config) pair, so a resumed run finds exactly its own.
fn wal_ref_name(module_fp: u64, config_fp: u64) -> String {
    format!("{module_fp:016x}-{config_fp:016x}")
}

#[derive(Default)]
struct State {
    golden: HashMap<u64, (u64, u64)>,
    per_inst: HashMap<(u64, u64, u64), u8>,
    program: HashMap<(u64, u64), u8>,
    eval: HashMap<u64, Vec<u64>>,
    accepted: Vec<(u64, u64)>,
    selection: Option<Vec<bool>>,
    quarantine: HashMap<(u64, u64), u8>,
    /// Latest per-section module identity: `(fingerprint, dense base,
    /// instruction count)` per function, in function order. Lets
    /// [`CampaignJournal::open_with_sections`] carry per-instruction
    /// facts across a module edit.
    sections: Option<Vec<(u64, u64, u64)>>,
}

impl State {
    fn apply(&mut self, rec: Record) {
        match rec {
            Record::Header { .. } => {}
            Record::GoldenDigest {
                input_fp,
                output_fp,
                steps,
            } => {
                self.golden.insert(input_fp, (output_fp, steps));
            }
            Record::PerInstOutcome {
                input_fp,
                dense,
                k,
                outcome,
            } => {
                self.per_inst.insert((input_fp, dense, k), outcome);
            }
            Record::ProgramOutcome {
                input_fp,
                index,
                outcome,
            } => {
                self.program.insert((input_fp, index), outcome);
            }
            Record::EvalProfile { input_fp, cfg_list } => {
                self.eval.insert(input_fp, cfg_list);
            }
            Record::SearchAccepted { index, input_fp } => {
                if !self.accepted.iter().any(|&(i, _)| i == index) {
                    self.accepted.push((index, input_fp));
                }
            }
            Record::Selection { bits } => self.selection = Some(bits),
            Record::Quarantine {
                input_fp,
                dense,
                reason,
            } => {
                self.quarantine.insert((input_fp, dense), reason);
            }
            // Spool-only: workers write these into their private segments;
            // the supervisor folds them into ProgramOutcome records before
            // anything reaches a campaign WAL. Ignore defensively.
            Record::ShardUnit { .. } => {}
            Record::SectionMap { entries } => self.sections = Some(entries),
        }
    }

    /// The compacted record set: current state, one record per fact.
    fn snapshot(&self, module_fp: u64, config_fp: u64) -> Vec<Record> {
        let mut out = Vec::with_capacity(
            1 + self.golden.len() + self.per_inst.len() + self.program.len() + self.eval.len() + 8,
        );
        out.push(Record::Header {
            module_fp,
            config_fp,
        });
        // right after the header so a remapping open finds it before any
        // outcome record
        if let Some(entries) = &self.sections {
            out.push(Record::SectionMap {
                entries: entries.clone(),
            });
        }
        // deterministic order so compaction is reproducible
        let mut golden: Vec<_> = self.golden.iter().collect();
        golden.sort_unstable_by_key(|(k, _)| **k);
        for (&input_fp, &(output_fp, steps)) in golden {
            out.push(Record::GoldenDigest {
                input_fp,
                output_fp,
                steps,
            });
        }
        let mut per_inst: Vec<_> = self.per_inst.iter().collect();
        per_inst.sort_unstable_by_key(|(k, _)| **k);
        for (&(input_fp, dense, k), &outcome) in per_inst {
            out.push(Record::PerInstOutcome {
                input_fp,
                dense,
                k,
                outcome,
            });
        }
        let mut program: Vec<_> = self.program.iter().collect();
        program.sort_unstable_by_key(|(k, _)| **k);
        for (&(input_fp, index), &outcome) in program {
            out.push(Record::ProgramOutcome {
                input_fp,
                index,
                outcome,
            });
        }
        let mut quarantine: Vec<_> = self.quarantine.iter().collect();
        quarantine.sort_unstable_by_key(|(k, _)| **k);
        for (&(input_fp, dense), &reason) in quarantine {
            out.push(Record::Quarantine {
                input_fp,
                dense,
                reason,
            });
        }
        let mut eval: Vec<_> = self.eval.iter().collect();
        eval.sort_unstable_by_key(|(k, _)| **k);
        for (&input_fp, cfg_list) in eval {
            out.push(Record::EvalProfile {
                input_fp,
                cfg_list: cfg_list.clone(),
            });
        }
        for &(index, input_fp) in &self.accepted {
            out.push(Record::SearchAccepted { index, input_fp });
        }
        if let Some(bits) = &self.selection {
            out.push(Record::Selection { bits: bits.clone() });
        }
        out
    }
}

/// The crash-safe journal of one campaign run: an in-memory index over
/// an append-only WAL.
///
/// Readers (campaign workers probing for recovered outcomes) take the
/// `RwLock` read side; appends take the write side plus the writer
/// mutex. Both are off the interpreter's hot path — one probe and at
/// most one append per *injection* (a whole program execution).
pub struct CampaignJournal {
    dir: PathBuf,
    module_fp: u64,
    config_fp: u64,
    state: RwLock<State>,
    writer: Mutex<WalWriter>,
    /// Injections served from the journal this run (recovered work).
    served: AtomicU64,
    /// Records appended this run (fresh work).
    appended: AtomicU64,
    /// Appends and syncs that failed this run. Each one is a span of
    /// work a crash would not preserve.
    write_errors: AtomicU64,
    recovered_records: u64,
    truncated_bytes: u64,
    dropped_records: u64,
    /// Artifact store that mirrors each compacted WAL snapshot. On open
    /// the snapshot object is verified and its records merged under the
    /// live log, so bit rot in the compacted prefix costs a recompute of
    /// at most the un-snapshotted suffix instead of the whole campaign.
    store: Option<Arc<ArtifactStore>>,
}

/// Artifact class under which compacted WAL snapshots are published.
pub const WAL_ARTIFACT: &str = "wal";

impl CampaignJournal {
    /// Open (creating if needed) the journal in `dir`, recover its
    /// intact prefix, truncate any torn tail, and verify it belongs to
    /// this (module, config) pair. Emits a `journal_recovery` trace
    /// event describing what recovery found.
    pub fn open(dir: &Path, module_fp: u64, config_fp: u64) -> Result<Self, JournalError> {
        Self::open_with_store(dir, module_fp, config_fp, None)
    }

    /// [`CampaignJournal::open`], plus an artifact store that holds a
    /// verified snapshot of every compacted WAL. The snapshot's records
    /// are merged *under* the live log (the live log is newer), so if
    /// mid-file corruption severed the live log's compacted prefix, the
    /// snapshot restores those facts; if the snapshot itself rotted, the
    /// store quarantines it and the live log stands alone.
    pub fn open_with_store(
        dir: &Path,
        module_fp: u64,
        config_fp: u64,
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<Self, JournalError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let (mut writer, recovery) = open_wal(&path)?;

        if recovery.mid_file_corruption() {
            // Loud by design: this is bit rot inside the journal, not a
            // normal crash artifact, and it bypasses --quiet.
            eprintln!(
                "minpsid: JOURNAL CORRUPTION: checksum mismatch mid-file in {}: \
                 {} intact record(s) past the corruption were dropped and will be \
                 recomputed; severed suffix preserved at {}",
                path.display(),
                recovery.dropped_records,
                recovery
                    .quarantined_tail
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "<unsaved>".to_string()),
            );
        }

        // Records from the last compacted-WAL snapshot in the store, if
        // one exists and verifies. Applied before the live records so
        // live facts win.
        let mut snapshot_records = Vec::new();
        if let Some(store) = &store {
            let name = wal_ref_name(module_fp, config_fp);
            match store.load_named(WAL_ARTIFACT, &name) {
                Ok(Some((_, bytes))) => {
                    let snap = wal::scan_bytes(&bytes);
                    // the object is digest-verified, so a short scan means
                    // an encoding bug, not rot; take whatever parses
                    snapshot_records = snap.records;
                }
                Ok(None) => {}
                Err(StoreError::Corrupt { quarantined, .. }) => {
                    eprintln!(
                        "minpsid: STORE CORRUPTION: compacted WAL snapshot for {} failed \
                         digest verification; quarantined to {} (live journal stands alone)",
                        path.display(),
                        quarantined.display(),
                    );
                }
                Err(StoreError::Missing(_)) => {}
                Err(StoreError::Io(e)) => return Err(JournalError::Io(e)),
            }
        }

        let mut state = State::default();
        let mut header: Option<(u64, u64)> = None;
        let live_records = recovery.records;
        for rec in snapshot_records.into_iter().chain(live_records) {
            if let Record::Header {
                module_fp: m,
                config_fp: c,
            } = rec
            {
                header = Some((m, c));
            }
            state.apply(rec);
        }
        match header {
            Some(found) if found != (module_fp, config_fp) => {
                return Err(JournalError::Mismatch {
                    expected: (module_fp, config_fp),
                    found,
                });
            }
            Some(_) => {}
            None => {
                writer.append(&Record::Header {
                    module_fp,
                    config_fp,
                })?;
                writer.sync()?;
            }
        }

        let recovered_records = (state.golden.len()
            + state.per_inst.len()
            + state.program.len()
            + state.eval.len()
            + state.accepted.len()
            + state.quarantine.len()
            + usize::from(state.selection.is_some())) as u64;
        minpsid_trace::emit(minpsid_trace::Event::JournalRecovery {
            records: recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
        });

        Ok(CampaignJournal {
            dir: dir.to_path_buf(),
            module_fp,
            config_fp,
            state: RwLock::new(state),
            writer: Mutex::new(writer),
            served: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
            store,
        })
    }

    /// [`CampaignJournal::open_with_store`], plus the per-section
    /// identity of the module this run is about: one `(fingerprint,
    /// dense base, instruction count)` triple per function, in function
    /// order (see `minpsid_ir::section_fingerprints`).
    ///
    /// On a clean open the map is journaled so future opens can remap.
    /// If the existing log belongs to a *different module under the same
    /// config* — the program was edited between runs — and the old log
    /// carries a section map, this open remaps instead of refusing:
    /// per-instruction outcomes and quarantines in sections whose
    /// `(fingerprint, length)` survived the edit are carried over at
    /// their new dense offsets; everything else (golden digests, program
    /// outcomes, GA memos, accepted inputs, the selection) is dropped
    /// for recompute; and the WAL is rewritten under the new header.
    /// [`CampaignJournal::open`] keeps its strict refuse semantics.
    pub fn open_with_sections(
        dir: &Path,
        module_fp: u64,
        config_fp: u64,
        sections: &[(u64, u64, u64)],
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<Self, JournalError> {
        match Self::open_with_store(dir, module_fp, config_fp, store.clone()) {
            Ok(j) => {
                j.record_section_map(sections);
                Ok(j)
            }
            Err(JournalError::Mismatch { expected, found })
                if found.1 == config_fp && found.0 != module_fp =>
            {
                match Self::open_remapped(dir, module_fp, config_fp, sections, store, found)? {
                    Some(j) => Ok(j),
                    // no section map in the old log (pre-incremental
                    // journal): fall back to the strict refusal
                    None => Err(JournalError::Mismatch { expected, found }),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Rebuild the journal from an old module's log by translating dense
    /// instruction keys through matching sections. `Ok(None)` means the
    /// old log has no section map and cannot be remapped.
    fn open_remapped(
        dir: &Path,
        module_fp: u64,
        config_fp: u64,
        sections: &[(u64, u64, u64)],
        store: Option<Arc<ArtifactStore>>,
        old_pair: (u64, u64),
    ) -> Result<Option<Self>, JournalError> {
        let path = dir.join(WAL_FILE);
        let (writer, recovery) = open_wal(&path)?;
        drop(writer); // the log is rewritten below
        let mut old = State::default();
        if let Some(store) = &store {
            if let Ok(Some((_, bytes))) =
                store.load_named(WAL_ARTIFACT, &wal_ref_name(old_pair.0, old_pair.1))
            {
                for rec in wal::scan_bytes(&bytes).records {
                    old.apply(rec);
                }
            }
        }
        for rec in recovery.records {
            old.apply(rec);
        }
        let Some(old_map) = old.sections.take() else {
            return Ok(None);
        };

        // Pair old and new sections that share (fingerprint, length), in
        // function order, so duplicated functions match positionally.
        let mut pool: HashMap<(u64, u64), VecDeque<u64>> = HashMap::new();
        for &(fp, base, len) in &old_map {
            if len > 0 {
                pool.entry((fp, len)).or_default().push_back(base);
            }
        }
        // (old dense base, length, new dense base) per surviving section
        let mut intervals: Vec<(u64, u64, u64)> = Vec::new();
        for &(fp, base, len) in sections {
            if len == 0 {
                continue;
            }
            if let Some(old_base) = pool.get_mut(&(fp, len)).and_then(VecDeque::pop_front) {
                intervals.push((old_base, len, base));
            }
        }
        intervals.sort_unstable();
        let map_dense = |d: u64| -> Option<u64> {
            let i = intervals.partition_point(|&(ob, _, _)| ob <= d);
            let &(ob, len, nb) = intervals.get(i.checked_sub(1)?)?;
            (d - ob < len).then(|| nb + (d - ob))
        };

        // Only facts keyed by a dense instruction inside a surviving
        // section carry over; everything module-global is recomputed.
        let mut state = State::default();
        for (&(input_fp, dense, k), &outcome) in &old.per_inst {
            if let Some(nd) = map_dense(dense) {
                state.per_inst.insert((input_fp, nd, k), outcome);
            }
        }
        for (&(input_fp, dense), &reason) in &old.quarantine {
            if let Some(nd) = map_dense(dense) {
                state.quarantine.insert((input_fp, nd), reason);
            }
        }
        state.sections = Some(sections.to_vec());

        let records = state.snapshot(module_fp, config_fp);
        let writer = rewrite_wal(&path, &records)?;
        let recovered_records = (state.per_inst.len() + state.quarantine.len()) as u64;
        minpsid_trace::emit(minpsid_trace::Event::JournalRecovery {
            records: recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
        });

        Ok(Some(CampaignJournal {
            dir: dir.to_path_buf(),
            module_fp,
            config_fp,
            state: RwLock::new(state),
            writer: Mutex::new(writer),
            served: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
            store,
        }))
    }

    /// Directory this journal lives in (for "resume with ..." hints).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Count a lookup hit as served (recovered) work.
    fn serve<T>(&self, hit: Option<T>) -> Option<T> {
        if hit.is_some() {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn append(&self, rec: Record) {
        let written = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(&rec);
        // a failed append degrades durability, not correctness: the
        // in-memory state stays right, so the run completes and only
        // resumability of the un-appended span is lost — counted, so the
        // front end can say so
        let counter = match written {
            Ok(()) => &self.appended,
            Err(_) => &self.write_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.write().unwrap_or_else(|e| e.into_inner());
        st.apply(rec);
    }

    // --- golden-run digests ---

    pub fn golden_digest(&self, input_fp: u64) -> Option<(u64, u64)> {
        self.read().golden.get(&input_fp).copied()
    }

    pub fn record_golden(&self, input_fp: u64, output_fp: u64, steps: u64) {
        if self.golden_digest(input_fp) == Some((output_fp, steps)) {
            return;
        }
        self.append(Record::GoldenDigest {
            input_fp,
            output_fp,
            steps,
        });
    }

    // --- per-injection outcomes ---

    pub fn per_inst_outcome(&self, input_fp: u64, dense: u64, k: u64) -> Option<u8> {
        self.serve(self.read().per_inst.get(&(input_fp, dense, k)).copied())
    }

    pub fn record_per_inst(&self, input_fp: u64, dense: u64, k: u64, outcome: u8) {
        self.append(Record::PerInstOutcome {
            input_fp,
            dense,
            k,
            outcome,
        });
    }

    pub fn program_outcome(&self, input_fp: u64, index: u64) -> Option<u8> {
        self.serve(self.read().program.get(&(input_fp, index)).copied())
    }

    /// Does a record (outcome or quarantine) already resolve program
    /// unit `index`? A pure probe: unlike the serving lookups it does not
    /// count toward [`usage`](Self::usage).
    pub fn resolves_program_unit(&self, input_fp: u64, index: u64) -> bool {
        let st = self.read();
        st.program.contains_key(&(input_fp, index))
            || st.quarantine.contains_key(&(input_fp, index))
    }

    pub fn record_program(&self, input_fp: u64, index: u64, outcome: u8) {
        self.append(Record::ProgramOutcome {
            input_fp,
            index,
            outcome,
        });
    }

    // --- quarantined injection sites ---

    /// Is this unit quarantined? `dense` is a per-instruction site's dense
    /// index or a whole-program unit's plan position. Returns the
    /// failure-reason byte recorded when the unit was given up on. Resume
    /// consults this before sampling a unit so a known-bad one is skipped
    /// instead of re-exploding through its whole retry budget (or killing
    /// fleet workers again).
    pub fn quarantined_site(&self, input_fp: u64, dense: u64) -> Option<u8> {
        self.serve(self.read().quarantine.get(&(input_fp, dense)).copied())
    }

    pub fn record_quarantine(&self, input_fp: u64, dense: u64, reason: u8) {
        if self.read().quarantine.contains_key(&(input_fp, dense)) {
            return;
        }
        self.append(Record::Quarantine {
            input_fp,
            dense,
            reason,
        });
    }

    // --- GA evaluation memos ---

    pub fn eval_profile(&self, input_fp: u64) -> Option<Vec<u64>> {
        self.serve(self.read().eval.get(&input_fp).cloned())
    }

    pub fn record_eval(&self, input_fp: u64, cfg_list: &[u64]) {
        if self.read().eval.contains_key(&input_fp) {
            return;
        }
        self.append(Record::EvalProfile {
            input_fp,
            cfg_list: cfg_list.to_vec(),
        });
    }

    // --- search / selection state ---

    pub fn accepted_input(&self, index: u64) -> Option<u64> {
        self.read()
            .accepted
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, fp)| fp)
    }

    pub fn record_accepted(&self, index: u64, input_fp: u64) {
        if self.accepted_input(index).is_some() {
            return;
        }
        self.append(Record::SearchAccepted { index, input_fp });
    }

    pub fn selection(&self) -> Option<Vec<bool>> {
        self.read().selection.clone()
    }

    pub fn record_selection(&self, bits: &[bool]) {
        self.append(Record::Selection {
            bits: bits.to_vec(),
        });
    }

    // --- section map ---

    /// The journaled per-section module identity, if any.
    pub fn section_map(&self) -> Option<Vec<(u64, u64, u64)>> {
        self.read().sections.clone()
    }

    /// Journal the module's per-section identity (idempotent).
    pub fn record_section_map(&self, entries: &[(u64, u64, u64)]) {
        if self.read().sections.as_deref() == Some(entries) {
            return;
        }
        self.append(Record::SectionMap {
            entries: entries.to_vec(),
        });
    }

    // --- durability & maintenance ---

    /// Force every appended record to stable storage (end of a stage, or
    /// on the way out after an interrupt).
    /// A failure also counts toward [`write_errors`](Self::write_errors).
    pub fn sync(&self) -> io::Result<()> {
        let r = self.writer.lock().unwrap_or_else(|e| e.into_inner()).sync();
        if r.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Rewrite the log as a compacted snapshot of the current state
    /// (drops superseded records; bounds log growth across many resumes).
    /// With a store attached, the snapshot is also published as a
    /// content-addressed `wal` artifact so the next open can verify it
    /// and recover from bit rot in the live file.
    pub fn compact(&self) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let records = self.read().snapshot(self.module_fp, self.config_fp);
        *w = rewrite_wal(&self.dir.join(WAL_FILE), &records)?;
        if let Some(store) = &self.store {
            let digest = store.publish(WAL_ARTIFACT, &encode_records(&records))?;
            store.set_ref(
                WAL_ARTIFACT,
                &wal_ref_name(self.module_fp, self.config_fp),
                &digest,
            )?;
        }
        Ok(())
    }

    /// (records recovered at open, torn-tail bytes truncated at open).
    pub fn recovery_stats(&self) -> (u64, u64) {
        (self.recovered_records, self.truncated_bytes)
    }

    /// Intact records dropped past a mid-file checksum mismatch at open
    /// (0 for a clean or merely torn log). See [`wal::Recovery`].
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// (injections/evals served from the journal, records appended) this
    /// run.
    pub fn usage(&self) -> (u64, u64) {
        (
            self.served.load(Ordering::Relaxed),
            self.appended.load(Ordering::Relaxed),
        )
    }

    /// Appends and syncs that failed this run (0 when every record this
    /// run produced is durable).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Emit the end-of-run `journal_stats` trace event.
    pub fn emit_stats(&self) {
        let (recovered, appended) = self.usage();
        minpsid_trace::emit(minpsid_trace::Event::JournalStats {
            recovered,
            appended,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("minpsid-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn outcomes_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let j = CampaignJournal::open(&dir, 10, 20).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 3, 0, 2);
            j.record_per_inst(1, 3, 1, 0);
            j.record_program(1, 9, 1);
            j.record_eval(77, &[1, 2, 3]);
            j.record_accepted(0, 77);
            j.record_selection(&[true, false, true]);
            j.record_quarantine(1, 4, 0);
            j.record_quarantine(1, 4, 1); // idempotent: first reason wins
            j.sync().unwrap();
        }
        let j = CampaignJournal::open(&dir, 10, 20).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.per_inst_outcome(1, 3, 0), Some(2));
        assert_eq!(j.per_inst_outcome(1, 3, 1), Some(0));
        assert_eq!(j.per_inst_outcome(1, 3, 2), None);
        assert_eq!(j.program_outcome(1, 9), Some(1));
        assert_eq!(j.eval_profile(77), Some(vec![1, 2, 3]));
        assert_eq!(j.accepted_input(0), Some(77));
        assert_eq!(j.selection(), Some(vec![true, false, true]));
        assert_eq!(j.quarantined_site(1, 4), Some(0));
        assert_eq!(j.quarantined_site(1, 3), None);
        let (recovered, _) = j.recovery_stats();
        assert_eq!(recovered, 8);
        // three hits + one eval hit were served above
        assert!(j.usage().0 >= 4);
    }

    #[test]
    fn mismatched_fingerprints_refuse_to_resume() {
        let dir = tmpdir("mismatch");
        {
            let j = CampaignJournal::open(&dir, 1, 2).unwrap();
            j.record_golden(1, 1, 1);
            j.sync().unwrap();
        }
        assert!(matches!(
            CampaignJournal::open(&dir, 1, 3),
            Err(JournalError::Mismatch { .. })
        ));
        assert!(matches!(
            CampaignJournal::open(&dir, 9, 2),
            Err(JournalError::Mismatch { .. })
        ));
        // the right pair still opens
        assert!(CampaignJournal::open(&dir, 1, 2).is_ok());
    }

    #[test]
    fn section_map_round_trips_and_survives_compaction() {
        let dir = tmpdir("secmap");
        let map = [(0xaa, 0, 4), (0xbb, 4, 6)];
        {
            let j = CampaignJournal::open_with_sections(&dir, 1, 2, &map, None).unwrap();
            assert_eq!(j.section_map().as_deref(), Some(&map[..]));
            j.record_section_map(&map); // idempotent: no second record
            let (_, appended) = j.usage();
            assert_eq!(appended, 1);
            j.compact().unwrap();
        }
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        assert_eq!(j.section_map().as_deref(), Some(&map[..]));
    }

    #[test]
    fn failed_appends_are_counted_not_hidden() {
        let dir = tmpdir("write-errors");
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        j.record_program(1, 0, 1);
        assert_eq!((j.usage().1, j.write_errors()), (1, 0));
        // a read-only handle: every write fails, even for root
        let ro = std::fs::File::open(dir.join(WAL_FILE)).unwrap();
        *j.writer.lock().unwrap() = WalWriter::over(ro);
        j.record_program(1, 1, 2);
        j.record_per_inst(1, 3, 0, 0);
        assert_eq!(j.usage().1, 1, "a failed append is not an appended record");
        assert_eq!(j.write_errors(), 2);
        // the run itself goes on: the in-memory index still has both
        assert!(j.resolves_program_unit(1, 1));
        assert!(!j.resolves_program_unit(1, 2));
        assert_eq!(j.usage().0, 0, "probing is not serving");
        assert_eq!(j.per_inst_outcome(1, 3, 0), Some(0));
    }

    #[test]
    fn edited_module_remaps_surviving_sections_and_drops_the_rest() {
        let dir = tmpdir("remap");
        // module A: func a = insts [0,4), func b = insts [4,10)
        let old_map = [(0xaa, 0, 4), (0xbb, 4, 6)];
        {
            let j = CampaignJournal::open_with_sections(&dir, 100, 2, &old_map, None).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 1, 0, 2); // func a: dropped by the edit
            j.record_per_inst(1, 5, 3, 4); // func b, offset 1: survives
            j.record_quarantine(1, 6, 0); // func b, offset 2: survives
            j.record_program(1, 0, 1);
            j.record_eval(77, &[1, 2]);
            j.record_selection(&[true; 10]);
            j.sync().unwrap();
        }
        // module B: func a edited (new fp, now 5 insts), func b untouched
        // but shifted to base 5
        let new_map = [(0xcc, 0, 5), (0xbb, 5, 6)];
        let j = CampaignJournal::open_with_sections(&dir, 200, 2, &new_map, None).unwrap();
        // surviving section's facts follow their section to the new base
        assert_eq!(j.per_inst_outcome(1, 6, 3), Some(4));
        assert_eq!(j.quarantined_site(1, 7), Some(0));
        // edited section's facts and module-global facts are gone
        assert_eq!(j.per_inst_outcome(1, 1, 0), None);
        assert_eq!(j.golden_digest(1), None);
        assert_eq!(j.program_outcome(1, 0), None);
        assert_eq!(j.eval_profile(77), None);
        assert_eq!(j.selection(), None);
        assert_eq!(j.section_map().as_deref(), Some(&new_map[..]));
        drop(j);
        // the rewritten WAL now belongs to module B: a plain open works
        // and the carried facts are durable
        let j = CampaignJournal::open(&dir, 200, 2).unwrap();
        assert_eq!(j.per_inst_outcome(1, 6, 3), Some(4));
        // ...and the old module refuses, as it must
        assert!(matches!(
            CampaignJournal::open(&dir, 100, 2),
            Err(JournalError::Mismatch { .. })
        ));
    }

    #[test]
    fn remap_requires_a_section_map_and_a_matching_config() {
        let dir = tmpdir("remap-refuse");
        let map = [(0xaa, 0, 4)];
        {
            // old log written without a section map
            let j = CampaignJournal::open(&dir, 100, 2).unwrap();
            j.record_per_inst(1, 1, 0, 2);
            j.sync().unwrap();
        }
        assert!(matches!(
            CampaignJournal::open_with_sections(&dir, 200, 2, &map, None),
            Err(JournalError::Mismatch { .. })
        ));
        let dir = tmpdir("remap-refuse-cfg");
        {
            let j = CampaignJournal::open_with_sections(&dir, 100, 2, &map, None).unwrap();
            j.sync().unwrap();
        }
        // config changed: dense keys may mean different things; refuse
        assert!(matches!(
            CampaignJournal::open_with_sections(&dir, 200, 3, &map, None),
            Err(JournalError::Mismatch { .. })
        ));
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let dir = tmpdir("compact");
        let j = CampaignJournal::open(&dir, 5, 6).unwrap();
        // write the same key many times: only the last survives compaction
        for i in 0..200u64 {
            j.record_per_inst(1, 0, 0, (i % 6) as u8);
            j.record_per_inst(1, 0, i, 1);
        }
        j.sync().unwrap();
        let before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        j.compact().unwrap();
        let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(after < before, "compaction shrinks ({before} -> {after})");
        drop(j);
        let j = CampaignJournal::open(&dir, 5, 6).unwrap();
        assert_eq!(j.per_inst_outcome(1, 0, 0), Some((199 % 6) as u8));
        assert_eq!(j.per_inst_outcome(1, 0, 150), Some(1));
    }

    /// Byte offset of frame `n` in a WAL image (frame 0 is the first
    /// record after the preamble).
    fn frame_start(bytes: &[u8], n: usize) -> usize {
        let mut pos = 8;
        for _ in 0..n {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
        }
        pos
    }

    #[test]
    fn store_snapshot_restores_facts_severed_by_mid_file_corruption() {
        let dir = tmpdir("snap-restore");
        let store = Arc::new(ArtifactStore::open(&dir.join("store")).unwrap());
        {
            let j = CampaignJournal::open_with_store(&dir, 5, 6, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 3, 0, 2);
            j.sync().unwrap();
            j.compact().unwrap(); // publishes the snapshot artifact
            j.record_program(1, 9, 1); // post-snapshot fact
            j.sync().unwrap();
        }
        // Rot a byte inside frame 1 (the GoldenDigest record): the live
        // scan now stops at the Header, severing every later record.
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = frame_start(&bytes, 1) + 12 + 2;
        bytes[pos] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let j = CampaignJournal::open_with_store(&dir, 5, 6, Some(store)).unwrap();
        // intact frames past the corruption (per_inst + program) counted
        assert_eq!(j.dropped_records(), 2);
        // compacted facts come back from the verified snapshot...
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.per_inst_outcome(1, 3, 0), Some(2));
        // ...the post-snapshot fact is honestly lost (recompute territory)
        assert_eq!(j.program_outcome(1, 9), None);
        // severed suffix preserved for forensics
        assert!(path.with_extension("corrupt").exists());
    }

    #[test]
    fn corrupt_store_snapshot_is_quarantined_and_live_log_stands_alone() {
        let dir = tmpdir("snap-rot");
        let store_dir = dir.join("store");
        let store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
        {
            let j = CampaignJournal::open_with_store(&dir, 5, 6, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.sync().unwrap();
            j.compact().unwrap();
        }
        // rot the snapshot object itself
        let ref_path = store_dir
            .join("refs")
            .join(WAL_ARTIFACT)
            .join(format!("{}.ref", wal_ref_name(5, 6)));
        let hex = std::fs::read_to_string(&ref_path)
            .unwrap()
            .trim()
            .to_string();
        let obj = store_dir
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.obj"));
        let mut bytes = std::fs::read(&obj).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&obj, &bytes).unwrap();

        // open succeeds from the intact live log; the rotten snapshot is
        // quarantined, not consumed
        let j = CampaignJournal::open_with_store(&dir, 5, 6, Some(store.clone())).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(store.quarantined_count().unwrap(), 1);
        assert!(!obj.exists());
        // the next compact republishes a fresh, verifiable snapshot
        j.compact().unwrap();
        assert!(!store.scrub().unwrap().found_corruption());
    }

    #[test]
    fn interrupt_flag_round_trips() {
        interrupt::clear();
        assert!(!interrupt::requested());
        interrupt::request();
        assert!(interrupt::requested());
        interrupt::clear();
        assert!(!interrupt::requested());
    }
}
