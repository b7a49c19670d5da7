//! Store-backed per-section outcome tables — the memoization layer behind
//! incremental (O(diff)) fault-injection campaigns.
//!
//! A *section* is one function. The campaign engine plans both campaign
//! shapes as per-section unit groups, and when a [`TableMemo`] is attached
//! it seals each section's executed outcomes into a `table` artifact in
//! the content-addressed store. A later campaign whose section fingerprint
//! *and* golden-context signature match serves those outcomes without
//! re-executing a single injection; only edited sections (and sections
//! whose golden behaviour shifted) re-run.
//!
//! Soundness is the FastFlip composition argument (PAPERS.md,
//! arXiv 2403.13989): a sealed table is reused only when
//!
//! 1. the section's content fingerprint matches — the function's own code
//!    and every transitive callee are unchanged, and
//! 2. the table *signature* matches — same input fingerprint, same golden
//!    output and step count, same per-instruction dynamic counts within
//!    the section, same injection-relevant config knobs.
//!
//! Together these pin every seed, every fault target and the golden
//! baseline each outcome was classified against. What they do **not** pin
//! is the post-injection trajectory through *other* (edited) functions;
//! an edit that changes neither the golden output, the golden step count,
//! nor the section's dynamic counts is assumed not to re-classify faults
//! injected elsewhere. `--no-incremental` is the escape hatch, and the
//! cold path is always exact.
//!
//! Tables follow the store's verify-on-load discipline: a corrupt artifact
//! is quarantined and the section silently re-runs (recompute-on-
//! corruption, like goldens). A table sealed under an expired deadline is
//! marked incomplete in its header and is a *miss* on load — truncated
//! campaigns never masquerade as finished ones.

use crate::campaign::{CampaignConfig, GoldenRun};
use minpsid_interp::OutputItem;
use minpsid_store::{ArtifactStore, StoreError};
use minpsid_trace as trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store artifact kind for sealed outcome tables.
pub const TABLE_ARTIFACT: &str = "table";

/// Bump on any layout change; decoders treat other versions as misses.
const TABLE_VERSION: u32 = 1;
const TABLE_MAGIC: &[u8; 4] = b"MPTB";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_bytes(h: &mut u64, b: &[u8]) {
    for &x in b {
        *h ^= x as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv_bytes(h, &v.to_le_bytes());
}

/// Which campaign shape a table memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    Program,
    PerInst,
}

impl TableKind {
    fn tag(self) -> u8 {
        match self {
            TableKind::Program => b'p',
            TableKind::PerInst => b'i',
        }
    }
}

/// The golden-context signature a table is valid under. Everything that
/// determines a section's injection outcomes besides its content
/// fingerprint: the golden baseline (output, steps, the section's dynamic
/// counts and injectable population) and the injection-relevant config
/// (seed, hang threshold, exec limits, retry/early-stop policy, and — for
/// per-instruction tables — the per-site sample count). Campaign *size*
/// (`cfg.injections`) is deliberately excluded: program tables are served
/// per-unit, so an allocation that grew merely executes the tail.
/// Checkpoint/snapshot knobs are excluded too — checkpointed and cold
/// injections are bit-identical by the engine's equivalence invariant.
pub fn table_sig(
    kind: TableKind,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    sec_counts: &[u64],
    pop: u64,
) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, TABLE_VERSION as u64);
    fnv_bytes(&mut h, &[kind.tag()]);
    fnv_u64(&mut h, cfg.seed);
    fnv_u64(&mut h, cfg.hang_multiplier);
    if kind == TableKind::PerInst {
        fnv_u64(&mut h, cfg.per_inst_injections as u64);
    }
    fnv_bytes(&mut h, format!("{:?}", cfg.exec).as_bytes());
    fnv_bytes(&mut h, format!("{:?}", cfg.sched).as_bytes());
    fnv_u64(&mut h, golden.steps);
    fnv_u64(&mut h, golden.output.items.len() as u64);
    for item in &golden.output.items {
        match item {
            OutputItem::I(v) => {
                fnv_bytes(&mut h, b"i");
                fnv_u64(&mut h, *v as u64);
            }
            OutputItem::F(v) => {
                fnv_bytes(&mut h, b"f");
                fnv_u64(&mut h, v.to_bits());
            }
        }
    }
    fnv_u64(&mut h, sec_counts.len() as u64);
    for &c in sec_counts {
        fnv_u64(&mut h, c);
    }
    fnv_u64(&mut h, pop);
    h
}

/// A decoded whole-program outcome table: one `(outcome, recovered)` pair
/// per executed unit of the section, in local unit order.
#[derive(Debug, Clone, Default)]
pub struct ProgramTable {
    pub complete: bool,
    pub units: Vec<(u8, bool)>,
}

/// A decoded per-instruction outcome table: for each site (keyed by the
/// instruction's *local* index within the function, stable across edits
/// elsewhere), the executed outcome byte sequence in injection order.
/// Early-stopped sites recorded fewer than `per_inst_injections` outcomes;
/// the serve loop re-derives the stop deterministically.
#[derive(Debug, Clone, Default)]
pub struct PerInstTable {
    pub complete: bool,
    pub sites: Vec<(u32, Vec<u8>)>,
}

impl PerInstTable {
    /// Outcomes recorded for one site, by local instruction index.
    pub fn site(&self, local: u32) -> Option<&[u8]> {
        self.sites
            .iter()
            .find(|(l, _)| *l == local)
            .map(|(_, o)| o.as_slice())
    }

    pub fn total_outcomes(&self) -> u64 {
        self.sites.iter().map(|(_, o)| o.len() as u64).sum()
    }
}

// --- wire format (local checked reader, same discipline as the WAL) ---

fn w_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// A count that promises at least `min_bytes` per element: bounds
    /// hostile lengths before any allocation.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.varint()?;
        if (n as usize).checked_mul(min_bytes)? > self.buf.len() - self.pos {
            return None;
        }
        Some(n as usize)
    }

    fn finish(self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

fn header(kind: TableKind, complete: bool, fp: u64, input_fp: u64, sig: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(TABLE_MAGIC);
    buf.extend_from_slice(&TABLE_VERSION.to_le_bytes());
    buf.push(kind.tag());
    buf.push(complete as u8);
    buf.extend_from_slice(&fp.to_le_bytes());
    buf.extend_from_slice(&input_fp.to_le_bytes());
    buf.extend_from_slice(&sig.to_le_bytes());
    buf
}

/// Decode the common header; `None` (a miss) unless magic, version, kind,
/// fingerprint, input and signature all match. Returns the completeness
/// flag and a reader positioned at the body.
fn check_header<'a>(
    bytes: &'a [u8],
    kind: TableKind,
    fp: u64,
    input_fp: u64,
    sig: u64,
) -> Option<(bool, Reader<'a>)> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != TABLE_MAGIC {
        return None;
    }
    if u32::from_le_bytes(r.take(4)?.try_into().unwrap()) != TABLE_VERSION {
        return None;
    }
    if r.u8()? != kind.tag() {
        return None;
    }
    let complete = r.u8()? != 0;
    if r.u64()? != fp || r.u64()? != input_fp || r.u64()? != sig {
        return None;
    }
    Some((complete, r))
}

fn encode_program(fp: u64, input_fp: u64, sig: u64, t: &ProgramTable) -> Vec<u8> {
    let mut buf = header(TableKind::Program, t.complete, fp, input_fp, sig);
    w_varint(&mut buf, t.units.len() as u64);
    for &(outcome, recovered) in &t.units {
        buf.push(outcome);
        buf.push(recovered as u8);
    }
    buf
}

fn decode_program(bytes: &[u8], fp: u64, input_fp: u64, sig: u64) -> Option<ProgramTable> {
    let (complete, mut r) = check_header(bytes, TableKind::Program, fp, input_fp, sig)?;
    let n = r.count(2)?;
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        let outcome = r.u8()?;
        let recovered = r.u8()?;
        if recovered > 1 {
            return None;
        }
        units.push((outcome, recovered != 0));
    }
    r.finish()?;
    Some(ProgramTable { complete, units })
}

fn encode_per_inst(fp: u64, input_fp: u64, sig: u64, t: &PerInstTable) -> Vec<u8> {
    let mut buf = header(TableKind::PerInst, t.complete, fp, input_fp, sig);
    w_varint(&mut buf, t.sites.len() as u64);
    for (local, outcomes) in &t.sites {
        w_varint(&mut buf, *local as u64);
        w_varint(&mut buf, outcomes.len() as u64);
        buf.extend_from_slice(outcomes);
    }
    buf
}

fn decode_per_inst(bytes: &[u8], fp: u64, input_fp: u64, sig: u64) -> Option<PerInstTable> {
    let (complete, mut r) = check_header(bytes, TableKind::PerInst, fp, input_fp, sig)?;
    let n = r.count(2)?;
    let mut sites = Vec::with_capacity(n);
    for _ in 0..n {
        let local = r.varint()?;
        if local > u32::MAX as u64 {
            return None;
        }
        let k = r.count(1)?;
        let outcomes = r.take(k)?.to_vec();
        sites.push((local as u32, outcomes));
    }
    r.finish()?;
    Some(PerInstTable { complete, sites })
}

// --- the memo ---

/// Monotonic counters describing how much work the table layer saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStatsSnapshot {
    /// Sections whose sealed table was served.
    pub sections_hit: u64,
    /// Sections with no usable table (absent, stale signature, version
    /// skew, or sealed incomplete).
    pub sections_missed: u64,
    /// Sections whose table failed store verification and was quarantined
    /// (the section re-ran).
    pub sections_recomputed: u64,
    /// Injections served from tables instead of executing.
    pub injections_served: u64,
    /// Injections actually executed by the interpreter.
    pub injections_executed: u64,
    /// Tables sealed (published) this run.
    pub tables_sealed: u64,
}

impl TableStatsSnapshot {
    /// Fold another snapshot into this one (a pipeline run aggregates one
    /// snapshot per campaign).
    pub fn merge(&mut self, other: &TableStatsSnapshot) {
        self.sections_hit += other.sections_hit;
        self.sections_missed += other.sections_missed;
        self.sections_recomputed += other.sections_recomputed;
        self.injections_served += other.injections_served;
        self.injections_executed += other.injections_executed;
        self.tables_sealed += other.tables_sealed;
    }
}

#[derive(Default)]
struct TableStats {
    sections_hit: AtomicU64,
    sections_missed: AtomicU64,
    sections_recomputed: AtomicU64,
    injections_served: AtomicU64,
    injections_executed: AtomicU64,
    tables_sealed: AtomicU64,
}

/// The store-backed section-table memo a [`CampaignEngine`] attaches with
/// [`with_tables`](crate::CampaignEngine::with_tables). One memo is scoped
/// to one `(store, input)` pair; both campaign shapes share it.
pub struct TableMemo {
    store: Arc<ArtifactStore>,
    input_fp: u64,
    stats: TableStats,
}

impl TableMemo {
    pub fn new(store: Arc<ArtifactStore>, input_fp: u64) -> Self {
        TableMemo {
            store,
            input_fp,
            stats: TableStats::default(),
        }
    }

    pub fn input_fp(&self) -> u64 {
        self.input_fp
    }

    pub fn stats(&self) -> TableStatsSnapshot {
        TableStatsSnapshot {
            sections_hit: self.stats.sections_hit.load(Ordering::Relaxed),
            sections_missed: self.stats.sections_missed.load(Ordering::Relaxed),
            sections_recomputed: self.stats.sections_recomputed.load(Ordering::Relaxed),
            injections_served: self.stats.injections_served.load(Ordering::Relaxed),
            injections_executed: self.stats.injections_executed.load(Ordering::Relaxed),
            tables_sealed: self.stats.tables_sealed.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_served(&self, n: u64) {
        self.stats.injections_served.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_executed(&self, n: u64) {
        self.stats
            .injections_executed
            .fetch_add(n, Ordering::Relaxed);
    }

    fn ref_name(&self, kind: TableKind, fp: u64, sig: u64) -> String {
        format!(
            "{}-{fp:016x}-{:016x}-{sig:016x}",
            self.ref_prefix(kind),
            self.input_fp
        )
    }

    fn ref_prefix(&self, kind: TableKind) -> char {
        match kind {
            TableKind::Program => 'p',
            TableKind::PerInst => 'i',
        }
    }

    /// Fetch the raw table bytes, bumping stats and emitting the
    /// `section_event` for every disposition. `None` is a miss (absent,
    /// stale, incomplete, corrupt — corrupt additionally quarantined the
    /// artifact and counts as a recompute).
    fn fetch(&self, kind: TableKind, fp: u64, sig: u64) -> Option<Vec<u8>> {
        let name = self.ref_name(kind, fp, sig);
        match self.store.load_named(TABLE_ARTIFACT, &name) {
            Ok(Some((_, bytes))) => Some(bytes),
            Ok(None) => {
                self.stats.sections_missed.fetch_add(1, Ordering::Relaxed);
                trace::emit(trace::Event::SectionEvent {
                    fp,
                    action: trace::SectionAction::Miss,
                    units: 0,
                });
                None
            }
            Err(StoreError::Corrupt { .. }) => {
                self.stats
                    .sections_recomputed
                    .fetch_add(1, Ordering::Relaxed);
                trace::emit(trace::Event::SectionEvent {
                    fp,
                    action: trace::SectionAction::Recompute,
                    units: 0,
                });
                None
            }
            Err(_) => {
                self.stats.sections_missed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Count a decoded table as a hit (`units` outcomes it can serve) or,
    /// when absent, stale or incomplete, as a miss.
    fn verdict<T>(&self, fp: u64, t: Option<T>, units: impl Fn(&T) -> u64) -> Option<T> {
        let (counter, action, units) = match &t {
            Some(t) => (
                &self.stats.sections_hit,
                trace::SectionAction::Hit,
                units(t),
            ),
            None => (&self.stats.sections_missed, trace::SectionAction::Miss, 0),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        trace::emit(trace::Event::SectionEvent { fp, action, units });
        t
    }

    /// Load a sealed whole-program table for `(fp, sig)`. Incomplete
    /// tables (sealed under an expired deadline) are misses.
    pub(crate) fn load_program(&self, fp: u64, sig: u64) -> Option<ProgramTable> {
        let bytes = self.fetch(TableKind::Program, fp, sig)?;
        let t = decode_program(&bytes, fp, self.input_fp, sig).filter(|t| t.complete);
        self.verdict(fp, t, |t| t.units.len() as u64)
    }

    /// Load a sealed per-instruction table for `(fp, sig)`.
    pub(crate) fn load_per_inst(&self, fp: u64, sig: u64) -> Option<PerInstTable> {
        let bytes = self.fetch(TableKind::PerInst, fp, sig)?;
        let t = decode_per_inst(&bytes, fp, self.input_fp, sig).filter(|t| t.complete);
        self.verdict(fp, t, PerInstTable::total_outcomes)
    }

    /// Publish a table and point the section's ref at it. Best-effort: a
    /// failed seal degrades to a future miss, never an error.
    fn seal(&self, kind: TableKind, fp: u64, sig: u64, bytes: &[u8]) {
        let name = self.ref_name(kind, fp, sig);
        if let Ok(digest) = self.store.publish(TABLE_ARTIFACT, bytes) {
            if self.store.set_ref(TABLE_ARTIFACT, &name, &digest).is_ok() {
                self.stats.tables_sealed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn seal_program(&self, fp: u64, sig: u64, t: &ProgramTable) {
        self.seal(
            TableKind::Program,
            fp,
            sig,
            &encode_program(fp, self.input_fp, sig, t),
        );
    }

    pub(crate) fn seal_per_inst(&self, fp: u64, sig: u64, t: &PerInstTable) {
        self.seal(
            TableKind::PerInst,
            fp,
            sig,
            &encode_per_inst(fp, self.input_fp, sig, t),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo(name: &str) -> TableMemo {
        let dir = std::env::temp_dir().join(format!("minpsid-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TableMemo::new(Arc::new(ArtifactStore::open(&dir).unwrap()), 77)
    }

    #[test]
    fn program_table_round_trips_through_the_store() {
        let m = memo("prog-rt");
        let t = ProgramTable {
            complete: true,
            units: vec![(0, false), (1, true), (4, false)],
        };
        assert!(m.load_program(5, 9).is_none(), "cold store misses");
        m.seal_program(5, 9, &t);
        let back = m.load_program(5, 9).unwrap();
        assert_eq!(back.units, t.units);
        assert!(back.complete);
        // wrong fingerprint or signature: miss, not a wrong-table serve
        assert!(m.load_program(6, 9).is_none());
        assert!(m.load_program(5, 10).is_none());
        let s = m.stats();
        assert_eq!(s.sections_hit, 1);
        assert_eq!(s.tables_sealed, 1);
        assert!(s.sections_missed >= 3);
    }

    #[test]
    fn incomplete_tables_are_misses() {
        // the --deadline-secs asymmetry fix: a table sealed under a
        // truncated deadline must never be served as if it were finished
        let m = memo("incomplete");
        let t = ProgramTable {
            complete: false,
            units: vec![(0, false)],
        };
        m.seal_program(1, 2, &t);
        assert!(m.load_program(1, 2).is_none());
        let pi = PerInstTable {
            complete: false,
            sites: vec![(0, vec![0, 0])],
        };
        m.seal_per_inst(3, 4, &pi);
        assert!(m.load_per_inst(3, 4).is_none());
        assert_eq!(m.stats().sections_hit, 0);
    }

    #[test]
    fn per_inst_table_round_trips_and_indexes_by_local_site() {
        let m = memo("pi-rt");
        let t = PerInstTable {
            complete: true,
            sites: vec![(2, vec![0, 1, 0]), (7, vec![3])],
        };
        m.seal_per_inst(11, 13, &t);
        let back = m.load_per_inst(11, 13).unwrap();
        assert_eq!(back.site(2), Some(&[0u8, 1, 0][..]));
        assert_eq!(back.site(7), Some(&[3u8][..]));
        assert_eq!(back.site(9), None);
        assert_eq!(back.total_outcomes(), 4);
    }

    #[test]
    fn corrupt_tables_are_quarantined_and_rerun() {
        let dir = std::env::temp_dir().join(format!("minpsid-table-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let m = TableMemo::new(store.clone(), 77);
        // Chaos flips at publish time: arm it before sealing so the
        // stored object rots in place, then load must spot the rot.
        store.set_chaos_flip(1);
        m.seal_program(
            5,
            9,
            &ProgramTable {
                complete: true,
                units: vec![(0, false)],
            },
        );
        store.set_chaos_flip(0);
        assert!(m.load_program(5, 9).is_none(), "corrupt table is a miss");
        let s = m.stats();
        assert_eq!(s.sections_recomputed, 1);
        assert_eq!(store.quarantined_count().unwrap(), 1);
    }

    #[test]
    fn malformed_table_bytes_never_panic() {
        let t = ProgramTable {
            complete: true,
            units: vec![(1, false), (2, true)],
        };
        let good = encode_program(9, 77, 13, &t);
        for cut in 0..good.len() {
            assert!(decode_program(&good[..cut], 9, 77, 13).is_none());
        }
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            let _ = decode_program(&bad, 9, 77, 13);
        }
        let pi = PerInstTable {
            complete: true,
            sites: vec![(1, vec![0; 4])],
        };
        let good = encode_per_inst(9, 77, 13, &pi);
        for cut in 0..good.len() {
            assert!(decode_per_inst(&good[..cut], 9, 77, 13).is_none());
        }
        // hostile length never over-allocates
        let mut bad = good.clone();
        let body = header(TableKind::PerInst, true, 9, 77, 13).len();
        bad[body] = 0xff;
        bad.push(0xff);
        let _ = decode_per_inst(&bad, 9, 77, 13);
    }

    #[test]
    fn sig_moves_with_the_knobs_that_matter_and_not_others() {
        use crate::campaign::CampaignConfig;
        let golden = GoldenRun {
            output: {
                let mut o = minpsid_interp::Output::default();
                o.push_i(42);
                o
            },
            profile: {
                // shape only; the sig hashes the slice we pass explicitly
                let m = minpsid_ir::Module::new("t");
                minpsid_interp::Profile::for_module(&m)
            },
            steps: 1000,
            checkpoints: Default::default(),
        };
        let cfg = CampaignConfig::quick(1);
        let base = table_sig(TableKind::Program, &cfg, &golden, &[5, 6], 11);
        assert_eq!(
            base,
            table_sig(TableKind::Program, &cfg, &golden, &[5, 6], 11),
            "deterministic"
        );
        let mut seed2 = cfg.clone();
        seed2.seed = 2;
        assert_ne!(
            base,
            table_sig(TableKind::Program, &seed2, &golden, &[5, 6], 11)
        );
        let mut more = cfg.clone();
        more.injections += 1;
        assert_eq!(
            base,
            table_sig(TableKind::Program, &more, &golden, &[5, 6], 11),
            "campaign size must not invalidate program tables"
        );
        let mut ckpt = cfg.clone();
        ckpt.max_checkpoints = 3;
        assert_eq!(
            base,
            table_sig(TableKind::Program, &ckpt, &golden, &[5, 6], 11),
            "checkpoint policy is outcome-neutral"
        );
        assert_ne!(
            base,
            table_sig(TableKind::Program, &cfg, &golden, &[5, 7], 11)
        );
        assert_ne!(
            base,
            table_sig(TableKind::PerInst, &cfg, &golden, &[5, 6], 11)
        );
    }
}
