//! The campaign engine: one plan → execute → reduce pipeline and one
//! unit loop behind every fault-injection campaign.
//!
//! MINPSID runs two campaign shapes. Per-instruction FI measures each
//! static instruction's SDC probability (the benefit SID's knapsack
//! weighs); whole-program FI measures a binary's overall SDC rate (the
//! coverage evaluation). Both are a [`CampaignPlan`] of work units, and
//! every planned injection of either shape becomes an outcome through the
//! same ordered chain of *outcome sources*:
//!
//! 1. **interrupt** — with a journal attached, a pending [`interrupt`]
//!    stops the unit (everything finished stays durable);
//! 2. **journal quarantine** — a unit the journal records as quarantined
//!    is skipped outright;
//! 3. **journal outcome** — a recorded outcome is served as is;
//! 4. **sealed table** — a memoized section table ([`TableMemo`]) serves
//!    the outcome, and the WAL still gets its record;
//! 5. **deadline** — past the [`Scheduler`]'s deadline the unit's
//!    remaining injections are truncated;
//! 6. **execute** — the injection runs here under the scheduler's retry
//!    loop, or, for a fleet run, its outcome is whatever the worker
//!    processes resolved ([`CampaignEngine::run_program_resolved`]).
//!
//! Recorded outcomes therefore win over the deadline in both shapes.
//! Whichever source answered, one post-injection step follows: the
//! consecutive-failure count, quarantine after exhausted retries (a
//! property of the per-instruction shape; a whole-program unit is a
//! single injection), early stop, and — once per unit — one ordered WAL
//! commit. The plan supplies everything that differs between the shapes:
//! injections per unit, the fault each `(unit, k)` draws, journal keys
//! and table kinds.
//!
//! Execution is parallel for **every** composition. Workers fan out over
//! [`par_map_init`] and each result lands in its plan-ordered slot, so
//! reduction — and therefore every report — is byte-identical at any
//! thread count. Journaled runs stay parallel too: workers buffer their
//! WAL records per work unit and a single [`OrderedWriter`] appends each
//! contiguous prefix of completed units, so the WAL byte stream is as
//! deterministic as the report while finished work still reaches disk
//! *during* the run (a crash loses at most the in-flight units).
//!
//! Determinism contract (verified by the equivalence tests): every
//! injection's RNG is seeded only by `(cfg.seed, section fingerprint,
//! position within the section)`, never by thread schedule, by which
//! source served an outcome, or by which process executed it, so plain,
//! scheduled, journaled, resumed and fleet runs of the same seed produce
//! bit-identical reports.

use crate::campaign::{CampaignConfig, GoldenRun, PerInstSdc, ProgramCampaign, PROGRESS_INTERVAL};
use crate::outcome::{classify, Outcome, OutcomeCounts};
use crate::parallel::par_map_init;
use crate::table::{table_sig, PerInstTable, ProgramTable, TableKind, TableMemo};
use minpsid_interp::{ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput};
use minpsid_ir::{section_fingerprints, GlobalInstId, Module};
use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
use minpsid_sched::{
    binomial_ci, splitmix64, AttemptResult, FailureKind, Scheduler, SiteStatus, TaskResult,
};
use minpsid_trace as trace;
use minpsid_trace::{CampaignCounters, CampaignKind, Histogram, OutcomeKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One whole-program-campaign section: a function's slice of the
/// stratified plan. Flat plan positions `unit_base..unit_base+injections`
/// target this function's injectable dynamic executions; allocations are
/// largest-remainder over `pop`, so per-section totals still sum to
/// `cfg.injections` and the sampling stays proportional to execution
/// weight (the same distribution the unstratified sampler converged to).
#[derive(Debug, Clone)]
pub struct ProgramSection {
    /// Function index in the module.
    pub func: usize,
    /// Content fingerprint: the function's own code plus every transitive
    /// callee (see `minpsid_ir::section_fingerprints`).
    pub fp: u64,
    /// Flat plan position of this section's first unit.
    pub unit_base: usize,
    /// Units allocated to this section.
    pub injections: usize,
    /// Injectable dynamic executions within this function.
    pub pop: u64,
    /// Cumulative dynamic counts over the function's injectable sites
    /// with nonzero count, in instruction order: `(gid, count-through-
    /// gid)`. Maps a section-local draw in `0..pop` to a fault target.
    pub prefix: Vec<(GlobalInstId, u64)>,
}

/// One per-instruction-campaign section: a function's injectable,
/// executed sites, highest dynamic count first (a deadline truncates the
/// low-benefit tail *within* each section).
#[derive(Debug, Clone)]
pub struct PerInstSection {
    /// Function index in the module.
    pub func: usize,
    /// Content fingerprint (code + transitive callees).
    pub fp: u64,
    /// Flat plan position of this section's first site.
    pub site_base: usize,
    /// `(dense index, instruction id, dynamic count)`.
    pub sites: Vec<(usize, GlobalInstId, u64)>,
}

/// The deterministic work list a campaign executes: per-section unit
/// groups — a single injection per unit for program campaigns, a whole
/// site per unit for per-instruction campaigns. One *section* is one
/// function; grouping by section is what lets a memoized outcome table
/// stand in for a whole group, and the per-section RNG streams (seeded by
/// content fingerprint, not flat position) are what keep an unedited
/// section's fault sequence stable when a neighbour is edited. Building a
/// plan is pure: it depends only on the module, the golden profile and
/// the config, never on the thread schedule or on journal contents, which
/// is what keeps reduction order (and unit numbering for the ordered
/// journal writer) stable.
#[derive(Debug, Clone)]
pub enum CampaignPlan {
    /// `cfg.injections` single-bit flips over the golden run's injectable
    /// dynamic executions, stratified across `sections` (none when that
    /// population is empty).
    Program { sections: Vec<ProgramSection> },
    /// One unit per injectable, executed static instruction, grouped by
    /// enclosing function.
    PerInst {
        sections: Vec<PerInstSection>,
        injections_per_site: usize,
    },
}

/// A section's sealed table as one `(outcome, recovered)` stream per unit,
/// in unit order.
type SealedStreams = Vec<Vec<(u8, bool)>>;

impl CampaignPlan {
    /// Number of work units the executor fans out over. A program plan
    /// over an empty population has none, whatever `injections` asked for.
    pub fn units(&self) -> usize {
        match self {
            CampaignPlan::Program { sections, .. } => sections.iter().map(|s| s.injections).sum(),
            CampaignPlan::PerInst { sections, .. } => sections.iter().map(|s| s.sites.len()).sum(),
        }
    }

    /// Total injections the plan intends to run (the scheduler's
    /// `planned` figure).
    pub fn planned_injections(&self) -> u64 {
        (self.units() * self.shape().1) as u64
    }

    /// The campaign kind, and injections per unit: one per program unit,
    /// the per-site sample count per instruction site.
    fn shape(&self) -> (CampaignKind, usize) {
        match self {
            CampaignPlan::Program { .. } => (CampaignKind::Program, 1),
            CampaignPlan::PerInst {
                injections_per_site,
                ..
            } => (CampaignKind::PerInst, *injections_per_site),
        }
    }

    /// Flat plan positions of each section's units, in section order
    /// (an empty program section shares its successor's start).
    fn section_ranges(&self) -> Vec<Range<usize>> {
        match self {
            CampaignPlan::Program { sections, .. } => sections
                .iter()
                .map(|sec| sec.unit_base..sec.unit_base + sec.injections)
                .collect(),
            CampaignPlan::PerInst { sections, .. } => sections
                .iter()
                .map(|sec| sec.site_base..sec.site_base + sec.sites.len())
                .collect(),
        }
    }

    /// The unit's journal, quarantine and early-stop key: the flat plan
    /// position of a program unit, the dense instruction index of a site.
    fn key(&self, s: usize, local: usize) -> u64 {
        match self {
            CampaignPlan::Program { sections, .. } => (sections[s].unit_base + local) as u64,
            CampaignPlan::PerInst { sections, .. } => sections[s].sites[local].0 as u64,
        }
    }

    /// The fault injection `k` of unit `(s, local)` applies.
    ///
    /// The RNG stream is seeded by the section fingerprint and the
    /// position within the section — never by the flat plan position — so
    /// an unedited section draws the same faults whatever its neighbours
    /// turned into, which is the determinism a memoized outcome table
    /// relies on.
    fn fault(&self, cfg: &CampaignConfig, s: usize, local: usize, k: usize) -> FaultSpec {
        match self {
            CampaignPlan::Program { sections, .. } => {
                let sec = &sections[s];
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed
                        ^ splitmix64(sec.fp)
                        ^ (local as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let r = rng.random_range(0..sec.pop);
                // map the section-local draw through the cumulative site counts
                let idx = sec.prefix.partition_point(|&(_, cum)| cum <= r);
                let (gid, _) = sec.prefix[idx];
                let prev = if idx == 0 { 0 } else { sec.prefix[idx - 1].1 };
                FaultSpec {
                    target: FaultTarget::NthOfInst(gid, r - prev),
                    bit: rng.random_range(0..64),
                }
            }
            CampaignPlan::PerInst { sections, .. } => {
                let sec = &sections[s];
                let (_, gid, count) = sec.sites[local];
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed
                        ^ splitmix64(sec.fp)
                        ^ (gid.inst.index() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                        ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                FaultSpec {
                    target: FaultTarget::NthOfInst(gid, rng.random_range(0..count)),
                    bit: rng.random_range(0..64),
                }
            }
        }
    }

    fn journal_outcome(&self, j: &CampaignJournal, fp: u64, key: u64, k: usize) -> Option<u8> {
        match self {
            CampaignPlan::Program { .. } => j.program_outcome(fp, key),
            CampaignPlan::PerInst { .. } => j.per_inst_outcome(fp, key, k as u64),
        }
    }

    fn outcome_record(&self, key: u64, k: usize, outcome: Outcome) -> PendingRecord {
        match self {
            CampaignPlan::Program { .. } => PendingRecord::Program {
                index: key,
                outcome: outcome.to_u8(),
            },
            CampaignPlan::PerInst { .. } => PendingRecord::PerInst {
                site: key,
                k: k as u64,
                outcome: outcome.to_u8(),
            },
        }
    }

    /// Golden-context table signature of section `s`: the per-site
    /// dynamic counts (in plan order) plus the section population pin
    /// every fault target the section's RNG streams can draw.
    fn section_sig(&self, cfg: &CampaignConfig, golden: &GoldenRun, s: usize) -> u64 {
        match self {
            CampaignPlan::Program { sections, .. } => {
                let sec = &sections[s];
                let mut counts = Vec::with_capacity(sec.prefix.len());
                let mut prev = 0u64;
                for &(_, cum) in &sec.prefix {
                    counts.push(cum - prev);
                    prev = cum;
                }
                table_sig(TableKind::Program, cfg, golden, &counts, sec.pop)
            }
            CampaignPlan::PerInst { sections, .. } => {
                let counts: Vec<u64> = sections[s].sites.iter().map(|&(_, _, c)| c).collect();
                let pop = counts.iter().sum();
                table_sig(TableKind::PerInst, cfg, golden, &counts, pop)
            }
        }
    }

    /// Section `s`'s sealed table, if the memo holds a matching one. A
    /// per-instruction site is keyed by its function-local instruction
    /// index, which edits to other functions leave stable.
    fn load_table(
        &self,
        memo: &TableMemo,
        cfg: &CampaignConfig,
        golden: &GoldenRun,
        s: usize,
    ) -> Option<SealedStreams> {
        let sig = self.section_sig(cfg, golden, s);
        match self {
            CampaignPlan::Program { sections, .. } => memo
                .load_program(sections[s].fp, sig)
                .map(|t| t.units.into_iter().map(|u| vec![u]).collect()),
            CampaignPlan::PerInst { sections, .. } => {
                let sec = &sections[s];
                let t = memo.load_per_inst(sec.fp, sig)?;
                Some(
                    sec.sites
                        .iter()
                        .map(|&(_, gid, _)| {
                            let served = t.site(gid.inst.index() as u32).unwrap_or(&[]);
                            served.iter().map(|&b| (b, false)).collect()
                        })
                        .collect(),
                )
            }
        }
    }

    /// Seal section `s`'s outcomes. Any unit the run could not finish
    /// cleanly (deadline-truncated, unsampled, quarantined) marks the
    /// table `complete: false` — a miss on every future load, so
    /// deadline-starved runs never masquerade as finished ones.
    fn seal_table(
        &self,
        memo: &TableMemo,
        cfg: &CampaignConfig,
        golden: &GoldenRun,
        s: usize,
        units: &[UnitResult],
    ) {
        let complete = units
            .iter()
            .all(|u| matches!(u.status, SiteStatus::Full | SiteStatus::EarlyStopped));
        let sig = self.section_sig(cfg, golden, s);
        match self {
            CampaignPlan::Program { sections, .. } => {
                // the leading run of units that produced an outcome
                let units = units
                    .iter()
                    .map_while(|u| u.outcomes.first().map(|&b| (b, u.recovered > 0)))
                    .collect();
                memo.seal_program(sections[s].fp, sig, &ProgramTable { complete, units });
            }
            CampaignPlan::PerInst { sections, .. } => {
                let sec = &sections[s];
                let sites = sec
                    .sites
                    .iter()
                    .zip(units)
                    .map(|(&(_, gid, _), u)| (gid.inst.index() as u32, u.outcomes.clone()))
                    .collect();
                memo.seal_per_inst(sec.fp, sig, &PerInstTable { complete, sites });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ordered journal writer
// ---------------------------------------------------------------------------

/// One WAL record a worker produced, buffered until the single ordered
/// writer commits its work unit.
enum PendingRecord {
    Program { index: u64, outcome: u8 },
    PerInst { site: u64, k: u64, outcome: u8 },
    Quarantine { site: u64, reason: u8 },
}

/// The single ordered writer behind parallel journaled runs.
///
/// Workers complete units out of order, but the WAL byte stream must not
/// depend on the thread schedule: replay correctness is keyed, yet a
/// deterministic stream is what makes resume diffs and journal
/// compaction reproducible. Each worker hands its unit's record batch to
/// [`OrderedWriter::commit`]; the writer appends the longest contiguous
/// prefix of committed units and holds later units in a reorder buffer.
/// Finished work therefore reaches disk during the run — a crash loses
/// at most the in-flight units behind the first gap — in an order no
/// thread schedule can perturb.
struct OrderedWriter<'j> {
    journal: &'j CampaignJournal,
    input_fp: u64,
    state: Mutex<ReorderBuffer>,
}

#[derive(Default)]
struct ReorderBuffer {
    /// Next unit ordinal the WAL is waiting for.
    next: usize,
    /// Out-of-order batches, keyed by unit ordinal.
    pending: BTreeMap<usize, Vec<PendingRecord>>,
}

impl<'j> OrderedWriter<'j> {
    fn new(journal: &'j CampaignJournal, input_fp: u64) -> Self {
        OrderedWriter {
            journal,
            input_fp,
            state: Mutex::new(ReorderBuffer::default()),
        }
    }

    /// Hand over unit `unit`'s records (possibly empty — served-from-
    /// journal and truncated units still advance the cursor) and flush
    /// every batch that is now part of the contiguous completed prefix.
    fn commit(&self, unit: usize, records: Vec<PendingRecord>) {
        let mut st = self.state.lock().unwrap();
        st.pending.insert(unit, records);
        while let Some(batch) = {
            let next = st.next;
            st.pending.remove(&next)
        } {
            for r in batch {
                self.append(&r);
            }
            st.next += 1;
        }
    }

    /// Drain whatever is still buffered, in unit order, and sync the WAL.
    /// Interrupted runs leave gaps (units that never committed);
    /// everything that *did* complete still becomes durable. A failed
    /// sync is counted on the journal for the front end to report:
    /// durability degrades, the run goes on.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        for (_, batch) in std::mem::take(&mut st.pending) {
            for r in batch {
                self.append(&r);
            }
        }
        let _ = self.journal.sync();
    }

    fn append(&self, r: &PendingRecord) {
        match *r {
            PendingRecord::Program { index, outcome } => {
                self.journal.record_program(self.input_fp, index, outcome)
            }
            PendingRecord::PerInst { site, k, outcome } => {
                self.journal
                    .record_per_inst(self.input_fp, site, k, outcome)
            }
            PendingRecord::Quarantine { site, reason } => {
                self.journal.record_quarantine(self.input_fp, site, reason)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn outcome_kind(o: Outcome) -> OutcomeKind {
    match o {
        Outcome::Benign => OutcomeKind::Benign,
        Outcome::Sdc => OutcomeKind::Sdc,
        Outcome::Crash => OutcomeKind::Crash,
        Outcome::Hang => OutcomeKind::Hang,
        Outcome::Detected => OutcomeKind::Detected,
        Outcome::EngineError => OutcomeKind::EngineError,
    }
}

fn outcome_tally(c: &OutcomeCounts) -> trace::OutcomeTally {
    trace::OutcomeTally {
        benign: c.benign,
        sdc: c.sdc,
        crash: c.crash,
        hang: c.hang,
        detected: c.detected,
        engine_error: c.engine_error,
        // the retry/quarantine side-tallies are campaign-level, not
        // per-function
        transient_recovered: 0,
        quarantined: 0,
    }
}

/// Salt separating the timeout knob's failure-count stream from the panic
/// knob's, so the two chaos classes fail for independent spans.
const CHAOS_TIMEOUT_SALT: u64 = 0xA24B_AED4_963E_E407;

/// Deterministic chaos plan for one injection key: `(kind, n)` means the
/// first `n` attempts at this injection fail with `kind`. `n` spans 1–4,
/// so with the default retry budget of 2 some chaos-hit injections
/// recover and some exhaust — both paths are exercised by one knob.
/// Deterministic in the key alone, so interrupted-and-resumed runs see
/// the same engine failures as uninterrupted ones.
fn chaos_plan(cfg: &CampaignConfig, key: u64) -> Option<(FailureKind, u32)> {
    if let Some(n) = cfg.chaos_panic_one_in.filter(|&n| n > 0) {
        if key.is_multiple_of(n) {
            return Some((FailureKind::Panic, 1 + (splitmix64(key) & 3) as u32));
        }
    }
    if let Some(m) = cfg.chaos_timeout_one_in.filter(|&m| m > 0) {
        if key.wrapping_add(m / 2).is_multiple_of(m) {
            let fails = 1 + (splitmix64(key ^ CHAOS_TIMEOUT_SALT) & 3) as u32;
            return Some((FailureKind::Timeout, fails));
        }
    }
    None
}

/// One injection's resolved outcome. Exhausted retries collapse to a
/// final [`Outcome::EngineError`] with zero step counts; `recovered` is
/// true when the outcome arrived only after ≥1 retry.
struct ResolvedInjection {
    outcome: Outcome,
    executed: u64,
    skipped: u64,
    recovered: bool,
    exhausted: Option<FailureKind>,
}

impl ResolvedInjection {
    /// An outcome some other source already knew.
    fn replayed(outcome: Outcome, recovered: bool) -> Self {
        ResolvedInjection {
            outcome,
            executed: 0,
            skipped: 0,
            recovered,
            exhausted: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The unit loop
// ---------------------------------------------------------------------------

/// What an out-of-process executor made of one whole-program unit — the
/// execute step of [`CampaignEngine::run_program_resolved`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedUnit {
    /// A classified outcome, and whether it needed a retry to get it.
    Done(Outcome, bool),
    /// The unit kept killing the processes that ran it; it is
    /// quarantined as [`FailureKind::PoisonedShard`].
    Poisoned,
    /// Nobody finished it (the run was interrupted).
    Missing,
}

/// The unit loop's execute step.
enum Execute<'e> {
    Local(&'e Interp<'e>),
    Resolved(&'e (dyn Fn(u64) -> ResolvedUnit + Sync)),
}

/// Which source produced an outcome.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Journal,
    Table,
    Fresh,
}

/// Where one injection's walk down the source chain ended.
enum Step {
    Outcome(ResolvedInjection, Source),
    /// Quarantine the unit; `resumed` when the journal already says so.
    Quarantine {
        reason: FailureKind,
        resumed: bool,
    },
    Truncated,
    Interrupted,
}

/// One work unit's coordinates: section, index within the section, flat
/// plan position, journal key, and its sealed outcome stream if a table
/// serves its section.
#[derive(Clone, Copy)]
struct Unit<'l> {
    s: usize,
    local: usize,
    t: usize,
    key: u64,
    served: Option<&'l [(u8, bool)]>,
}

/// `(section, unit index within the section)` of plan position `t`: the
/// last section starting at or before `t`.
fn locate(ranges: &[Range<usize>], t: usize) -> (usize, usize) {
    let s = ranges.partition_point(|r| r.start <= t) - 1;
    (s, t - ranges[s].start)
}

/// How one work unit ended, whatever sources resolved its injections.
struct UnitResult {
    counts: OutcomeCounts,
    /// Outcome bytes in injection order (what sealing writes).
    outcomes: Vec<u8>,
    /// Injections whose outcome arrived only after a retry.
    recovered: u64,
    status: SiteStatus,
    /// False when an interrupt (or a missing remote outcome) stopped the
    /// unit before it finished.
    done: bool,
    /// Whether any injection here executed now rather than being served
    /// from the journal or a table — sealing skips groups with nothing
    /// new.
    fresh: bool,
}

impl UnitResult {
    /// Injections the deadline cut from this unit.
    fn truncated(&self, per_unit: usize) -> u64 {
        match self.status {
            SiteStatus::Unsampled | SiteStatus::Truncated => {
                (per_unit - self.outcomes.len()) as u64
            }
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The single orchestration core every campaign runs through.
///
/// Construct with [`CampaignEngine::new`], attach policy layers with
/// [`with_scheduler`](CampaignEngine::with_scheduler) /
/// [`with_journal`](CampaignEngine::with_journal) /
/// [`with_tables`](CampaignEngine::with_tables), then execute a campaign
/// shape with [`run_program`](CampaignEngine::run_program) or
/// [`run_per_instruction`](CampaignEngine::run_per_instruction).
///
/// ```text
/// CampaignEngine::new(&module, &input, &golden, &cfg)
///     .with_scheduler(&sched)        // deadline + shared accounting
///     .with_journal(&journal, fp)    // crash-safe resume
///     .run_per_instruction()?
/// ```
pub struct CampaignEngine<'a> {
    module: &'a Module,
    input: &'a ProgInput,
    golden: &'a GoldenRun,
    cfg: &'a CampaignConfig,
    /// Fallback scheduler (retry knobs from `cfg.sched`, no deadline)
    /// used when the caller does not attach one.
    owned_sched: Scheduler,
    sched: Option<&'a Scheduler>,
    journal: Option<(&'a CampaignJournal, u64)>,
    tables: Option<&'a TableMemo>,
}

impl<'a> CampaignEngine<'a> {
    /// An engine over `(module, input, golden)` with no external policy
    /// layers: retries per `cfg.sched`, no deadline, no journal.
    pub fn new(
        module: &'a Module,
        input: &'a ProgInput,
        golden: &'a GoldenRun,
        cfg: &'a CampaignConfig,
    ) -> Self {
        CampaignEngine {
            module,
            input,
            golden,
            cfg,
            owned_sched: Scheduler::unbounded(cfg.sched.clone()),
            sched: None,
            journal: None,
            tables: None,
        }
    }

    /// Attach a caller-owned [`Scheduler`] — the deadline-aware form whose
    /// accounting spans several campaigns of one run.
    pub fn with_scheduler(mut self, sched: &'a Scheduler) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Attach a crash-safe journal layer: outcomes and quarantines
    /// recorded under `input_fp` are served without re-execution, fresh
    /// outcomes are appended (in deterministic unit order, whatever the
    /// thread count), and a pending [`interrupt`] returns [`Interrupted`]
    /// with all finished work durable.
    pub fn with_journal(mut self, journal: &'a CampaignJournal, input_fp: u64) -> Self {
        self.journal = Some((journal, input_fp));
        self
    }

    /// Attach a store-backed section-table memo: each section's executed
    /// outcomes are sealed into the artifact store, and a later campaign
    /// whose section fingerprint and golden-context signature match
    /// serves them without re-executing. The cold path is unchanged —
    /// composed reports are byte-identical to monolithic ones.
    pub fn with_tables(mut self, memo: &'a TableMemo) -> Self {
        self.tables = Some(memo);
        self
    }

    /// The memo, gated off under chaos: engine-failure chaos perturbs
    /// outcomes (`EngineError` from exhausted retries), so memoizing a
    /// chaos run would leak synthetic failures into clean re-campaigns.
    fn active_tables(&self) -> Option<&TableMemo> {
        let chaos = self.cfg.chaos_panic_one_in.filter(|&n| n > 0).is_some()
            || self.cfg.chaos_timeout_one_in.filter(|&n| n > 0).is_some();
        if chaos {
            None
        } else {
            self.tables
        }
    }

    /// The scheduler this engine executes under.
    fn scheduler(&self) -> &Scheduler {
        self.sched.unwrap_or(&self.owned_sched)
    }

    /// The interpreter faulty runs execute on: profiling off, step limit
    /// at `hang_multiplier` × the golden run.
    fn faulty_interp(&self) -> Interp<'a> {
        let cfg = self.cfg;
        Interp::new(
            self.module,
            ExecConfig {
                profile: false,
                step_limit: self
                    .golden
                    .steps
                    .saturating_mul(cfg.hang_multiplier)
                    .max(10_000),
                ..cfg.exec.clone()
            },
        )
    }

    /// Run injection `k` of unit `(s, local)` in this process, through the
    /// scheduler's retry loop — the execute step shared by the unit loop
    /// and [`ProgramUnitExecutor`], so an out-of-process shard worker
    /// resolves exactly the outcome the in-process executor would. Chaos
    /// and scheduler keys stay flat (`key × per_unit + k`): they describe
    /// harness behaviour, not the program under test.
    fn execute(
        &self,
        interp: &Interp<'_>,
        st: &mut ExecScratch,
        plan: &CampaignPlan,
        (s, local): (usize, usize),
        k: usize,
    ) -> ResolvedInjection {
        let fault = plan.fault(self.cfg, s, local, k);
        let (kind, per_unit) = plan.shape();
        let task = plan.key(s, local) * per_unit as u64 + k as u64;
        let chaos = chaos_plan(self.cfg, task);
        let attempt = |attempt| self.attempt(interp, st, fault, chaos, attempt);
        match self.scheduler().run_task(kind, task, attempt) {
            TaskResult::Done {
                value: (outcome, executed, skipped),
                retries,
            } => ResolvedInjection {
                outcome,
                executed,
                skipped,
                recovered: retries > 0,
                exhausted: None,
            },
            TaskResult::Exhausted { reason, .. } => ResolvedInjection {
                exhausted: Some(reason),
                ..ResolvedInjection::replayed(Outcome::EngineError, false)
            },
        }
    }

    /// One attempt, hardened for the retry loop: a panic anywhere inside
    /// the replay (an interpreter bug, or the chaos knob) surfaces as
    /// [`FailureKind::Panic`] instead of poisoning the worker pool, and a
    /// wall-clock blowout (real, or the timeout chaos knob) surfaces as
    /// [`FailureKind::Timeout`]. Both are retryable — they say something
    /// about the harness or the host, not the program under test. The
    /// panic still prints to stderr: a degraded run is visible, not
    /// silent.
    fn attempt(
        &self,
        interp: &Interp<'_>,
        st: &mut ExecScratch,
        fault: FaultSpec,
        chaos: Option<(FailureKind, u32)>,
        attempt: u32,
    ) -> AttemptResult<(Outcome, u64, u64)> {
        let chaos_hit = matches!(chaos, Some((_, fails)) if attempt < fails);
        if chaos_hit && matches!(chaos, Some((FailureKind::Timeout, _))) {
            // a synthetic wall-clock kill: nothing executed, nothing to classify
            return AttemptResult::Failed(FailureKind::Timeout);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if chaos_hit {
                panic!("chaos: injected worker panic (chaos_panic_one_in)");
            }
            // resume from the nearest safe snapshot when one exists (faults
            // early in the trace may precede the first), else from scratch
            let checkpoints = &self.golden.checkpoints;
            let snap = match fault.target {
                FaultTarget::NthDynamic(n) => checkpoints.nearest_for_dynamic(n),
                FaultTarget::NthOfInst(gid, n) => {
                    checkpoints.nearest_for_inst(interp.dense_index(gid), n)
                }
            };
            match snap {
                Some(i) => interp.resume_from(st, checkpoints, i, self.input, fault),
                None => interp.run_with_fault_in(st, self.input, fault),
            }
        }));
        match result {
            Ok(r) => {
                debug_assert!(r.fault_applied, "fault target within population");
                let skipped = r.resumed_at.unwrap_or(0);
                let executed = r.steps.saturating_sub(skipped);
                match classify(&self.golden.output, &r) {
                    // a real wall-clock blowout reflects host pressure, not
                    // program behaviour — hand it to the retry loop
                    Outcome::EngineError => AttemptResult::Failed(FailureKind::Timeout),
                    o => AttemptResult::Ok((o, executed, skipped)),
                }
            }
            Err(_) => {
                // the panic may have left the per-worker scratch mid-run;
                // drop it so the next attempt starts clean
                *st = ExecScratch::default();
                AttemptResult::Failed(FailureKind::Panic)
            }
        }
    }

    /// Injectable sites per function: `(dense index, gid, dynamic count)`
    /// for every injectable instruction that executed at least once.
    fn sites_by_function(&self) -> Vec<Vec<(usize, GlobalInstId, u64)>> {
        let numbering = self.module.numbering();
        let mut per_func = vec![Vec::new(); self.module.funcs.len()];
        for (gid, inst) in self.module.iter_insts() {
            if !inst.injectable() {
                continue;
            }
            let dense = numbering.index(gid);
            let count = self.golden.profile.inst_counts[dense];
            if count > 0 {
                per_func[gid.func.index()].push((dense, gid, count));
            }
        }
        per_func
    }

    /// The whole-program plan: `cfg.injections` units over the golden
    /// run's injectable population, stratified by section. Per-section
    /// allocations are largest-remainder over each section's injectable
    /// executions (remainder ties broken by function index), so they sum
    /// exactly to `cfg.injections` and track execution weight the way
    /// uniform global sampling does in expectation.
    pub fn plan_program(&self) -> CampaignPlan {
        let population = self.golden.profile.injectable_execs;
        let injections = self.cfg.injections;
        let fps = section_fingerprints(self.module);
        let per_func = self.sites_by_function();
        let mut sections: Vec<ProgramSection> = Vec::new();
        for (fi, sites) in per_func.into_iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            let mut prefix = Vec::with_capacity(sites.len());
            let mut cum = 0u64;
            for (_, gid, count) in sites {
                cum += count;
                prefix.push((gid, cum));
            }
            sections.push(ProgramSection {
                func: fi,
                fp: fps[fi],
                unit_base: 0,
                injections: 0,
                pop: cum,
                prefix,
            });
        }
        debug_assert_eq!(
            sections.iter().map(|s| s.pop).sum::<u64>(),
            population,
            "profile population equals the sum of section populations"
        );
        if population > 0 && injections > 0 {
            let mut assigned = 0usize;
            let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(sections.len());
            for (s, sec) in sections.iter_mut().enumerate() {
                let exact = injections as u128 * sec.pop as u128;
                sec.injections = (exact / population as u128) as usize;
                assigned += sec.injections;
                remainders.push((exact % population as u128, s));
            }
            remainders.sort_unstable_by_key(|&(rem, s)| (std::cmp::Reverse(rem), s));
            for &(_, s) in remainders.iter().take(injections - assigned) {
                sections[s].injections += 1;
            }
            let mut base = 0usize;
            for sec in &mut sections {
                sec.unit_base = base;
                base += sec.injections;
            }
            debug_assert_eq!(base, injections, "allocations sum to the plan size");
        }
        CampaignPlan::Program { sections }
    }

    /// The per-instruction plan: one unit per injectable, executed static
    /// instruction, grouped by enclosing function, highest dynamic count
    /// first within each group (deadlines truncate each section's
    /// low-benefit tail; dense index breaks ties so the order is total).
    pub fn plan_per_instruction(&self) -> CampaignPlan {
        let fps = section_fingerprints(self.module);
        let per_func = self.sites_by_function();
        let mut sections: Vec<PerInstSection> = Vec::new();
        let mut site_base = 0usize;
        for (fi, mut sites) in per_func.into_iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            sites.sort_unstable_by_key(|&(dense, _, count)| (std::cmp::Reverse(count), dense));
            let len = sites.len();
            sections.push(PerInstSection {
                func: fi,
                fp: fps[fi],
                site_base,
                sites,
            });
            site_base += len;
        }
        CampaignPlan::PerInst {
            sections,
            injections_per_site: self.cfg.per_inst_injections,
        }
    }

    /// Walk injection `k` of a unit down the source chain: interrupt →
    /// journal quarantine → journal outcome → sealed table → deadline →
    /// execute.
    fn step(
        &self,
        plan: &CampaignPlan,
        exec: &Execute<'_>,
        st: &mut ExecScratch,
        unit: &Unit<'_>,
        k: usize,
    ) -> Step {
        let Unit { s, local, key, .. } = *unit;
        if let Some((j, fp)) = self.journal {
            if interrupt::requested() {
                return Step::Interrupted;
            }
            // the journal is the durable quarantine list: a unit given up
            // on by an earlier (crashed or resumed) run is skipped outright
            if let Some(b) = (k == 0).then(|| j.quarantined_site(fp, key)).flatten() {
                let reason = FailureKind::from_u8(b).unwrap_or(FailureKind::Panic);
                return Step::Quarantine {
                    reason,
                    resumed: true,
                };
            }
            if let Some(o) = plan
                .journal_outcome(j, fp, key, k)
                .and_then(Outcome::from_u8)
            {
                return Step::Outcome(ResolvedInjection::replayed(o, false), Source::Journal);
            }
        }
        // A sealed stream shorter than the unit means the sealing run
        // stopped early here; the same stop re-derives before `k` reaches
        // the end.
        if let Some((o, rec)) = unit
            .served
            .and_then(|u| u.get(k))
            .and_then(|&(b, rec)| Outcome::from_u8(b).map(|o| (o, rec)))
        {
            return Step::Outcome(ResolvedInjection::replayed(o, rec), Source::Table);
        }
        if self.scheduler().deadline_exceeded() {
            return Step::Truncated;
        }
        match exec {
            Execute::Local(interp) => {
                Step::Outcome(self.execute(interp, st, plan, (s, local), k), Source::Fresh)
            }
            Execute::Resolved(f) => match f(unit.t as u64) {
                ResolvedUnit::Done(o, rec) => {
                    Step::Outcome(ResolvedInjection::replayed(o, rec), Source::Fresh)
                }
                ResolvedUnit::Poisoned => Step::Quarantine {
                    reason: FailureKind::PoisonedShard,
                    resumed: false,
                },
                ResolvedUnit::Missing => Step::Interrupted,
            },
        }
    }

    /// The unit loop both campaign shapes run: fan the plan's units out,
    /// walk every injection down [`step`](Self::step)'s source chain,
    /// apply the shared post-injection bookkeeping, commit each unit's
    /// WAL records in plan order, seal section tables, and hand the
    /// plan-ordered unit results to `reduce`. Errs with [`Interrupted`]
    /// when a unit could not finish (journal interrupt, or an outcome a
    /// resolved run never produced).
    fn run_units<T>(
        &self,
        plan: &CampaignPlan,
        exec: Execute<'_>,
        reduce: impl FnOnce(&[UnitResult]) -> T,
    ) -> Result<T, Interrupted> {
        let units = plan.units();
        if units == 0 {
            return Ok(reduce(&[]));
        }
        let cfg = self.cfg;
        let sched = self.scheduler();
        let (kind, per_unit) = plan.shape();
        // exhausted retries may quarantine a per-instruction site; a
        // program unit is a single injection, so its exhaustion is simply
        // recorded
        let may_quarantine = kind == CampaignKind::PerInst;
        sched.add_planned(plan.planned_injections());
        // capture once so workers pay no atomic load when tracing is off
        let tracing = trace::active();
        let counters = CampaignCounters::new(kind, plan.planned_injections());
        let suffix_steps = Histogram::new();
        let journal = self.journal;
        let writer = journal.map(|(j, fp)| OrderedWriter::new(j, fp));
        let memo = self.active_tables();
        // one verified load per section, before the fan-out: workers only
        // index the decoded tables
        let ranges = plan.section_ranges();
        let loaded: Vec<Option<SealedStreams>> = (0..ranges.len())
            .map(|s| {
                memo.filter(|_| !ranges[s].is_empty())
                    .and_then(|m| plan.load_table(m, cfg, self.golden, s))
            })
            .collect();
        let execute_span = trace::span("execute");
        let results = trace::sample_campaign(&counters, PROGRESS_INTERVAL, || {
            par_map_init(units, cfg.threads, ExecScratch::default, |st, t| {
                let (s, local) = locate(&ranges, t);
                let unit = Unit {
                    s,
                    local,
                    t,
                    key: plan.key(s, local),
                    served: loaded[s]
                        .as_ref()
                        .and_then(|tab| tab.get(local))
                        .map(Vec::as_slice),
                };
                let key = unit.key;
                let mut u = UnitResult {
                    counts: OutcomeCounts::default(),
                    outcomes: Vec::new(),
                    recovered: 0,
                    status: SiteStatus::Full,
                    done: true,
                    fresh: false,
                };
                let mut records: Vec<PendingRecord> = Vec::new();
                let mut consecutive = 0u32;
                for k in 0..per_unit {
                    let mut step = self.step(plan, &exec, st, &unit, k);
                    if let Step::Outcome(r, source) = &step {
                        if *source == Source::Fresh {
                            u.fresh = true;
                            if let Some(m) = memo {
                                m.note_executed(1);
                            }
                        }
                        consecutive = if r.outcome == Outcome::EngineError {
                            consecutive + 1
                        } else {
                            0
                        };
                        if let Some(reason) = r.exhausted.filter(|_| may_quarantine) {
                            // below the threshold, or past the cap, the
                            // exhaustion degrades to a recorded EngineError
                            if consecutive >= cfg.sched.quarantine_after.max(1)
                                && sched.try_quarantine(kind, key, reason, consecutive)
                            {
                                step = Step::Quarantine {
                                    reason,
                                    resumed: false,
                                };
                            }
                        }
                    }
                    match step {
                        Step::Interrupted => {
                            // partial work stays durable: the batch holds
                            // everything this unit finished before
                            u.done = false;
                            break;
                        }
                        Step::Truncated => {
                            u.status = if k == 0 {
                                SiteStatus::Unsampled
                            } else {
                                SiteStatus::Truncated
                            };
                            break;
                        }
                        Step::Quarantine { reason, resumed } => {
                            // the triggering injection and everything still
                            // pending here are charged to quarantine, not
                            // recorded as outcomes
                            if resumed {
                                sched.note_resumed_quarantine();
                            } else if journal.is_some() {
                                records.push(PendingRecord::Quarantine {
                                    site: key,
                                    reason: reason.to_u8(),
                                });
                            }
                            let skip = (per_unit - k) as u64;
                            sched.note_quarantine_skipped(skip);
                            if tracing {
                                counters.record_quarantined(skip);
                            }
                            u.status = SiteStatus::Quarantined(reason);
                            break;
                        }
                        Step::Outcome(r, source) => {
                            // served table outcomes still get a WAL record,
                            // so a resumed run's journal matches a cold one
                            if source != Source::Journal && journal.is_some() {
                                records.push(plan.outcome_record(key, k, r.outcome));
                            }
                            if source == Source::Table {
                                if let Some(m) = memo {
                                    m.note_served(1);
                                }
                            }
                            u.counts.record(r.outcome);
                            u.outcomes.push(r.outcome.to_u8());
                            u.recovered += u64::from(r.recovered);
                            sched.note_completed(1);
                            if tracing {
                                counters.record(outcome_kind(r.outcome), r.executed, r.skipped);
                                if r.recovered {
                                    counters.record_recovered();
                                }
                                if source == Source::Fresh {
                                    suffix_steps.record(r.executed);
                                }
                            }
                            if k + 1 < per_unit {
                                if let Some(hw) =
                                    sched.early_stop(u.counts.sdc, u.counts.valid_total())
                                {
                                    let skip = (per_unit - k - 1) as u64;
                                    sched.note_early_stop(kind, key, u.counts.total(), hw, skip);
                                    u.status = SiteStatus::EarlyStopped;
                                    break;
                                }
                            }
                        }
                    }
                }
                if let Some(w) = &writer {
                    w.commit(t, records);
                }
                u
            })
        });
        drop(execute_span);
        if let Some(w) = &writer {
            w.finish();
        }
        if tracing && matches!(exec, Execute::Local(_)) {
            suffix_steps.emit(&format!("fi.{}.suffix_steps", kind.as_str()));
        }
        if results.iter().any(|u| !u.done) || (journal.is_some() && interrupt::requested()) {
            return Err(Interrupted);
        }
        let _reduce_span = trace::span("reduce");
        sched.note_truncated(kind, results.iter().map(|u| u.truncated(per_unit)).sum());
        if let Some(m) = memo {
            for (s, table) in loaded.iter().enumerate() {
                let range = &results[ranges[s].clone()];
                // a group fully served from an existing table is left
                // alone: the sealed artifact may hold *more* units than
                // this run's allocation (drift after an edit elsewhere)
                if range.is_empty() || (table.is_some() && !range.iter().any(|u| u.fresh)) {
                    continue;
                }
                plan.seal_table(m, cfg, self.golden, s, range);
            }
            let served = loaded.iter().filter(|t| t.is_some()).count() as u64;
            if served > 0 {
                trace::emit(trace::Event::SectionEvent {
                    fp: 0,
                    action: trace::SectionAction::Compose,
                    units: served,
                });
            }
        }
        Ok(reduce(&results))
    }

    /// Execute the whole-program campaign: `cfg.injections` single-bit
    /// flips, each into a uniformly random dynamic instruction execution
    /// and uniformly random bit, every outcome classified against the
    /// golden run. Errs with [`Interrupted`] only when a journal is
    /// attached and an interrupt is pending.
    pub fn run_program(&self) -> Result<ProgramCampaign, Interrupted> {
        self.program(Execute::Local(&self.faulty_interp()))
    }

    /// The whole-program campaign with its execute step supplied by an
    /// out-of-process executor: `resolved(i)` says what became of plan
    /// position `i`. Journal records, tables and the deadline still come
    /// first, exactly as in [`run_program`](Self::run_program); a fresh
    /// outcome is journaled like an executed one, a poisoned unit is
    /// journaled as quarantined, and a missing one makes the run
    /// [`Interrupted`] (journaled or not) once every present outcome is
    /// durable.
    pub fn run_program_resolved(
        &self,
        resolved: &(dyn Fn(u64) -> ResolvedUnit + Sync),
    ) -> Result<ProgramCampaign, Interrupted> {
        self.program(Execute::Resolved(resolved))
    }

    /// Plan positions of the whole-program campaign that no journal
    /// record (outcome or quarantine) resolves yet — the units an
    /// out-of-process executor still has to run. Probing here does not
    /// count as journal use; the run that follows does.
    pub fn pending_program_units(&self) -> Vec<u64> {
        let units = self.plan_program().units() as u64;
        (0..units)
            .filter(|&i| {
                self.journal
                    .is_none_or(|(j, fp)| !j.resolves_program_unit(fp, i))
            })
            .collect()
    }

    fn program(&self, exec: Execute<'_>) -> Result<ProgramCampaign, Interrupted> {
        let plan = {
            let _plan_span = trace::span("plan");
            self.plan_program()
        };
        let ci_z = self.cfg.sched.ci_z;
        self.run_units(&plan, exec, |results| {
            let mut counts = OutcomeCounts::default();
            let mut truncated = 0u64;
            let mut recovered = 0u64;
            for u in results {
                counts.merge(&u.counts);
                truncated += u.truncated(1);
                recovered += u.recovered;
            }
            // engine errors carry no information about the program, so
            // the CI is over the injections that produced a real outcome
            ProgramCampaign {
                counts,
                sdc_ci: binomial_ci(counts.sdc, counts.valid_total(), ci_z),
                planned: plan.planned_injections(),
                truncated,
                recovered,
            }
        })
    }

    /// Execute the per-instruction campaign: `cfg.per_inst_injections`
    /// faults into uniformly random dynamic executions of every site in
    /// the plan. Engine failures are retried; persistently failing sites
    /// are quarantined; converged sites stop early; sites past the
    /// deadline are truncated unless their outcomes are already recorded.
    /// Errs with [`Interrupted`] only when a journal is attached and an
    /// interrupt is pending.
    pub fn run_per_instruction(&self) -> Result<PerInstSdc, Interrupted> {
        let plan = {
            let _plan_span = trace::span("plan");
            self.plan_per_instruction()
        };
        let CampaignPlan::PerInst { sections, .. } = &plan else {
            unreachable!("per-instruction plan")
        };
        let n = self.module.numbering().len();
        let sched = self.scheduler();
        self.run_units(&plan, Execute::Local(&self.faulty_interp()), |results| {
            let mut sdc_prob = vec![0.0; n];
            let mut counts = vec![OutcomeCounts::default(); n];
            let mut ci = vec![binomial_ci(0, 0, self.cfg.sched.ci_z); n];
            let mut status = vec![SiteStatus::Unsampled; n];
            // a section is one function: its units' counts are the
            // per-function outcome distribution the trace reports
            let mut rest = results;
            for sec in sections {
                let (group, tail) = rest.split_at(sec.sites.len());
                rest = tail;
                let mut func = OutcomeCounts::default();
                for (&(dense, _, _), u) in sec.sites.iter().zip(group) {
                    if u.status.trusted() {
                        sdc_prob[dense] = u.counts.sdc_prob();
                        ci[dense] = sched.site_ci(u.counts.sdc, u.counts.valid_total());
                    }
                    counts[dense] = u.counts;
                    status[dense] = u.status;
                    func.merge(&u.counts);
                }
                if func.total() > 0 && trace::active() {
                    trace::emit(trace::Event::FunctionOutcomes {
                        func: self.module.funcs[sec.func].name.clone(),
                        counts: outcome_tally(&func),
                    });
                }
            }
            PerInstSdc {
                sdc_prob,
                counts,
                ci,
                status,
            }
        })
    }

    /// A sequential unit-at-a-time executor over this engine's program
    /// plan, for callers that drive unit selection themselves — the fleet
    /// worker resolves exactly the units its leased shard names, in
    /// whatever order the supervisor hands them out, and each unit's
    /// outcome is identical to what [`run_program`](Self::run_program)
    /// would have produced at that plan position.
    pub fn program_executor(&self) -> ProgramUnitExecutor<'_> {
        let plan = self.plan_program();
        ProgramUnitExecutor {
            engine: self,
            interp: self.faulty_interp(),
            scratch: ExecScratch::default(),
            ranges: plan.section_ranges(),
            plan,
        }
    }
}

// ---------------------------------------------------------------------------
// Pluggable shard executor
// ---------------------------------------------------------------------------

/// Resolves individual program-campaign units on demand.
///
/// This is the engine's seam for out-of-process execution: a fleet worker
/// builds one from its own [`CampaignEngine`] (same module, input, golden
/// run and config as the supervisor planned with) and resolves the unit
/// indices of whatever shard it currently leases. Determinism is carried
/// entirely by the plan position `i` — RNG seed, chaos plan and retry
/// schedule all derive from `(cfg, i)` — so at-least-once execution
/// across worker deaths still reduces to exactly the `--threads` report.
pub struct ProgramUnitExecutor<'e> {
    engine: &'e CampaignEngine<'e>,
    interp: Interp<'e>,
    scratch: ExecScratch,
    plan: CampaignPlan,
    ranges: Vec<Range<usize>>,
}

impl ProgramUnitExecutor<'_> {
    /// Units in the plan (`cfg.injections`).
    pub fn injections(&self) -> usize {
        self.engine.cfg.injections
    }

    /// Injectable dynamic-execution population of the golden run. When
    /// zero the plan is empty and no unit may be run.
    pub fn population(&self) -> u64 {
        self.engine.golden.profile.injectable_execs
    }

    /// Resolve unit `i`: `(classified outcome, recovered-via-retry)`.
    ///
    /// Panics if `i` is outside the plan or the population is empty —
    /// the supervisor never leases such units.
    pub fn run_unit(&mut self, i: usize) -> (Outcome, bool) {
        assert!(
            i < self.plan.units(),
            "unit {i} outside plan ({} injections, population {})",
            self.injections(),
            self.population()
        );
        let at = locate(&self.ranges, i);
        let r = self
            .engine
            .execute(&self.interp, &mut self.scratch, &self.plan, at, 0);
        (r.outcome, r.recovered)
    }
}
