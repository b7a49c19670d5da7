//! The three workloads: set-up, one timed pass, and the output gates.
//!
//! Every pass drives one pipeline or evaluation at a time (a closed loop
//! from one client thread); campaigns inside each call fan out over the
//! configured campaign threads.

use crate::pipeline::{self, Fnv, Seen, Verdict};
use crate::trace::Tracer;
use minpsid::{
    minpsid_config_fingerprint, module_fingerprint, module_section_map, run_minpsid,
    run_minpsid_cached, run_minpsid_journaled, GoldenCache, MinpsidConfig,
};
use minpsid_bench::Preset;
use minpsid_faultsim::{
    golden_run, per_instruction_campaign, program_campaign, CampaignConfig, CampaignJournal,
    SchedSnapshot, TableStatsSnapshot,
};
use minpsid_interp::{Interp, ProgInput, Termination};
use minpsid_ir::Module;
use minpsid_sid::{select_and_protect, CostBenefit};
use minpsid_store::ArtifactStore;
use minpsid_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Harden,
    Evaluate,
    Durable,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Harden => "harden",
            Workload::Evaluate => "evaluate",
            Workload::Durable => "durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        [Workload::Harden, Workload::Evaluate, Workload::Durable]
            .into_iter()
            .find(|w| w.name() == s)
    }
}

/// Protection level of `harden` and `durable`.
const LEVEL: f64 = 0.5;
/// The protection levels `evaluate` measures coverage at.
const EVAL_LEVELS: [f64; 3] = [0.3, 0.5, 0.7];
/// Seed of the campaigns `evaluate` runs; its held-out inputs come from
/// the workload seed.
const EVAL_CAMPAIGN_SEED: u64 = 42;
/// Held-out inputs per kernel in an `evaluate` pass. Their sizes vary with
/// the seed, and more of them average that out: at 6, the `Preset::Tiny`
/// count, one seed's pass took 25% longer than another's.
const EVAL_INPUTS: usize = 24;
/// Where `durable` keeps its journals and stores, under the working
/// directory.
pub const WORK_DIR: &str = ".perfbench_work";

/// Counts that both the untraced call and the traced rebuild report. They
/// are deterministic, so every pass and both runs must agree exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub planned: u64,
    pub completed: u64,
    pub executed: u64,
    pub served: u64,
    pub replayed: u64,
    pub retries: u64,
    pub engine_errors: u64,
    pub quarantined: u64,
    pub truncated: u64,
    pub inputs_searched: u64,
    /// Units the section-table layer executed (0 without tables).
    pub table_executed: u64,
    pub sealed: u64,
    pub sections_hit: u64,
    pub sections_missed: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub store_objects: u64,
    pub store_bytes: u64,
}

impl Counts {
    /// Units resolved through the engine: executed, served from a section
    /// table, or replayed from the journal.
    fn campaigns(s: &SchedSnapshot, t: Option<&TableStatsSnapshot>) -> Counts {
        let (executed, served) = match t {
            Some(t) => (t.injections_executed, t.injections_served),
            None => (s.completed, 0),
        };
        let mut c = Counts {
            planned: s.planned,
            completed: s.completed,
            executed,
            served,
            replayed: s.completed.saturating_sub(executed + served),
            retries: s.retries,
            engine_errors: s.exhausted,
            quarantined: s.quarantined_injections,
            truncated: s.truncated,
            ..Counts::default()
        };
        if let Some(t) = t {
            c.table_executed = t.injections_executed;
            c.sealed = t.tables_sealed;
            c.sections_hit = t.sections_hit;
            c.sections_missed = t.sections_missed;
        }
        c
    }

    /// Units that ended as engine error, quarantined or truncated.
    pub fn failed(&self) -> u64 {
        self.engine_errors + self.quarantined + self.truncated
    }

    pub fn add(&mut self, o: &Counts) {
        let Counts {
            planned,
            completed,
            executed,
            served,
            replayed,
            retries,
            engine_errors,
            quarantined,
            truncated,
            inputs_searched,
            table_executed,
            sealed,
            sections_hit,
            sections_missed,
            wal_records,
            wal_bytes,
            store_objects,
            store_bytes,
        } = o;
        self.planned += planned;
        self.completed += completed;
        self.executed += executed;
        self.served += served;
        self.replayed += replayed;
        self.retries += retries;
        self.engine_errors += engine_errors;
        self.quarantined += quarantined;
        self.truncated += truncated;
        self.inputs_searched += inputs_searched;
        self.table_executed += table_executed;
        self.sealed += sealed;
        self.sections_hit += sections_hit;
        self.sections_missed += sections_missed;
        self.wal_records += wal_records;
        self.wal_bytes += wal_bytes;
        self.store_objects += store_objects;
        self.store_bytes += store_bytes;
    }
}

/// One kernel's outcome in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    pub digest: u64,
    /// One entry per phase (`durable` has three: cold, resume, rerun).
    pub phases: Vec<Counts>,
}

#[derive(Debug, Default)]
pub struct Pass {
    /// Timed seconds: the kernel runs, or for `durable` their three phases.
    pub wall: f64,
    /// `durable`'s cold, resume and rerun seconds.
    pub phase_s: [f64; 3],
    pub kernels: Vec<KernelRecord>,
    /// Pipeline or golden runs that returned an error.
    pub errors: u64,
    /// Counts the traced rebuild sees, summed over the pass.
    pub seen: Seen,
    /// Gate failures.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn totals(&self) -> Counts {
        let mut c = Counts::default();
        for k in &self.kernels {
            k.phases.iter().for_each(|p| c.add(p));
        }
        c
    }
}

pub struct Kernel {
    pub bench: Benchmark,
    pub module: Module,
    /// `evaluate` only: the protected binaries at [`EVAL_LEVELS`].
    pub protected: Vec<Module>,
    /// `evaluate` only: the held-out inputs.
    pub inputs: Vec<ProgInput>,
}

pub struct Prepared {
    pub workload: Workload,
    pub kernels: Vec<Kernel>,
    pub cfg: MinpsidConfig,
    /// `evaluate`'s campaign configuration.
    pub campaign: CampaignConfig,
    /// Random held-out inputs the §III-A2 filter rejected (`evaluate`).
    pub rejected_inputs: u64,
}

/// The `harden` and `durable` pipeline: `Preset::Tiny` at the pinned
/// seed. What the GA finds moves the work by ±7% and the peak memory by
/// ±20% from one pipeline seed to the next, which would bury a 10% change,
/// so every run does the same work and checks it against the pinned
/// digests.
pub fn minpsid_config(threads: usize) -> MinpsidConfig {
    let mut cfg = Preset::Tiny.minpsid_config(LEVEL, crate::pinned::SEED);
    cfg.campaign.threads = threads;
    cfg
}

fn eval_campaign(threads: usize) -> CampaignConfig {
    let mut c = Preset::Tiny.campaign(EVAL_CAMPAIGN_SEED);
    c.threads = threads;
    c
}

/// Everything before the first timed pass: compile the kernels, and for
/// `evaluate` profile each under its reference input, protect it at each
/// level and draw its valid held-out inputs from `seed`. The seed also
/// shuffles the order the passes visit the kernels in, so every run checks
/// that no state leaks from one kernel's results into the next.
pub fn setup(tr: &Tracer, workload: Workload, seed: u64, threads: usize) -> Prepared {
    let cfg = minpsid_config(threads);
    let campaign = eval_campaign(threads);
    let mut rejected_inputs = 0;
    let mut suite: Vec<_> = minpsid_workloads::suite().into_iter().enumerate().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..suite.len()).rev() {
        suite.swap(i, rng.random_range(0..=i));
    }
    let mut kernels = Vec::new();
    for (pos, (k, bench)) in suite.into_iter().enumerate() {
        tr.set_kernel(Some(pos));
        let module = tr.span("minic.compile", || minic::compile(bench.source, bench.name));
        let module = module.unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
        let mut kernel = Kernel {
            bench,
            module,
            protected: Vec::new(),
            inputs: Vec::new(),
        };
        if workload == Workload::Evaluate {
            rejected_inputs += prepare_evaluation(tr, &mut kernel, &campaign, seed, k as u64);
        }
        kernels.push(kernel);
    }
    tr.set_kernel(None);
    Prepared {
        workload,
        kernels,
        cfg,
        campaign,
        rejected_inputs,
    }
}

/// Baseline-SID preparation and held-out input generation for one kernel;
/// returns how many random inputs the validity filter rejected.
fn prepare_evaluation(
    tr: &Tracer,
    kernel: &mut Kernel,
    campaign: &CampaignConfig,
    seed: u64,
    k: u64,
) -> u64 {
    let (m, model) = (&kernel.module, kernel.bench.model.as_ref());
    let ref_input = model.materialize(&model.reference());
    let golden = tr
        .span("faultsim.golden", || golden_run(m, &ref_input, campaign))
        .unwrap_or_else(|t| panic!("{}: reference input failed: {t:?}", kernel.bench.name));
    let per_inst = tr.span("faultsim.per_inst", || {
        per_instruction_campaign(m, &ref_input, &golden, campaign)
    });
    let cb = tr.span("sid.cost_benefit", || {
        CostBenefit::build(m, &golden, &per_inst)
    });
    kernel.protected = EVAL_LEVELS
        .iter()
        .map(|&l| {
            tr.span("sid.select", || select_and_protect(m, &cb, l, false))
                .2
        })
        .collect();
    // the paper's §III-A2 filter: inputs whose run does not exit cleanly
    // are rejected, not evaluated
    let n = EVAL_INPUTS;
    let interp = Interp::new(m, campaign.exec.clone());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
    let mut rejected = 0;
    while kernel.inputs.len() < n {
        assert!(
            rejected < 20 * n as u64,
            "{}: the input model keeps producing invalid inputs",
            kernel.bench.name
        );
        let input = model.materialize(&model.random(&mut rng));
        let r = tr.span("interp.run", || interp.run(&input));
        if r.termination == Termination::Exit {
            kernel.inputs.push(input);
        } else {
            rejected += 1;
        }
    }
    rejected
}

fn ls_store(store: &ArtifactStore) -> (u64, u64) {
    match store.ls() {
        Ok(entries) => (entries.len() as u64, entries.iter().map(|e| e.bytes).sum()),
        Err(_) => (0, 0),
    }
}

/// One timed pass over all kernels.
pub fn pass(tr: &Tracer, prep: &Prepared, pass_no: usize) -> Pass {
    let mut out = Pass::default();
    for k in 0..prep.kernels.len() {
        run_kernel(tr, prep, k, pass_no, &mut out);
    }
    out
}

/// The untraced pass and the traced rebuild of a traced run, interleaved
/// kernel by kernel (alternating which goes first) so that the machine's
/// speed drifts alike for both and their difference is the tracing
/// overhead.
pub fn paired_passes(tr: &Tracer, prep: &Prepared) -> (Pass, Pass) {
    let off = Tracer::new(false);
    let (mut base, mut traced) = (Pass::default(), Pass::default());
    for k in 0..prep.kernels.len() {
        if k % 2 == 0 {
            run_kernel(&off, prep, k, 0, &mut base);
            run_kernel(tr, prep, k, 1, &mut traced);
        } else {
            run_kernel(tr, prep, k, 1, &mut traced);
            run_kernel(&off, prep, k, 0, &mut base);
        }
    }
    (base, traced)
}

/// Kernel `k` of a pass, inside a [`trace::KERNEL`] span; `tr` on makes it
/// the traced rebuild.
///
/// [`trace::KERNEL`]: crate::trace::KERNEL
fn run_kernel(tr: &Tracer, prep: &Prepared, k: usize, pass_no: usize, out: &mut Pass) {
    let kernel = &prep.kernels[k];
    tr.set_kernel(Some(k));
    let t = Instant::now();
    let rec = tr.span(crate::trace::KERNEL, || match prep.workload {
        Workload::Harden => harden_kernel(tr, prep, kernel, out),
        Workload::Evaluate => evaluate_kernel(tr, prep, kernel, out),
        Workload::Durable => durable_kernel(tr, prep, kernel, pass_no, out),
    });
    // `durable` times its three phases itself
    if prep.workload != Workload::Durable {
        out.wall += t.elapsed().as_secs_f64();
    }
    tr.set_kernel(None);
    match rec {
        Ok(rec) => out.kernels.push(rec),
        Err(e) => {
            out.errors += 1;
            out.problems.push(format!("{}: {e}", kernel.bench.name));
        }
    }
}

fn harden_kernel(
    tr: &Tracer,
    prep: &Prepared,
    kernel: &Kernel,
    out: &mut Pass,
) -> Result<KernelRecord, String> {
    let (m, model) = (&kernel.module, kernel.bench.model.as_ref());
    let verdict = if tr.on() {
        let cache = GoldenCache::new();
        let r = tr.span("core.pipeline", || {
            pipeline::minpsid(tr, m, model, &prep.cfg, &cache, None)
        })?;
        out.seen.add(&r.seen);
        out.seen.cache(&cache);
        r.verdict
    } else {
        let r = run_minpsid(m, model, &prep.cfg).map_err(|t| format!("golden run: {t:?}"))?;
        Verdict::of(&r)
    };
    let mut c = Counts::campaigns(&verdict.sched, None);
    c.inputs_searched = verdict.inputs_searched as u64;
    Ok(KernelRecord {
        digest: verdict.digest(),
        phases: vec![c],
    })
}

fn evaluate_kernel(
    tr: &Tracer,
    prep: &Prepared,
    kernel: &Kernel,
    out: &mut Pass,
) -> Result<KernelRecord, String> {
    let campaign = &prep.campaign;
    let m = &kernel.module;
    let mut h = Fnv::new();
    let mut c = Counts::default();
    for (i, input) in kernel.inputs.iter().enumerate() {
        let mut goldens = Vec::new();
        for module in std::iter::once(m).chain(&kernel.protected) {
            let g = tr
                .span("faultsim.golden", || golden_run(module, input, campaign))
                .map_err(|t| format!("held-out input {i}: golden run did not exit: {t:?}"))?;
            out.seen.golden(&g);
            goldens.push(g);
        }
        for (l, g) in goldens.iter().enumerate().skip(1) {
            if g.output != goldens[0].output {
                out.problems.push(format!(
                    "{}: held-out input {i}: the binary protected at {} changes the output",
                    kernel.bench.name,
                    EVAL_LEVELS[l - 1]
                ));
            }
        }
        for (module, g) in std::iter::once(m).chain(&kernel.protected).zip(&goldens) {
            let r = tr.span("faultsim.program", || {
                program_campaign(module, input, g, campaign)
            });
            h.u64(g.steps);
            h.counts(&r.counts);
            out.seen.outcomes.merge(&r.counts);
            c.planned += r.planned;
            c.completed += r.counts.total();
            c.engine_errors += r.counts.engine_error;
            c.truncated += r.truncated;
        }
    }
    c.executed = c.completed;
    Ok(KernelRecord {
        digest: h.finish(),
        phases: vec![c],
    })
}

fn durable_kernel(
    tr: &Tracer,
    prep: &Prepared,
    kernel: &Kernel,
    pass_no: usize,
    out: &mut Pass,
) -> Result<KernelRecord, String> {
    let dir = Path::new(WORK_DIR).join(format!("pass{pass_no}-{}", kernel.bench.name));
    let _ = std::fs::remove_dir_all(&dir);
    let mut phases = Vec::new();
    let mut digests = Vec::new();
    for (p, name) in ["bench.cold", "bench.resume", "bench.rerun"]
        .into_iter()
        .enumerate()
    {
        // cold and resume run under the journal, rerun without it
        let journaled = p < 2;
        let t = Instant::now();
        let (digest, mut counts, store) = tr.span(name, || {
            durable_phase(tr, prep, kernel, &dir, journaled, out)
        })?;
        let secs = t.elapsed().as_secs_f64();
        out.phase_s[p] += secs;
        out.wall += secs;
        (counts.store_objects, counts.store_bytes) = tr.span("store.ls", || ls_store(&store));
        digests.push(digest);
        phases.push(counts);
    }
    let name = kernel.bench.name;
    if digests.iter().any(|&d| d != digests[0]) {
        out.problems.push(format!(
            "{name}: cold, resume and rerun disagree: {digests:x?}"
        ));
    }
    let rerun = &phases[2];
    if rerun.executed != 0 || rerun.served != rerun.planned {
        out.problems.push(format!(
            "{name}: rerun executed {} units and served {} of {} planned",
            rerun.executed, rerun.served, rerun.planned
        ));
    }
    let store = ArtifactStore::open(&dir.join("store")).map_err(|e| e.to_string())?;
    match tr.span("store.scrub", || store.scrub()) {
        Ok(s) if s.found_corruption() || !s.dangling_refs.is_empty() => out
            .problems
            .push(format!("{name}: scrub found corruption: {s:?}")),
        Ok(s) => out.seen.scrub_bytes += s.bytes,
        Err(e) => out.problems.push(format!("{name}: scrub: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(KernelRecord {
        digest: digests[0],
        phases,
    })
}

/// One `durable` phase on one kernel: open the store (and the journal if
/// `journaled`) the way the CLI does, and run the pipeline. Returns
/// the verdict digest, the phase's counts and its store.
fn durable_phase(
    tr: &Tracer,
    prep: &Prepared,
    kernel: &Kernel,
    dir: &Path,
    journaled: bool,
    out: &mut Pass,
) -> Result<(u64, Counts, Arc<ArtifactStore>), String> {
    let (m, model, cfg) = (&kernel.module, kernel.bench.model.as_ref(), &prep.cfg);
    let store = tr
        .span("store.open", || ArtifactStore::open(&dir.join("store")))
        .map_err(|e| e.to_string())?;
    let store = Arc::new(store);
    let cache = GoldenCache::with_store(0, store.clone());
    let journal_dir: PathBuf = dir.join("journal");
    let journal = if journaled {
        let j = tr.span("journal.open", || {
            CampaignJournal::open_with_sections(
                &journal_dir,
                module_fingerprint(m),
                minpsid_config_fingerprint(cfg),
                &module_section_map(m),
                Some(store.clone()),
            )
        });
        Some(j.map_err(|e| e.to_string())?)
    } else {
        None
    };
    let (verdict, tables) = if tr.on() {
        let r = tr.span("core.pipeline", || {
            pipeline::minpsid(tr, m, model, cfg, &cache, journal.as_ref())
        })?;
        out.seen.add(&r.seen);
        (r.verdict, r.tables)
    } else {
        let r = match &journal {
            Some(j) => run_minpsid_journaled(m, model, cfg, &cache, j).map_err(|e| e.to_string()),
            None => run_minpsid_cached(m, model, cfg, &cache).map_err(|t| format!("{t:?}")),
        }?;
        (Verdict::of(&r), r.table_stats)
    };
    out.seen.cache(&cache);
    let mut c = Counts::campaigns(&verdict.sched, tables.as_ref());
    c.inputs_searched = verdict.inputs_searched as u64;
    if let Some(j) = &journal {
        c.wal_records = j.usage().1;
        c.wal_bytes = std::fs::metadata(journal_dir.join("campaign.wal")).map_or(0, |md| md.len());
    }
    Ok((verdict.digest(), c, store))
}
