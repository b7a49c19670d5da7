//! The MINPSID pipeline rebuilt from the crates' public calls, with a span
//! around each call, for the traced run.
//!
//! The calls and their order follow `run_minpsid_inner` in
//! `crates/core/src/pipeline.rs`: golden run, per-instruction campaign,
//! GA search, incubative tracking, then selection and transform, with the
//! journal and section tables attached the same way. The traced run checks
//! that this rebuild gives the same verdict as the untraced call, so a
//! pipeline change that this file does not follow shows as a failed run.

use crate::trace::Tracer;
use minpsid::{
    input_fingerprint, output_fingerprint, GoldenCache, IncubativeTracker, InputModel,
    MinpsidConfig, MinpsidResult, SearchEngine, SearchStrategy,
};
use minpsid_faultsim::{
    CampaignEngine, CampaignJournal, Deadline, GoldenRun, OutcomeCounts, SchedSnapshot, Scheduler,
    TableMemo, TableStatsSnapshot,
};
use minpsid_interp::ProgInput;
use minpsid_ir::Module;
use minpsid_sid::{select_and_protect, CostBenefit};
use std::sync::Arc;

/// What the pipeline decided, in the form both the untraced result and
/// the rebuild can produce; [`Verdict::digest`] is what the gates compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub selection: Vec<bool>,
    pub expected_coverage: f64,
    pub incubative: Vec<usize>,
    pub incubative_history: Vec<usize>,
    pub inputs_searched: usize,
    /// Reference-input SDC probability per instruction: the reference
    /// campaign's SDC count over its valid outcomes.
    pub sdc_prob: Vec<f64>,
    /// Re-prioritized benefit per instruction.
    pub benefit: Vec<f64>,
    pub sched: SchedSnapshot,
}

impl Verdict {
    pub fn of(r: &MinpsidResult) -> Verdict {
        Verdict {
            selection: r.selection.clone(),
            expected_coverage: r.expected_coverage,
            incubative: r.incubative.clone(),
            incubative_history: r.incubative_history.clone(),
            inputs_searched: r.inputs_searched,
            sdc_prob: r.cost_benefit.sdc_prob.clone(),
            benefit: r.cost_benefit.benefit.clone(),
            sched: r.sched,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bools(&self.selection);
        h.u64(self.expected_coverage.to_bits());
        h.usizes(&self.incubative);
        h.usizes(&self.incubative_history);
        h.u64(self.inputs_searched as u64);
        h.f64s(&self.sdc_prob);
        h.f64s(&self.benefit);
        let s = &self.sched;
        for v in [
            s.planned,
            s.completed,
            s.retries,
            s.exhausted,
            s.quarantined_injections,
            s.early_stop_skipped,
            s.truncated,
        ] {
            h.u64(v);
        }
        h.finish()
    }
}

/// 64-bit FNV-1a over the little-endian bytes of what is fed in.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bools(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&b| self.u64(u64::from(b)));
    }

    pub fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.u64(x as u64));
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|x| self.u64(x.to_bits()));
    }

    pub fn counts(&mut self, c: &OutcomeCounts) {
        for v in [c.benign, c.sdc, c.crash, c.hang, c.detected, c.engine_error] {
            self.u64(v);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Counts only the traced rebuild can see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Seen {
    pub outcomes: OutcomeCounts,
    pub golden_calls: u64,
    pub golden_steps: u64,
    pub snapshot_bytes: u64,
    pub search_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub disk_hits: u64,
    /// Bytes `store.scrub` verified.
    pub scrub_bytes: u64,
}

impl Seen {
    pub fn golden(&mut self, g: &GoldenRun) {
        self.golden_calls += 1;
        self.golden_steps += g.steps;
        self.snapshot_bytes += g.checkpoints.total_bytes() as u64;
    }

    pub fn cache(&mut self, c: &GoldenCache) {
        self.cache_hits += c.hits();
        self.cache_misses += c.misses();
        self.disk_hits += c.disk_hits();
    }

    pub fn add(&mut self, o: &Seen) {
        self.outcomes.merge(&o.outcomes);
        self.golden_calls += o.golden_calls;
        self.golden_steps += o.golden_steps;
        self.snapshot_bytes += o.snapshot_bytes;
        self.search_calls += o.search_calls;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.disk_hits += o.disk_hits;
        self.scrub_bytes += o.scrub_bytes;
    }
}

pub struct Rebuilt {
    pub verdict: Verdict,
    pub tables: Option<TableStatsSnapshot>,
    pub seen: Seen,
}

/// Golden run, journal digest check, then the per-instruction campaign
/// with the journal and table layers attached when present.
#[allow(clippy::too_many_arguments)]
fn per_inst_fi(
    tr: &Tracer,
    module: &Module,
    input: &ProgInput,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    sched: &Scheduler,
    journal: Option<&CampaignJournal>,
    tables: &mut Option<TableStatsSnapshot>,
    seen: &mut Seen,
) -> Result<(Arc<GoldenRun>, CostBenefit), String> {
    let golden = tr
        .span("faultsim.golden", || {
            cache.golden(module, input, &cfg.campaign)
        })
        .map_err(|t| format!("golden run did not exit: {t:?}"))?;
    seen.golden(&golden);
    let input_fp = input_fingerprint(input);
    if let Some(j) = journal {
        let digest = output_fingerprint(&golden.output);
        match tr.span("journal.lookup", || j.golden_digest(input_fp)) {
            Some((d, s)) if d != digest || s != golden.steps => {
                return Err(format!(
                    "golden-run digest mismatch for input {input_fp:#x}"
                ));
            }
            Some(_) => {}
            None => tr.span("journal.append", || {
                j.record_golden(input_fp, digest, golden.steps)
            }),
        }
    }
    let memo = match (cfg.incremental, cache.store()) {
        (true, Some(store)) => Some(TableMemo::new(store.clone(), input_fp)),
        _ => None,
    };
    let mut engine =
        CampaignEngine::new(module, input, &golden, &cfg.campaign).with_scheduler(sched);
    if let Some(j) = journal {
        engine = engine.with_journal(j, input_fp);
    }
    if let Some(m) = &memo {
        engine = engine.with_tables(m);
    }
    let per_inst = tr
        .span("faultsim.per_inst", || engine.run_per_instruction())
        .map_err(|e| format!("per-instruction campaign: {e}"))?;
    per_inst.counts.iter().for_each(|c| seen.outcomes.merge(c));
    if let Some(m) = &memo {
        tables
            .get_or_insert_with(Default::default)
            .merge(&m.stats());
    }
    let cb = tr.span("sid.cost_benefit", || {
        CostBenefit::build(module, &golden, &per_inst)
    });
    Ok((golden, cb))
}

/// `run_minpsid_cached` (no journal) or `run_minpsid_journaled`, rebuilt
/// with spans. The caller opens the `core.pipeline` root span.
pub fn minpsid(
    tr: &Tracer,
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    journal: Option<&CampaignJournal>,
) -> Result<Rebuilt, String> {
    assert_eq!(
        cfg.strategy,
        SearchStrategy::Genetic,
        "the benchmark runs the GA"
    );
    let sched = Scheduler::new(
        cfg.campaign.sched.clone(),
        Deadline::from_secs(cfg.deadline_secs),
    );
    let mut tables = None;
    let mut seen = Seen::default();
    let sync = |j: Option<&CampaignJournal>| {
        if let Some(j) = j {
            let _ = tr.span("journal.sync", || j.sync());
        }
    };

    let ref_input = model.materialize(&model.reference());
    let (ref_golden, ref_cb) = per_inst_fi(
        tr,
        module,
        &ref_input,
        cfg,
        cache,
        &sched,
        journal,
        &mut tables,
        &mut seen,
    )?;
    sync(journal);

    let mut engine = SearchEngine::new(module, model, cfg.campaign.clone(), cfg.ga.clone());
    if let Some(j) = journal {
        engine.set_eval_memo(j);
    }
    engine.set_deadline(sched.deadline());
    engine.record_history(ref_golden.profile.indexed_cfg_list());
    let mut tracker = IncubativeTracker::new(ref_cb.benefit.clone(), cfg.incubative);
    let mut history = Vec::new();
    let mut stale = 0usize;
    let mut searched = 0usize;
    while searched < cfg.max_inputs && stale < cfg.stagnation_patience {
        if sched.deadline_exceeded() {
            break;
        }
        seen.search_calls += 1;
        let Some(outcome) = tr.span("core.search", || engine.next_ga_input()) else {
            break;
        };
        let (_, cb) = per_inst_fi(
            tr,
            module,
            &outcome.input,
            cfg,
            cache,
            &sched,
            journal,
            &mut tables,
            &mut seen,
        )?;
        engine.record_history(outcome.cfg_list);
        let new = tr.span("core.observe", || tracker.observe(&cb.benefit));
        history.push(tracker.count());
        searched += 1;
        if let Some(j) = journal {
            let fp = input_fingerprint(&outcome.input);
            tr.span("journal.append", || j.record_accepted(searched as u64, fp));
            sync(journal);
        }
        stale = if new == 0 { stale + 1 } else { 0 };
    }

    let mut cb = ref_cb;
    cb.benefit = tracker.reprioritized_benefit();
    let (selection, expected_coverage, _protected, _meta) = tr.span("sid.select", || {
        select_and_protect(module, &cb, cfg.protection_level, cfg.use_dp)
    });
    if let Some(j) = journal {
        tr.span("journal.append", || j.record_selection(&selection));
        let _ = tr.span("journal.compact", || j.compact());
        sync(journal);
    }
    Ok(Rebuilt {
        verdict: Verdict {
            selection,
            expected_coverage,
            incubative: tracker.incubative_indices(),
            incubative_history: history,
            inputs_searched: searched,
            sdc_prob: cb.sdc_prob,
            benefit: cb.benefit,
            sched: sched.snapshot(),
        },
        tables,
        seen,
    })
}
