//! Campaign configuration, golden runs, result types and the two
//! convenience entry points.
//!
//! The orchestration core lives in [`crate::engine`]: every campaign —
//! plain, deadline-scheduled, journaled, traced, at any thread count —
//! executes through one [`CampaignEngine`] plan/execute/reduce pipeline.
//! This module keeps what surrounds it: [`CampaignConfig`] (the knobs),
//! [`golden_run`] (the fault-free reference execution and its checkpoint
//! store), the result types ([`ProgramCampaign`], [`PerInstSdc`]) and the
//! two thin wrappers ([`program_campaign`], [`per_instruction_campaign`])
//! for callers that want a default-policy campaign in one call.
//!
//! ## Checkpointed injection
//!
//! Faulty runs are bit-identical to the golden run up to the injection
//! point, so [`golden_run`] captures a [`CheckpointStore`] of snapshots
//! and each injection restores the nearest snapshot at or before its
//! target and executes only the suffix. With an interval near
//! sqrt(golden_steps) this cuts the replayed prefix from O(steps) to
//! O(sqrt(steps)) per injection on average, which is where campaigns
//! spend nearly all their time. Results are bit-identical to cold runs:
//! the same `OutcomeCounts` for the same seed with checkpointing on, off,
//! or at any interval.

use crate::engine::CampaignEngine;
use crate::outcome::{Outcome, OutcomeCounts};
use crate::parallel::default_threads;
use minpsid_interp::{
    auto_interval, CheckpointConfig, CheckpointStore, ExecConfig, Interp, Output, Profile,
    ProgInput, SnapshotMode, Termination,
};
use minpsid_ir::Module;
use minpsid_sched::{BinomialCi, SchedConfig, SiteStatus};
use minpsid_trace as trace;
use std::time::Duration;

/// How often the sampler thread publishes `campaign_progress` events.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::from_millis(50);

/// When and how densely the golden run snapshots its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Interval tuned to ~sqrt(golden_steps), capped so at most
    /// [`CampaignConfig::max_checkpoints`] snapshots are taken.
    #[default]
    Auto,
    /// Fixed interval in dynamic instructions.
    Every(u64),
    /// No snapshots; every injection replays from scratch.
    Disabled,
}

/// Campaign parameters (defaults follow §III-A3 of the paper).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Whole-program campaign size (paper: 1000).
    pub injections: usize,
    /// Per-static-instruction campaign size (paper: 100).
    pub per_inst_injections: usize,
    /// RNG seed; campaigns are fully deterministic given the seed.
    pub seed: u64,
    /// Worker threads (the paper farms FI out over 160 cores).
    pub threads: usize,
    /// Hang threshold as a multiple of the golden run's dynamic steps.
    pub hang_multiplier: u64,
    /// Base interpreter limits for faulty runs.
    pub exec: ExecConfig,
    /// Golden-run snapshot policy.
    pub checkpoints: CheckpointPolicy,
    /// Snapshot count cap under [`CheckpointPolicy::Auto`].
    pub max_checkpoints: u64,
    /// Total snapshot memory budget; exceeding it thins the store.
    pub checkpoint_mem_budget: usize,
    /// Full snapshots or delta chains (see [`SnapshotMode`]). Campaigns
    /// default to delta: same restore semantics, ~5-10x less memory per
    /// checkpoint, so density can rise inside the same budget.
    pub snapshot_mode: SnapshotMode,
    /// Delta mode: full keyframe every this many stored checkpoints.
    pub keyframe_every: u32,
    /// Harness chaos knob: deterministically panic inside every
    /// `n`-th-keyed injection worker. Exercises the `catch_unwind` →
    /// retry → [`Outcome::EngineError`] degradation path in tests and
    /// smoke runs; `None` (the default) in real campaigns.
    pub chaos_panic_one_in: Option<u64>,
    /// Chaos knob for the other failure class: every `n`-th-keyed
    /// injection (offset by half a period so the two knobs hit different
    /// injections) reports a synthetic wall-clock blowout instead of
    /// executing. Exercises the timeout retry path.
    pub chaos_timeout_one_in: Option<u64>,
    /// Retry / quarantine / early-stop knobs. Part of the config (and so
    /// of the journal fingerprint): two runs with different retry budgets
    /// are different experiments. The wall-clock deadline is *not* here —
    /// it lives on the [`Scheduler`](minpsid_sched::Scheduler) so a
    /// resumed run may get a fresh budget.
    pub sched: SchedConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 1000,
            per_inst_injections: 100,
            seed: 42,
            threads: default_threads(),
            hang_multiplier: 10,
            exec: ExecConfig::default(),
            checkpoints: CheckpointPolicy::Auto,
            max_checkpoints: 512,
            checkpoint_mem_budget: 256 << 20,
            snapshot_mode: SnapshotMode::Delta,
            keyframe_every: 16,
            chaos_panic_one_in: None,
            chaos_timeout_one_in: None,
            sched: SchedConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// Scaled-down preset for tests and tiny experiments.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            injections: 120,
            per_inst_injections: 20,
            seed,
            ..CampaignConfig::default()
        }
    }
}

/// The fault-free reference execution of (module, input).
#[derive(Debug, Clone)]
pub struct GoldenRun {
    pub output: Output,
    pub profile: Profile,
    pub steps: u64,
    /// Snapshots for resume-from-checkpoint injection; empty when
    /// checkpointing is disabled.
    pub checkpoints: CheckpointStore,
}

impl GoldenRun {
    /// Wire-encode the verdict surface (output, profile, steps) — the
    /// store's `golden` artifact class.
    pub fn encode_meta(&self) -> Vec<u8> {
        minpsid_interp::wire::encode_golden(&self.output, &self.profile, self.steps)
    }

    /// Wire-encode the checkpoint store — the store's `ckpt` artifact
    /// class, persisted separately because it dwarfs the meta and is
    /// independently corruptible.
    pub fn encode_checkpoints(&self) -> Vec<u8> {
        minpsid_interp::wire::encode_checkpoints(&self.checkpoints)
    }

    /// Rebuild a golden run from its two wire images. Checked end to
    /// end: malformed bytes produce an error, never a panic.
    pub fn decode(meta: &[u8], ckpt: &[u8]) -> Result<GoldenRun, minpsid_interp::wire::WireError> {
        let (output, profile, steps) = minpsid_interp::wire::decode_golden(meta)?;
        let checkpoints = minpsid_interp::wire::decode_checkpoints(ckpt)?;
        Ok(GoldenRun {
            output,
            profile,
            steps,
            checkpoints,
        })
    }
}

/// Execute the golden (fault-free, profiled) run and, unless disabled,
/// capture its checkpoint store. Fails if the program does not exit
/// cleanly — campaign inputs must be error-free, matching the paper's
/// input-generation rule §III-A2.
///
/// Two passes: a profiled pass (the profile is needed anyway and its
/// overhead would be charged to every snapshot clone), then an unprofiled
/// checkpointed pass whose interval is tuned from the first pass's step
/// count.
pub fn golden_run(
    module: &Module,
    input: &ProgInput,
    cfg: &CampaignConfig,
) -> Result<GoldenRun, Termination> {
    let _span = trace::span("golden_run");
    let exec = ExecConfig {
        profile: true,
        ..cfg.exec.clone()
    };
    let r = Interp::new(module, exec).run(input);
    if r.termination != Termination::Exit {
        return Err(r.termination);
    }

    let interval = match cfg.checkpoints {
        CheckpointPolicy::Auto => Some(auto_interval(r.steps, cfg.max_checkpoints)),
        CheckpointPolicy::Every(n) => Some(n.max(1)),
        CheckpointPolicy::Disabled => None,
    };
    let checkpoints = match interval {
        Some(interval) => {
            let _span = trace::span("checkpoint_capture");
            let exec = ExecConfig {
                profile: false,
                ..cfg.exec.clone()
            };
            let ck_cfg = CheckpointConfig {
                interval,
                mem_budget_bytes: cfg.checkpoint_mem_budget,
                mode: cfg.snapshot_mode,
                keyframe_every: cfg.keyframe_every,
            };
            let (r2, store) = Interp::new(module, exec).run_with_checkpoint_store(input, ck_cfg);
            // the two passes run different observer instantiations of
            // the loop; every resumed injection trusts the checkpoints,
            // so a divergence must stop the campaign in release builds
            assert_eq!(r2.output, r.output, "checkpointed golden pass diverged");
            assert_eq!(r2.steps, r.steps, "checkpointed golden pass diverged");
            store
        }
        None => CheckpointStore::default(),
    };

    Ok(GoldenRun {
        output: r.output,
        profile: r.profile.expect("profiling was enabled"),
        steps: r.steps,
        checkpoints,
    })
}

/// Result of a whole-program campaign.
#[derive(Debug, Clone)]
pub struct ProgramCampaign {
    pub counts: OutcomeCounts,
    /// Wilson interval on the SDC probability (at the configured `ci_z`).
    pub sdc_ci: BinomialCi,
    /// Injections the campaign intended to run.
    pub planned: u64,
    /// Injections dropped because the wall-clock deadline expired.
    pub truncated: u64,
    /// Injections that failed at least once and then produced a real
    /// outcome on retry (already counted once in `counts`).
    pub recovered: u64,
}

impl ProgramCampaign {
    pub fn sdc_prob(&self) -> f64 {
        self.counts.sdc_prob()
    }
}

/// Per-static-instruction SDC profile (dense in module numbering order).
#[derive(Debug, Clone)]
pub struct PerInstSdc {
    /// SDC probability of each static instruction; 0 for never-executed,
    /// non-injectable, or quarantined instructions.
    pub sdc_prob: Vec<f64>,
    /// Raw outcome counts per static instruction.
    pub counts: Vec<OutcomeCounts>,
    /// Wilson interval on each instruction's SDC probability (vacuous for
    /// unsampled or quarantined instructions).
    pub ci: Vec<BinomialCi>,
    /// How sampling ended at each instruction. `Unsampled` for
    /// instructions outside the campaign (never executed, not injectable)
    /// and for sites the deadline prevented entirely.
    pub status: Vec<SiteStatus>,
}

impl PerInstSdc {
    pub fn len(&self) -> usize {
        self.sdc_prob.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sdc_prob.is_empty()
    }
}

/// Inject `cfg.injections` single-bit flips, each into a uniformly random
/// dynamic instruction execution and uniformly random bit, and classify
/// every outcome. Compatibility wrapper over [`CampaignEngine`] with no
/// policy layers attached (retries per `cfg.sched`, no deadline, no
/// journal); attach layers on the engine for anything more.
pub fn program_campaign(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
) -> ProgramCampaign {
    CampaignEngine::new(module, input, golden, cfg)
        .run_program()
        .unwrap_or_else(|_| unreachable!("interrupts only observed under a journal"))
}

/// Measure the SDC probability of every injectable static instruction by
/// injecting `cfg.per_inst_injections` faults into uniformly random
/// dynamic executions of it. Compatibility wrapper over
/// [`CampaignEngine`] with no policy layers attached.
pub fn per_instruction_campaign(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
) -> PerInstSdc {
    CampaignEngine::new(module, input, golden, cfg)
        .run_per_instruction()
        .unwrap_or_else(|_| unreachable!("interrupts only observed under a journal"))
}

/// Count one specific outcome in a program campaign (test/report helper).
pub fn outcome_fraction(counts: &OutcomeCounts, outcome: Outcome) -> f64 {
    let t = counts.total();
    if t == 0 {
        return 0.0;
    }
    let k = match outcome {
        Outcome::Benign => counts.benign,
        Outcome::Sdc => counts.sdc,
        Outcome::Crash => counts.crash,
        Outcome::Hang => counts.hang,
        Outcome::Detected => counts.detected,
        Outcome::EngineError => counts.engine_error,
    };
    k as f64 / t as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::Scalar;
    use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
    use minpsid_sched::Scheduler;

    /// A small kernel with input-dependent branching: faults on the
    /// comparison flip the branch only when `x` is near the threshold.
    fn test_module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                for i = 0 to n {
                    let v = i * 3 + 1;
                    if v % 7 < 3 { acc = acc + v; }
                }
                out_i(acc);
            }
            "#,
            "campaign-test",
        )
        .unwrap()
    }

    fn input(n: i64) -> ProgInput {
        ProgInput::scalars(vec![Scalar::I(n)])
    }

    #[test]
    fn golden_run_profiles_and_exits() {
        let m = test_module();
        let g = golden_run(&m, &input(50), &CampaignConfig::default()).unwrap();
        assert_eq!(g.output.len(), 1);
        assert!(g.profile.injectable_execs > 0);
        assert!(g.steps > 100);
    }

    #[test]
    fn golden_run_round_trips_through_wire_images() {
        let m = test_module();
        let cfg = CampaignConfig::default(); // delta-mode checkpoints
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        assert!(!g.checkpoints.is_empty());
        let back = GoldenRun::decode(&g.encode_meta(), &g.encode_checkpoints()).unwrap();
        assert_eq!(back.output, g.output);
        assert_eq!(back.steps, g.steps);
        assert_eq!(back.profile.inst_counts, g.profile.inst_counts);
        assert_eq!(back.profile.injectable_execs, g.profile.injectable_execs);
        assert_eq!(back.checkpoints.len(), g.checkpoints.len());
        for i in 0..g.checkpoints.len() {
            assert_eq!(back.checkpoints.steps_at(i), g.checkpoints.steps_at(i));
            assert_eq!(back.checkpoints.inj_ctr_at(i), g.checkpoints.inj_ctr_at(i));
        }
        // encoding is deterministic, so the store dedups identical runs
        assert_eq!(g.encode_meta(), back.encode_meta());
        assert_eq!(g.encode_checkpoints(), back.encode_checkpoints());
    }

    #[test]
    fn golden_run_rejects_trapping_input() {
        let m = minic::compile("fn main() { out_i(10 / arg_i(0)); }", "div").unwrap();
        let r = golden_run(&m, &input(0), &CampaignConfig::default());
        assert!(r.is_err());
    }

    #[test]
    fn program_campaign_accounts_for_every_injection() {
        let m = test_module();
        let cfg = CampaignConfig::quick(7);
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        let c = program_campaign(&m, &input(60), &g, &cfg);
        assert_eq!(c.counts.total(), cfg.injections as u64);
        // a real program under random bit flips shows a mix of outcomes
        assert!(c.counts.benign > 0, "some faults must be masked");
        assert!(
            c.counts.sdc > 0,
            "some faults must corrupt the accumulator: {:?}",
            c.counts
        );
    }

    #[test]
    fn unit_executor_reproduces_run_program_in_any_order() {
        let m = test_module();
        let cfg = CampaignConfig::quick(23);
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        let whole = program_campaign(&m, &input(60), &g, &cfg);

        // Resolve the same plan unit-at-a-time in a scrambled order —
        // the order a fleet's shard leases (and reassignments after
        // worker deaths) would produce — and re-aggregate.
        let inp = input(60);
        let engine = CampaignEngine::new(&m, &inp, &g, &cfg);
        let mut ex = engine.program_executor();
        assert_eq!(ex.injections(), cfg.injections);
        assert_eq!(ex.population(), g.profile.injectable_execs);
        let mut order: Vec<usize> = (0..cfg.injections).collect();
        order.reverse();
        order.rotate_left(cfg.injections / 3);
        let mut counts = OutcomeCounts::default();
        for i in order {
            let (o, _recovered) = ex.run_unit(i);
            counts.record(o);
        }
        assert_eq!(
            counts, whole.counts,
            "unit-at-a-time execution must reduce to the run_program report"
        );

        // and re-running a unit is idempotent (at-least-once execution)
        let mut ex2 = engine.program_executor();
        let (a, ra) = ex2.run_unit(3);
        let (b, rb) = ex2.run_unit(3);
        assert_eq!((a, ra), (b, rb));
    }

    #[test]
    fn campaigns_are_deterministic_given_seed() {
        let m = test_module();
        let cfg = CampaignConfig::quick(99);
        let g = golden_run(&m, &input(40), &cfg).unwrap();
        let a = program_campaign(&m, &input(40), &g, &cfg);
        let b = program_campaign(&m, &input(40), &g, &cfg);
        assert_eq!(a.counts, b.counts);

        let pa = per_instruction_campaign(&m, &input(40), &g, &cfg);
        let pb = per_instruction_campaign(&m, &input(40), &g, &cfg);
        assert_eq!(pa.sdc_prob, pb.sdc_prob);
    }

    #[test]
    fn different_seeds_differ() {
        let m = test_module();
        let g = golden_run(&m, &input(40), &CampaignConfig::default()).unwrap();
        let a = program_campaign(&m, &input(40), &g, &CampaignConfig::quick(1));
        let b = program_campaign(&m, &input(40), &g, &CampaignConfig::quick(2));
        assert_ne!(a.counts, b.counts, "distinct seeds sample differently");
    }

    #[test]
    fn per_instruction_campaign_shapes_match_module() {
        let m = test_module();
        let cfg = CampaignConfig::quick(5);
        let g = golden_run(&m, &input(30), &cfg).unwrap();
        let p = per_instruction_campaign(&m, &input(30), &g, &cfg);
        assert_eq!(p.len(), m.num_insts());
        // the output instruction (out_i) is not injectable -> prob 0;
        // at least one arithmetic instruction must show SDCs
        assert!(p.sdc_prob.iter().any(|&x| x > 0.0));
        assert!(p.sdc_prob.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn per_inst_counts_hit_requested_sample_size() {
        let m = test_module();
        let cfg = CampaignConfig::quick(3);
        let g = golden_run(&m, &input(20), &cfg).unwrap();
        let p = per_instruction_campaign(&m, &input(20), &g, &cfg);
        for (dense, c) in p.counts.iter().enumerate() {
            let executed = g.profile.inst_counts[dense] > 0;
            let inst = m.inst(m.numbering().id_of(dense));
            if executed && inst.injectable() {
                assert_eq!(c.total(), cfg.per_inst_injections as u64);
            } else {
                assert_eq!(c.total(), 0);
            }
        }
    }

    #[test]
    fn single_threaded_and_parallel_agree() {
        let m = test_module();
        let mut cfg1 = CampaignConfig::quick(11);
        cfg1.threads = 1;
        let mut cfg4 = CampaignConfig::quick(11);
        cfg4.threads = 4;
        let g = golden_run(&m, &input(25), &cfg1).unwrap();
        let a = program_campaign(&m, &input(25), &g, &cfg1);
        let b = program_campaign(&m, &input(25), &g, &cfg4);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn checkpointed_and_cold_campaigns_are_bit_identical() {
        // the load-bearing guarantee of checkpointed FI: the same seed
        // yields the same OutcomeCounts and per-instruction SDC profile
        // with checkpointing on (any interval) or off
        let m = test_module();
        let mut cold = CampaignConfig::quick(77);
        cold.checkpoints = CheckpointPolicy::Disabled;
        let mut auto_cfg = CampaignConfig::quick(77);
        auto_cfg.checkpoints = CheckpointPolicy::Auto;
        let mut fixed = CampaignConfig::quick(77);
        fixed.checkpoints = CheckpointPolicy::Every(23);

        let g_cold = golden_run(&m, &input(60), &cold).unwrap();
        assert!(g_cold.checkpoints.is_empty());
        let g_auto = golden_run(&m, &input(60), &auto_cfg).unwrap();
        assert!(
            !g_auto.checkpoints.is_empty(),
            "run long enough to snapshot"
        );
        let g_fixed = golden_run(&m, &input(60), &fixed).unwrap();

        let a = program_campaign(&m, &input(60), &g_cold, &cold);
        let b = program_campaign(&m, &input(60), &g_auto, &auto_cfg);
        let c = program_campaign(&m, &input(60), &g_fixed, &fixed);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts, c.counts);

        let pa = per_instruction_campaign(&m, &input(60), &g_cold, &cold);
        let pb = per_instruction_campaign(&m, &input(60), &g_auto, &auto_cfg);
        let pc = per_instruction_campaign(&m, &input(60), &g_fixed, &fixed);
        assert_eq!(pa.sdc_prob, pb.sdc_prob);
        assert_eq!(pa.counts, pb.counts);
        assert_eq!(pa.counts, pc.counts);
    }

    #[test]
    fn checkpoint_store_respects_memory_budget() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(5);
        cfg.checkpoints = CheckpointPolicy::Every(10);
        cfg.checkpoint_mem_budget = 8 << 10; // force thinning
        let g = golden_run(&m, &input(200), &cfg).unwrap();
        assert!(g.checkpoints.total_bytes() <= 8 << 10);
        // thinned store must still be usable
        let c = program_campaign(&m, &input(200), &g, &cfg);
        assert_eq!(c.counts.total(), cfg.injections as u64);
    }

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("minpsid-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn journaled_campaigns_match_plain_ones_bit_identically() {
        let m = test_module();
        let cfg = CampaignConfig::quick(21);
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let plain = program_campaign(&m, &input(50), &g, &cfg);
        let plain_pi = per_instruction_campaign(&m, &input(50), &g, &cfg);

        let dir = journal_dir("bitident");
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        let s = Scheduler::unbounded(cfg.sched.clone());
        let inp = input(50);
        // first pass: everything fresh (appended); scoped so the engine's
        // borrow of the journal ends before the journal is reopened
        {
            let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
                .with_scheduler(&s)
                .with_journal(&j, 9);
            let a = eng.run_program().unwrap();
            let a_pi = eng.run_per_instruction().unwrap();
            assert_eq!(a.counts, plain.counts);
            assert_eq!(a_pi.counts, plain_pi.counts);
            let (_, appended) = j.usage();
            assert!(appended > 0);
            j.sync().unwrap();
        }

        // second pass over a reopened journal: everything served, still
        // bit-identical
        drop(j);
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        let s = Scheduler::unbounded(cfg.sched.clone());
        let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
            .with_scheduler(&s)
            .with_journal(&j, 9);
        let b = eng.run_program().unwrap();
        let b_pi = eng.run_per_instruction().unwrap();
        assert_eq!(b.counts, plain.counts);
        assert_eq!(b_pi.counts, plain_pi.counts);
        assert_eq!(b_pi.sdc_prob, plain_pi.sdc_prob);
        let (served, appended) = j.usage();
        assert_eq!(appended, 0, "a fully journaled rerun executes nothing");
        assert_eq!(
            served,
            (cfg.injections as u64) + plain_pi.counts.iter().map(|c| c.total()).sum::<u64>()
        );
    }

    #[test]
    fn chaos_panic_degrades_to_engine_error_without_aborting() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(8);
        cfg.chaos_panic_one_in = Some(40);
        // retries off: every chaos hit must surface as EngineError, the
        // pre-scheduler behaviour
        cfg.sched.max_retries = 0;
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let c = program_campaign(&m, &input(50), &g, &cfg);
        // the campaign completed, engine errors were counted, and they do
        // not contaminate the SDC denominator
        assert_eq!(c.counts.total(), cfg.injections as u64);
        assert_eq!(c.counts.engine_error, (cfg.injections as u64).div_ceil(40));
        assert_eq!(
            c.counts.valid_total(),
            cfg.injections as u64 - c.counts.engine_error
        );

        // deterministic: same seed, same chaos, same counts
        let c2 = program_campaign(&m, &input(50), &g, &cfg);
        assert_eq!(c.counts, c2.counts);
    }

    #[test]
    fn interrupted_campaign_preserves_progress_and_resumes() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(31);
        cfg.threads = 1;
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let plain = program_campaign(&m, &input(50), &g, &cfg);

        let dir = journal_dir("interrupt");
        {
            let j = CampaignJournal::open(&dir, 1, 2).unwrap();
            // request the interrupt up front: the campaign must drain
            // immediately and report Interrupted without recording anything
            interrupt::request();
            let r = CampaignEngine::new(&m, &input(50), &g, &cfg)
                .with_journal(&j, 5)
                .run_program();
            interrupt::clear();
            assert_eq!(r.unwrap_err(), Interrupted);
        }
        // resume: completes and matches the uninterrupted counts
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        let resumed = CampaignEngine::new(&m, &input(50), &g, &cfg)
            .with_journal(&j, 5)
            .run_program()
            .unwrap();
        assert_eq!(resumed.counts, plain.counts);
    }

    fn fast_sched(cfg: &mut CampaignConfig) {
        // tests never want real backoff sleeps
        cfg.sched.backoff_base_ms = 0;
        cfg.sched.backoff_cap_ms = 0;
    }

    #[test]
    fn transient_chaos_recovers_via_retry() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(8);
        cfg.chaos_panic_one_in = Some(40);
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(50), &cfg).unwrap();

        // chaos hits keys 0, 40, 80; each fails 1–4 consecutive attempts,
        // so with the default budget (3 attempts) every hit either
        // recovers or exhausts — and nothing is lost either way
        let s = Scheduler::unbounded(cfg.sched.clone());
        let c = CampaignEngine::new(&m, &input(50), &g, &cfg)
            .with_scheduler(&s)
            .run_program()
            .unwrap();
        let snap = s.snapshot();
        assert_eq!(c.counts.total(), cfg.injections as u64);
        assert_eq!(snap.recovered + snap.exhausted, 3, "{snap:?}");
        assert_eq!(c.counts.engine_error, snap.exhausted);
        assert_eq!(c.recovered, snap.recovered);
        assert_eq!(snap.accounted(), snap.planned);

        // deterministic: a fresh scheduler reproduces counts and tallies
        let s2 = Scheduler::unbounded(cfg.sched.clone());
        let c2 = CampaignEngine::new(&m, &input(50), &g, &cfg)
            .with_scheduler(&s2)
            .run_program()
            .unwrap();
        assert_eq!(c.counts, c2.counts);
        assert_eq!(snap, s2.snapshot());
    }

    #[test]
    fn chaos_timeout_knob_hits_offset_keys() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(8);
        cfg.chaos_panic_one_in = Some(40);
        cfg.chaos_timeout_one_in = Some(40);
        cfg.sched.max_retries = 0;
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let c = program_campaign(&m, &input(50), &g, &cfg);
        // panic keys 0,40,80 and timeout keys 20,60,100 are disjoint;
        // with retries off all six surface as EngineError
        assert_eq!(c.counts.total(), cfg.injections as u64);
        assert_eq!(c.counts.engine_error, 6, "{:?}", c.counts);
    }

    #[test]
    fn persistently_failing_sites_are_quarantined_up_to_the_cap() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(9);
        cfg.per_inst_injections = 6;
        cfg.threads = 1;
        cfg.chaos_panic_one_in = Some(1); // every injection fails
        cfg.sched.max_retries = 0;
        cfg.sched.quarantine_cap = 2;
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(20), &cfg).unwrap();
        let s = Scheduler::unbounded(cfg.sched.clone());
        let p = CampaignEngine::new(&m, &input(20), &g, &cfg)
            .with_scheduler(&s)
            .run_per_instruction()
            .unwrap();
        let snap = s.snapshot();

        // quarantine_after=2: each site records one EngineError, then the
        // second consecutive exhaustion quarantines it — until the cap
        assert_eq!(snap.quarantined_sites, 2);
        let quarantined: Vec<usize> = p
            .status
            .iter()
            .enumerate()
            .filter(|(_, st)| matches!(st, SiteStatus::Quarantined(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(quarantined.len(), 2);
        for &dense in &quarantined {
            // estimates from a quarantined site are excluded from rates
            assert_eq!(p.sdc_prob[dense], 0.0);
            assert_eq!((p.ci[dense].lo, p.ci[dense].hi), (0.0, 1.0));
            assert_eq!(
                p.counts[dense].total(),
                1,
                "only the pre-quarantine injection"
            );
        }
        // sites past the cap degrade to plain EngineError outcomes
        let full: Vec<usize> = p
            .status
            .iter()
            .enumerate()
            .filter(|(_, st)| matches!(st, SiteStatus::Full))
            .map(|(i, _)| i)
            .collect();
        assert!(!full.is_empty());
        for &dense in &full {
            assert_eq!(p.counts[dense].engine_error, 6);
        }
        // zero lost injections, and completeness only loses the
        // quarantined work
        assert_eq!(snap.accounted(), snap.planned);
        assert!(snap.completeness() < 1.0);
    }

    #[test]
    fn early_stop_halts_converged_sites_without_losing_completeness() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(12);
        cfg.per_inst_injections = 50;
        cfg.sched.ci_half_width = 0.4; // generous: converges in a few samples
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(30), &cfg).unwrap();
        let s = Scheduler::unbounded(cfg.sched.clone());
        let p = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s)
            .run_per_instruction()
            .unwrap();
        let snap = s.snapshot();
        assert!(snap.early_stopped_sites > 0, "{snap:?}");
        assert!(snap.early_stop_skipped > 0);
        assert_eq!(snap.accounted(), snap.planned);
        // an early stop means the estimate converged — nothing was lost
        assert_eq!(snap.completeness(), 1.0);
        assert!(p
            .status
            .iter()
            .any(|st| matches!(st, SiteStatus::EarlyStopped)));
        // every interval actually honoured the threshold
        for (dense, st) in p.status.iter().enumerate() {
            if matches!(st, SiteStatus::EarlyStopped) {
                assert!(p.ci[dense].half_width() <= 0.4, "{:?}", p.ci[dense]);
            }
        }
        // deterministic
        let s2 = Scheduler::unbounded(cfg.sched.clone());
        let p2 = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s2)
            .run_per_instruction()
            .unwrap();
        assert_eq!(p.sdc_prob, p2.sdc_prob);
        assert_eq!(snap, s2.snapshot());
    }

    #[test]
    fn expired_deadline_truncates_gracefully() {
        use minpsid_sched::Deadline;
        let m = test_module();
        let mut cfg = CampaignConfig::quick(4);
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(30), &cfg).unwrap();

        let s = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
        let c = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s)
            .run_program()
            .unwrap();
        assert_eq!(c.counts.total(), 0);
        assert_eq!(c.truncated, cfg.injections as u64);
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        assert_eq!(snap.completeness(), 0.0);

        let s = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
        let p = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s)
            .run_per_instruction()
            .unwrap();
        assert!(p.counts.iter().all(|c| c.total() == 0));
        assert!(p
            .status
            .iter()
            .all(|st| matches!(st, SiteStatus::Unsampled)));
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        assert_eq!(snap.completeness(), 0.0);
    }

    #[test]
    fn journaled_quarantine_is_skipped_on_resume() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(6);
        cfg.per_inst_injections = 4;
        cfg.threads = 1;
        cfg.chaos_panic_one_in = Some(1);
        cfg.sched.max_retries = 0;
        cfg.sched.quarantine_after = 1; // first exhaustion quarantines
        fast_sched(&mut cfg);
        let g = golden_run(&m, &input(20), &cfg).unwrap();

        let dir = journal_dir("quarantine-resume");
        let sites;
        {
            let j = CampaignJournal::open(&dir, 1, 2).unwrap();
            let s = Scheduler::unbounded(cfg.sched.clone());
            let p = CampaignEngine::new(&m, &input(20), &g, &cfg)
                .with_scheduler(&s)
                .with_journal(&j, 9)
                .run_per_instruction()
                .unwrap();
            sites = p
                .status
                .iter()
                .filter(|st| matches!(st, SiteStatus::Quarantined(_)))
                .count() as u64;
            assert!(sites > 0);
            assert_eq!(s.snapshot().quarantined_sites, sites);
            j.sync().unwrap();
        }

        // resume with the chaos gone: the journal's quarantine list still
        // rules those sites out, with zero fresh executions or appends
        let mut calm = cfg.clone();
        calm.chaos_panic_one_in = None;
        let j = CampaignJournal::open(&dir, 1, 2).unwrap();
        let s = Scheduler::unbounded(calm.sched.clone());
        let p = CampaignEngine::new(&m, &input(20), &g, &calm)
            .with_scheduler(&s)
            .with_journal(&j, 9)
            .run_per_instruction()
            .unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.quarantined_sites, sites);
        assert_eq!(snap.quarantined_injections, sites * 4);
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.accounted(), snap.planned);
        assert_eq!(j.usage().1, 0, "resume appends nothing");
        assert!(
            p.status
                .iter()
                .filter(|st| matches!(st, SiteStatus::Quarantined(_)))
                .count() as u64
                == sites
        );
    }

    #[test]
    fn hang_detection_catches_loop_bound_corruption() {
        // a loop whose bound lives in memory: flips on the bound load can
        // multiply the trip count far past the hang threshold
        let m = minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                let i = 0;
                while i < n {
                    acc = acc + i;
                    i = i + 1;
                }
                out_i(acc);
            }
            "#,
            "hang-test",
        )
        .unwrap();
        let cfg = CampaignConfig {
            injections: 400,
            seed: 13,
            ..CampaignConfig::default()
        };
        let g = golden_run(&m, &input(100), &cfg).unwrap();
        let c = program_campaign(&m, &input(100), &g, &cfg);
        assert!(
            c.counts.hang > 0,
            "high-bit flips on `i`/`n` should hang: {:?}",
            c.counts
        );
    }
}
