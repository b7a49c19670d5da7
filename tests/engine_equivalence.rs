//! Engine-equivalence matrix: every composition of the `CampaignEngine`
//! (plain, explicit scheduler, journaled) must produce byte-identical
//! reports at every thread count, because the plan is fixed by the seed
//! and reduction happens in plan order regardless of how workers race.
//! Plus the crash story for the *parallel* journaled path: a campaign
//! SIGKILLed mid-run resumes from its WAL to the same bytes.

use minpsid_repro::faultsim::{
    golden_run, CampaignConfigBuilder, CampaignEngine, CampaignJournal, Deadline, GoldenRun,
    Scheduler,
};
use minpsid_repro::interp::ProgInput;
use minpsid_repro::ir::Module;
use minpsid_repro::workloads;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn journal_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-engine-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bench_module(name: &str) -> (Module, ProgInput) {
    let b = workloads::by_name(name).expect("workload exists");
    (b.compile(), b.model.materialize(&b.model.reference()))
}

/// Canonical report bytes for one engine composition: the debug render
/// of both campaign shapes (no timing fields, so fully deterministic).
fn reports(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    threads: usize,
    mode: &str,
) -> (String, String) {
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .and_then(|b| b.threads(threads as u64))
        .expect("valid matrix config")
        .build();
    let sched = Scheduler::unbounded(cfg.sched.clone());
    let dir = journal_dir(&format!("matrix-{mode}-t{threads}"));
    let journal;
    let mut engine = CampaignEngine::new(module, input, golden, &cfg);
    match mode {
        "plain" => {}
        "sched" => engine = engine.with_scheduler(&sched),
        "journaled" => {
            journal = CampaignJournal::open(&dir, 0, 0).expect("open journal");
            engine = engine.with_journal(&journal, 1);
        }
        other => panic!("unknown mode {other}"),
    }
    let program = engine.run_program().expect("no interrupt requested");
    let per_inst = engine
        .run_per_instruction()
        .expect("no interrupt requested");
    let _ = std::fs::remove_dir_all(&dir);
    (format!("{program:?}"), format!("{per_inst:?}"))
}

/// The matrix: {plain, scheduled, journaled} × {1, 2, 8} threads, all
/// nine compositions byte-identical for both campaign shapes.
#[test]
fn all_engine_compositions_are_byte_identical_across_thread_counts() {
    let (module, input) = bench_module("hpccg");
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .expect("valid matrix config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");

    let reference = reports(&module, &input, &golden, 1, "plain");
    for mode in ["plain", "sched", "journaled"] {
        for threads in [1usize, 2, 8] {
            let got = reports(&module, &input, &golden, threads, mode);
            assert_eq!(
                got, reference,
                "{mode} campaign at {threads} threads diverged from plain serial"
            );
        }
    }
}

/// One precedence for recorded outcomes versus the deadline: a journaled
/// campaign run to completion, then resumed under an already-expired
/// deadline, reports exactly what the unbounded run did. In both shapes
/// every injection is answered by the journal before the deadline is
/// consulted, so nothing is truncated.
#[test]
fn recorded_outcomes_are_served_past_an_expired_deadline() {
    let (module, input) = bench_module("fft");
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .and_then(|b| b.threads(2))
        .expect("valid config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let dir = journal_dir("deadline-precedence");
    let cold = {
        let journal = CampaignJournal::open(&dir, 0, 0).expect("open journal");
        let engine = CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&journal, 1);
        (
            format!("{:?}", engine.run_program().expect("no interrupt")),
            format!("{:?}", engine.run_per_instruction().expect("no interrupt")),
        )
    };

    let journal = CampaignJournal::open(&dir, 0, 0).expect("reopen journal");
    let expired = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
    assert!(expired.deadline_exceeded());
    let engine = CampaignEngine::new(&module, &input, &golden, &cfg)
        .with_scheduler(&expired)
        .with_journal(&journal, 1);
    let resumed = (
        format!("{:?}", engine.run_program().expect("no interrupt")),
        format!("{:?}", engine.run_per_instruction().expect("no interrupt")),
    );
    assert_eq!(
        resumed.0, cold.0,
        "program campaign truncated recorded outcomes"
    );
    assert_eq!(
        resumed.1, cold.1,
        "per-instruction campaign truncated recorded outcomes"
    );
    let snap = expired.snapshot();
    assert_eq!(snap.truncated, 0);
    assert_eq!(snap.completeness(), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability must be a pure observer: the same campaign run with the
/// interpreter sampling profiler enabled AND the full trace/metrics
/// bridge attached (the `--status-addr` wiring) produces byte-identical
/// reports to a bare run. The bridge sees real events — the campaign is
/// sampled — but none of it may leak into results.
#[test]
fn observability_on_and_off_produce_byte_identical_reports() {
    use minpsid_repro::metrics::{Registry, StatusBoard};
    use minpsid_repro::trace;
    use std::sync::Arc;

    let (module, input) = bench_module("fft");
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .expect("valid config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");

    let run = || {
        let program = CampaignEngine::new(&module, &input, &golden, &cfg)
            .run_program()
            .expect("no interrupt requested");
        let per_inst = CampaignEngine::new(&module, &input, &golden, &cfg)
            .run_per_instruction()
            .expect("no interrupt requested");
        (format!("{program:?}"), format!("{per_inst:?}"))
    };

    let bare = run();

    let registry = Arc::new(Registry::new());
    let board = Arc::new(StatusBoard::new());
    trace::bridge::install(registry.clone(), board.clone(), "fft");
    minpsid_repro::interp::opprof::enable(64);
    let observed = run();
    minpsid_repro::interp::opprof::disable();
    minpsid_repro::interp::opprof::reset();
    trace::shutdown().expect("clean trace shutdown");

    assert_eq!(
        observed, bare,
        "campaign reports changed with profiler + metrics bridge enabled"
    );
    // The observers must have actually seen the campaign, or the identity
    // check proved nothing.
    let doc = board.render_json_at(0);
    assert!(
        doc.contains("\"workload\":\"fft\"") && doc.contains("\"finished\":true"),
        "bridge saw no campaign: {doc}"
    );
    assert!(
        registry
            .snapshot()
            .iter()
            .any(|f| f.name == "minpsid_injections_total"),
        "bridge recorded no injections"
    );
}

/// Campaign the SIGKILL child and the resuming parent both run: big
/// enough to survive a few hundred milliseconds on one core, parallel
/// (8 workers) so the kill lands on the multi-threaded journaled path.
fn sigkill_campaign() -> (Module, ProgInput, minpsid_repro::faultsim::CampaignConfig) {
    let (module, input) = bench_module("hpccg");
    let cfg = CampaignConfigBuilder::new(11)
        .per_inst_injections(8)
        .and_then(|b| b.threads(8))
        .expect("valid sigkill config")
        .build();
    (module, input, cfg)
}

const CHILD_ENV: &str = "MINPSID_EQ_CHILD";

/// Child half of the SIGKILL test: re-invoked by `--exact` from the
/// parent with `MINPSID_EQ_CHILD` pointing at the journal directory.
/// A no-op (instant pass) in a normal test run.
#[test]
fn sigkill_resume_child() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (module, input, cfg) = sigkill_campaign();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let journal =
        CampaignJournal::open(std::path::Path::new(&dir), 0, 0).expect("open child journal");
    let _ = CampaignEngine::new(&module, &input, &golden, &cfg)
        .with_journal(&journal, 1)
        .run_per_instruction();
}

/// SIGKILL a parallel journaled campaign mid-run (a real child process,
/// killed without warning once its WAL shows progress), then resume from
/// the surviving journal and demand the same bytes a never-crashed
/// campaign produces.
#[test]
fn sigkilled_parallel_journaled_campaign_resumes_bit_identically() {
    let dir = journal_dir("sigkill");
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_resume_child", "--exact", "--nocapture"])
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // Kill once the WAL shows real progress. If the campaign finishes
    // first the resume below simply serves every outcome — still a valid
    // (if weaker) equivalence check, so don't fail on a fast child.
    let wal = dir.join("campaign.wal");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = child.try_wait().expect("poll child").is_some();
        let progressed = std::fs::metadata(&wal)
            .map(|m| m.len() > 4096)
            .unwrap_or(false);
        if done || progressed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child campaign made no journal progress within 120s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();

    let (module, input, cfg) = sigkill_campaign();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let plain = CampaignEngine::new(&module, &input, &golden, &cfg)
        .run_per_instruction()
        .expect("plain campaign is interrupt-free");

    let journal = CampaignJournal::open(&dir, 0, 0).expect("reopen journal after SIGKILL");
    let (recovered, _truncated) = journal.recovery_stats();
    assert!(
        recovered > 0,
        "the SIGKILLed campaign left no recoverable journal records"
    );
    let resumed = CampaignEngine::new(&module, &input, &golden, &cfg)
        .with_journal(&journal, 1)
        .run_per_instruction()
        .expect("no interrupt requested on resume");
    assert_eq!(
        format!("{resumed:?}"),
        format!("{plain:?}"),
        "resumed campaign diverged from a never-crashed one"
    );
    let (served, _appended) = journal.usage();
    assert!(
        served > 0,
        "resume served nothing from the WAL — the crash recovery path was not exercised"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
