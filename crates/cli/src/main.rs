//! `minpsid` — command-line driver for the MINPSID reproduction.
//!
//! ```text
//! minpsid list                              # Table I: the benchmark suite
//! minpsid compile <bench|file.mc>           # emit textual IR
//! minpsid run <bench> [--args i:N f:X ...]  # execute and print output
//! minpsid fi <bench> [--injections N]       # whole-program FI campaign
//! minpsid sid <bench> [--level 0.5]         # baseline SID report
//! minpsid minpsid <bench> [--level 0.5]     # full MINPSID pipeline report
//! ```
//!
//! Benchmarks come from `minpsid-workloads`; `compile` also accepts a path
//! to a `.mc` (minic) source file.

use minpsid::{
    config_fingerprint, input_fingerprint, minpsid_config_fingerprint, module_fingerprint,
    module_section_map, run_minpsid_cached, run_minpsid_journaled, GoldenCache, MinpsidConfig,
    PipelineError,
};
use minpsid_faultsim::{
    golden_run, interrupt, CampaignConfig, CampaignConfigBuilder, CampaignEngine, CampaignJournal,
    Deadline, GoldenRun, Interrupted, Outcome, ProgramCampaign, ResolvedUnit, SchedSnapshot,
    Scheduler, TableMemo, TableStatsSnapshot,
};
use minpsid_interp::{ExecConfig, Interp, ProgInput, Scalar};
use minpsid_ir::printer::print_module;
use minpsid_ir::Module;
use minpsid_sid::{run_sid, SidConfig};
use minpsid_store::ArtifactStore;
use minpsid_trace as trace;
use std::io::{IsTerminal as _, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Set by `--quiet`: suppresses the CLI's stderr diagnostics (primary
/// results on stdout are unaffected).
static QUIET: AtomicBool = AtomicBool::new(false);

fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// A command that succeeded but wants a distinguishing exit code (e.g.
/// `store scrub` found and quarantined corruption: the store is healthy
/// again but CI must notice). 0 = plain success.
static EXIT_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `store scrub` exit code when the pass quarantined corrupt objects.
const SCRUB_CORRUPTION_EXIT: u8 = 3;

/// All CLI stderr diagnostics go through here so `--quiet` silences them
/// in one place.
macro_rules! diag {
    ($($arg:tt)*) => {
        if !crate::quiet() {
            eprintln!($($arg)*);
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--quiet") {
        QUIET.store(true, Ordering::Relaxed);
    }
    // Chaos knob for the artifact store, deliberately outside every
    // config fingerprint: flips a bit in stored artifacts to prove the
    // store detects, quarantines, and recomputes. Parsed before
    // dispatch so every store this process (or a re-exec'd worker)
    // opens inherits it.
    if let Some(v) = flag_value(rest, "--chaos-flip-artifact-one-in") {
        match v.parse::<u64>() {
            Ok(n) => minpsid_store::chaos::set_flip_one_in(n),
            Err(_) => {
                eprintln!("error: bad --chaos-flip-artifact-one-in `{v}` (want a count, 0 = off)");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = flag_value(rest, "--trace-out") {
        if let Err(e) = trace::init_file(&path) {
            eprintln!("error: cannot open trace file `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    // --progress is a stderr convenience; --quiet wins outright.
    if rest.iter().any(|a| a == "--progress") && !quiet() {
        install_progress_meter();
    }
    match parse_profile_flags(rest) {
        Ok(Some(every)) => minpsid_interp::opprof::enable(every),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Keep the server alive for the whole run; dropping it (end of main)
    // joins the accept loop.
    let _status_server = match start_status_server(rest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "list" => cmd_list(),
        "compile" => cmd_compile(rest),
        "run" => cmd_run(rest),
        "fi" => cmd_fi(rest),
        // hidden: fleet worker process, re-exec'd by `fi --workers`
        "worker" => cmd_worker(rest),
        "analyze" => cmd_analyze(rest),
        "cfg" => cmd_cfg(rest),
        "propagate" => cmd_propagate(rest),
        "sid" => cmd_sid(rest),
        "minpsid" => cmd_minpsid(rest),
        "sections" => cmd_sections(rest),
        "store" => cmd_store(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    let result = result
        .and_then(|()| finish_interp_profile(rest))
        .and_then(|()| trace::shutdown().map_err(|e| format!("writing trace log: {e}")));
    match result {
        Ok(()) => match EXIT_OVERRIDE.load(Ordering::Relaxed) {
            0 => ExitCode::SUCCESS,
            n => ExitCode::from(n),
        },
        Err(e) => {
            let _ = trace::shutdown();
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Install a live campaign meter (`--progress`): an observer that redraws
/// a single line on every `campaign_progress` sample and clears it when
/// the campaign ends. Works with or without `--trace-out`.
///
/// The meter only uses carriage returns and ANSI erase codes when stderr
/// is an actual terminal; redirected to a file or pipe it degrades to
/// plain lines throttled to at most one per second, so logs don't fill
/// with control bytes (the sampler fires every 50ms).
fn install_progress_meter() {
    let tty = std::io::stderr().is_terminal();
    let last_line = Mutex::new(None::<std::time::Instant>);
    trace::add_observer(move |ev| {
        if quiet() {
            return;
        }
        let mut err = std::io::stderr().lock();
        match &ev.event {
            trace::Event::CampaignProgress {
                kind,
                done,
                total,
                counts,
                elapsed_us,
            } => {
                let secs = (*elapsed_us as f64 / 1e6).max(1e-9);
                let rate = *done as f64 / secs;
                let eta = if rate > 0.0 && total > done {
                    (*total - *done) as f64 / rate
                } else {
                    0.0
                };
                let kind = match kind {
                    trace::CampaignKind::Program => "fi",
                    trace::CampaignKind::PerInst => "per-inst fi",
                };
                let line = format!(
                    "{kind}: {done}/{total} injections ({rate:.0}/s, ETA {eta:.1}s) \
                     sdc {} crash {} hang {} detected {}",
                    counts.sdc, counts.crash, counts.hang, counts.detected
                );
                if tty {
                    let _ = write!(err, "\r{line}   ");
                    let _ = err.flush();
                } else {
                    let mut last = last_line.lock().unwrap_or_else(|e| e.into_inner());
                    let due = last.is_none_or(|t| t.elapsed() >= std::time::Duration::from_secs(1));
                    if due {
                        *last = Some(std::time::Instant::now());
                        let _ = writeln!(err, "{line}");
                    }
                }
            }
            trace::Event::CampaignEnd {
                injections,
                elapsed_us,
                ..
            } => {
                let secs = (*elapsed_us as f64 / 1e6).max(1e-9);
                if tty {
                    let _ = write!(err, "\r\x1b[2K");
                }
                let _ = writeln!(
                    err,
                    "campaign done: {injections} injections in {secs:.2}s ({:.0}/s)",
                    *injections as f64 / secs
                );
                *last_line.lock().unwrap_or_else(|e| e.into_inner()) = None;
            }
            _ => {}
        }
    });
}

/// `--profile-interp` / `--profile-sample-every N`: returns
/// `Some(sample_every)` when the interpreter sampling profiler should be
/// enabled (0 = the profiler's default interval).
fn parse_profile_flags(rest: &[String]) -> Result<Option<u64>, String> {
    let every = match flag_value(rest, "--profile-sample-every") {
        None => None,
        Some(v) => Some(v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
            format!("bad --profile-sample-every `{v}` (want a positive step count)")
        })?),
    };
    let folded = flag_value(rest, "--profile-folded").is_some();
    if rest.iter().any(|a| a == "--profile-interp") || every.is_some() || folded {
        Ok(Some(every.unwrap_or(0)))
    } else {
        Ok(None)
    }
}

/// `--status-addr ADDR`: start the embedded HTTP status server and bridge
/// the trace event stream into its metrics registry and status board.
fn start_status_server(rest: &[String]) -> Result<Option<minpsid_metrics::StatusServer>, String> {
    let Some(addr) = flag_value(rest, "--status-addr") else {
        return Ok(None);
    };
    let registry = Arc::new(minpsid_metrics::Registry::new());
    registry
        .gauge(
            "minpsid_build_info",
            "Build metadata; the value is always 1.",
            &[("version", env!("CARGO_PKG_VERSION"))],
        )
        .set(1.0);
    let board = Arc::new(minpsid_metrics::StatusBoard::new());
    board.set_tool(concat!("minpsid ", env!("CARGO_PKG_VERSION")));
    // The event stream only carries campaign kinds; label series with the
    // workload being screened (first positional argument).
    let workload = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("-");
    trace::bridge::install(registry.clone(), board.clone(), workload);
    let server = minpsid_metrics::StatusServer::bind(&addr, registry, board)
        .map_err(|e| format!("cannot bind status server on `{addr}`: {e}"))?;
    diag!(
        "status server on http://{}/  (endpoints: /metrics, /status)",
        server.local_addr()
    );
    Ok(Some(server))
}

/// When the interpreter profiler ran, surface its findings: emit the
/// `interp_profile` trace event (lands in `--trace-out` logs for
/// `minpsid trace report`), write the flamegraph-compatible folded-stacks
/// file (`--profile-folded PATH`), and print a short stderr summary.
/// Stdout is untouched — reports stay byte-identical with profiling on.
fn finish_interp_profile(rest: &[String]) -> Result<(), String> {
    if !minpsid_interp::opprof::enabled() {
        return Ok(());
    }
    let rep = minpsid_interp::opprof::snapshot();
    trace::emit(trace::Event::InterpProfile {
        sample_every: rep.sample_every,
        total_samples: rep.total_samples,
        fused_samples: rep.fused_samples,
        fused_sites: rep.fused_sites,
        total_sites: rep.total_sites,
        encode_ns: rep.encode_ns,
        encode_ops: rep.encode_ops,
        restore_ns: rep.restore_ns,
        restore_ops: rep.restore_ops,
        samples: rep.samples.clone(),
    });
    if let Some(path) = flag_value(rest, "--profile-folded") {
        std::fs::write(&path, rep.folded())
            .map_err(|e| format!("writing folded stacks to {path}: {e}"))?;
        diag!("wrote folded stacks to {path}");
    }
    diag!(
        "interp profile: {} samples (1 per {} steps), {:.1}% on fused superinstructions",
        rep.total_samples,
        rep.sample_every,
        rep.fused_sample_rate() * 100.0
    );
    for (op, n) in rep.samples.iter().take(5) {
        diag!("  {op:<22} {n}");
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "minpsid — MINPSID (SC'22) reproduction driver

usage:
  minpsid list
  minpsid compile <bench|file.mc>
  minpsid run <bench> [--args i:N f:X ...]
  minpsid fi <bench> [--injections N] [--seed S]
  minpsid analyze <bench> [--top N]      # rank instructions by SDC benefit
  minpsid cfg <bench> [--fn NAME]        # weighted CFG as Graphviz DOT
  minpsid propagate <bench> [--nth K] [--bit B]
  minpsid sid <bench> [--level 0.5] [--seed S]
  minpsid minpsid <bench> [--level 0.5] [--seed S] [--json]
  minpsid sections <bench> [--static]    # per-function fingerprints and
                                         # dynamic ranges (incremental FI)
  minpsid trace report <log.jsonl> [-o out/]   # analyze a trace log
  minpsid trace check <log.jsonl>              # validate a trace log
  minpsid store scrub <dir>              # verify every object; exit 3 if
                                         # corruption was found+quarantined
  minpsid store gc <dir>                 # drop unreferenced objects
  minpsid store ls <dir> [--kind K]      # list objects with back-refs,
                                         # filtered by artifact class,
                                         # plus per-kind byte totals

FI campaign options (fi/analyze/sid/minpsid):
  --injections N            whole-program campaign size (default 1000)
  --per-inst N              injections per static instruction (default 100)
  --quick                   small campaign preset for smoke tests
  --threads N               worker threads (default: all cores); reports
                            are byte-identical at any thread count
  --checkpoint-interval N   snapshot the golden run every N dynamic
                            instructions (default: auto, ~sqrt of steps)
  --no-checkpoints          disable checkpointing; replay every injection
                            from scratch
  --snapshot-mode MODE      checkpoint encoding: `delta` (dirty-range
                            diffs with periodic keyframes, the default)
                            or `full` (self-contained snapshots)
  --injection-timeout-ms N  per-injection wall-clock budget alongside the
                            step limit (0 = off, the default); overruns
                            classify as engine errors, not hangs
  --chaos-panic-one-in N    test harness: panic inside every Nth injection
                            worker to exercise fault isolation
  --chaos-timeout-one-in N  test harness: synthetic timeout in every Nth
                            injection to exercise retry → quarantine

process-isolated fleet (fi):
  --workers N               run the campaign across N supervised worker
                            processes instead of threads; a worker
                            killed mid-shard (SIGKILL, abort, OOM,
                            hang) is restarted and its shard
                            reassigned, and the report and journal stay
                            byte-identical to a --threads run
  --fleet-lease-ms MS       heartbeat lease on a shard before the
                            holder is presumed hung and killed
                            (default 10000)
  --shards-per-worker N     plan granularity: shards = workers × N
                            (default 4)
  --poison-after K          kills of non-chaos workers a shard may
                            cause before it is quarantined as poisoned
                            (default 3)
  --chaos-kill-worker-ms MS test harness: SIGKILL a random busy worker
                            every MS milliseconds; the report must not
                            change
  --chaos-abort-unit I      test harness: worker aborts at plan index I
                            on the first attempt (transient fault)
  --chaos-poison-unit I     test harness: worker aborts at plan index I
                            on every attempt (poisoned shard)
  --chaos-hang-unit I       test harness: worker hangs at plan index I
                            on the first attempt (lease expiry)

resilient scheduling (fi/analyze/sid/minpsid):
  --deadline-secs S         global wall-clock budget; expired work is
                            truncated (low-benefit sites first) and the
                            report carries a completeness score
  --max-retries N           extra attempts for transient engine failures
                            (default 2; 0 disables retries)
  --quarantine-after N      consecutive exhausted injections before a
                            site is quarantined (default 2)
  --quarantine-cap N        hard cap on quarantined sites (default 64)
  --ci-half-width W         per-site early stop once the 95% Wilson
                            interval half-width is <= W (0 = off)

crash-safe journal (fi/minpsid):
  --journal DIR             journal campaign progress to DIR; SIGINT or
                            SIGTERM flushes and exits with a resume hint
  --resume DIR              resume a journaled run (same flags required)
  --max-inputs N            cap on searched inputs (minpsid; default 25)
  --golden-cache-cap N      LRU-evict golden runs beyond N cache entries

self-verifying artifact store (fi/minpsid):
  --store DIR               persist golden runs, checkpoints, and WAL
                            snapshots in a content-addressed store at
                            DIR (default <journal>/store when journaled;
                            artifacts are digest-verified on load —
                            corruption is quarantined and recomputed,
                            never served)
  --chaos-flip-artifact-one-in N
                            test harness: flip one bit in every Nth
                            published artifact between write and read;
                            reports must not change (corruption is
                            detected and healed by recompute)

incremental re-campaigns (fi/minpsid, needs --store or --journal):
  --incremental             memoize sealed per-section outcome tables in
                            the store and serve them on later runs, so a
                            re-campaign after an edit re-executes only
                            the touched functions. Opt-in and unsound
                            for now: an edit to code that runs after a
                            faulted section can serve stale outcomes
                            (a warning is printed)
  --no-incremental          always re-execute every injection (default)

live observability:
  --status-addr ADDR        serve /metrics (Prometheus text) and /status
                            (JSON) over HTTP while the run executes,
                            e.g. --status-addr 127.0.0.1:9090
  --profile-interp          interpreter sampling profiler: per-opcode
                            cycle attribution, fusion hit rates, and
                            snapshot encode/restore costs (reported via
                            stderr, the trace log, and trace report)
  --profile-sample-every N  profiler sample interval in dynamic steps
                            (default 8192; implies --profile-interp)
  --profile-folded PATH     write flamegraph-compatible folded stacks
                            (implies --profile-interp)

global options:
  --trace-out PATH          write a structured JSONL trace of the run
                            (analyze with `minpsid trace report`)
  --progress                live campaign meter on stderr (single-line
                            when stderr is a TTY, throttled plain lines
                            otherwise; silenced by --quiet)
  --quiet                   suppress stderr diagnostics"
    );
}

fn cmd_list() -> Result<(), String> {
    println!("{:<15} {:<10} description", "benchmark", "suite");
    for b in minpsid_workloads::suite() {
        println!("{:<15} {:<10} {}", b.name, b.suite, b.description);
    }
    Ok(())
}

fn load_module(name: &str) -> Result<Module, String> {
    if name.ends_with(".mc") {
        let src = std::fs::read_to_string(name).map_err(|e| format!("reading {name}: {e}"))?;
        return minic::compile(&src, name).map_err(|e| format!("compiling {name}: {e}"));
    }
    if name.ends_with(".ir") {
        let src = std::fs::read_to_string(name).map_err(|e| format!("reading {name}: {e}"))?;
        let module =
            minpsid_ir::parser::parse_module(&src).map_err(|e| format!("parsing {name}: {e}"))?;
        if let Err(errs) = minpsid_ir::verify_module(&module) {
            return Err(format!("{name} failed verification: {}", errs[0]));
        }
        return Ok(module);
    }
    minpsid_workloads::by_name(name)
        .map(|b| b.compile())
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `minpsid list`)"))
}

fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1).cloned())
}

fn parse_level(rest: &[String]) -> Result<f64, String> {
    match flag_value(rest, "--level") {
        None => Ok(0.5),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("bad --level `{v}`"))
            .and_then(|l| {
                if l <= 0.0 {
                    Err(format!(
                        "--level {v} gives a zero protection budget \
                         (no instruction can be selected); use a level in (0, 1]"
                    ))
                } else if l > 1.0 {
                    Err("--level must be in (0, 1]".into())
                } else {
                    Ok(l)
                }
            }),
    }
}

/// Parse a flag whose value must be a positive integer (`0` is always a
/// configuration mistake for these: it silently yields an empty campaign
/// or an empty search).
fn parse_positive(rest: &[String], flag: &str, what: &str) -> Result<Option<u64>, String> {
    match flag_value(rest, flag) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .map(Some)
            .ok_or_else(|| format!("bad {flag} `{v}` ({what})")),
    }
}

/// Campaign config from the shared FI flag vocabulary — a thin delegate
/// to [`CampaignConfigBuilder::from_flags`], which owns every validation
/// rule (the bench binaries parse the same flags through the same code).
fn parse_campaign(rest: &[String]) -> Result<CampaignConfig, String> {
    CampaignConfigBuilder::from_flags(rest).map(CampaignConfigBuilder::build)
}

/// `--deadline-secs`: the global wall-clock budget. Not part of the
/// campaign config (and so not of the journal fingerprint) — it bounds
/// how much work runs, never what that work computes.
fn parse_deadline(rest: &[String]) -> Result<Option<f64>, String> {
    CampaignConfigBuilder::from_flags(rest).map(|b| b.deadline())
}

fn first_arg<'a>(rest: &'a [String], what: &str) -> Result<&'a str, String> {
    rest.first()
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with("--"))
        .ok_or_else(|| format!("missing {what}"))
}

fn cmd_compile(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name or .mc file")?;
    let mut module = load_module(name)?;
    if rest.iter().any(|a| a == "--opt") {
        let removed = minpsid_ir::opt::optimize(&mut module);
        diag!("; optimizer removed {removed} instructions");
    }
    print!("{}", print_module(&module));
    println!(
        "; {} functions, {} static instructions",
        module.funcs.len(),
        module.num_insts()
    );
    Ok(())
}

/// Parse `--args i:5 f:2.5 ...` into a scalar-argument input; without
/// `--args`, benchmarks use their reference input.
fn parse_input(name: &str, rest: &[String]) -> Result<ProgInput, String> {
    if let Some(pos) = rest.iter().position(|a| a == "--args") {
        let mut scalars = Vec::new();
        for a in &rest[pos + 1..] {
            if a.starts_with("--") {
                break;
            }
            let (kind, v) = a
                .split_once(':')
                .ok_or_else(|| format!("bad arg `{a}` (want i:N or f:X)"))?;
            match kind {
                "i" => scalars.push(Scalar::I(v.parse().map_err(|_| format!("bad int `{v}`"))?)),
                "f" => scalars.push(Scalar::F(
                    v.parse().map_err(|_| format!("bad float `{v}`"))?,
                )),
                _ => return Err(format!("bad arg kind `{kind}`")),
            }
        }
        return Ok(ProgInput::scalars(scalars));
    }
    minpsid_workloads::by_name(name)
        .map(|b| b.model.materialize(&b.model.reference()))
        .ok_or_else(|| {
            format!("`{name}` is not a registered benchmark; pass --args for custom programs")
        })
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let r = Interp::new(&module, ExecConfig::default()).run(&input);
    for item in &r.output.items {
        println!("{item}");
    }
    diag!(
        "terminated: {:?}, {} dynamic instructions",
        r.termination,
        r.steps
    );
    Ok(())
}

fn cmd_fi(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let workers = parse_positive(rest, "--workers", "want a positive worker-process count")?;
    if workers.is_some() && parse_deadline(rest)?.is_some() {
        return Err(
            "--workers does not combine with --deadline-secs; deadline-bounded \
             campaigns use the in-process --threads path"
                .into(),
        );
    }
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let campaign = parse_campaign(rest)?;
    let sched = Scheduler::new(
        campaign.sched.clone(),
        Deadline::from_secs(parse_deadline(rest)?),
    );
    let store = open_run_store(rest)?;
    let journal = open_journal(rest, &module, fi_journal_key(&campaign), store.clone())?;
    let golden =
        golden_run(&module, &input, &campaign).map_err(|t| format!("golden run failed: {t:?}"))?;
    let input_fp = input_fingerprint(&input);
    // table memoization is in-process only: fleet workers have no store
    let memo = match (parse_incremental(rest)?, &store, workers) {
        (true, Some(s), None) => Some(TableMemo::new(s.clone(), input_fp)),
        _ => None,
    };
    let mut engine =
        CampaignEngine::new(&module, &input, &golden, &campaign).with_scheduler(&sched);
    if let Some(j) = &journal {
        engine = engine.with_journal(j, input_fp);
    }
    if let Some(m) = &memo {
        engine = engine.with_tables(m);
    }
    let c = match workers {
        None => engine.run_program(),
        Some(w) => fleet_campaign(&engine, name, rest, w as usize, &golden, journal.as_ref())?,
    };
    let c = c.map_err(|_| match &journal {
        Some(j) => resume_hint("fi", rest, j),
        None => "interrupted before every injection finished \
                 (add --journal DIR to make fleet runs resumable)"
            .to_string(),
    })?;
    print_fi_report(&c, &sched.snapshot())?;
    if let Some(j) = &journal {
        diag!("journal: {}", journal_usage(j, "injections"));
    }
    if let Some(m) = &memo {
        table_stats_diag(&m.stats());
    }
    Ok(())
}

/// `--incremental` / `--no-incremental`: memoize sealed per-section
/// outcome tables in the artifact store and serve them on later runs.
/// Opt-in, with a warning: a table is keyed on its section's code, its
/// callees and the golden run, not on the code a faulty run executes
/// *after* the section, so an edit there can serve stale outcomes that a
/// from-scratch campaign would not report. `--no-incremental` is the
/// default and stays accepted.
fn parse_incremental(rest: &[String]) -> Result<bool, String> {
    let on = rest.iter().any(|a| a == "--incremental");
    let off = rest.iter().any(|a| a == "--no-incremental");
    if on && off {
        return Err("--incremental and --no-incremental are mutually exclusive".into());
    }
    if on {
        eprintln!(
            "warning: --incremental may serve stale section tables after an edit to code \
             that runs after a faulted section; results can differ from a from-scratch campaign"
        );
    }
    Ok(on)
}

/// What a journal did this run: outcomes served, records appended, and —
/// when any append or sync failed — how many, since that work would not
/// survive a crash.
fn journal_usage(j: &CampaignJournal, served_what: &str) -> String {
    let (served, appended) = j.usage();
    let errors = match j.write_errors() {
        0 => String::new(),
        n => format!(", {n} write errors (not durable)"),
    };
    format!(
        "{served} {served_what} served, {appended} records appended{errors} ({})",
        j.dir().display()
    )
}

/// One stderr line of section-table usage, the incremental analogue of
/// the journal served/appended line.
fn table_stats_diag(ts: &TableStatsSnapshot) {
    diag!(
        "sections: {} hit / {} missed / {} recomputed; {} injections served \
         from tables, {} executed, {} tables sealed",
        ts.sections_hit,
        ts.sections_missed,
        ts.sections_recomputed,
        ts.injections_served,
        ts.injections_executed,
        ts.tables_sealed,
    );
}

/// `minpsid sections <bench>` — the per-function section table that
/// drives compositional FI: content fingerprint (stable under edits to
/// *other* functions), dense static-instruction range, injectable sites,
/// direct callees, and — unless `--static` — each section's
/// dynamic-instruction range under the benchmark input (golden run).
fn cmd_sections(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let map = module_section_map(&module);
    let calls = minpsid_ir::fingerprint::callees(&module);
    let golden = if rest.iter().any(|a| a == "--static") {
        None
    } else {
        let input = parse_input(name, rest)?;
        let campaign = parse_campaign(rest)?;
        Some(
            golden_run(&module, &input, &campaign)
                .map_err(|t| format!("golden run failed: {t:?}"))?,
        )
    };
    println!(
        "{:<20} {:>16} {:>13} {:>10} {:>21}  callees",
        "function", "fingerprint", "dense range", "injectable", "dynamic steps"
    );
    for ((fid, f), &(fp, base, len)) in module.iter_funcs().zip(&map) {
        let injectable = f.insts.iter().filter(|i| i.injectable()).count();
        let dynamic = match &golden {
            None => "-".to_string(),
            Some(g) => match g.profile.section_range(fid) {
                Some((first, last)) => format!("[{first}, {last}]"),
                None => "(never runs)".to_string(),
            },
        };
        let callees: Vec<&str> = calls[fid.index()]
            .iter()
            .map(|c| module.func(*c).name.as_str())
            .collect();
        println!(
            "{:<20} {fp:016x} {:>13} {injectable:>10} {dynamic:>21}  {}",
            f.name,
            format!("[{base}, {})", base + len),
            if callees.is_empty() {
                "-".to_string()
            } else {
                callees.join(" ")
            }
        );
    }
    Ok(())
}

/// The self-verifying artifact store backing a run: `--store DIR`, or
/// `<journal>/store` when the run is journaled. `None` when neither is
/// given — campaigns then recompute everything in memory as before.
fn open_run_store(rest: &[String]) -> Result<Option<Arc<ArtifactStore>>, String> {
    let dir = match flag_value(rest, "--store") {
        Some(d) => Some(std::path::PathBuf::from(d)),
        None => flag_value(rest, "--journal")
            .or_else(|| flag_value(rest, "--resume"))
            .map(|d| std::path::PathBuf::from(d).join("store")),
    };
    match dir {
        None => Ok(None),
        Some(d) => ArtifactStore::open(&d)
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("opening artifact store {}: {e}", d.display())),
    }
}

/// `minpsid store <scrub|gc|ls> <dir>` — offline maintenance of an
/// artifact store. `scrub` exits with [`SCRUB_CORRUPTION_EXIT`] when it
/// quarantined corrupt objects, so CI can distinguish "store verified
/// clean" from "corruption found (and neutralized)".
fn cmd_store(rest: &[String]) -> Result<(), String> {
    let sub = rest
        .first()
        .map(|s| s.as_str())
        .ok_or("missing store subcommand (scrub|gc|ls)")?;
    let dir = flag_value(rest, "--store")
        .or_else(|| rest.get(1).filter(|s| !s.starts_with("--")).cloned())
        .ok_or("missing store directory (pass a path or --store DIR)")?;
    let store = ArtifactStore::open(std::path::Path::new(&dir))
        .map_err(|e| format!("opening artifact store {dir}: {e}"))?;
    match sub {
        "scrub" => {
            let r = store.scrub().map_err(|e| format!("scrub: {e}"))?;
            println!("scrubbed {} objects ({} bytes)", r.objects, r.bytes);
            for (hex, kind) in &r.quarantined {
                println!("  quarantined: {kind} {hex}");
            }
            for name in &r.dangling_refs {
                println!("  dangling ref: {name} (target recomputes on next run)");
            }
            if r.found_corruption() {
                EXIT_OVERRIDE.store(SCRUB_CORRUPTION_EXIT, Ordering::Relaxed);
                diag!(
                    "scrub: {} corrupt objects quarantined; \
                     affected artifacts will be recomputed",
                    r.quarantined.len()
                );
            } else {
                println!("store clean");
            }
            Ok(())
        }
        "gc" => {
            let r = store.gc().map_err(|e| format!("gc: {e}"))?;
            println!(
                "gc: kept {}, removed {} ({} bytes freed), swept {} stale tmp files",
                r.kept, r.removed, r.bytes_freed, r.tmp_swept
            );
            Ok(())
        }
        "ls" => {
            // `--kind K` keeps only objects referenced under artifact
            // class K (`table`, `wal`, `golden`, ...); the per-kind
            // totals always cover the whole store.
            let kind_filter = flag_value(rest, "--kind");
            let mut totals: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
            for e in store.ls().map_err(|e| format!("ls: {e}"))? {
                let mut kinds: Vec<&str> = e
                    .refs
                    .iter()
                    .map(|r| r.split_once('/').map_or(r.as_str(), |(k, _)| k))
                    .collect();
                kinds.sort_unstable();
                kinds.dedup();
                if kinds.is_empty() {
                    kinds.push("(unreferenced)");
                }
                for k in &kinds {
                    let t = totals.entry((*k).to_string()).or_default();
                    t.0 += 1;
                    t.1 += e.bytes;
                }
                if let Some(f) = &kind_filter {
                    if !kinds.contains(&f.as_str()) {
                        continue;
                    }
                }
                println!(
                    "{} {:>10} {}",
                    e.digest,
                    e.bytes,
                    if e.refs.is_empty() {
                        "(unreferenced)".to_string()
                    } else {
                        e.refs.join(" ")
                    }
                );
            }
            for (k, (n, bytes)) in &totals {
                if kind_filter.as_ref().is_none_or(|f| f == k) {
                    println!("{k}: {n} objects, {bytes} bytes");
                }
            }
            Ok(())
        }
        other => Err(format!("unknown store subcommand `{other}` (scrub|gc|ls)")),
    }
}

/// Journal key for `fi` campaigns. [`config_fingerprint`] hashes only
/// the golden-run-relevant fields; a whole-program campaign's recorded
/// outcomes additionally depend on the seed and the plan size, so both
/// are mixed in — resuming with a different seed must open a different
/// key, not silently serve another campaign's outcomes.
fn fi_journal_key(campaign: &CampaignConfig) -> u64 {
    config_fingerprint(campaign)
        ^ campaign.seed.rotate_left(17)
        ^ (campaign.injections as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `--journal DIR` / `--resume DIR`: open (or refuse to resume a missing)
/// campaign journal keyed by `config_fp`, and install the interrupt
/// handlers that make ^C / SIGTERM flush instead of corrupt.
fn open_journal(
    rest: &[String],
    module: &Module,
    config_fp: u64,
    store: Option<Arc<ArtifactStore>>,
) -> Result<Option<CampaignJournal>, String> {
    let resume = flag_value(rest, "--resume");
    let Some(dir) = flag_value(rest, "--journal").or_else(|| resume.clone()) else {
        return Ok(None);
    };
    let dir = std::path::PathBuf::from(dir);
    if resume.is_some() && !dir.join("campaign.wal").is_file() {
        return Err(format!(
            "--resume: no journal found at {} (start one with --journal)",
            dir.display()
        ));
    }
    // Opening through the section map lets a resume after a program edit
    // keep the per-instruction facts of untouched functions instead of
    // refusing outright.
    let j = CampaignJournal::open_with_sections(
        &dir,
        module_fingerprint(module),
        config_fp,
        &module_section_map(module),
        store,
    )
    .map_err(|e| format!("opening journal: {e}"))?;
    let (recovered, truncated) = j.recovery_stats();
    if recovered > 0 || truncated > 0 {
        diag!("journal: recovered {recovered} records ({truncated} torn-tail bytes truncated)");
    }
    install_interrupt_handlers();
    Ok(Some(j))
}

/// The error an interrupted journaled run exits with: `minpsid <cmd>`
/// with the same flags, resuming from the journal.
fn resume_hint(cmd: &str, rest: &[String], j: &CampaignJournal) -> String {
    let dir = j.dir().display().to_string();
    let mut args: Vec<String> = Vec::new();
    let mut skip = false;
    for a in rest {
        if skip {
            skip = false;
            continue;
        }
        if a == "--journal" || a == "--resume" {
            skip = true;
            continue;
        }
        args.push(a.clone());
    }
    format!(
        "interrupted; progress saved — resume with: minpsid {cmd} {} --resume {dir}",
        args.join(" ")
    )
}

/// The `fi` report, shared verbatim by the `--threads` and `--workers`
/// paths so process isolation can be byte-identity-tested against
/// in-process execution.
fn print_fi_report(c: &ProgramCampaign, snap: &SchedSnapshot) -> Result<(), String> {
    println!("injections: {}", c.counts.total());
    println!("  benign:   {}", c.counts.benign);
    println!("  sdc:      {}", c.counts.sdc);
    println!("  crash:    {}", c.counts.crash);
    println!("  hang:     {}", c.counts.hang);
    println!("  detected: {}", c.counts.detected);
    if c.counts.engine_error > 0 {
        println!(
            "  engine-err: {} (excluded from rates)",
            c.counts.engine_error
        );
    }
    if c.recovered > 0 {
        println!(
            "  recovered: {} (transient failures healed by retry)",
            c.recovered
        );
    }
    if c.truncated > 0 {
        println!(
            "  truncated: {} of {} planned (deadline expired)",
            c.truncated, c.planned
        );
    }
    if snap.quarantined_injections > 0 {
        println!(
            "  quarantined: {} of {} planned (poisoned shards)",
            snap.quarantined_injections, c.planned
        );
    }
    println!(
        "SDC probability: {:.2}% (95% CI {:.2}%..{:.2}%)",
        c.sdc_prob() * 100.0,
        c.sdc_ci.lo * 100.0,
        c.sdc_ci.hi * 100.0
    );
    println!("completeness: {:.4}", snap.completeness());
    if snap.accounted() != snap.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            snap.planned - snap.accounted(),
            snap.planned
        ));
    }
    Ok(())
}

/// Flags the supervisor consumes (or that would be wrong to duplicate
/// in a worker: its own journal, status server, trace file) — stripped
/// from the argv re-exec'd into worker processes. Listed as
/// (flag, takes_value) pairs.
const FLEET_SUPERVISOR_FLAGS: &[(&str, bool)] = &[
    ("--workers", true),
    ("--threads", true),
    ("--journal", true),
    ("--resume", true),
    ("--store", true),
    ("--trace-out", true),
    ("--status-addr", true),
    ("--fleet-lease-ms", true),
    ("--shards-per-worker", true),
    ("--poison-after", true),
    ("--chaos-kill-worker-ms", true),
    ("--progress", false),
    ("--quiet", false),
    // table memoization is supervisor-side (workers have no store)
    ("--incremental", false),
    ("--no-incremental", false),
];

/// The argv a fleet worker is re-exec'd with: the benchmark name plus
/// every campaign-relevant flag, minus supervisor-side concerns.
fn worker_args(name: &str, rest: &[String]) -> Vec<String> {
    let mut out = vec![name.to_string()];
    let mut i = 0;
    let mut seen_name = false;
    while i < rest.len() {
        let a = &rest[i];
        if !seen_name && a == name && !a.starts_with("--") {
            seen_name = true; // the positional we already re-emitted
            i += 1;
            continue;
        }
        if let Some((_, takes_value)) = FLEET_SUPERVISOR_FLAGS.iter().find(|(f, _)| f == a) {
            i += 1 + usize::from(*takes_value);
            continue;
        }
        out.push(a.clone());
        i += 1;
    }
    out
}

/// `fi --workers N`: the process-isolated campaign fleet.
///
/// The supervisor (this process, with its own golden run for the plan
/// and a determinism cross-check) re-execs this binary as N `worker`
/// processes and leases them the units no journal record resolves. What
/// the workers resolved then becomes the execute step of the engine's
/// unit loop, so the printed report — and, under `--journal`, the WAL —
/// is byte-identical to the in-process `--threads` path, including under
/// `--chaos-kill-worker-ms` random kills; shards that keep killing
/// workers are quarantined as poisoned instead of sinking the campaign.
fn fleet_campaign(
    engine: &CampaignEngine<'_>,
    name: &str,
    rest: &[String],
    workers: usize,
    golden: &GoldenRun,
    journal: Option<&CampaignJournal>,
) -> Result<Result<ProgramCampaign, Interrupted>, String> {
    let mut fcfg = minpsid_fleet::FleetConfig::new(workers);
    if let Some(ms) = parse_positive(rest, "--fleet-lease-ms", "want milliseconds")? {
        fcfg.lease_ms = ms;
    }
    if let Some(n) = parse_positive(rest, "--shards-per-worker", "want a positive shard count")? {
        fcfg.shards_per_worker = n as usize;
    }
    if let Some(n) = parse_positive(rest, "--poison-after", "want a positive kill count")? {
        fcfg.poison_after = n as u32;
    }
    if let Some(ms) = parse_positive(rest, "--chaos-kill-worker-ms", "want milliseconds")? {
        fcfg.chaos_kill_worker_ms = Some(ms);
    }
    let spool = match journal {
        Some(j) => j.dir().join("spool"),
        None => std::env::temp_dir().join(format!("minpsid-fleet-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&spool);
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let wargs = worker_args(name, rest);

    // Fleet runs are always interruptible: SIGTERM/SIGINT stop leasing,
    // salvage finished units, and (when journaled) leave a resumable WAL.
    install_interrupt_handlers();
    interrupt::clear();
    let units = engine.pending_program_units();
    diag!(
        "fleet: {workers} worker processes over {} pending injections",
        units.len()
    );
    let population = golden.profile.injectable_execs;
    let fo = minpsid_fleet::run_fleet(&fcfg, &units, population, &spool, |k| {
        std::process::Command::new(&exe)
            .arg("worker")
            .args(&wargs)
            .args(["--worker-id", &k.to_string(), "--spool-dir"])
            .arg(&spool)
            .arg("--quiet")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
    })
    .map_err(|e| format!("fleet supervisor: {e}"))?;
    if fo.stats.deaths > 0 || fo.stats.poisoned_shards > 0 || fo.stats.corrupt_segments > 0 {
        diag!(
            "fleet: {} spawns, {} deaths ({} chaos kills, {} lease expiries), \
             {} shards reassigned, {} poisoned, {} corrupt segments re-executed",
            fo.stats.spawns,
            fo.stats.deaths,
            fo.stats.chaos_kills,
            fo.stats.lease_expiries,
            fo.stats.reassigned,
            fo.stats.poisoned_shards,
            fo.stats.corrupt_segments
        );
    }

    // The fleet has already acted on any interrupt by no longer leasing;
    // a unit nobody finished now surfaces as Missing, which leaves the
    // run resumable rather than wrong.
    interrupt::clear();
    let resolved = |i: u64| match fo.ledger.get(i) {
        Some((b, rec)) => {
            Outcome::from_u8(b).map_or(ResolvedUnit::Missing, |o| ResolvedUnit::Done(o, rec))
        }
        None if fo.poisoned.contains(&i) => ResolvedUnit::Poisoned,
        None => ResolvedUnit::Missing,
    };
    let c = engine.run_program_resolved(&resolved);
    let _ = std::fs::remove_dir_all(&spool);
    Ok(c)
}

/// Hidden subcommand: one fleet worker process. Protocol on
/// stdin/stdout, results spooled to `--spool-dir`; see `minpsid-fleet`.
/// The `--chaos-*-unit` knobs let tests make this process abort or hang
/// at a specific plan index — on the first attempt only (transient) or
/// on every attempt (a poisoned shard).
fn cmd_worker(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let spool =
        flag_value(rest, "--spool-dir").ok_or("worker: missing --spool-dir (internal command)")?;
    let chaos = |flag: &str| -> Result<Option<u64>, String> {
        flag_value(rest, flag)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad {flag} `{v}` (want a plan index)"))
            })
            .transpose()
    };
    let abort_unit = chaos("--chaos-abort-unit")?;
    let poison_unit = chaos("--chaos-poison-unit")?;
    let hang_unit = chaos("--chaos-hang-unit")?;

    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let campaign = parse_campaign(rest)?;
    let sched = Scheduler::new(campaign.sched.clone(), Deadline::from_secs(None));
    let golden = golden_run(&module, &input, &campaign)
        .map_err(|t| format!("worker golden run failed: {t:?}"))?;
    let engine = CampaignEngine::new(&module, &input, &golden, &campaign).with_scheduler(&sched);
    let mut ex = engine.program_executor();
    let population = ex.population();
    minpsid_fleet::run_worker(
        std::path::Path::new(&spool),
        population,
        move |unit, attempt| {
            if poison_unit == Some(unit) {
                std::process::abort(); // poisoned: dies on every attempt
            }
            if abort_unit == Some(unit) && attempt == 0 {
                std::process::abort(); // transient: recovers on reassignment
            }
            if hang_unit == Some(unit) && attempt == 0 {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            let (o, rec) = ex.run_unit(unit as usize);
            (o.to_u8(), rec)
        },
    )
    .map_err(|e| format!("worker: {e}"))
}

/// Rank instructions by SDC benefit under the reference input — the
/// §II-C profile SID's knapsack consumes, as a human-readable report.
fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    use minpsid_sid::CostBenefit;
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let top: usize = match flag_value(rest, "--top") {
        None => 15,
        Some(v) => v.parse().map_err(|_| format!("bad --top `{v}`"))?,
    };
    let campaign = parse_campaign(rest)?;
    let sched = Scheduler::new(
        campaign.sched.clone(),
        Deadline::from_secs(parse_deadline(rest)?),
    );
    let golden =
        golden_run(&module, &input, &campaign).map_err(|t| format!("golden run failed: {t:?}"))?;
    let per_inst = CampaignEngine::new(&module, &input, &golden, &campaign)
        .with_scheduler(&sched)
        .run_per_instruction()
        .unwrap_or_else(|_| unreachable!("interrupts are only observed under a journal"));
    let cb = CostBenefit::build(&module, &golden, &per_inst);

    let numbering = module.numbering();
    let mut ranked: Vec<usize> = (0..cb.len()).filter(|&i| cb.benefit[i] > 0.0).collect();
    ranked.sort_by(|&a, &b| cb.benefit[b].partial_cmp(&cb.benefit[a]).unwrap());
    println!(
        "{} static instructions, {} carry measurable SDC benefit; top {}:",
        cb.len(),
        ranked.len(),
        top.min(ranked.len())
    );
    println!(
        "{:>6} {:>9} {:>9} {:>15} {:>11} {:>13} | instruction",
        "rank", "benefit", "sdc-prob", "95%-ci", "dyn-count", "sampling"
    );
    for (rank, &dense) in ranked.iter().take(top).enumerate() {
        let gid = numbering.id_of(dense);
        let func = module.func(gid.func);
        let ci = &per_inst.ci[dense];
        println!(
            "{:>6} {:>9.5} {:>8.1}% {:>6.1}%..{:>5.1}% {:>11} {:>13} | {}::{}",
            rank + 1,
            cb.benefit[dense],
            cb.sdc_prob[dense] * 100.0,
            ci.lo * 100.0,
            ci.hi * 100.0,
            cb.dyn_counts[dense],
            per_inst.status[dense].as_str(),
            func.name,
            minpsid_ir::printer::print_inst(func, gid.inst)
        );
    }
    let quarantined = per_inst.status.iter().filter(|s| !s.trusted()).count();
    let early = per_inst
        .status
        .iter()
        .filter(|s| matches!(s, minpsid_faultsim::SiteStatus::EarlyStopped))
        .count();
    let snap = sched.snapshot();
    println!("quarantined sites: {quarantined}");
    if early > 0 {
        println!("early-stopped sites: {early}");
    }
    println!("completeness: {:.4}", snap.completeness());
    if snap.accounted() != snap.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            snap.planned - snap.accounted(),
            snap.planned
        ));
    }
    Ok(())
}

fn cmd_cfg(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let exec = ExecConfig {
        profile: true,
        ..ExecConfig::default()
    };
    let r = Interp::new(&module, exec).run(&input);
    if !r.exited() {
        return Err(format!("run failed: {:?}", r.termination));
    }
    let profile = r.profile.expect("profiling enabled");
    let fid = match flag_value(rest, "--fn") {
        None => module.entry,
        Some(fname) => module
            .func_by_name(&fname)
            .ok_or_else(|| format!("no function `{fname}`"))?,
    };
    print!("{}", minpsid::weighted_cfg_dot(&module, &profile, fid));
    Ok(())
}

fn cmd_propagate(rest: &[String]) -> Result<(), String> {
    use minpsid_faultsim::{render_report, trace_fault};
    use minpsid_interp::{FaultSpec, FaultTarget};
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let nth: u64 = match flag_value(rest, "--nth") {
        None => 100,
        Some(v) => v.parse().map_err(|_| format!("bad --nth `{v}`"))?,
    };
    let bit: u32 = match flag_value(rest, "--bit") {
        None => 33,
        Some(v) => v.parse().map_err(|_| format!("bad --bit `{v}`"))?,
    };
    let golden = Interp::new(&module, ExecConfig::default()).run(&input);
    if !golden.exited() {
        return Err(format!("golden run failed: {:?}", golden.termination));
    }
    let fault = FaultSpec {
        target: FaultTarget::NthDynamic(nth),
        bit,
    };
    let report = trace_fault(&module, &input, fault, &golden.output, golden.steps * 10);
    print!("{}", render_report(&module, &report));
    Ok(())
}

fn cmd_sid(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let b =
        minpsid_workloads::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = b.compile();
    let ref_input = b.model.materialize(&b.model.reference());
    let cfg = SidConfig {
        protection_level: parse_level(rest)?,
        campaign: parse_campaign(rest)?,
        use_dp: false,
    };
    let r = run_sid(&module, &ref_input, &cfg).map_err(|t| format!("SID failed: {t:?}"))?;
    let selected = r.selection.iter().filter(|&&s| s).count();
    println!(
        "benchmark: {} ({} static instructions)",
        b.name,
        module.num_insts()
    );
    println!("protection level: {:.0}%", cfg.protection_level * 100.0);
    println!("selected instructions: {selected}");
    println!("duplicates inserted: {}", r.meta.num_dups);
    println!("checks inserted: {}", r.meta.num_checks);
    println!("expected SDC coverage: {:.2}%", r.expected_coverage * 100.0);
    Ok(())
}

/// Route SIGINT *and* SIGTERM through the cooperative interrupt flag so
/// a journaled campaign (or a fleet supervisor) flushes its WAL and
/// exits with a resume hint instead of dying mid-write. Process
/// managers and CI cancelers send SIGTERM, interactive ^C sends SIGINT;
/// both deserve the same graceful path. Only an atomic store happens in
/// the handler.
#[cfg(unix)]
fn install_interrupt_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        interrupt::request();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handlers() {}

fn cmd_minpsid(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let b =
        minpsid_workloads::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = b.compile();
    let quick = rest.iter().any(|a| a == "--quick");
    let mut cfg = MinpsidConfig {
        protection_level: parse_level(rest)?,
        campaign: parse_campaign(rest)?,
        deadline_secs: parse_deadline(rest)?,
        incremental: parse_incremental(rest)?,
        ..MinpsidConfig::default()
    };
    if quick {
        cfg.ga.population = 4;
        cfg.ga.max_generations = 3;
        cfg.max_inputs = 4;
    }
    if let Some(n) = parse_positive(
        rest,
        "--max-inputs",
        "a zero cap means an empty input search; want a positive count",
    )? {
        cfg.max_inputs = n as usize;
    }
    // One store instance backs both tiers of persistence: the golden
    // cache's cross-invocation artifacts and the journal's compacted
    // WAL snapshots.
    let store = open_run_store(rest)?;
    let cap = parse_positive(rest, "--golden-cache-cap", "want a positive entry count")?
        .map(|n| n as usize)
        .unwrap_or(0);
    let cache = match &store {
        Some(s) => GoldenCache::with_store(cap, s.clone()),
        None => GoldenCache::with_capacity(cap),
    };

    let journal = open_journal(
        rest,
        &module,
        minpsid_config_fingerprint(&cfg),
        store.clone(),
    )?;
    let r = match &journal {
        Some(j) => match run_minpsid_journaled(&module, b.model.as_ref(), &cfg, &cache, j) {
            Ok(r) => r,
            Err(PipelineError::Interrupted) => return Err(resume_hint("minpsid", rest, j)),
            Err(e) => return Err(format!("MINPSID failed: {e}")),
        },
        None => run_minpsid_cached(&module, b.model.as_ref(), &cfg, &cache)
            .map_err(|t| format!("MINPSID failed: {t:?}"))?,
    };

    if rest.iter().any(|a| a == "--json") {
        println!("{}", minpsid_json(name, &module, &cfg, &r, &cache).render());
    } else {
        println!(
            "benchmark: {} ({} static instructions)",
            b.name,
            module.num_insts()
        );
        println!("protection level: {:.0}%", cfg.protection_level * 100.0);
        println!("inputs searched: {}", r.inputs_searched);
        println!(
            "incubative instructions: {} ({:.2}% of static instructions)",
            r.incubative.len(),
            r.incubative.len() as f64 / module.num_insts() as f64 * 100.0
        );
        println!(
            "expected SDC coverage (conservative): {:.2}%",
            r.expected_coverage * 100.0
        );
        println!("campaign completeness: {:.4}", r.sched.completeness());
        if r.sched.recovered > 0 {
            println!(
                "transient failures recovered by retry: {}",
                r.sched.recovered
            );
        }
        if r.sched.quarantined_sites > 0 {
            println!("quarantined sites: {}", r.sched.quarantined_sites);
        }
        if r.sched.truncated > 0 {
            println!(
                "deadline-truncated injections: {} of {} planned",
                r.sched.truncated, r.sched.planned
            );
        }
    }
    if r.sched.accounted() != r.sched.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            r.sched.planned - r.sched.accounted(),
            r.sched.planned
        ));
    }
    print_run_telemetry(&r.timings, &cache);
    if let Some(j) = &journal {
        diag!("  journal        {}", journal_usage(j, "injections/evals"));
    }
    if let Some(ts) = &r.table_stats {
        table_stats_diag(ts);
    }
    Ok(())
}

/// End-of-run telemetry (satellite of the tracing layer): the Fig. 8 time
/// breakdown plus golden-cache effectiveness, as a small stderr table so
/// stdout stays parseable.
fn print_run_telemetry(t: &minpsid::Timings, cache: &GoldenCache) {
    let total = t.total().as_secs_f64().max(1e-9);
    let row = |name: &str, d: std::time::Duration| {
        diag!(
            "  {:<14} {:>8.2}s {:>5.1}%",
            name,
            d.as_secs_f64(),
            d.as_secs_f64() / total * 100.0
        );
    };
    diag!("-- run telemetry --");
    row("ref FI", t.ref_fi);
    row("incubative FI", t.incubative_fi);
    row("input search", t.search);
    row("select+xform", t.other);
    row("total", t.total());
    let lookups = cache.hits() + cache.misses() + cache.disk_hits();
    if lookups > 0 {
        diag!(
            "  golden cache   {} hits / {} disk hits / {} misses ({:.0}% hit rate, {} entries)",
            cache.hits(),
            cache.disk_hits(),
            cache.misses(),
            (cache.hits() + cache.disk_hits()) as f64 / lookups as f64 * 100.0,
            cache.len()
        );
    }
    if let Some(s) = cache.store() {
        if let Ok(q) = s.quarantined_count() {
            if q > 0 {
                diag!(
                    "  artifact store {q} quarantined objects (recomputed; \
                     inspect with `minpsid store ls`)"
                );
            }
        }
    }
}

/// Machine-readable `minpsid --json` summary (uses the trace crate's JSON
/// values so numbers round-trip exactly).
fn minpsid_json(
    name: &str,
    module: &Module,
    cfg: &MinpsidConfig,
    r: &minpsid::MinpsidResult,
    cache: &GoldenCache,
) -> trace::json::Json {
    use trace::json::Json;
    let mut timings = Json::obj();
    timings.set("ref_fi_s", Json::F64(r.timings.ref_fi.as_secs_f64()));
    timings.set(
        "incubative_fi_s",
        Json::F64(r.timings.incubative_fi.as_secs_f64()),
    );
    timings.set("search_s", Json::F64(r.timings.search.as_secs_f64()));
    timings.set("other_s", Json::F64(r.timings.other.as_secs_f64()));
    timings.set("total_s", Json::F64(r.timings.total().as_secs_f64()));
    let mut cache_obj = Json::obj();
    cache_obj.set("hits", Json::U64(cache.hits()));
    cache_obj.set("disk_hits", Json::U64(cache.disk_hits()));
    cache_obj.set("misses", Json::U64(cache.misses()));
    cache_obj.set("entries", Json::U64(cache.len() as u64));
    let mut o = Json::obj();
    o.set("benchmark", Json::Str(name.to_string()));
    o.set("static_insts", Json::U64(module.num_insts() as u64));
    o.set("protection_level", Json::F64(cfg.protection_level));
    o.set("inputs_searched", Json::U64(r.inputs_searched as u64));
    o.set("incubative", Json::U64(r.incubative.len() as u64));
    o.set("expected_coverage", Json::F64(r.expected_coverage));
    let mut sched = Json::obj();
    sched.set("planned", Json::U64(r.sched.planned));
    sched.set("completed", Json::U64(r.sched.completed));
    sched.set("retries", Json::U64(r.sched.retries));
    sched.set("recovered", Json::U64(r.sched.recovered));
    sched.set("quarantined_sites", Json::U64(r.sched.quarantined_sites));
    sched.set(
        "quarantined_injections",
        Json::U64(r.sched.quarantined_injections),
    );
    sched.set(
        "early_stopped_sites",
        Json::U64(r.sched.early_stopped_sites),
    );
    sched.set("early_stop_skipped", Json::U64(r.sched.early_stop_skipped));
    sched.set("truncated", Json::U64(r.sched.truncated));
    sched.set("completeness", Json::F64(r.sched.completeness()));
    o.set("sched", sched);
    o.set("timings", timings);
    o.set("golden_cache", cache_obj);
    if let Some(ts) = &r.table_stats {
        let mut t = Json::obj();
        t.set("sections_hit", Json::U64(ts.sections_hit));
        t.set("sections_missed", Json::U64(ts.sections_missed));
        t.set("sections_recomputed", Json::U64(ts.sections_recomputed));
        t.set("injections_served", Json::U64(ts.injections_served));
        t.set("injections_executed", Json::U64(ts.injections_executed));
        t.set("tables_sealed", Json::U64(ts.tables_sealed));
        o.set("section_tables", t);
    }
    o
}

/// `minpsid trace <report|check> <log> [-o out/]` — the offline analyzer.
fn cmd_trace(rest: &[String]) -> Result<(), String> {
    let sub = rest
        .first()
        .map(|s| s.as_str())
        .ok_or("missing trace subcommand (report|check)")?;
    let log_path = rest
        .get(1)
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with('-'))
        .ok_or("missing trace log path")?;
    let text = std::fs::read_to_string(log_path).map_err(|e| format!("reading {log_path}: {e}"))?;
    let events = trace::parse_log(&text)
        .map_err(|(line, e)| format!("{log_path}:{line}: invalid trace line: {e}"))?;
    match sub {
        "check" => {
            println!("{log_path}: {} events, schema ok", events.len());
            Ok(())
        }
        "report" => {
            let summary = trace::summarize(&events);
            let md = trace::render_markdown(&summary);
            match flag_value(rest, "-o").or_else(|| flag_value(rest, "--out")) {
                None => {
                    print!("{md}");
                }
                Some(dir) => {
                    let dir = std::path::Path::new(&dir);
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                    let md_path = dir.join("trace_report.md");
                    let html_path = dir.join("trace_report.html");
                    std::fs::write(&md_path, &md)
                        .map_err(|e| format!("writing {}: {e}", md_path.display()))?;
                    std::fs::write(&html_path, trace::render_html(&summary))
                        .map_err(|e| format!("writing {}: {e}", html_path.display()))?;
                    diag!("wrote {} and {}", md_path.display(), html_path.display());
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown trace subcommand `{other}` (want report|check)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_faultsim::CheckpointPolicy;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn worker_args_strip_supervisor_concerns() {
        let rest = args(&[
            "fft",
            "--quick",
            "--workers",
            "4",
            "--seed",
            "7",
            "--journal",
            "/tmp/j",
            "--trace-out",
            "/tmp/t.jsonl",
            "--status-addr",
            "127.0.0.1:9090",
            "--threads",
            "8",
            "--fleet-lease-ms",
            "500",
            "--poison-after",
            "2",
            "--chaos-kill-worker-ms",
            "25",
            "--progress",
            "--chaos-abort-unit",
            "5",
        ]);
        let w = worker_args("fft", &rest);
        // bench name stays first (first_arg only inspects rest[0])
        assert_eq!(w[0], "fft");
        // campaign-relevant flags survive, supervisor concerns don't
        assert_eq!(
            w[1..],
            args(&["--quick", "--seed", "7", "--chaos-abort-unit", "5"])
        );
    }

    #[test]
    fn fi_journal_key_mixes_seed_and_plan_size() {
        let base = CampaignConfig::default();
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        let mut other_n = base.clone();
        other_n.injections += 1;
        assert_ne!(fi_journal_key(&base), fi_journal_key(&other_seed));
        assert_ne!(fi_journal_key(&base), fi_journal_key(&other_n));
        assert_eq!(fi_journal_key(&base), fi_journal_key(&base.clone()));
    }

    #[test]
    fn flag_value_finds_pairs() {
        let rest = args(&["bench", "--level", "0.3", "--seed", "9"]);
        assert_eq!(flag_value(&rest, "--level").as_deref(), Some("0.3"));
        assert_eq!(flag_value(&rest, "--seed").as_deref(), Some("9"));
        assert_eq!(flag_value(&rest, "--nope"), None);
    }

    #[test]
    fn level_parsing_validates_range() {
        assert_eq!(parse_level(&args(&["--level", "0.7"])).unwrap(), 0.7);
        assert_eq!(parse_level(&args(&[])).unwrap(), 0.5);
        assert!(parse_level(&args(&["--level", "1.5"])).is_err());
        assert!(parse_level(&args(&["--level", "abc"])).is_err());
        // a zero protection budget is a configuration mistake, not a run
        let err = parse_level(&args(&["--level", "0"])).unwrap_err();
        assert!(err.contains("zero protection budget"), "{err}");
        assert!(parse_level(&args(&["--level", "-0.1"])).is_err());
    }

    #[test]
    fn positive_flags_reject_zero_and_garbage() {
        assert_eq!(
            parse_positive(&args(&["--injections", "50"]), "--injections", "x").unwrap(),
            Some(50)
        );
        assert_eq!(
            parse_positive(&args(&[]), "--injections", "x").unwrap(),
            None
        );
        assert!(parse_positive(&args(&["--injections", "0"]), "--injections", "x").is_err());
        assert!(parse_positive(&args(&["--max-inputs", "0"]), "--max-inputs", "x").is_err());
        assert!(parse_positive(&args(&["--per-inst", "-3"]), "--per-inst", "x").is_err());
        assert!(parse_positive(&args(&["--per-inst", "abc"]), "--per-inst", "x").is_err());
    }

    #[test]
    fn campaign_flags_cover_sizes_timeout_and_chaos() {
        let c = parse_campaign(&args(&[
            "--injections",
            "60",
            "--per-inst",
            "7",
            "--injection-timeout-ms",
            "250",
            "--chaos-panic-one-in",
            "40",
        ]))
        .unwrap();
        assert_eq!(c.injections, 60);
        assert_eq!(c.per_inst_injections, 7);
        assert_eq!(c.exec.wall_clock_ms, 250);
        assert_eq!(c.chaos_panic_one_in, Some(40));

        let q = parse_campaign(&args(&["--quick"])).unwrap();
        assert!(q.injections < CampaignConfig::default().injections);
        // timeout 0 explicitly disables the wall-clock budget
        let off = parse_campaign(&args(&["--injection-timeout-ms", "0"])).unwrap();
        assert_eq!(off.exec.wall_clock_ms, 0);
        assert!(parse_campaign(&args(&["--injections", "0"])).is_err());
        assert!(parse_campaign(&args(&["--chaos-panic-one-in", "0"])).is_err());
        assert!(parse_campaign(&args(&["--chaos-timeout-one-in", "0"])).is_err());
    }

    #[test]
    fn sched_flags_parse_into_sched_config() {
        let c = parse_campaign(&args(&[
            "--chaos-timeout-one-in",
            "50",
            "--max-retries",
            "0",
            "--quarantine-after",
            "3",
            "--quarantine-cap",
            "0",
            "--ci-half-width",
            "0.05",
        ]))
        .unwrap();
        assert_eq!(c.chaos_timeout_one_in, Some(50));
        assert_eq!(c.sched.max_retries, 0, "0 restores fail-fast behaviour");
        assert_eq!(c.sched.quarantine_after, 3);
        assert_eq!(c.sched.quarantine_cap, 0, "0 disables quarantine");
        assert_eq!(c.sched.ci_half_width, 0.05);

        // defaults survive when no flags are given
        let d = parse_campaign(&args(&[])).unwrap();
        assert_eq!(d.sched, minpsid_faultsim::SchedConfig::default());
        assert_eq!(d.chaos_timeout_one_in, None);

        assert!(parse_campaign(&args(&["--max-retries", "abc"])).is_err());
        assert!(parse_campaign(&args(&["--quarantine-after", "0"])).is_err());
        assert!(parse_campaign(&args(&["--ci-half-width", "0.7"])).is_err());
        assert!(parse_campaign(&args(&["--ci-half-width", "-0.1"])).is_err());
    }

    #[test]
    fn deadline_flag_validates() {
        assert_eq!(parse_deadline(&args(&[])).unwrap(), None);
        assert_eq!(
            parse_deadline(&args(&["--deadline-secs", "2.5"])).unwrap(),
            Some(2.5)
        );
        assert_eq!(
            parse_deadline(&args(&["--deadline-secs", "0"])).unwrap(),
            Some(0.0),
            "an already-expired budget is allowed (truncate everything)"
        );
        assert!(parse_deadline(&args(&["--deadline-secs", "-1"])).is_err());
        assert!(parse_deadline(&args(&["--deadline-secs", "inf"])).is_err());
        assert!(parse_deadline(&args(&["--deadline-secs", "soon"])).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_into_policy() {
        let def = parse_campaign(&args(&[])).unwrap();
        assert_eq!(def.checkpoints, CheckpointPolicy::Auto);
        assert_eq!(def.seed, 42);

        let every =
            parse_campaign(&args(&["--checkpoint-interval", "500", "--seed", "7"])).unwrap();
        assert_eq!(every.checkpoints, CheckpointPolicy::Every(500));
        assert_eq!(every.seed, 7);

        let off = parse_campaign(&args(&["--no-checkpoints"])).unwrap();
        assert_eq!(off.checkpoints, CheckpointPolicy::Disabled);

        // --no-checkpoints wins if both are given
        let both =
            parse_campaign(&args(&["--checkpoint-interval", "10", "--no-checkpoints"])).unwrap();
        assert_eq!(both.checkpoints, CheckpointPolicy::Disabled);

        assert!(parse_campaign(&args(&["--checkpoint-interval", "0"])).is_err());
        assert!(parse_campaign(&args(&["--checkpoint-interval", "abc"])).is_err());
    }

    #[test]
    fn snapshot_mode_flag_parses() {
        use minpsid_faultsim::SnapshotMode;
        let def = parse_campaign(&args(&[])).unwrap();
        assert_eq!(def.snapshot_mode, SnapshotMode::Delta);

        let full = parse_campaign(&args(&["--snapshot-mode", "full"])).unwrap();
        assert_eq!(full.snapshot_mode, SnapshotMode::Full);

        assert!(parse_campaign(&args(&["--snapshot-mode", "none"])).is_err());
    }

    #[test]
    fn first_arg_skips_flags() {
        assert_eq!(
            first_arg(&args(&["fft", "--seed", "1"]), "x").unwrap(),
            "fft"
        );
        assert!(first_arg(&args(&["--seed", "1"]), "x").is_err());
        assert!(first_arg(&args(&[]), "x").is_err());
    }

    #[test]
    fn custom_args_parse_into_scalars() {
        let input = parse_input("custom.mc", &args(&["--args", "i:5", "f:2.5"])).unwrap();
        assert_eq!(input.args, vec![Scalar::I(5), Scalar::F(2.5)]);
        assert!(parse_input("custom.mc", &args(&["--args", "x:1"])).is_err());
    }

    #[test]
    fn benchmarks_resolve_reference_inputs() {
        let input = parse_input("fft", &args(&[])).unwrap();
        assert!(!input.args.is_empty());
        assert!(parse_input("not-a-bench", &args(&[])).is_err());
    }
}
