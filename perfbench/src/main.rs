//! End-to-end and per-layer benchmark of the MINPSID pipeline over the 11
//! workload kernels.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload harden|evaluate|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets up several times, runs timed passes for about
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it runs
//! one untraced pass and, interleaved with it kernel by kernel, a rebuild
//! of the workload from the crates' public calls with a span around each,
//! then prints the trace report to stderr and the per-layer metrics. Either way the last stdout line is one JSON
//! object, every output gate is checked, and a failed gate exits with 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod pinned;
mod pipeline;
mod trace;
mod workloads;

use minpsid::profile_input;
use minpsid_faultsim::{golden_run, CampaignEngine, Outcome};
use minpsid_interp::{ExecConfig, Interp};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;
use workloads::{Pass, Prepared, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("minic.compile_s", "s"),
    ("interp.decoded_ns_per_step", "ns"),
    ("interp.profiled_ns_per_step", "ns"),
    ("interp.golden_steps", "count"),
    ("interp.snapshot_bytes", "bytes"),
    ("faultsim.golden_s", "s"),
    ("faultsim.golden_calls", "count"),
    ("faultsim.per_inst_s", "s"),
    ("faultsim.program_s", "s"),
    ("faultsim.units_planned", "count"),
    ("faultsim.units_executed", "count"),
    ("faultsim.units_replayed", "count"),
    ("faultsim.unit_us.p50", "us"),
    ("faultsim.unit_us.p99", "us"),
    ("faultsim.unit_us.benign.p50", "us"),
    ("faultsim.unit_us.nonbenign.p50", "us"),
    ("faultsim.benign_frac", "frac"),
    ("faultsim.sdc_frac", "frac"),
    ("faultsim.crash_frac", "frac"),
    ("faultsim.hang_frac", "frac"),
    ("faultsim.detected_frac", "frac"),
    ("faultsim.table.served", "count"),
    ("faultsim.table.executed", "count"),
    ("faultsim.table.sealed", "count"),
    ("faultsim.table.sections_hit", "count"),
    ("faultsim.table.sections_missed", "count"),
    ("sched.retries", "count"),
    ("sched.quarantined", "count"),
    ("sched.truncated", "count"),
    ("sched.engine_errors", "count"),
    ("core.search_s", "s"),
    ("core.search_calls", "count"),
    ("core.inputs_searched", "count"),
    ("core.golden_cache.hits", "count"),
    ("core.golden_cache.misses", "count"),
    ("core.golden_cache.disk_hits", "count"),
    ("core.self_s", "s"),
    ("sid.select_s", "s"),
    ("journal.open_s", "s"),
    ("journal.wal_bytes", "bytes"),
    ("journal.records", "count"),
    ("store.objects", "count"),
    ("store.bytes", "bytes"),
    ("store.scrub_s", "s"),
    ("store.verify_mb_per_s", "MB/s"),
    ("workloads.rejected_inputs", "count"),
    ("durable.cold_s", "s"),
    ("durable.resume_s", "s"),
    ("durable.rerun_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload harden|evaluate|durable --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Harden,
        seed: pinned::SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output gates shared by every pass: the pass's own checks, the pinned
/// digests at the pinned seed, and exact agreement with `reference` (an
/// earlier pass, or the untraced pass of a traced run).
fn check(
    args: &Args,
    prep: &Prepared,
    pass: &Pass,
    reference: Option<&Pass>,
    problems: &mut Vec<String>,
) {
    problems.extend(pass.problems.iter().cloned());
    if pass.kernels.len() != prep.kernels.len() {
        problems.push(format!(
            "{} of {} kernels produced a result",
            pass.kernels.len(),
            prep.kernels.len()
        ));
        return;
    }
    let pinned = match args.workload {
        Workload::Harden | Workload::Durable => Some(pinned::HARDEN),
        Workload::Evaluate => (args.seed == pinned::SEED).then_some(pinned::EVALUATE),
    };
    if let Some(table) = pinned {
        for (kernel, rec) in prep.kernels.iter().zip(&pass.kernels) {
            let name = kernel.bench.name;
            let want = table.iter().find(|(n, _)| *n == name).map(|p| p.1);
            if want != Some(rec.digest) {
                problems.push(format!(
                    "{name}: digest {:#018x}, pinned {want:x?}",
                    rec.digest
                ));
            }
        }
    }
    if let Some(r) = reference {
        for ((kernel, a), b) in prep.kernels.iter().zip(&pass.kernels).zip(&r.kernels) {
            if a != b {
                problems.push(format!(
                    "{}: not deterministic: {a:?} against {b:?}",
                    kernel.bench.name
                ));
            }
        }
    }
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// (units attempted, units and runs failed) over `passes`.
fn tally(passes: &[&Pass]) -> (u64, u64) {
    passes.iter().fold((0, 0), |(a, f), p| {
        let t = p.totals();
        (a + t.planned, f + t.failed() + p.errors)
    })
}

fn finish(
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    passes: &[&Pass],
    problems: Vec<String>,
) -> Run {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    for p in &problems {
        eprintln!("GATE FAILED: {p}");
    }
    let (attempted, failed) = tally(passes);
    Run {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::Evaluate => 3,
        Workload::Harden | Workload::Durable => 11,
    }
}

fn untraced(args: &Args, threads: usize) -> Run {
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..setup_repeats(args.workload) {
        let t = Instant::now();
        prep = Some(workloads::setup(&off, args.workload, args.seed, threads));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");

    let mut problems = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let p = workloads::pass(&off, &prep, passes.len());
        let took = t.elapsed().as_secs_f64();
        check(args, &prep, &p, passes.first(), &mut problems);
        eprintln!("pass {}: {:.3} s", passes.len(), p.wall);
        if passes.is_empty() {
            for (k, rec) in prep.kernels.iter().zip(&p.kernels) {
                eprintln!("digest {} {:#018x}", k.bench.name, rec.digest);
            }
        }
        passes.push(p);
        if start.elapsed().as_secs_f64() + took > args.seconds {
            break;
        }
    }

    let refs: Vec<&Pass> = passes.iter().collect();
    let (attempted, failed) = tally(&refs);
    let mut v = BTreeMap::new();
    v.insert("pass_s", median(passes.iter().map(|p| p.wall).collect()));
    v.insert(
        "units_per_s",
        median(
            passes
                .iter()
                .map(|p| p.totals().completed as f64 / p.wall)
                .collect(),
        ),
    );
    v.insert("setup_s", median(setup_s));
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    finish(END_TO_END, v, &refs, problems)
}

/// Decoded (plain `Interp::run`) and profiled (`profile_input`) cost per
/// interpreted step over every kernel's reference input.
fn interp_probe(prep: &Prepared) -> (f64, f64) {
    let campaign = &prep.cfg.campaign;
    let (mut decoded, mut profiled, mut steps) = (0.0, 0.0, 0u64);
    for _ in 0..3 {
        for k in &prep.kernels {
            let model = k.bench.model.as_ref();
            let input = model.materialize(&model.reference());
            let exec = ExecConfig {
                profile: false,
                ..campaign.exec.clone()
            };
            let interp = Interp::new(&k.module, exec);
            let t = Instant::now();
            let r = std::hint::black_box(interp.run(&input));
            decoded += t.elapsed().as_secs_f64();
            steps += r.steps;
            let t = Instant::now();
            let p = profile_input(&k.module, &input, campaign);
            std::hint::black_box(p).expect("reference inputs run cleanly");
            profiled += t.elapsed().as_secs_f64();
        }
    }
    let per_step = |s: f64| s * 1e9 / steps.max(1) as f64;
    (per_step(decoded), per_step(profiled))
}

/// Serial per-unit cost of the program campaign on each reference input:
/// (all, benign, non-benign) unit times in µs, sorted.
fn unit_probe(prep: &Prepared) -> [Vec<f64>; 3] {
    let campaign = &prep.cfg.campaign;
    let mut out: [Vec<f64>; 3] = Default::default();
    for k in &prep.kernels {
        let model = k.bench.model.as_ref();
        let input = model.materialize(&model.reference());
        let golden = golden_run(&k.module, &input, campaign).expect("reference inputs run cleanly");
        let engine = CampaignEngine::new(&k.module, &input, &golden, campaign);
        let mut ex = engine.program_executor();
        let mut benign = 0;
        for i in 0..ex.injections() {
            let t = Instant::now();
            let (o, _) = ex.run_unit(i);
            let us = t.elapsed().as_secs_f64() * 1e6;
            out[0].push(us);
            if o == Outcome::Benign {
                benign += 1;
                out[1].push(us);
            } else {
                out[2].push(us);
            }
        }
        eprintln!(
            "unit probe {}: {benign}/{} benign",
            k.bench.name,
            ex.injections()
        );
    }
    out.iter_mut().for_each(|v| v.sort_by(f64::total_cmp));
    out
}

fn traced(args: &Args, threads: usize) -> Run {
    let tr = Tracer::new(true);
    let prep = tr.span("bench.setup", || {
        workloads::setup(&tr, args.workload, args.seed, threads)
    });
    let mut problems = Vec::new();
    let (base, traced) = workloads::paired_passes(&tr, &prep);
    check(args, &prep, &base, None, &mut problems);
    check(args, &prep, &traced, Some(&base), &mut problems);
    let (decoded_ns, profiled_ns) = interp_probe(&prep);
    let [units, benign, nonbenign] = unit_probe(&prep);

    let spans = tr.spans();
    let names: Vec<&str> = prep.kernels.iter().map(|k| k.bench.name).collect();
    eprint!("{}", trace::report(&spans, &names));
    let out_dir = std::path::Path::new(OUT_DIR);
    let dump = out_dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&dump, trace::dump(&spans)))
    {
        eprintln!("cannot write {}: {e}", dump.display());
    }

    let all = trace::summarize(&spans);
    let pass = trace::pass_spans(&spans);
    let pass_sum = trace::summarize(&pass);
    let incl = |n: &str| all.by_name.get(n).map_or(0.0, |e| e.1);
    let calls = |n: &str| all.by_name.get(n).map_or(0.0, |e| e.0 as f64);
    let t = traced.totals();
    let cold = |f: fn(&workloads::Counts) -> u64| -> f64 {
        traced
            .kernels
            .iter()
            .filter_map(|k| k.phases.first())
            .map(f)
            .sum::<u64>() as f64
    };
    let last = |f: fn(&workloads::Counts) -> u64| -> f64 {
        traced
            .kernels
            .iter()
            .filter_map(|k| k.phases.last())
            .map(f)
            .sum::<u64>() as f64
    };
    let s = &traced.seen;
    let oc = &s.outcomes;
    let outcomes = oc.total().max(1) as f64;
    let scrub_s = incl("store.scrub");
    let mut v = BTreeMap::new();
    v.insert("minic.compile_s", incl("minic.compile"));
    v.insert("interp.decoded_ns_per_step", decoded_ns);
    v.insert("interp.profiled_ns_per_step", profiled_ns);
    v.insert("interp.golden_steps", s.golden_steps as f64);
    v.insert("interp.snapshot_bytes", s.snapshot_bytes as f64);
    v.insert("faultsim.golden_s", incl("faultsim.golden"));
    v.insert("faultsim.golden_calls", calls("faultsim.golden"));
    v.insert("faultsim.per_inst_s", incl("faultsim.per_inst"));
    v.insert("faultsim.program_s", incl("faultsim.program"));
    v.insert("faultsim.units_planned", t.planned as f64);
    v.insert("faultsim.units_executed", t.executed as f64);
    v.insert("faultsim.units_replayed", t.replayed as f64);
    v.insert("faultsim.unit_us.p50", percentile(&units, 50.0));
    v.insert("faultsim.unit_us.p99", percentile(&units, 99.0));
    v.insert("faultsim.unit_us.benign.p50", percentile(&benign, 50.0));
    v.insert(
        "faultsim.unit_us.nonbenign.p50",
        percentile(&nonbenign, 50.0),
    );
    v.insert("faultsim.benign_frac", oc.benign as f64 / outcomes);
    v.insert("faultsim.sdc_frac", oc.sdc as f64 / outcomes);
    v.insert("faultsim.crash_frac", oc.crash as f64 / outcomes);
    v.insert("faultsim.hang_frac", oc.hang as f64 / outcomes);
    v.insert("faultsim.detected_frac", oc.detected as f64 / outcomes);
    v.insert("faultsim.table.served", t.served as f64);
    v.insert("faultsim.table.executed", t.table_executed as f64);
    v.insert("faultsim.table.sealed", t.sealed as f64);
    v.insert("faultsim.table.sections_hit", t.sections_hit as f64);
    v.insert("faultsim.table.sections_missed", t.sections_missed as f64);
    v.insert("sched.retries", t.retries as f64);
    v.insert("sched.quarantined", t.quarantined as f64);
    v.insert("sched.truncated", t.truncated as f64);
    v.insert("sched.engine_errors", t.engine_errors as f64);
    v.insert("core.search_s", incl("core.search"));
    v.insert("core.search_calls", calls("core.search"));
    v.insert("core.inputs_searched", t.inputs_searched as f64);
    v.insert("core.golden_cache.hits", s.cache_hits as f64);
    v.insert("core.golden_cache.misses", s.cache_misses as f64);
    v.insert("core.golden_cache.disk_hits", s.disk_hits as f64);
    v.insert(
        "core.self_s",
        all.by_name.get("core.pipeline").map_or(0.0, |e| e.2),
    );
    v.insert("sid.select_s", incl("sid.select"));
    v.insert("journal.open_s", incl("journal.open"));
    v.insert("journal.wal_bytes", cold(|c| c.wal_bytes));
    v.insert("journal.records", cold(|c| c.wal_records));
    v.insert("store.objects", last(|c| c.store_objects));
    v.insert("store.bytes", last(|c| c.store_bytes));
    v.insert("store.scrub_s", scrub_s);
    v.insert(
        "store.verify_mb_per_s",
        if scrub_s > 0.0 {
            s.scrub_bytes as f64 / 1e6 / scrub_s
        } else {
            0.0
        },
    );
    v.insert("workloads.rejected_inputs", prep.rejected_inputs as f64);
    v.insert("durable.cold_s", base.phase_s[0]);
    v.insert("durable.resume_s", base.phase_s[1]);
    v.insert("durable.rerun_s", base.phase_s[2]);
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall / base.wall - 1.0),
    );
    let pass_wall = trace::pass_wall(&pass);
    let unattributed = pass_sum.by_layer.get("bench").map_or(0.0, |e| e.1);
    v.insert(
        "bench.unattributed_pct",
        100.0 * unattributed / pass_wall.max(f64::MIN_POSITIVE),
    );
    finish(PER_LAYER, v, &[&base, &traced], problems)
}

/// Where the traced run writes its spans, under the working directory.
const OUT_DIR: &str = ".perfbench_out";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} nproc {threads}: one client thread in a closed loop, \
         {threads} campaign threads",
        args.workload.name(),
        args.seed
    );
    let _ = std::fs::remove_dir_all(workloads::WORK_DIR);
    let out = if args.trace {
        traced(&args, threads)
    } else {
        untraced(&args, threads)
    };
    let _ = std::fs::remove_dir_all(workloads::WORK_DIR);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    std::process::exit(if out.correct { 0 } else { 1 });
}
