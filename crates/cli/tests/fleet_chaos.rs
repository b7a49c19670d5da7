//! End-to-end kill-chaos hardening tests for `fi --workers`.
//!
//! Each test drives the real `minpsid` binary: a supervisor that
//! re-execs itself as worker processes. The load-bearing claim is
//! byte-identity — the report (and, when journaled, the WAL) of a
//! fleet run must equal the in-process `--threads` run even while
//! workers are being SIGKILLed mid-shard — plus graceful degradation:
//! a shard whose injection aborts the process on every attempt is
//! quarantined as poisoned and the campaign still completes.

use std::path::PathBuf;
use std::process::{Command, Output};

const BENCH: &str = "fft";

fn minpsid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The core acceptance criterion: `--threads 4`, `--workers 4`, and
/// `--workers 4` under random SIGKILL chaos print byte-identical
/// reports and leave byte-identical journals.
#[test]
fn fleet_report_and_wal_match_threads_even_under_kill_chaos() {
    let jt = tmpdir("wal-threads");
    let jf = tmpdir("wal-fleet");
    let jc = tmpdir("wal-chaos");
    let base = ["fi", BENCH, "--injections", "300", "--seed", "7"];

    let mut t_args: Vec<&str> = base.to_vec();
    t_args.extend(["--threads", "4", "--journal"]);
    let jt_s = jt.to_str().unwrap();
    t_args.push(jt_s);
    let t = minpsid(&t_args);
    assert!(t.status.success(), "threads run failed: {t:?}");

    let mut f_args: Vec<&str> = base.to_vec();
    f_args.extend(["--workers", "4", "--journal"]);
    let jf_s = jf.to_str().unwrap();
    f_args.push(jf_s);
    let f = minpsid(&f_args);
    assert!(f.status.success(), "fleet run failed: {f:?}");

    let mut c_args: Vec<&str> = base.to_vec();
    c_args.extend([
        "--workers",
        "4",
        "--chaos-kill-worker-ms",
        "20",
        "--journal",
    ]);
    let jc_s = jc.to_str().unwrap();
    c_args.push(jc_s);
    let c = minpsid(&c_args);
    assert!(c.status.success(), "chaos run failed: {c:?}");

    assert_eq!(
        stdout_of(&t),
        stdout_of(&f),
        "fleet report diverged from threads report"
    );
    assert_eq!(
        stdout_of(&t),
        stdout_of(&c),
        "kill chaos changed the report"
    );

    let wal_t = std::fs::read(jt.join("campaign.wal")).unwrap();
    let wal_f = std::fs::read(jf.join("campaign.wal")).unwrap();
    let wal_c = std::fs::read(jc.join("campaign.wal")).unwrap();
    assert_eq!(wal_t, wal_f, "fleet WAL diverged from threads WAL");
    assert_eq!(wal_t, wal_c, "kill chaos changed the WAL");

    for d in [jt, jf, jc] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A worker that aborts once at a given plan index (a transient wild
/// fault) is restarted, the shard is reassigned, and the report is
/// exactly the one an undisturbed run prints.
#[test]
fn transient_worker_abort_recovers_without_changing_the_report() {
    let base = minpsid(&["fi", BENCH, "--quick", "--seed", "11", "--threads", "2"]);
    assert!(base.status.success());
    let hurt = minpsid(&[
        "fi",
        BENCH,
        "--quick",
        "--seed",
        "11",
        "--workers",
        "2",
        "--chaos-abort-unit",
        "3",
    ]);
    assert!(hurt.status.success(), "abort-chaos run failed: {hurt:?}");
    assert_eq!(stdout_of(&base), stdout_of(&hurt));
    let diag = String::from_utf8_lossy(&hurt.stderr).into_owned();
    assert!(
        diag.contains("shards reassigned"),
        "expected a reassignment diagnostic, got: {diag}"
    );
}

/// A worker hanging mid-shard trips the heartbeat lease: the supervisor
/// kills it, reassigns the shard, and the report is unchanged.
#[test]
fn hung_worker_is_killed_by_lease_expiry_and_report_is_unchanged() {
    let base = minpsid(&["fi", BENCH, "--quick", "--seed", "13", "--threads", "2"]);
    assert!(base.status.success());
    let hung = minpsid(&[
        "fi",
        BENCH,
        "--quick",
        "--seed",
        "13",
        "--workers",
        "2",
        "--chaos-hang-unit",
        "4",
        "--fleet-lease-ms",
        "300",
    ]);
    assert!(hung.status.success(), "hang-chaos run failed: {hung:?}");
    assert_eq!(stdout_of(&base), stdout_of(&hung));
    let diag = String::from_utf8_lossy(&hung.stderr).into_owned();
    assert!(
        diag.contains("lease expiries"),
        "expected a lease-expiry diagnostic, got: {diag}"
    );
}

/// A shard whose injection aborts the process on *every* attempt kills
/// `--poison-after` workers, is quarantined as poisoned, and the
/// campaign completes with exit 0, a quarantined line, and an honest
/// completeness < 1 — instead of crashing the run.
#[test]
fn poisoned_shard_is_quarantined_and_campaign_completes() {
    let out = minpsid(&[
        "fi",
        BENCH,
        "--quick",
        "--seed",
        "17",
        "--workers",
        "2",
        "--chaos-poison-unit",
        "5",
        "--poison-after",
        "2",
    ]);
    assert!(
        out.status.success(),
        "poisoned shard must not sink the campaign: {out:?}"
    );
    let report = stdout_of(&out);
    assert!(
        report.contains("quarantined:"),
        "report must surface the quarantine: {report}"
    );
    let completeness = report
        .lines()
        .find_map(|l| l.strip_prefix("completeness: "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("completeness line");
    assert!(
        completeness < 1.0 && completeness > 0.0,
        "poisoned units must be reflected in completeness, got {completeness}"
    );
    let diag = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(diag.contains("1 poisoned"), "stderr: {diag}");
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for e in std::fs::read_dir(from).expect("read dir") {
        let e = e.expect("dir entry");
        let dst = to.join(e.file_name());
        if e.file_type().expect("file type").is_dir() {
            copy_dir(&e.path(), &dst);
        } else {
            std::fs::copy(e.path(), dst).expect("copy file");
        }
    }
}

/// A journal holding a fleet-poisoned unit resumes to the same report
/// whether the resume runs in-process (`--threads`) or in the fleet
/// (`--workers`): both honour the journaled quarantine instead of
/// re-executing the unit. Each resume gets its own copy of the journal,
/// so neither can serve what the other appended.
#[test]
fn poisoned_journal_resumes_identically_in_process_and_in_the_fleet() {
    let j = tmpdir("poison-journal");
    let j_s = j.to_str().unwrap();
    let base = ["fi", BENCH, "--quick", "--seed", "17"];
    let mut p_args: Vec<&str> = base.to_vec();
    p_args.extend([
        "--workers",
        "2",
        "--chaos-poison-unit",
        "5",
        "--poison-after",
        "2",
        "--journal",
        j_s,
    ]);
    let poisoned = minpsid(&p_args);
    assert!(
        poisoned.status.success(),
        "poisoned run failed: {poisoned:?}"
    );

    let mut reports = Vec::new();
    for (tag, flag) in [("threads", "--threads"), ("workers", "--workers")] {
        let copy = tmpdir(&format!("poison-resume-{tag}"));
        copy_dir(&j, &copy);
        let copy_s = copy.to_str().unwrap();
        let mut r_args: Vec<&str> = base.to_vec();
        r_args.extend([flag, "2", "--resume", copy_s]);
        let resumed = minpsid(&r_args);
        assert!(resumed.status.success(), "{tag} resume failed: {resumed:?}");
        reports.push(stdout_of(&resumed));
        let _ = std::fs::remove_dir_all(&copy);
    }
    assert!(
        reports[0].contains("quarantined:"),
        "the resume must honour the journaled quarantine: {}",
        reports[0]
    );
    assert_eq!(
        reports[0], reports[1],
        "in-process and fleet resumes of one journal diverged"
    );
    assert_eq!(
        reports[1],
        stdout_of(&poisoned),
        "a resume that serves everything must print the original report"
    );
    let _ = std::fs::remove_dir_all(&j);
}

/// SIGTERM mid-campaign: the journaled fleet run salvages finished
/// units, exits with a resume hint, and a `--resume` run completes to
/// a report byte-identical to an undisturbed one.
#[cfg(unix)]
#[test]
fn sigterm_is_graceful_and_resume_completes_the_campaign() {
    let j = tmpdir("sigterm-resume");
    let j_s = j.to_str().unwrap().to_string();

    let baseline = minpsid(&["fi", BENCH, "--quick", "--seed", "19", "--threads", "2"]);
    assert!(baseline.status.success());

    // A hang with an hour-long lease parks the run; SIGTERM must still
    // bring it down promptly with progress saved.
    let child = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args([
            "fi",
            BENCH,
            "--quick",
            "--seed",
            "19",
            "--workers",
            "2",
            "--chaos-hang-unit",
            "2",
            "--fleet-lease-ms",
            "3600000",
            "--journal",
            &j_s,
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn supervisor");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("wait supervisor");
    assert!(
        !out.status.success(),
        "interrupted run must exit non-zero with a resume hint"
    );
    let diag = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(diag.contains("--resume"), "expected resume hint: {diag}");

    let resumed = minpsid(&[
        "fi",
        BENCH,
        "--quick",
        "--seed",
        "19",
        "--workers",
        "2",
        "--resume",
        &j_s,
    ]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        stdout_of(&baseline),
        stdout_of(&resumed),
        "resumed campaign diverged from the undisturbed report"
    );
    let _ = std::fs::remove_dir_all(&j);
}
