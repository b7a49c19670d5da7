//! `--incremental` is opt-in. A sealed section table does not pin the
//! code a faulty run executes *after* its section, so an edit there can
//! serve stale outcomes. The counterexample: `heavy_a` runs before
//! `tweak`; editing `tweak` from `min(x, 1553)` to `max(x, 1553)` keeps
//! the golden output and step count, and a table-serving re-campaign
//! reports `heavy_a`'s stale outcomes. With default flags a store-backed
//! re-campaign must print exactly the from-scratch report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn program(tweak: &str) -> String {
    format!(
        r#"fn heavy_a(n: int) -> int {{
    let acc = 1;
    for i = 0 to n {{
        let t = i * 3 + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        acc = acc + v - u;
    }}
    return acc;
}}
fn tweak(x: int) -> int {{
    return {tweak}(x, 1553);
}}
fn main() {{
    let n = arg_i(0);
    let a = heavy_a(n);
    out_i(tweak(a));
}}
"#
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-incr-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn fi(src: &Path, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(["fi", src.to_str().unwrap(), "--args", "i:32"])
        .args(["--injections", "400", "--seed", "7"])
        .args(extra)
        .output()
        .expect("spawn minpsid");
    assert!(out.status.success(), "fi {extra:?} failed: {out:?}");
    out
}

fn text(b: &[u8]) -> String {
    String::from_utf8_lossy(b).into_owned()
}

#[test]
fn default_store_backed_recampaign_after_an_edit_matches_scratch() {
    let dir = tmpdir("minmax");
    let src = dir.join("incr.mc");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    // cold, table-sealing campaign of the `min` program
    std::fs::write(&src, program("min")).unwrap();
    let cold = fi(&src, &["--store", store_s, "--incremental"]);
    assert!(
        text(&cold.stderr).contains("warning: --incremental"),
        "--incremental must warn: {}",
        text(&cold.stderr)
    );
    assert!(text(&cold.stderr).contains("tables sealed"));

    // the edit, then the reference and the default store-backed run
    std::fs::write(&src, program("max")).unwrap();
    let scratch = text(&fi(&src, &[]).stdout);
    assert!(
        scratch.contains("44.25%"),
        "from-scratch report:\n{scratch}"
    );
    let default = fi(&src, &["--store", store_s]);
    assert_eq!(
        text(&default.stdout),
        scratch,
        "default must not serve tables"
    );
    let err = text(&default.stderr);
    assert!(!err.contains("sections:"), "table layer engaged: {err}");
    assert!(!err.contains("warning: --incremental"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}
