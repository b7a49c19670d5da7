#!/usr/bin/env bash
# CI gate: formatting, lints, the full workspace test suite, and a smoke
# run of the headline experiment binary.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace)"
cargo test -q --workspace --offline

echo "== fig2 smoke (--preset tiny)"
cargo run --release --offline -q -p minpsid-bench --bin fig2_baseline_loss -- \
  --preset tiny --bench pathfinder --seed 42 >/dev/null

echo "== trace smoke (fig2 --trace-out -> trace check / trace report)"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release --offline -q -p minpsid-bench --bin fig2_baseline_loss -- \
  --preset tiny --bench pathfinder --seed 42 --trace-out "$TRACE_TMP/fig2.jsonl" >/dev/null
test -s "$TRACE_TMP/fig2.jsonl"
# strict schema validation: `trace check` re-parses every JSONL line and
# fails on the first malformed one
cargo run --release --offline -q -p minpsid-cli -- trace check "$TRACE_TMP/fig2.jsonl"
cargo run --release --offline -q -p minpsid-cli -- trace report "$TRACE_TMP/fig2.jsonl" \
  -o "$TRACE_TMP/report"
test -s "$TRACE_TMP/report/trace_report.md"
test -s "$TRACE_TMP/report/trace_report.html"

echo "== crash-recovery smoke (SIGKILL mid-campaign, resume, diff)"
CLI="target/release/minpsid"
cargo build --release --offline -q -p minpsid-cli
# stdout of the plain (non --json) report is fully deterministic: the
# --json variant embeds wall-clock timings, so it cannot be diffed
SMOKE_ARGS=(minpsid pathfinder --quick --seed 42 --level 0.5 --quiet)
# uninterrupted journaled reference run
"$CLI" "${SMOKE_ARGS[@]}" --journal "$TRACE_TMP/journal-ref" \
  > "$TRACE_TMP/uninterrupted.txt"
# start the same campaign fresh, SIGKILL it mid-flight, then resume; the
# resumed run must produce a byte-identical report
"$CLI" "${SMOKE_ARGS[@]}" --journal "$TRACE_TMP/journal-kill" \
  > /dev/null 2>&1 &
VICTIM=$!
sleep 0.4
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
test -s "$TRACE_TMP/journal-kill/campaign.wal"
"$CLI" "${SMOKE_ARGS[@]}" --resume "$TRACE_TMP/journal-kill" \
  > "$TRACE_TMP/resumed.txt"
diff "$TRACE_TMP/uninterrupted.txt" "$TRACE_TMP/resumed.txt"

echo "== chaos smoke (worker panics degrade to engine errors)"
# --max-retries 0: with the default retry budget the scheduler would heal
# these injected panics and no engine-err line would ever appear.
# Capture-then-grep, not a pipe: `grep -q` exits at the first match and
# the CLI's next line-buffered println would flakily panic on EPIPE.
CHAOS_OUT="$("$CLI" fi pathfinder --quick --seed 42 --chaos-panic-one-in 40 \
  --max-retries 0 --quiet 2>/dev/null)"
grep -q "engine-err" <<<"$CHAOS_OUT"

echo "== chaos matrix (panic x timeout x deadline: always exit 0 + valid report)"
# every cell must terminate cleanly and print a completeness score; the
# deadline rows additionally exercise graceful truncation
for CHAOS in "--chaos-panic-one-in 50" "--chaos-timeout-one-in 50" \
             "--chaos-panic-one-in 50 --chaos-timeout-one-in 50"; do
  for DEADLINE in "" "--deadline-secs 120"; do
    # shellcheck disable=SC2086
    OUT="$("$CLI" fi pathfinder --quick --seed 42 $CHAOS $DEADLINE --quiet 2>/dev/null)"
    echo "$OUT" | grep -q "^completeness:" \
      || { echo "chaos cell [$CHAOS $DEADLINE] lost its completeness line"; exit 1; }
    echo "$OUT" | grep -q "^SDC probability.*CI" \
      || { echo "chaos cell [$CHAOS $DEADLINE] lost its CI annotation"; exit 1; }
  done
done
# an already-expired deadline still exits 0 with an honest (<1) score
EXPIRED_OUT="$("$CLI" fi pathfinder --quick --seed 42 --chaos-panic-one-in 50 \
  --chaos-timeout-one-in 50 --deadline-secs 0 --quiet 2>/dev/null)"
grep -q "^completeness: 0.0000" <<<"$EXPIRED_OUT"

echo "== quarantine-cap smoke (quarantined sites never exceed the cap)"
# timeouts on every injection + no retries: every site wants quarantine,
# so the report's quarantined count must equal the configured cap
QUARANTINED="$("$CLI" analyze pathfinder --quick --seed 42 --chaos-timeout-one-in 1 \
  --max-retries 0 --quarantine-after 1 --quarantine-cap 5 --quiet 2>/dev/null \
  | awk '/^quarantined sites:/ {print $3}')"
test "$QUARANTINED" = "5" \
  || { echo "quarantine cap violated: got $QUARANTINED quarantined sites, cap 5"; exit 1; }

echo "== engine-equivalence smoke (hpccg: two compositions x two thread counts)"
# every CampaignEngine composition must report identical bytes at any
# thread count: plain+scheduler (fi) and the journaled pipeline
# (minpsid --journal), each at 1 and 4 worker threads
EQ_ARGS=(hpccg --quick --seed 42 --injections 60 --per-inst 4 --quiet)
"$CLI" fi "${EQ_ARGS[@]}" --threads 1 > "$TRACE_TMP/eq-fi-t1.txt" 2>/dev/null
"$CLI" fi "${EQ_ARGS[@]}" --threads 4 > "$TRACE_TMP/eq-fi-t4.txt" 2>/dev/null
diff "$TRACE_TMP/eq-fi-t1.txt" "$TRACE_TMP/eq-fi-t4.txt"
"$CLI" minpsid "${EQ_ARGS[@]}" --level 0.5 --threads 1 \
  --journal "$TRACE_TMP/eq-journal-t1" > "$TRACE_TMP/eq-mp-t1.txt" 2>/dev/null
"$CLI" minpsid "${EQ_ARGS[@]}" --level 0.5 --threads 4 \
  --journal "$TRACE_TMP/eq-journal-t4" > "$TRACE_TMP/eq-mp-t4.txt" 2>/dev/null
diff "$TRACE_TMP/eq-mp-t1.txt" "$TRACE_TMP/eq-mp-t4.txt"

echo "== fleet-identity smoke (--workers vs --threads: reports + WAL byte-identical)"
FLEET_ARGS=(fi fft --injections 300 --seed 42)
"$CLI" "${FLEET_ARGS[@]}" --threads 4 --journal "$TRACE_TMP/fleet-j-threads" \
  > "$TRACE_TMP/fleet-threads.txt" 2>/dev/null
"$CLI" "${FLEET_ARGS[@]}" --workers 4 --journal "$TRACE_TMP/fleet-j-workers" \
  > "$TRACE_TMP/fleet-workers.txt" 2>/dev/null
diff "$TRACE_TMP/fleet-threads.txt" "$TRACE_TMP/fleet-workers.txt"
cmp "$TRACE_TMP/fleet-j-threads/campaign.wal" "$TRACE_TMP/fleet-j-workers/campaign.wal"

echo "== fleet chaos matrix (kill-worker x poison-shard x SIGTERM-resume)"
# cell 1: random SIGKILLs every 20ms must not change a report or WAL byte
"$CLI" "${FLEET_ARGS[@]}" --workers 4 --chaos-kill-worker-ms 20 \
  --journal "$TRACE_TMP/fleet-j-chaos" > "$TRACE_TMP/fleet-chaos.txt" 2>/dev/null
diff "$TRACE_TMP/fleet-threads.txt" "$TRACE_TMP/fleet-chaos.txt"
cmp "$TRACE_TMP/fleet-j-threads/campaign.wal" "$TRACE_TMP/fleet-j-chaos/campaign.wal"
# cell 2: a shard that aborts its worker on every attempt is quarantined
# as poisoned; the campaign exits 0 with an honest (<1) completeness
POISON_J="$TRACE_TMP/fleet-j-poison"
POISON_OUT="$("$CLI" fi fft --quick --seed 42 --workers 2 \
  --chaos-poison-unit 5 --poison-after 2 --journal "$POISON_J" 2>/dev/null)"
echo "$POISON_OUT" | grep -q "quarantined:" \
  || { echo "poisoned shard not surfaced in the report"; exit 1; }
echo "$POISON_OUT" | grep -q "^completeness: 0\." \
  || { echo "poisoned shard not reflected in completeness"; exit 1; }
# ... and its journal resumes to one report in-process and in the fleet:
# both honour the journaled quarantine (each resume gets its own copy)
cp -r "$POISON_J" "$POISON_J-threads"
cp -r "$POISON_J" "$POISON_J-workers"
"$CLI" fi fft --quick --seed 42 --threads 2 --resume "$POISON_J-threads" \
  > "$TRACE_TMP/poison-resume-threads.txt" 2>/dev/null
"$CLI" fi fft --quick --seed 42 --workers 2 --resume "$POISON_J-workers" \
  > "$TRACE_TMP/poison-resume-workers.txt" 2>/dev/null
diff "$TRACE_TMP/poison-resume-threads.txt" "$TRACE_TMP/poison-resume-workers.txt"
# cell 3: SIGTERM a parked fleet run, then resume to an identical report
"$CLI" fi fft --quick --seed 42 --threads 2 > "$TRACE_TMP/fleet-ref.txt" 2>/dev/null
"$CLI" fi fft --quick --seed 42 --workers 2 --chaos-hang-unit 2 \
  --fleet-lease-ms 3600000 --journal "$TRACE_TMP/fleet-j-term" \
  > /dev/null 2>&1 &
FLEET_VICTIM=$!
sleep 1.5
kill -TERM "$FLEET_VICTIM" 2>/dev/null || true
wait "$FLEET_VICTIM" 2>/dev/null || true
test -s "$TRACE_TMP/fleet-j-term/campaign.wal"
"$CLI" fi fft --quick --seed 42 --workers 2 --resume "$TRACE_TMP/fleet-j-term" \
  > "$TRACE_TMP/fleet-resumed.txt" 2>/dev/null
diff "$TRACE_TMP/fleet-ref.txt" "$TRACE_TMP/fleet-resumed.txt"

echo "== store smoke (scrub exit codes, corruption heals, cross-invocation cache hits)"
# first store-backed run populates the store; scrub verifies clean (exit 0)
STORE_ARGS=(minpsid pathfinder --quick --seed 42 --level 0.5)
rm -rf "$TRACE_TMP/store"
"$CLI" "${STORE_ARGS[@]}" --quiet --store "$TRACE_TMP/store" > "$TRACE_TMP/store-run1.txt"
"$CLI" store scrub "$TRACE_TMP/store" >/dev/null
# cross-invocation golden-cache hit: the second run is served verified
# artifacts from disk (no recompute) and prints identical bytes
"$CLI" "${STORE_ARGS[@]}" --store "$TRACE_TMP/store" \
  > "$TRACE_TMP/store-run2.txt" 2> "$TRACE_TMP/store-run2-err.txt"
diff "$TRACE_TMP/store-run1.txt" "$TRACE_TMP/store-run2.txt"
grep -Eq "golden cache +0 hits / [1-9][0-9]* disk hits / 0 misses" \
  "$TRACE_TMP/store-run2-err.txt" \
  || { echo "second run was not served from the store"; exit 1; }
# bit-rot one object: scrub must quarantine it and exit 3 (not 0, not 1)
OBJ="$(find "$TRACE_TMP/store/objects" -name '*.obj' | head -1)"
printf 'X' | dd of="$OBJ" bs=1 seek=3 conv=notrunc 2>/dev/null
set +e
"$CLI" store scrub "$TRACE_TMP/store" >/dev/null
SCRUB_EXIT=$?
set -e
test "$SCRUB_EXIT" = "3" \
  || { echo "scrub on a corrupt store exited $SCRUB_EXIT, want 3"; exit 1; }
# the next campaign recomputes the quarantined artifact: byte-identical
# report, and the store scrubs clean (exit 0) again
"$CLI" "${STORE_ARGS[@]}" --quiet --store "$TRACE_TMP/store" > "$TRACE_TMP/store-run3.txt"
diff "$TRACE_TMP/store-run1.txt" "$TRACE_TMP/store-run3.txt"
"$CLI" store scrub "$TRACE_TMP/store" >/dev/null
# chaos-flip across a journaled fleet run: segments rot between worker
# fsync and merge, shards re-execute, report + WAL stay byte-identical
"$CLI" "${FLEET_ARGS[@]}" --workers 2 --chaos-flip-artifact-one-in 2 \
  --journal "$TRACE_TMP/fleet-j-flip" > "$TRACE_TMP/fleet-flip.txt" 2>/dev/null
diff "$TRACE_TMP/fleet-threads.txt" "$TRACE_TMP/fleet-flip.txt"
cmp "$TRACE_TMP/fleet-j-threads/campaign.wal" "$TRACE_TMP/fleet-j-flip/campaign.wal"

echo "== incremental smoke (cold seal -> edit one fn -> O(diff) re-campaign)"
# compositional FI at the CLI: a cold store-backed campaign seals
# per-section outcome tables; editing one leaf function (same value,
# same instruction count, different fingerprint) and re-running against
# the same store re-executes only the edited section and its caller,
# yet prints the exact bytes a from-scratch campaign of the edited
# program prints
INCR_MC="$TRACE_TMP/incr.mc"
cat > "$INCR_MC" <<'MC'
fn heavy_a(n: int) -> int {
    let acc = 1;
    for i = 0 to n {
        let t = i * 3 + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        acc = acc + v - u;
    }
    return acc;
}
fn heavy_b(n: int) -> int {
    let acc = 1;
    for i = 0 to n {
        let t = i * 5 + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        acc = acc + v - u;
    }
    return acc;
}
fn tweak(x: int) -> int {
    return x * 2;
}
fn main() {
    let n = arg_i(0);
    let a = heavy_a(n);
    let b = heavy_b(n);
    out_i(tweak(a));
    out_i(tweak(b));
}
MC
INCR_ARGS=(fi "$INCR_MC" --args i:32 --injections 400 --seed 7)
rm -rf "$TRACE_TMP/incr-store"
"$CLI" "${INCR_ARGS[@]}" --store "$TRACE_TMP/incr-store" --incremental \
  > "$TRACE_TMP/incr-cold.txt" 2> "$TRACE_TMP/incr-cold-err.txt"
grep -Eq "[1-9][0-9]* tables sealed" "$TRACE_TMP/incr-cold-err.txt" \
  || { echo "cold run sealed no section tables"; exit 1; }
# edit one leaf function in place: x * 2 -> x + x computes the same
# value with the same instruction count, so every untouched section's
# sealed table stays valid while tweak's fingerprint (and its caller's)
# changes
sed -i 's/return x \* 2;/return x + x;/' "$INCR_MC"
grep -q "return x + x;" "$INCR_MC"
# from-scratch reference campaign of the edited program (no store)
"$CLI" "${INCR_ARGS[@]}" > "$TRACE_TMP/incr-scratch.txt" 2>/dev/null
# incremental re-campaign over the sealed store: composed report must
# diff clean against from-scratch
"$CLI" "${INCR_ARGS[@]}" --store "$TRACE_TMP/incr-store" --incremental \
  > "$TRACE_TMP/incr-warm.txt" 2> "$TRACE_TMP/incr-warm-err.txt"
diff "$TRACE_TMP/incr-scratch.txt" "$TRACE_TMP/incr-warm.txt"
# only the edited section (plus its caller) re-executed: >5x fewer
# injections than the cold campaign, the rest served from tables
COLD_EXEC="$(sed -n 's/.*tables, \([0-9]*\) executed.*/\1/p' "$TRACE_TMP/incr-cold-err.txt")"
INCR_EXEC="$(sed -n 's/.*tables, \([0-9]*\) executed.*/\1/p' "$TRACE_TMP/incr-warm-err.txt")"
INCR_SERVED="$(sed -n 's/.*; \([0-9]*\) injections served.*/\1/p' "$TRACE_TMP/incr-warm-err.txt")"
test -n "$COLD_EXEC" && test -n "$INCR_EXEC" && test -n "$INCR_SERVED" \
  || { echo "missing sections: diag line on a store-backed run"; exit 1; }
test "$INCR_SERVED" -gt 0 \
  || { echo "incremental re-campaign served nothing from tables"; exit 1; }
test $((INCR_EXEC * 5)) -lt "$COLD_EXEC" \
  || { echo "re-campaign not O(diff): executed $INCR_EXEC of $COLD_EXEC cold injections"; exit 1; }
# without --incremental (the default) the table layer stays off
"$CLI" "${INCR_ARGS[@]}" --store "$TRACE_TMP/incr-store" \
  > /dev/null 2> "$TRACE_TMP/incr-off-err.txt"
if grep -q "sections:" "$TRACE_TMP/incr-off-err.txt"; then
  echo "a store-backed run without --incremental engaged the table layer"; exit 1
fi
echo "incremental smoke: cold $COLD_EXEC executed; edit re-ran $INCR_EXEC, served $INCR_SERVED"

echo "== incremental-speedup guard (one-function edit >= 1.5x in committed baseline)"
# the committed bench baseline carries the measured one-function-edit
# re-campaign speedup per workload. Skips gracefully when the baseline
# predates the incremental columns.
python3 - <<'EOF'
import json, sys
try:
    d = json.load(open("BENCH_fi_throughput.json"))
    rows = [r for r in d.get("workloads", []) if "incremental_speedup" in r]
except Exception:
    rows = []
if not rows:
    print("incremental guard: baseline lacks incremental_speedup, skipping")
    sys.exit(0)
bad = False
for r in rows:
    sp = r["incremental_speedup"]
    pct = r.get("sections_reused_pct", 0.0)
    print(f"incremental guard: {r['name']} edit {r.get('edited_fn', '?')}: "
          f"{sp:.2f}x speedup, {pct:.1f}% injections reused (floor 1.5x)")
    bad = bad or sp < 1.5
sys.exit(1 if bad else 0)
EOF

echo "== fleet-overhead guard (fleet_overhead_pct <= 5% in committed baseline)"
# process isolation buys crash containment; the committed bench baseline
# carries its measured cost. Skips gracefully when the baseline predates
# the fleet columns.
python3 - <<'EOF'
import json, sys
try:
    d = json.load(open("BENCH_fi_throughput.json"))
    rows = [r for r in d.get("workloads", []) if "fleet_overhead_pct" in r]
except Exception:
    rows = []
if not rows:
    print("fleet guard: baseline lacks fleet_overhead_pct, skipping")
    sys.exit(0)
bad = False
for r in rows:
    pct = r["fleet_overhead_pct"]
    print(f"fleet guard: {r['name']} overhead {pct:+.2f}% (budget 5%)")
    bad = bad or pct > 5.0
sys.exit(1 if bad else 0)
EOF

echo "== snapshot-encoding smoke"
# (the legacy-vs-decoded interpreter equivalence over all 11 kernels is
# the tier-1 test tests/oracle_equivalence.rs)
# snapshot encodings must not change reports either
"$CLI" fi hpccg --quick --seed 42 --quiet --snapshot-mode full \
  > "$TRACE_TMP/snap-full.txt" 2>/dev/null
"$CLI" fi hpccg --quick --seed 42 --quiet --snapshot-mode delta \
  > "$TRACE_TMP/snap-delta.txt" 2>/dev/null
diff "$TRACE_TMP/snap-full.txt" "$TRACE_TMP/snap-delta.txt"

echo "== perf-regression guard (injections_per_sec vs committed baseline)"
# re-measure one workload's checkpointed campaign throughput and compare
# against the committed BENCH_fi_throughput.json; a >20% drop fails.
# Skips gracefully when the baseline predates the throughput columns.
BASE="$(python3 - <<'EOF'
import json
try:
    d = json.load(open("BENCH_fi_throughput.json"))
    w = [r for r in d.get("workloads", []) if r["name"] == "hpccg"]
    print(w[0]["injections_per_sec"] if w and "injections_per_sec" in w[0] else "")
except Exception:
    print("")
EOF
)"
if [ -n "$BASE" ]; then
  PERF_T0=$(date +%s.%N)
  "$CLI" fi hpccg --seed 42 --injections 2000 --quiet >/dev/null 2>&1
  PERF_T1=$(date +%s.%N)
  python3 - "$BASE" "$PERF_T0" "$PERF_T1" <<'EOF'
import sys
base, t0, t1 = float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
# the timed run includes the golden run + campaign; only guard against
# catastrophic slowdowns (>20% below the committed single-thread rate
# is scaled by a 4x grace factor for golden-run + process overhead)
rate = 2000 / (t1 - t0)
floor = base * 0.8 / 4.0
print(f"perf guard: measured {rate:.0f} inj/s end-to-end, floor {floor:.0f} inj/s")
sys.exit(0 if rate >= floor else 1)
EOF
else
  echo "perf guard: baseline lacks injections_per_sec, skipping"
fi

echo "== observability smoke (--status-addr live endpoints, reports + WAL unchanged)"
# reference: a journaled campaign with no observability at all
OBS_ARGS=(minpsid pathfinder --quick --seed 42 --level 0.5 --quiet)
"$CLI" "${OBS_ARGS[@]}" --journal "$TRACE_TMP/obs-journal-off" \
  > "$TRACE_TMP/obs-off.txt"
# the same campaign with the status server, metrics bridge, and
# interpreter profiler all attached; poll both endpoints mid-run
"$CLI" "${OBS_ARGS[@]}" --journal "$TRACE_TMP/obs-journal-on" \
  --status-addr 127.0.0.1:19464 --profile-interp \
  > "$TRACE_TMP/obs-on.txt" 2>/dev/null &
OBS_PID=$!
python3 - <<'EOF'
import json, time, urllib.request
deadline = time.time() + 30
metrics = status = None
while time.time() < deadline:
    try:
        metrics = urllib.request.urlopen(
            "http://127.0.0.1:19464/metrics", timeout=2).read().decode()
        status = json.loads(urllib.request.urlopen(
            "http://127.0.0.1:19464/status", timeout=2).read().decode())
        if "minpsid_build_info" in metrics and status.get("tool", "").startswith("minpsid"):
            break
    except Exception:
        time.sleep(0.05)
else:
    raise SystemExit("status server never answered on /metrics + /status")
assert "# TYPE minpsid_build_info gauge" in metrics, metrics[:400]
assert "campaigns" in status and "sched" in status, status
print(f"observability smoke: /metrics {len(metrics)} bytes, tool={status['tool']!r}")
EOF
wait "$OBS_PID"
# observability must not change a single report byte...
diff "$TRACE_TMP/obs-off.txt" "$TRACE_TMP/obs-on.txt"
# ...nor a single WAL byte
cmp "$TRACE_TMP/obs-journal-off/campaign.wal" "$TRACE_TMP/obs-journal-on/campaign.wal"

echo "== profiler-overhead guard (profile_overhead_pct <= 2% in committed baseline)"
# the sampling profiler's budget is <2% on every workload; the committed
# bench baseline carries the measured column. Skips gracefully when the
# baseline predates the profiler columns.
python3 - <<'EOF'
import json, sys
try:
    d = json.load(open("BENCH_fi_throughput.json"))
    rows = [r for r in d.get("workloads", []) if "profile_overhead_pct" in r]
except Exception:
    rows = []
if not rows:
    print("profiler guard: baseline lacks profile_overhead_pct, skipping")
    sys.exit(0)
bad = False
for r in rows:
    pct = r["profile_overhead_pct"]
    print(f"profiler guard: {r['name']} overhead {pct:+.2f}% (budget 2%)")
    bad = bad or pct > 2.0
sys.exit(1 if bad else 0)
EOF

echo "== deterministic-report smoke (same seed + chaos knobs => identical bytes)"
"$CLI" analyze pathfinder --quick --seed 42 --chaos-panic-one-in 50 \
  --chaos-timeout-one-in 50 --quiet > "$TRACE_TMP/chaos-a.txt" 2>/dev/null
"$CLI" analyze pathfinder --quick --seed 42 --chaos-panic-one-in 50 \
  --chaos-timeout-one-in 50 --quiet > "$TRACE_TMP/chaos-b.txt" 2>/dev/null
diff "$TRACE_TMP/chaos-a.txt" "$TRACE_TMP/chaos-b.txt"

echo "CI OK"
