//! Property tests for the decoded loop against the legacy tree-walking
//! oracle (`minpsid_interp::oracle`), and for delta-encoded snapshots:
//! for *random* minic programs,
//!
//! * the decoded loop must be bit-identical to the oracle — same
//!   termination, output, step count and return value, with and without
//!   an injected fault (the fault model counts dynamic instructions, so a
//!   single off-by-one step in either loop shows up as a different
//!   injection point and fails loudly);
//! * with observers attached, the decoded run's [`Profile`], register
//!   trace and checkpoint-store wire bytes must equal the oracle's field
//!   by field — on trapping, step-limited and deep-call runs, for resumed
//!   suffixes, and for capture intervals small enough to land between
//!   the halves of every fused superinstruction;
//! * a delta-encoded checkpoint store must materialize to exactly the
//!   snapshots a full-encoding store captures, and resuming a faulty run
//!   from any delta-chain index must match the from-scratch faulty run
//!   bit for bit.
//!
//! [`Profile`]: minpsid_interp::Profile

use minpsid_interp::{
    oracle, wire, CheckpointConfig, ExecConfig, ExecResult, ExecScratch, FaultSpec, FaultTarget,
    Interp, ProgInput, Scalar, SnapshotMode, TraceEvent, Value,
};
use proptest::prelude::*;

/// Random minic program from statement codes; exercises loops, branches,
/// array stores (linear memory), recursion (frame stack + stack memory),
/// float arithmetic (type-specialized decoded ops), comparisons feeding
/// branches (the fused cmp+br superinstruction) and loads feeding
/// arithmetic (the fused load+binop superinstruction). Codes 8..11 may
/// trap (division by zero, out-of-bounds reads) or recurse deeply.
fn gen_source(stmts: &[(u8, u8)]) -> String {
    let mut body = String::new();
    for (idx, &(op, k)) in stmts.iter().enumerate() {
        let k = k as i64;
        let s = match op % 11 {
            0 => format!("    acc = acc + (a + {k}) * {};\n", idx + 1),
            1 => format!("    acc = acc - b / {};\n", k + 1),
            2 => format!(
                "    if acc % {} == 0 {{ acc = acc * 3 + 1; }} else {{ acc = acc + b; }}\n",
                k + 2
            ),
            3 => format!(
                "    for i = 0 to {} {{ acc = acc + i * a; buf[i % 8] = acc; }}\n",
                k % 13 + 1
            ),
            4 => format!("    acc = acc + rec(a % {} + 1);\n", k % 7 + 2),
            5 => format!("    f = f * 1.5 + {k}.25; out_f(f);\n"),
            6 => format!(
                "    for i = 0 to {} {{ acc = acc + buf[i % 8] * 2; }}\n",
                k % 9 + 1
            ),
            7 => format!("    out_i(acc % {});\n", k + 10),
            8 => format!("    acc = acc + 100 / (b - {});\n", k % 5),
            9 => format!("    acc = acc + buf[(acc + {k}) % 11];\n"),
            _ => format!("    acc = acc + deep({} + a % 9);\n", k * 2),
        };
        body.push_str(&s);
    }
    format!(
        r#"
fn rec(x: int) -> int {{
    if x <= 1 {{ return 1; }}
    return rec(x - 1) + x;
}}

fn deep(x: int) -> int {{
    if x <= 0 {{ return 0; }}
    return deep(x - 1) + 1;
}}

fn main() {{
    let a = arg_i(0);
    let b = arg_i(1);
    let buf: [int] = alloc(8);
    for i = 0 to 8 {{ buf[i] = i; }}
    let acc = 7;
    let f = 0.5;
{body}    for i = 0 to 8 {{ out_i(buf[i]); }}
    out_i(acc);
}}
"#
    )
}

/// Identical step cap for every variant so bit-identity is preserved
/// even when a faulty run diverges into unbounded recursion.
fn exec() -> ExecConfig {
    ExecConfig {
        step_limit: 300_000,
        ..ExecConfig::default()
    }
}

/// Profile and trace on, with the given limits.
fn observed(step_limit: u64, call_depth_limit: u32) -> ExecConfig {
    ExecConfig {
        step_limit,
        call_depth_limit,
        profile: true,
        trace: true,
        ..ExecConfig::default()
    }
}

/// The default step cap, or with `cut` one that stops the run at a
/// random step before its natural end (mid-block, mid-superinstruction).
fn step_cut(m: &minpsid_ir::Module, input: &ProgInput, cut: Option<u64>) -> u64 {
    match cut {
        None => exec().step_limit,
        Some(c) => 1 + c % Interp::new(m, exec()).run(input).steps,
    }
}

/// Trace events with values compared by bits (NaN payloads included).
fn trace_bits(t: &Option<Vec<TraceEvent>>) -> Option<Vec<(u32, u8, u64)>> {
    t.as_ref().map(|t| {
        t.iter()
            .map(|e| {
                let (tag, bits) = match e.value {
                    Value::I(x) => (0, x as u64),
                    Value::F(x) => (1, x.to_bits()),
                    Value::B(x) => (2, x as u64),
                    Value::P(x) => (3, x),
                    Value::Undef => (4, 0),
                };
                (e.dense, tag, bits)
            })
            .collect()
    })
}

/// Every field of two results, profile and trace included.
fn assert_same(got: &ExecResult, want: &ExecResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.termination, &want.termination);
    prop_assert_eq!(&got.output, &want.output);
    prop_assert_eq!(got.steps, want.steps);
    prop_assert_eq!(got.fault_applied, want.fault_applied);
    prop_assert_eq!(&got.ret, &want.ret);
    prop_assert_eq!(got.resumed_at, want.resumed_at);
    prop_assert_eq!(&got.profile, &want.profile);
    prop_assert_eq!(trace_bits(&got.trace), trace_bits(&want.trace));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Decoded dispatch is bit-identical to the oracle on clean runs:
    /// termination, output, step count and return value.
    #[test]
    fn decoded_matches_oracle_without_faults(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let legacy = oracle::run(&interp, &input);
        let decoded = interp.run(&input);
        prop_assert_eq!(&decoded.termination, &legacy.termination);
        prop_assert_eq!(&decoded.output, &legacy.output);
        prop_assert_eq!(decoded.steps, legacy.steps);
        prop_assert_eq!(&decoded.ret, &legacy.ret);
    }

    /// Decoded dispatch is bit-identical to the oracle under a random
    /// single-bit fault at a random dynamic instruction — the injection
    /// counters of the two loops must agree step for step.
    #[test]
    fn decoded_matches_oracle_under_faults(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = oracle::run(&interp, &input);
        prop_assume!(golden.exited());

        let nth = nth_raw % golden.steps;
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };
        let lf = oracle::run_with_fault(&interp, &input, fault);
        let df = interp.run_with_fault(&input, fault);
        prop_assert_eq!(&df.termination, &lf.termination);
        prop_assert_eq!(&df.output, &lf.output);
        prop_assert_eq!(df.steps, lf.steps);
        prop_assert_eq!(df.fault_applied, lf.fault_applied);
        prop_assert_eq!(&df.ret, &lf.ret);
    }

    /// With profile and trace on, the decoded run equals the oracle field
    /// by field — including runs that trap, hit a step limit anywhere
    /// (mid-block, mid-superinstruction) or exceed the call-depth limit,
    /// and runs with a fault armed.
    #[test]
    fn observed_runs_match_oracle(
        stmts in proptest::collection::vec((0u8..11, 0u8..20), 1..9),
        a in 0i64..30,
        b in -10i64..30,
        cut in prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
        call_depth_limit in prop_oneof![Just(512u32), 2u32..24],
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-observe").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let step_limit = step_cut(&m, &input, cut);
        let interp = Interp::new(&m, observed(step_limit, call_depth_limit));
        let want = oracle::run(&interp, &input);
        let got = interp.run(&input);
        assert_same(&got, &want)?;

        let nth = nth_raw % want.steps.max(1);
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };
        let want = oracle::run_with_fault(&interp, &input, fault);
        let got = interp.run_with_fault(&input, fault);
        assert_same(&got, &want)?;
    }

    /// Resumed suffixes: profiling and tracing a faulty run resumed from
    /// a checkpoint covers the suffix only, and the decoded suffix
    /// profile and trace equal the oracle's from the same checkpoint.
    #[test]
    fn resumed_suffix_observers_match_oracle(
        stmts in proptest::collection::vec((0u8..11, 0u8..20), 1..9),
        a in 0i64..30,
        b in -10i64..30,
        interval in 1u64..8,
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
        per_inst in any::<bool>(),
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-resume").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, observed(20_000, 64));
        let cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Delta,
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let (golden, store) = interp.run_with_checkpoint_store(&input, cfg);
        prop_assume!(golden.exited() && !store.is_empty());

        let pop = golden.profile.as_ref().unwrap().injectable_execs.max(1);
        let target = if per_inst {
            // an injectable instruction that executed, by its dense index
            let counts = &golden.profile.as_ref().unwrap().inst_counts;
            let gids: Vec<_> = m
                .iter_insts()
                .filter(|(g, i)| i.injectable() && counts[interp.dense_index(*g)] > 0)
                .map(|(g, _)| g)
                .collect();
            prop_assume!(!gids.is_empty());
            let gid = gids[nth_raw as usize % gids.len()];
            FaultTarget::NthOfInst(gid, nth_raw % 3)
        } else {
            FaultTarget::NthDynamic(nth_raw % pop)
        };
        let fault = FaultSpec { target, bit };
        let idx = match target {
            FaultTarget::NthDynamic(n) => store.nearest_for_dynamic(n),
            FaultTarget::NthOfInst(gid, n) => store.nearest_for_inst(interp.dense_index(gid), n),
        };
        prop_assume!(idx.is_some());
        let idx = idx.unwrap();
        let mut scratch = ExecScratch::default();
        let got = interp.resume_from(&mut scratch, &store, idx, &input, fault);
        let want = oracle::resume_from(&interp, &store, idx, &input, fault);
        assert_same(&got, &want)?;
    }

    /// Checkpoint capture on the decoded loop writes the oracle's exact
    /// wire bytes: intervals 1..=7 land captures between the halves of
    /// every fused superinstruction, in both encodings, with and without
    /// budget thinning.
    #[test]
    fn checkpoint_bytes_match_oracle(
        stmts in proptest::collection::vec((0u8..11, 0u8..20), 1..9),
        a in 0i64..30,
        b in -10i64..30,
        interval in 1u64..8,
        delta in any::<bool>(),
        keyframe_every in 1u32..9,
        tight_budget in any::<bool>(),
        cut in prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-ckpt").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let step_limit = step_cut(&m, &input, cut);
        let interp = Interp::new(&m, ExecConfig { step_limit, ..exec() });
        let cfg = CheckpointConfig {
            interval,
            mem_budget_bytes: if tight_budget { 16 << 10 } else { 256 << 20 },
            mode: if delta { SnapshotMode::Delta } else { SnapshotMode::Full },
            keyframe_every,
        };
        let (want_r, want) = oracle::run_with_checkpoint_store(&interp, &input, cfg);
        let (got_r, got) = interp.run_with_checkpoint_store(&input, cfg);
        assert_same(&got_r, &want_r)?;
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(wire::encode_checkpoints(&got) == wire::encode_checkpoints(&want));
    }

    /// A delta-encoded store materializes to exactly the snapshots the
    /// full-encoding store captures: same count, same step/injection
    /// counters, same per-instruction injection counts, same output
    /// prefix — and every materialized pair round-trips to the same
    /// resumed execution.
    #[test]
    fn delta_store_round_trips_to_full_snapshots(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        keyframe_every in 1u32..9,
        dense_raw in 0usize..10_000,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let full_cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Full,
            ..CheckpointConfig::default()
        };
        let delta_cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Delta,
            keyframe_every,
            ..CheckpointConfig::default()
        };
        let (rf, full) = interp.run_with_checkpoint_store(&input, full_cfg);
        let (rd, delta) = interp.run_with_checkpoint_store(&input, delta_cfg);
        prop_assert_eq!(&rf.output, &rd.output);
        prop_assert_eq!(rf.steps, rd.steps);
        prop_assert_eq!(full.len(), delta.len());

        let dense = dense_raw % m.num_insts();
        for i in 0..full.len() {
            let sf = full.materialize(i);
            let sd = delta.materialize(i);
            prop_assert_eq!(sd.steps(), sf.steps());
            prop_assert_eq!(sd.inj_ctr(), sf.inj_ctr());
            prop_assert_eq!(sd.inj_count_of(dense), sf.inj_count_of(dense));
            prop_assert_eq!(sd.output(), sf.output());
            prop_assert_eq!(delta.steps_at(i), full.steps_at(i));
            prop_assert_eq!(delta.inj_ctr_at(i), full.inj_ctr_at(i));
            prop_assert_eq!(delta.inj_count_at(i, dense), full.inj_count_at(i, dense));
        }
    }

    /// Resuming a faulty run from any index of a delta-encoded store is
    /// bit-identical to the from-scratch faulty run (the soundness
    /// property checkpointed fault injection rests on, now across
    /// delta-chain reconstruction).
    #[test]
    fn delta_resume_matches_cold_faulty_run(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        keyframe_every in 1u32..9,
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Delta,
            keyframe_every,
            ..CheckpointConfig::default()
        };
        let (_, store) = interp.run_with_checkpoint_store(&input, cfg);
        prop_assert!(!store.is_empty(), "interval <= steps yields snapshots");

        let nth = nth_raw % golden.steps;
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };
        let cold = interp.run_with_fault(&input, fault);

        let mut scratch = ExecScratch::default();
        for i in (0..store.len()).filter(|&i| store.inj_ctr_at(i) <= nth) {
            let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
            prop_assert_eq!(&warm.termination, &cold.termination);
            prop_assert_eq!(&warm.output, &cold.output);
            prop_assert_eq!(warm.steps, cold.steps);
            prop_assert_eq!(warm.fault_applied, cold.fault_applied);
            prop_assert_eq!(&warm.ret, &cold.ret);
        }
    }
}
