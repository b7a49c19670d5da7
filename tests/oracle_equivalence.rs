//! Interpreter equivalence over the whole kernel suite: the decoded loop,
//! with its profile and checkpoint observers, against the legacy
//! tree-walking oracle on every workload. Compared per kernel: the golden
//! run's profile, output and step count, the checkpoint store's wire
//! bytes, and a small per-instruction campaign report — whose injections
//! resume from those checkpoints and so run entirely on one loop or the
//! other. Any divergence in step counting, trap order, fault timing,
//! profile derivation or capture placement shows up as a diff.
//!
//! The oracle is routed to process-wide, so this binary holds a single
//! test.

use minpsid_repro::faultsim::{
    golden_run, per_instruction_campaign, CampaignConfig, CampaignConfigBuilder,
};
use minpsid_repro::interp::{oracle, ProgInput};
use minpsid_repro::ir::Module;
use minpsid_repro::workloads;

/// Everything one loop produces for a kernel, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    golden_meta: Vec<u8>,
    checkpoint_bytes: Vec<u8>,
    snapshots: usize,
    report: String,
}

fn observe(module: &Module, input: &ProgInput, cfg: &CampaignConfig) -> Observed {
    let golden = golden_run(module, input, cfg).expect("reference inputs exit cleanly");
    let report = per_instruction_campaign(module, input, &golden, cfg);
    Observed {
        // output, profile and steps, wire-encoded
        golden_meta: golden.encode_meta(),
        checkpoint_bytes: golden.encode_checkpoints(),
        snapshots: golden.checkpoints.len(),
        report: format!("{report:?}"),
    }
}

#[test]
fn decoded_loop_matches_the_oracle_on_every_kernel() {
    // the Tiny experiment preset's per-instruction campaign size
    let cfg = CampaignConfigBuilder::quick(42)
        .per_inst_injections(12)
        .expect("positive per-instruction count")
        .build();
    let suite = workloads::suite();
    assert_eq!(suite.len(), 11, "the whole kernel suite");
    for b in suite {
        let module = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let decoded = observe(&module, &input, &cfg);
        oracle::route_all(true);
        let legacy = observe(&module, &input, &cfg);
        oracle::route_all(false);
        assert!(decoded.snapshots > 0, "{}: checkpoints captured", b.name);
        assert!(
            decoded == legacy,
            "{}: decoded loop diverged from the oracle",
            b.name
        );
    }
}
