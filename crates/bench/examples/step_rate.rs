//! Quick step-rate probe: golden decoded vs legacy (oracle) steps/sec on
//! hpccg.
use minpsid_interp::{oracle, ExecConfig, Interp};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let b = minpsid_workloads::by_name("hpccg").unwrap();
    let module = b.compile();
    let input = b.model.materialize(&b.model.reference());
    let interp = Interp::new(&module, ExecConfig::default());
    for (name, legacy) in [("legacy ", true), ("decoded", false)] {
        oracle::route_all(legacy);
        let steps = interp.run(&input).steps;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            black_box(interp.run(black_box(&input)));
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{name}: {:.2} ns/step  ({:.1} Msteps/s, {steps} steps)",
            best * 1e9 / steps as f64,
            steps as f64 / best / 1e6
        );
    }
    oracle::route_all(false);
}
