//! Smoke-size checks of the benchmark itself: the traced sweep reproduces
//! `Dmrg::run` bit for bit in every cell, and a whole run reports exactly
//! the metrics `BENCHMARK.json` declares.

use perfbench::traced::traced_sweep;
use perfbench::workload::{run_sweep, timed_sweep_params, warm_up, Cell, Scale, System};
use perfbench::{run, RunOptions, LAYER_SUM_TOL};
use std::sync::atomic::{AtomicUsize, Ordering};
use tt_dist::SpawnSpec;

/// Worker hook: the mp2 cells and the service fleet re-execute this test
/// binary filtered to this test, which then serves and exits.
#[test]
fn spawned_worker_entry() {
    tt_dist::maybe_serve();
}

fn spawn() -> SpawnSpec {
    SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()])
}

fn socket() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "perfbench-test-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ))
}

#[test]
fn traced_sweep_reproduces_dmrg_run_in_every_cell() {
    let system = System::Electrons;
    let size = system.size(Scale::Smoke);
    let (mpo, mut warm) = system.problem(size);
    warm_up(&mpo, &mut warm, size.m);
    let params = timed_sweep_params(size.m, 5);
    for cell in Cell::all() {
        let untraced_exec = cell.backend.executor(&spawn()).expect("executor");
        let u = run_sweep(&untraced_exec, cell.algo, &mpo, &warm, params).expect("sweep");
        let traced_exec = cell.backend.executor(&spawn()).expect("executor");
        let mut psi = warm.clone();
        let l = traced_sweep(&traced_exec, cell.algo, &mpo, &mut psi, &params).expect("traced");
        let c = cell.name();
        assert_eq!(l.energy.to_bits(), u.energy.to_bits(), "{c}: energy bits");
        assert_eq!(l.flops, u.flops, "{c}: flops");
        assert_eq!(l.matvecs, u.matvecs, "{c}: matvecs");
        let gap = (l.total_s - l.timed_s()) / l.total_s;
        assert!(
            gap.abs() <= LAYER_SUM_TOL,
            "{c}: layers leave {gap:.3} of the sweep"
        );
    }
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name end")].to_string())
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_metric() {
    for trace in [false, true] {
        let opts = RunOptions {
            system: System::Electrons,
            scale: Scale::Smoke,
            seed: 3,
            seconds: 1.0,
            trace,
            spawn: spawn(),
            socket: socket(),
        };
        let r = run(&opts).expect("smoke run");
        assert!(r.outcome.attempted > 0);
        assert_eq!(r.outcome.failed, 0, "output checks (trace={trace})");
        let mut got: Vec<String> = r.metrics.0.iter().map(|m| m.name.clone()).collect();
        let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
        got.sort();
        want.sort();
        assert_eq!(got, want, "trace={trace}");
        if !trace {
            for m in &r.metrics.0 {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}
