//! `perfbench --workload <spins|electrons> --seed <n> --seconds <s> --trace <0|1> [--scale smoke]`
//!
//! Prints one metadata line and, as the last line of standard output, the
//! result object. Exits non-zero without a result if the run cannot be
//! set up.

use perfbench::report::{meta_line, result_line};
use perfbench::workload::{Scale, System};
use perfbench::{run, RunOptions};
use std::path::PathBuf;
use tt_dist::SpawnSpec;

/// Scratch directory for the service socket and the worker fleets'
/// sockets, relative to the working directory: the run writes nowhere
/// else, and the path stays short enough for a Unix socket address.
const SCRATCH: &str = ".bench_tmp";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <spins|electrons> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]"
    );
    std::process::exit(2)
}

fn main() {
    // worker processes of the mp2 cells and the service fleet re-execute
    // this binary; they serve here and exit
    tt_dist::maybe_serve();

    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (1u64, 10.0f64, false, Scale::Full);
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage("flags take one value each")
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(System::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = value == "1",
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => usage("bad --scale"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let system = workload.unwrap_or_else(|| usage("--workload is required"));

    // pin the microkernel variant for this process and its workers (read
    // once, at the first kernel call), and keep sockets in the scratch dir
    std::env::set_var("TT_SIMD", "avx2");
    std::env::set_var("TMPDIR", SCRATCH);
    if let Err(e) = std::fs::create_dir_all(SCRATCH) {
        eprintln!("perfbench: create {SCRATCH}: {e}");
        std::process::exit(1);
    }
    let opts = RunOptions {
        system,
        scale,
        seed,
        seconds,
        trace,
        spawn: SpawnSpec::SelfExec(vec![]),
        socket: PathBuf::from(SCRATCH).join(format!("svc-{}.sock", std::process::id())),
    };
    match run(&opts) {
        Ok(r) => {
            println!("{}", meta_line(&r.meta, &r.metrics));
            println!("{}", result_line(r.outcome, &r.metrics));
            let _ = std::fs::remove_dir(SCRATCH);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
