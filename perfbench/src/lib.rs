//! End-to-end and per-layer DMRG benchmark.
//!
//! A run of one workload has two parts:
//!
//! 1. **Set-up**, repeated [`SETUP_REPS`] times (the median is `setup_s`):
//!    build the MPO, warm the state up to bond dimension `m`, start the
//!    solve service (spawning its fleet) and solve every service job spec
//!    in-process for reference.
//! 2. **Measurement**, for `--seconds`: rounds over the nine cells, each
//!    round followed by the next chunk of the fixed service job sequence
//!    (closed loop, see [`service`]) until the sequence is served, then
//!    rounds alone (at least one). Each sweep sample is one sweep of the
//!    warm state through `Dmrg::run` on a fresh executor of its cell, so
//!    samples are independent and the median does not depend on how many
//!    rounds fit. Interleaving spreads every metric's samples over the whole
//!    run, so a stretch of slow machine hits all metrics alike.
//!
//! With tracing on, part 2 instead serves the job sequence, then runs
//! [`TRACE_REPS`] rounds over the cells; per cell and round, two untraced
//! sweeps on one fresh executor (the second shows what a repeated sweep
//! costs) and one traced sweep ([`traced`]) on another. It reports the
//! per-layer split.

pub mod report;
pub mod service;
pub mod traced;
pub mod workload;

use report::{median, proc_status_mb, tail, Metrics, Outcome};
use std::path::PathBuf;
use std::time::Instant;
use tt_dist::{Executor, SpawnSpec};
use tt_mps::{Mpo, Mps};
use workload::{algo_name, run_sweep, timed_sweep_params, Backend, Cell, Scale, System, ALGOS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Relative tolerance of the cross-algorithm energy agreement and of the
/// "no sweep ends above the warm-up energy" check.
pub const ENERGY_RTOL: f64 = 1e-8;
/// Largest share of a traced sweep its timed layers may leave unaccounted.
pub const LAYER_SUM_TOL: f64 = 0.03;
/// Rounds of the traced part; per-layer values are medians over them.
pub const TRACE_REPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    pub system: System,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// How the mp2 cells and the service fleet launch their workers.
    pub spawn: SpawnSpec,
    /// Unix socket of the solve service.
    pub socket: PathBuf,
}

/// Everything a run reports.
pub struct RunResult {
    pub outcome: Outcome,
    pub metrics: Metrics,
    pub meta: Vec<(&'static str, String)>,
}

struct Setup {
    mpo: Mpo,
    warm: Mps,
    warm_energy: f64,
    service: tt_dist::service::Service,
    specs: Vec<tt_dist::service::DmrgJobSpec>,
    refs: Vec<service::Reference>,
}

#[derive(Clone, Copy)]
struct SetupTimes {
    mpo_build_s: f64,
    warmup_s: f64,
    spawn_s: f64,
    total_s: f64,
}

fn set_up(opts: &RunOptions, max_queued: usize) -> tt_dist::Result<(Setup, SetupTimes)> {
    let size = opts.system.size(opts.scale);
    let start = Instant::now();
    let t = Instant::now();
    let (mpo, mut warm) = opts.system.problem(size);
    let mpo_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm_energy = workload::warm_up(&mpo, &mut warm, size.m);
    let warmup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let service = service::start(&opts.socket, &opts.spawn, max_queued)?;
    let spawn_s = t.elapsed().as_secs_f64();
    let specs = service::job_specs(opts.system, size.chain_n, opts.seed);
    let refs = service::references(&specs);
    let times = SetupTimes {
        mpo_build_s,
        warmup_s,
        spawn_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    Ok((
        Setup {
            mpo,
            warm,
            warm_energy,
            service,
            specs,
            refs,
        },
        times,
    ))
}

/// Per-algorithm reference energies from the `seq` cells, and the checks
/// every sweep must pass against them.
struct SweepCheck {
    warm_energy: f64,
    seq: [Option<f64>; 3],
}

impl SweepCheck {
    fn algo_index(a: tt_blocks::Algorithm) -> usize {
        ALGOS.iter().position(|&x| x == a).expect("known algorithm")
    }

    /// Bitwise equal to the algorithm's `seq` energy (the first `seq`
    /// sample defines it), within [`ENERGY_RTOL`] of the list algorithm,
    /// and not above the warm-up energy.
    fn check(&mut self, cell: Cell, energy: f64) -> bool {
        let i = Self::algo_index(cell.algo);
        if cell.backend == Backend::Seq && self.seq[i].is_none() {
            self.seq[i] = Some(energy);
        }
        let Some(reference) = self.seq[i] else {
            return false;
        };
        let agrees = self.seq[0]
            .is_some_and(|list| (energy - list).abs() <= ENERGY_RTOL * list.abs().max(1.0));
        let not_above = energy <= self.warm_energy + ENERGY_RTOL * self.warm_energy.abs().max(1.0);
        energy.to_bits() == reference.to_bits() && agrees && not_above
    }
}

/// Run one workload.
pub fn run(opts: &RunOptions) -> tt_dist::Result<RunResult> {
    let size = opts.system.size(opts.scale);
    let load_start = report::load_average();
    let sequence = service::job_sequence(size.jobs, opts.seed);

    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // tear the previous set-up (fleets, service) down before the next
        drop(setup.take());
        let (s, t) = set_up(opts, sequence.len())?;
        times.push(t);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    let mut outcome = Outcome::default();
    let mut metrics = Metrics::default();
    let mut phase = service::Phase::default();
    let mut chunks = sequence.chunks(service::CHUNK);
    let mut next_chunk = || match chunks.next() {
        Some(c) => {
            phase.absorb(service::run_chunk(&opts.socket, &setup.specs, c));
            true
        }
        None => false,
    };
    let params = timed_sweep_params(size.m, opts.seed);
    let mut check = SweepCheck {
        warm_energy: setup.warm_energy,
        seq: [None; 3],
    };
    let mut meta: Vec<(&'static str, String)> = Vec::new();

    if opts.trace {
        while next_chunk() {}
        trace_cells(opts, &setup, params, &mut check, &mut outcome, &mut metrics)?;
        push_setup_layers(
            &mut metrics,
            med(|t| t.mpo_build_s),
            med(|t| t.warmup_s),
            med(|t| t.spawn_s),
        );
        push_service_layers(&mut metrics, &setup, &phase);
    } else {
        let rounds = sweep_phase(
            opts,
            &setup,
            params,
            &mut next_chunk,
            &mut check,
            &mut outcome,
            &mut metrics,
        );
        meta.push(("sweep_rounds", rounds.to_string()));
        metrics.push("setup_s", med(|t| t.total_s), "s", times.len());
        metrics.push("peak_rss_mb", proc_status_mb("VmHWM"), "MB", 1);
        push_job_metrics(&mut metrics, &mut meta, &phase);
    }
    for job in &phase.jobs {
        let reference = &setup.refs[job.spec];
        outcome.record(
            job.energy
                .is_some_and(|e| e.to_bits() == reference.energy.to_bits()),
        );
    }

    drop(setup);
    meta.extend([
        ("workload", opts.system.name().to_string()),
        ("scale", format!("{:?}", opts.scale).to_lowercase()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("simd", tt_tensor::simd::simd_level().name().to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("loadavg_start", load_start.to_string()),
        ("loadavg_end", report::load_average().to_string()),
        ("service_jobs", phase.jobs.len().to_string()),
        ("service_wall_s", format!("{:.3}", phase.wall_s)),
    ]);
    Ok(RunResult {
        outcome,
        metrics,
        meta,
    })
}

/// Rounds over the nine cells, one sweep per cell on a fresh executor,
/// each round followed by the next service chunk while any remain; then
/// rounds alone until `--seconds` is spent. Pushes the `sweep_s` medians
/// and returns the number of rounds.
fn sweep_phase(
    opts: &RunOptions,
    setup: &Setup,
    params: dmrg::SweepParams,
    next_chunk: &mut dyn FnMut() -> bool,
    check: &mut SweepCheck,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) -> usize {
    let cells = Cell::all();
    let mut samples = vec![Vec::new(); cells.len()];
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        for (&cell, cell_samples) in cells.iter().zip(&mut samples) {
            let sample =
                cell.backend.executor(&opts.spawn).ok().and_then(|exec| {
                    run_sweep(&exec, cell.algo, &setup.mpo, &setup.warm, params).ok()
                });
            if let Some(s) = &sample {
                cell_samples.push(s.seconds);
            }
            outcome.record(sample.is_some_and(|s| check.check(cell, s.energy)));
        }
        let round_s = round_start.elapsed().as_secs_f64();
        rounds += 1;
        // every job is served; then stop unless another round still fits
        if !next_chunk() && t0.elapsed().as_secs_f64() + round_s > opts.seconds {
            break;
        }
    }
    for (cell, cell_samples) in cells.iter().zip(&samples) {
        let value = if cell_samples.is_empty() {
            f64::NAN
        } else {
            median(cell_samples)
        };
        let name = format!("sweep_s.{}", cell.name());
        metrics.push(name, value, "s", cell_samples.len());
    }
    rounds
}

fn push_job_metrics(
    metrics: &mut Metrics,
    meta: &mut Vec<(&'static str, String)>,
    phase: &service::Phase,
) {
    // a failed or rejected job misses every latency limit
    let latencies: Vec<f64> = phase
        .jobs
        .iter()
        .map(|j| {
            if j.energy.is_some() {
                j.total_s
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let done = phase.jobs.iter().filter(|j| j.energy.is_some()).count();
    metrics.push("job_s.p50", median(&latencies), "s", latencies.len());
    let (value, pct) =
        tail(&latencies).unwrap_or_else(|| (latencies.iter().copied().fold(0.0, f64::max), 100.0));
    meta.push(("job_s.tail_percentile", format!("{pct:.1}")));
    metrics.push("job_s.tail", value, "s", latencies.len());
    metrics.push(
        "jobs_per_min",
        60.0 * done as f64 / phase.wall_s,
        "1/min",
        done,
    );
}

fn push_setup_layers(metrics: &mut Metrics, mpo_build_s: f64, warmup_s: f64, spawn_s: f64) {
    metrics.push("tt_mps.mpo_build_s", mpo_build_s, "s", SETUP_REPS);
    metrics.push("dmrg.warmup_s", warmup_s, "s", SETUP_REPS);
    metrics.push("tt_dist.spawn_s", spawn_s, "s", SETUP_REPS);
}

fn push_service_layers(metrics: &mut Metrics, setup: &Setup, phase: &service::Phase) {
    let ok: Vec<&service::JobSample> = phase.jobs.iter().filter(|j| j.energy.is_some()).collect();
    let n = ok.len();
    let p50 = |f: &dyn Fn(&service::JobSample) -> f64| {
        if ok.is_empty() {
            f64::NAN
        } else {
            median(&ok.iter().map(|j| f(j)).collect::<Vec<_>>())
        }
    };
    metrics.push("service.queue_wait_s.p50", p50(&|j| j.queue_s), "s", n);
    metrics.push("service.run_s.p50", p50(&|j| j.run_s), "s", n);
    metrics.push(
        "service.slowdown.p50",
        p50(&|j| j.run_s / setup.refs[j.spec].seconds),
        "ratio",
        n,
    );
    metrics.push("service.submit_s.p50", p50(&|j| j.submit_s), "s", n);
    let exec = setup.service.executor();
    metrics.push(
        "service.operand_bytes",
        exec.operand_bytes() as f64 / phase.jobs.len().max(1) as f64,
        "B/job",
        phase.jobs.len(),
    );
    metrics.push("service.cache_hit_rate", hit_rate(exec), "ratio", 1);
    let rejected = phase.jobs.iter().filter(|j| j.rejected).count();
    metrics.push(
        "service.rejected",
        rejected as f64,
        "count",
        phase.jobs.len(),
    );
}

/// Fleet-wide share of keyed store lookups served from a worker cache.
fn hit_rate(exec: &Executor) -> f64 {
    let stats = exec.cache_stats().unwrap_or_default();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    let misses: u64 = stats.iter().map(|s| s.misses).sum();
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// One traced repetition of a cell.
struct TraceRep {
    /// First and second untraced sweep on one fresh executor.
    first: workload::SweepSample,
    second: workload::SweepSample,
    rss_growth_mb: f64,
    layers: traced::Layers,
    operand_bytes: u64,
    result_bytes: u64,
    hit_rate: f64,
    sim_s: f64,
}

/// Run one repetition of `cell`: two untraced sweeps on one fresh
/// executor, then the traced sweep on a second fresh executor. `None` if
/// a sweep failed.
fn trace_rep(
    opts: &RunOptions,
    setup: &Setup,
    cell: Cell,
    params: dmrg::SweepParams,
) -> tt_dist::Result<Option<TraceRep>> {
    let exec = cell.backend.executor(&opts.spawn)?;
    let sweep = || run_sweep(&exec, cell.algo, &setup.mpo, &setup.warm, params);
    let first = sweep();
    let rss_first = proc_status_mb("VmRSS");
    let second = sweep();
    let rss_growth_mb = proc_status_mb("VmRSS") - rss_first;
    drop(exec);
    let fresh = cell.backend.executor(&opts.spawn)?;
    let mut psi = setup.warm.clone();
    let layers = traced::traced_sweep(&fresh, cell.algo, &setup.mpo, &mut psi, &params);
    let (Ok(first), Ok(second), Ok(layers)) = (first, second, layers) else {
        return Ok(None);
    };
    Ok(Some(TraceRep {
        first,
        second,
        rss_growth_mb,
        layers,
        operand_bytes: fresh.operand_bytes(),
        result_bytes: fresh.result_bytes(),
        hit_rate: hit_rate(&fresh),
        sim_s: fresh.sim_time().total(),
    }))
}

/// The traced part: [`TRACE_REPS`] rounds over the cells (see
/// [`trace_rep`]). Every traced sweep must reproduce its first untraced
/// sweep's energy bits, flop count and matvec count; per-layer values are
/// medians over the rounds.
fn trace_cells(
    opts: &RunOptions,
    setup: &Setup,
    params: dmrg::SweepParams,
    check: &mut SweepCheck,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) -> tt_dist::Result<()> {
    let cells = Cell::all();
    let mut reps: Vec<Vec<TraceRep>> = cells.iter().map(|_| Vec::new()).collect();
    let mut per_algo: [Option<(u64, usize, u64)>; 3] = [None; 3];
    let mut worst_gap: f64 = 0.0;
    for _ in 0..TRACE_REPS {
        for (&cell, cell_reps) in cells.iter().zip(&mut reps) {
            let Some(r) = trace_rep(opts, setup, cell, params)? else {
                outcome.record(false);
                continue;
            };
            for s in [&r.first, &r.second] {
                outcome.record(check.check(cell, s.energy));
            }
            let l = &r.layers;
            let gap = (l.total_s - l.timed_s()) / l.total_s;
            worst_gap = worst_gap.max(gap);
            // flops, matvecs and the simulated cost are the same on every
            // backend of an algorithm
            let counts = (l.flops, l.matvecs, r.sim_s.to_bits());
            let i = SweepCheck::algo_index(cell.algo);
            let same_counts = *per_algo[i].get_or_insert(counts) == counts;
            let faithful = l.energy.to_bits() == r.first.energy.to_bits()
                && l.flops == r.first.flops
                && l.matvecs == r.first.matvecs
                && same_counts
                && gap.abs() <= LAYER_SUM_TOL;
            outcome.record(faithful && check.check(cell, l.energy));
            cell_reps.push(r);
        }
    }
    for (cell, cell_reps) in cells.iter().zip(&reps) {
        if cell_reps.is_empty() {
            continue;
        }
        let c = cell.name();
        let n = cell_reps.len();
        let mut push = |layer: &str, f: &dyn Fn(&TraceRep) -> f64, unit: &'static str| {
            let v: Vec<f64> = cell_reps.iter().map(f).collect();
            metrics.push(format!("{layer}.{c}"), median(&v), unit, n)
        };
        push("dmrg.heff.apply_s", &|r| r.layers.apply_s, "s");
        push(
            "dmrg.heff.apply_gflops",
            &|r| r.layers.apply_flops as f64 / r.layers.apply_s / 1e9,
            "GFlop/s",
        );
        push("tt_blocks.linalg.svd_s", &|r| r.layers.svd_s, "s");
        push("dmrg.env.extend_s", &|r| r.layers.extend_s, "s");
        push("dmrg.env.init_s", &|r| r.layers.env_init_s, "s");
        push("dmrg.heff.residency_s", &|r| r.layers.residency_s, "s");
        push("dmrg.davidson.self_s", &|r| r.layers.davidson_self_s, "s");
        push("tt_blocks.contract.twosite_s", &|r| r.layers.twosite_s, "s");
        push("driver.rss_growth_mb", &|r| r.rss_growth_mb, "MB");
        push(
            "trace.overhead",
            &|r| r.layers.total_s / r.first.seconds,
            "ratio",
        );
        if cell.backend == Backend::Mp2 {
            push(
                "driver.sweep_growth",
                &|r| r.second.seconds / r.first.seconds,
                "ratio",
            );
            push("tt_dist.operand_bytes", &|r| r.operand_bytes as f64, "B");
            push("tt_dist.result_bytes", &|r| r.result_bytes as f64, "B");
            push("tt_dist.cache_hit_rate", &|r| r.hit_rate, "ratio");
        }
    }
    for (algo, counts) in ALGOS.iter().zip(per_algo) {
        let (flops, matvecs, sim) = counts.unwrap_or((0, 0, f64::NAN.to_bits()));
        let a = algo_name(*algo);
        metrics.push(format!("tt_dist.flops.{a}"), flops as f64, "flop", 1);
        metrics.push(
            format!("dmrg.davidson.matvecs.{a}"),
            matvecs as f64,
            "count",
            1,
        );
        metrics.push(format!("tt_dist.sim_s.{a}"), f64::from_bits(sim), "s", 1);
    }
    metrics.push(
        "trace.unaccounted_share",
        worst_gap,
        "ratio",
        cells.len() * TRACE_REPS,
    );
    Ok(())
}
