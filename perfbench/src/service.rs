//! The solve-service phase: a closed loop of client connections feeding
//! DMRG jobs to an in-process `Service` with a two-worker fleet.

use crate::workload::System;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tt_dist::service::{
    AlgoSpec, DavidsonSpec, DmrgJobSpec, JobEvent, ModelSpec, Service, ServiceClient, ServiceConfig,
};
use tt_dist::{Executor, SpawnSpec};

/// Client connections of the closed loop. `ServiceClient::wait` blocks on
/// one job id, so each connection keeps one job outstanding (a second
/// job on the same connection that finished first would be timed late);
/// four connections against `MAX_CONCURRENT` runners keep up to two
/// jobs waiting in the queue.
pub const CLIENTS: usize = 4;
/// Jobs per closed-loop chunk. A run serves its sequence in chunks
/// between sweep rounds, so the service samples the whole run rather than
/// one stretch of it (the machine's speed drifts over seconds).
pub const CHUNK: usize = 6;
pub const MAX_CONCURRENT: usize = 2;
pub const WORKERS: usize = 2;

/// The job mix of `system`: its chain model under list, sd and ss, each a
/// full solve from a product state over the ramp m = 8, 16.
pub fn job_specs(system: System, chain_n: u64, seed: u64) -> Vec<DmrgJobSpec> {
    let model = match system {
        System::Spins => ModelSpec::HeisenbergChain {
            n: chain_n,
            j2: 0.0,
        },
        System::Electrons => ModelSpec::HubbardChain { n: chain_n, u: 8.5 },
    };
    [
        AlgoSpec::List,
        AlgoSpec::SparseDense,
        AlgoSpec::SparseSparse,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, algo)| DmrgJobSpec {
        model: model.clone(),
        algo,
        ms: vec![8, 16],
        sweeps_per_m: 1,
        cutoff: 1e-12,
        noise: 1e-5,
        davidson: DavidsonSpec {
            max_iter: 4,
            max_subspace: 2,
            tol: 1e-10,
            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
        },
        timeout_ms: 0,
        resident_cap_bytes: 0,
    })
    .collect()
}

/// Submission order: whole rounds of the mix, each the list job (index 0,
/// by far the slowest on the service) followed by sd and ss in seeded
/// order. The list job's place in the round shapes the queue (which jobs
/// wait behind it), so it stays fixed: the seed changes the inputs but
/// not the shape of the load.
pub fn job_sequence(jobs: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut coin = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 63 == 1
    };
    let mut seq = Vec::with_capacity(jobs);
    while seq.len() < jobs {
        seq.extend(if coin() { [0, 1, 2] } else { [0, 2, 1] });
    }
    seq.truncate(jobs);
    seq
}

/// In-process reference of every spec, computed outside the timed window.
#[derive(Clone, Debug)]
pub struct Reference {
    pub energy: f64,
    /// Median wall seconds of `run_reference` on a fresh local executor.
    pub seconds: f64,
}

pub fn references(specs: &[DmrgJobSpec]) -> Vec<Reference> {
    specs
        .iter()
        .map(|spec| {
            let mut runs: Vec<(f64, f64)> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = dmrg::run_reference(spec, &Executor::local())
                        .expect("in-process reference solve");
                    (t0.elapsed().as_secs_f64(), out.energy)
                })
                .collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            Reference {
                energy: runs[1].1,
                seconds: runs[1].0,
            }
        })
        .collect()
}

pub fn start(socket: &Path, spawn: &SpawnSpec, max_queued: usize) -> tt_dist::Result<Service> {
    let mut cfg = ServiceConfig::new(socket, WORKERS);
    cfg.spawn = spawn.clone();
    cfg.max_concurrent = MAX_CONCURRENT;
    cfg.max_queued = max_queued;
    Service::start(cfg, Some(Arc::new(dmrg::DmrgSolveRunner)))
}

/// Client-side timing of one job.
#[derive(Clone, Debug)]
pub struct JobSample {
    pub spec: usize,
    /// `submit_dmrg` until admission.
    pub submit_s: f64,
    /// Submission until the `Started` event.
    pub queue_s: f64,
    /// `Started` until `Done`.
    pub run_s: f64,
    /// Submission until `Done` (the job latency).
    pub total_s: f64,
    /// Energy of a finished job; `None` if it was rejected or failed.
    pub energy: Option<f64>,
    /// Admission control turned the submission away.
    pub rejected: bool,
}

/// Jobs served so far and the wall time spent serving them.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobSample>,
    pub wall_s: f64,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.jobs.extend(other.jobs);
        self.wall_s += other.wall_s;
    }
}

/// One closed-loop chunk: `CLIENTS` connections draw jobs from `sequence`
/// until it is exhausted. Drawing and submitting happen under one lock,
/// so jobs reach the daemon in sequence order rather than in the order the
/// client threads happen to run.
pub fn run_chunk(socket: &Path, specs: &[DmrgJobSpec], sequence: &[usize]) -> Phase {
    let cursor = Mutex::new(0usize);
    let jobs = Mutex::new(Vec::with_capacity(sequence.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = ServiceClient::connect(socket, Duration::from_secs(10)).ok();
                while let Some(sample) = one_job(client.as_mut(), &cursor, sequence, specs) {
                    jobs.lock().expect("job list lock").push(sample);
                }
            });
        }
    });
    Phase {
        jobs: jobs.into_inner().expect("job list lock"),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Submit the next job of `sequence` and wait for it; `None` once the
/// sequence is exhausted. Without a connection the job counts as failed.
fn one_job(
    client: Option<&mut ServiceClient>,
    cursor: &Mutex<usize>,
    sequence: &[usize],
    specs: &[DmrgJobSpec],
) -> Option<JobSample> {
    let mut next = cursor.lock().expect("cursor lock");
    let spec = *sequence.get(*next)?;
    *next += 1;
    let mut sample = JobSample {
        spec,
        submit_s: 0.0,
        queue_s: 0.0,
        run_s: 0.0,
        total_s: 0.0,
        energy: None,
        rejected: false,
    };
    let Some(client) = client else {
        return Some(sample);
    };
    let t0 = Instant::now();
    let submitted = client.submit_dmrg(&specs[spec]);
    drop(next);
    let Ok(id) = submitted else {
        sample.rejected = true;
        return Some(sample);
    };
    sample.submit_s = t0.elapsed().as_secs_f64();
    let mut started = None;
    let report = client.wait_with(id, |ev| {
        if matches!(ev, JobEvent::Started { .. }) {
            started = Some(Instant::now());
        }
    });
    let done = Instant::now();
    let started = started.unwrap_or(done);
    sample.queue_s = (started - t0).as_secs_f64();
    sample.run_s = (done - started).as_secs_f64();
    sample.total_s = (done - t0).as_secs_f64();
    sample.energy = report.ok().map(|r| r.energy);
    Some(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_list_first_rounds_in_seeded_order() {
        let seq = job_sequence(24, 7);
        assert_eq!(seq.len(), 24);
        for round in seq.chunks(3) {
            assert_eq!(round[0], 0, "each round starts with the list job");
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2]);
        }
        assert_eq!(seq, job_sequence(24, 7));
        assert!((0..20).any(|s| job_sequence(24, s) != seq));
        // a shorter run serves a prefix of a longer one
        assert_eq!(job_sequence(6, 7), seq[..6]);
    }
}
