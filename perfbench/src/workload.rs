//! The benchmark's workloads, cells and problem set-up.
//!
//! A *cell* is one block algorithm × one backend. Every workload times
//! warm two-site sweeps in all nine cells and serves a job mix through the
//! solve service, so every metric exists on every workload.

use dmrg::{DavidsonOptions, Dmrg, Schedule, SweepParams};
use std::time::Instant;
use tt_blocks::Algorithm;
use tt_dist::{ExecMode, Executor, Machine, SpawnSpec};
use tt_mps::{
    electron_filling, heisenberg_j1j2, hubbard, neel_state, Electron, Lattice, Mpo, Mps, SpinHalf,
};

/// The two physical systems of the paper's benchmarks (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// J1–J2 Heisenberg (J2 = 0.5) on a square cylinder: d = 2, one U(1)
    /// charge, few large blocks.
    Spins,
    /// Triangular Hubbard (t = 1, U = 8.5) on an XC cylinder: d = 4, two
    /// U(1) charges, many tiny blocks.
    Electrons,
}

/// How big a run is. `Smoke` is a subset of `Full`: the same lattice
/// at a bond dimension the full run's warm-up ramp passes through, and a
/// prefix of the full run's job sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Sizes of one workload at one scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    pub lx: usize,
    pub ly: usize,
    /// Bond dimension of the warm state and of the timed sweeps.
    pub m: usize,
    /// Sites of the service job chains.
    pub chain_n: u64,
    /// Service jobs per run (whole rounds of the three-algorithm mix).
    pub jobs: usize,
}

impl System {
    pub fn parse(name: &str) -> Option<System> {
        match name {
            "spins" => Some(System::Spins),
            "electrons" => Some(System::Electrons),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            System::Spins => "spins",
            System::Electrons => "electrons",
        }
    }

    pub fn size(self, scale: Scale) -> Size {
        let (lx, ly, chain_n) = match self {
            System::Spins => (3, 4, 8),
            System::Electrons => (3, 2, 4),
        };
        let (m, jobs) = match scale {
            Scale::Full => (64, 24),
            Scale::Smoke => (16, 6),
        };
        Size {
            lx,
            ly,
            m,
            chain_n,
            jobs,
        }
    }

    fn lattice(self, size: Size) -> Lattice {
        match self {
            System::Spins => Lattice::square_cylinder(size.lx, size.ly),
            System::Electrons => Lattice::triangular_cylinder_xc(size.lx, size.ly),
        }
    }

    /// Build the Hamiltonian MPO (compressed for electrons, as the paper
    /// does) and the initial product state.
    pub fn problem(self, size: Size) -> (Mpo, Mps) {
        let lat = self.lattice(size);
        let n = lat.n_sites();
        match self {
            System::Spins => (
                heisenberg_j1j2(&lat, 1.0, 0.5).build().expect("J1-J2 MPO"),
                Mps::product_state(&SpinHalf, &neel_state(n)).expect("Neel state"),
            ),
            System::Electrons => {
                let mut mpo = hubbard(&lat, 1.0, 8.5).build().expect("Hubbard MPO");
                mpo.compress(&Executor::local(), 1e-13)
                    .expect("MPO compression");
                let psi = Mps::product_state(&Electron, &electron_filling(n, n / 2, n / 2))
                    .expect("half filling");
                (mpo, psi)
            }
        }
    }
}

/// The bond dimensions of the warm-up ramp: 8, 16, … doubling up to `m`.
pub fn warmup_ramp(m: usize) -> Vec<usize> {
    let mut ms = Vec::new();
    let mut k = 8;
    while k < m {
        ms.push(k);
        k *= 2;
    }
    ms.push(m);
    ms
}

/// Grow `psi` to bond dimension `m` with one list/sequential sweep per
/// ramp rung (fixed seed: the warm state does not depend on the run's
/// seed, so every seed times the same sweeps). Returns the last energy.
pub fn warm_up(mpo: &Mpo, psi: &mut Mps, m: usize) -> f64 {
    let ms = warmup_ramp(m);
    let dav = DavidsonOptions {
        max_iter: 4,
        max_subspace: 2,
        tol: 1e-9,
        seed: 11,
    };
    let schedule = Schedule {
        sweeps: ms
            .iter()
            .enumerate()
            .map(|(i, &m)| SweepParams {
                max_m: m,
                cutoff: 1e-12,
                davidson: dav,
                noise: if i + 1 < ms.len() { 1e-5 } else { 0.0 },
            })
            .collect(),
    };
    let exec = Executor::local();
    Dmrg::new(&exec, Algorithm::List, mpo)
        .run(psi, &schedule)
        .expect("warm-up sweeps")
        .energy
}

/// Parameters of a timed sweep: fixed `m`, no noise, and a Davidson
/// tolerance of zero so every bond runs exactly `max_iter` matvecs
/// whatever the seed — every seed does the same work.
pub fn timed_sweep_params(m: usize, seed: u64) -> SweepParams {
    SweepParams {
        max_m: m,
        cutoff: 1e-12,
        davidson: DavidsonOptions {
            max_iter: 2,
            max_subspace: 2,
            tol: 0.0,
            seed,
        },
        noise: 0.0,
    }
}

pub const ALGOS: [Algorithm; 3] = [
    Algorithm::List,
    Algorithm::SparseDense,
    Algorithm::SparseSparse,
];

pub fn algo_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::List => "list",
        Algorithm::SparseDense => "sd",
        Algorithm::SparseSparse => "ss",
    }
}

/// The executor a cell runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `Executor::local()`: the plain single-threaded baseline.
    Seq,
    /// In-process `ExecMode::Threaded` (the pool takes every core).
    Thr,
    /// `Backend::MultiProcess` with two worker processes.
    Mp2,
}

impl Backend {
    pub const ALL: [Backend; 3] = [Backend::Seq, Backend::Thr, Backend::Mp2];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Seq => "seq",
            Backend::Thr => "thr",
            Backend::Mp2 => "mp2",
        }
    }

    /// A fresh executor; `spawn` launches the mp2 workers.
    pub fn executor(self, spawn: &SpawnSpec) -> tt_dist::Result<Executor> {
        Ok(match self {
            Backend::Seq => Executor::local(),
            Backend::Thr => Executor::with_machine(Machine::local(), 1, ExecMode::Threaded),
            Backend::Mp2 => Executor::multi_process(Machine::local(), 1, 2, spawn.clone())?,
        })
    }
}

/// One algorithm × backend pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub algo: Algorithm,
    pub backend: Backend,
}

impl Cell {
    /// All nine cells, backend-major with `seq` first, so every
    /// algorithm's sequential reference exists before the other backends
    /// are checked against it.
    pub fn all() -> Vec<Cell> {
        Backend::ALL
            .iter()
            .flat_map(|&backend| ALGOS.iter().map(move |&algo| Cell { algo, backend }))
            .collect()
    }

    /// `<algo>.<backend>`, the metric-name suffix.
    pub fn name(self) -> String {
        format!("{}.{}", algo_name(self.algo), self.backend.name())
    }
}

/// One sweep, timed around the `Dmrg::run` call.
#[derive(Clone, Copy, Debug)]
pub struct SweepSample {
    /// Wall seconds of the whole `Dmrg::run` call.
    pub seconds: f64,
    pub energy: f64,
    /// Flops the executor counted during the call.
    pub flops: u64,
    /// Davidson matvecs over all bonds.
    pub matvecs: usize,
}

/// One full L→R→L sweep of the warm state through `Dmrg::run` — the unit
/// every `sweep_s` sample times, canonicalisation and environment build
/// included. The warm state is cloned, so every sample starts from the
/// same input.
pub fn run_sweep(
    exec: &Executor,
    algo: Algorithm,
    mpo: &Mpo,
    warm: &Mps,
    params: SweepParams,
) -> dmrg::Result<SweepSample> {
    let mut psi = warm.clone();
    let flops0 = exec.total_flops();
    let t0 = Instant::now();
    let run = Dmrg::new(exec, algo, mpo).run(
        &mut psi,
        &Schedule {
            sweeps: vec![params],
        },
    )?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(SweepSample {
        seconds,
        energy: run.energy,
        flops: exec.total_flops() - flops0,
        matvecs: run
            .sweeps
            .iter()
            .flat_map(|s| &s.sites)
            .map(|s| s.matvecs)
            .sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_subset_of_full() {
        for sys in [System::Spins, System::Electrons] {
            let (full, smoke) = (sys.size(Scale::Full), sys.size(Scale::Smoke));
            assert_eq!(
                (smoke.lx, smoke.ly, smoke.chain_n),
                (full.lx, full.ly, full.chain_n)
            );
            assert!(warmup_ramp(full.m).contains(&smoke.m));
            assert!(smoke.jobs < full.jobs && smoke.jobs % 3 == 0 && full.jobs % 3 == 0);
        }
    }

    #[test]
    fn nine_cells_seq_first() {
        let cells = Cell::all();
        assert_eq!(cells.len(), 9);
        assert!(cells[..3].iter().all(|c| c.backend == Backend::Seq));
        assert_eq!(cells[0].name(), "list.seq");
    }
}
