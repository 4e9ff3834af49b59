//! The traced sweep: a benchmark-side copy of `Dmrg::run` and
//! `Dmrg::optimize_bond` that makes the same public calls in the same
//! order, with a wall-clock timer around each layer's call.
//!
//! Spans live here, around the calls into each layer, not inside the
//! library. The copy must reproduce `Dmrg::run` bit for bit (energy and
//! flop count); [`crate::run`] fails the run where it does not.

use dmrg::{davidson, extend_left, extend_right, EffectiveHam, Environments, SweepParams};
use std::time::Instant;
use tt_blocks::contract::contract;
use tt_blocks::{block_svd, scale_bond, Algorithm};
use tt_dist::Executor;
use tt_linalg::TruncSpec;
use tt_mps::{Mpo, Mps};

/// Per-layer wall seconds and counts of one traced sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `Mps::canonicalize` plus `Environments::initialize`.
    pub env_init_s: f64,
    /// The two-site contraction `x₀ = A_j · A_{j+1}`.
    pub twosite_s: f64,
    /// `EffectiveHam::upload` plus the release when the `ResidentHam`
    /// drops.
    pub residency_s: f64,
    /// Inside `ResidentHam::apply` (the Davidson matvecs).
    pub apply_s: f64,
    /// Flops counted inside `ResidentHam::apply`.
    pub apply_flops: u64,
    /// `davidson` minus the matvecs inside it.
    pub davidson_self_s: f64,
    /// `block_svd` plus absorbing and renormalising the singular values.
    pub svd_s: f64,
    /// `extend_left` / `extend_right`.
    pub extend_s: f64,
    pub matvecs: usize,
    /// Wall seconds of the whole traced sweep.
    pub total_s: f64,
    pub energy: f64,
    /// Flops the executor counted over the whole sweep.
    pub flops: u64,
}

impl Layers {
    /// Sum of the timed layers; the rest of `total_s` is untimed glue
    /// (environment clones, loop control).
    pub fn timed_s(&self) -> f64 {
        self.env_init_s
            + self.twosite_s
            + self.residency_s
            + self.apply_s
            + self.davidson_self_s
            + self.svd_s
            + self.extend_s
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced L→R→L sweep of `psi` (modified in place). Supports the
/// benchmark's noise-free sweeps only.
pub fn traced_sweep(
    exec: &Executor,
    algo: Algorithm,
    mpo: &Mpo,
    psi: &mut Mps,
    params: &SweepParams,
) -> dmrg::Result<Layers> {
    let sweep_err = |e: &dyn std::fmt::Display| dmrg::Error::Sweep(e.to_string());
    if params.noise != 0.0 {
        return Err(dmrg::Error::Sweep(
            "the traced sweep has no noise step".into(),
        ));
    }
    let n = psi.n_sites();
    if n < 2 || n != mpo.n_sites() {
        return Err(dmrg::Error::Sweep("MPO/MPS size mismatch".into()));
    }
    let mut l = Layers::default();
    let flops0 = exec.total_flops();
    let start = Instant::now();

    let t = Instant::now();
    psi.canonicalize(exec, 0).map_err(|e| sweep_err(&e))?;
    let mut envs = Environments::initialize(exec, algo, psi, mpo)?;
    l.env_init_s += secs(t);

    let bonds = (0..n - 1)
        .map(|j| (j, true))
        .chain((0..n - 1).rev().map(|j| (j, false)));
    for (j, moving_right) in bonds {
        let missing = |side: &str| dmrg::Error::Sweep(format!("missing {side} env at {j}"));
        let left = envs.left[j].clone().ok_or_else(|| missing("left"))?;
        let right = envs.right[j + 1].clone().ok_or_else(|| missing("right"))?;

        let t = Instant::now();
        let x0 = contract(
            exec,
            algo,
            "lsj,jtk->lstk",
            psi.tensor(j),
            psi.tensor(j + 1),
        )
        .map_err(|e| sweep_err(&e))?;
        l.twosite_s += secs(t);

        let heff = EffectiveHam {
            exec,
            algo,
            left: &left,
            w1: mpo.tensor(j),
            w2: mpo.tensor(j + 1),
            right: &right,
        };
        let t = Instant::now();
        let rham = heff.upload()?;
        l.residency_s += secs(t);

        let (mut apply_s, mut apply_flops) = (0.0, 0u64);
        let t = Instant::now();
        let (dres, x) = davidson(
            |v| {
                let (f0, t) = (exec.total_flops(), Instant::now());
                let y = rham.apply(v);
                apply_s += secs(t);
                apply_flops += exec.total_flops() - f0;
                y
            },
            &x0,
            params.davidson,
        )?;
        l.davidson_self_s += secs(t) - apply_s;
        l.apply_s += apply_s;
        l.apply_flops += apply_flops;
        l.matvecs += dres.matvecs;
        l.energy = dres.lambda;

        let t = Instant::now();
        drop(rham);
        l.residency_s += secs(t);

        let t = Instant::now();
        let svd = block_svd(
            exec,
            &x,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: params.max_m,
                cutoff: params.cutoff,
                min_keep: 1,
            },
        )
        .map_err(|e| sweep_err(&e))?;
        let (u, vt) = if moving_right {
            let mut svt = svd.vt;
            scale_bond(&mut svt, 0, &svd.s, false).map_err(|e| sweep_err(&e))?;
            let nrm = svt.norm();
            if nrm > 0.0 {
                svt.scale_mut(1.0 / nrm);
            }
            (svd.u, svt)
        } else {
            let mut us = svd.u;
            scale_bond(&mut us, 2, &svd.s, false).map_err(|e| sweep_err(&e))?;
            let nrm = us.norm();
            if nrm > 0.0 {
                us.scale_mut(1.0 / nrm);
            }
            (us, svd.vt)
        };
        psi.set_tensor(j, u);
        psi.set_tensor(j + 1, vt);
        l.svd_s += secs(t);

        let t = Instant::now();
        if moving_right {
            envs.left[j + 1] = Some(extend_left(
                exec,
                algo,
                &left,
                psi.tensor(j),
                mpo.tensor(j),
            )?);
        } else {
            envs.right[j] = Some(extend_right(
                exec,
                algo,
                &right,
                psi.tensor(j + 1),
                mpo.tensor(j + 1),
            )?);
        }
        l.extend_s += secs(t);
    }
    l.total_s = secs(start);
    l.flops = exec.total_flops() - flops0;
    Ok(l)
}
