//! Constrained Noisy Expected Improvement (NEI) with quasi-Monte-Carlo
//! integration — the acquisition function of Letham et al. \[21\] that the
//! paper adopts (§3.3): it "assumes the observed objective and constraint
//! values are not perfect and can process hard constraints".
//!
//! NEI handles noisy observations by integrating classic constrained EI
//! over the *joint posterior at the observed points*: each QMC sample
//! realizes a plausible noiseless objective/constraint at every observed
//! point, determines the feasible incumbent under that realization, and
//! scores the candidate's improvement; the NEI value is the QMC average.

// analysis:allow-file(panic-free-control-path): MC scoring indexes
// draws shaped (n_mc, len(points)) by construction.
// analysis:allow-file(no-alloc-in-decide-steady-state): QMC normal
// blocks and posterior draws live in an NeiScratch that grows to the
// decision's largest point set and is then reused.
use crate::BoError;
use tesla_gp::{qmc_normal_hybrid_into, FixedNoiseGp, JointPosterior, Matern52};
use tesla_linalg::cholesky::LANES;

/// Computes constrained-NEI scores for each candidate.
///
/// * `gp_obj` / `gp_con` — fixed-noise GPs over (set-point → objective,
///   maximized) and (set-point → constraint, feasible iff ≤ 0).
/// * `observed` — set-points already evaluated this decision.
/// * `candidates` — set-points to score.
/// * `n_mc` — QMC sample count.
pub fn constrained_nei(
    gp_obj: &FixedNoiseGp<Matern52>,
    gp_con: &FixedNoiseGp<Matern52>,
    observed: &[f64],
    candidates: &[f64],
    n_mc: usize,
    seed: u64,
) -> Result<Vec<f64>, BoError> {
    let points: Vec<Vec<f64>> = candidates
        .iter()
        .chain(observed.iter())
        .map(|&s| vec![s])
        .collect();
    constrained_nei_prelifted(gp_obj, gp_con, &points, candidates.len(), n_mc, seed)
}

/// [`constrained_nei`] over pre-lifted points: `points[..n_candidates]`
/// are the candidates to score and `points[n_candidates..]` the observed
/// set-points. Candidates-first ordering lets the optimizer keep ONE
/// `Vec<Vec<f64>>` buffer for the whole decision — the grid occupies the
/// fixed prefix and each new observation is appended at the end, so the
/// per-iteration point-lifting allocation disappears.
///
/// Scores through the same code as the optimizer, on fresh buffers; the
/// optimizer keeps its buffers for a whole decision instead.
pub fn constrained_nei_prelifted(
    gp_obj: &FixedNoiseGp<Matern52>,
    gp_con: &FixedNoiseGp<Matern52>,
    points: &[Vec<f64>],
    n_candidates: usize,
    n_mc: usize,
    seed: u64,
) -> Result<Vec<f64>, BoError> {
    NeiScratch::default()
        .score(gp_obj, gp_con, points, n_candidates, n_mc, seed)
        .map(<[f64]>::to_vec)
}

/// The buffers of constrained-NEI scoring, kept between calls: both GPs'
/// factored joint posteriors, their flat row-major QMC normal blocks, one
/// lane group of interleaved normals and of draws per GP, and the
/// scores. Buffers grow to the largest point set seen and are then
/// reused, so scoring in a BO loop allocates nothing after warm-up.
#[derive(Debug, Default)]
pub(crate) struct NeiScratch {
    obj: JointPosterior,
    con: JointPosterior,
    normals_obj: Vec<f64>,
    normals_con: Vec<f64>,
    zt: Vec<f64>,
    draws_obj: Vec<f64>,
    draws_con: Vec<f64>,
    scores: Vec<f64>,
}

impl NeiScratch {
    /// Scores `points[..n_candidates]` by constrained NEI against the
    /// observed `points[n_candidates..]` with `max(n_mc, 8)` QMC samples
    /// (see [`constrained_nei_prelifted`]).
    ///
    /// Samples are drawn [`LANES`] at a time from each GP's factored joint
    /// posterior and scored lane by lane in sample order, so every score
    /// accumulates its samples in the same order, with the same
    /// arithmetic, as drawing and scoring one sample at a time.
    pub(crate) fn score(
        &mut self,
        gp_obj: &FixedNoiseGp<Matern52>,
        gp_con: &FixedNoiseGp<Matern52>,
        points: &[Vec<f64>],
        n_candidates: usize,
        n_mc: usize,
        seed: u64,
    ) -> Result<&[f64], BoError> {
        self.scores.clear();
        if n_candidates == 0 {
            return Ok(&self.scores);
        }
        if n_candidates > points.len() {
            return Err(BoError::BadConfig(format!(
                "{n_candidates} candidates but only {} points",
                points.len()
            )));
        }
        let m = points.len();
        let n = n_mc.max(8);

        for (normals, seed) in [
            (&mut self.normals_obj, seed),
            (&mut self.normals_con, seed ^ 0xDEADBEEF),
        ] {
            normals.resize(n * m, 0.0);
            qmc_normal_hybrid_into(m, seed, normals);
        }
        gp_obj.joint_posterior_into(points, &mut self.obj)?;
        gp_con.joint_posterior_into(points, &mut self.con)?;
        for buf in [&mut self.zt, &mut self.draws_obj, &mut self.draws_con] {
            buf.resize(m * LANES, 0.0);
        }
        self.scores.resize(n_candidates, 0.0);

        let groups = self
            .normals_obj
            .chunks(m * LANES)
            .zip(self.normals_con.chunks(m * LANES));
        for (z_obj, z_con) in groups {
            interleave(z_obj, m, &mut self.zt);
            self.obj.draw_lanes(&self.zt, &mut self.draws_obj);
            interleave(z_con, m, &mut self.zt);
            self.con.draw_lanes(&self.zt, &mut self.draws_con);
            for lane in 0..z_obj.len() / m {
                let o = self.draws_obj.iter().skip(lane).step_by(LANES);
                let c = self.draws_con.iter().skip(lane).step_by(LANES);
                // Feasible incumbent under this realization.
                let mut incumbent = f64::NEG_INFINITY;
                let mut any_feasible = false;
                let mut worst = f64::INFINITY;
                for (&oi, &ci) in o.clone().zip(c.clone()).skip(n_candidates) {
                    worst = worst.min(oi);
                    if ci <= 0.0 {
                        any_feasible = true;
                        incumbent = incumbent.max(oi);
                    }
                }
                // With no feasible incumbent, improvement is measured
                // against the worst observed value so feasibility itself
                // is rewarded.
                let reference = if any_feasible {
                    incumbent
                } else if worst.is_finite() {
                    worst
                } else {
                    0.0
                };
                for (score, (&oi, &ci)) in self.scores.iter_mut().zip(o.zip(c)) {
                    if ci <= 0.0 {
                        *score += (oi - reference).max(0.0);
                    }
                }
            }
        }
        let n = n as f64;
        for s in &mut self.scores {
            *s /= n;
        }
        Ok(&self.scores)
    }
}

/// Copies the row-major length-`m` vectors of `rows` (at most [`LANES`])
/// into the lane-interleaved `zt` (`m x LANES`). Lanes past the last
/// vector keep stale values; lanes are independent and those are never
/// scored.
fn interleave(rows: &[f64], m: usize, zt: &mut [f64]) {
    for (lane, row) in rows.chunks_exact(m).enumerate() {
        for (z, &v) in zt.iter_mut().skip(lane).step_by(LANES).zip(row) {
            *z = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_gp::Matern52;
    use tesla_linalg::{Cholesky, Matrix};

    /// Per-sample draws `mean + L z`, one triangular matvec per normal
    /// vector, from the joint posterior's sampling covariance.
    fn per_sample_draws(
        gp: &FixedNoiseGp<Matern52>,
        points: &[Vec<f64>],
        n: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let m = points.len();
        let mut joint = JointPosterior::default();
        gp.joint_posterior_into(points, &mut joint).unwrap();
        let cov = Matrix::from_vec(m, m, joint.cov().to_vec()).unwrap();
        let chol = Cholesky::decompose_jittered(&cov, 1e-9, 12).unwrap();
        let l = chol.factor();
        let mut normals = vec![0.0; n * m];
        qmc_normal_hybrid_into(m, seed, &mut normals);
        normals
            .chunks(m)
            .map(|z| {
                (0..m)
                    .map(|i| {
                        let mut sum = 0.0;
                        for (k, &zk) in z.iter().enumerate().take(i + 1) {
                            sum += l[(i, k)] * zk;
                        }
                        joint.mean()[i] + sum
                    })
                    .collect()
            })
            .collect()
    }

    /// The one-sample-at-a-time scorer the lane-batched one replaced,
    /// kept as the bit-identity reference.
    fn reference_nei(
        gp_obj: &FixedNoiseGp<Matern52>,
        gp_con: &FixedNoiseGp<Matern52>,
        points: &[Vec<f64>],
        n_candidates: usize,
        n_mc: usize,
        seed: u64,
    ) -> Vec<f64> {
        let m = points.len();
        let n = n_mc.max(8);
        let draws_obj = per_sample_draws(gp_obj, points, n, seed);
        let draws_con = per_sample_draws(gp_con, points, n, seed ^ 0xDEADBEEF);
        let mut scores = vec![0.0; n_candidates];
        for (sample_o, sample_c) in draws_obj.iter().zip(&draws_con) {
            let mut incumbent = f64::NEG_INFINITY;
            let mut any_feasible = false;
            let mut worst = f64::INFINITY;
            for i in n_candidates..m {
                worst = worst.min(sample_o[i]);
                if sample_c[i] <= 0.0 {
                    any_feasible = true;
                    incumbent = incumbent.max(sample_o[i]);
                }
            }
            let reference = if any_feasible {
                incumbent
            } else if worst.is_finite() {
                worst
            } else {
                0.0
            };
            for (score, (&o, &c)) in scores.iter_mut().zip(sample_o.iter().zip(sample_c)) {
                if c <= 0.0 {
                    *score += (o - reference).max(0.0);
                }
            }
        }
        let n = draws_obj.len() as f64;
        for s in &mut scores {
            *s /= n;
        }
        scores
    }

    #[test]
    fn lane_batched_scores_are_bit_identical_to_per_sample() {
        let (gp_o, gp_c, xs) = fixture();
        let (gp_o2, gp_c2, xs2) = infeasible_fixture();
        let mut scratch = NeiScratch::default();
        // m = candidates + observed: 16 (multiple of 8), 12 (of 4 only),
        // 13 and 77 (of neither); 3 observed in the infeasible fixture.
        for (gp_o, gp_c, xs) in [(&gp_o, &gp_c, &xs), (&gp_o2, &gp_c2, &xs2)] {
            for n_cand in [10usize, 6, 7, 71, 13] {
                let points: Vec<Vec<f64>> = (0..n_cand)
                    .map(|i| 10.0 * i as f64 / (n_cand - 1) as f64)
                    .chain(xs.iter().copied())
                    .map(|s| vec![s])
                    .collect();
                // 64 samples fill whole lane groups, 20 leave a ragged
                // one, 5 is raised to 8.
                for (n_mc, seed) in [(64usize, 1u64), (20, 9), (5, 0xABCD), (64, 77)] {
                    let want = reference_nei(gp_o, gp_c, &points, n_cand, n_mc, seed);
                    let got = scratch
                        .score(gp_o, gp_c, &points, n_cand, n_mc, seed)
                        .unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&want), "m={} n_mc={n_mc}", points.len());
                    assert!(want.iter().any(|&s| s > 0.0));
                }
            }
        }
    }

    /// GP pair for a simple 1-D problem on \[0, 10\]:
    /// objective f(s) = −(s − 7)², constraint c(s) = s − 8 (feasible s ≤ 8).
    fn fixture() -> (FixedNoiseGp<Matern52>, FixedNoiseGp<Matern52>, Vec<f64>) {
        let xs: Vec<f64> = vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0];
        let pts: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let obj: Vec<f64> = xs.iter().map(|&s| -(s - 7.0) * (s - 7.0)).collect();
        let con: Vec<f64> = xs.iter().map(|&s| s - 8.0).collect();
        let noise = vec![1e-4; xs.len()];
        let gp_o = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts.clone(), &obj, &noise).unwrap();
        let gp_c = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts, &con, &noise).unwrap();
        (gp_o, gp_c, xs)
    }

    #[test]
    fn prefers_the_feasible_optimum_region() {
        let (gp_o, gp_c, xs) = fixture();
        let candidates = vec![1.0, 3.0, 5.0, 7.0, 9.0];
        let scores = constrained_nei(&gp_o, &gp_c, &xs, &candidates, 128, 1).unwrap();
        // s = 7 is the feasible optimum; it must out-score the far-left
        // candidates and the infeasible s = 9.
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(candidates[best], 7.0, "scores {scores:?}");
    }

    #[test]
    fn infeasible_candidates_score_near_zero() {
        let (gp_o, gp_c, xs) = fixture();
        let scores = constrained_nei(&gp_o, &gp_c, &xs, &[9.5], 128, 2).unwrap();
        assert!(scores[0] < 0.5, "infeasible candidate scored {}", scores[0]);
    }

    #[test]
    fn empty_candidates_ok() {
        let (gp_o, gp_c, xs) = fixture();
        assert!(constrained_nei(&gp_o, &gp_c, &xs, &[], 64, 3)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (gp_o, gp_c, xs) = fixture();
        let a = constrained_nei(&gp_o, &gp_c, &xs, &[5.0, 7.0], 64, 9).unwrap();
        let b = constrained_nei(&gp_o, &gp_c, &xs, &[5.0, 7.0], 64, 9).unwrap();
        assert_eq!(a, b);
    }

    /// Observations only in the infeasible region s > 8.
    fn infeasible_fixture() -> (FixedNoiseGp<Matern52>, FixedNoiseGp<Matern52>, Vec<f64>) {
        let xs = vec![8.5, 9.0, 9.5];
        let pts: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let obj: Vec<f64> = xs.iter().map(|&s| -(s - 7.0) * (s - 7.0)).collect();
        let con: Vec<f64> = xs.iter().map(|&s| s - 8.0).collect();
        let noise = vec![1e-4; 3];
        let gp_o = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts.clone(), &obj, &noise).unwrap();
        let gp_c = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts, &con, &noise).unwrap();
        (gp_o, gp_c, xs)
    }

    #[test]
    fn all_observed_infeasible_still_rewards_feasible_candidates() {
        // A feasible candidate should still get a positive score.
        let (gp_o, gp_c, xs) = infeasible_fixture();
        let scores = constrained_nei(&gp_o, &gp_c, &xs, &[7.0], 128, 4).unwrap();
        assert!(scores[0] > 0.0);
    }
}
