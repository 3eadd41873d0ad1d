//! Exact Gaussian-process regression with per-observation (fixed) noise.
//!
//! Mirrors BoTorch's `FixedNoiseGP` (§3.3): the observation noise is not a
//! learned hyper-parameter but *supplied per point* — TESLA feeds it the
//! bootstrap variance from its prediction-error monitor, which is how the
//! optimizer becomes "modeling-error-aware".
//!
//! Because the optimizer refits the same training set across an entire
//! lengthscale x outputscale hyper grid at every BO iteration, this module
//! is built around two reuse mechanisms:
//!
//! * a **pairwise-distance cache** ([`pairwise_distances`]): stationary
//!   kernels only need `r / lengthscale`, so the Euclidean distances are
//!   computed once per training set and shared by every hyper candidate;
//! * an **incremental rank-1 update** ([`FixedNoiseGp::append_observation`]
//!   and [`MaternHyperSearch::append`]): appending one BO observation
//!   extends the Cholesky factorization in `O(n^2)` instead of
//!   refactorizing in `O(n^3)`.

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::kernel::{euclidean_distance, Kernel, Matern52};
use crate::GpError;
use tesla_linalg::cholesky::{factor_jittered_into, lower_affine_lanes};
use tesla_linalg::vector::dot;
use tesla_linalg::{Cholesky, LinalgError, Matrix};

/// Posterior at a batch of query points.
#[derive(Debug, Clone)]
pub struct Posterior {
    /// Posterior means.
    pub mean: Vec<f64>,
    /// Posterior (latent) variances, floored at zero.
    pub var: Vec<f64>,
}

/// Euclidean distances between all pairs of points (symmetric, zero
/// diagonal). Computed once per training set and reused across every
/// hyper-parameter candidate of a stationary-kernel fit.
pub fn pairwise_distances(x: &[Vec<f64>]) -> Matrix {
    let n = x.len();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let r = euclidean_distance(&x[i], &x[j]);
            d[(i, j)] = r;
            d[(j, i)] = r;
        }
    }
    d
}

/// A fitted fixed-noise GP.
#[derive(Debug)]
pub struct FixedNoiseGp<K: Kernel> {
    kernel: K,
    x: Vec<Vec<f64>>,
    /// Training targets (kept for incremental appends).
    y: Vec<f64>,
    /// Per-point noise variances (kept for incremental appends).
    noise_var: Vec<f64>,
    /// `K + diag(noise)` factorization.
    chol: Cholesky,
    /// `(K + Σ)⁻¹ (y − μ)`.
    alpha: Vec<f64>,
    /// Constant prior mean (the training-target mean).
    mean: f64,
    /// Residuals for the marginal-likelihood computation.
    log_marginal: f64,
}

impl<K: Kernel> FixedNoiseGp<K> {
    /// Fits on training points `x`, targets `y`, and per-point noise
    /// *variances*.
    pub fn fit(kernel: K, x: Vec<Vec<f64>>, y: &[f64], noise_var: &[f64]) -> Result<Self, GpError> {
        let dists = pairwise_distances(&x);
        Self::fit_from_distances(kernel, x, y, noise_var, &dists)
    }

    /// Like [`FixedNoiseGp::fit`], but reuses a precomputed
    /// pairwise-distance matrix (see [`pairwise_distances`]) so a hyper
    /// grid over the same training set pays for the distances once.
    pub fn fit_from_distances(
        kernel: K,
        x: Vec<Vec<f64>>,
        y: &[f64],
        noise_var: &[f64],
        dists: &Matrix,
    ) -> Result<Self, GpError> {
        check_training_set(&x, y, noise_var)?;
        let n = x.len();
        if dists.shape() != (n, n) {
            return Err(GpError::Shape(format!(
                "distance matrix is {:?}, need ({n}, {n})",
                dists.shape()
            )));
        }

        let chol = Cholesky::decompose_jittered(&gram_matrix(&kernel, dists, noise_var), 1e-8, 12)
            .map_err(numerical)?;
        Self::from_factor(kernel, x, y.to_vec(), noise_var.to_vec(), chol)
    }

    /// Assembles a GP around an already computed factor of
    /// `K + diag(noise)` over `x`.
    fn from_factor(
        kernel: K,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        noise_var: Vec<f64>,
        chol: Cholesky,
    ) -> Result<Self, GpError> {
        let mut gp = FixedNoiseGp {
            kernel,
            x,
            y,
            noise_var,
            chol,
            alpha: Vec::new(),
            mean: 0.0,
            log_marginal: 0.0,
        };
        gp.refresh_alpha()?;
        Ok(gp)
    }

    /// Recomputes mean, alpha, and the log marginal likelihood from the
    /// current factorization and targets (`O(n^2)`).
    fn refresh_alpha(&mut self) -> Result<(), GpError> {
        self.mean = target_mean(&self.y);
        let resid = centred(&self.y, self.mean);
        let (alpha, log_marginal) =
            alpha_and_log_marginal(&self.chol, &resid).map_err(numerical)?;
        self.alpha = alpha;
        self.log_marginal = log_marginal;
        Ok(())
    }

    /// Appends one observation, extending the Cholesky factorization with
    /// a rank-1 row update (`O(n^2)`) instead of refitting (`O(n^3)`).
    ///
    /// Falls back to a full jittered refactorization when the incremental
    /// update is numerically indefinite (e.g. a near-duplicate point).
    pub fn append_observation(
        &mut self,
        x_new: Vec<f64>,
        y_new: f64,
        noise_var: f64,
    ) -> Result<(), GpError> {
        if let Some(first) = self.x.first() {
            if x_new.len() != first.len() {
                return Err(GpError::Shape(format!(
                    "new point has {} dims, training set has {}",
                    x_new.len(),
                    first.len()
                )));
            }
        }
        let col: Vec<f64> = self.x.iter().map(|p| self.kernel.eval(p, &x_new)).collect();
        let diag = self.kernel.diag() + noise_var.max(0.0) + 1e-10;
        let appended = self.chol.append_row(&col, diag).is_ok();
        self.x.push(x_new);
        self.y.push(y_new);
        self.noise_var.push(noise_var);
        if !appended {
            // Full refit with jitter escalation.
            let dists = pairwise_distances(&self.x);
            self.chol = Cholesky::decompose_jittered(
                &gram_matrix(&self.kernel, &dists, &self.noise_var),
                1e-8,
                12,
            )
            .map_err(numerical)?;
        }
        self.refresh_alpha()
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// The log marginal likelihood of the training data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// The constant prior mean.
    pub fn prior_mean(&self) -> f64 {
        self.mean
    }

    /// Cross-covariance vectors between every query and the training set,
    /// flattened query-major (`queries.len() * n_train` entries).
    fn kstar_flat(&self, queries: &[Vec<f64>]) -> Vec<f64> {
        let n = self.x.len();
        let mut flat = Vec::with_capacity(queries.len() * n);
        for q in queries {
            for p in &self.x {
                flat.push(self.kernel.eval(p, q));
            }
        }
        flat
    }

    /// Posterior mean and variance at each query point (marginals).
    ///
    /// All queries are solved through **one** batched whitened solve
    /// ([`Cholesky::forward_substitute_batch`]) rather than a vector
    /// solve per query, so scoring a candidate grid is a single pass.
    pub fn posterior(&self, queries: &[Vec<f64>]) -> Posterior {
        let n = self.x.len();
        let kstar = self.kstar_flat(queries);
        let whitened = self
            .chol
            .forward_substitute_batch(&kstar)
            .unwrap_or_else(|_| kstar.clone());
        let mut mean = Vec::with_capacity(queries.len());
        let mut var = Vec::with_capacity(queries.len());
        for (ks, w) in kstar.chunks(n).zip(whitened.chunks(n)) {
            let m = self.mean + tesla_linalg::vector::dot(ks, &self.alpha);
            let v = self.kernel.diag() - tesla_linalg::vector::dot(w, w);
            mean.push(m);
            var.push(v.max(0.0));
        }
        Posterior { mean, var }
    }

    /// Computes the joint posterior over `queries` into `out`, factored
    /// for sampling: the mean, the covariance plus `1e-9` on the diagonal,
    /// and its (jittered) lower Cholesky factor. `out`'s buffers are
    /// reused, so repeated calls allocate only when the shape grows.
    ///
    /// `k*` rows are whitened by the forward substitution
    /// [`FixedNoiseGp::posterior`] uses and paired by [`dot`], so the mean
    /// matches `posterior`'s bit for bit.
    ///
    /// Fails with [`GpError::Numerical`] when the whitening solve or the
    /// factorization fails, never with a silently wrong covariance.
    pub fn joint_posterior_into(
        &self,
        queries: &[Vec<f64>],
        out: &mut JointPosterior,
    ) -> Result<(), GpError> {
        let n = self.x.len();
        let m = queries.len();
        // Prior covariance first, one kernel evaluation per pair.
        let cov = &mut out.cov;
        cov.clear();
        cov.resize(m * m, 0.0);
        for (i, qi) in queries.iter().enumerate() {
            for (j, qj) in queries.iter().enumerate().skip(i) {
                let v = self.kernel.eval(qi, qj);
                cov[i * m + j] = v;
                cov[j * m + i] = v;
            }
        }
        // When the training points are the last `n` queries (the
        // optimizer's layout: candidates, then the points it observed),
        // every `k*` entry is already a prior entry: the kernel is
        // symmetric bit for bit, as `(a−b)²` equals `(b−a)²` exactly.
        let tail = m
            .checked_sub(n)
            .filter(|&t| same_points(&queries[t..], &self.x));
        let white = &mut out.white;
        white.clear();
        white.resize(m * n, 0.0);
        out.mean.clear();
        let rows = queries.iter().zip(white.chunks_exact_mut(n.max(1)));
        for (qi, (q, row)) in rows.enumerate() {
            match tail {
                Some(t) => row.copy_from_slice(&cov[qi * m + t..(qi + 1) * m]),
                None => {
                    for (k, p) in row.iter_mut().zip(&self.x) {
                        *k = self.kernel.eval(p, q);
                    }
                }
            }
            out.mean.push(self.mean + dot(row, &self.alpha));
        }
        self.chol
            .forward_substitute_batch_in_place(white)
            .map_err(numerical)?;
        for (i, wi) in white.chunks_exact(n).enumerate() {
            for (j, wj) in white.chunks_exact(n).enumerate().skip(i) {
                let v = cov[i * m + j] - dot(wi, wj);
                cov[i * m + j] = v;
                cov[j * m + i] = v;
            }
            cov[i * m + i] += 1e-9;
        }
        out.factor.clear();
        out.factor.resize(m * m, 0.0);
        factor_jittered_into(cov, m, 1e-9, 12, &mut out.factor).map_err(numerical)?;
        Ok(())
    }
}

/// A joint posterior over a point set, factored for sampling (see
/// [`FixedNoiseGp::joint_posterior_into`]). Holds its buffers between
/// calls so a BO decision reuses them across iterations.
#[derive(Debug, Default, Clone)]
pub struct JointPosterior {
    /// Query-major `k*` rows, whitened in place (`m x n_train`).
    white: Vec<f64>,
    /// Posterior mean per query.
    mean: Vec<f64>,
    /// Posterior covariance plus `1e-9` on the diagonal, row-major `m x m`.
    cov: Vec<f64>,
    /// Lower Cholesky factor of `cov`, row-major `m x m`.
    factor: Vec<f64>,
}

impl JointPosterior {
    /// Posterior mean at each query point.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The sampling covariance: the posterior covariance plus `1e-9` on
    /// the diagonal, row-major `m x m` for `m` query points.
    pub fn cov(&self) -> &[f64] {
        &self.cov
    }

    /// Draws `mean + L z` for [`tesla_linalg::cholesky::LANES`] standard-
    /// normal vectors at once: `zt` and `out` are lane-interleaved
    /// `m x LANES` buffers (see [`lower_affine_lanes`]).
    pub fn draw_lanes(&self, zt: &[f64], out: &mut [f64]) {
        lower_affine_lanes(&self.factor, &self.mean, zt, out);
    }
}

/// Rejects an empty, mismatched or ragged training set.
fn check_training_set(x: &[Vec<f64>], y: &[f64], noise_var: &[f64]) -> Result<(), GpError> {
    let n = x.len();
    let Some(first) = x.first() else {
        return Err(GpError::Empty);
    };
    if y.len() != n || noise_var.len() != n {
        return Err(GpError::Shape(format!(
            "{} points, {} targets, {} noise entries",
            n,
            y.len(),
            noise_var.len()
        )));
    }
    if x.iter().any(|p| p.len() != first.len()) {
        return Err(GpError::Shape("ragged input points".into()));
    }
    Ok(())
}

/// Point sets equal bit for bit.
fn same_points(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.len() == q.len() && p.iter().zip(q).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

fn numerical(e: LinalgError) -> GpError {
    GpError::Numerical(e.to_string())
}

/// The constant prior mean: the training-target mean.
fn target_mean(y: &[f64]) -> f64 {
    y.iter().sum::<f64>() / y.len() as f64
}

fn centred(y: &[f64], mean: f64) -> Vec<f64> {
    y.iter().map(|v| v - mean).collect()
}

/// `α = (K+Σ)⁻¹ r` and the log marginal likelihood
/// `−½ rᵀα − ½ log|K+Σ| − n/2 log 2π` of centred targets `r` under a
/// factored `K + Σ`. The one formula every fit and hyper score uses, so
/// scoring a candidate from its factor matches building its GP exactly.
fn alpha_and_log_marginal(chol: &Cholesky, resid: &[f64]) -> Result<(Vec<f64>, f64), LinalgError> {
    let alpha = chol.solve(resid)?;
    let quad: f64 = resid.iter().zip(&alpha).map(|(r, a)| r * a).sum();
    let lml = -0.5 * quad
        - 0.5 * chol.log_det()
        - 0.5 * resid.len() as f64 * (2.0 * std::f64::consts::PI).ln();
    Ok((alpha, lml))
}

/// Builds `K + diag(noise) + 1e-10 I` from a cached distance matrix.
fn gram_matrix<K: Kernel>(kernel: &K, dists: &Matrix, noise_var: &[f64]) -> Matrix {
    gram_from(noise_var, |i, j| kernel.eval_dist(dists[(i, j)]))
}

/// Builds `K + diag(noise) + 1e-10 I` from `k(i, j)`, which is asked for
/// the upper triangle only, row by row (`j` from `i` up).
fn gram_from(noise_var: &[f64], mut k: impl FnMut(usize, usize) -> f64) -> Matrix {
    let n = noise_var.len();
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = k(i, j);
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
        g[(i, i)] += noise_var[i].max(0.0) + 1e-10;
    }
    g
}

/// Factors a Gram matrix `K + diag(noise)` and scores it by log marginal
/// likelihood of the centred targets `resid` (`None` when it does not
/// factor).
fn score_gram(gram: &Matrix, resid: &[f64]) -> Option<(f64, Cholesky)> {
    let chol = Cholesky::decompose_jittered(gram, 1e-8, 12).ok()?;
    let (_, lml) = alpha_and_log_marginal(&chol, resid).ok()?;
    Some((lml, chol))
}

/// [`Matern52::radial_parts`] of every upper-triangle distance (row by
/// row, diagonal included) for lengthscale `ls`.
fn radial_parts(ls: f64, dists: &Matrix, out: &mut Vec<(f64, f64)>) {
    let kernel = Matern52::new(ls, 1.0);
    let n = dists.rows();
    out.clear();
    for i in 0..n {
        out.extend(dists.row(i)[i..].iter().map(|&r| kernel.radial_parts(r)));
    }
}

/// The Gram matrix [`gram_matrix`] builds for `Matern52::new(ls, os)`,
/// from the radial parts of `ls` (in [`gram_from`]'s order): entry for
/// entry the same arithmetic, without an `exp`.
fn gram_from_parts(parts: &[(f64, f64)], os: f64, noise_var: &[f64]) -> Matrix {
    let os = Matern52::new(1.0, os).outputscale;
    let mut parts = parts.iter();
    gram_from(noise_var, |_, _| {
        parts
            .next()
            .map_or(f64::NAN, |&(poly, decay)| os * poly * decay)
    })
}

/// Stage-2 hyper refinement: multiplicative coordinate descent with a
/// shrinking step, starting from `(ls, os)` scored `lml`. Shared by
/// [`fit_matern_hypers`] and [`MaternHyperSearch::select`].
///
/// Trials are scored from their factors; no GP is built until the caller
/// builds the winner. Half the trials change only the output scale; they
/// reuse the current lengthscale's radial parts. Returns the final
/// `(ls, os)` and the winning trial's factor, or `None` when no trial
/// beat the start.
fn refine_matern(
    mut ls: f64,
    mut os: f64,
    mut lml: f64,
    resid: &[f64],
    noise_var: &[f64],
    dists: &Matrix,
) -> (f64, f64, Option<Cholesky>) {
    let mut won = None;
    // Radial parts of `ls` (filled on first use) and of a lengthscale trial.
    let (mut current, mut trial) = (Vec::new(), Vec::new());
    let mut step = 1.6;
    for _round in 0..6 {
        let mut improved = false;
        for (dl, do_) in [
            (step, 1.0),
            (1.0 / step, 1.0),
            (1.0, step),
            (1.0, 1.0 / step),
        ] {
            let (cl, co) = (ls * dl, os * do_);
            let same_ls = dl == 1.0;
            let parts = if same_ls {
                if current.is_empty() {
                    radial_parts(ls, dists, &mut current);
                }
                &current
            } else {
                radial_parts(cl, dists, &mut trial);
                &trial
            };
            let scored = score_gram(&gram_from_parts(parts, co, noise_var), resid);
            if let Some((cand, chol)) = scored {
                if cand > lml {
                    ls = cl;
                    os = co;
                    lml = cand;
                    won = Some(chol);
                    improved = true;
                    if !same_ls {
                        std::mem::swap(&mut current, &mut trial);
                    }
                }
            }
        }
        if !improved {
            step = step.sqrt();
            if step < 1.05 {
                break;
            }
        }
    }
    (ls, os, won)
}

/// Fits Matérn 5/2 hyper-parameters by maximizing the log marginal
/// likelihood: a small log-spaced grid locates the basin, then a few
/// rounds of multiplicative coordinate descent refine within it — the
/// pragmatic counterpart of GPyTorch's gradient-based fit for 1-D search
/// spaces. The pairwise-distance matrix is computed once and shared by
/// every candidate.
pub fn fit_matern_hypers(
    x: &[Vec<f64>],
    y: &[f64],
    noise_var: &[f64],
    lengthscales: &[f64],
    outputscales: &[f64],
) -> Result<FixedNoiseGp<Matern52>, GpError> {
    check_training_set(x, y, noise_var)?;
    let dists = pairwise_distances(x);
    let resid = centred(y, target_mean(y));

    // Stage 1: grid.
    let mut best: Option<(f64, f64, f64, Cholesky)> = None;
    for &ls in lengthscales {
        for &os in outputscales {
            let gram = gram_matrix(&Matern52::new(ls, os), &dists, noise_var);
            if let Some((lml, chol)) = score_gram(&gram, &resid) {
                if best.as_ref().is_none_or(|b| lml > b.2) {
                    best = Some((ls, os, lml, chol));
                }
            }
        }
    }
    let (ls, os, lml, chol) = best.ok_or(GpError::Numerical(
        "no hyper-parameter candidate factored".into(),
    ))?;

    let (ls, os, won) = refine_matern(ls, os, lml, &resid, noise_var, &dists);
    FixedNoiseGp::from_factor(
        Matern52::new(ls, os),
        x.to_vec(),
        y.to_vec(),
        noise_var.to_vec(),
        won.unwrap_or(chol),
    )
}

/// One hyper-grid candidate tracked incrementally.
#[derive(Debug)]
struct GridCandidate {
    lengthscale: f64,
    outputscale: f64,
    /// Cached factorization of `K(ls, os) + diag(noise)` over the current
    /// training set (`None` when the candidate never factored).
    chol: Option<Cholesky>,
}

/// Incremental Matérn 5/2 hyper-grid search over a growing training set.
///
/// The Bayesian optimizer refits its two GPs after every observation; a
/// naive refit refactorizes `lengthscales x outputscales` kernel matrices
/// from scratch each time. This structure keeps one Cholesky factor *per
/// grid candidate* and extends each with a rank-1
/// [`Cholesky::append_row`] when an observation arrives, so the per-
/// iteration cost of the whole grid drops from `O(g·n^3)` to `O(g·n^2)`.
/// [`MaternHyperSearch::select`] then scores candidates by log marginal
/// likelihood (an `O(n^2)` solve per candidate) and runs the same
/// coordinate-descent refinement as [`fit_matern_hypers`] over the cached
/// distance matrix.
#[derive(Debug)]
pub struct MaternHyperSearch {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    noise_var: Vec<f64>,
    dists: Matrix,
    candidates: Vec<GridCandidate>,
}

impl MaternHyperSearch {
    /// Builds the search over the initial training set, factoring every
    /// grid candidate once. Errors if no candidate factors.
    pub fn new(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        noise_var: Vec<f64>,
        lengthscales: &[f64],
        outputscales: &[f64],
    ) -> Result<Self, GpError> {
        check_training_set(&x, &y, &noise_var)?;
        let dists = pairwise_distances(&x);
        let mut candidates = Vec::with_capacity(lengthscales.len() * outputscales.len());
        for &ls in lengthscales {
            for &os in outputscales {
                let kernel = Matern52::new(ls, os);
                let chol = Cholesky::decompose_jittered(
                    &gram_matrix(&kernel, &dists, &noise_var),
                    1e-8,
                    12,
                )
                .ok();
                candidates.push(GridCandidate {
                    lengthscale: ls,
                    outputscale: os,
                    chol,
                });
            }
        }
        if candidates.iter().all(|c| c.chol.is_none()) {
            return Err(GpError::Numerical(
                "no hyper-parameter candidate factored".into(),
            ));
        }
        Ok(MaternHyperSearch {
            x,
            y,
            noise_var,
            dists,
            candidates,
        })
    }

    /// Number of training points currently tracked.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Appends one observation: the distance matrix grows by one
    /// row/column and every factored candidate takes a rank-1 row update.
    /// Candidates whose incremental update goes indefinite are refit from
    /// scratch (and dropped if even that fails).
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64, noise_var: f64) -> Result<(), GpError> {
        if x_new.len() != self.x[0].len() {
            return Err(GpError::Shape(format!(
                "new point has {} dims, training set has {}",
                x_new.len(),
                self.x[0].len()
            )));
        }
        let n = self.x.len();
        let new_dists: Vec<f64> = self
            .x
            .iter()
            .map(|p| euclidean_distance(p, &x_new))
            .collect();
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..n].copy_from_slice(self.dists.row(i));
            grown[(i, n)] = new_dists[i];
            grown[(n, i)] = new_dists[i];
        }
        self.dists = grown;
        self.x.push(x_new);
        self.y.push(y_new);
        self.noise_var.push(noise_var);

        let diag_noise = noise_var.max(0.0) + 1e-10;
        // One kernel-column buffer shared by every candidate: refilled in
        // place per candidate instead of collected fresh each time.
        let mut col = vec![0.0; new_dists.len()];
        for cand in &mut self.candidates {
            let kernel = Matern52::new(cand.lengthscale, cand.outputscale);
            let appended = match cand.chol.as_mut() {
                Some(chol) => {
                    for (c, &r) in col.iter_mut().zip(&new_dists) {
                        *c = kernel.eval_dist(r);
                    }
                    chol.append_row(&col, kernel.diag() + diag_noise).is_ok()
                }
                None => false,
            };
            if !appended {
                cand.chol = Cholesky::decompose_jittered(
                    &gram_matrix(&kernel, &self.dists, &self.noise_var),
                    1e-8,
                    12,
                )
                .ok();
            }
        }
        Ok(())
    }

    /// Selects the best grid candidate by log marginal likelihood and
    /// refines it with coordinate descent, exactly like
    /// [`fit_matern_hypers`] but reusing the cached factorizations and
    /// distance matrix.
    pub fn select(&self) -> Result<FixedNoiseGp<Matern52>, GpError> {
        // Score every candidate (and every refinement trial) against
        // borrowed state; the training-set clones and the O(n^2) factor
        // clone are paid once, for the winner only. The score is exactly
        // `refresh_alpha`'s log-marginal (one shared formula), so the
        // selected candidate — and therefore the decision — is
        // bit-identical to building each GP eagerly.
        let resid = centred(&self.y, target_mean(&self.y));
        let mut best: Option<(&GridCandidate, &Cholesky, f64)> = None;
        for cand in &self.candidates {
            let Some(chol) = cand.chol.as_ref() else {
                continue;
            };
            let Ok((_, lm)) = alpha_and_log_marginal(chol, &resid) else {
                continue;
            };
            if best.is_none_or(|(_, _, b)| lm > b) {
                best = Some((cand, chol, lm));
            }
        }
        let (cand, grid_chol, lm) = best.ok_or(GpError::Numerical(
            "no hyper-parameter candidate factored".into(),
        ))?;
        let (ls, os, won) = refine_matern(
            cand.lengthscale,
            cand.outputscale,
            lm,
            &resid,
            &self.noise_var,
            &self.dists,
        );
        FixedNoiseGp::from_factor(
            Matern52::new(ls, os),
            self.x.clone(),
            self.y.clone(),
            self.noise_var.clone(),
            won.unwrap_or_else(|| grid_chol.clone()),
        )
        .map_err(|_| GpError::Numerical("winning candidate failed to solve".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;

    fn train_1d(f: impl Fn(f64) -> f64, xs: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            xs.iter().map(|&v| vec![v]).collect(),
            xs.iter().map(|&v| f(v)).collect(),
        )
    }

    #[test]
    fn interpolates_noise_free_observations() {
        let (x, y) = train_1d(|v| v.sin(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &y, &[1e-8; 5]).unwrap();
        let post = gp.posterior(&x);
        for (m, t) in post.mean.iter().zip(&y) {
            assert!((m - t).abs() < 1e-3, "{m} vs {t}");
        }
        for v in post.var {
            assert!(
                v < 1e-3,
                "variance at observed point should collapse, got {v}"
            );
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = train_1d(|v| v, &[0.0, 1.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &y, &[1e-6; 2]).unwrap();
        let post = gp.posterior(&[vec![0.5], vec![5.0]]);
        assert!(post.var[1] > post.var[0] * 2.0, "{:?}", post.var);
        // Far away, the posterior reverts to the prior.
        assert!((post.var[1] - 1.0).abs() < 0.05);
        assert!((post.mean[1] - gp.prior_mean()).abs() < 0.05);
    }

    #[test]
    fn high_noise_points_are_partially_ignored() {
        // Two contradictory observations at the same x: the posterior mean
        // should sit near the low-noise one.
        let x = vec![vec![1.0], vec![1.0]];
        let y = [0.0, 10.0];
        let noise = [1e-6, 25.0];
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 4.0), x, &y, &noise).unwrap();
        let post = gp.posterior(&[vec![1.0]]);
        assert!(
            post.mean[0] < 1.0,
            "mean {} should hug the precise observation",
            post.mean[0]
        );
    }

    #[test]
    fn log_marginal_prefers_correct_lengthscale() {
        // Data from a slow function: a comparable-scale lengthscale must
        // beat an absurdly short one.
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let (x, y) = train_1d(|v| (v / 3.0).sin(), &xs);
        let good = FixedNoiseGp::fit(Matern52::new(2.0, 1.0), x.clone(), &y, &[1e-4; 12]).unwrap();
        let bad = FixedNoiseGp::fit(Matern52::new(0.01, 1.0), x, &y, &[1e-4; 12]).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn grid_hyper_fit_picks_reasonable_lengthscale() {
        let xs: Vec<f64> = (0..15).map(|i| i as f64 * 0.4).collect();
        let (x, y) = train_1d(|v| (v / 2.0).sin() * 2.0, &xs);
        let gp = fit_matern_hypers(
            &x,
            &y,
            &[1e-4; 15],
            &[0.01, 0.1, 1.0, 3.0, 10.0],
            &[0.1, 1.0, 5.0],
        )
        .unwrap();
        // Prediction should be sane between training points.
        let post = gp.posterior(&[vec![1.0]]);
        assert!((post.mean[0] - (0.5f64).sin() * 2.0).abs() < 0.3);
    }

    #[test]
    fn refinement_never_loses_to_the_grid() {
        let xs: Vec<f64> = (0..14).map(|i| i as f64 * 0.5).collect();
        let (x, y) = train_1d(|v| (v / 2.5).sin() * 1.7, &xs);
        let noise = vec![1e-4; xs.len()];
        let grid_ls = [0.1, 1.0, 10.0];
        let grid_os = [0.5, 2.0];
        // Best pure-grid marginal likelihood.
        let mut grid_best = f64::NEG_INFINITY;
        for &ls in &grid_ls {
            for &os in &grid_os {
                if let Ok(gp) = FixedNoiseGp::fit(Matern52::new(ls, os), x.clone(), &y, &noise) {
                    grid_best = grid_best.max(gp.log_marginal_likelihood());
                }
            }
        }
        let refined = fit_matern_hypers(&x, &y, &noise, &grid_ls, &grid_os).unwrap();
        assert!(
            refined.log_marginal_likelihood() >= grid_best - 1e-9,
            "refined {} vs grid {}",
            refined.log_marginal_likelihood(),
            grid_best
        );
    }

    /// Joint draws through the lane kernel, one row per normal vector.
    fn draw_rows(post: &JointPosterior, normals: &[f64]) -> Vec<Vec<f64>> {
        use tesla_linalg::cholesky::LANES;
        let m = post.mean().len();
        let mut rows = Vec::new();
        let mut zt = vec![0.0; m * LANES];
        let mut out = vec![0.0; m * LANES];
        for group in normals.chunks(m * LANES) {
            zt.fill(0.0);
            for (b, z) in group.chunks(m).enumerate() {
                for (k, &v) in z.iter().enumerate() {
                    zt[k * LANES + b] = v;
                }
            }
            post.draw_lanes(&zt, &mut out);
            for b in 0..group.len() / m {
                rows.push((0..m).map(|i| out[i * LANES + b]).collect());
            }
        }
        rows
    }

    #[test]
    fn joint_samples_match_posterior_moments() {
        let (x, y) = train_1d(|v| v.cos(), &[0.0, 1.5, 3.0]);
        let gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &y, &[1e-4; 3]).unwrap();
        let queries = vec![vec![0.75], vec![2.25]];
        let mut normals = vec![0.0; 512 * 2];
        crate::sobol::qmc_normal_hybrid_into(2, 0, &mut normals);
        let mut joint = JointPosterior::default();
        gp.joint_posterior_into(&queries, &mut joint).unwrap();
        let samples = draw_rows(&joint, &normals);
        assert_eq!(samples.len(), 512);
        let post = gp.posterior(&queries);
        for q in 0..2 {
            let mean: f64 = samples.iter().map(|s| s[q]).sum::<f64>() / samples.len() as f64;
            let var: f64 =
                samples.iter().map(|s| (s[q] - mean).powi(2)).sum::<f64>() / samples.len() as f64;
            assert!(
                (mean - post.mean[q]).abs() < 0.02,
                "q{q} mean {mean} vs {}",
                post.mean[q]
            );
            assert!(
                (var - post.var[q]).abs() < 0.05,
                "q{q} var {var} vs {}",
                post.var[q]
            );
        }
    }

    /// The joint covariance the flat build replaced (`Matrix` storage,
    /// unwhitened fallback and all), kept as the bit-identity reference.
    fn reference_joint(gp: &FixedNoiseGp<Matern52>, queries: &[Vec<f64>]) -> (Vec<f64>, Matrix) {
        let n = gp.x.len();
        let m = queries.len();
        let kstar: Vec<f64> = queries
            .iter()
            .flat_map(|q| gp.x.iter().map(|p| gp.kernel.eval(p, q)))
            .collect();
        let whitened = gp
            .chol
            .forward_substitute_batch(&kstar)
            .unwrap_or_else(|_| kstar.clone());
        let mut mean = Vec::with_capacity(m);
        for ks in kstar.chunks(n) {
            mean.push(gp.mean + tesla_linalg::vector::dot(ks, &gp.alpha));
        }
        let mut cov = Matrix::zeros(m, m);
        for i in 0..m {
            let wi = &whitened[i * n..(i + 1) * n];
            for j in i..m {
                let wj = &whitened[j * n..(j + 1) * n];
                let prior = gp.kernel.eval(&queries[i], &queries[j]);
                let v = prior - tesla_linalg::vector::dot(wi, wj);
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov.add_diagonal(1e-9);
        (mean, cov)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn joint_posterior_is_bit_identical_to_reference() {
        let xs: Vec<f64> = (0..15).map(|i| 20.0 + i as f64 * 0.9).collect();
        let (x, y) = train_1d(|v| (v / 2.0).sin() * 3.0, &xs);
        let gp = FixedNoiseGp::fit(Matern52::new(1.7, 2.5), x, &y, &[1e-3; 15]).unwrap();
        // One scratch reused across shapes, growing and shrinking.
        let mut joint = JointPosterior::default();
        let x = gp.x.clone();
        for (m, observed) in [
            (77usize, false),
            (1, false),
            (62, true),
            (8, false),
            (20, true),
        ]
        .into_iter()
        .chain([(64, false), (0, false), (15, true)])
        {
            // Grid queries, optionally followed by the training points
            // themselves (the optimizer's layout, which reuses prior
            // entries as `k*`).
            let grid = m - if observed { x.len() } else { 0 };
            let mut queries: Vec<Vec<f64>> =
                (0..grid).map(|i| vec![19.0 + i as f64 * 0.23]).collect();
            if observed {
                queries.extend(x.iter().cloned());
            }
            gp.joint_posterior_into(&queries, &mut joint).unwrap();
            let (mean, cov) = reference_joint(&gp, &queries);
            assert_eq!(bits(joint.mean()), bits(&mean), "mean, m={m}");
            assert_eq!(bits(joint.cov()), bits(cov.as_slice()), "cov, m={m}");
            let chol = Cholesky::decompose_jittered(&cov, 1e-9, 12).unwrap();
            assert_eq!(
                bits(&joint.factor),
                bits(chol.factor().as_slice()),
                "factor, m={m}"
            );
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let x = vec![vec![0.0], vec![1.0]];
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &[1.0], &[0.1; 2]).is_err());
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x.clone(), &[1.0; 2], &[0.1]).is_err());
        assert!(FixedNoiseGp::fit(Matern52::new(1.0, 1.0), vec![], &[], &[]).is_err());
        assert!(fit_matern_hypers(&x, &[1.0], &[0.1; 2], &[1.0], &[1.0]).is_err());
    }

    #[test]
    fn append_observation_matches_full_fit() {
        let (x, y) = train_1d(|v| (v / 2.0).sin(), &[0.0, 1.0, 2.0, 3.0]);
        let noise = [1e-4; 5];
        let mut inc =
            FixedNoiseGp::fit(Matern52::new(1.5, 1.2), x.clone(), &y, &noise[..4]).unwrap();
        inc.append_observation(vec![4.0], (2.0f64).sin(), 1e-4)
            .unwrap();

        let mut x_full = x;
        x_full.push(vec![4.0]);
        let mut y_full = y;
        y_full.push((2.0f64).sin());
        let full = FixedNoiseGp::fit(Matern52::new(1.5, 1.2), x_full, &y_full, &noise).unwrap();

        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 * 0.5]).collect();
        let pi = inc.posterior(&queries);
        let pf = full.posterior(&queries);
        for q in 0..queries.len() {
            assert!(
                (pi.mean[q] - pf.mean[q]).abs() < 1e-9,
                "mean q{q}: {} vs {}",
                pi.mean[q],
                pf.mean[q]
            );
            assert!(
                (pi.var[q] - pf.var[q]).abs() < 1e-9,
                "var q{q}: {} vs {}",
                pi.var[q],
                pf.var[q]
            );
        }
        assert!(
            (inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-9,
            "lml {} vs {}",
            inc.log_marginal_likelihood(),
            full.log_marginal_likelihood()
        );
        assert_eq!(inc.n_train(), 5);
    }

    #[test]
    fn append_observation_rejects_ragged_point() {
        let (x, y) = train_1d(|v| v, &[0.0, 1.0]);
        let mut gp = FixedNoiseGp::fit(Matern52::new(1.0, 1.0), x, &y, &[1e-4; 2]).unwrap();
        assert!(gp.append_observation(vec![1.0, 2.0], 0.0, 1e-4).is_err());
    }

    #[test]
    fn hyper_search_select_matches_batch_fit() {
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.6).collect();
        let (x, y) = train_1d(|v| (v / 2.0).sin() * 1.5, &xs);
        let noise = vec![1e-3; xs.len()];
        let ls_grid = [0.3, 1.0, 3.0, 8.0];
        let os_grid = [0.5, 1.5, 4.5];
        let search =
            MaternHyperSearch::new(x.clone(), y.clone(), noise.clone(), &ls_grid, &os_grid)
                .unwrap();
        let inc = search.select().unwrap();
        let full = fit_matern_hypers(&x, &y, &noise, &ls_grid, &os_grid).unwrap();
        let queries: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.9]).collect();
        let pi = inc.posterior(&queries);
        let pf = full.posterior(&queries);
        for q in 0..queries.len() {
            assert!((pi.mean[q] - pf.mean[q]).abs() < 1e-9);
            assert!((pi.var[q] - pf.var[q]).abs() < 1e-9);
        }
    }

    #[test]
    fn hyper_search_append_matches_fresh_search() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.7).collect();
        let (x, y) = train_1d(|v| (v / 3.0).cos(), &xs);
        let noise = vec![1e-3; xs.len()];
        let ls_grid = [0.3, 1.0, 3.0];
        let os_grid = [0.4, 1.2];
        let mut search =
            MaternHyperSearch::new(x.clone(), y.clone(), noise.clone(), &ls_grid, &os_grid)
                .unwrap();
        search
            .append(vec![7.3], (7.3f64 / 3.0).cos(), 1e-3)
            .unwrap();
        search
            .append(vec![8.1], (8.1f64 / 3.0).cos(), 1e-3)
            .unwrap();
        assert_eq!(search.n_train(), 12);

        let mut x_full = x;
        x_full.push(vec![7.3]);
        x_full.push(vec![8.1]);
        let mut y_full = y;
        y_full.push((7.3f64 / 3.0).cos());
        y_full.push((8.1f64 / 3.0).cos());
        let mut noise_full = noise;
        noise_full.push(1e-3);
        noise_full.push(1e-3);
        let fresh = MaternHyperSearch::new(x_full, y_full, noise_full, &ls_grid, &os_grid).unwrap();

        let inc = search.select().unwrap();
        let batch = fresh.select().unwrap();
        let queries: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.8]).collect();
        let pi = inc.posterior(&queries);
        let pb = batch.posterior(&queries);
        for q in 0..queries.len() {
            assert!(
                (pi.mean[q] - pb.mean[q]).abs() < 1e-9,
                "mean q{q}: {} vs {}",
                pi.mean[q],
                pb.mean[q]
            );
            assert!((pi.var[q] - pb.var[q]).abs() < 1e-9);
        }
    }

    /// The eager hyper fit the factor-scored one replaced: a full GP per
    /// grid cell and per refinement trial.
    fn eager_reference_fit(
        x: &[Vec<f64>],
        y: &[f64],
        noise: &[f64],
        ls_grid: &[f64],
        os_grid: &[f64],
    ) -> FixedNoiseGp<Matern52> {
        let dists = pairwise_distances(x);
        let try_fit = |ls: f64, os: f64| {
            FixedNoiseGp::fit_from_distances(Matern52::new(ls, os), x.to_vec(), y, noise, &dists)
                .ok()
        };
        let mut best: Option<(f64, f64, FixedNoiseGp<Matern52>)> = None;
        for &ls in ls_grid {
            for &os in os_grid {
                if let Some(gp) = try_fit(ls, os) {
                    if best.as_ref().is_none_or(|(_, _, b)| {
                        gp.log_marginal_likelihood() > b.log_marginal_likelihood()
                    }) {
                        best = Some((ls, os, gp));
                    }
                }
            }
        }
        let (mut ls, mut os, mut gp) = best.unwrap();
        let mut step = 1.6;
        for _round in 0..6 {
            let mut improved = false;
            for (dl, do_) in [
                (step, 1.0),
                (1.0 / step, 1.0),
                (1.0, step),
                (1.0, 1.0 / step),
            ] {
                let (cl, co) = (ls * dl, os * do_);
                if let Some(cand) = try_fit(cl, co) {
                    if cand.log_marginal_likelihood() > gp.log_marginal_likelihood() {
                        (ls, os, gp) = (cl, co, cand);
                        improved = true;
                    }
                }
            }
            if !improved {
                step = step.sqrt();
                if step < 1.05 {
                    break;
                }
            }
        }
        gp
    }

    #[test]
    fn factor_scored_hyper_fit_is_bit_identical_to_eager() {
        let ls_grid = [0.3, 1.0, 3.0, 8.0];
        for (k, f) in [(0.6, 2.0), (0.35, 0.7), (1.1, 5.0)]
            .into_iter()
            .enumerate()
        {
            let xs: Vec<f64> = (0..9 + 4 * k)
                .map(|i| 20.0 + i as f64 * f.0 * 3.0)
                .collect();
            let (x, y) = train_1d(|v| (v / f.1).sin() * 2.0 + 0.1 * v, &xs);
            let noise = vec![1e-3 * (k + 1) as f64; xs.len()];
            let var = tesla_linalg::stats::variance(&y).max(1e-6);
            let os_grid = [var * 0.3, var, var * 3.0];
            let eager = eager_reference_fit(&x, &y, &noise, &ls_grid, &os_grid);
            let scored = fit_matern_hypers(&x, &y, &noise, &ls_grid, &os_grid).unwrap();
            let search =
                MaternHyperSearch::new(x.clone(), y.clone(), noise.clone(), &ls_grid, &os_grid)
                    .unwrap();
            let selected = search.select().unwrap();
            let queries: Vec<Vec<f64>> = (0..31).map(|i| vec![19.0 + i as f64 * 0.5]).collect();
            let want = eager.posterior(&queries);
            for gp in [&scored, &selected] {
                assert_eq!(gp.kernel, eager.kernel, "case {k}");
                assert_eq!(
                    gp.log_marginal_likelihood().to_bits(),
                    eager.log_marginal_likelihood().to_bits()
                );
                let got = gp.posterior(&queries);
                assert_eq!(bits(&got.mean), bits(&want.mean), "case {k}");
                assert_eq!(bits(&got.var), bits(&want.var), "case {k}");
            }
        }
    }

    #[test]
    fn hyper_search_validates_shapes() {
        assert!(MaternHyperSearch::new(vec![], vec![], vec![], &[1.0], &[1.0]).is_err());
        assert!(
            MaternHyperSearch::new(vec![vec![0.0]], vec![1.0, 2.0], vec![0.1], &[1.0], &[1.0])
                .is_err()
        );
        let mut ok = MaternHyperSearch::new(
            vec![vec![0.0], vec![1.0]],
            vec![0.0, 1.0],
            vec![0.1; 2],
            &[1.0],
            &[1.0],
        )
        .unwrap();
        assert!(ok.append(vec![1.0, 2.0], 0.0, 0.1).is_err());
    }
}
