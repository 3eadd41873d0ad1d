//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used by the ridge normal equations (`XᵀX + αI`) and by the fixed-noise
//! Gaussian process (`K + diag(σ²)`). Both systems are SPD by
//! construction, but finite precision can push near-singular Gram/Gram-like
//! matrices slightly indefinite, so [`Cholesky::decompose_jittered`]
//! retries with exponentially growing diagonal jitter — the same trick
//! GPyTorch applies (the paper's GP backend).

// analysis:allow-file(panic-free-control-path): dense numeric kernel;
// every index is loop-bounded by lengths validated at the call
// boundary, and debug_asserts guard the shape contracts.
// analysis:allow-file(no-alloc-in-decide-steady-state): work buffers
// are sized by model dimensions fixed at fit time; a fresh surrogate
// per decision is the paper's design, and zero-alloc steady-state
// scoring is tracked as ROADMAP work.
use crate::{matrix::Matrix, LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that was added to the diagonal to achieve positive
    /// definiteness (0.0 when the matrix factored cleanly).
    jitter: f64,
}

impl Cholesky {
    /// Factors an SPD matrix. Fails with [`LinalgError::NotPositiveDefinite`]
    /// if a non-positive pivot is encountered.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        Self::decompose_jittered(a, 0.0, 0)
    }

    /// Factors `a + jitter * I`, retrying with `jitter * 10` (starting from
    /// `initial`) until success or `max_tries` escalations.
    pub fn decompose_jittered(a: &Matrix, initial: f64, max_tries: usize) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let mut l = Matrix::zeros(n, n);
        let jitter = factor_jittered_into(a.as_slice(), n, initial, max_tries, l.as_mut_slice())?;
        Ok(Cholesky { l, jitter })
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to reach positive definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = self.forward_substitute(b);
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * yk;
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L y = b` (forward substitution only). Needed by the GP for
    /// whitening residuals.
    pub fn forward_substitute(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.forward_substitute_in_place(&mut y);
        y
    }

    /// Forward substitution writing over `b` in place. All forward-solve
    /// entry points funnel through this routine so the batched path is
    /// bit-identical to the per-vector one.
    fn forward_substitute_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        debug_assert_eq!(b.len(), n);
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = b[i];
            for (k, &bk) in b.iter().enumerate().take(i) {
                sum -= row[k] * bk;
            }
            b[i] = sum / row[i];
        }
    }

    /// Solves `L Y = B` for many right-hand sides at once.
    ///
    /// `rhs` holds `n_rhs` vectors of length `dim()` back to back
    /// (vector-major, each contiguous); the result uses the same layout.
    /// One call whitens an entire query grid — the GP posterior uses this
    /// so a decision's grid costs one batched solve instead of a solve
    /// (and an allocation) per query point.
    pub fn forward_substitute_batch(&self, rhs: &[f64]) -> Result<Vec<f64>> {
        let mut out = rhs.to_vec();
        self.forward_substitute_batch_in_place(&mut out)?;
        Ok(out)
    }

    /// [`Cholesky::forward_substitute_batch`] writing over `rhs`, for
    /// callers that keep their own buffers.
    pub fn forward_substitute_batch_in_place(&self, rhs: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if n == 0 || !rhs.len().is_multiple_of(n) {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky forward_substitute_batch",
                lhs: (n, n),
                rhs: (rhs.len(), 1),
            });
        }
        let mut quads = rhs.chunks_exact_mut(ROW_BLOCK * n);
        for quad in &mut quads {
            self.forward_substitute_four(quad);
        }
        for chunk in quads.into_remainder().chunks_mut(n) {
            self.forward_substitute_in_place(chunk);
        }
        Ok(())
    }

    /// [`Cholesky::forward_substitute_in_place`] on four contiguous
    /// right-hand sides in lockstep: four independent subtraction chains,
    /// each in the per-vector order, so each result is bit-identical.
    fn forward_substitute_four(&self, quad: &mut [f64]) {
        let n = self.dim();
        let (b0, rest) = quad.split_at_mut(n);
        let (b1, rest) = rest.split_at_mut(n);
        let (b2, b3) = rest.split_at_mut(n);
        for (i, row) in self.l.as_slice().chunks_exact(n).enumerate() {
            let mut s = [b0[i], b1[i], b2[i], b3[i]];
            let it = row[..i].iter().zip(&b0[..i]).zip(&b1[..i]);
            for (((&lik, &x0), &x1), (&x2, &x3)) in it.zip(b2[..i].iter().zip(&b3[..i])) {
                s[0] -= lik * x0;
                s[1] -= lik * x1;
                s[2] -= lik * x2;
                s[3] -= lik * x3;
            }
            let d = row[i];
            b0[i] = s[0] / d;
            b1[i] = s[1] / d;
            b2[i] = s[2] / d;
            b3[i] = s[3] / d;
        }
    }

    /// Extends the factorization of an `n x n` SPD matrix `A` to the
    /// `(n+1) x (n+1)` matrix obtained by appending one symmetric
    /// row/column: `col` is the new off-diagonal column (length `n`) and
    /// `diag` the new diagonal entry.
    ///
    /// Only the new bottom row of `L` is computed — `O(n^2)` instead of
    /// the `O(n^3)` full refactorization — and because the leading
    /// `n x n` block of the factor of the extended matrix *is* the
    /// existing factor, the result is bit-identical to
    /// [`Cholesky::decompose`] of the extended matrix. The stored jitter
    /// is applied to `diag` so the update stays consistent with a factor
    /// produced by [`Cholesky::decompose_jittered`].
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the appended
    /// row would make the matrix (numerically) indefinite; the caller
    /// should fall back to a full jittered refactorization.
    pub fn append_row(&mut self, col: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        if col.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky append_row",
                lhs: (n, n),
                rhs: (col.len(), 1),
            });
        }
        let w = self.forward_substitute(col);
        let mut d = diag + self.jitter;
        for &wk in &w {
            d -= wk * wk;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        let last = grown.row_mut(n);
        last[..n].copy_from_slice(&w);
        last[n] = d.sqrt();
        self.l = grown;
        Ok(())
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// `log det(A) = 2 * Σ log L_ii`, used by the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        let n = self.dim();
        let mut s = 0.0;
        for i in 0..n {
            s += self.l[(i, i)].ln();
        }
        2.0 * s
    }
}

/// Rows the factorization, and right-hand sides the batched forward
/// substitution, compute in lockstep (see [`factor_lower`]).
const ROW_BLOCK: usize = 4;

/// Factors the `n x n` row-major SPD matrix `a + jitter * I` into `l`
/// (lower triangle; the strict upper triangle is zeroed). Only the lower
/// triangle of `a` is read.
///
/// Every entry is the textbook left-looking recurrence
/// `l[i][j] = (a[i][j] − Σ_{k<j} l[i][k]·l[j][k]) / l[j][j]`, subtracting
/// in increasing `k` — the order that makes [`Cholesky::append_row`]
/// bit-identical to a fresh factorization. Rows are taken in blocks of
/// [`ROW_BLOCK`]: for the columns left of a block, the block's rows run
/// in lockstep, so the processor overlaps four independent subtraction
/// chains instead of waiting on one; the block's own triangle then runs
/// row by row. Neither step changes any entry's operation order, so the
/// factor (and the first failing pivot) is exactly that of the one-row
/// loop.
fn factor_lower(a: &[f64], n: usize, jitter: f64, l: &mut [f64]) -> Result<()> {
    debug_assert!(a.len() == n * n && l.len() == n * n);
    let mut i0 = 0;
    while i0 < n {
        let rows = ROW_BLOCK.min(n - i0);
        let (done, block) = l.split_at_mut(i0 * n);
        if rows == ROW_BLOCK {
            let (r0, rest) = block.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, rest) = rest.split_at_mut(n);
            let r3 = &mut rest[..n];
            for (j, lj) in done.chunks_exact(n).enumerate() {
                let mut s = [
                    a[i0 * n + j],
                    a[(i0 + 1) * n + j],
                    a[(i0 + 2) * n + j],
                    a[(i0 + 3) * n + j],
                ];
                let it = lj[..j].iter().zip(&r0[..j]).zip(&r1[..j]);
                for (((&ljk, &x0), &x1), (&x2, &x3)) in it.zip(r2[..j].iter().zip(&r3[..j])) {
                    s[0] -= x0 * ljk;
                    s[1] -= x1 * ljk;
                    s[2] -= x2 * ljk;
                    s[3] -= x3 * ljk;
                }
                let d = lj[j];
                r0[j] = s[0] / d;
                r1[j] = s[1] / d;
                r2[j] = s[2] / d;
                r3[j] = s[3] / d;
            }
        } else {
            for (r, row) in block.chunks_exact_mut(n).take(rows).enumerate() {
                for (j, lj) in done.chunks_exact(n).enumerate() {
                    let mut sum = a[(i0 + r) * n + j];
                    for (&x, &ljk) in row[..j].iter().zip(&lj[..j]) {
                        sum -= x * ljk;
                    }
                    row[j] = sum / lj[j];
                }
            }
        }
        // The block's own triangle, row by row in the existing order.
        for i in i0..i0 + rows {
            for j in i0..=i {
                let mut sum = a[i * n + j];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
            l[i * n + i + 1..(i + 1) * n].fill(0.0);
        }
        i0 += rows;
    }
    Ok(())
}

/// Factors the `n x n` row-major SPD matrix `a` into `l` like
/// [`Cholesky::decompose_jittered`] — first with no jitter, then with
/// `initial` (at least `1e-12`) growing tenfold for up to `max_tries`
/// escalations — and returns the jitter that succeeded. The allocation-
/// free entry point for callers that keep their own buffers.
pub fn factor_jittered_into(
    a: &[f64],
    n: usize,
    initial: f64,
    max_tries: usize,
    l: &mut [f64],
) -> Result<f64> {
    if a.len() != n * n || l.len() != n * n {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky factor_jittered_into",
            lhs: (n, n),
            rhs: (a.len(), l.len()),
        });
    }
    match factor_lower(a, n, 0.0, l) {
        Ok(()) => return Ok(0.0),
        Err(LinalgError::NotPositiveDefinite) => {}
        Err(e) => return Err(e),
    }
    let mut jitter = initial.max(1e-12);
    for _ in 0..max_tries {
        match factor_lower(a, n, jitter, l) {
            Ok(()) => return Ok(jitter),
            Err(LinalgError::NotPositiveDefinite) => jitter *= 10.0,
            Err(e) => return Err(e),
        }
    }
    Err(LinalgError::NotPositiveDefinite)
}

/// Vectors one call of [`lower_affine_lanes`] carries.
pub const LANES: usize = 8;

/// `out[i][b] = shift[i] + Σ_{k≤i} l[i][k]·z_b[k]` for the [`LANES`]
/// vectors `z_b`, i.e. `shift + L·z` per lane — a posterior draw from a
/// factored covariance.
///
/// `l` is `n x n` row-major lower-triangular with `n = shift.len()`;
/// `zt` and `out` are lane-interleaved (`zt[k * LANES + b]` is entry `k`
/// of vector `b`). Each lane sums its products in increasing `k` starting
/// from `0.0` and adds `shift[i]` last, exactly as a per-vector
/// triangular matvec followed by the shift would, so every lane is
/// bit-identical to the per-vector computation; the [`LANES`]
/// independent sums per row are what the processor overlaps.
pub fn lower_affine_lanes(l: &[f64], shift: &[f64], zt: &[f64], out: &mut [f64]) {
    let n = shift.len();
    debug_assert!(l.len() == n * n && zt.len() == n * LANES && out.len() == n * LANES);
    let rows = l
        .chunks_exact(n)
        .zip(shift)
        .zip(out.chunks_exact_mut(LANES));
    for (i, ((row, &mu), o)) in rows.enumerate() {
        let mut acc = [0.0f64; LANES];
        for (z, &lik) in zt.chunks_exact(LANES).zip(&row[..=i]) {
            for (a, &zb) in acc.iter_mut().zip(z) {
                *a += lik * zb;
            }
        }
        for (ob, a) in o.iter_mut().zip(acc) {
            *ob = mu + a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = M Mᵀ + I for a fixed M: guaranteed SPD.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let lt = l.transpose();
        let r = l.matmul(&lt).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = spd3();
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve_matrix(&b).unwrap();
        for j in 0..2 {
            let col = c.solve(&b.col(j)).unwrap();
            for i in 0..3 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3, 4) = 24.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        a[(2, 2)] = 4.0;
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_det() - 24.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1 PSD matrix: [1 1; 1 1].
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        // Solutions remain near a least-squares answer.
        let x = c.solve(&[2.0, 2.0]).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn append_row_matches_full_decompose() {
        // Factor the 2x2 leading block, append the third row/column of
        // spd3, and compare against factoring spd3 directly.
        let a = spd3();
        let mut lead = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                lead[(i, j)] = a[(i, j)];
            }
        }
        let mut c = Cholesky::decompose(&lead).unwrap();
        c.append_row(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)]).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.factor()[(i, j)], full.factor()[(i, j)]);
            }
        }
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn append_row_rejects_indefinite_extension() {
        let a = spd3();
        let mut c = Cholesky::decompose(&a).unwrap();
        // A huge off-diagonal column makes the Schur complement negative.
        assert!(matches!(
            c.append_row(&[100.0, 100.0, 100.0], 1.0),
            Err(LinalgError::NotPositiveDefinite)
        ));
        // The factor is untouched by a failed append.
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn append_row_wrong_length_errors() {
        let mut c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.append_row(&[1.0], 5.0).is_err());
    }

    #[test]
    fn forward_substitute_batch_matches_per_vector() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let rhs = [1.0, 2.0, 3.0, -1.0, 0.5, 4.0];
        let batch = c.forward_substitute_batch(&rhs).unwrap();
        let one = c.forward_substitute(&rhs[0..3]);
        let two = c.forward_substitute(&rhs[3..6]);
        assert_eq!(&batch[0..3], one.as_slice());
        assert_eq!(&batch[3..6], two.as_slice());
        // Ragged batch length rejected.
        assert!(c.forward_substitute_batch(&rhs[..4]).is_err());
    }

    /// The one-row-at-a-time factorization the blocked kernel replaced,
    /// kept as the bit-identity reference.
    fn reference_factor(a: &Matrix, jitter: f64) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    fn reference_jittered(a: &Matrix, initial: f64, max_tries: usize) -> Result<(Matrix, f64)> {
        match reference_factor(a, 0.0) {
            Ok(l) => return Ok((l, 0.0)),
            Err(LinalgError::NotPositiveDefinite) => {}
            Err(e) => return Err(e),
        }
        let mut jitter = initial.max(1e-12);
        for _ in 0..max_tries {
            match reference_factor(a, jitter) {
                Ok(l) => return Ok((l, jitter)),
                Err(LinalgError::NotPositiveDefinite) => jitter *= 10.0,
                Err(e) => return Err(e),
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// Deterministic values in [-1, 1).
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `M Mᵀ + diag · I` for an `n x rank` random `M`.
    fn gram_of_random(n: usize, rank: usize, diag: f64, seed: u64) -> Matrix {
        let mut state = seed;
        let m: Vec<f64> = (0..n * rank).map(|_| lcg(&mut state)).collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..rank {
                    s += m[i * rank + k] * m[j * rank + k];
                }
                a[(i, j)] = s;
            }
        }
        a.add_diagonal(diag);
        a
    }

    fn assert_same_factor(a: &Matrix, initial: f64, max_tries: usize, what: &str) {
        let blocked = Cholesky::decompose_jittered(a, initial, max_tries);
        match (blocked, reference_jittered(a, initial, max_tries)) {
            (Ok(c), Ok((l, jitter))) => {
                assert_eq!(c.jitter().to_bits(), jitter.to_bits(), "{what}: jitter");
                let got: Vec<u64> = c.factor().as_slice().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = l.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{what}: factor");
            }
            (Err(e), Err(r)) => assert_eq!(e, r, "{what}: error"),
            (got, want) => panic!("{what}: blocked {got:?} vs reference {want:?}"),
        }
    }

    #[test]
    fn blocked_factor_is_bit_identical_to_row_loop() -> Result<()> {
        let mut escalated = 0;
        for n in 1..=40 {
            // Full rank: factors without jitter.
            assert_same_factor(&gram_of_random(n, n, 0.5, n as u64), 1e-9, 12, "spd");
            // Rank-deficient Gram matrices sit on the edge of definiteness
            // and exercise the jitter escalation.
            let low = gram_of_random(n, n.div_ceil(3), 0.0, 100 + n as u64);
            assert_same_factor(&low, 1e-12, 12, "rank-deficient");
            escalated += usize::from(Cholesky::decompose_jittered(&low, 1e-12, 12)?.jitter() > 0.0);
        }
        assert!(escalated > 10, "only {escalated} cases needed jitter");
        // Rank one: the unjittered pass must fail and a retry succeed.
        let mut ones = Matrix::zeros(9, 9);
        ones.as_mut_slice().fill(1.0);
        assert_same_factor(&ones, 1e-10, 12, "rank one");
        assert!(
            Cholesky::decompose_jittered(&ones, 1e-10, 12)
                .unwrap()
                .jitter()
                > 0.0
        );
        // Indefinite: every retry fails, in both kernels.
        let mut neg = gram_of_random(13, 13, 0.5, 7);
        neg[(10, 10)] = -50.0;
        assert_same_factor(&neg, 1e-9, 3, "indefinite");
        assert!(matches!(
            Cholesky::decompose_jittered(&neg, 1e-9, 3),
            Err(LinalgError::NotPositiveDefinite)
        ));
        Ok(())
    }

    #[test]
    fn lanes_match_per_vector_draws() {
        for n in [1usize, 5, 8, 13] {
            let c = Cholesky::decompose(&gram_of_random(n, n, 0.5, 3 + n as u64)).unwrap();
            let l = c.factor();
            let mut state = 11;
            let shift: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
            // 11 vectors: one full lane group plus a ragged one padded with 0.
            let zs: Vec<Vec<f64>> = (0..11)
                .map(|_| (0..n).map(|_| 3.0 * lcg(&mut state)).collect())
                .collect();
            let mut out = vec![0.0; n * LANES];
            for group in zs.chunks(LANES) {
                let mut zt = vec![0.0; n * LANES];
                for (b, z) in group.iter().enumerate() {
                    for (k, &v) in z.iter().enumerate() {
                        zt[k * LANES + b] = v;
                    }
                }
                lower_affine_lanes(l.as_slice(), &shift, &zt, &mut out);
                for (b, z) in group.iter().enumerate() {
                    // The per-vector triangular matvec the lanes replaced.
                    for i in 0..n {
                        let mut sum = 0.0;
                        for (k, &zk) in z.iter().enumerate().take(i + 1) {
                            sum += l[(i, k)] * zk;
                        }
                        let want = shift[i] + sum;
                        assert_eq!(
                            out[i * LANES + b].to_bits(),
                            want.to_bits(),
                            "n={n} b={b} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn factor_jittered_into_checks_lengths() {
        let mut l = vec![0.0; 4];
        assert!(factor_jittered_into(&[1.0; 9], 3, 1e-9, 2, &mut l).is_err());
        let jitter = factor_jittered_into(&[4.0, 0.0, 0.0, 9.0], 2, 1e-9, 2, &mut l).unwrap();
        assert_eq!(jitter, 0.0);
        assert_eq!(l, vec![2.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn forward_substitute_consistent_with_solve() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        // L y = b, then Lᵀ x = y should equal solve(b).
        let y = c.forward_substitute(&b);
        // Verify L y = b.
        let l = c.factor();
        let ly = l.matvec(&y).unwrap();
        for (v, e) in ly.iter().zip(&b) {
            assert!((v - e).abs() < 1e-12);
        }
    }
}
