//! Sobol low-discrepancy sequences and quasi-Monte-Carlo normal draws.
//!
//! The paper's acquisition function (constrained NEI \[21\]) integrates
//! expected improvement over posterior samples using quasi-Monte Carlo.
//! QMC standard normals are obtained the usual way: a Sobol point in
//! `[0,1)^d` pushed through the inverse normal CDF.
//!
//! Direction numbers are the first eight dimensions of the Joe–Kuo
//! "new-joe-kuo-6" table. The optimizer's search space is
//! one-dimensional, so its initial design needs one; NEI's sample
//! dimension is the number of joint posterior points (about 77), of
//! which [`qmc_normal_hybrid_into`] draws the first eight from Sobol and
//! the rest from a seeded pseudo-random stream.

// analysis:allow-file(panic-free-control-path): direction-number
// tables are indexed by construction (dimension and bit counts are
// compile-time constants).
// analysis:allow-file(no-alloc-in-decide-steady-state): each decision
// draws a fresh bounded Sobol block (n_init points).
const MAX_DIMS: usize = 8;
const BITS: usize = 31;

/// (s, a, m...) rows of the Joe–Kuo table for dimensions 2..=8; dimension
/// 1 is the van der Corput sequence.
const JOE_KUO: [(u32, u32, &[u32]); 7] = [
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
];

/// A Sobol sequence generator over `[0,1)^d`, Gray-code ordering.
#[derive(Debug, Clone)]
pub struct SobolSequence {
    dims: usize,
    /// Direction numbers: `v[d][k]`, already shifted to 31-bit fixed point
    /// (rows past `dims` unused).
    v: [[u32; BITS]; MAX_DIMS],
    /// Current integer state per dimension.
    x: [u32; MAX_DIMS],
    /// Index of the next point (0-based).
    index: u64,
}

impl SobolSequence {
    /// Creates a generator for `dims` dimensions (1..=8).
    ///
    /// # Panics
    /// Panics if `dims` is 0 or exceeds the supported table.
    pub fn new(dims: usize) -> Self {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "supported dims: 1..={MAX_DIMS}"
        );
        let mut v = [[0u32; BITS]; MAX_DIMS];
        // Dimension 1: van der Corput, v_k = 1 << (31 - k).
        for (k, slot) in v[0].iter_mut().enumerate() {
            *slot = 1 << (BITS - 1 - k);
        }
        for d in 1..dims {
            let (s, a, m) = JOE_KUO[d - 1];
            let s = s as usize;
            let mut mi = [0u32; BITS];
            mi[..s].copy_from_slice(&m[..s.min(m.len())]);
            // Recurrence for k >= s:
            // m_k = 2a_1 m_{k-1} ^ 4a_2 m_{k-2} ^ ... ^ 2^s m_{k-s} ^ m_{k-s}
            for k in s..BITS {
                let mut val = mi[k - s] ^ (mi[k - s] << s);
                for j in 1..s {
                    let bit = (a >> (s - 1 - j)) & 1;
                    if bit == 1 {
                        val ^= mi[k - j] << j;
                    }
                }
                mi[k] = val;
            }
            for k in 0..BITS {
                v[d][k] = mi[k] << (BITS - 1 - k);
            }
        }
        SobolSequence {
            dims,
            v,
            x: [0; MAX_DIMS],
            index: 0,
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Produces the next point in `[0,1)^d`.
    pub fn next_point(&mut self) -> Vec<f64> {
        let mut out = vec![0.0; self.dims];
        self.next_into(&mut out);
        out
    }

    /// Advances to the next point and writes it into `out` without
    /// allocating (coordinates past `out.len()` are dropped; the sequence
    /// still advances in every dimension).
    fn next_into(&mut self, out: &mut [f64]) {
        // Gray-code: flip the direction number of the lowest zero bit of
        // the running index.
        let c = (!self.index).trailing_zeros() as usize;
        let c = c.min(BITS - 1);
        let state = self.x.iter_mut().zip(&self.v).take(self.dims);
        for (d, (x, v)) in state.enumerate() {
            // The first emitted point is the origin; flip afterwards.
            if let Some(o) = out.get_mut(d) {
                *o = *x as f64 / (1u64 << BITS) as f64;
            }
            *x ^= v[c];
        }
        self.index += 1;
    }

    /// Generates `n` points as rows.
    pub fn take(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

// Coefficients of Acklam's rational approximation: A/B for the central
// region, C/D for the tails below P_LOW and above 1 − P_LOW.
const A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383_577_518_672_69e2,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];
const B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];
const C: [f64; 6] = [
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
];
const D: [f64; 4] = [
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
];
const P_LOW: f64 = 0.02425;

/// Clamps a probability away from the poles.
#[inline]
fn clamp_p(p: f64) -> f64 {
    p.clamp(1e-300, 1.0 - 1e-16)
}

/// True when clamped `p` takes the central branch (false for NaN).
#[inline]
fn is_central(p: f64) -> bool {
    (P_LOW..=1.0 - P_LOW).contains(&p)
}

/// The central-region formula: plain arithmetic, no branch or call.
#[inline]
fn central(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// The tail formulas, for clamped `p` outside the central region.
fn tail(p: f64) -> f64 {
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Acklam's rational approximation to the inverse standard-normal CDF
/// (relative error below 1.15e-9 — far beyond what QMC integration needs).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    let p = clamp_p(p);
    if is_central(p) {
        central(p)
    } else {
        tail(p)
    }
}

/// [`inverse_normal_cdf`] over a slice in place, bit-identical per
/// element. Blocks of 16 run the branch-free central formula on every
/// element, a loop the compiler vectorizes, and then patch the few
/// elements (about 5%) that fall in a tail.
fn inverse_normal_cdf_in_place(vals: &mut [f64]) {
    for block in vals.chunks_mut(16) {
        let mut p = [0.0; 16];
        let p = &mut p[..block.len()];
        for (pi, v) in p.iter_mut().zip(block.iter()) {
            *pi = clamp_p(*v);
        }
        for (v, &pi) in block.iter_mut().zip(p.iter()) {
            *v = central(pi);
        }
        for (v, &pi) in block.iter_mut().zip(p.iter()) {
            if !is_central(pi) {
                *v = tail(pi);
            }
        }
    }
}

/// Standard-normal CDF via the Abramowitz–Stegun erf approximation
/// (7.1.26, |error| < 1.5e-7) — used for probability-of-feasibility.
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = sign * (1.0 - poly * (-x * x).exp());
    0.5 * (1.0 + erf)
}

/// QMC-where-possible normal draws for arbitrary dimension, written
/// row-major into `out`: one `dims`-long vector per row, as many rows as
/// `out` holds. The first `min(dims, 8)` coordinates of a row come from
/// the Sobol sequence (origin skipped), the remainder from a seeded
/// xorshift pseudo-random stream read in row order. The paper's BoTorch
/// setup uses scrambled Sobol at any dimension; this hybrid keeps the QMC
/// benefit on the leading coordinates while supporting the joint
/// posteriors NEI integrates over (observed points + candidate). One flat
/// caller-owned buffer holds every row, so a draw allocates nothing.
pub fn qmc_normal_hybrid_into(dims: usize, seed: u64, out: &mut [f64]) {
    if dims == 0 {
        return;
    }
    let qmc_dims = dims.min(MAX_DIMS);
    let mut seq = SobolSequence::new(qmc_dims);
    seq.next_into(&mut []); // drop the origin
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut uniform = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64)
            .clamp(1e-12, 1.0 - 1e-12)
    };
    for row in out.chunks_exact_mut(dims) {
        let (head, rest) = row.split_at_mut(qmc_dims);
        seq.next_into(head);
        for v in rest {
            *v = uniform();
        }
    }
    inverse_normal_cdf_in_place(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat draws split into rows, for the moment checks.
    fn rows(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut flat = vec![0.0; n * dims];
        qmc_normal_hybrid_into(dims, seed, &mut flat);
        flat.chunks(dims.max(1)).map(<[f64]>::to_vec).collect()
    }

    /// The nested, row-by-row generator the flat one replaced, kept as
    /// the bit-identity reference.
    fn nested_reference(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let qmc_dims = dims.min(MAX_DIMS);
        let mut seq = SobolSequence::new(qmc_dims.max(1));
        let _ = seq.next_point();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut uniform = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64)
                .clamp(1e-12, 1.0 - 1e-12)
        };
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = if dims == 0 {
                    Vec::new()
                } else {
                    seq.next_point()
                        .into_iter()
                        .map(inverse_normal_cdf)
                        .collect()
                };
                while row.len() < dims {
                    row.push(inverse_normal_cdf(uniform()));
                }
                row
            })
            .collect()
    }

    #[test]
    fn flat_draws_are_bit_identical_to_nested() {
        for dims in [0usize, 1, 7, 8, 9, 77] {
            for (n, seed) in [(64usize, 5u64), (13, 0xDEADBEEF)] {
                let mut flat = vec![0.0; n * dims];
                qmc_normal_hybrid_into(dims, seed, &mut flat);
                let nested = nested_reference(n, dims, seed);
                let want: Vec<u64> = nested.iter().flatten().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = flat.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "dims {dims}, n {n}");
            }
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.0) - 0.158655).abs() < 1e-5);
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_cdf_inverts_inverse() {
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let z = inverse_normal_cdf(p);
            assert!((normal_cdf(z) - p).abs() < 1e-5, "p={p}");
        }
    }

    #[test]
    fn in_place_inverse_cdf_matches_scalar_at_branch_edges() {
        let mut vals = vec![
            0.0,
            1e-320,
            0.01,
            P_LOW,
            P_LOW - 1e-17,
            0.5,
            1.0 - P_LOW,
            0.99,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
        ];
        let want: Vec<u64> = vals
            .iter()
            .map(|&p| inverse_normal_cdf(p).to_bits())
            .collect();
        inverse_normal_cdf_in_place(&mut vals);
        let got: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn hybrid_draws_have_unit_moments_in_high_dims() {
        let draws = rows(2048, 20, 7);
        for d in [0, 7, 8, 19] {
            let mean: f64 = draws.iter().map(|r| r[d]).sum::<f64>() / draws.len() as f64;
            let var: f64 =
                draws.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>() / draws.len() as f64;
            assert!(mean.abs() < 0.06, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 0.12, "dim {d} var {var}");
        }
    }

    #[test]
    fn hybrid_is_deterministic_per_seed() {
        let a = rows(10, 12, 3);
        let b = rows(10, 12, 3);
        let c = rows(10, 12, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn first_points_match_reference() {
        // Known first points of the 2-D Sobol sequence:
        // (0,0), (0.5,0.5), (0.75,0.25), (0.25,0.75), ...
        let mut seq = SobolSequence::new(2);
        assert_eq!(seq.next_point(), vec![0.0, 0.0]);
        assert_eq!(seq.next_point(), vec![0.5, 0.5]);
        assert_eq!(seq.next_point(), vec![0.75, 0.25]);
        assert_eq!(seq.next_point(), vec![0.25, 0.75]);
        assert_eq!(seq.next_point(), vec![0.375, 0.375]);
    }

    #[test]
    fn points_stay_in_unit_cube() {
        let mut seq = SobolSequence::new(8);
        for _ in 0..2000 {
            for v in seq.next_point() {
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn low_discrepancy_beats_grid_expectation() {
        // Integrating f(x) = x over [0,1): error of first n Sobol points
        // should shrink ~1/n. Check absolute error at n = 512.
        let mut seq = SobolSequence::new(1);
        let n = 512;
        let mean: f64 = (0..n).map(|_| seq.next_point()[0]).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 2e-3, "Sobol mean {mean}");
    }

    #[test]
    fn distinct_dimensions_are_not_identical() {
        let mut seq = SobolSequence::new(4);
        let _ = seq.next_point();
        let p = seq.take(50);
        for d in 1..4 {
            let same = p.iter().all(|row| row[0] == row[d]);
            assert!(!same, "dimension {d} duplicates dimension 0");
        }
    }

    #[test]
    #[should_panic(expected = "supported dims")]
    fn too_many_dims_panics() {
        let _ = SobolSequence::new(9);
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn inverse_normal_cdf_is_monotone_and_symmetric() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let z = inverse_normal_cdf(p);
            assert!(z > prev);
            prev = z;
            let z2 = inverse_normal_cdf(1.0 - p);
            assert!((z + z2).abs() < 1e-7, "symmetry at p={p}");
        }
    }

    #[test]
    fn qmc_normal_moments() {
        // Up to eight dimensions every coordinate is Sobol.
        let draws = rows(1024, 2, 0);
        for d in 0..2 {
            let mean: f64 = draws.iter().map(|r| r[d]).sum::<f64>() / draws.len() as f64;
            let var: f64 =
                draws.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>() / draws.len() as f64;
            assert!(mean.abs() < 0.02, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "dim {d} var {var}");
        }
    }
}
