//! Small dense complex matrices: single-qubit (2×2) operators, plus the
//! standard gate matrices used across the workspace.

use crate::complex::Complex;
use std::f64::consts::FRAC_1_SQRT_2;

/// A 2×2 complex matrix in row-major order, used for single-qubit operators.
///
/// # Examples
///
/// ```
/// use eftq_numerics::Mat2;
///
/// let s = Mat2::s_gate();
/// let z = s.mul(&s); // S² = Z
/// assert!(z.approx_eq(&Mat2::pauli_z(), 1e-12));
/// assert!(s.is_unitary(1e-12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Mat2 {
    /// Row-major entries `[m00, m01, m10, m11]`.
    pub m: [Complex; 4],
}

impl Mat2 {
    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m: [Complex; 4]) -> Self {
        Mat2 { m }
    }

    /// The 2×2 identity.
    pub fn identity() -> Self {
        Mat2::new([Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ONE])
    }

    /// The zero matrix.
    pub fn zero() -> Self {
        Mat2::new([Complex::ZERO; 4])
    }

    /// Pauli X.
    pub fn pauli_x() -> Self {
        Mat2::new([Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO])
    }

    /// Pauli Y.
    pub fn pauli_y() -> Self {
        Mat2::new([Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO])
    }

    /// Pauli Z.
    pub fn pauli_z() -> Self {
        Mat2::new([Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE])
    }

    /// Hadamard gate.
    pub fn hadamard() -> Self {
        let h = Complex::real(FRAC_1_SQRT_2);
        Mat2::new([h, h, h, -h])
    }

    /// Phase gate `S = diag(1, i)`.
    pub fn s_gate() -> Self {
        Mat2::new([Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::I])
    }

    /// Inverse phase gate `S† = diag(1, -i)`.
    pub fn sdg_gate() -> Self {
        Mat2::new([Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::I])
    }

    /// T gate `diag(1, e^{iπ/4})`.
    pub fn t_gate() -> Self {
        Mat2::new([
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::cis(std::f64::consts::FRAC_PI_4),
        ])
    }

    /// `Rz(θ) = diag(e^{-iθ/2}, e^{iθ/2})`.
    pub fn rz(theta: f64) -> Self {
        Mat2::new([
            Complex::cis(-theta / 2.0),
            Complex::ZERO,
            Complex::ZERO,
            Complex::cis(theta / 2.0),
        ])
    }

    /// `Rx(θ) = cos(θ/2)·I − i·sin(θ/2)·X`.
    pub fn rx(theta: f64) -> Self {
        let c = Complex::real((theta / 2.0).cos());
        let s = -Complex::I * (theta / 2.0).sin();
        Mat2::new([c, s, s, c])
    }

    /// `Ry(θ) = cos(θ/2)·I − i·sin(θ/2)·Y`.
    pub fn ry(theta: f64) -> Self {
        let c = Complex::real((theta / 2.0).cos());
        let s = (theta / 2.0).sin();
        Mat2::new([c, Complex::real(-s), Complex::real(s), c])
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Mat2) -> Mat2 {
        let a = &self.m;
        let b = &rhs.m;
        Mat2::new([
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ])
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat2 {
        let a = &self.m;
        Mat2::new([a[0].conj(), a[2].conj(), a[1].conj(), a[3].conj()])
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex) -> Mat2 {
        let mut out = *self;
        for e in &mut out.m {
            *e *= k;
        }
        out
    }

    /// Entry-wise sum.
    pub fn add(&self, rhs: &Mat2) -> Mat2 {
        let mut out = *self;
        for (e, r) in out.m.iter_mut().zip(rhs.m.iter()) {
            *e += *r;
        }
        out
    }

    /// Applies the matrix to a 2-vector `(v0, v1)`.
    #[inline]
    pub fn apply(&self, v0: Complex, v1: Complex) -> (Complex, Complex) {
        (
            self.m[0] * v0 + self.m[1] * v1,
            self.m[2] * v0 + self.m[3] * v1,
        )
    }

    /// Trace.
    pub fn trace(&self) -> Complex {
        self.m[0] + self.m[3]
    }

    /// Whether `U†U ≈ I` within absolute tolerance `tol` per entry.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.adjoint().mul(self).approx_eq(&Mat2::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, rhs: &Mat2, tol: f64) -> bool {
        self.m
            .iter()
            .zip(rhs.m.iter())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Operator distance `max_ij |a_ij - b_ij|`; a cheap proxy for the
    /// diamond-norm distance.
    pub fn max_entry_distance(&self, rhs: &Mat2) -> f64 {
        self.m
            .iter()
            .zip(rhs.m.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Distance to `rhs` up to a global phase: minimizes the max-entry
    /// distance over a phase chosen from the largest entry alignment.
    pub fn phase_invariant_distance(&self, rhs: &Mat2) -> f64 {
        // Pick the entry of `rhs` with largest modulus, align phases there.
        let (idx, _) = rhs
            .m
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.norm_sqr().partial_cmp(&b.norm_sqr()).unwrap())
            .expect("2x2 matrix is non-empty");
        if rhs.m[idx].abs() < 1e-15 || self.m[idx].abs() < 1e-15 {
            return self.max_entry_distance(rhs);
        }
        let phase = rhs.m[idx] / self.m[idx];
        let phase = phase / phase.abs();
        self.scale(phase).max_entry_distance(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn paulis_square_to_identity() {
        for p in [Mat2::pauli_x(), Mat2::pauli_y(), Mat2::pauli_z()] {
            assert!(p.mul(&p).approx_eq(&Mat2::identity(), TOL));
            assert!(p.is_unitary(TOL));
        }
    }

    #[test]
    fn pauli_algebra_xy_equals_iz() {
        let xy = Mat2::pauli_x().mul(&Mat2::pauli_y());
        let iz = Mat2::pauli_z().scale(Complex::I);
        assert!(xy.approx_eq(&iz, TOL));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let h = Mat2::hadamard();
        let hxh = h.mul(&Mat2::pauli_x()).mul(&h);
        assert!(hxh.approx_eq(&Mat2::pauli_z(), TOL));
    }

    #[test]
    fn s_and_t_phase_relations() {
        // T² = S, S² = Z.
        let t2 = Mat2::t_gate().mul(&Mat2::t_gate());
        assert!(t2.approx_eq(&Mat2::s_gate(), TOL));
        let s2 = Mat2::s_gate().mul(&Mat2::s_gate());
        assert!(s2.approx_eq(&Mat2::pauli_z(), TOL));
        let ssdg = Mat2::s_gate().mul(&Mat2::sdg_gate());
        assert!(ssdg.approx_eq(&Mat2::identity(), TOL));
    }

    #[test]
    fn rotations_are_unitary_and_periodic() {
        for &theta in &[0.0, 0.3, 1.7, std::f64::consts::PI, 5.9] {
            assert!(Mat2::rz(theta).is_unitary(TOL));
            assert!(Mat2::rx(theta).is_unitary(TOL));
            assert!(Mat2::ry(theta).is_unitary(TOL));
        }
        // Rz(2π) = -I (spinor periodicity).
        let full = Mat2::rz(2.0 * std::f64::consts::PI);
        assert!(full.approx_eq(&Mat2::identity().scale(-Complex::ONE), 1e-9));
    }

    #[test]
    fn rz_pi_2_is_s_up_to_phase() {
        let rz = Mat2::rz(std::f64::consts::FRAC_PI_2);
        assert!(rz.phase_invariant_distance(&Mat2::s_gate()) < 1e-12);
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let rx = Mat2::rx(std::f64::consts::PI);
        assert!(rx.phase_invariant_distance(&Mat2::pauli_x()) < 1e-12);
    }

    #[test]
    fn mat2_apply_matches_mul() {
        let u = Mat2::hadamard().mul(&Mat2::s_gate());
        let (a, b) = u.apply(Complex::ONE, Complex::ZERO);
        assert!(a.approx_eq(u.m[0], TOL));
        assert!(b.approx_eq(u.m[2], TOL));
    }

    #[test]
    fn phase_invariant_distance_ignores_global_phase() {
        let u = Mat2::rz(0.7);
        let v = u.scale(Complex::cis(1.2345));
        assert!(u.phase_invariant_distance(&v) < 1e-12);
        assert!(u.max_entry_distance(&v) > 0.1);
    }
}
