//! Kraus channel families used by the paper's noise models.
//!
//! NISQ gate errors are depolarizing + thermal relaxation; measurement
//! errors are bit-flip + relaxation; idling is relaxation only. pQEC gate
//! and memory errors are depolarizing; pQEC measurement errors are bit-flip
//! (Section 5.2.1). All of those are expressible as single-qubit Kraus
//! channels plus the two-qubit depolarizing channel.

use eftq_numerics::{Complex, Mat2};

/// A single-qubit quantum channel in Kraus form `ρ → Σ_k K_k ρ K_k†`.
///
/// # Examples
///
/// ```
/// use eftq_statesim::KrausChannel;
///
/// let depol = KrausChannel::depolarizing(0.01);
/// assert!(depol.is_trace_preserving(1e-12));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KrausChannel {
    ops: Vec<Mat2>,
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: Vec<Mat2>) -> Self {
        assert!(
            !ops.is_empty(),
            "a channel needs at least one Kraus operator"
        );
        KrausChannel { ops }
    }

    /// The identity channel.
    pub fn identity() -> Self {
        KrausChannel::new(vec![Mat2::identity()])
    }

    /// Single-qubit depolarizing channel:
    /// `ρ → (1−p)ρ + p/3 (XρX + YρY + ZρZ)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let k0 = Mat2::identity().scale(Complex::real((1.0 - p).sqrt()));
        let kp = (p / 3.0).sqrt();
        KrausChannel::new(vec![
            k0,
            Mat2::pauli_x().scale(Complex::real(kp)),
            Mat2::pauli_y().scale(Complex::real(kp)),
            Mat2::pauli_z().scale(Complex::real(kp)),
        ])
    }

    /// Bit-flip channel `ρ → (1−p)ρ + p XρX` (the paper's measurement error
    /// component).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn bit_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        KrausChannel::new(vec![
            Mat2::identity().scale(Complex::real((1.0 - p).sqrt())),
            Mat2::pauli_x().scale(Complex::real(p.sqrt())),
        ])
    }

    /// Amplitude damping with decay probability `gamma`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ gamma ≤ 1`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range: {gamma}");
        let k0 = Mat2::new([
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::real((1.0 - gamma).sqrt()),
        ]);
        let k1 = Mat2::new([
            Complex::ZERO,
            Complex::real(gamma.sqrt()),
            Complex::ZERO,
            Complex::ZERO,
        ]);
        KrausChannel::new(vec![k0, k1])
    }

    /// Thermal relaxation for an idle/gate window of duration `t` with
    /// relaxation times `t1` (energy decay) and `t2` (coherence). Composed
    /// as amplitude damping `γ = 1 − e^{−t/T1}` followed by pure dephasing
    /// that brings the total coherence decay to `e^{−t/T2}`.
    ///
    /// # Panics
    ///
    /// Panics unless `t ≥ 0`, `t1 > 0`, `0 < t2 ≤ 2·t1` (the physical
    /// constraint on T2).
    pub fn thermal_relaxation(t: f64, t1: f64, t2: f64) -> Self {
        assert!(t >= 0.0, "duration must be non-negative");
        assert!(t1 > 0.0, "T1 must be positive");
        assert!(t2 > 0.0 && t2 <= 2.0 * t1, "T2 must satisfy 0 < T2 ≤ 2·T1");
        let gamma = 1.0 - (-t / t1).exp();
        // After amplitude damping, coherences carry e^{-t/(2T1)}; the extra
        // dephasing factor f brings them to e^{-t/T2}.
        let f = (-t / t2 + t / (2.0 * t1)).exp().min(1.0);
        let lambda = 1.0 - f * f;
        let ad = KrausChannel::amplitude_damping(gamma);
        let pd = KrausChannel::phase_damping(lambda);
        ad.compose(&pd)
    }

    /// Phase damping with parameter `lambda` (coherences scale by
    /// `sqrt(1−λ)`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lambda ≤ 1`.
    pub fn phase_damping(lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda out of range: {lambda}"
        );
        let k0 = Mat2::new([
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::real((1.0 - lambda).sqrt()),
        ]);
        let k1 = Mat2::new([
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(lambda.sqrt()),
        ]);
        KrausChannel::new(vec![k0, k1])
    }

    /// Sequential composition: `self` then `after` (Kraus products
    /// `A_j · K_i`).
    pub fn compose(&self, after: &KrausChannel) -> KrausChannel {
        let mut ops = Vec::with_capacity(self.ops.len() * after.ops.len());
        for a in &after.ops {
            for k in &self.ops {
                ops.push(a.mul(k));
            }
        }
        KrausChannel::new(ops)
    }

    /// Checks the completeness relation `Σ K† K = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let mut sum = Mat2::zero();
        for k in &self.ops {
            sum = sum.add(&k.adjoint().mul(k));
        }
        sum.approx_eq(&Mat2::identity(), tol)
    }

    /// Applies the channel to a single-qubit density matrix given as a 2×2
    /// block, operator by operator: the reference that
    /// [`KrausChannel::superoperator`] is checked against.
    pub fn apply_to_block(&self, block: &Mat2) -> Mat2 {
        let mut out = Mat2::zero();
        for k in &self.ops {
            out = out.add(&k.mul(block).mul(&k.adjoint()));
        }
        out
    }

    /// The channel as a 4×4 superoperator over vectorized 2×2 blocks:
    /// `S[(2i+j)·4 + (2l+m)] = Σ_k K_il · conj(K_jm)`, so
    /// `out_ij = Σ_lm S[ij][lm] · B_lm`.
    ///
    /// Precompute this once per channel application site: a block then
    /// costs 16 complex multiplies instead of the two matrix products per
    /// Kraus operator of [`KrausChannel::apply_to_block`] — the
    /// density-matrix executor applies one channel to `4ⁿ⁻¹` blocks, so
    /// this is its inner loop.
    pub fn superoperator(&self) -> [Complex; 16] {
        let mut s = [Complex::ZERO; 16];
        for k in &self.ops {
            for i in 0..2 {
                for j in 0..2 {
                    for l in 0..2 {
                        for m in 0..2 {
                            s[(2 * i + j) * 4 + (2 * l + m)] +=
                                k.m[i * 2 + l] * k.m[j * 2 + m].conj();
                        }
                    }
                }
            }
        }
        s
    }
}

/// Applies a precomputed [`KrausChannel::superoperator`] to one 2×2 block.
#[inline]
pub fn apply_superoperator(s: &[Complex; 16], block: &Mat2) -> Mat2 {
    let b = &block.m;
    let mut out = Mat2::zero();
    for (ij, o) in out.m.iter_mut().enumerate() {
        let row = &s[ij * 4..ij * 4 + 4];
        *o = row[0] * b[0] + row[1] * b[1] + row[2] * b[2] + row[3] * b[3];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_channels_are_trace_preserving() {
        for ch in [
            KrausChannel::identity(),
            KrausChannel::depolarizing(0.1),
            KrausChannel::bit_flip(0.2),
            KrausChannel::amplitude_damping(0.4),
            KrausChannel::phase_damping(0.25),
            KrausChannel::thermal_relaxation(100.0, 300.0, 200.0),
        ] {
            assert!(ch.is_trace_preserving(1e-10), "{ch:?}");
        }
    }

    #[test]
    fn composition_is_trace_preserving() {
        let a = KrausChannel::depolarizing(0.05);
        let b = KrausChannel::amplitude_damping(0.1);
        assert!(a.compose(&b).is_trace_preserving(1e-10));
    }

    #[test]
    fn depolarizing_contracts_bloch_vector() {
        // ρ = |+⟩⟨+| has off-diagonal 1/2; depol(p) scales X-coherence by
        // 1 − 4p/3.
        let p = 0.3;
        let ch = KrausChannel::depolarizing(p);
        let plus = Mat2::new([
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
        ]);
        let out = ch.apply_to_block(&plus);
        // Each non-identity Pauli error occurs with p/3 and two of the
        // three anticommute with X, so ⟨X⟩ scales by 1 − 4p/3.
        let want = 0.5 * (1.0 - 4.0 * p / 3.0);
        assert!((out.m[1].re - want).abs() < 1e-12);
        assert!((out.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_flip_mixes_populations() {
        let ch = KrausChannel::bit_flip(0.25);
        let zero = Mat2::new([Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO]);
        let out = ch.apply_to_block(&zero);
        assert!((out.m[0].re - 0.75).abs() < 1e-12);
        assert!((out.m[3].re - 0.25).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let ch = KrausChannel::amplitude_damping(0.5);
        let one = Mat2::new([Complex::ZERO, Complex::ZERO, Complex::ZERO, Complex::ONE]);
        let out = ch.apply_to_block(&one);
        assert!((out.m[0].re - 0.5).abs() < 1e-12);
        assert!((out.m[3].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thermal_relaxation_coherence_decay_matches_t2() {
        let (t, t1, t2) = (50.0, 200.0, 150.0);
        let ch = KrausChannel::thermal_relaxation(t, t1, t2);
        let plus = Mat2::new([
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
        ]);
        let out = ch.apply_to_block(&plus);
        let want = 0.5 * (-t / t2).exp();
        assert!(
            (out.m[1].re - want).abs() < 1e-10,
            "{} vs {want}",
            out.m[1].re
        );
    }

    #[test]
    fn thermal_relaxation_population_decay_matches_t1() {
        let (t, t1, t2) = (80.0, 100.0, 120.0);
        let ch = KrausChannel::thermal_relaxation(t, t1, t2);
        let one = Mat2::new([Complex::ZERO, Complex::ZERO, Complex::ZERO, Complex::ONE]);
        let out = ch.apply_to_block(&one);
        let want = (-t / t1).exp();
        assert!((out.m[3].re - want).abs() < 1e-10);
    }

    #[test]
    fn zero_strength_channels_are_identity() {
        let plus = Mat2::new([
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
            Complex::real(0.5),
        ]);
        for ch in [
            KrausChannel::depolarizing(0.0),
            KrausChannel::bit_flip(0.0),
            KrausChannel::thermal_relaxation(0.0, 100.0, 100.0),
        ] {
            let out = ch.apply_to_block(&plus);
            assert!(out.approx_eq(&plus, 1e-12), "{ch:?}");
        }
    }

    #[test]
    #[should_panic(expected = "T2 must satisfy")]
    fn unphysical_t2_rejected() {
        let _ = KrausChannel::thermal_relaxation(1.0, 100.0, 250.0);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn depolarizing_rejects_bad_p() {
        let _ = KrausChannel::depolarizing(1.5);
    }

    #[test]
    fn superoperator_matches_kraus_application() {
        let block = Mat2::new([
            Complex::new(0.6, 0.0),
            Complex::new(0.1, -0.2),
            Complex::new(0.1, 0.2),
            Complex::new(0.4, 0.0),
        ]);
        for ch in [
            KrausChannel::identity(),
            KrausChannel::depolarizing(0.17),
            KrausChannel::bit_flip(0.3),
            KrausChannel::amplitude_damping(0.25),
            KrausChannel::thermal_relaxation(50.0, 200.0, 150.0),
        ] {
            let via_super = apply_superoperator(&ch.superoperator(), &block);
            let via_kraus = ch.apply_to_block(&block);
            assert!(via_super.approx_eq(&via_kraus, 1e-12), "{ch:?}");
        }
    }
}
