//! Dense density-matrix simulation on the state-vector kernels.

use crate::channels::KrausChannel;
use crate::statevector::{block_bases, StateVector, MAX_QUBITS};
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{Complex, Mat2};
use eftq_pauli::{PauliString, PauliSum};

/// A density matrix over `n ≤ 13` qubits, stored as a state vector over
/// `2n` qubits (vectorized ρ): entry `(r, c)` is amplitude `r·2ⁿ + c`, so
/// the row bit of qubit `q` is index bit `q + n` and its column bit is
/// index bit `q`.
///
/// A unitary is two [`StateVector`] kernel calls: `UρU†` is `U` on the
/// row bit, then `conj(U)` on the column bit, and CX/CZ/SWAP run once on
/// the row bits and once on the column bits. Channels act in place on
/// the 2×2 (one qubit) or 4×4 (two qubits) blocks over the row and
/// column bits of the qubits they act on — no scratch copy of the
/// `4ⁿ`-entry matrix is made.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
/// use eftq_statesim::{DensityMatrix, KrausChannel};
/// use eftq_pauli::PauliSum;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut rho = DensityMatrix::from_circuit(&c);
/// rho.apply_channel(0, &KrausChannel::depolarizing(0.1));
/// let mut zz = PauliSum::new(2);
/// zz.push_str(1.0, "ZZ");
/// assert!(rho.expectation(&zz) < 1.0); // noise degrades the correlation
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    vec: StateVector,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 13` (memory: a 13-qubit density matrix is
    /// already a gigabyte).
    pub fn zero_state(n: usize) -> Self {
        assert!(
            (1..=MAX_QUBITS / 2).contains(&n),
            "density matrix supports 1..={} qubits, got {n}",
            MAX_QUBITS / 2
        );
        DensityMatrix {
            n,
            vec: StateVector::zero_state(2 * n),
        }
    }

    /// Runs a fully bound circuit noiselessly from `|0…0⟩`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
        rho.run(circuit);
        rho
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The matrix entry `⟨r|ρ|c⟩`.
    pub fn entry(&self, r: usize, c: usize) -> Complex {
        self.vec.amplitudes()[(r << self.n) | c]
    }

    /// Trace (should be 1).
    pub fn trace(&self) -> Complex {
        (0..1usize << self.n).map(|i| self.entry(i, i)).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2ⁿ` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_{r,c} ρ_{rc} ρ_{cr} = Σ |ρ_{rc}|² for Hermitian ρ: the
        // squared norm of vectorized ρ.
        self.vec.norm_sqr()
    }

    /// Probability of measuring basis state `b`.
    pub fn probability(&self, b: usize) -> f64 {
        self.entry(b, b).re
    }

    /// Applies a single-qubit unitary `ρ → UρU†` on qubit `q`, in place:
    /// `U` on the row bit, then `conj(U)` on the column bit, since
    /// `(ρU†)_{rc} = Σ_k conj(U_{ck}) ρ_{rk}`.
    pub fn apply_mat2(&mut self, q: usize, u: &Mat2) {
        assert!(q < self.n, "qubit {q} out of range");
        self.vec.apply_mat2(q + self.n, u);
        self.vec.apply_mat2(q, &Mat2::new(u.m.map(Complex::conj)));
    }

    /// Applies a CNOT (a basis permutation of rows, then of columns).
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        self.vec.apply_cx(control + self.n, target + self.n);
        self.vec.apply_cx(control, target);
    }

    /// Applies a SWAP.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        self.vec.apply_swap(a + self.n, b + self.n);
        self.vec.apply_swap(a, b);
    }

    /// Applies a CZ (diagonal ±1): the sign of each row with both bits
    /// set, then of each such column.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        self.vec.apply_cz(a + self.n, b + self.n);
        self.vec.apply_cz(a, b);
    }

    /// Applies a single-qubit Kraus channel on qubit `q`, in place, via 2×2
    /// block transforms over the (row-bit, column-bit) planes.
    ///
    /// The channel is folded into its 4×4 superoperator *once* (a scratch
    /// array on the stack) and every block pays 16 complex multiplies,
    /// instead of re-walking the Kraus operators — two matrix products
    /// each — per block as the generic loop did.
    pub fn apply_channel(&mut self, q: usize, channel: &KrausChannel) {
        assert!(q < self.n, "qubit {q} out of range");
        let s = channel.superoperator();
        let (cm, rm) = (1 << q, 1 << (q + self.n));
        let rho = self.vec.amplitudes_mut();
        for base in block_bases(2 * self.n, [q, q + self.n]) {
            let idx = [base, base | cm, base | rm, base | rm | cm];
            let block = Mat2::new(idx.map(|i| rho[i]));
            let out = crate::channels::apply_superoperator(&s, &block);
            for (i, v) in idx.into_iter().zip(out.m) {
                rho[i] = v;
            }
        }
    }

    /// Single-qubit depolarizing channel of strength `p` on `q`, in
    /// closed form: per 2×2 block,
    /// `B → (1 − 4p/3)·B + (2p/3)·tr(B)·I` (from the Pauli-twirl identity
    /// `XBX + YBY + ZBZ = 2·tr(B)·I − B`), skipping the generic Kraus
    /// loop entirely. Matches
    /// `apply_channel(q, &KrausChannel::depolarizing(p))` to rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` and `q` is in range.
    pub fn apply_depolarizing_1q(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        assert!(q < self.n, "qubit {q} out of range");
        if p == 0.0 {
            return;
        }
        let keep = 1.0 - 4.0 * p / 3.0;
        let mix = 2.0 * p / 3.0;
        let (cm, rm) = (1 << q, 1 << (q + self.n));
        let rho = self.vec.amplitudes_mut();
        for base in block_bases(2 * self.n, [q, q + self.n]) {
            let (d0, d1) = (base, base | rm | cm);
            let t = (rho[d0] + rho[d1]) * mix;
            rho[d0] = rho[d0] * keep + t;
            rho[d1] = rho[d1] * keep + t;
            rho[base | cm] *= keep;
            rho[base | rm] *= keep;
        }
    }

    /// Two-qubit depolarizing channel of strength `p` on `(a, b)`: each of
    /// the 15 non-identity two-qubit Paulis occurs with probability `p/15`.
    ///
    /// Implemented via the exact identity
    /// `(1/16)Σ_P PρP = I/4 ⊗ Tr_ab ρ`, which gives
    /// `ρ → (1 − 16p/15)ρ + (16p/15)(I/4 ⊗ Tr_ab ρ)` in a single pass —
    /// ~15× faster than conjugating each Pauli separately (this channel is
    /// the inner loop of every noisy CNOT).
    pub fn apply_depolarizing_2q(&mut self, a: usize, b: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        assert!(
            a < self.n && b < self.n && a != b,
            "bad qubit pair ({a}, {b})"
        );
        if p == 0.0 {
            return;
        }
        let mix = 16.0 * p / 15.0;
        let keep = 1.0 - mix;
        let n = self.n;
        let pair = [0usize, 1 << a, 1 << b, (1 << a) | (1 << b)];
        let rho = self.vec.amplitudes_mut();
        // One 4×4 block per (row, column) base with the a/b bits cleared.
        for base in block_bases(2 * n, [a, b, a + n, b + n]) {
            // Average of the four ab-diagonal entries (the partial trace
            // element for this block).
            let mut avg = Complex::ZERO;
            for &x in &pair {
                avg += rho[base | (x << n) | x];
            }
            avg *= 0.25;
            for &ra in &pair {
                for &ca in &pair {
                    let e = &mut rho[base | (ra << n) | ca];
                    *e *= keep;
                    if ra == ca {
                        *e += avg * mix;
                    }
                }
            }
        }
    }

    /// Applies one bound gate (measurements are no-ops; use the diagonal
    /// for outcome statistics).
    ///
    /// # Panics
    ///
    /// Panics on symbolic parameters.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Measure(_) => {}
            ref g => {
                let q = g.qubits()[0];
                let u = g
                    .matrix_1q()
                    .unwrap_or_else(|| panic!("cannot simulate symbolic gate {g}"));
                self.apply_mat2(q, &u);
            }
        }
    }

    /// Runs every gate of a bound circuit, noiselessly.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit size mismatch");
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Expectation `Tr(P ρ)` of a Pauli string (real part).
    pub fn expectation_pauli(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        let xm = p.x_mask_u64() as usize;
        let zm = p.z_mask_u64() as usize;
        let base = Complex::i_pow((p.phase_exponent() as usize + p.y_count()) as u8 % 4);
        let mut acc = Complex::ZERO;
        // Tr(Pρ) = Σ_b φ(b ⊕ x) ρ_{b⊕x, b} with φ the diagonal phase of P.
        for b in 0..1usize << self.n {
            let bx = b ^ xm;
            let s = if ((bx & zm).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            acc += self.entry(bx, b) * s;
        }
        (acc * base).re
    }

    /// Expectation `Tr(H ρ)` of an observable.
    pub fn expectation(&self, observable: &PauliSum) -> f64 {
        observable
            .terms()
            .iter()
            .map(|t| t.coefficient * self.expectation_pauli(&t.string))
            .sum()
    }

    /// Fidelity against a pure state: `⟨ψ|ρ|ψ⟩`.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.num_qubits(), self.n, "qubit count mismatch");
        let amps = psi.amplitudes();
        let mut acc = Complex::ZERO;
        for (r, ar) in amps.iter().enumerate() {
            for (c, ac) in amps.iter().enumerate() {
                acc += ar.conj() * self.entry(r, c) * *ac;
            }
        }
        acc.re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::ansatz;

    #[test]
    fn zero_state_is_pure() {
        let rho = DensityMatrix::zero_state(3);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert_eq!(rho.probability(0), 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let a = ansatz::fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| 0.21 * i as f64).collect();
        let c = a.bind(&params);
        let psi = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        let mut h = PauliSum::new(4);
        h.push_str(0.7, "XXII");
        h.push_str(-0.3, "ZZZZ");
        h.push_str(0.5, "IYYI");
        assert!((rho.expectation(&h) - psi.expectation(&h)).abs() < 1e-9);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-9);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depolarizing_drives_to_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_channel(0, &KrausChannel::depolarizing(1.0));
        // p = 1 depolarizing leaves (1/3)(XρX + YρY + ZρZ); for |0⟩⟨0| this
        // is diag(1/3, 2/3).
        assert!((rho.probability(0) - 1.0 / 3.0).abs() < 1e-12);
        // Repeated application converges to I/2.
        for _ in 0..20 {
            rho.apply_channel(0, &KrausChannel::depolarizing(0.5));
        }
        assert!((rho.probability(0) - 0.5).abs() < 1e-6);
        assert!((rho.purity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn channel_preserves_trace_and_hermiticity() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.7);
        let mut rho = DensityMatrix::from_circuit(&c);
        rho.apply_channel(1, &KrausChannel::thermal_relaxation(30.0, 100.0, 80.0));
        rho.apply_depolarizing_2q(0, 2, 0.05);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        for r in 0..8 {
            for cidx in 0..8 {
                let a = rho.entry(r, cidx);
                let b = rho.entry(cidx, r).conj();
                assert!(a.approx_eq(b, 1e-10), "hermiticity at ({r},{cidx})");
            }
        }
    }

    #[test]
    fn bell_state_zz_decays_under_noise() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rho = DensityMatrix::from_circuit(&c);
        let mut zz = PauliSum::new(2);
        zz.push_str(1.0, "ZZ");
        let before = rho.expectation(&zz);
        rho.apply_channel(0, &KrausChannel::depolarizing(0.1));
        let after = rho.expectation(&zz);
        assert!(before > after, "{before} vs {after}");
        // ZZ under single-qubit depol on one qubit: scales by 1 - 4p/3.
        assert!((after - before * (1.0 - 0.4 / 3.0)).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_depolarizing_scales_correlations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rho = DensityMatrix::from_circuit(&c);
        let mut zz = PauliSum::new(2);
        zz.push_str(1.0, "ZZ");
        rho.apply_depolarizing_2q(0, 1, 0.15);
        // 2q depol: ⟨P⟩ scales by 1 − 16p/15 for weight-2 P.
        assert!((rho.expectation(&zz) - (1.0 - 16.0 * 0.15 / 15.0)).abs() < 1e-10);
    }

    #[test]
    fn cx_cz_swap_match_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 2).cz(1, 2).swap(0, 1).rz(2, 0.4).cx(2, 1);
        let psi = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_gate_is_noop() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let rho = DensityMatrix::from_circuit(&c);
        assert!((rho.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closed_form_depolarizing_matches_kraus_channel() {
        let a = ansatz::fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| 0.31 * i as f64).collect();
        let c = a.bind(&params);
        for q in 0..4 {
            for p in [0.0, 0.05, 0.4, 1.0] {
                let mut fast = DensityMatrix::from_circuit(&c);
                let mut generic = fast.clone();
                fast.apply_depolarizing_1q(q, p);
                generic.apply_channel(q, &KrausChannel::depolarizing(p));
                for r in 0..16 {
                    for cc in 0..16 {
                        assert!(
                            fast.entry(r, cc).approx_eq(generic.entry(r, cc), 1e-12),
                            "q={q} p={p} at ({r},{cc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(1, 1.1).cx(1, 2);
        let mut rho = DensityMatrix::from_circuit(&c);
        rho.apply_channel(2, &KrausChannel::amplitude_damping(0.3));
        let total: f64 = (0..8).map(|b| rho.probability(b)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }
}
