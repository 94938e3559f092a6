//! Dense density-matrix simulation with in-place block transforms.

use crate::channels::KrausChannel;
use crate::statevector::StateVector;
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{Complex, Mat2};
use eftq_pauli::{PauliString, PauliSum};

/// A density matrix over `n ≤ 13` qubits, stored row-major
/// (`rho[r * dim + c]`). Basis index bit `q` is qubit `q`.
///
/// Single-qubit unitaries and channels act via in-place 2×2 block
/// transforms; CX/CZ/SWAP act via index permutations — no scratch copy of
/// the `4ⁿ`-entry matrix is ever made.
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
    dim: usize,
    rho: Vec<Complex>,
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
            (1..=13).contains(&n),
            "density matrix supports 1..=13 qubits, got {n}"
        );
        let dim = 1usize << n;
        let mut rho = vec![Complex::ZERO; dim * dim];
        rho[0] = Complex::ONE;
        DensityMatrix { n, dim, rho }
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
        self.rho[r * self.dim + c]
    }

    /// Trace (should be 1).
    pub fn trace(&self) -> Complex {
        (0..self.dim).map(|i| self.rho[i * self.dim + i]).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2ⁿ` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_{r,c} ρ_{rc} ρ_{cr} = Σ |ρ_{rc}|² for Hermitian ρ.
        self.rho.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Probability of measuring basis state `b`.
    pub fn probability(&self, b: usize) -> f64 {
        self.rho[b * self.dim + b].re
    }

    /// The diagonal as a probability vector.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|b| self.probability(b)).collect()
    }

    /// Applies a single-qubit unitary `ρ → UρU†` on qubit `q`, in place.
    pub fn apply_mat2(&mut self, q: usize, u: &Mat2) {
        assert!(q < self.n, "qubit {q} out of range");
        let mask = 1usize << q;
        let ud = u.adjoint();
        // Row transform: for every column c and row pair (r, r|mask).
        for c in 0..self.dim {
            for r in 0..self.dim {
                if r & mask != 0 {
                    continue;
                }
                let r1 = r | mask;
                let a = self.rho[r * self.dim + c];
                let b = self.rho[r1 * self.dim + c];
                let (na, nb) = u.apply(a, b);
                self.rho[r * self.dim + c] = na;
                self.rho[r1 * self.dim + c] = nb;
            }
        }
        // Column transform with U†ᵀ = conj(U): ρ ← ρ U†.
        for r in 0..self.dim {
            let row = r * self.dim;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let a = self.rho[row + c];
                let b = self.rho[row + c1];
                // (ρU†)_{r,c} = a·U†_{c,c} + b·U†_{c1,c}
                let na = a * ud.m[0] + b * ud.m[2];
                let nb = a * ud.m[1] + b * ud.m[3];
                self.rho[row + c] = na;
                self.rho[row + c1] = nb;
            }
        }
    }

    /// Applies a CNOT (a basis permutation, self-inverse).
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let cm = 1usize << control;
        let tm = 1usize << target;
        let perm = |b: usize| if b & cm != 0 { b ^ tm } else { b };
        self.apply_involution_permutation(perm);
    }

    /// Applies a SWAP.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let am = 1usize << a;
        let bm = 1usize << b;
        let perm = move |idx: usize| {
            let ba = (idx & am != 0) as usize;
            let bb = (idx & bm != 0) as usize;
            if ba == bb {
                idx
            } else {
                idx ^ am ^ bm
            }
        };
        self.apply_involution_permutation(perm);
    }

    /// Applies a CZ (diagonal ±1).
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let am = 1usize << a;
        let bm = 1usize << b;
        let sign = |idx: usize| idx & am != 0 && idx & bm != 0;
        for r in 0..self.dim {
            for c in 0..self.dim {
                if sign(r) != sign(c) {
                    let e = &mut self.rho[r * self.dim + c];
                    *e = -*e;
                }
            }
        }
    }

    fn apply_involution_permutation<F: Fn(usize) -> usize>(&mut self, perm: F) {
        for r in 0..self.dim {
            let pr = perm(r);
            for c in 0..self.dim {
                let pc = perm(c);
                // Swap (r,c) ↔ (pr,pc) exactly once.
                if (pr, pc) > (r, c) {
                    self.rho.swap(r * self.dim + c, pr * self.dim + pc);
                }
            }
        }
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
        let mask = 1usize << q;
        for r in 0..self.dim {
            if r & mask != 0 {
                continue;
            }
            let r1 = r | mask;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let block = Mat2::new([
                    self.rho[r * self.dim + c],
                    self.rho[r * self.dim + c1],
                    self.rho[r1 * self.dim + c],
                    self.rho[r1 * self.dim + c1],
                ]);
                let out = crate::channels::apply_superoperator(&s, &block);
                self.rho[r * self.dim + c] = out.m[0];
                self.rho[r * self.dim + c1] = out.m[1];
                self.rho[r1 * self.dim + c] = out.m[2];
                self.rho[r1 * self.dim + c1] = out.m[3];
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
        let mask = 1usize << q;
        for r in 0..self.dim {
            if r & mask != 0 {
                continue;
            }
            let r1 = r | mask;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let (d0, d1) = (r * self.dim + c, r1 * self.dim + c1);
                let t = (self.rho[d0] + self.rho[d1]) * mix;
                self.rho[d0] = self.rho[d0] * keep + t;
                self.rho[d1] = self.rho[d1] * keep + t;
                self.rho[r * self.dim + c1] *= keep;
                self.rho[r1 * self.dim + c] *= keep;
            }
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
        let ma = 1usize << a;
        let mb = 1usize << b;
        let pair = [0usize, ma, mb, ma | mb];
        let dim = self.dim;
        // Iterate over (row, column) bases with the a/b bits cleared.
        for r_base in 0..dim {
            if r_base & (ma | mb) != 0 {
                continue;
            }
            for c_base in 0..dim {
                if c_base & (ma | mb) != 0 {
                    continue;
                }
                // Average of the four ab-diagonal entries (the partial
                // trace element for this (r_rest, c_rest)).
                let mut avg = Complex::ZERO;
                for &x in &pair {
                    avg += self.rho[(r_base | x) * dim + (c_base | x)];
                }
                avg *= 0.25;
                for &ra in &pair {
                    for &ca in &pair {
                        let e = &mut self.rho[(r_base | ra) * dim + (c_base | ca)];
                        *e *= keep;
                        if ra == ca {
                            *e += avg * mix;
                        }
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
        for b in 0..self.dim {
            let bx = b ^ xm;
            let s = if ((bx & zm).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            acc += self.rho[bx * self.dim + b] * s;
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
        for r in 0..self.dim {
            for c in 0..self.dim {
                acc += amps[r].conj() * self.rho[r * self.dim + c] * amps[c];
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
        let total: f64 = rho.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }
}
