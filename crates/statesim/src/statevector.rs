//! Exact pure-state simulation.

use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{Complex, Mat2};
use eftq_pauli::{PauliString, PauliSum};

/// The largest register a [`StateVector`] holds: `2²⁶` amplitudes are a
/// gigabyte.
pub(crate) const MAX_QUBITS: usize = 26;

/// The base index of every block over `bits` in an `n`-bit index space,
/// ascending: each index below `2ⁿ` with all of `bits` clear. One base
/// steps to the next by setting the block bits, adding one and clearing
/// them again, so the carry jumps over them.
pub(crate) fn block_bases<const K: usize>(
    n: usize,
    bits: [usize; K],
) -> impl Iterator<Item = usize> {
    let mask = bits.iter().fold(0usize, |m, &b| m | (1 << b));
    let mut next = 0usize;
    (0..1usize << (n - K)).map(move |_| {
        let base = next;
        next = ((next | mask) + 1) & !mask;
        base
    })
}

/// A pure state of `n ≤ 26` qubits. Basis index bit `q` is qubit `q`
/// (qubit 0 = least significant bit), matching `eftq-pauli`'s convention.
///
/// # Examples
///
/// ```
/// use eftq_statesim::StateVector;
///
/// let mut psi = StateVector::zero_state(1);
/// psi.apply_h(0);
/// assert!((psi.probability(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 26` (memory) or `n == 0`.
    pub fn zero_state(n: usize) -> Self {
        assert!(
            (1..=MAX_QUBITS).contains(&n),
            "state vector supports 1..={MAX_QUBITS} qubits, got {n}"
        );
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// Runs a fully bound circuit from `|0…0⟩` (measurements are ignored).
    ///
    /// # Panics
    ///
    /// Panics on symbolic parameters.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut s = StateVector::zero_state(circuit.num_qubits());
        s.run(circuit);
        s
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The amplitude vector, for the density-matrix block kernels.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Probability of basis state `b`.
    pub fn probability(&self, b: usize) -> f64 {
        self.amps[b].norm_sqr()
    }

    /// Squared norm (should be 1 for a physical state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .fold(Complex::ZERO, |acc, t| acc + t)
            .norm_sqr()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    pub fn apply_mat2(&mut self, q: usize, u: &Mat2) {
        assert!(q < self.n, "qubit {q} out of range");
        let step = 1usize << q;
        for block in self.amps.chunks_exact_mut(step << 1) {
            let (lo, hi) = block.split_at_mut(step);
            for (a0, a1) in lo.iter_mut().zip(hi) {
                (*a0, *a1) = u.apply(*a0, *a1);
            }
        }
    }

    /// Hadamard on `q`.
    pub fn apply_h(&mut self, q: usize) {
        self.apply_mat2(q, &Mat2::hadamard());
    }

    /// CNOT with `control` and `target`.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let cm = 1usize << control;
        let tm = 1usize << target;
        for base in block_bases(self.n, [control, target]) {
            self.amps.swap(base | cm, base | cm | tm);
        }
    }

    /// CZ between `a` and `b`.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let ab = (1usize << a) | (1usize << b);
        for base in block_bases(self.n, [a, b]) {
            let e = &mut self.amps[base | ab];
            *e = -*e;
        }
    }

    /// SWAP of `a` and `b`.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let am = 1usize << a;
        let bm = 1usize << b;
        for base in block_bases(self.n, [a, b]) {
            self.amps.swap(base | am, base | bm);
        }
    }

    /// Applies one bound gate (measurements are no-ops here).
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

    /// Runs every gate of a bound circuit.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit size mismatch");
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Expectation value of a Hermitian observable.
    pub fn expectation(&self, observable: &PauliSum) -> f64 {
        observable.expectation(&self.amps)
    }

    /// Expectation of a single Pauli string (real part).
    pub fn expectation_pauli(&self, p: &PauliString) -> f64 {
        p.expectation(&self.amps).re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::ansatz;

    #[test]
    fn block_bases_are_the_indices_with_block_bits_clear() {
        let got: Vec<usize> = block_bases(5, [3, 1]).collect();
        let want: Vec<usize> = (0..32).filter(|i| i & 0b1010 == 0).collect();
        assert_eq!(got, want);
        let got: Vec<usize> = block_bases(6, [0, 5, 2, 3]).collect();
        let want: Vec<usize> = (0..64).filter(|i| i & 0b101101 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
        let zz: PauliString = "ZZ".parse().unwrap();
        let xx: PauliString = "XX".parse().unwrap();
        let yy: PauliString = "YY".parse().unwrap();
        assert!((s.expectation_pauli(&zz) - 1.0).abs() < 1e-12);
        assert!((s.expectation_pauli(&xx) - 1.0).abs() < 1e-12);
        assert!((s.expectation_pauli(&yy) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_via_gates() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let s = StateVector::from_circuit(&c);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b1111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cz_and_swap() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cz(0, 1);
        let s = StateVector::from_circuit(&c);
        // CZ|++⟩: amplitude of |11⟩ flips sign.
        assert!(s.amplitudes()[3].re < 0.0);
        let mut c2 = Circuit::new(2);
        c2.x(0).swap(0, 1);
        let s2 = StateVector::from_circuit(&c2);
        assert_eq!(s2.probability(0b10), 1.0);
    }

    #[test]
    fn rz_phases_relative_only() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, std::f64::consts::FRAC_PI_2).h(0);
        let s = StateVector::from_circuit(&c);
        // H Rz(π/2) H = Rx(π/2) up to phase → P(0) = 1/2.
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let z = StateVector::zero_state(1);
        let mut o = StateVector::zero_state(1);
        o.apply_mat2(0, &Mat2::pauli_x());
        assert!(z.fidelity(&o) < 1e-15);
        assert!((z.fidelity(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ansatz_energy_is_variational_bound() {
        // Any bound ansatz energy is ≥ exact ground energy.
        let mut h = PauliSum::new(4);
        for q in 0..3 {
            let mut s = String::from("IIII");
            s.replace_range(q..q + 2, "XX");
            h.push_str(0.5, &s);
        }
        for q in 0..4 {
            let mut s = String::from("IIII");
            s.replace_range(q..q + 1, "Z");
            h.push_str(1.0, &s);
        }
        let e0 = h.ground_energy_default().unwrap();
        let a = ansatz::linear_hea(4, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| (i as f64) * 0.1).collect();
        let s = StateVector::from_circuit(&a.bind(&params));
        assert!(s.expectation(&h) >= e0 - 1e-9);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let a = ansatz::fully_connected_hea(5, 2);
        let params: Vec<f64> = (0..a.num_params()).map(|i| (i as f64) * 0.37).collect();
        let s = StateVector::from_circuit(&a.bind(&params));
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "symbolic")]
    fn symbolic_gate_rejected() {
        let mut c = Circuit::new(1);
        c.rz_param(0, 0);
        let _ = StateVector::from_circuit(&c);
    }
}
