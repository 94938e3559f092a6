//! The circuit container: an ordered gate list with parameter management.

use crate::gate::{Angle, Gate};
use std::fmt;

/// Gate-count summary of a circuit, the quantity driving every fidelity and
/// resource model in the paper (Section 4.4's CNOT:Rz ratio in particular).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// CNOT count.
    pub cx: usize,
    /// Other two-qubit Cliffords (CZ, SWAP).
    pub other_two_qubit: usize,
    /// Parameterized or non-Clifford-angle rotations (the gates requiring
    /// magic-state injection under pQEC).
    pub rz_like: usize,
    /// Single-qubit Clifford gates (H, S, Paulis, Clifford-angle rotations).
    pub single_clifford: usize,
    /// T/T† gates.
    pub t: usize,
    /// Measurements.
    pub measure: usize,
}

impl GateCounts {
    /// Total gate count.
    pub fn total(&self) -> usize {
        self.cx + self.other_two_qubit + self.rz_like + self.single_clifford + self.t + self.measure
    }
}

/// An ordered list of gates over `n` qubits, with optional symbolic
/// parameters.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).rz_param(1, 0).measure_all();
/// assert_eq!(c.num_symbolic_params(), 1);
/// let bound = c.bind(&[std::f64::consts::PI]);
/// assert_eq!(bound.num_symbolic_params(), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n: usize) -> Self {
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The gate list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit ≥ `n`, or if a two-qubit gate
    /// addresses the same qubit twice.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        for q in gate.qubits() {
            assert!(q < self.n, "gate {gate} addresses qubit {q} of {}", self.n);
        }
        if let Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) = gate {
            assert_ne!(a, b, "two-qubit gate with identical qubits: {gate}");
        }
        self.gates.push(gate);
        self
    }

    /// Appends every gate of `other` (qubit counts must match).
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different qubit count.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.n, other.n, "circuit qubit count mismatch");
        self.gates.extend_from_slice(&other.gates);
        self
    }

    // --- fluent builders -------------------------------------------------

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }

    /// Appends a Pauli X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Pauli Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends a Pauli Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg(q))
    }

    /// Appends a bound `Rz(theta)`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, Angle::Value(theta)))
    }

    /// Appends a symbolic `Rz(θ_param)`.
    pub fn rz_param(&mut self, q: usize, param: usize) -> &mut Self {
        self.push(Gate::Rz(q, Angle::Param(param)))
    }

    /// Appends a bound `Rx(theta)`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, Angle::Value(theta)))
    }

    /// Appends a symbolic `Rx(θ_param)`.
    pub fn rx_param(&mut self, q: usize, param: usize) -> &mut Self {
        self.push(Gate::Rx(q, Angle::Param(param)))
    }

    /// Appends a bound `Ry(theta)`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, Angle::Value(theta)))
    }

    /// Appends a CNOT.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(control, target))
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends a measurement on `q`.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Measure(q))
    }

    /// Measures every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.n {
            self.push(Gate::Measure(q));
        }
        self
    }

    // --- parameters -------------------------------------------------------

    /// Number of distinct symbolic parameters referenced (max index + 1).
    pub fn num_symbolic_params(&self) -> usize {
        self.gates
            .iter()
            .filter_map(|g| match g {
                Gate::Rz(_, Angle::Param(i))
                | Gate::Rx(_, Angle::Param(i))
                | Gate::Ry(_, Angle::Param(i)) => Some(*i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Binds symbolic parameters against `params`, producing a fully bound
    /// circuit.
    ///
    /// # Panics
    ///
    /// Panics if `params` is shorter than [`Circuit::num_symbolic_params`].
    pub fn bind(&self, params: &[f64]) -> Circuit {
        assert!(
            params.len() >= self.num_symbolic_params(),
            "need {} parameters, got {}",
            self.num_symbolic_params(),
            params.len()
        );
        let gates = self
            .gates
            .iter()
            .map(|g| match *g {
                Gate::Rz(q, Angle::Param(i)) => Gate::Rz(q, Angle::Value(params[i])),
                Gate::Rx(q, Angle::Param(i)) => Gate::Rx(q, Angle::Value(params[i])),
                Gate::Ry(q, Angle::Param(i)) => Gate::Ry(q, Angle::Value(params[i])),
                g => g,
            })
            .collect();
        Circuit { n: self.n, gates }
    }

    /// Binds every symbolic parameter to the same value (testing helper).
    pub fn bind_all(&self, value: f64) -> Circuit {
        self.bind(&vec![value; self.num_symbolic_params()])
    }

    // --- accounting -------------------------------------------------------

    /// Gate-count summary. Rotations with Clifford angles count as
    /// single-qubit Cliffords; symbolic rotations count as Rz-like.
    pub fn counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for g in &self.gates {
            match g {
                Gate::Cx(..) => c.cx += 1,
                Gate::Cz(..) | Gate::Swap(..) => c.other_two_qubit += 1,
                Gate::T(_) | Gate::Tdg(_) => c.t += 1,
                Gate::Measure(_) => c.measure += 1,
                Gate::Rz(..) | Gate::Rx(..) | Gate::Ry(..) => {
                    if g.is_clifford(1e-9) {
                        c.single_clifford += 1;
                    } else {
                        c.rz_like += 1;
                    }
                }
                _ => c.single_clifford += 1,
            }
        }
        c
    }

    /// Circuit depth under greedy ASAP layering (each gate occupies one
    /// layer on each of its qubits).
    pub fn depth(&self) -> usize {
        let mut ready = vec![0usize; self.n];
        let mut depth = 0;
        for g in &self.gates {
            let (qs, k) = g.qubits_inline();
            let start = qs[..k].iter().map(|&q| ready[q]).max().unwrap_or(0);
            for &q in &qs[..k] {
                ready[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }

    /// Whether every gate is Clifford (bound rotations with angles that are
    /// multiples of π/2 included).
    pub fn is_clifford(&self, tol: f64) -> bool {
        self.gates.iter().all(|g| g.is_clifford(tol))
    }

    /// The adjoint circuit: gates reversed with each gate inverted
    /// (`U†`). Measurements cannot be inverted.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains measurements.
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::new(self.n);
        for g in self.gates.iter().rev() {
            let inv = match *g {
                Gate::H(q) => Gate::H(q),
                Gate::X(q) => Gate::X(q),
                Gate::Y(q) => Gate::Y(q),
                Gate::Z(q) => Gate::Z(q),
                Gate::S(q) => Gate::Sdg(q),
                Gate::Sdg(q) => Gate::S(q),
                Gate::T(q) => Gate::Tdg(q),
                Gate::Tdg(q) => Gate::T(q),
                Gate::Rz(q, Angle::Value(v)) => Gate::Rz(q, Angle::Value(-v)),
                Gate::Rx(q, Angle::Value(v)) => Gate::Rx(q, Angle::Value(-v)),
                Gate::Ry(q, Angle::Value(v)) => Gate::Ry(q, Angle::Value(-v)),
                Gate::Rz(q, Angle::Param(i)) => Gate::Rz(q, Angle::Param(i)),
                Gate::Rx(q, Angle::Param(i)) => Gate::Rx(q, Angle::Param(i)),
                Gate::Ry(q, Angle::Param(i)) => Gate::Ry(q, Angle::Param(i)),
                Gate::Cx(c, t) => Gate::Cx(c, t),
                Gate::Cz(a, b) => Gate::Cz(a, b),
                Gate::Swap(a, b) => Gate::Swap(a, b),
                Gate::Measure(_) => panic!("cannot invert a measurement"),
            };
            out.push(inv);
        }
        out
    }

    /// Greedy ASAP layering: returns the gates grouped by the layer index
    /// they execute in (`layers().len() == depth()`). Used by the noisy
    /// executors to decide which qubits idle in each layer.
    pub fn layers(&self) -> Vec<Vec<Gate>> {
        let mut ready = vec![0usize; self.n];
        let mut layers: Vec<Vec<Gate>> = Vec::new();
        for g in &self.gates {
            let (qs, k) = g.qubits_inline();
            let start = qs[..k].iter().map(|&q| ready[q]).max().unwrap_or(0);
            for &q in &qs[..k] {
                ready[q] = start + 1;
            }
            if layers.len() <= start {
                layers.resize_with(start + 1, Vec::new);
            }
            layers[start].push(*g);
        }
        layers
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit({} qubits, {} gates):", self.n, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<I: IntoIterator<Item = Gate>>(&mut self, iter: I) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn builder_and_len() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.3).measure_all();
        assert_eq!(c.len(), 7);
        assert!(!c.is_empty());
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "addresses qubit")]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    #[should_panic(expected = "identical qubits")]
    fn self_cnot_rejected() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn binding_parameters() {
        let mut c = Circuit::new(2);
        c.rz_param(0, 0).rx_param(1, 1).rz_param(0, 0);
        assert_eq!(c.num_symbolic_params(), 2);
        let b = c.bind(&[0.5, -0.5]);
        assert_eq!(b.num_symbolic_params(), 0);
        match b.gates()[0] {
            Gate::Rz(0, Angle::Value(v)) => assert_eq!(v, 0.5),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "need 2 parameters")]
    fn binding_too_few_params_panics() {
        let mut c = Circuit::new(1);
        c.rz_param(0, 1);
        let _ = c.bind(&[0.1]);
    }

    #[test]
    fn counts_classify_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0, FRAC_PI_2) // Clifford angle
            .rz(0, 0.3) // injection-requiring
            .rz_param(1, 0) // symbolic → rz-like
            .t(1)
            .cx(0, 1)
            .cz(0, 1)
            .h(0)
            .measure(0);
        let k = c.counts();
        assert_eq!(k.cx, 1);
        assert_eq!(k.other_two_qubit, 1);
        assert_eq!(k.rz_like, 2);
        assert_eq!(k.single_clifford, 2); // clifford rz + h
        assert_eq!(k.t, 1);
        assert_eq!(k.measure, 1);
        assert_eq!(k.total(), c.len());
    }

    #[test]
    fn depth_layering() {
        let mut c = Circuit::new(3);
        // Layer 1: h0 | h1; layer 2: cx(0,1); layer 3: cx(1,2).
        c.h(0).h(1).cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
        // Parallel single-qubit gates don't add depth.
        let mut p = Circuit::new(4);
        p.h(0).h(1).h(2).h(3);
        assert_eq!(p.depth(), 1);
    }

    #[test]
    fn clifford_circuit_detection() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).s(1).rz(0, std::f64::consts::PI);
        assert!(c.is_clifford(1e-9));
        c.rz(0, 0.4);
        assert!(!c.is_clifford(1e-9));
    }

    #[test]
    fn append_and_extend() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
        a.extend(vec![Gate::Measure(0), Gate::Measure(1)]);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn inverse_undoes_the_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1).rz(0, 0.7).t(1).rx(1, -0.3);
        let mut round_trip = c.clone();
        round_trip.append(&c.inverse());
        // Depth doubles; the state check lives in the statesim tests — here
        // we verify structure: same length, inverted gate kinds.
        assert_eq!(round_trip.len(), 2 * c.len());
        match c.inverse().gates()[0] {
            Gate::Rx(1, Angle::Value(v)) => assert_eq!(v, 0.3),
            ref g => panic!("unexpected {g:?}"),
        }
        match c.inverse().gates()[1] {
            Gate::Tdg(1) => {}
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn inverse_rejects_measurement() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let _ = c.inverse();
    }

    #[test]
    fn display_contains_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0, q1"));
    }
}
