//! The ansatz library evaluated by the paper.
//!
//! * **Linear hardware-efficient ansatz** — the NISQ-era default: per-qubit
//!   `Rx`/`Rz` rotations plus a nearest-neighbour CNOT ladder.
//! * **Fully-connected hardware-efficient ansatz (FCHE)** — Kandala et al.'s
//!   entangler with CNOTs between every pair, the baseline of Sections 3.2
//!   and 6.1.
//! * **`blocked_all_to_all`** — the paper's layout-aware ansatz (Figure 10):
//!   two blocks of `2k` qubits with local all-to-all connectivity, four
//!   side qubits, and exactly eight slow "linking" CNOTs between blocks.
//!
//! Every builder returns an [`Ansatz`] wrapping a symbolic [`Circuit`];
//! parameters are indexed in gate order.

use crate::circuit::Circuit;

/// Which ansatz family a circuit was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnsatzKind {
    /// Nearest-neighbour hardware-efficient ansatz.
    LinearHea,
    /// Fully-connected hardware-efficient ansatz (FCHE).
    FullyConnectedHea,
    /// The paper's layout-aware blocked ansatz (Figure 10).
    BlockedAllToAll,
}

impl AnsatzKind {
    /// Short lowercase name used in reports (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            AnsatzKind::LinearHea => "linear",
            AnsatzKind::FullyConnectedHea => "fully_connected",
            AnsatzKind::BlockedAllToAll => "blocked_all_to_all",
        }
    }
}

/// A parameterized variational circuit plus its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Ansatz {
    kind: AnsatzKind,
    depth: usize,
    circuit: Circuit,
}

impl Ansatz {
    /// The family this ansatz belongs to.
    pub fn kind(&self) -> AnsatzKind {
        self.kind
    }

    /// The layer count `p`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// The symbolic circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of variational parameters.
    pub fn num_params(&self) -> usize {
        self.circuit.num_symbolic_params()
    }

    /// Binds the parameter vector, returning an executable circuit.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() < self.num_params()`.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        self.circuit.bind(params)
    }

    /// Binds discrete Clifford parameters: entry `k` maps to the angle
    /// `k·π/2`, turning the ansatz into a Clifford circuit for stabilizer
    /// simulation (the paper's large-scale methodology, Section 5.2.2).
    ///
    /// # Panics
    ///
    /// Panics if `ks.len() < self.num_params()`.
    pub fn bind_clifford(&self, ks: &[u8]) -> Circuit {
        let params: Vec<f64> = ks
            .iter()
            .map(|&k| f64::from(k % 4) * std::f64::consts::FRAC_PI_2)
            .collect();
        self.circuit.bind(&params)
    }
}

/// Per-layer rotation block: `Rx(θ)` then `Rz(θ')` on every qubit (the
/// paper's HEA rotation structure, Figure 2(A)); returns the next free
/// parameter index.
fn rotation_layer(c: &mut Circuit, next_param: usize) -> usize {
    let n = c.num_qubits();
    let mut p = next_param;
    for q in 0..n {
        c.rx_param(q, p);
        p += 1;
        c.rz_param(q, p);
        p += 1;
    }
    p
}

/// Builds the linear hardware-efficient ansatz: `depth` layers of per-qubit
/// rotations followed by the nearest-neighbour CNOT ladder
/// `CX(0,1) CX(1,2) …`, plus a final rotation layer.
///
/// # Panics
///
/// Panics if `n < 2` or `depth == 0`.
pub fn linear_hea(n: usize, depth: usize) -> Ansatz {
    assert!(n >= 2, "linear ansatz needs at least two qubits");
    assert!(depth >= 1, "depth must be at least one layer");
    let mut c = Circuit::new(n);
    let mut p = 0;
    for _ in 0..depth {
        p = rotation_layer(&mut c, p);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    p = rotation_layer(&mut c, p);
    let _ = p;
    Ansatz {
        kind: AnsatzKind::LinearHea,
        depth,
        circuit: c,
    }
}

/// Builds the fully-connected hardware-efficient ansatz (FCHE): each layer
/// applies per-qubit rotations and then, for each control `i`, a cluster of
/// CNOTs to every target `j > i` — `N(N−1)/2` CNOTs per layer arranged as
/// `N−1` single-control fan-out clusters (the structure Figure 9(A)
/// executes in 4 cycles per cluster).
///
/// # Panics
///
/// Panics if `n < 2` or `depth == 0`.
pub fn fully_connected_hea(n: usize, depth: usize) -> Ansatz {
    assert!(n >= 2, "FCHE needs at least two qubits");
    assert!(depth >= 1, "depth must be at least one layer");
    let mut c = Circuit::new(n);
    let mut p = 0;
    for _ in 0..depth {
        p = rotation_layer(&mut c, p);
        for i in 0..n - 1 {
            for j in i + 1..n {
                c.cx(i, j);
            }
        }
    }
    p = rotation_layer(&mut c, p);
    let _ = p;
    Ansatz {
        kind: AnsatzKind::FullyConnectedHea,
        depth,
        circuit: c,
    }
}

/// The block parameter `k` for a `blocked_all_to_all` register of `n`
/// qubits, or `None` when `n` is not of the form `4k + 4` with `k ≥ 1`.
pub fn blocked_block_parameter(n: usize) -> Option<usize> {
    if n >= 8 && n % 4 == 0 {
        Some(n / 4 - 1)
    } else {
        None
    }
}

/// The eight fixed linking CNOTs of Figure 10 for block parameter `k`.
pub fn blocked_linking_cnots(k: usize) -> [(usize, usize); 8] {
    let b2 = 2 * k; // first qubit of block 2
    let e = 4 * k; // first side qubit
    [
        (0, b2),
        (1, b2 + 1),
        (b2, e),
        (b2 + 1, e + 1),
        (0, e + 2),
        (b2, e + 3),
        (e, e + 2),
        (e + 1, e + 3),
    ]
}

/// Builds the paper's `blocked_all_to_all` ansatz (Figure 10).
///
/// The register must have `n = 4k + 4` qubits (`k ≥ 1`): qubits
/// `0..2k` form block 1, `2k..4k` block 2, and `4k..4k+4` are the side
/// qubits of the Figure-3 layout. Each layer applies per-qubit rotations,
/// local all-to-all CNOT clusters inside each block (`2·2k(2k−1)` CNOTs)
/// and the eight linking CNOTs — `N²/2 − 5N + 20` CNOTs per layer in
/// total, exactly the count used in Section 4.4.
///
/// # Panics
///
/// Panics if `n` is not of the form `4k + 4` with `k ≥ 1`, or `depth == 0`.
pub fn blocked_all_to_all(n: usize, depth: usize) -> Ansatz {
    let k = blocked_block_parameter(n)
        .unwrap_or_else(|| panic!("blocked_all_to_all needs n = 4k+4 (k ≥ 1), got {n}"));
    assert!(depth >= 1, "depth must be at least one layer");
    let mut c = Circuit::new(n);
    let mut p = 0;
    for _ in 0..depth {
        p = rotation_layer(&mut c, p);
        // Local all-to-all clusters: control i fans out to every other
        // member of its block.
        for block_start in [0, 2 * k] {
            let block = block_start..block_start + 2 * k;
            for i in block.clone() {
                for j in block.clone() {
                    if i != j {
                        c.cx(i, j);
                    }
                }
            }
        }
        for (a, b) in blocked_linking_cnots(k) {
            c.cx(a, b);
        }
    }
    p = rotation_layer(&mut c, p);
    let _ = p;
    Ansatz {
        kind: AnsatzKind::BlockedAllToAll,
        depth,
        circuit: c,
    }
}

/// Closed-form per-layer CNOT count for an ansatz family on `n` qubits —
/// the formulas Section 4.4 uses in the CNOT:Rz ratio rule.
///
/// Returns `None` when `n` is not a valid `blocked_all_to_all` register
/// size.
pub fn cnots_per_layer(kind: AnsatzKind, n: usize) -> Option<usize> {
    match kind {
        AnsatzKind::LinearHea => Some(n - 1),
        AnsatzKind::FullyConnectedHea => Some(n * (n - 1) / 2),
        AnsatzKind::BlockedAllToAll => blocked_block_parameter(n).map(|_| n * n / 2 + 20 - 5 * n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_counts() {
        let a = linear_hea(6, 3);
        let c = a.circuit().counts();
        assert_eq!(c.cx, 3 * 5);
        // 2 rotations per qubit per rotation layer, depth+1 rotation layers.
        assert_eq!(a.num_params(), 2 * 6 * 4);
        assert_eq!(a.kind().name(), "linear");
    }

    #[test]
    fn fche_counts() {
        let a = fully_connected_hea(5, 2);
        assert_eq!(a.circuit().counts().cx, 2 * (5 * 4 / 2));
        assert_eq!(cnots_per_layer(AnsatzKind::FullyConnectedHea, 5), Some(10));
    }

    #[test]
    fn blocked_matches_section_4_4_formula() {
        for &n in &[8usize, 12, 16, 20, 40, 60] {
            let a = blocked_all_to_all(n, 1);
            let want = n * n / 2 + 20 - 5 * n;
            assert_eq!(a.circuit().counts().cx, want, "n = {n}");
            assert_eq!(cnots_per_layer(AnsatzKind::BlockedAllToAll, n), Some(want));
        }
    }

    #[test]
    fn blocked_parameter_validation() {
        assert_eq!(blocked_block_parameter(8), Some(1));
        assert_eq!(blocked_block_parameter(20), Some(4));
        assert_eq!(blocked_block_parameter(10), None);
        assert_eq!(blocked_block_parameter(4), None);
    }

    #[test]
    #[should_panic(expected = "4k+4")]
    fn blocked_rejects_bad_sizes() {
        let _ = blocked_all_to_all(10, 1);
    }

    #[test]
    fn linking_cnots_are_valid_pairs() {
        for k in 1..6 {
            let links = blocked_linking_cnots(k);
            assert_eq!(links.len(), 8);
            let n = 4 * k + 4;
            for (a, b) in links {
                assert_ne!(a, b);
                assert!(a < n && b < n, "k={k} link ({a},{b})");
            }
        }
    }

    #[test]
    fn rotation_parameter_count_is_2n_per_layer() {
        for &n in &[8usize, 12] {
            let a = blocked_all_to_all(n, 2);
            // depth+1 rotation layers × 2N rotations.
            assert_eq!(a.num_params(), 2 * n * 3);
        }
    }

    #[test]
    fn clifford_binding_produces_clifford_circuit() {
        let a = linear_hea(4, 1);
        let ks: Vec<u8> = (0..a.num_params()).map(|i| (i % 4) as u8).collect();
        let c = a.bind_clifford(&ks);
        assert!(c.is_clifford(1e-9));
    }

    #[test]
    fn generic_binding_roundtrip() {
        let a = fully_connected_hea(3, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| 0.1 * i as f64).collect();
        let c = a.bind(&params);
        assert_eq!(c.num_symbolic_params(), 0);
        assert_eq!(c.len(), a.circuit().len());
    }
}
