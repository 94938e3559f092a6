//! Grouped-expectation kernels: evaluate every Pauli term of a
//! qubit-wise-commuting (QWC) group in one tableau pass.
//!
//! [`Tableau::expectation`] costs `O(n·rwords)` word operations *per
//! term*. Terms that commute qubit-wise share a measurement basis, so
//! one basis rotation plus one computational-basis collapse determines
//! all of them at once:
//!
//! 1. **Compile** (once per Hamiltonian): partition the terms with
//!    [`eftq_pauli::group_qubit_wise_commuting`] and record, per group,
//!    which qubits rotate `X→Z` (H) or `Y→Z` (S† then H), the ascending
//!    union support, and each member term's original index, sign, and
//!    support.
//! 2. **Evaluate** (once per candidate state): for each group, copy the
//!    tableau, apply the basis rotation (exact — `H·X·H = Z` and
//!    `(H·S†)·Y·(S·H) = Z` pick up no sign), check each member term for
//!    determinism *before* collapsing (a rotated term is a Z-string; it
//!    is deterministic iff its X-column XOR over the support has no
//!    stabilizer-row bits), then measure the union support in ascending
//!    order. Because every rotated term commutes with every measured
//!    `Z_q`, a deterministic term's value survives each collapse
//!    unchanged, so its expectation is `sign · (−1)^parity` of the
//!    recorded outcomes over its support — regardless of which branch
//!    the indeterminate measurements take.
//!
//! The result is **bit-identical** to calling [`Tableau::expectation`]
//! per term (each value is exactly ±1.0 or 0.0).
//!
//! The collapse only *pays* when a group holds more terms than union
//! qubits: one collapse costs a `measure` per union qubit, and `measure`
//! and `expectation` are both `O(n·rwords)` walks of comparable
//! constant. Compilation therefore records a per-group cutover — dense
//! groups collapse, sparse groups (union ≈ member count, e.g. the Z and
//! X groups of a transverse-field Ising chain) evaluate their members
//! directly with [`Tableau::expectation`]. Values are identical either
//! way; only the operation count changes.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_pauli::PauliSum;
//! use eftq_stabilizer::{GroupedObservable, Tableau};
//!
//! // GHZ state; TFIM-style observable with a ZZ group and an X group.
//! let mut h = PauliSum::new(3);
//! h.push_str(-1.0, "ZZI");
//! h.push_str(-1.0, "IZZ");
//! h.push_str(0.5, "XXX");
//! let grouped = GroupedObservable::compile(&h);
//! assert_eq!(grouped.num_groups(), 2); // {ZZI, IZZ} and {XXX}
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let mut t = Tableau::new(3);
//! t.run(&c);
//!
//! let mut e0 = vec![0.0; grouped.num_terms()];
//! grouped.expectations(&t, &mut e0);
//! assert_eq!(e0, vec![1.0, 1.0, 1.0]); // ⟨ZZI⟩ = ⟨IZZ⟩ = ⟨XXX⟩ = +1
//! assert_eq!(grouped.energy(&t), t.energy(&h)); // −1 −1 +0.5
//! ```

use crate::tableau::{lo_mask, Tableau};
use eftq_pauli::{group_qubit_wise_commuting, Pauli, PauliSum};

/// An RNG that always returns zero, used to pick a *canonical branch*
/// when collapsing indeterminate measurements. Deterministic terms are
/// branch-invariant, so any fixed choice yields the same expectations;
/// fixing it keeps the grouped kernel a pure function of the tableau.
struct ZeroRng;

impl rand::RngCore for ZeroRng {
    fn next_u64(&mut self) -> u64 {
        0
    }
}

/// One term of a compiled group: where it lives in the original sum and
/// how to read its value off the group's collapse outcomes.
#[derive(Clone, Debug)]
struct CompiledTerm {
    /// Index into the originating [`PauliSum::terms`].
    index: usize,
    /// ±1 from the string's phase exponent (0 → +1, 2 → −1).
    sign: f64,
    /// Ascending support qubits.
    support: Vec<usize>,
    /// The original string, for the direct per-term path of groups
    /// where collapsing would not pay.
    string: eftq_pauli::PauliString,
}

/// One QWC group compiled to collapse form.
#[derive(Clone, Debug)]
struct CompiledGroup {
    /// Qubits whose basis letter is X: rotate with H.
    rot_x: Vec<usize>,
    /// Qubits whose basis letter is Y: rotate with S† then H.
    rot_y: Vec<usize>,
    /// Ascending union support: the qubits the collapse measures.
    union: Vec<usize>,
    /// Member terms.
    terms: Vec<CompiledTerm>,
    /// Whether [`GroupedObservable::expectations`] collapses this group
    /// or falls back to per-term [`Tableau::expectation`]. One collapse
    /// costs a tableau copy, the basis rotation, and one `measure` per
    /// union qubit — and `measure` ≈ `expectation` in word operations —
    /// so collapsing only pays when the union support is strictly
    /// smaller than the member count (dense groups, e.g. molecular
    /// Hamiltonians; a transverse-field Ising chain's two groups have
    /// union ≈ member count and take the direct path).
    collapse: bool,
}

/// A Hamiltonian compiled into qubit-wise-commuting measurement groups,
/// evaluated group-at-a-time instead of term-at-a-time.
///
/// Compile once per observable (the partition and coefficient tables
/// are state-independent) and reuse across every candidate state. See
/// the [module docs](self) for the algorithm and a worked example.
#[derive(Clone, Debug)]
pub struct GroupedObservable {
    n: usize,
    num_terms: usize,
    groups: Vec<CompiledGroup>,
    /// Original-order term coefficients (for the energy accumulators).
    coefficients: Vec<f64>,
}

impl GroupedObservable {
    /// Partitions `observable` into QWC groups and compiles the
    /// rotation/collapse schedule for each.
    ///
    /// # Panics
    ///
    /// Panics if any term carries an imaginary phase (`i^1`/`i^3`) —
    /// expectation values are only defined for Hermitian terms.
    pub fn compile(observable: &PauliSum) -> GroupedObservable {
        let n = observable.num_qubits();
        let groups = group_qubit_wise_commuting(observable)
            .into_iter()
            .map(|g| {
                let mut rot_x = Vec::new();
                let mut rot_y = Vec::new();
                let mut union = Vec::new();
                for (q, &b) in g.basis.iter().enumerate() {
                    match b {
                        Pauli::I => {}
                        Pauli::X => {
                            rot_x.push(q);
                            union.push(q);
                        }
                        Pauli::Y => {
                            rot_y.push(q);
                            union.push(q);
                        }
                        Pauli::Z => union.push(q),
                    }
                }
                let terms: Vec<CompiledTerm> = g
                    .term_indices
                    .iter()
                    .zip(&g.terms)
                    .map(|(&index, t)| CompiledTerm {
                        index,
                        sign: t.string.sign(),
                        support: t.string.support().collect(),
                        string: t.string.clone(),
                    })
                    .collect();
                // The rotation cost (one or two gates per X/Y qubit) and
                // the tableau copy ride along with the collapse; `+ 2`
                // keeps the cutover on the profitable side of the
                // measure ≈ expectation balance.
                let collapse = union.len() + 2 < terms.len();
                CompiledGroup {
                    rot_x,
                    rot_y,
                    union,
                    terms,
                    collapse,
                }
            })
            .collect();
        GroupedObservable {
            n,
            num_terms: observable.num_terms(),
            groups,
            coefficients: observable.terms().iter().map(|t| t.coefficient).collect(),
        }
    }

    /// Number of qubits of the compiled observable.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of terms of the originating sum.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Number of QWC measurement groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Writes `⟨P_i⟩ ∈ {−1, 0, +1}` for every term into `out` (indexed
    /// by original term order). Bit-identical to calling
    /// [`Tableau::expectation`] per term.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if `out.len() != num_terms()`.
    pub fn expectations(&self, t: &Tableau, out: &mut [f64]) {
        assert_eq!(t.num_qubits(), self.n, "tableau size mismatch");
        assert_eq!(out.len(), self.num_terms, "output slice size mismatch");
        let rw = t.row_words();
        let mut work: Option<Tableau> = None;
        let mut acc = vec![0u64; rw];
        let mut outcomes = vec![false; self.n];
        let mut det = Vec::new();
        for g in &self.groups {
            if !g.collapse {
                // Sparse group: the collapse would cost more measures
                // than direct evaluations. Same values by definition.
                for term in &g.terms {
                    out[term.index] = t.expectation(&term.string);
                }
                continue;
            }
            let w = match &mut work {
                Some(w) => {
                    w.copy_from(t);
                    w
                }
                None => work.insert(t.clone()),
            };
            for &q in &g.rot_x {
                w.h(q);
            }
            for &q in &g.rot_y {
                w.sdg(q);
                w.h(q);
            }
            // Determinism check per term, *before* any collapse: the
            // rotated term is the Z-string over its support, so it is
            // deterministic iff the XOR of the X bit-columns over the
            // support has no stabilizer-row (bits n..2n) component.
            det.clear();
            for term in &g.terms {
                acc.iter_mut().for_each(|a| *a = 0);
                for &q in &term.support {
                    for (a, &c) in acc.iter_mut().zip(w.xcol(q)) {
                        *a ^= c;
                    }
                }
                det.push(
                    acc.iter()
                        .enumerate()
                        .all(|(i, &a)| a & !lo_mask(self.n, i) == 0),
                );
            }
            // Collapse the union support ascending on a canonical
            // branch; deterministic terms are branch-invariant.
            for &q in &g.union {
                outcomes[q] = w.measure(q, &mut ZeroRng);
            }
            for (term, &is_det) in g.terms.iter().zip(&det) {
                out[term.index] = if is_det {
                    let parity = term.support.iter().fold(false, |p, &q| p ^ outcomes[q]);
                    if parity {
                        -term.sign
                    } else {
                        term.sign
                    }
                } else {
                    0.0
                };
            }
        }
    }

    /// Energy `Σ c_i ⟨P_i⟩` of the compiled observable on `t`,
    /// accumulated in original term order — bit-identical to
    /// [`Tableau::energy`].
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn energy(&self, t: &Tableau) -> f64 {
        let mut e0 = vec![0.0; self.num_terms];
        self.expectations(t, &mut e0);
        self.coefficients
            .iter()
            .zip(&e0)
            .map(|(&c, &e)| c * e)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::Circuit;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_clifford(n: usize, depth: usize, seed: u64) -> Circuit {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..depth {
            match rng.gen_range(0..5) {
                0 => {
                    c.h(rng.gen_range(0..n));
                }
                1 => {
                    c.s(rng.gen_range(0..n));
                }
                2 => {
                    c.sdg(rng.gen_range(0..n));
                }
                3 => {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    c.cx(a, b);
                }
                _ => {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    c.cz(a, b);
                }
            }
        }
        c
    }

    fn random_sum(n: usize, terms: usize, seed: u64) -> PauliSum {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = PauliSum::new(n);
        for _ in 0..terms {
            let s: String = (0..n)
                .map(|_| ["I", "X", "Y", "Z"][rng.gen_range(0..4)])
                .collect::<Vec<_>>()
                .join("");
            h.push_str(rng.gen_range(-2.0..2.0), &s);
        }
        h
    }

    #[test]
    fn grouped_matches_per_term_expectation() {
        for seed in 0..8 {
            let n = 2 + (seed as usize % 5);
            let c = random_clifford(n, 40, 100 + seed);
            let h = random_sum(n, 12, 200 + seed);
            let mut t = Tableau::new(n);
            t.run(&c);
            let grouped = GroupedObservable::compile(&h);
            let mut e0 = vec![0.0; h.num_terms()];
            grouped.expectations(&t, &mut e0);
            for (term, &e) in h.terms().iter().zip(&e0) {
                assert_eq!(
                    e,
                    t.expectation(&term.string),
                    "term {:?} (seed {seed})",
                    term.string
                );
            }
            assert_eq!(grouped.energy(&t), t.energy(&h));
        }
    }

    #[test]
    fn grouped_energy_bit_identical_on_ghz() {
        let mut h = PauliSum::new(3);
        h.push_str(-1.0, "ZZI");
        h.push_str(-1.0, "IZZ");
        h.push_str(0.5, "XXX");
        h.push_str(0.25, "YYX");
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut t = Tableau::new(3);
        t.run(&c);
        let grouped = GroupedObservable::compile(&h);
        assert_eq!(grouped.energy(&t), t.energy(&h));
    }
}
