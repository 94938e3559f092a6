//! Qubit-wise-commuting (QWC) grouping of Pauli terms.
//!
//! Energy estimation on hardware measures one basis at a time; terms that
//! commute qubit-wise can share a measurement setting. The greedy first-fit
//! partitioning here is the standard approach (it is what Qiskit's
//! `AbelianGrouper` does). The VarSaw-style mitigation calibrates one
//! readout correction per group, and the stabilizer engine's grouped
//! observable evaluates each group in one tableau pass.

use crate::pauli::Pauli;
use crate::string::PauliString;
use crate::sum::{PauliSum, PauliTerm};

/// A set of mutually qubit-wise-commuting terms plus the shared measurement
/// basis that diagonalizes all of them.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliGroup {
    /// Indices into the originating [`PauliSum::terms`].
    pub term_indices: Vec<usize>,
    /// The terms themselves (copied for convenience).
    pub terms: Vec<PauliTerm>,
    /// Per-qubit measurement basis: the non-identity letter each qubit must
    /// be measured in (`I` when every term is identity there — measure Z).
    pub basis: Vec<Pauli>,
}

/// Greedy first-fit partition of `sum` into qubit-wise-commuting groups.
///
/// The result covers every term exactly once; within each group all pairs
/// qubit-wise commute, so a single measurement setting (per-qubit basis
/// rotation) estimates all of them simultaneously.
///
/// # Examples
///
/// ```
/// use eftq_pauli::{group_qubit_wise_commuting, PauliSum};
///
/// let mut h = PauliSum::new(2);
/// h.push_str(1.0, "XX");
/// h.push_str(1.0, "ZI");
/// h.push_str(1.0, "IZ");
/// let groups = group_qubit_wise_commuting(&h);
/// assert_eq!(groups.len(), 2); // {XX} and {ZI, IZ}
/// ```
pub fn group_qubit_wise_commuting(sum: &PauliSum) -> Vec<PauliGroup> {
    let n = sum.num_qubits();
    let mut groups: Vec<PauliGroup> = Vec::new();
    'terms: for (idx, term) in sum.terms().iter().enumerate() {
        for group in &mut groups {
            if group
                .terms
                .iter()
                .all(|t| t.string.qubit_wise_commutes(&term.string))
            {
                group.term_indices.push(idx);
                merge_basis(&mut group.basis, &term.string);
                group.terms.push(term.clone());
                continue 'terms;
            }
        }
        let mut basis = vec![Pauli::I; n];
        merge_basis(&mut basis, &term.string);
        groups.push(PauliGroup {
            term_indices: vec![idx],
            terms: vec![term.clone()],
            basis,
        });
    }
    groups
}

fn merge_basis(basis: &mut [Pauli], string: &PauliString) {
    for (q, b) in basis.iter_mut().enumerate() {
        let p = string.pauli_at(q);
        if p != Pauli::I {
            debug_assert!(*b == Pauli::I || *b == p, "qwc violation while merging");
            *b = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(strings: &[&str]) -> PauliSum {
        let n = strings[0].len();
        let mut h = PauliSum::new(n);
        for s in strings {
            h.push_str(1.0, s);
        }
        h
    }

    #[test]
    fn all_z_terms_share_one_group() {
        let h = sum_of(&["ZZI", "IZZ", "ZIZ", "ZII"]);
        let groups = group_qubit_wise_commuting(&h);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].terms.len(), 4);
        assert_eq!(groups[0].basis, vec![Pauli::Z; 3]);
    }

    #[test]
    fn mixed_bases_split() {
        let h = sum_of(&["XX", "ZZ", "XI", "IZ"]);
        let groups = group_qubit_wise_commuting(&h);
        // {XX, XI} and {ZZ, IZ}.
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.terms.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn every_term_covered_exactly_once() {
        let h = sum_of(&["XYZ", "ZZI", "IXX", "YYI", "ZIZ", "XII"]);
        let groups = group_qubit_wise_commuting(&h);
        let mut seen: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.term_indices.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..h.num_terms()).collect::<Vec<_>>());
    }

    #[test]
    fn groups_are_internally_qwc() {
        let h = sum_of(&["XYZ", "ZZI", "IXX", "YYI", "ZIZ", "XII", "IYI", "IIZ"]);
        for g in group_qubit_wise_commuting(&h) {
            for i in 0..g.terms.len() {
                for j in (i + 1)..g.terms.len() {
                    assert!(g.terms[i].string.qubit_wise_commutes(&g.terms[j].string));
                }
            }
        }
    }

    #[test]
    fn empty_sum_no_groups() {
        let h = PauliSum::new(3);
        assert!(group_qubit_wise_commuting(&h).is_empty());
    }
}
