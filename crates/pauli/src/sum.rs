//! Real-linear combinations of Pauli strings: observables and Hamiltonians.

use crate::string::PauliString;
use eftq_numerics::{lanczos, Complex, LanczosOptions};
use std::collections::HashMap;
use std::fmt;

/// One term `coefficient · P` of a [`PauliSum`]. The stored string is kept
/// phase-canonical (sign folded into the coefficient).
#[derive(Clone, Debug, PartialEq)]
pub struct PauliTerm {
    /// Real coefficient.
    pub coefficient: f64,
    /// Phase-free Pauli string.
    pub string: PauliString,
}

/// A Hermitian observable `H = Σ_k c_k P_k` over `n` qubits.
///
/// # Examples
///
/// ```
/// use eftq_pauli::PauliSum;
///
/// // H = X₀X₁ + Z₀ + Z₁ on two qubits: ground energy −√5.
/// let mut h = PauliSum::new(2);
/// h.push(1.0, "XX".parse().unwrap());
/// h.push(1.0, "ZI".parse().unwrap());
/// h.push(1.0, "IZ".parse().unwrap());
/// let e0 = h.ground_energy_default().unwrap();
/// assert!((e0 + 5.0_f64.sqrt()).abs() < 1e-8);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PauliSum {
    n: usize,
    terms: Vec<PauliTerm>,
}

impl PauliSum {
    /// An empty observable on `n` qubits (the zero operator).
    pub fn new(n: usize) -> Self {
        PauliSum {
            n,
            terms: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of stored terms (after any [`PauliSum::simplify`] calls).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The terms.
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// Adds `coefficient · string`. A non-Hermitian string phase is
    /// rejected; a −1 sign is folded into the coefficient.
    ///
    /// # Panics
    ///
    /// Panics if the string's qubit count differs from the sum's, or if the
    /// string has an imaginary phase.
    pub fn push(&mut self, coefficient: f64, string: PauliString) {
        assert_eq!(
            string.num_qubits(),
            self.n,
            "term qubit count {} != observable qubit count {}",
            string.num_qubits(),
            self.n
        );
        let signed = coefficient * string.sign();
        self.terms.push(PauliTerm {
            coefficient: signed,
            string: string.without_phase(),
        });
    }

    /// Adds a term parsed from a string such as `"XXI"`.
    ///
    /// # Panics
    ///
    /// Panics on parse failure (intended for literals in tests/builders).
    pub fn push_str(&mut self, coefficient: f64, s: &str) {
        let p: PauliString = s.parse().unwrap_or_else(|e| panic!("bad pauli {s:?}: {e}"));
        self.push(coefficient, p);
    }

    /// Merges duplicate strings and drops terms with |coefficient| below
    /// `tol`. Term order is not preserved (first-seen order of survivors).
    pub fn simplify(&mut self, tol: f64) {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut merged: Vec<PauliTerm> = Vec::with_capacity(self.terms.len());
        for term in self.terms.drain(..) {
            let key = term.string.to_string();
            match index.get(&key) {
                Some(&i) => merged[i].coefficient += term.coefficient,
                None => {
                    index.insert(key, merged.len());
                    merged.push(term);
                }
            }
        }
        merged.retain(|t| t.coefficient.abs() > tol);
        self.terms = merged;
    }

    /// Applies the observable to a state vector: `out += H |state⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the state length is not `2^n` or `n > 30`.
    pub fn accumulate_apply(&self, state: &[Complex], out: &mut [Complex]) {
        for t in &self.terms {
            t.string
                .accumulate_apply(Complex::real(t.coefficient), state, out);
        }
    }

    /// Expectation value `⟨state| H |state⟩` (real part; the imaginary part
    /// vanishes for Hermitian H and normalized states).
    pub fn expectation(&self, state: &[Complex]) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coefficient * t.string.expectation(state).re)
            .sum()
    }

    /// Exact ground-state energy by matrix-free Lanczos.
    ///
    /// # Errors
    ///
    /// Propagates [`eftq_numerics::LanczosError`]; additionally the zero
    /// observable returns 0 directly.
    ///
    /// # Panics
    ///
    /// Panics if `n > 30` (state vector would not fit).
    pub fn ground_energy(
        &self,
        options: LanczosOptions,
    ) -> Result<f64, eftq_numerics::LanczosError> {
        assert!(self.n <= 30, "ground_energy limited to 30 qubits");
        if self.terms.is_empty() {
            return Ok(0.0);
        }
        let dim = 1usize << self.n;
        let result = lanczos(dim, options, |v, out| {
            self.accumulate_apply(v, out);
        })?;
        Ok(result.ground_energy)
    }

    /// [`PauliSum::ground_energy`] with default Lanczos options.
    pub fn ground_energy_default(&self) -> Result<f64, eftq_numerics::LanczosError> {
        self.ground_energy(LanczosOptions::default())
    }

    /// Operator sum `self + other` (terms concatenated; call
    /// [`PauliSum::simplify`] to merge).
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn add(&self, other: &PauliSum) -> PauliSum {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        let mut out = self.clone();
        for t in other.terms() {
            out.push(t.coefficient, t.string.clone());
        }
        out
    }

    /// Operator product `self · other`, expanded term-by-term with exact
    /// phase tracking and simplified. The result of multiplying two
    /// Hermitian operators need not be Hermitian; terms whose product
    /// carries an imaginary phase are rejected with a panic — use
    /// [`PauliSum::commutes_with`] to check commutation instead when that
    /// is the question.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if a term product is
    /// anti-Hermitian (imaginary coefficient).
    pub fn mul(&self, other: &PauliSum) -> PauliSum {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        let mut out = PauliSum::new(self.n);
        for a in self.terms() {
            for b in other.terms() {
                let prod = a.string.mul(&b.string);
                out.push(a.coefficient * b.coefficient, prod);
            }
        }
        out.simplify(1e-12);
        out
    }

    /// Whether `[self, other] = 0`, checked exactly via the expanded
    /// commutator (term products with imaginary phases cancel in pairs for
    /// commuting operators).
    pub fn commutes_with(&self, other: &PauliSum) -> bool {
        // [A, B] = Σ_ij a_i b_j (P_i Q_j − Q_j P_i); each bracket is
        // either 0 (commuting strings) or 2·P_iQ_j (anticommuting).
        let mut acc: HashMap<String, (f64, f64)> = HashMap::new();
        for a in self.terms() {
            for b in other.terms() {
                if a.string.commutes_with(&b.string) {
                    continue;
                }
                let prod = a.string.mul(&b.string);
                let key = prod.without_phase().to_string();
                // Phase exponent of prod is 1 or 3 (anticommuting
                // Hermitian strings multiply to ±i·Hermitian).
                let sign = if prod.phase_exponent() == 1 {
                    1.0
                } else {
                    -1.0
                };
                let entry = acc.entry(key).or_insert((0.0, 0.0));
                entry.0 += 2.0 * a.coefficient * b.coefficient * sign;
                entry.1 += 1.0;
            }
        }
        acc.values().all(|(c, _)| c.abs() < 1e-10)
    }
}

impl fmt::Display for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{:.6}·{}", t.coefficient, t.string)?;
        }
        Ok(())
    }
}

impl FromIterator<(f64, PauliString)> for PauliSum {
    /// Collects `(coefficient, string)` pairs; the qubit count is taken from
    /// the first string.
    ///
    /// # Panics
    ///
    /// Panics if strings disagree on qubit count.
    fn from_iter<I: IntoIterator<Item = (f64, PauliString)>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let n = it.peek().map(|(_, s)| s.num_qubits()).unwrap_or(0);
        let mut sum = PauliSum::new(n);
        for (c, s) in it {
            sum.push(c, s);
        }
        sum
    }
}

impl Extend<(f64, PauliString)> for PauliSum {
    fn extend<I: IntoIterator<Item = (f64, PauliString)>>(&mut self, iter: I) {
        for (c, s) in iter {
            self.push(c, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_numerics::Complex;

    fn two_qubit_tfim() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "XX");
        h.push_str(1.0, "ZI");
        h.push_str(1.0, "IZ");
        h
    }

    #[test]
    fn expectation_on_ground_state_candidates() {
        let h = two_qubit_tfim();
        // |00⟩ has energy ⟨ZZ terms⟩ = 2.
        let state = [Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        assert!((h.expectation(&state) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ground_energy_matches_analytic() {
        let h = two_qubit_tfim();
        let e0 = h.ground_energy_default().unwrap();
        assert!((e0 + 5.0f64.sqrt()).abs() < 1e-8, "{e0}");
    }

    #[test]
    fn simplify_merges_and_prunes() {
        let mut h = PauliSum::new(2);
        h.push_str(0.5, "XX");
        h.push_str(0.5, "XX");
        h.push_str(1.0, "ZZ");
        h.push_str(-1.0, "ZZ");
        h.simplify(1e-12);
        assert_eq!(h.num_terms(), 1);
        assert!((h.terms()[0].coefficient - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_sign_strings_fold_into_coefficient() {
        let mut h = PauliSum::new(1);
        h.push(2.0, "-Z".parse().unwrap());
        assert!((h.terms()[0].coefficient + 2.0).abs() < 1e-12);
        assert_eq!(h.terms()[0].string.phase_exponent(), 0);
    }

    #[test]
    #[should_panic(expected = "imaginary phase")]
    fn imaginary_phase_rejected() {
        let mut p: PauliString = "X".parse().unwrap();
        p.mul_phase(1);
        let mut h = PauliSum::new(1);
        h.push(1.0, p);
    }

    #[test]
    fn zero_observable_ground_energy_zero() {
        let h = PauliSum::new(3);
        assert_eq!(h.ground_energy_default().unwrap(), 0.0);
        assert_eq!(h.to_string(), "0");
    }

    #[test]
    fn from_iterator_and_extend() {
        let terms = vec![
            (1.0, "XX".parse::<PauliString>().unwrap()),
            (0.5, "ZZ".parse::<PauliString>().unwrap()),
        ];
        let mut h: PauliSum = terms.into_iter().collect();
        assert_eq!(h.num_terms(), 2);
        h.extend(vec![(0.25, "YY".parse::<PauliString>().unwrap())]);
        assert_eq!(h.num_terms(), 3);
        assert_eq!(h.num_qubits(), 2);
    }

    #[test]
    fn heisenberg_chain_ground_energy() {
        // 2-site Heisenberg: H = XX + YY + ZZ, ground energy -3 (singlet).
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "XX");
        h.push_str(1.0, "YY");
        h.push_str(1.0, "ZZ");
        let e0 = h.ground_energy_default().unwrap();
        assert!((e0 + 3.0).abs() < 1e-8, "{e0}");
    }

    #[test]
    fn operator_sum_and_product() {
        let mut a = PauliSum::new(2);
        a.push_str(1.0, "XI");
        let mut b = PauliSum::new(2);
        b.push_str(2.0, "XI");
        b.push_str(1.0, "ZZ");
        let total = a.add(&b);
        let mut simplified = total.clone();
        simplified.simplify(1e-12);
        assert_eq!(simplified.num_terms(), 2); // 3·XI + ZZ

        // XI · XI = II with coefficient 2; XI · ZZ = -i YZ → rejected by
        // Hermiticity... instead use commuting factors:
        let mut c = PauliSum::new(2);
        c.push_str(3.0, "IZ");
        let prod = a.mul(&c); // XI · IZ = XZ (disjoint supports commute)
        assert_eq!(prod.num_terms(), 1);
        assert!((prod.terms()[0].coefficient - 3.0).abs() < 1e-12);
        assert_eq!(prod.terms()[0].string.to_string(), "XZ");
    }

    #[test]
    fn squared_hamiltonian_for_variance() {
        // H² of H = XX + ZZ: X²=Z²=I ⇒ H² = 2·II + {XX,ZZ} = 2·II − 2·YY.
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "XX");
        h.push_str(1.0, "ZZ");
        let h2 = h.mul(&h);
        // ⟨H²⟩ on the Bell state (⟨XX⟩=⟨ZZ⟩=1, ⟨YY⟩=−1): 2 + 2 = 4 = ⟨H⟩².
        use eftq_numerics::Complex;
        let s = 0.5f64.sqrt();
        let bell = [
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ];
        assert!((h2.expectation(&bell) - 4.0).abs() < 1e-10);
        assert!((h.expectation(&bell) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn commutation_of_operators() {
        let mut a = PauliSum::new(2);
        a.push_str(1.0, "XX");
        let mut b = PauliSum::new(2);
        b.push_str(1.0, "ZZ");
        assert!(a.commutes_with(&b)); // XX and ZZ commute
        let mut c = PauliSum::new(2);
        c.push_str(1.0, "ZI");
        assert!(!a.commutes_with(&c)); // XX and ZI anticommute on qubit 0

        // Sum that commutes only in aggregate: [XX+YY, ZZ] = 0? XX·ZZ and
        // YY·ZZ both commute with ZZ actually; use a subtler pair:
        let mut d = PauliSum::new(2);
        d.push_str(1.0, "XY");
        d.push_str(1.0, "YX");
        // [XY + YX, ZZ]: XY anticommutes with ZZ, YX anticommutes with ZZ,
        // and their brackets cancel (XY·ZZ = −YX·ZZ up to the same phase).
        let mut zz = PauliSum::new(2);
        zz.push_str(1.0, "ZZ");
        assert!(d.commutes_with(&zz));
    }

    #[test]
    fn accumulate_apply_is_linear() {
        let h = two_qubit_tfim();
        let state = [
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
        ];
        let mut out = vec![Complex::ZERO; 4];
        h.accumulate_apply(&state, &mut out);
        // ⟨ψ|H|ψ⟩ from the applied vector matches expectation().
        let e: f64 = state
            .iter()
            .zip(out.iter())
            .map(|(a, b)| (a.conj() * *b).re)
            .sum();
        assert!((e - h.expectation(&state)).abs() < 1e-12);
    }
}
