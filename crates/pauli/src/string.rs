//! Phase-exact n-qubit Pauli strings in symplectic form.

use crate::pauli::Pauli;
use eftq_numerics::Complex;
use std::fmt;
use std::str::FromStr;

const WORD_BITS: usize = 64;

#[inline]
fn word_count(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// An n-qubit Pauli operator `i^phase · P₀ ⊗ P₁ ⊗ … ⊗ P_{n-1}` where each
/// `P_q` is a standard Hermitian Pauli letter.
///
/// Qubit 0 is the *leftmost* letter in the string form (`"XYZ"` puts X on
/// qubit 0), matching circuit-diagram order.
///
/// The phase exponent is tracked modulo 4; Hermitian strings have phase
/// exponent 0 or 2 (sign ±1).
///
/// # Examples
///
/// ```
/// use eftq_pauli::{Pauli, PauliString};
///
/// let p: PauliString = "XZ".parse().unwrap();
/// assert_eq!(p.num_qubits(), 2);
/// assert_eq!(p.pauli_at(1), Pauli::Z);
/// assert_eq!(p.weight(), 2);
/// let q = p.mul(&p); // any Hermitian Pauli squares to +I
/// assert!(q.is_identity());
/// assert_eq!(q.phase_exponent(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    /// Exponent k of the global phase i^k, modulo 4.
    phase: u8,
}

impl PauliString {
    /// The identity on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            n,
            x: vec![0; word_count(n)],
            z: vec![0; word_count(n)],
            phase: 0,
        }
    }

    /// A single Pauli letter `p` on qubit `q` of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    pub fn single(n: usize, q: usize, p: Pauli) -> Self {
        let mut s = PauliString::identity(n);
        s.set_pauli(q, p);
        s
    }

    /// Builds a string from per-qubit letters.
    pub fn from_paulis<I: IntoIterator<Item = Pauli>>(letters: I) -> Self {
        let letters: Vec<Pauli> = letters.into_iter().collect();
        let mut s = PauliString::identity(letters.len());
        for (q, p) in letters.iter().enumerate() {
            s.set_pauli(q, *p);
        }
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The phase exponent k of the global factor `i^k` (mod 4).
    #[inline]
    pub fn phase_exponent(&self) -> u8 {
        self.phase
    }

    /// The global phase as a complex number.
    pub fn phase(&self) -> Complex {
        Complex::i_pow(self.phase)
    }

    /// The sign of a Hermitian string (+1.0 or -1.0).
    ///
    /// # Panics
    ///
    /// Panics if the string is not Hermitian (phase exponent 1 or 3).
    pub fn sign(&self) -> f64 {
        match self.phase {
            0 => 1.0,
            2 => -1.0,
            _ => panic!("pauli string has imaginary phase i^{}", self.phase),
        }
    }

    /// Whether the operator is Hermitian (real ±1 phase).
    #[inline]
    pub fn is_hermitian(&self) -> bool {
        self.phase % 2 == 0
    }

    /// Multiplies the global phase by `i^k`.
    pub fn mul_phase(&mut self, k: u8) {
        self.phase = (self.phase + k) % 4;
    }

    /// Returns a copy with phase exponent reset to 0 (the positive
    /// representative of the projective class).
    pub fn without_phase(&self) -> PauliString {
        let mut s = self.clone();
        s.phase = 0;
        s
    }

    /// The letter on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    #[inline]
    pub fn pauli_at(&self, q: usize) -> Pauli {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        let (w, b) = (q / WORD_BITS, q % WORD_BITS);
        Pauli::from_bits((self.x[w] >> b) & 1 == 1, (self.z[w] >> b) & 1 == 1)
    }

    /// Sets the letter on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    pub fn set_pauli(&mut self, q: usize, p: Pauli) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        let (w, b) = (q / WORD_BITS, q % WORD_BITS);
        let mask = 1u64 << b;
        if p.x_bit() {
            self.x[w] |= mask;
        } else {
            self.x[w] &= !mask;
        }
        if p.z_bit() {
            self.z[w] |= mask;
        } else {
            self.z[w] &= !mask;
        }
    }

    /// Number of non-identity letters.
    pub fn weight(&self) -> usize {
        self.x
            .iter()
            .zip(self.z.iter())
            .map(|(x, z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Whether every letter is the identity (phase is ignored).
    pub fn is_identity(&self) -> bool {
        self.weight() == 0
    }

    /// Iterator over the qubits carrying a non-identity letter, ascending.
    /// Walks the set bits of the `x | z` words, so a weight-`w` string
    /// costs `O(n/64 + w)`.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.x
            .iter()
            .zip(&self.z)
            .enumerate()
            .flat_map(|(w, (&x, &z))| {
                let mut bits = x | z;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * WORD_BITS + b
                    })
                })
            })
    }

    /// Whether this string commutes with `other`.
    ///
    /// Two Pauli strings commute iff their symplectic product
    /// `|x₁·z₂| + |z₁·x₂|` is even.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        let mut acc = 0u32;
        for i in 0..self.x.len() {
            acc ^= (self.x[i] & other.z[i]).count_ones() & 1;
            acc ^= (self.z[i] & other.x[i]).count_ones() & 1;
        }
        acc & 1 == 0
    }

    /// Whether this string commutes with `other` *qubit-wise* (on every
    /// qubit the letters are equal or at least one is I). Qubit-wise
    /// commutation is the grouping criterion for simultaneous measurement.
    pub fn qubit_wise_commutes(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        for i in 0..self.x.len() {
            // Conflict where both non-identity and letters differ.
            let both = (self.x[i] | self.z[i]) & (other.x[i] | other.z[i]);
            let diff = (self.x[i] ^ other.x[i]) | (self.z[i] ^ other.z[i]);
            if both & diff != 0 {
                return false;
            }
        }
        true
    }

    /// Phase-exact product `self · other`.
    ///
    /// The phase of the product of standard Pauli letters is accumulated via
    /// the Aaronson–Gottesman per-site rule (e.g. `X·Y = iZ`).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn mul(&self, other: &PauliString) -> PauliString {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        let mut out = PauliString::identity(self.n);
        let mut plus = 0u64; // count of sites contributing +i
        let mut minus = 0u64; // count of sites contributing -i
        for i in 0..self.x.len() {
            let (ax, az, bx, bz) = (self.x[i], self.z[i], other.x[i], other.z[i]);
            out.x[i] = ax ^ bx;
            out.z[i] = az ^ bz;
            // +1 contributions: (X,Y), (Y,Z), (Z,X)
            let p = (ax & !az & bx & bz) | (ax & az & !bx & bz) | (!ax & az & bx & !bz);
            // -1 contributions: (X,Z), (Y,X), (Z,Y)
            let m = (ax & !az & !bx & bz) | (ax & az & bx & !bz) | (!ax & az & bx & bz);
            plus += u64::from(p.count_ones());
            minus += u64::from(m.count_ones());
        }
        let delta = (plus + 3 * minus) % 4; // -1 ≡ 3 (mod 4)
        out.phase = ((u64::from(self.phase) + u64::from(other.phase) + delta) % 4) as u8;
        out
    }

    /// The Hermitian adjoint: conjugates the phase (`(i^k)† = i^{-k}`), the
    /// tensor of letters being Hermitian already.
    pub fn adjoint(&self) -> PauliString {
        let mut out = self.clone();
        out.phase = (4 - self.phase) % 4;
        out
    }

    /// The X bit-plane as a single `u64` mask.
    ///
    /// # Panics
    ///
    /// Panics if the string has more than 64 qubits.
    pub fn x_mask_u64(&self) -> u64 {
        assert!(self.n <= 64, "mask only available for ≤64 qubits");
        self.x.first().copied().unwrap_or(0)
    }

    /// The Z bit-plane as a single `u64` mask.
    ///
    /// # Panics
    ///
    /// Panics if the string has more than 64 qubits.
    pub fn z_mask_u64(&self) -> u64 {
        assert!(self.n <= 64, "mask only available for ≤64 qubits");
        self.z.first().copied().unwrap_or(0)
    }

    /// Number of Y letters.
    pub fn y_count(&self) -> usize {
        self.x
            .iter()
            .zip(self.z.iter())
            .map(|(x, z)| (x & z).count_ones() as usize)
            .sum()
    }

    /// Applies `coeff · self` to a state vector, accumulating into `out`
    /// (`out += coeff · P |state⟩`).
    ///
    /// Basis convention: basis index `b` has qubit `q`'s bit at position `q`
    /// (qubit 0 = least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 1 << n`, if `out.len() != state.len()`, or
    /// if `n > 30` (state would not be addressable).
    pub fn accumulate_apply(&self, coeff: Complex, state: &[Complex], out: &mut [Complex]) {
        assert!(
            self.n <= 30,
            "state-vector application limited to 30 qubits"
        );
        let dim = 1usize << self.n;
        assert_eq!(state.len(), dim, "state length must be 2^n");
        assert_eq!(out.len(), dim, "output length must match state");
        let xm = self.x_mask_u64() as usize;
        let zm = self.z_mask_u64() as usize;
        // Operator = i^{phase + nY} (-1)^{popcount(b & z)} |b ⊕ x⟩⟨b|.
        let base = coeff * Complex::i_pow((self.phase as usize + self.y_count()) as u8 % 4);
        for b in 0..dim {
            let sign = if ((b & zm).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            out[b ^ xm] += base * state[b] * sign;
        }
    }

    /// Expectation value `⟨state| self |state⟩` for a normalized state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PauliString::accumulate_apply`].
    pub fn expectation(&self, state: &[Complex]) -> Complex {
        assert!(
            self.n <= 30,
            "state-vector expectation limited to 30 qubits"
        );
        let dim = 1usize << self.n;
        assert_eq!(state.len(), dim, "state length must be 2^n");
        let xm = self.x_mask_u64() as usize;
        let zm = self.z_mask_u64() as usize;
        let base = Complex::i_pow((self.phase as usize + self.y_count()) as u8 % 4);
        let mut acc = Complex::ZERO;
        for b in 0..dim {
            let sign = if ((b & zm).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            acc += state[b ^ xm].conj() * state[b] * sign;
        }
        acc * base
    }

    /// Restricts to the first `m` qubits (used when embedding fails or for
    /// diagnostics). Letters beyond `m` must be identity.
    ///
    /// # Panics
    ///
    /// Panics if a non-identity letter sits on a qubit ≥ `m`.
    pub fn truncated(&self, m: usize) -> PauliString {
        let mut out = PauliString::identity(m);
        out.phase = self.phase;
        for q in 0..self.n {
            let p = self.pauli_at(q);
            if q < m {
                out.set_pauli(q, p);
            } else {
                assert_eq!(p, Pauli::I, "cannot truncate non-identity letter at {q}");
            }
        }
        out
    }

    /// Embeds into a larger register of `m ≥ n` qubits (identity padding).
    ///
    /// # Panics
    ///
    /// Panics if `m < n`.
    pub fn embedded(&self, m: usize) -> PauliString {
        assert!(m >= self.n, "cannot embed {}-qubit string into {m}", self.n);
        let mut out = PauliString::identity(m);
        out.phase = self.phase;
        for q in 0..self.n {
            out.set_pauli(q, self.pauli_at(q));
        }
        out
    }
}

/// Error from parsing a [`PauliString`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauliParseError {
    /// Offending character.
    pub ch: char,
    /// Its byte position in the input.
    pub position: usize,
}

impl fmt::Display for PauliParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid pauli character {:?} at position {}",
            self.ch, self.position
        )
    }
}

impl std::error::Error for PauliParseError {}

impl FromStr for PauliString {
    type Err = PauliParseError;

    /// Parses strings like `"XIZY"`; an optional leading `+`/`-` sets the
    /// sign.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (2u8, rest),
            None => (0u8, s.strip_prefix('+').unwrap_or(s)),
        };
        let mut letters = Vec::with_capacity(body.len());
        for (i, c) in body.chars().enumerate() {
            match Pauli::from_char(c) {
                Some(p) => letters.push(p),
                None => return Err(PauliParseError { ch: c, position: i }),
            }
        }
        let mut out = PauliString::from_paulis(letters);
        out.phase = sign;
        Ok(out)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            0 => {}
            1 => write!(f, "i")?,
            2 => write!(f, "-")?,
            _ => write!(f, "-i")?,
        }
        for q in 0..self.n {
            write!(f, "{}", self.pauli_at(q))?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliString({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_numerics::{Complex, Mat2};
    use proptest::prelude::*;

    fn dense(p: &PauliString) -> Vec<Complex> {
        // Dense 2^n × 2^n matrix (row-major) for n ≤ 3, built from kron.
        // Qubit 0 is the least significant bit of the basis index.
        let n = p.num_qubits();
        let dim = 1usize << n;
        let mut m = vec![Complex::ZERO; dim * dim];
        for col in 0..dim {
            let mut amp = p.phase();
            let mut row = col;
            for q in 0..n {
                let bit = (col >> q) & 1;
                let letter = p.pauli_at(q);
                let mat: Mat2 = letter.matrix();
                // letter |bit⟩ = mat[?, bit]; non-zero row index:
                let out_bit = match letter {
                    Pauli::I | Pauli::Z => bit,
                    Pauli::X | Pauli::Y => 1 - bit,
                };
                amp *= mat.m[out_bit * 2 + bit];
                row = (row & !(1 << q)) | (out_bit << q);
            }
            m[row * dim + col] = amp;
        }
        m
    }

    fn dense_mul(a: &[Complex], b: &[Complex], dim: usize) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; dim * dim];
        for i in 0..dim {
            for k in 0..dim {
                if a[i * dim + k] == Complex::ZERO {
                    continue;
                }
                for j in 0..dim {
                    out[i * dim + j] += a[i * dim + k] * b[k * dim + j];
                }
            }
        }
        out
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["XIZY", "-ZZ", "IIII", "Y"] {
            let p: PauliString = s.parse().unwrap();
            let canonical = s.strip_prefix('+').unwrap_or(s);
            assert_eq!(p.to_string(), canonical);
        }
        let err = "XQ".parse::<PauliString>().unwrap_err();
        assert_eq!(err.position, 1);
        assert_eq!(err.ch, 'Q');
    }

    #[test]
    fn single_and_weight() {
        let p = PauliString::single(5, 3, Pauli::Y);
        assert_eq!(p.weight(), 1);
        assert_eq!(p.pauli_at(3), Pauli::Y);
        assert_eq!(p.support().collect::<Vec<_>>(), vec![3]);
        assert_eq!(p.y_count(), 1);
    }

    #[test]
    fn support_spans_words_in_ascending_order() {
        let mut p = PauliString::identity(130);
        for (q, l) in [
            (129, Pauli::Z),
            (0, Pauli::X),
            (64, Pauli::Y),
            (63, Pauli::Z),
        ] {
            p.set_pauli(q, l);
        }
        assert_eq!(p.support().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(PauliString::identity(70).support().count(), 0);
    }

    #[test]
    fn known_products() {
        let x: PauliString = "X".parse().unwrap();
        let y: PauliString = "Y".parse().unwrap();
        let z: PauliString = "Z".parse().unwrap();
        // XY = iZ
        let xy = x.mul(&y);
        assert_eq!(xy.pauli_at(0), Pauli::Z);
        assert_eq!(xy.phase_exponent(), 1);
        // YX = -iZ
        let yx = y.mul(&x);
        assert_eq!(yx.phase_exponent(), 3);
        // ZX = iY
        let zx = z.mul(&x);
        assert_eq!(zx.pauli_at(0), Pauli::Y);
        assert_eq!(zx.phase_exponent(), 1);
        // squares
        for p in [&x, &y, &z] {
            let sq = p.mul(p);
            assert!(sq.is_identity());
            assert_eq!(sq.phase_exponent(), 0);
        }
    }

    #[test]
    fn commutation_matches_letterwise_rule() {
        let a: PauliString = "XXI".parse().unwrap();
        let b: PauliString = "ZZI".parse().unwrap();
        // Two anticommuting sites → commute overall.
        assert!(a.commutes_with(&b));
        let c: PauliString = "ZII".parse().unwrap();
        assert!(!a.commutes_with(&c));
    }

    #[test]
    fn qubit_wise_commutation() {
        let a: PauliString = "XXI".parse().unwrap();
        let b: PauliString = "XIZ".parse().unwrap();
        assert!(a.qubit_wise_commutes(&b));
        let c: PauliString = "ZXI".parse().unwrap();
        assert!(!a.qubit_wise_commutes(&c));
        // QWC implies commuting.
        assert!(a.commutes_with(&b));
    }

    #[test]
    fn adjoint_conjugates_phase() {
        let mut p: PauliString = "XY".parse().unwrap();
        p.mul_phase(1); // i·XY
        let adj = p.adjoint();
        assert_eq!(adj.phase_exponent(), 3);
        let prod = p.mul(&adj);
        assert!(prod.is_identity());
        assert_eq!(prod.phase_exponent(), 0); // P P† = I
    }

    #[test]
    fn expectation_on_computational_basis() {
        // |00⟩: ⟨ZZ⟩ = 1, ⟨XI⟩ = 0, ⟨ZI⟩ = 1.
        let state = [Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        let zz: PauliString = "ZZ".parse().unwrap();
        let xi: PauliString = "XI".parse().unwrap();
        assert!(zz.expectation(&state).approx_eq(Complex::ONE, 1e-12));
        assert!(xi.expectation(&state).approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn expectation_on_plus_state() {
        // |++⟩: ⟨XX⟩ = 1, ⟨ZZ⟩ = 0, ⟨YY⟩ = 0.
        let h = 0.5;
        let state = [Complex::real(h); 4];
        let xx: PauliString = "XX".parse().unwrap();
        let zz: PauliString = "ZZ".parse().unwrap();
        let yy: PauliString = "YY".parse().unwrap();
        assert!(xx.expectation(&state).approx_eq(Complex::ONE, 1e-12));
        assert!(zz.expectation(&state).approx_eq(Complex::ZERO, 1e-12));
        assert!(yy.expectation(&state).approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn accumulate_apply_matches_dense() {
        let p: PauliString = "YZ".parse().unwrap();
        let dim = 4;
        let state: Vec<Complex> = (0..dim)
            .map(|i| Complex::new(i as f64 + 0.5, -(i as f64) * 0.25))
            .collect();
        let mut out = vec![Complex::ZERO; dim];
        p.accumulate_apply(Complex::real(2.0), &state, &mut out);
        let m = dense(&p);
        for r in 0..dim {
            let mut want = Complex::ZERO;
            for c in 0..dim {
                want += m[r * dim + c] * state[c];
            }
            assert!(out[r].approx_eq(want * 2.0, 1e-10), "row {r}");
        }
    }

    #[test]
    fn embed_and_truncate() {
        let p: PauliString = "XZ".parse().unwrap();
        let big = p.embedded(4);
        assert_eq!(big.to_string(), "XZII");
        let back = big.truncated(2);
        assert_eq!(back, p);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_rejects_support_loss() {
        let p: PauliString = "IIX".parse().unwrap();
        let _ = p.truncated(2);
    }

    #[test]
    fn multiword_strings() {
        // 100 qubits spans two words.
        let mut p = PauliString::identity(100);
        p.set_pauli(0, Pauli::X);
        p.set_pauli(63, Pauli::Y);
        p.set_pauli(64, Pauli::Z);
        p.set_pauli(99, Pauli::X);
        assert_eq!(p.weight(), 4);
        assert_eq!(p.pauli_at(64), Pauli::Z);
        let sq = p.mul(&p);
        assert!(sq.is_identity());
        assert_eq!(sq.phase_exponent(), 0);
        let q = PauliString::single(100, 64, Pauli::X);
        assert!(!p.commutes_with(&q));
    }

    proptest! {
        #[test]
        fn prop_mul_matches_dense(
            letters_a in proptest::collection::vec(0usize..4, 3),
            letters_b in proptest::collection::vec(0usize..4, 3),
        ) {
            let a = PauliString::from_paulis(letters_a.iter().map(|&k| Pauli::ALL[k]));
            let b = PauliString::from_paulis(letters_b.iter().map(|&k| Pauli::ALL[k]));
            let prod = a.mul(&b);
            let want = dense_mul(&dense(&a), &dense(&b), 8);
            let got = dense(&prod);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert!(g.approx_eq(*w, 1e-10));
            }
        }

        #[test]
        fn prop_commutation_matches_dense(
            letters_a in proptest::collection::vec(0usize..4, 3),
            letters_b in proptest::collection::vec(0usize..4, 3),
        ) {
            let a = PauliString::from_paulis(letters_a.iter().map(|&k| Pauli::ALL[k]));
            let b = PauliString::from_paulis(letters_b.iter().map(|&k| Pauli::ALL[k]));
            let ab = a.mul(&b);
            let ba = b.mul(&a);
            let commute_dense = ab.phase_exponent() == ba.phase_exponent();
            prop_assert_eq!(a.commutes_with(&b), commute_dense);
        }

        #[test]
        fn prop_square_is_identity(letters in proptest::collection::vec(0usize..4, 1..8)) {
            let a = PauliString::from_paulis(letters.iter().map(|&k| Pauli::ALL[k]));
            let sq = a.mul(&a);
            prop_assert!(sq.is_identity());
            prop_assert_eq!(sq.phase_exponent(), 0);
        }

        #[test]
        fn prop_associativity(
            la in proptest::collection::vec(0usize..4, 4),
            lb in proptest::collection::vec(0usize..4, 4),
            lc in proptest::collection::vec(0usize..4, 4),
        ) {
            let a = PauliString::from_paulis(la.iter().map(|&k| Pauli::ALL[k]));
            let b = PauliString::from_paulis(lb.iter().map(|&k| Pauli::ALL[k]));
            let c = PauliString::from_paulis(lc.iter().map(|&k| Pauli::ALL[k]));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }
}
