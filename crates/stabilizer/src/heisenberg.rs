//! Heisenberg-picture noiseless expectations for Clifford genomes.
//!
//! A genetic search scores thousands of genomes of one symbolic ansatz,
//! and every genome needs the noiseless value `⟨0|U†PU|0⟩ ∈ {−1, 0, +1}`
//! of every Hamiltonian term `P` on its bound Clifford `U`. The
//! Schrödinger route — bind a [`Circuit`], walk every gate of it on a
//! [`Tableau`](crate::Tableau), then pay an `O(n·2n/64)` walk per term —
//! repeats the genome-independent part of `U` for every genome: the
//! 4 950 CNOTs of a 100-qubit fully-connected entangler are the same
//! network whatever the rotation angles are.
//!
//! [`HeisenbergEvaluator`] compiles that part once, in the spirit of
//! Stim's observable peek (Gidney, *Quantum* 5, 497, 2021):
//!
//! 1. **Compile** (once per search, from the ansatz and the
//!    Hamiltonian): split the circuit into the leading symbolic
//!    rotations and then stages, each a maximal run of fixed gates
//!    followed by the maximal run of symbolic rotations after it (possibly
//!    empty). For every fixed run `B`, store the phase-tracked rows `B†PB`
//!    for `P ∈ {X_q, Y_q, Z_q}` — a Clifford conjugates a product of
//!    Paulis into the product of their images, so these `3n` rows
//!    determine `B†PB` for every `P`. Every Hamiltonian term becomes a
//!    letter list: its `(qubit, symplectic code)` pairs by ascending
//!    qubit, plus its sign.
//! 2. **Bind** (once per genome, `O(n)`): resolve each stage's rotations
//!    into a signed single-qubit letter map per qubit, and the leading
//!    rotations into the product state they prepare on `|0…0⟩`, kept as
//!    three masks: the stabilizing letter of every qubit and its sign.
//! 3. **Evaluate** (per term): propagate the term backwards, stage by
//!    stage. Each stage maps the term's letters through its rotations'
//!    letter maps and multiplies its fixed run's rows for the mapped
//!    letters: a weight-1 term's image is its row itself, and a heavier
//!    term's first two rows are multiplied into the scratch row, the rest
//!    into that. An earlier stage reads the letters back off the image.
//!    At the front, a word-parallel read-off gives the value: 0 unless
//!    every qubit carries `I` or its product-state letter, otherwise the
//!    accumulated sign. The products' `i`-powers are counted per bit
//!    position in two bit-planes (as Stim's Pauli-string product counts
//!    them), so a zero value costs no popcount.
//!
//! On a depth-1 ansatz (rotations, entangler, rotations) a term of
//! weight `w` costs `w` letter lookups and `w − 1` row products of
//! `n/64` words, with no circuit, no tableau, no per-term walk over all
//! generator rows and no per-genome rebuild of the term.
//!
//! Every rotation resolves exactly as [`Tableau::apply_gate`] applies it
//! (`Rz(kπ/2) = S^k`, `Rx = H·S^k·H`, `Ry` = S†, H, S^k, H, S), and
//! each value is exactly ±1 or 0, so the results are **bit-identical**
//! to [`Tableau::expectation`] on [`eftq_circuit::Ansatz::bind_clifford`]'s
//! circuit — and [`BoundEvaluator::estimate_energy`] to
//! [`crate::estimate_energy_program`] on it.
//!
//! [`Tableau::apply_gate`]: crate::Tableau::apply_gate
//! [`Tableau::expectation`]: crate::Tableau::expectation
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::ansatz::fully_connected_hea;
//! use eftq_pauli::PauliSum;
//! use eftq_stabilizer::{HeisenbergEvaluator, Tableau};
//!
//! let ansatz = fully_connected_hea(5, 1);
//! let mut h = PauliSum::new(5);
//! for p in ["ZZIII", "IXXII", "YIIIY", "-IIZIZ"] {
//!     h.push_str(0.5, p);
//! }
//! let evaluator = HeisenbergEvaluator::compile(ansatz.circuit(), &h);
//! let genome: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
//! let bound = evaluator.bind_clifford(&genome);
//! let mut values = vec![0.0; h.num_terms()];
//! bound.expectations(&mut values);
//!
//! let mut t = Tableau::new(5);
//! t.run(&ansatz.bind_clifford(&genome));
//! for (term, value) in h.terms().iter().zip(values) {
//!     assert_eq!(value, t.expectation(&term.string));
//! }
//! // A term outside the Hamiltonian takes the same path.
//! let p = "XXXXX".parse().unwrap();
//! assert_eq!(bound.expectation(&p), t.expectation(&p));
//! ```

use crate::noise::{accumulate_energy, NoisyCliffordRun};
use crate::program::NoiseProgram;
use crate::tableau::quarter_turns;
use eftq_circuit::{Angle, Circuit, Gate};
use eftq_numerics::SeedSequence;
use eftq_pauli::{PauliString, PauliSum};
use std::f64::consts::FRAC_PI_2;

const WORD_BITS: usize = 64;

/// A signed single-qubit letter: bits 0–1 hold the symplectic code
/// `x | z << 1` (I = 0, X = 1, Z = 2, Y = 3), bit 2 a −1 sign.
type Signed = u8;

/// The sign bit of a [`Signed`] letter.
const NEG: Signed = 4;

/// The Heisenberg action `P ↦ C†PC` of a single-qubit Clifford `C`,
/// indexed by the symplectic code of `P`.
type LetterMap = [Signed; 4];

const IDENTITY_MAP: LetterMap = [0, 1, 2, 3];

/// `m` followed by a gate with Heisenberg map `g`. Heisenberg maps
/// compose in reverse: `(G₂G₁)†P(G₂G₁) = G₁†(G₂†PG₂)G₁`.
fn then(m: LetterMap, g: LetterMap) -> LetterMap {
    let mut out = [0; 4];
    for (o, &img) in out.iter_mut().zip(&g) {
        *o = m[usize::from(img & 3)] ^ (img & NEG);
    }
    out
}

/// A primitive Clifford gate, the units [`Tableau::apply_gate`] applies.
///
/// [`Tableau::apply_gate`]: crate::Tableau::apply_gate
#[derive(Clone, Copy, Debug)]
enum Prim {
    H(usize),
    S(usize),
    Sdg(usize),
    X(usize),
    Y(usize),
    Z(usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

impl Prim {
    /// The Heisenberg letter map of a primitive a rotation decomposes
    /// into.
    fn letter_map(self) -> LetterMap {
        match self {
            Prim::H(_) => [0, 2, 1, 3 | NEG],
            Prim::S(_) => [0, 3 | NEG, 2, 1],
            Prim::Sdg(_) => [0, 3, 2, 1 | NEG],
            Prim::Z(_) => [0, 1 | NEG, 2, 3 | NEG],
            p => unreachable!("rotations never decompose into {p:?}"),
        }
    }
}

/// Appends the primitives `Tableau::apply_gate` applies for `gate`, in
/// the same order (measurements contribute none, as `Tableau::run`
/// skips them).
///
/// # Panics
///
/// Panics on non-Clifford or symbolic gates.
fn primitives(gate: &Gate, out: &mut Vec<Prim>) {
    let quarter_z = |q: usize, v: f64, out: &mut Vec<Prim>| match quarter_turns(v, gate) {
        0 => {}
        1 => out.push(Prim::S(q)),
        2 => out.push(Prim::Z(q)),
        _ => out.push(Prim::Sdg(q)),
    };
    match *gate {
        Gate::H(q) => out.push(Prim::H(q)),
        Gate::S(q) => out.push(Prim::S(q)),
        Gate::Sdg(q) => out.push(Prim::Sdg(q)),
        Gate::X(q) => out.push(Prim::X(q)),
        Gate::Y(q) => out.push(Prim::Y(q)),
        Gate::Z(q) => out.push(Prim::Z(q)),
        Gate::Cx(c, t) => out.push(Prim::Cx(c, t)),
        Gate::Cz(a, b) => out.push(Prim::Cz(a, b)),
        Gate::Swap(a, b) => out.push(Prim::Swap(a, b)),
        Gate::Measure(_) => {}
        Gate::Rz(q, Angle::Value(v)) => quarter_z(q, v, out),
        Gate::Rx(q, Angle::Value(v)) => {
            out.push(Prim::H(q));
            quarter_z(q, v, out);
            out.push(Prim::H(q));
        }
        Gate::Ry(q, Angle::Value(v)) => {
            out.push(Prim::Sdg(q));
            out.push(Prim::H(q));
            quarter_z(q, v, out);
            out.push(Prim::H(q));
            out.push(Prim::S(q));
        }
        ref g => panic!("Heisenberg evaluator cannot apply gate {g}"),
    }
}

/// Letter maps of `R(k·π/2)` for axis `[X, Y, Z]` and `k ∈ 0..4`.
fn rotation_maps() -> [[LetterMap; 4]; 3] {
    let gate = |axis: usize, k: usize| {
        let a = Angle::Value(k as f64 * FRAC_PI_2);
        match axis {
            0 => Gate::Rx(0, a),
            1 => Gate::Ry(0, a),
            _ => Gate::Rz(0, a),
        }
    };
    let mut maps = [[IDENTITY_MAP; 4]; 3];
    let mut prims = Vec::new();
    for (axis, row) in maps.iter_mut().enumerate() {
        for (k, m) in row.iter_mut().enumerate() {
            prims.clear();
            primitives(&gate(axis, k), &mut prims);
            *m = prims
                .iter()
                .fold(IDENTITY_MAP, |m, p| then(m, p.letter_map()));
        }
    }
    maps
}

/// Per bit position, a count modulo 4 of the `i`-powers that row
/// products pick up, kept in two bit-planes (the accumulator of Stim's
/// Pauli-string product). The total costs two popcounts, however many
/// words and products went into it.
#[derive(Clone, Copy, Debug, Default)]
struct Powers {
    lo: u64,
    hi: u64,
}

impl Powers {
    /// The summed `i`-power, mod 4.
    fn total(self) -> u8 {
        ((self.lo.count_ones() + 2 * self.hi.count_ones()) % 4) as u8
    }
}

/// One word of the row product `[x1 | z1]·[x2 | z2]`: returns its
/// `[x | z]` words and adds each site's `i`-power to `acc` — +1 for XY,
/// YZ and ZX, −1 for XZ, YX and ZY (the per-site rule of
/// [`PauliString::mul`]).
#[inline(always)]
fn mul_word(x1: u64, z1: u64, x2: u64, z2: u64, acc: &mut Powers) -> (u64, u64) {
    let (x, z) = (x1 ^ x2, z1 ^ z2);
    let x1z2 = x1 & z2;
    // Anticommuting sites pick up ±i, −i exactly where x ^ z ^ x1z2.
    let anti = (x2 & z1) ^ x1z2;
    acc.hi ^= (acc.lo ^ x ^ z ^ x1z2) & anti;
    acc.lo ^= anti;
    (x, z)
}

/// Row `a = [x | z]` ← `a·b`, adding the product's `i`-powers to `acc`.
fn mul_assign(a: &mut [u64], b: &[u64], words: usize, acc: &mut Powers) {
    let (ax, az) = a.split_at_mut(words);
    let (bx, bz) = b.split_at(words);
    for i in 0..words {
        (ax[i], az[i]) = mul_word(ax[i], az[i], bx[i], bz[i], acc);
    }
}

/// `out` ← `a·b` for rows `[x | z]`, adding the product's `i`-powers to
/// `acc`.
fn mul_into(out: &mut [u64], a: &[u64], b: &[u64], words: usize, acc: &mut Powers) {
    let (ox, oz) = out.split_at_mut(words);
    let (ax, az) = a.split_at(words);
    let (bx, bz) = b.split_at(words);
    for i in 0..words {
        (ox[i], oz[i]) = mul_word(ax[i], az[i], bx[i], bz[i], acc);
    }
}

/// A non-identity letter of a term: `(qubit, symplectic code)`, the code
/// in `1..4`.
type Letter = (usize, usize);

/// Writes the letters of a row `[x | z]` into `out`, by ascending qubit,
/// and returns how many there are.
fn read_letters(row: &[u64], words: usize, out: &mut [Letter]) -> usize {
    let (x, z) = row.split_at(words);
    let mut len = 0;
    for (w, (&xw, &zw)) in x.iter().zip(z).enumerate() {
        let mut bits = xw | zw;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let code = (xw >> b & 1) | (zw >> b & 1) << 1;
            out[len] = (w * WORD_BITS + b as usize, code as usize);
            len += 1;
        }
    }
    len
}

/// Disjoint mutable views of rows `a` and `b` (`a != b`) of a row table.
fn two_rows(rows: &mut [u64], stride: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = rows.split_at_mut(b * stride);
        (&mut lo[a * stride..(a + 1) * stride], &mut hi[..stride])
    } else {
        let (lo, hi) = rows.split_at_mut(a * stride);
        (&mut hi[..stride], &mut lo[b * stride..(b + 1) * stride])
    }
}

/// A Hermitian Pauli term compiled for evaluation.
#[derive(Clone, Debug)]
struct Term {
    /// Its letters, by ascending qubit.
    letters: Vec<Letter>,
    /// Its `i`-power: 0 or 2.
    phase: u8,
}

impl Term {
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a non-Hermitian phase.
    fn compile(p: &PauliString, n: usize) -> Term {
        assert_eq!(p.num_qubits(), n, "pauli size mismatch");
        assert!(p.is_hermitian(), "expectation needs a Hermitian Pauli");
        let letters = p
            .support()
            .map(|q| {
                let letter = p.pauli_at(q);
                let code = usize::from(letter.x_bit()) | usize::from(letter.z_bit()) << 1;
                (q, code)
            })
            .collect();
        Term {
            letters,
            phase: p.phase_exponent(),
        }
    }
}

/// A symbolic rotation: qubit, genome index, axis (0 = X, 1 = Y, 2 = Z).
#[derive(Clone, Copy, Debug)]
struct Rotation {
    q: usize,
    param: usize,
    axis: usize,
}

/// The phase-tracked rows `B†PB` of a fixed Clifford run `B`.
#[derive(Clone, Debug)]
struct FixedRun {
    /// Row `3q + c − 1` is the image of the letter with symplectic code
    /// `c` on qubit `q`: `words` X words, then `words` Z words.
    rows: Vec<u64>,
    /// The `i`-power of each row.
    phase: Vec<u8>,
}

impl FixedRun {
    /// The image `B†PB` of the product `P` of `letters` (distinct qubits),
    /// each letter first mapped through `maps`: one letter's row itself,
    /// or the product of their rows written into `out` (the first two
    /// multiplied into it, the rest multiplied in). The letters' signs
    /// and the rows' `i`-powers go to `phase`, the products' to `acc`.
    fn image<'a>(
        &'a self,
        letters: &[Letter],
        maps: &[LetterMap],
        out: &'a mut [u64],
        words: usize,
        phase: &mut u8,
        acc: &mut Powers,
    ) -> &'a [u64] {
        let stride = 2 * words;
        let at = |r: usize| &self.rows[r * stride..][..stride];
        // Maps a letter, folds its sign and its row's `i`-power into
        // `phase`, and returns the row's index.
        let mut row = |&(q, code): &Letter| {
            let img = maps[q][code];
            let r = 3 * q + usize::from(img & 3) - 1;
            *phase = (*phase + (img & NEG) / 2 + self.phase[r]) % 4;
            r
        };
        match letters {
            [] => {
                out.fill(0);
                out
            }
            [a] => at(row(a)),
            [a, b, rest @ ..] => {
                let (ra, rb) = (row(a), row(b));
                mul_into(out, at(ra), at(rb), words, acc);
                for c in rest {
                    mul_assign(out, at(row(c)), words, acc);
                }
                out
            }
        }
    }
}

/// The generator images of a fixed run under construction: row `2q` is
/// the image of `X_q`, row `2q + 1` that of `Z_q`.
struct Images {
    words: usize,
    rows: Vec<u64>,
    phase: Vec<u8>,
}

impl Images {
    fn identity(n: usize, words: usize) -> Images {
        let stride = 2 * words;
        let mut rows = vec![0u64; 2 * n * stride];
        for q in 0..n {
            let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            rows[2 * q * stride + w] |= bit;
            rows[(2 * q + 1) * stride + words + w] |= bit;
        }
        Images {
            words,
            rows,
            phase: vec![0; 2 * n],
        }
    }

    /// Row `dst` ← row `dst` · row `src`.
    fn mul(&mut self, dst: usize, src: usize) {
        let (d, s) = two_rows(&mut self.rows, 2 * self.words, dst, src);
        let mut acc = Powers::default();
        mul_assign(d, s, self.words, &mut acc);
        self.phase[dst] = (self.phase[dst] + self.phase[src] + acc.total()) % 4;
    }

    fn swap(&mut self, a: usize, b: usize) {
        let (ra, rb) = two_rows(&mut self.rows, 2 * self.words, a, b);
        ra.swap_with_slice(rb);
        self.phase.swap(a, b);
    }

    /// Multiplies row `r` by `i^k`.
    fn turn(&mut self, r: usize, k: u8) {
        self.phase[r] = (self.phase[r] + k) % 4;
    }

    /// Appends gate `p` to the run: after gates `G₁…G_k` the row of a
    /// generator `P` holds `T_k(P) = T_{k−1}(G_k†PG_k)`, and `G_k†PG_k`
    /// is a product of generators on `G_k`'s qubits.
    fn push(&mut self, p: Prim) {
        let (x, z) = (|q: usize| 2 * q, |q: usize| 2 * q + 1);
        match p {
            // H†XH = Z, H†ZH = X.
            Prim::H(q) => self.swap(x(q), z(q)),
            // S†XS = −Y = −i·X·Z.
            Prim::S(q) => {
                self.mul(x(q), z(q));
                self.turn(x(q), 3);
            }
            // S·X·S† = Y = i·X·Z.
            Prim::Sdg(q) => {
                self.mul(x(q), z(q));
                self.turn(x(q), 1);
            }
            Prim::X(q) => self.turn(z(q), 2),
            Prim::Y(q) => {
                self.turn(x(q), 2);
                self.turn(z(q), 2);
            }
            Prim::Z(q) => self.turn(x(q), 2),
            // X_c → X_c·X_t and Z_t → Z_t·Z_c (commuting factors).
            Prim::Cx(c, t) => {
                self.mul(x(c), x(t));
                self.mul(z(t), z(c));
            }
            // X_a → X_a·Z_b and X_b → X_b·Z_a.
            Prim::Cz(a, b) => {
                self.mul(x(a), z(b));
                self.mul(x(b), z(a));
            }
            Prim::Swap(a, b) => {
                self.swap(x(a), x(b));
                self.swap(z(a), z(b));
            }
        }
    }

    /// The finished run, with `Y_q = i·X_q·Z_q` added per qubit.
    fn finish(self) -> FixedRun {
        let stride = 2 * self.words;
        let n = self.phase.len() / 2;
        let mut rows = vec![0u64; 3 * n * stride];
        let mut phase = vec![0u8; 3 * n];
        for q in 0..n {
            let (rx, rz) = (
                &self.rows[2 * q * stride..(2 * q + 1) * stride],
                &self.rows[(2 * q + 1) * stride..(2 * q + 2) * stride],
            );
            let (xz, y) = rows[3 * q * stride..3 * (q + 1) * stride].split_at_mut(2 * stride);
            xz[..stride].copy_from_slice(rx);
            xz[stride..].copy_from_slice(rz);
            let mut acc = Powers::default();
            mul_into(y, rx, rz, self.words, &mut acc);
            let (px, pz) = (self.phase[2 * q], self.phase[2 * q + 1]);
            phase[3 * q] = px;
            phase[3 * q + 1] = pz;
            phase[3 * q + 2] = (px + pz + acc.total() + 1) % 4;
        }
        FixedRun { rows, phase }
    }
}

/// A fixed run and the rotation run that follows it in the circuit
/// (empty when another fixed run or the end of the circuit follows).
#[derive(Clone, Debug)]
struct Stage {
    fixed: FixedRun,
    then: Vec<Rotation>,
}

/// A symbolic Clifford ansatz and a Hamiltonian compiled for
/// Heisenberg-picture expectations: the genome-independent gates are
/// folded into conjugation tables once, every term into a letter list
/// once, and each genome only resolves its rotations. See the
/// [module docs](self) for the algorithm.
///
/// Compile once per search and share across threads (it is plain
/// data); [`HeisenbergEvaluator::bind_clifford`] is the per-genome step.
#[derive(Clone, Debug)]
pub struct HeisenbergEvaluator {
    n: usize,
    words: usize,
    num_params: usize,
    /// The rotations ahead of the first fixed gate: they prepare a
    /// product state.
    leading: Vec<Rotation>,
    /// The rest of the circuit, in circuit order.
    stages: Vec<Stage>,
    /// Letter maps of `R(k·π/2)` per axis and `k`.
    rotation_maps: [[LetterMap; 4]; 3],
    /// The Hamiltonian, for the energy accumulation.
    hamiltonian: PauliSum,
    /// Its terms, in term order.
    terms: Vec<Term>,
}

impl HeisenbergEvaluator {
    /// Compiles a (possibly symbolic) Clifford circuit and the
    /// Hamiltonian whose terms [`BoundEvaluator::expectations`] evaluates.
    /// Symbolic rotations stay symbolic; every other gate — including
    /// bound quarter-turn rotations — is folded into its run's
    /// conjugation table. Measurements are skipped, as
    /// [`crate::Tableau::run`] skips them.
    ///
    /// # Panics
    ///
    /// Panics on circuit/Hamiltonian size mismatch, non-Clifford gates,
    /// or bound rotations that are not multiples of π/2.
    pub fn compile(circuit: &Circuit, hamiltonian: &PauliSum) -> HeisenbergEvaluator {
        let n = circuit.num_qubits();
        assert_eq!(
            hamiltonian.num_qubits(),
            n,
            "circuit/Hamiltonian size mismatch"
        );
        let words = n.div_ceil(WORD_BITS);
        let mut leading = Vec::new();
        let mut stages: Vec<Stage> = Vec::new();
        let mut fixed: Option<Images> = None;
        let mut prims = Vec::new();
        for g in circuit.gates() {
            let rotation = match *g {
                Gate::Rx(q, Angle::Param(param)) => Some((q, param, 0)),
                Gate::Ry(q, Angle::Param(param)) => Some((q, param, 1)),
                Gate::Rz(q, Angle::Param(param)) => Some((q, param, 2)),
                _ => None,
            };
            if let Some((q, param, axis)) = rotation {
                if let Some(images) = fixed.take() {
                    stages.push(Stage {
                        fixed: images.finish(),
                        then: Vec::new(),
                    });
                }
                let run = stages.last_mut().map_or(&mut leading, |s| &mut s.then);
                run.push(Rotation { q, param, axis });
                continue;
            }
            prims.clear();
            primitives(g, &mut prims);
            if prims.is_empty() {
                continue;
            }
            let images = fixed.get_or_insert_with(|| Images::identity(n, words));
            for &p in &prims {
                images.push(p);
            }
        }
        if let Some(images) = fixed {
            stages.push(Stage {
                fixed: images.finish(),
                then: Vec::new(),
            });
        }
        HeisenbergEvaluator {
            n,
            words,
            num_params: circuit.num_symbolic_params(),
            leading,
            stages,
            rotation_maps: rotation_maps(),
            hamiltonian: hamiltonian.clone(),
            terms: hamiltonian
                .terms()
                .iter()
                .map(|t| Term::compile(&t.string, n))
                .collect(),
        }
    }

    /// Number of symbolic parameters a genome must cover.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Resolves the symbolic rotations against a Clifford genome (entry
    /// `k` means the angle `k·π/2`, as in
    /// [`eftq_circuit::Ansatz::bind_clifford`]). Costs `O(n)` per
    /// rotation run plus one composition per rotation.
    ///
    /// # Panics
    ///
    /// Panics if `genome.len() < self.num_params()`.
    pub fn bind_clifford(&self, genome: &[u8]) -> BoundEvaluator<'_> {
        assert!(
            genome.len() >= self.num_params,
            "need {} genome entries, got {}",
            self.num_params,
            genome.len()
        );
        let (n, words) = (self.n, self.words);
        let resolve = |rotations: &[Rotation], maps: &mut [LetterMap]| {
            for r in rotations {
                let k = usize::from(genome[r.param] % 4);
                maps[r.q] = then(maps[r.q], self.rotation_maps[r.axis][k]);
            }
        };
        // The leading run prepares a product state, kept as masks
        // [letter x | letter z | sign]: qubit q is stabilized by the
        // letter its map sends to ±Z (+Z on every qubit without one).
        let mut maps = vec![IDENTITY_MAP; n];
        resolve(&self.leading, &mut maps);
        let mut product = vec![0u64; 3 * words];
        for (q, m) in maps.iter().enumerate() {
            let c = (1..4)
                .find(|&c| m[c] & 3 == 2)
                .expect("a Clifford maps one letter to ±Z");
            let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            product[w] |= if c & 1 == 1 { bit } else { 0 };
            product[words + w] |= if c & 2 == 2 { bit } else { 0 };
            product[2 * words + w] |= if m[c] & NEG != 0 { bit } else { 0 };
        }
        maps.clear();
        maps.resize(n * self.stages.len(), IDENTITY_MAP);
        for (j, stage) in self.stages.iter().enumerate() {
            resolve(&stage.then, &mut maps[j * n..(j + 1) * n]);
        }
        BoundEvaluator {
            evaluator: self,
            maps,
            product,
        }
    }
}

/// A [`HeisenbergEvaluator`] bound to one genome: answers Pauli
/// expectations of the bound Clifford state `U|0…0⟩`.
#[derive(Clone, Debug)]
pub struct BoundEvaluator<'a> {
    evaluator: &'a HeisenbergEvaluator,
    /// `n` letter maps per stage, in stage order: the rotation run after
    /// the stage's fixed run.
    maps: Vec<LetterMap>,
    /// The leading product state: X-letter, Z-letter and sign masks.
    product: Vec<u64>,
}

/// Per-term working space: a letter slot per qubit and a row `[x | z]`.
struct Scratch {
    letters: Vec<Letter>,
    row: Vec<u64>,
}

impl BoundEvaluator<'_> {
    /// Expectation value of a Hermitian Pauli string on the bound state:
    /// exactly [`crate::Tableau::expectation`] on the bound circuit. The
    /// string is compiled into a letter list and evaluated like a
    /// Hamiltonian term.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a non-Hermitian phase.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        let term = Term::compile(p, self.evaluator.n);
        self.value(&term, &mut self.scratch())
    }

    /// Writes `⟨P_k⟩` for every term of the compiled Hamiltonian into
    /// `out`, in term order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the term count.
    pub fn expectations(&self, out: &mut [f64]) {
        let terms = &self.evaluator.terms;
        assert_eq!(out.len(), terms.len(), "output slice size mismatch");
        let mut scratch = self.scratch();
        for (o, term) in out.iter_mut().zip(terms) {
            *o = self.value(term, &mut scratch);
        }
    }

    /// Noisy energy estimate of the compiled Hamiltonian on the bound
    /// state: these noiseless expectations fed through `program`'s Pauli
    /// frames. Bit-identical to [`crate::estimate_energy_program`] on the
    /// bound circuit with the same Hamiltonian and arguments.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or the program size mismatches.
    pub fn estimate_energy(
        &self,
        program: &NoiseProgram,
        meas_flip: f64,
        shots: usize,
        seed: SeedSequence,
        threads: usize,
    ) -> NoisyCliffordRun {
        let ev = self.evaluator;
        assert_eq!(
            program.num_qubits(),
            ev.n,
            "evaluator/program size mismatch"
        );
        let mut e0s = vec![0.0; ev.terms.len()];
        self.expectations(&mut e0s);
        accumulate_energy(
            &ev.hamiltonian,
            &e0s,
            program,
            meas_flip,
            shots,
            seed,
            threads,
        )
    }

    fn scratch(&self) -> Scratch {
        let ev = self.evaluator;
        Scratch {
            letters: vec![(0, 0); ev.n],
            row: vec![0; 2 * ev.words],
        }
    }

    fn value(&self, term: &Term, s: &mut Scratch) -> f64 {
        let ev = self.evaluator;
        let (n, words) = (ev.n, ev.words);
        let Scratch { letters, row: out } = s;
        let (mut phase, mut acc) = (term.phase, Powers::default());
        // Stage by stage from the back, the term is a letter list — its
        // own, or read back off the previous stage's image — mapped
        // through the stage's rotations and its fixed run's rows.
        let mut image: Option<&[u64]> = None;
        for (j, stage) in ev.stages.iter().enumerate().rev() {
            let maps = &self.maps[j * n..(j + 1) * n];
            let input = match image {
                None => &term.letters[..],
                Some(row) => {
                    let len = read_letters(row, words, letters);
                    &letters[..len]
                }
            };
            image = Some(
                stage
                    .fixed
                    .image(input, maps, out, words, &mut phase, &mut acc),
            );
        }
        let row = match image {
            Some(row) => row,
            None => {
                out.fill(0);
                for &(q, code) in &term.letters {
                    let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
                    out[w] |= if code & 1 == 1 { bit } else { 0 };
                    out[words + w] |= if code & 2 == 2 { bit } else { 0 };
                }
                out
            }
        };
        // Read-off on the leading product state: every support qubit
        // must carry its stabilizing letter, and each contributes its
        // sign, a −1 being two `i`-powers.
        let (lx, rest) = self.product.split_at(words);
        let (lz, ls) = rest.split_at(words);
        let (x, z) = row.split_at(words);
        let mut off = 0;
        for w in 0..words {
            let supp = x[w] | z[w];
            off |= supp & ((x[w] ^ lx[w]) | (z[w] ^ lz[w]));
            acc.hi ^= supp & ls[w];
        }
        if off != 0 {
            return 0.0;
        }
        let phase = (phase + acc.total()) % 4;
        debug_assert_eq!(phase % 2, 0, "Hermitian term acquired an imaginary phase");
        if phase == 0 {
            1.0
        } else {
            -1.0
        }
    }
}
