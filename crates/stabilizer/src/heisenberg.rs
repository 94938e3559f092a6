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
//! 1. **Compile** (once per ansatz): split the circuit into maximal runs
//!    of symbolic rotations and maximal runs of fixed gates. For every
//!    fixed run `B`, store the phase-tracked rows `B†PB` for
//!    `P ∈ {X_q, Y_q, Z_q}` — a Clifford conjugates a product of Paulis
//!    into the product of their images, so these `3n` rows determine
//!    `B†PB` for every `P`.
//! 2. **Bind** (once per genome, `O(n)`): resolve each rotation run into
//!    a signed single-qubit letter map per qubit, and the leading run
//!    into the product state it prepares on `|0…0⟩`, kept as three
//!    masks: the stabilizing letter of every qubit and its sign.
//! 3. **Evaluate** (per term): propagate the term backwards through the
//!    runs. Its letters pass through the letter maps; at a fixed run it
//!    becomes the phase-tracked product of that run's rows over its
//!    current support; at the front, a word-parallel read-off gives the
//!    value: 0 unless every qubit carries `I` or its product-state
//!    letter, otherwise the accumulated sign.
//!
//! On a depth-1 ansatz (rotations, entangler, rotations) a term of
//! weight `w` costs `O(w · n/64)`, with no circuit, no tableau and no
//! per-term walk over all generator rows.
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
//! use eftq_stabilizer::{HeisenbergEvaluator, Tableau};
//!
//! let ansatz = fully_connected_hea(5, 1);
//! let evaluator = HeisenbergEvaluator::compile(ansatz.circuit());
//! let genome: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
//! let bound = evaluator.bind_clifford(&genome);
//!
//! let mut t = Tableau::new(5);
//! t.run(&ansatz.bind_clifford(&genome));
//! for p in ["ZZIII", "IXXII", "YIIIY", "-IIZIZ"] {
//!     let p = p.parse().unwrap();
//!     assert_eq!(bound.expectation(&p), t.expectation(&p));
//! }
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

/// Multiplies the row `a = [x | z]` by `b` on the right in place and
/// returns the `i`-power the product picks up (the per-site rule of
/// [`PauliString::mul`]).
fn mul_assign(a: &mut [u64], b: &[u64], words: usize) -> u8 {
    let (ax, az) = a.split_at_mut(words);
    let (bx, bz) = b.split_at(words);
    let (mut plus, mut minus) = (0u32, 0u32);
    for i in 0..words {
        let (x1, z1, x2, z2) = (ax[i], az[i], bx[i], bz[i]);
        let p = (x1 & !z1 & x2 & z2) | (x1 & z1 & !x2 & z2) | (!x1 & z1 & x2 & !z2);
        let m = (x1 & !z1 & !x2 & z2) | (x1 & z1 & x2 & !z2) | (!x1 & z1 & x2 & z2);
        plus += p.count_ones();
        minus += m.count_ones();
        ax[i] = x1 ^ x2;
        az[i] = z1 ^ z2;
    }
    ((plus + 3 * minus) % 4) as u8
}

/// The letters of a row `[x | z]` as `(qubit, symplectic code)`, by
/// ascending qubit.
fn letters(row: &[u64], words: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let (x, z) = row.split_at(words);
    x.iter().zip(z).enumerate().flat_map(|(w, (&xw, &zw))| {
        let mut bits = xw | zw;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let code = (xw >> b & 1) | (zw >> b & 1) << 1;
                (w * WORD_BITS + b as usize, code as usize)
            })
        })
    })
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
        let delta = mul_assign(d, s, self.words);
        self.phase[dst] = (self.phase[dst] + self.phase[src] + delta) % 4;
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
            let out = &mut rows[3 * q * stride..3 * (q + 1) * stride];
            out[..stride].copy_from_slice(rx);
            out[stride..2 * stride].copy_from_slice(rz);
            out[2 * stride..].copy_from_slice(rx);
            let delta = mul_assign(&mut out[2 * stride..], rz, self.words);
            let (px, pz) = (self.phase[2 * q], self.phase[2 * q + 1]);
            phase[3 * q] = px;
            phase[3 * q + 1] = pz;
            phase[3 * q + 2] = (px + pz + delta + 1) % 4;
        }
        FixedRun { rows, phase }
    }
}

/// One stage of the compiled circuit.
#[derive(Clone, Debug)]
enum Run {
    /// Symbolic rotations, in circuit order.
    Rotations(Vec<Rotation>),
    /// A genome-independent Clifford.
    Fixed(FixedRun),
}

/// A symbolic Clifford ansatz compiled for Heisenberg-picture
/// expectations: the genome-independent gates are folded into
/// conjugation tables once, and each genome only resolves its
/// rotations. See the [module docs](self) for the algorithm.
///
/// Compile once per ansatz structure and share across threads (it is
/// plain data); [`HeisenbergEvaluator::bind_clifford`] is the
/// per-genome step.
#[derive(Clone, Debug)]
pub struct HeisenbergEvaluator {
    n: usize,
    words: usize,
    num_params: usize,
    runs: Vec<Run>,
    /// Letter maps of `R(k·π/2)` per axis and `k`.
    rotation_maps: [[LetterMap; 4]; 3],
}

impl HeisenbergEvaluator {
    /// Compiles a (possibly symbolic) Clifford circuit. Symbolic
    /// rotations stay symbolic; every other gate — including bound
    /// quarter-turn rotations — is folded into its run's conjugation
    /// table. Measurements are skipped, as [`crate::Tableau::run`]
    /// skips them.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates or bound rotations that are not
    /// multiples of π/2.
    pub fn compile(circuit: &Circuit) -> HeisenbergEvaluator {
        let n = circuit.num_qubits();
        let words = n.div_ceil(WORD_BITS);
        let mut runs = Vec::new();
        let mut rotations = Vec::new();
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
                    runs.push(Run::Fixed(images.finish()));
                }
                rotations.push(Rotation { q, param, axis });
                continue;
            }
            prims.clear();
            primitives(g, &mut prims);
            if prims.is_empty() {
                continue;
            }
            if !rotations.is_empty() {
                runs.push(Run::Rotations(std::mem::take(&mut rotations)));
            }
            let images = fixed.get_or_insert_with(|| Images::identity(n, words));
            for &p in &prims {
                images.push(p);
            }
        }
        if let Some(images) = fixed {
            runs.push(Run::Fixed(images.finish()));
        }
        if !rotations.is_empty() {
            runs.push(Run::Rotations(rotations));
        }
        HeisenbergEvaluator {
            n,
            words,
            num_params: circuit.num_symbolic_params(),
            runs,
            rotation_maps: rotation_maps(),
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
        // Product-state masks [letter x | letter z | sign]: |0…0⟩ is
        // stabilized by +Z on every qubit.
        let mut product = vec![0u64; 3 * words];
        for q in 0..n {
            product[words + q / WORD_BITS] |= 1 << (q % WORD_BITS);
        }
        let mut maps = Vec::new();
        for (i, run) in self.runs.iter().enumerate() {
            let Run::Rotations(rotations) = run else {
                continue;
            };
            let start = maps.len();
            maps.resize(start + n, IDENTITY_MAP);
            for r in rotations {
                let m = &mut maps[start + r.q];
                *m = then(
                    *m,
                    self.rotation_maps[r.axis][usize::from(genome[r.param] % 4)],
                );
            }
            if i > 0 {
                continue;
            }
            // The leading run prepares a product state: qubit q is
            // stabilized by the letter its map sends to ±Z.
            for (q, m) in maps.drain(start..).enumerate() {
                let c = (1..4)
                    .find(|&c| m[c] & 3 == 2)
                    .expect("a Clifford maps one letter to ±Z");
                let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
                product[w] |= if c & 1 == 1 { bit } else { 0 };
                product[words + w] &= if c & 2 == 2 { !0 } else { !bit };
                product[2 * words + w] |= if m[c] & NEG != 0 { bit } else { 0 };
            }
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
    /// `n` letter maps per non-leading rotation run, in run order.
    maps: Vec<LetterMap>,
    /// The leading product state: X-letter, Z-letter and sign masks.
    product: Vec<u64>,
}

/// Per-term working rows: the propagated term and the product under
/// construction, each `[x | z]`.
struct Scratch {
    term: Vec<u64>,
    acc: Vec<u64>,
}

impl BoundEvaluator<'_> {
    /// Expectation value of a Hermitian Pauli string on the bound state:
    /// exactly [`crate::Tableau::expectation`] on the bound circuit.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a non-Hermitian phase.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        self.value(p, &mut self.scratch())
    }

    /// Writes `⟨P_k⟩` for every term of `observable` into `out`, in term
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if `out.len()` differs from the
    /// term count.
    pub fn expectations(&self, observable: &PauliSum, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            observable.num_terms(),
            "output slice size mismatch"
        );
        let mut scratch = self.scratch();
        for (o, term) in out.iter_mut().zip(observable.terms()) {
            *o = self.value(&term.string, &mut scratch);
        }
    }

    /// Noisy energy estimate of the bound state: these noiseless
    /// expectations fed through `program`'s Pauli frames. Bit-identical
    /// to [`crate::estimate_energy_program`] on the bound circuit with
    /// the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or the observable/program sizes mismatch.
    pub fn estimate_energy(
        &self,
        observable: &PauliSum,
        program: &NoiseProgram,
        meas_flip: f64,
        shots: usize,
        seed: SeedSequence,
        threads: usize,
    ) -> NoisyCliffordRun {
        assert_eq!(
            program.num_qubits(),
            self.evaluator.n,
            "evaluator/program size mismatch"
        );
        let mut e0s = vec![0.0; observable.num_terms()];
        self.expectations(observable, &mut e0s);
        accumulate_energy(observable, &e0s, program, meas_flip, shots, seed, threads)
    }

    fn scratch(&self) -> Scratch {
        let stride = 2 * self.evaluator.words;
        Scratch {
            term: vec![0; stride],
            acc: vec![0; stride],
        }
    }

    fn value(&self, p: &PauliString, s: &mut Scratch) -> f64 {
        let ev = self.evaluator;
        let (n, words) = (ev.n, ev.words);
        assert_eq!(p.num_qubits(), n, "pauli size mismatch");
        assert!(p.is_hermitian(), "expectation needs a Hermitian Pauli");
        s.term.fill(0);
        for q in p.support() {
            let letter = p.pauli_at(q);
            let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            if letter.x_bit() {
                s.term[w] |= bit;
            }
            if letter.z_bit() {
                s.term[words + w] |= bit;
            }
        }
        let mut phase = p.phase_exponent();
        let mut maps_end = self.maps.len();
        let stride = 2 * words;
        for (i, run) in ev.runs.iter().enumerate().rev() {
            if i == 0 && matches!(run, Run::Rotations(_)) {
                break; // the leading rotations are read off below
            }
            // Each stage maps every letter of the term to a signed letter
            // (rotations) or a phase-tracked row (fixed runs); the image
            // is their product, built in `acc`.
            s.acc.fill(0);
            match run {
                Run::Rotations(_) => {
                    maps_end -= n;
                    let maps = &self.maps[maps_end..maps_end + n];
                    for (q, code) in letters(&s.term, words) {
                        let img = maps[q][code];
                        let (w, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
                        s.acc[w] |= if img & 1 == 1 { bit } else { 0 };
                        s.acc[words + w] |= if img & 2 == 2 { bit } else { 0 };
                        phase = (phase + (img & NEG) / 2) % 4;
                    }
                }
                Run::Fixed(run) => {
                    for (q, code) in letters(&s.term, words) {
                        let r = 3 * q + code - 1;
                        let delta =
                            mul_assign(&mut s.acc, &run.rows[r * stride..][..stride], words);
                        phase = (phase + run.phase[r] + delta) % 4;
                    }
                }
            }
            std::mem::swap(&mut s.term, &mut s.acc);
        }
        // Read-off on the leading product state: every support qubit
        // must carry its stabilizing letter, each contributing its sign.
        let (lx, rest) = self.product.split_at(words);
        let (lz, ls) = rest.split_at(words);
        let (x, z) = s.term.split_at(words);
        let mut negatives = 0u32;
        for w in 0..words {
            let supp = x[w] | z[w];
            if supp & ((x[w] ^ lx[w]) | (z[w] ^ lz[w])) != 0 {
                return 0.0;
            }
            negatives += (supp & ls[w]).count_ones();
        }
        debug_assert_eq!(phase % 2, 0, "Hermitian term acquired an imaginary phase");
        if (u32::from(phase) / 2 + negatives) % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}
