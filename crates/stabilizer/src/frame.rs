//! Pauli-frame simulation: 64 noisy shots per machine word.
//!
//! For a Clifford circuit `C` under stochastic Pauli noise, the state of a
//! noisy shot is `F·C|0…0⟩` where the *frame* `F` is the product of that
//! shot's sampled error Paulis, each conjugated through the remainder of
//! the circuit. Conjugating a Pauli by a Clifford gate yields a Pauli, so
//! a frame is just two bits (x, z) per qubit per shot — and 64 shots pack
//! into one `u64` lane, letting a single circuit walk propagate 64
//! trajectories with XOR/swap word kernels.
//!
//! Frame *signs* are deliberately untracked: for expectation values only
//! commutation matters, because `⟨ψ|F†PF|ψ⟩ = ±⟨ψ|P|ψ⟩` with the sign −1
//! exactly when `F` anticommutes with `P`. The noisy estimate of a
//! Hamiltonian term is therefore the noiseless tableau expectation,
//! sign-flipped per shot by [`PauliFrames::flip_plane`] — the equivalence
//! argument behind [`crate::estimate_energy`], validated against the
//! per-shot tableau path by the `frame_equivalence` property suite.
//!
//! Frames are filled by [`crate::NoiseProgram`], which walks its compiled
//! gate kernels and hands each injection site's Bernoulli hit lists to
//! the crate-private `inject_*_hits` injectors. [`PauliFrames::inject`]
//! places one letter by hand.

use crate::noise::StabilizerNoise;
use crate::tableau::quarter_turns;
use eftq_circuit::{Angle, Circuit, Gate};
use eftq_numerics::words;
use eftq_pauli::{Pauli, PauliString};
use rand::Rng;

const WORD_BITS: usize = 64;

/// CX conjugation through `pairs` in order, on `w`-word qubit columns of
/// the X and Z planes: `fx[t] ^= fx[c]` and `fz[c] ^= fz[t]` per
/// `[c, t]` pair. Always inlined, so a call with a constant `w` compiles
/// to a straight run of word XORs per pair.
#[inline(always)]
fn cx_run(fx: &mut [u64], fz: &mut [u64], w: usize, pairs: &[[u32; 2]]) {
    for &[c, t] in pairs {
        let (c, t) = (c as usize * w, t as usize * w);
        for i in 0..w {
            fx[t + i] ^= fx[c + i];
            fz[c + i] ^= fz[t + i];
        }
    }
}

/// A batch of Pauli frames: one (x, z) Pauli per qubit per shot, packed
/// 64 shots to the `u64` lane.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliFrames {
    n: usize,
    shots: usize,
    /// Lane words per qubit: ⌈shots/64⌉. Bit `s` of lane word `w` belongs
    /// to shot `64w + s`; padding bits past `shots` stay zero.
    words: usize,
    /// X bit-lanes, qubit-major: qubit `q` is `fx[q*words..(q+1)*words]`.
    fx: Vec<u64>,
    /// Z bit-lanes, same layout.
    fz: Vec<u64>,
}

impl PauliFrames {
    /// `shots` identity frames over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shots == 0`.
    pub fn new(n: usize, shots: usize) -> Self {
        assert!(n > 0, "frames need at least one qubit");
        assert!(shots > 0, "frames need at least one shot");
        let words = shots.div_ceil(WORD_BITS);
        PauliFrames {
            n,
            shots,
            words,
            fx: vec![0; n * words],
            fz: vec![0; n * words],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of shots in the batch.
    pub fn num_shots(&self) -> usize {
        self.shots
    }

    /// Propagates the frames through one Clifford gate (conjugation,
    /// signs dropped). Measurements are ignored; Paulis commute with the
    /// frame up to sign and are no-ops.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford or symbolic rotations.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => self.kernel_hadamard(q),
            Gate::S(q) | Gate::Sdg(q) => self.kernel_phase(q),
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::Measure(_) => {}
            Gate::Cx(c, t) => self.kernel_cx_run(&[[c as u32, t as u32]]),
            Gate::Cz(a, b) => self.kernel_cz(a, b),
            Gate::Swap(a, b) => self.kernel_swap(a, b),
            Gate::Rz(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_phase(q);
                }
            }
            Gate::Rx(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_sqrt_x(q);
                }
            }
            Gate::Ry(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_hadamard(q);
                }
            }
            ref g => panic!("frames cannot apply gate {g}"),
        }
    }

    /// H-conjugation kernel: swaps the X and Z planes of `q` (also the
    /// action of an odd-quarter-turn `Ry`, sign-free).
    #[inline]
    pub(crate) fn kernel_hadamard(&mut self, q: usize) {
        let b = q * self.words;
        words::swap(
            &mut self.fx[b..b + self.words],
            &mut self.fz[b..b + self.words],
        );
    }

    /// S/S†-conjugation kernel: `fz ^= fx` on `q` (also odd `Rz`).
    #[inline]
    pub(crate) fn kernel_phase(&mut self, q: usize) {
        let b = q * self.words;
        words::xor_into(&mut self.fz[b..b + self.words], &self.fx[b..b + self.words]);
    }

    /// √X-conjugation kernel: `fx ^= fz` on `q` (odd `Rx`).
    #[inline]
    pub(crate) fn kernel_sqrt_x(&mut self, q: usize) {
        let b = q * self.words;
        words::xor_into(&mut self.fx[b..b + self.words], &self.fz[b..b + self.words]);
    }

    /// CX-conjugation kernel over a run of `[control, target]` pairs,
    /// applied in order. A batch of at most 256 shots has 1–4 lane words,
    /// and each of those widths runs its own copy of the body with the
    /// width a constant; wider frames run the same body at run-time width.
    pub(crate) fn kernel_cx_run(&mut self, pairs: &[[u32; 2]]) {
        let (fx, fz) = (&mut self.fx[..], &mut self.fz[..]);
        match self.words {
            1 => cx_run(fx, fz, 1, pairs),
            2 => cx_run(fx, fz, 2, pairs),
            3 => cx_run(fx, fz, 3, pairs),
            4 => cx_run(fx, fz, 4, pairs),
            w => cx_run(fx, fz, w, pairs),
        }
    }

    /// CZ-conjugation kernel.
    #[inline]
    pub(crate) fn kernel_cz(&mut self, a: usize, b: usize) {
        let (ba, bb) = (a * self.words, b * self.words);
        for w in 0..self.words {
            let xa = self.fx[ba + w];
            let xb = self.fx[bb + w];
            self.fz[bb + w] ^= xa;
            self.fz[ba + w] ^= xb;
        }
    }

    /// SWAP kernel: exchanges both planes of `a` and `b`.
    #[inline]
    pub(crate) fn kernel_swap(&mut self, a: usize, b: usize) {
        let (lo, hi) = (a.min(b) * self.words, a.max(b) * self.words);
        let (head, tail) = self.fx.split_at_mut(hi);
        words::swap(&mut head[lo..lo + self.words], &mut tail[..self.words]);
        let (head, tail) = self.fz.split_at_mut(hi);
        words::swap(&mut head[lo..lo + self.words], &mut tail[..self.words]);
    }

    /// Copies another frame batch into this one at `word_offset` lane
    /// words — the splice step that reassembles independently evaluated
    /// shot batches (see [`crate::program::NoiseProgram::run_threaded`]).
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if the source does not fit.
    pub(crate) fn splice_words(&mut self, word_offset: usize, src: &PauliFrames) {
        assert_eq!(src.n, self.n, "qubit count mismatch");
        assert!(
            word_offset + src.words <= self.words,
            "batch splice out of range"
        );
        for q in 0..self.n {
            let dst = q * self.words + word_offset;
            let s = q * src.words;
            self.fx[dst..dst + src.words].copy_from_slice(&src.fx[s..s + src.words]);
            self.fz[dst..dst + src.words].copy_from_slice(&src.fz[s..s + src.words]);
        }
    }

    /// XORs a sampled Pauli letter into shot `s` on qubit `q`.
    #[inline]
    pub fn inject(&mut self, q: usize, s: usize, letter: Pauli) {
        let idx = q * self.words + s / WORD_BITS;
        let bit = 1u64 << (s % WORD_BITS);
        if letter.x_bit() {
            self.fx[idx] ^= bit;
        }
        if letter.z_bit() {
            self.fz[idx] ^= bit;
        }
    }

    /// XORs single-qubit depolarizing errors into the hit lanes of one
    /// injection site. Each `(word, lane-mask)` pair receives a uniform
    /// X/Y/Z letter per set lane, chosen word-parallel by
    /// `uniform_nonzero_pair`. Pairs arrive in ascending word order with
    /// non-empty masks, the shape
    /// [`eftq_numerics::BernoulliWords::hit_site_runs`] hands to
    /// [`crate::NoiseProgram`], so a site with no hits costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if a pair's word index is out of range.
    pub(crate) fn inject_depolarizing_hits<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        hits: &[(u32, u64)],
        rng: &mut R,
    ) {
        let b = q * self.words;
        for &(w, h) in hits {
            let w = w as usize;
            assert!(w < self.words, "hit word {w} out of range");
            let (x, z) = uniform_nonzero_pair(h, rng);
            self.fx[b + w] ^= x;
            self.fz[b + w] ^= z;
        }
    }

    /// Two-qubit form of [`PauliFrames::inject_depolarizing_hits`]: every
    /// hit lane receives a uniform non-identity two-qubit Pauli (four
    /// random words, `(0,0,0,0)` lanes redrawn).
    ///
    /// # Panics
    ///
    /// Panics if a pair's word index is out of range.
    pub(crate) fn inject_depolarizing_2q_hits<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        hits: &[(u32, u64)],
        rng: &mut R,
    ) {
        let (ba, bb) = (a * self.words, b * self.words);
        for &(w, h) in hits {
            let w = w as usize;
            assert!(w < self.words, "hit word {w} out of range");
            let mut xa = rng.gen::<u64>() & h;
            let mut za = rng.gen::<u64>() & h;
            let mut xb = rng.gen::<u64>() & h;
            let mut zb = rng.gen::<u64>() & h;
            let mut bad = h & !(xa | za | xb | zb);
            while bad != 0 {
                xa |= bad & rng.gen::<u64>();
                za |= bad & rng.gen::<u64>();
                xb |= bad & rng.gen::<u64>();
                zb |= bad & rng.gen::<u64>();
                bad &= !(xa | za | xb | zb);
            }
            self.fx[ba + w] ^= xa;
            self.fz[ba + w] ^= za;
            self.fx[bb + w] ^= xb;
            self.fz[bb + w] ^= zb;
        }
    }

    /// Twirled-idle form of [`PauliFrames::inject_depolarizing_hits`]:
    /// one ladder-conditional letter per hit lane, drawn in ascending
    /// shot order (the hit lists already encode the Bernoulli(`total`)
    /// outcome).
    ///
    /// # Panics
    ///
    /// Panics if a pair's word index is out of range.
    pub(crate) fn inject_idle_hits<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        hits: &[(u32, u64)],
        ladder: &crate::noise::IdleLadder,
        rng: &mut R,
    ) {
        for &(w, h) in hits {
            let w = w as usize;
            assert!(w < self.words, "hit word {w} out of range");
            let mut bits = h;
            while bits != 0 {
                let s = w * WORD_BITS + bits.trailing_zeros() as usize;
                self.inject(q, s, ladder.conditional_letter(rng));
                bits &= bits - 1;
            }
        }
    }

    /// One bit per shot: set iff that shot's frame anticommutes with `p`
    /// (i.e. the shot's expectation of `p` is sign-flipped). Word-parallel:
    /// `O(weight(p) · shots/64)`.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn flip_plane(&self, p: &PauliString) -> Vec<u64> {
        let mut acc = vec![0u64; self.words];
        self.flip_plane_into(p, &mut acc);
        acc
    }

    /// [`PauliFrames::flip_plane`] into a caller-owned buffer (cleared
    /// first), so per-term loops over large observables reuse one
    /// allocation. Only `p`'s support columns are read.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a short buffer.
    pub fn flip_plane_into(&self, p: &PauliString, acc: &mut [u64]) {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        assert!(acc.len() >= self.words, "flip-plane buffer too short");
        let wl = self.words;
        acc.fill(0);
        for q in p.support() {
            let letter = p.pauli_at(q);
            if letter.z_bit() {
                for (a, &x) in acc.iter_mut().zip(&self.fx[q * wl..(q + 1) * wl]) {
                    *a ^= x;
                }
            }
            if letter.x_bit() {
                for (a, &z) in acc.iter_mut().zip(&self.fz[q * wl..(q + 1) * wl]) {
                    *a ^= z;
                }
            }
        }
    }

    /// Number of shots whose frame anticommutes with `p`.
    pub fn flip_count(&self, p: &PauliString) -> usize {
        self.flip_plane(p)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Extracts shot `s`'s frame as a (sign-free) Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shots()`.
    pub fn frame(&self, s: usize) -> PauliString {
        assert!(s < self.shots, "shot {s} out of range");
        let (w, b) = (s / WORD_BITS, s % WORD_BITS);
        PauliString::from_paulis((0..self.n).map(|q| {
            Pauli::from_bits(
                self.fx[q * self.words + w] >> b & 1 == 1,
                self.fz[q * self.words + w] >> b & 1 == 1,
            )
        }))
    }
}

/// Word-parallel uniform draw over the three non-identity `(x, z)` letter
/// pairs, restricted to the lanes of `h`: `(0, 0)` lanes are redrawn
/// until none remain (each round keeps 3 of 4 candidates, so the loop
/// terminates geometrically fast).
#[inline]
fn uniform_nonzero_pair<R: Rng + ?Sized>(h: u64, rng: &mut R) -> (u64, u64) {
    let mut x = rng.gen::<u64>() & h;
    let mut z = rng.gen::<u64>() & h;
    let mut bad = h & !(x | z);
    while bad != 0 {
        x |= bad & rng.gen::<u64>();
        z |= bad & rng.gen::<u64>();
        bad &= !(x | z);
    }
    (x, z)
}

/// Propagates `shots` Pauli frames through a bound Clifford circuit under
/// the given noise model, using the compiled batched sampler: the circuit
/// and noise model are flattened into a [`crate::program::NoiseProgram`]
/// once, then injection sites draw Bernoulli hit words instead of one
/// RNG call per (gate, shot) pair. Shot batches derive their RNG streams
/// from `seed` and their batch index, so the result is deterministic and
/// identical to the threaded runner at any worker count.
///
/// Statistically equivalent to the per-call sampler
/// `reference::run_noisy_frames_percall` that the equivalence suite
/// checks against.
pub fn run_noisy_frames(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    shots: usize,
    seed: eftq_numerics::SeedSequence,
) -> PauliFrames {
    crate::program::NoiseProgram::compile(circuit, noise).run(shots, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::TwirledIdle;
    use crate::reference::{inject_depolarizing, inject_depolarizing_2q, inject_idle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pauli(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn identity_frames_never_flip() {
        let f = PauliFrames::new(3, 100);
        assert_eq!(f.flip_count(&pauli("XYZ")), 0);
        assert_eq!(f.num_shots(), 100);
        assert_eq!(f.num_qubits(), 3);
    }

    #[test]
    fn injected_error_propagates_through_cx() {
        // X on the control before a CX becomes XX after it: anticommutes
        // with ZI and IZ, commutes with XX and ZZ.
        let mut f = PauliFrames::new(2, 64);
        for s in 0..64 {
            f.inject(0, s, Pauli::X);
        }
        f.apply_gate(&Gate::Cx(0, 1));
        assert_eq!(f.flip_count(&pauli("ZI")), 64);
        assert_eq!(f.flip_count(&pauli("IZ")), 64);
        assert_eq!(f.flip_count(&pauli("XX")), 0);
        assert_eq!(f.flip_count(&pauli("ZZ")), 0);
        assert_eq!(f.frame(17), pauli("XX"));
    }

    #[test]
    fn hadamard_exchanges_frame_letters() {
        let mut f = PauliFrames::new(1, 1);
        f.inject(0, 0, Pauli::X);
        f.apply_gate(&Gate::H(0));
        assert_eq!(f.frame(0), pauli("Z"));
        f.apply_gate(&Gate::H(0));
        assert_eq!(f.frame(0), pauli("X"));
    }

    #[test]
    fn phase_gates_turn_x_into_y() {
        let mut f = PauliFrames::new(1, 1);
        f.inject(0, 0, Pauli::X);
        f.apply_gate(&Gate::S(0));
        assert_eq!(f.frame(0), pauli("Y"));
        // S† also maps X ↔ ±Y; sign-free frames coincide.
        f.apply_gate(&Gate::Sdg(0));
        assert_eq!(f.frame(0), pauli("X"));
    }

    #[test]
    fn pauli_gates_leave_frames_unchanged() {
        let mut f = PauliFrames::new(2, 64);
        for s in 0..64 {
            f.inject(0, s, Pauli::Y);
        }
        let before = f.clone();
        f.apply_gate(&Gate::X(0));
        f.apply_gate(&Gate::Z(1));
        f.apply_gate(&Gate::Y(0));
        assert_eq!(f, before);
    }

    #[test]
    fn certain_depolarizing_hits_every_shot() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut f = PauliFrames::new(1, 130);
        inject_depolarizing(&mut f, 0, 1.0, &mut rng);
        // Every shot has a non-identity letter: it anticommutes with at
        // least one of X, Z — and X+Z flip counts total ≥ shots.
        let fx = f.flip_count(&pauli("Z"));
        let fz = f.flip_count(&pauli("X"));
        assert!(fx + fz >= 130, "{fx} + {fz}");
        for s in 0..130 {
            assert!(!f.frame(s).is_identity(), "shot {s}");
        }
    }

    #[test]
    fn padding_bits_stay_clear_for_ragged_shot_counts() {
        // 65 shots spans two lane words with 63 padding bits.
        let mut rng = StdRng::seed_from_u64(9);
        let mut f = PauliFrames::new(2, 65);
        inject_depolarizing(&mut f, 0, 1.0, &mut rng);
        inject_depolarizing_2q(&mut f, 0, 1, 0.7, &mut rng);
        f.apply_gate(&Gate::H(0));
        f.apply_gate(&Gate::Cx(0, 1));
        for p in ["ZI", "IZ", "XX", "YY", "XI"] {
            assert!(f.flip_count(&pauli(p)) <= 65, "{p}");
        }
        let plane = f.flip_plane(&pauli("ZI"));
        assert_eq!(plane[1] & !1, 0, "padding bits must stay zero");
    }

    #[test]
    fn single_shot_batch_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut f = PauliFrames::new(3, 1);
        inject_depolarizing(&mut f, 1, 1.0, &mut rng);
        assert!(!f.frame(0).is_identity());
        assert_eq!(f.frame(0).pauli_at(0), Pauli::I);
        assert_eq!(f.frame(0).pauli_at(2), Pauli::I);
    }

    #[test]
    fn idle_injection_rate_tracks_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut f = PauliFrames::new(1, 6400);
        let idle = TwirledIdle {
            px: 0.25,
            py: 0.0,
            pz: 0.0,
        };
        inject_idle(&mut f, 0, &idle, &mut rng);
        // Only X errors: flip ⟨Z⟩ on ~25% of shots.
        let flips = f.flip_count(&pauli("Z"));
        assert_eq!(f.flip_count(&pauli("X")), 0);
        let frac = flips as f64 / 6400.0;
        assert!((frac - 0.25).abs() < 0.03, "{frac}");
    }

    #[test]
    fn swap_exchanges_frame_columns() {
        let mut f = PauliFrames::new(2, 70);
        for s in 0..70 {
            f.inject(0, s, Pauli::X);
        }
        f.inject(1, 3, Pauli::Z);
        f.apply_gate(&Gate::Swap(0, 1));
        assert_eq!(f.frame(0), pauli("IX"));
        assert_eq!(f.frame(3), pauli("ZX"));
        assert_eq!(f.flip_count(&pauli("IZ")), 70);
        assert_eq!(f.flip_count(&pauli("XI")), 1);
    }

    #[test]
    fn rotation_propagation_matches_gate_decomposition() {
        use std::f64::consts::FRAC_PI_2;
        // Rz(π/2) acts on frames as S; Rx(π/2) maps Z-frames onto Y.
        let mut a = PauliFrames::new(1, 2);
        a.inject(0, 0, Pauli::X);
        a.inject(0, 1, Pauli::Z);
        let mut b = a.clone();
        a.apply_gate(&Gate::Rz(0, Angle::Value(FRAC_PI_2)));
        b.apply_gate(&Gate::S(0));
        assert_eq!(a, b);
        let mut c = PauliFrames::new(1, 1);
        c.inject(0, 0, Pauli::Z);
        c.apply_gate(&Gate::Rx(0, Angle::Value(FRAC_PI_2)));
        assert_eq!(c.frame(0), pauli("Y"));
        // Full-turn rotations are Paulis: no frame change.
        let mut d = PauliFrames::new(1, 1);
        d.inject(0, 0, Pauli::X);
        d.apply_gate(&Gate::Ry(0, Angle::Value(std::f64::consts::PI)));
        assert_eq!(d.frame(0), pauli("X"));
    }

    #[test]
    fn cx_run_equals_gate_by_gate_at_every_lane_width() {
        // 1–5 lane words: the four specialized widths, ragged tails and
        // the run-time-width body. Pairs repeat and point both ways.
        let n = 7;
        let pairs: Vec<[u32; 2]> = vec![
            [0, 1],
            [3, 2],
            [0, 1],
            [6, 0],
            [2, 5],
            [5, 2],
            [1, 4],
            [1, 4],
            [4, 6],
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for shots in [1usize, 64, 65, 129, 193, 256, 300] {
            let mut start = PauliFrames::new(n, shots);
            let tail = match shots % WORD_BITS {
                0 => !0,
                r => (1u64 << r) - 1,
            };
            for (i, w) in start.fx.iter_mut().chain(start.fz.iter_mut()).enumerate() {
                let last = i % start.words == start.words - 1;
                *w = rng.gen::<u64>() & if last { tail } else { !0 };
            }
            let mut fused = start.clone();
            fused.kernel_cx_run(&pairs);
            let mut stepped = start.clone();
            for &[c, t] in &pairs {
                stepped.apply_gate(&Gate::Cx(c as usize, t as usize));
            }
            assert_eq!(fused, stepped, "{shots} shots");
            assert_ne!(fused, start, "{shots} shots: the run must act");
            // And both equal CX conjugation letter by letter.
            for s in 0..shots {
                let f = start.frame(s);
                let mut letters: Vec<Pauli> = (0..n).map(|q| f.pauli_at(q)).collect();
                for &[c, t] in &pairs {
                    let (lc, lt) = (letters[c as usize], letters[t as usize]);
                    letters[t as usize] = Pauli::from_bits(lt.x_bit() ^ lc.x_bit(), lt.z_bit());
                    letters[c as usize] = Pauli::from_bits(lc.x_bit(), lc.z_bit() ^ lt.z_bit());
                }
                let want = PauliString::from_paulis(letters);
                assert_eq!(fused.frame(s), want, "{shots} shots, shot {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-Clifford rotation")]
    fn non_clifford_rotation_rejected() {
        let mut f = PauliFrames::new(1, 1);
        f.apply_gate(&Gate::Rz(0, Angle::Value(0.4)));
    }
}
