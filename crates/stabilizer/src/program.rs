//! Compiled noise programs: the batched sampling engine behind
//! [`crate::estimate_energy`].
//!
//! A noisy frame run has two very different cost centres: *propagating*
//! frames through gates (word-parallel since the column-major tableau
//! rework) and *sampling* which shots an error hits (previously one
//! `rng.gen_bool(p)` per (gate, shot) pair — the dominant cost at NISQ
//! rates). [`NoiseProgram`] removes the per-shot draws by compiling a
//! [`Circuit`] + [`StabilizerNoise`] once into a flat instruction list —
//! gates interleaved with *injection sites* `(qubits, kind, probability)`
//! — and then executing sites with [`BernoulliWords`]:
//!
//! * sites are grouped into **probability classes**; each class owns one
//!   sampler whose geometric-skip cursor runs through the flat
//!   `(site × shot)` bit-grid, so a sparse class costs one logarithm per
//!   **hit** rather than one RNG draw per trial;
//! * a site's hits arrive as `(word, lane-mask)` hit lists, and the
//!   frame injectors XOR error letters drawn word-parallel into the hit
//!   lanes of the frame planes;
//! * consecutive same-class sites are fused at compile time into **site
//!   runs** executed by [`BernoulliWords::hit_site_runs`]: within a
//!   layer, gate kernels are emitted before injection sites (legal
//!   because a layer's gates act on disjoint qubits, so kernels and
//!   other gates' sites commute; site order — and therefore the RNG
//!   stream — is unchanged), which makes a layer's two-qubit sites and
//!   its idle sites contiguous. A run the geometric cursor skips
//!   entirely costs one division instead of one cursor update per site;
//! * consecutive CX kernels are fused the same way into **CX runs**, so
//!   the walk dispatches once per run and then XORs word columns pair
//!   by pair. Under NISQ noise the 4 950 CNOTs of a 100-qubit FCHE
//!   entangler form one run per circuit layer, separated by that
//!   layer's site runs; with no sites they form a single run.
//!
//! # Sampling apart from propagation
//!
//! A batch's draws depend on the template's site runs, probability
//! classes and idle ladder, the shot count and the seed, never on the
//! genome: [`NoiseTemplate::bind_clifford`] changes only which rotation
//! kernels the walk applies. So the faults can be sampled apart from the
//! walk, as Stim's frame simulator separates them (Gidney, *Stim: a fast
//! stabilizer circuit simulator*, Quantum 5, 497, 2021). One draw body
//! draws a site run's hits and letters and hands every hit word to a
//! sink, and one walk body applies the kernels and hands every site run
//! to its injection source:
//!
//! * [`NoiseProgram::run_threaded`] draws each site run's faults in place,
//!   straight into the frames, when the walk reaches it: a seed used
//!   once (a re-evaluation) is cheapest drawn where it lands;
//! * [`NoiseTemplate::sample_faults`] runs only the draws and records
//!   every hit word as a `(qubit, lane word, x, z)` XOR at its site run,
//!   a [`FaultTape`]; [`NoiseProgram::run_faults`] walks the kernels of
//!   any program bound from that template and XORs the recorded words
//!   where their site runs stand. A genetic search scores every genome
//!   under one shot seed, so it samples once and replays per group of
//!   genomes (below).
//!
//! Both give the same frames bit for bit: the tape holds exactly the
//! words the in-place draw XORs, at the same op, and no kernel sits
//! between the sites of one run.
//!
//! # Genomes side by side
//!
//! A search's genomes replay the same tape and differ only in which
//! rotation kernels fire, so at `width ≤ 32` shots several of them share
//! one lane word exactly, as Stim fills its SIMD lanes with shots.
//! [`NoiseTemplate::bind_lanes`] binds up to `⌊64/width⌋` genomes into one
//! program, genome `g` in lanes `g·width .. (g+1)·width`: each symbolic
//! rotation carries a lane mask and applies its kernel in those lanes
//! only, and [`NoiseProgram::run_faults`] copies every tape word into
//! each lane group. One walk and one replay then serve the whole group,
//! and each group's lanes hold the frames its genome's own program
//! replays, bit for bit.
//!
//! # Batching and seeding
//!
//! Shots are sharded into fixed 256-shot batches ([`BATCH_SHOTS`]). Batch
//! `b` seeds its RNG as `seed.derive_index(b)`, so every batch's content
//! is a pure function of the root seed and its index — results are
//! bit-identical whether batches run sequentially, on any number of
//! [`NoiseProgram::run_threaded`] crossbeam workers or from a fault
//! tape, and independent of how the scheduler interleaves them. The batch size is a compromise:
//! small enough that modest shot budgets split across workers, large
//! enough that the per-batch circuit walk and sampler setup amortize.

use crate::frame::PauliFrames;
use crate::noise::{IdleLadder, StabilizerNoise};
use crossbeam::thread;
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{BernoulliWords, SeedSequence};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Shots per batch: the unit of seed derivation and thread scheduling
/// (four 64-shot lane words).
pub const BATCH_SHOTS: usize = 256;

const WORD_BITS: usize = 64;
const BATCH_WORDS: usize = BATCH_SHOTS / WORD_BITS;

/// One compiled instruction: a frame kernel, a run of CX kernels or a
/// run of injection sites.
///
/// Gates are pre-classified into their conjugation kernels at compile
/// time — rotation angles resolve to quarter-turn parities *once*, so the
/// per-batch walk never touches floating point or re-matches `Gate`
/// variants, and frame-identity gates (Paulis, even rotations) compile
/// away entirely. Consecutive CX kernels are fused into one run of
/// `len` pairs, and injection sites into runs of `len` consecutive
/// same-kind, same-class sites; a run's per-entry qubit arguments (a
/// CX's `[c, t]`, a site's qubits) live in the side table
/// `args[start .. start + len]`.
///
/// Fields are `u32` (qubit counts and site counts both fit comfortably)
/// so an op is 16 bytes and the per-batch walk stays cache-resident.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Swap the X/Z planes of `q` (H, odd `Ry`).
    Hadamard { q: u32 },
    /// `fz ^= fx` on `q` (S, S†, odd `Rz`).
    Phase { q: u32 },
    /// `fx ^= fz` on `q` (odd `Rx`).
    SqrtX { q: u32 },
    /// Run of CX conjugations, one `[c, t]` pair per entry, in order.
    CxRun { start: u32, len: u32 },
    /// CZ conjugation.
    Cz { a: u32, b: u32 },
    /// SWAP conjugation.
    Swap { a: u32, b: u32 },
    /// Run of injection sites of one kind and probability class.
    Sites(SiteRun),
}

/// What an injection site draws per hit.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SiteKind {
    /// Single-qubit depolarizing: a uniform X/Y/Z letter.
    Depol1,
    /// Two-qubit depolarizing: a uniform non-identity pair.
    Depol2,
    /// Twirled idle: a ladder-conditional letter.
    Idle,
}

/// A run of `len` consecutive injection sites of one kind and one
/// probability class `class`, their qubits at `args[start .. start + len]`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct SiteRun {
    kind: SiteKind,
    class: u32,
    start: u32,
    len: u32,
}

/// Run flavour, used only while fusing CX kernels and sites into runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RunKind {
    Cx,
    Sites(SiteKind),
}

impl Op {
    /// A run op's kind, class (0 for CX runs) and length.
    fn run_mut(&mut self) -> Option<(RunKind, u32, &mut u32)> {
        match self {
            Op::CxRun { len, .. } => Some((RunKind::Cx, 0, len)),
            Op::Sites(run) => Some((RunKind::Sites(run.kind), run.class, &mut run.len)),
            _ => None,
        }
    }
}

/// Appends one entry to the argument table and fuses it into the last
/// op when that op is a run of the same kind and class (it then ends at
/// this entry: only this function grows the table); otherwise opens a
/// new one-entry run. CX runs pass class 0.
fn push_run(
    ops: &mut Vec<TemplateOp>,
    args: &mut Vec<[u32; 2]>,
    kind: RunKind,
    class: u32,
    arg: [u32; 2],
) {
    let idx = args.len() as u32;
    args.push(arg);
    if let Some(TemplateOp::Fixed(last)) = ops.last_mut() {
        if let Some((k, c, len)) = last.run_mut() {
            if (k, c) == (kind, class) {
                *len += 1;
                return;
            }
        }
    }
    let (start, len) = (idx, 1);
    ops.push(TemplateOp::Fixed(match kind {
        RunKind::Cx => Op::CxRun { start, len },
        RunKind::Sites(kind) => Op::Sites(SiteRun {
            kind,
            class,
            start,
            len,
        }),
    }));
}

/// Rotation axis of a symbolic (parameterized) rotation gate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RotAxis {
    X,
    Y,
    Z,
}

/// One template instruction: either an already-resolved [`Op`], or a
/// symbolic rotation whose kernel depends on the genome bound later.
///
/// `Rot` stays in the instruction stream after binding — the bound
/// program carries one lane mask per parameter, the frame lanes whose
/// genome turns it by an odd number of quarter turns, and the batch walk
/// applies the rotation's kernel in those lanes (and skips it when none
/// are set). That keeps [`NoiseTemplate::bind_clifford`] and
/// [`NoiseTemplate::bind_lanes`] copy-free on the op list (an `Arc` bump
/// instead of a filtered copy), which matters in genome loops that bind
/// thousands of programs per second.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TemplateOp {
    Fixed(Op),
    Rot { q: u32, param: u32, axis: RotAxis },
}

/// Classifies one bound non-CX gate into its frame kernel (`None` when
/// the gate acts trivially on sign-free frames: Paulis, measurements,
/// and even-quarter-turn rotations; `Rot` for symbolic rotations,
/// resolved at [`NoiseTemplate::bind_clifford`] time). CX kernels are
/// fused into runs by [`push_run`] instead.
///
/// # Panics
///
/// Panics on non-Clifford rotations, exactly as
/// [`PauliFrames::apply_gate`] would.
fn compile_gate(g: &Gate) -> Option<TemplateOp> {
    use crate::tableau::quarter_turns;
    use eftq_circuit::Angle;
    let odd = |v: f64| quarter_turns(v, g) % 2 == 1;
    let rot = |q: usize, param: usize, axis| {
        Some(TemplateOp::Rot {
            q: q as u32,
            param: param as u32,
            axis,
        })
    };
    match *g {
        Gate::H(q) => Some(TemplateOp::Fixed(Op::Hadamard { q: q as u32 })),
        Gate::S(q) | Gate::Sdg(q) => Some(TemplateOp::Fixed(Op::Phase { q: q as u32 })),
        Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::Measure(_) => None,
        Gate::Cz(a, b) => Some(TemplateOp::Fixed(Op::Cz {
            a: a as u32,
            b: b as u32,
        })),
        Gate::Swap(a, b) => Some(TemplateOp::Fixed(Op::Swap {
            a: a as u32,
            b: b as u32,
        })),
        Gate::Rz(q, Angle::Value(v)) => {
            odd(v).then_some(TemplateOp::Fixed(Op::Phase { q: q as u32 }))
        }
        Gate::Rx(q, Angle::Value(v)) => {
            odd(v).then_some(TemplateOp::Fixed(Op::SqrtX { q: q as u32 }))
        }
        Gate::Ry(q, Angle::Value(v)) => {
            odd(v).then_some(TemplateOp::Fixed(Op::Hadamard { q: q as u32 }))
        }
        Gate::Rz(q, Angle::Param(i)) => rot(q, i, RotAxis::Z),
        Gate::Rx(q, Angle::Param(i)) => rot(q, i, RotAxis::X),
        Gate::Ry(q, Angle::Param(i)) => rot(q, i, RotAxis::Y),
        ref g => panic!("noise programs cannot compile gate {g}"),
    }
}

/// A circuit + noise model compiled to a flat, allocation-free execution
/// plan: ordered gate kernels and injection sites, with site
/// probabilities deduplicated into sampler classes. Compile once, run for
/// any shot count, seed, or thread count.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
/// use eftq_numerics::SeedSequence;
/// use eftq_stabilizer::{NoiseProgram, StabilizerNoise};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut noise = StabilizerNoise::noiseless();
/// noise.depol_2q = 0.01;
/// let program = NoiseProgram::compile(&c, &noise);
/// assert_eq!(program.num_sites(), 1); // only the CX injects
/// let frames = program.run(1000, SeedSequence::new(7));
/// assert_eq!(frames.num_shots(), 1000);
/// ```
#[derive(Clone, Debug)]
pub struct NoiseProgram {
    n: usize,
    /// Shared with the template that bound this program: binding is an
    /// `Arc` bump, not an op-list copy.
    ops: Arc<Vec<TemplateOp>>,
    /// Per-entry qubit arguments of the run ops (shared likewise).
    args: Arc<Vec<[u32; 2]>>,
    /// Per genome parameter, the lanes of every frame word whose genome
    /// turns it by an odd number of quarter turns: where the batch walk
    /// applies its rotation's kernel. All lanes or none for one genome.
    lanes: Vec<u64>,
    /// Genomes side by side in each lane word: 1 unless several were
    /// bound by [`NoiseTemplate::bind_lanes`].
    groups: usize,
    /// Shots per genome of a [`NoiseTemplate::bind_lanes`] program, the
    /// only tape width it replays; `None` for [`NoiseTemplate::bind_clifford`],
    /// which replays any.
    width: Option<usize>,
    /// Distinct site probabilities; site-run ops index this table.
    classes: Arc<Vec<f64>>,
    /// Precomputed cumulative idle ladder (satisfies every idle site).
    idle: IdleLadder,
    sites: usize,
}

/// A noise program compiled from a *symbolic* ansatz circuit: every
/// structural decision (layering, injection sites, probability classes)
/// is resolved once, and only the rotation kernels — which depend on the
/// genome's quarter-turn parities — remain symbolic.
///
/// This is the compilation hoist for genome loops: a genetic search
/// evaluates thousands of genomes that all share the ansatz *structure*,
/// so [`NoiseTemplate::compile`] runs once per (structure, noise) and
/// [`NoiseTemplate::bind_clifford`] re-resolves parities per genome
/// ([`NoiseTemplate::bind_lanes`] per group of genomes side by side) — a
/// single pass over the parameters instead of a full recompile. The
/// bound program is **identical** to [`NoiseProgram::compile`] on the
/// bound circuit (the per-genome path is, in fact, how
/// `NoiseProgram::compile` is implemented), so sampling streams cannot
/// diverge between the two paths.
///
/// # Examples
///
/// ```
/// use eftq_circuit::ansatz::linear_hea;
/// use eftq_stabilizer::{NoiseProgram, NoiseTemplate, StabilizerNoise};
///
/// let ansatz = linear_hea(4, 1);
/// let mut noise = StabilizerNoise::noiseless();
/// noise.depol_2q = 0.01;
/// let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
/// let genome = vec![1u8; ansatz.num_params()];
/// let fast = template.bind_clifford(&genome);
/// let slow = NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise);
/// assert_eq!(fast.num_sites(), slow.num_sites());
/// ```
#[derive(Clone, Debug)]
pub struct NoiseTemplate {
    n: usize,
    ops: Arc<Vec<TemplateOp>>,
    /// Per-entry qubit arguments of the run ops.
    args: Arc<Vec<[u32; 2]>>,
    /// Distinct site probabilities; site-run ops index this table.
    classes: Arc<Vec<f64>>,
    /// Precomputed cumulative idle ladder (satisfies every idle site).
    idle: IdleLadder,
    sites: usize,
    meas_flip: f64,
    num_params: usize,
}

impl NoiseTemplate {
    /// Compiles a (possibly symbolic) Clifford circuit and noise model
    /// into the flat site program. Zero-probability sites are elided at
    /// compile time; measurement gates are skipped and leave their qubit
    /// idle, matching the per-shot reference executor
    /// `reference::run_noisy_shot`.
    ///
    /// Within each layer, all gate kernels are emitted before all
    /// injection sites. A layer's gates act on disjoint qubits, so this
    /// reorder leaves the propagated frames bit-identical; and because it
    /// preserves the *relative* order of sites, the sampling RNG stream
    /// is unchanged too. Its purpose is fusion: a layer's same-class
    /// sites become contiguous and compile into single site-run ops.
    /// Consecutive CX kernels fuse likewise into CX-run ops, across
    /// layers too when no other op intervenes; the pairs keep their
    /// order, so every XOR happens in the same sequence as gate by gate.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford bound rotations.
    pub fn compile(circuit: &Circuit, noise: &StabilizerNoise) -> Self {
        let n = circuit.num_qubits();
        let mut ops: Vec<TemplateOp> = Vec::new();
        let mut args: Vec<[u32; 2]> = Vec::new();
        let mut classes: Vec<f64> = Vec::new();
        let mut sites = 0usize;
        let class_of = |p: f64, classes: &mut Vec<f64>| -> Option<u32> {
            if p <= 0.0 {
                return None;
            }
            let idx = classes.iter().position(|&c| c == p).unwrap_or_else(|| {
                classes.push(p);
                classes.len() - 1
            });
            Some(idx as u32)
        };
        let idle = noise.idle.ladder();
        ops.reserve(2 * circuit.len());
        let mut busy = vec![false; n];
        let mut pending: Vec<(SiteKind, u32, u32, u32)> = Vec::new();
        for layer in circuit.layers() {
            busy.fill(false);
            pending.clear();
            for g in &layer {
                if g.is_measurement() {
                    continue;
                }
                let (qs, k) = g.qubits_inline();
                for &q in &qs[..k] {
                    busy[q] = true;
                }
                if let Gate::Cx(c, t) = *g {
                    push_run(&mut ops, &mut args, RunKind::Cx, 0, [c as u32, t as u32]);
                } else if let Some(kernel) = compile_gate(g) {
                    ops.push(kernel);
                }
                let site = match *g {
                    Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                        class_of(noise.depol_2q, &mut classes)
                            .map(|class| (SiteKind::Depol2, class, a as u32, b as u32))
                    }
                    Gate::Rz(q, _) => class_of(noise.depol_rz, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, q as u32, 0)),
                    Gate::Rx(q, _) | Gate::Ry(q, _) => class_of(noise.depol_rot_xy, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, q as u32, 0)),
                    _ => class_of(noise.depol_1q, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, qs[0] as u32, 0)),
                };
                if let Some(site) = site {
                    pending.push(site);
                }
            }
            if idle.total() > 0.0 {
                for (q, &b) in busy.iter().enumerate() {
                    if !b {
                        let class = class_of(idle.total(), &mut classes)
                            .expect("positive idle total has a class");
                        pending.push((SiteKind::Idle, class, q as u32, 0));
                    }
                }
            }
            // Fuse the layer's sites — in their original relative order —
            // into maximal same-kind, same-class runs. Runs may even
            // absorb the previous layer's tail when no kernel intervened
            // (e.g. measurement-only layers); correctness only needs the
            // site sequence, which fusion preserves.
            for &(kind, class, a, b) in &pending {
                push_run(&mut ops, &mut args, RunKind::Sites(kind), class, [a, b]);
                sites += 1;
            }
        }
        NoiseTemplate {
            n,
            ops: Arc::new(ops),
            args: Arc::new(args),
            classes: Arc::new(classes),
            idle,
            sites,
            meas_flip: noise.meas_flip,
            num_params: circuit.num_symbolic_params(),
        }
    }

    /// Resolves the symbolic rotations against a Clifford genome (entry
    /// `k` means the angle `k·π/2`): odd quarter turns enable their
    /// kernel, even ones act trivially, exactly as
    /// [`NoiseProgram::compile`] would on [`eftq_circuit::Ansatz::bind_clifford`]'s
    /// output.
    ///
    /// Binding is *zero-copy* on the instruction stream: the bound
    /// program shares this template's op list and argument table, and only
    /// one lane mask per parameter is computed per genome: all lanes for
    /// an odd quarter turn, none for an even one.
    ///
    /// # Panics
    ///
    /// Panics if `ks.len() < self.num_params()`.
    pub fn bind_clifford(&self, ks: &[u8]) -> NoiseProgram {
        self.bind(&[ks], None)
    }

    /// Binds several genomes side by side into one program, for replay
    /// from one `width`-shot [`FaultTape`]: genome `g` owns lanes
    /// `g·width .. (g+1)·width` of the frame word, and each symbolic
    /// rotation's kernel acts in the lanes of the genomes that turn it by
    /// an odd number of quarter turns. [`NoiseProgram::run_faults`] then
    /// gives each lane group exactly the frames
    /// `self.bind_clifford(genomes[g]).run_faults(&tape)` gives (see the
    /// [module docs](self)). A single genome may take any width, and is
    /// [`NoiseTemplate::bind_clifford`] replaying only `width`-shot
    /// tapes.
    ///
    /// Drawn in place instead ([`NoiseProgram::run_threaded`]), every
    /// lane draws its own faults, so the groups would share none.
    ///
    /// # Panics
    ///
    /// Panics if `genomes` is empty, `width == 0`, several genomes need
    /// more than the 64 lanes of one word, or a genome is shorter than
    /// [`NoiseTemplate::num_params`].
    pub fn bind_lanes(&self, genomes: &[&[u8]], width: usize) -> NoiseProgram {
        assert!(!genomes.is_empty(), "at least one genome required");
        assert!(width > 0, "lane groups need at least one shot");
        assert!(
            genomes.len() == 1 || genomes.len() * width <= WORD_BITS,
            "{} lane groups of {width} shots do not fit in one lane word",
            genomes.len()
        );
        self.bind(genomes, Some(width))
    }

    /// The one bind: lane masks for `genomes` side by side, `width`
    /// lanes each when several share the word.
    fn bind(&self, genomes: &[&[u8]], width: Option<usize>) -> NoiseProgram {
        let mut lanes = vec![0u64; self.num_params];
        for (g, ks) in genomes.iter().enumerate() {
            assert!(
                ks.len() >= self.num_params,
                "need {} genome entries, got {}",
                self.num_params,
                ks.len()
            );
            let group = match width {
                Some(w) if genomes.len() > 1 => ((1u64 << w) - 1) << (g * w),
                _ => !0,
            };
            for (mask, &k) in lanes.iter_mut().zip(*ks) {
                if k % 2 == 1 {
                    *mask |= group;
                }
            }
        }
        NoiseProgram {
            n: self.n,
            ops: Arc::clone(&self.ops),
            args: Arc::clone(&self.args),
            lanes,
            groups: genomes.len(),
            width,
            classes: Arc::clone(&self.classes),
            idle: self.idle,
            sites: self.sites,
        }
    }

    /// Samples the faults of a `shots`-shot run under `seed` once, for
    /// replay into every program this template binds:
    /// `template.bind_clifford(genome).run_faults(&tape)` equals
    /// `template.bind_clifford(genome).run_threaded(shots, seed, threads)`
    /// bit for bit, for every genome. Batch by batch, the sampling draws
    /// exactly the RNG stream a run draws.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn sample_faults(&self, shots: usize, seed: SeedSequence) -> FaultTape {
        assert!(shots > 0, "at least one shot required");
        let batches = (0..shots.div_ceil(BATCH_SHOTS))
            .map(|b| {
                let mut draws = BatchDraws::new(
                    &self.classes,
                    &self.args,
                    &self.idle,
                    batch_shots(shots, b),
                    seed.derive_index(b as u64),
                );
                let mut batch = BatchFaults {
                    faults: Vec::new(),
                    ends: Vec::new(),
                };
                for op in self.ops.iter() {
                    if let TemplateOp::Fixed(Op::Sites(run)) = *op {
                        draws.site_run(run, |q, w, x, z| {
                            batch.faults.push(Fault {
                                q: q as u32,
                                w: w as u32,
                                x,
                                z,
                            })
                        });
                        batch.ends.push(batch.faults.len() as u32);
                    }
                }
                batch
            })
            .collect();
        FaultTape {
            ops: Arc::clone(&self.ops),
            shots,
            batches,
        }
    }

    /// A stable fingerprint of `(circuit, noise)` for keying compiled
    /// templates/programs in concurrent artifact caches (sweep drivers
    /// share one compilation across grid points and worker threads).
    /// Collisions would only confuse a cache into sharing a wrong
    /// artifact; 64 well-mixed bits over at most a handful of distinct
    /// keys per sweep make that astronomically unlikely.
    pub fn cache_key(circuit: &Circuit, noise: &StabilizerNoise) -> u64 {
        use eftq_circuit::Angle;
        use eftq_numerics::splitmix64;
        fn mix(h: &mut u64, v: u64) {
            *h = splitmix64(*h ^ v);
        }
        fn angle(h: &mut u64, a: Angle) {
            match a {
                Angle::Value(v) => mix(h, v.to_bits()),
                Angle::Param(i) => mix(h, 0x8000_0000_0000_0000 | i as u64),
            }
        }
        let mut h = splitmix64(0x7e3a_11ce ^ circuit.num_qubits() as u64);
        for g in circuit.gates() {
            let (tag, qs, k, a) = match *g {
                Gate::H(q) => (1u64, [q, 0], 1, None),
                Gate::S(q) => (2, [q, 0], 1, None),
                Gate::Sdg(q) => (3, [q, 0], 1, None),
                Gate::X(q) => (4, [q, 0], 1, None),
                Gate::Y(q) => (5, [q, 0], 1, None),
                Gate::Z(q) => (6, [q, 0], 1, None),
                Gate::T(q) => (7, [q, 0], 1, None),
                Gate::Tdg(q) => (8, [q, 0], 1, None),
                Gate::Measure(q) => (9, [q, 0], 1, None),
                Gate::Cx(a, b) => (10, [a, b], 2, None),
                Gate::Cz(a, b) => (11, [a, b], 2, None),
                Gate::Swap(a, b) => (12, [a, b], 2, None),
                Gate::Rz(q, a) => (13, [q, 0], 1, Some(a)),
                Gate::Rx(q, a) => (14, [q, 0], 1, Some(a)),
                Gate::Ry(q, a) => (15, [q, 0], 1, Some(a)),
            };
            mix(&mut h, tag);
            for &q in &qs[..k] {
                mix(&mut h, q as u64);
            }
            if let Some(a) = a {
                angle(&mut h, a);
            }
        }
        for p in [
            noise.depol_1q,
            noise.depol_2q,
            noise.depol_rz,
            noise.depol_rot_xy,
            noise.meas_flip,
            noise.idle.px,
            noise.idle.py,
            noise.idle.pz,
        ] {
            mix(&mut h, p.to_bits());
        }
        h
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of symbolic parameters a genome must cover.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of compiled injection sites (genome-independent: site
    /// probabilities depend on gate classes, not angles).
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Number of distinct site probabilities (sampler classes).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The readout flip probability of the noise model this template was
    /// compiled against (carried so estimators need only the template).
    pub fn meas_flip(&self) -> f64 {
        self.meas_flip
    }
}

impl NoiseProgram {
    /// Compiles a bound Clifford circuit and noise model into the flat
    /// site program. Zero-probability sites are elided at compile time;
    /// measurement gates are skipped and leave their qubit idle, matching
    /// the per-shot reference executor `reference::run_noisy_shot`.
    ///
    /// Equivalent to `NoiseTemplate::compile(circuit, noise)
    /// .bind_clifford(&[])` — genome loops should hoist the template and
    /// bind per genome instead of recompiling.
    pub fn compile(circuit: &Circuit, noise: &StabilizerNoise) -> Self {
        NoiseTemplate::compile(circuit, noise).bind_clifford(&[])
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of compiled injection sites (zero-probability sites are
    /// elided).
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Number of distinct site probabilities (sampler classes).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Genomes side by side in each lane word (1 unless bound by
    /// [`NoiseTemplate::bind_lanes`] from several).
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// Runs the program sequentially. Identical output to
    /// [`NoiseProgram::run_threaded`] at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn run(&self, shots: usize, seed: SeedSequence) -> PauliFrames {
        self.run_threaded(shots, seed, 1)
    }

    /// Runs the program with shot batches sharded across `threads`
    /// crossbeam workers. Batch `b` always evaluates under
    /// `seed.derive_index(b)`, so the output is bit-identical for every
    /// `threads` value (including 1).
    ///
    /// Each batch draws its faults straight into its frames as the walk
    /// reaches their sites: a seed used once is cheapest drawn in place.
    /// A seed shared by many programs of one template is cheaper sampled
    /// once with [`NoiseTemplate::sample_faults`] and replayed with
    /// [`NoiseProgram::run_faults`], which gives the same frames.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or a worker panics.
    pub fn run_threaded(&self, shots: usize, seed: SeedSequence, threads: usize) -> PauliFrames {
        assert!(shots > 0, "at least one shot required");
        let batches = shots.div_ceil(BATCH_SHOTS);
        let run_batch =
            |b: usize| self.run_batch(batch_shots(shots, b), seed.derive_index(b as u64));
        if threads <= 1 || batches == 1 {
            return self.spliced(shots, run_batch);
        }
        let mut out = PauliFrames::new(self.n, shots);
        let workers = threads.min(batches);
        let chunk = batches.div_ceil(workers);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = (lo + chunk).min(batches);
                    scope.spawn(move |_| (lo..hi).map(run_batch).collect::<Vec<_>>())
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                let frames = handle.join().expect("noise-program worker panicked");
                for (i, f) in frames.into_iter().enumerate() {
                    out.splice_words((w * chunk + i) * BATCH_WORDS, &f);
                }
            }
        })
        .expect("noise-program scope panicked");
        out
    }

    /// Replays a fault tape through this program's kernels: the frames
    /// [`NoiseProgram::run_threaded`] returns for the tape's shot count
    /// and seed, bit for bit. Every site run XORs the words the tape
    /// recorded for it, and no sampler or RNG runs.
    ///
    /// A program of several genomes ([`NoiseTemplate::bind_lanes`])
    /// returns `groups × shots` frames in one lane word: each tape word,
    /// multiplied by a word with one bit per lane group, lands in every
    /// group, and group `g` holds genome `g`'s frames.
    ///
    /// # Panics
    ///
    /// Panics if the tape was sampled from a template other than the one
    /// that bound this program, or if the program was bound by
    /// [`NoiseTemplate::bind_lanes`] for another shot count.
    pub fn run_faults(&self, tape: &FaultTape) -> PauliFrames {
        assert!(
            Arc::ptr_eq(&self.ops, &tape.ops),
            "fault tape was sampled from another template"
        );
        if let Some(width) = self.width {
            assert_eq!(
                tape.shots, width,
                "fault tape of {} shots replayed into {width}-shot lane groups",
                tape.shots
            );
        }
        // Several groups fit in one word (`bind_lanes` checked), so the
        // tape's words have `width` lanes and the copies cannot overlap.
        let spread = (0..self.groups).fold(0u64, |s, g| s | 1 << (g * tape.shots));
        self.spliced(self.groups * tape.shots, |b| {
            let batch = &tape.batches[b];
            let mut frames = PauliFrames::new(self.n, self.groups * batch_shots(tape.shots, b));
            let (mut from, mut ends) = (0, batch.ends.iter());
            self.walk(&mut frames, |frames, _| {
                let to = *ends.next().expect("one tape entry per site run") as usize;
                for f in &batch.faults[from..to] {
                    frames.flip_word(f.q as usize, f.w as usize, f.x * spread, f.z * spread);
                }
                from = to;
            });
            frames
        })
    }

    /// Evaluates every batch of `shots` on this thread, in order, and
    /// splices them into one frame set.
    fn spliced(&self, shots: usize, mut batch: impl FnMut(usize) -> PauliFrames) -> PauliFrames {
        let batches = shots.div_ceil(BATCH_SHOTS);
        if batches == 1 {
            return batch(0);
        }
        let mut out = PauliFrames::new(self.n, shots);
        for b in 0..batches {
            out.splice_words(b * BATCH_WORDS, &batch(b));
        }
        out
    }

    /// Evaluates one batch with its faults drawn in place: fresh
    /// samplers, fresh RNG, one walk.
    fn run_batch(&self, shots: usize, seed: SeedSequence) -> PauliFrames {
        let mut draws = BatchDraws::new(&self.classes, &self.args, &self.idle, shots, seed);
        let mut frames = PauliFrames::new(self.n, shots);
        self.walk(&mut frames, |frames, run| {
            draws.site_run(run, |q, w, x, z| frames.flip_word(q, w, x, z))
        });
        frames
    }

    /// The one walk: applies the bound kernels to `frames` in op order
    /// and hands every site run to `inject` at its place. No kernel sits
    /// between the sites of one run, so `inject` may XOR a run's words
    /// in any order.
    #[inline(always)]
    fn walk(&self, frames: &mut PauliFrames, mut inject: impl FnMut(&mut PauliFrames, SiteRun)) {
        for op in self.ops.iter() {
            let op = match *op {
                TemplateOp::Fixed(op) => op,
                TemplateOp::Rot { q, param, axis } => {
                    let mask = self.lanes[param as usize];
                    if mask != 0 {
                        match axis {
                            RotAxis::Z => frames.kernel_phase_masked(q as usize, mask),
                            RotAxis::X => frames.kernel_sqrt_x_masked(q as usize, mask),
                            RotAxis::Y => frames.kernel_hadamard_masked(q as usize, mask),
                        }
                    }
                    continue;
                }
            };
            match op {
                Op::Hadamard { q } => frames.kernel_hadamard(q as usize),
                Op::Phase { q } => frames.kernel_phase(q as usize),
                Op::SqrtX { q } => frames.kernel_sqrt_x(q as usize),
                Op::CxRun { start, len } => {
                    frames.kernel_cx_run(&self.args[start as usize..(start + len) as usize])
                }
                Op::Cz { a, b } => frames.kernel_cz(a as usize, b as usize),
                Op::Swap { a, b } => frames.kernel_swap(a as usize, b as usize),
                Op::Sites(run) => inject(frames, run),
            }
        }
    }
}

/// Shots in batch `b` of a `shots`-shot run.
fn batch_shots(shots: usize, b: usize) -> usize {
    (shots - b * BATCH_SHOTS).min(BATCH_SHOTS)
}

/// The faults of every shot of one run, sampled once by
/// [`NoiseTemplate::sample_faults`] and replayed by
/// [`NoiseProgram::run_faults`] into any program bound from the same
/// template (see the [module docs](self) for why the faults do not
/// depend on the genome). Per batch the tape holds, in op order, every
/// hit word as the XOR it makes into the frames, `(qubit, lane word, x,
/// z)`, and where each site run's words end.
#[derive(Clone, Debug)]
pub struct FaultTape {
    /// The op list of the sampling template, to recognise its programs.
    ops: Arc<Vec<TemplateOp>>,
    shots: usize,
    batches: Vec<BatchFaults>,
}

/// One batch of a [`FaultTape`].
#[derive(Clone, Debug)]
struct BatchFaults {
    /// The batch's fault words, in op order.
    faults: Vec<Fault>,
    /// Per site run, in op order: the end of its words in `faults`.
    ends: Vec<u32>,
}

/// One recorded hit word: lane word `w` of qubit `q` flips by `x` in the
/// X plane and by `z` in the Z plane.
#[derive(Clone, Copy, Debug)]
struct Fault {
    q: u32,
    w: u32,
    x: u64,
    z: u64,
}

impl FaultTape {
    /// Shots the tape covers.
    pub fn num_shots(&self) -> usize {
        self.shots
    }
}

/// One batch's share of the sampling stream: its RNG (seeded from the
/// batch index), one sampler per probability class and the hit-list
/// scratch. Site runs must be drawn in op order.
struct BatchDraws<'a> {
    shots: usize,
    rng: StdRng,
    samplers: Vec<BernoulliWords>,
    hits: Vec<(u32, u64)>,
    args: &'a [[u32; 2]],
    idle: &'a IdleLadder,
}

impl<'a> BatchDraws<'a> {
    fn new(
        classes: &[f64],
        args: &'a [[u32; 2]],
        idle: &'a IdleLadder,
        shots: usize,
        seed: SeedSequence,
    ) -> Self {
        BatchDraws {
            shots,
            rng: seed.rng(),
            samplers: classes.iter().map(|&p| BernoulliWords::new(p)).collect(),
            hits: Vec::with_capacity(BATCH_WORDS),
            args,
            idle,
        }
    }

    /// The one draw body: draws a site run's hits with
    /// [`BernoulliWords::hit_site_runs`] (a run with no hits in the
    /// batch, the common case at NISQ rates, costs one division) and each
    /// hit word's error letters, and hands every word to
    /// `sink(q, w, x, z)`: lane word `w` of qubit `q` flips by `x` in the
    /// X plane and by `z` in the Z plane. A single-qubit depolarizing hit
    /// word gets a uniform X/Y/Z letter per lane, a two-qubit one a
    /// uniform non-identity pair per lane (four words, all-identity lanes
    /// redrawn), an idle one a ladder-conditional letter per lane in
    /// ascending shot order.
    #[inline(always)]
    fn site_run(&mut self, run: SiteRun, mut sink: impl FnMut(usize, usize, u64, u64)) {
        let args = &self.args[run.start as usize..(run.start + run.len) as usize];
        let (sampler, rng, hits) = (
            &mut self.samplers[run.class as usize],
            &mut self.rng,
            &mut self.hits,
        );
        let (shots, len, idle) = (self.shots, run.len as usize, self.idle);
        match run.kind {
            SiteKind::Depol1 => sampler.hit_site_runs(shots, len, rng, hits, |s, hits, rng| {
                let q = args[s][0] as usize;
                for &(w, h) in hits {
                    let (x, z) = uniform_nonzero_pair(h, rng);
                    sink(q, w as usize, x, z);
                }
            }),
            SiteKind::Depol2 => sampler.hit_site_runs(shots, len, rng, hits, |s, hits, rng| {
                let [a, b] = args[s];
                for &(w, h) in hits {
                    let (xa, za, xb, zb) = uniform_nonzero_pair_2q(h, rng);
                    sink(a as usize, w as usize, xa, za);
                    sink(b as usize, w as usize, xb, zb);
                }
            }),
            SiteKind::Idle => sampler.hit_site_runs(shots, len, rng, hits, |s, hits, rng| {
                let q = args[s][0] as usize;
                for &(w, h) in hits {
                    let (mut x, mut z) = (0, 0);
                    let mut bits = h;
                    while bits != 0 {
                        let lane = bits & bits.wrapping_neg();
                        let letter = idle.conditional_letter(rng);
                        x |= if letter.x_bit() { lane } else { 0 };
                        z |= if letter.z_bit() { lane } else { 0 };
                        bits &= bits - 1;
                    }
                    sink(q, w as usize, x, z);
                }
            }),
        }
    }
}

/// Word-parallel uniform draw over the three non-identity `(x, z)` letter
/// pairs, restricted to the lanes of `h`: `(0, 0)` lanes are redrawn
/// until none remain (each round keeps 3 of 4 candidates, so the loop
/// terminates geometrically fast).
#[inline(always)]
fn uniform_nonzero_pair(h: u64, rng: &mut StdRng) -> (u64, u64) {
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

/// The two-qubit form of [`uniform_nonzero_pair`]: a uniform draw over
/// the fifteen non-identity `(xa, za, xb, zb)` letter pairs per lane of
/// `h`.
#[inline(always)]
fn uniform_nonzero_pair_2q(h: u64, rng: &mut StdRng) -> (u64, u64, u64, u64) {
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
    (xa, za, xb, zb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::TwirledIdle;
    use eftq_pauli::PauliString;

    fn pauli(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn nisq_like() -> StabilizerNoise {
        StabilizerNoise {
            depol_1q: 0.002,
            depol_2q: 0.02,
            depol_rz: 0.004,
            depol_rot_xy: 0.004,
            meas_flip: 0.01,
            idle: TwirledIdle {
                px: 0.001,
                py: 0.001,
                pz: 0.002,
            },
        }
    }

    /// Rates that hit every batch of 16 shots or more.
    fn dense() -> StabilizerNoise {
        StabilizerNoise {
            depol_1q: 0.05,
            depol_2q: 0.1,
            depol_rz: 0.03,
            depol_rot_xy: 0.08,
            meas_flip: 0.0,
            idle: TwirledIdle {
                px: 0.02,
                py: 0.01,
                pz: 0.03,
            },
        }
    }

    #[test]
    fn compile_counts_sites_and_classes() {
        // Layer 1: H(0) [site], q1 idles [site]. Layer 2: CX [site].
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = NoiseProgram::compile(&c, &nisq_like());
        assert_eq!(p.num_sites(), 3);
        // Classes: depol_1q, idle-total, depol_2q.
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.num_qubits(), 2);
    }

    #[test]
    fn noiseless_program_has_no_sites() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let p = NoiseProgram::compile(&c, &StabilizerNoise::noiseless());
        assert_eq!(p.num_sites(), 0);
        assert_eq!(p.num_classes(), 0);
        let f = p.run(100, SeedSequence::new(1));
        assert_eq!(f.flip_count(&pauli("ZZI")), 0);
        assert_eq!(f.flip_count(&pauli("XXX")), 0);
    }

    #[test]
    fn measurement_gates_open_idle_sites() {
        // Matching run_noisy_shot: a measured qubit counts as idle.
        let mut c = Circuit::new(2);
        c.h(0).measure(1);
        let mut noise = StabilizerNoise::noiseless();
        noise.idle = TwirledIdle {
            px: 0.25,
            py: 0.0,
            pz: 0.0,
        };
        let p = NoiseProgram::compile(&c, &noise);
        assert_eq!(p.num_sites(), 1);
        let f = p.run(6400, SeedSequence::new(3));
        let frac = f.flip_count(&pauli("IZ")) as f64 / 6400.0;
        assert!((frac - 0.25).abs() < 0.03, "{frac}");
        assert_eq!(f.flip_count(&pauli("ZI")), 0);
    }

    #[test]
    fn thread_count_does_not_change_the_frames() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).s(3);
        let p = NoiseProgram::compile(&c, &nisq_like());
        let seed = SeedSequence::new(99);
        for shots in [100usize, 256, 257, 1000, 2048] {
            let solo = p.run_threaded(shots, seed, 1);
            for threads in [2usize, 3, 8] {
                let multi = p.run_threaded(shots, seed, threads);
                assert_eq!(solo, multi, "shots {shots} threads {threads}");
            }
        }
    }

    #[test]
    fn batches_are_independent_of_total_shot_count() {
        // The first batch of a 2048-shot run equals a standalone 256-shot
        // run: batch content depends only on (seed, batch index).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = NoiseProgram::compile(&c, &nisq_like());
        let seed = SeedSequence::new(5);
        let big = p.run(2048, seed);
        let small = p.run(BATCH_SHOTS, seed);
        for s in 0..BATCH_SHOTS {
            assert_eq!(big.frame(s), small.frame(s), "shot {s}");
        }
    }

    #[test]
    fn certain_depolarizing_hits_every_shot() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_1q = 1.0;
        let p = NoiseProgram::compile(&c, &noise);
        let f = p.run(500, SeedSequence::new(2));
        for s in 0..500 {
            assert!(!f.frame(s).is_identity(), "shot {s}");
        }
    }

    #[test]
    fn depolarizing_letters_are_uniform_over_xyz() {
        // p = 1 exercises the word-parallel rejection draw; the three
        // letters must come out balanced.
        let mut c = Circuit::new(1);
        c.s(0);
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_1q = 1.0;
        let p = NoiseProgram::compile(&c, &noise);
        let shots = 30_000;
        let f = p.run(shots, SeedSequence::new(11));
        let mut counts = [0usize; 3];
        for s in 0..shots {
            // The S gate precedes the injection site, so the frame *is*
            // the injected letter.
            match f.frame(s).pauli_at(0) {
                eftq_pauli::Pauli::X => counts[0] += 1,
                eftq_pauli::Pauli::Y => counts[1] += 1,
                eftq_pauli::Pauli::Z => counts[2] += 1,
                eftq_pauli::Pauli::I => panic!("shot {s} missed at p = 1"),
            }
        }
        let third = shots as f64 / 3.0;
        let sigma = (shots as f64 * (1.0 / 3.0) * (2.0 / 3.0)).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 - third).abs() < 5.0 * sigma, "letter {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_rejected() {
        let mut c = Circuit::new(1);
        c.h(0);
        let p = NoiseProgram::compile(&c, &StabilizerNoise::noiseless());
        let _ = p.run(0, SeedSequence::new(0));
    }

    #[test]
    fn template_bind_equals_full_compile() {
        // The hoisted path (compile the symbolic ansatz once, bind
        // quarter-turn parities per genome) must produce the same frames
        // as recompiling the bound circuit — for every genome pattern.
        use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
        let noise = nisq_like();
        for (i, ansatz) in [
            linear_hea(4, 1),
            fully_connected_hea(5, 2),
            blocked_all_to_all(8, 1),
        ]
        .iter()
        .enumerate()
        {
            let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
            assert_eq!(template.num_params(), ansatz.num_params());
            assert_eq!(template.meas_flip(), noise.meas_flip);
            for pattern in 0..8u64 {
                let genome: Vec<u8> = (0..ansatz.num_params())
                    .map(|g| ((g as u64 * 7 + pattern * 3 + i as u64) % 4) as u8)
                    .collect();
                let fast = template.bind_clifford(&genome);
                let slow = NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise);
                assert_eq!(fast.num_sites(), slow.num_sites());
                assert_eq!(fast.num_classes(), slow.num_classes());
                let seed = SeedSequence::new(17 + pattern);
                assert_eq!(
                    fast.run(300, seed),
                    slow.run(300, seed),
                    "ansatz {i}, pattern {pattern}"
                );
            }
        }
    }

    #[test]
    fn replayed_faults_equal_the_one_shot_run() {
        // One tape per (template, shots, seed) replays into every program
        // the template binds as the frames that program draws in place:
        // random, all-even and all-odd genomes, at 1–4 lane words and
        // 1–4 batches, under NISQ rates and under dense rates that hit
        // every batch (bit-slice and geometric samplers both).
        use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
        use rand::SeedableRng;
        let dense = dense();
        let mut rng = StdRng::seed_from_u64(61);
        for ansatz in [
            linear_hea(4, 1),
            fully_connected_hea(9, 2),
            blocked_all_to_all(8, 1),
        ] {
            for noise in [nisq_like(), dense] {
                let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
                let len = ansatz.num_params();
                let random: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
                for shots in [1usize, 16, 64, 65, 256, 257, 1000] {
                    let seed = SeedSequence::new(rng.gen());
                    let tape = template.sample_faults(shots, seed);
                    assert_eq!(tape.batches.len(), shots.div_ceil(BATCH_SHOTS));
                    if noise == dense && shots >= 16 {
                        assert!(tape.batches.iter().all(|b| !b.faults.is_empty()));
                    }
                    for genome in [&random, &vec![0u8; len], &vec![1u8; len]] {
                        let program = template.bind_clifford(genome);
                        assert_eq!(
                            program.run_faults(&tape),
                            program.run_threaded(shots, seed, 1),
                            "{} qubits, {shots} shots, genome {genome:?}",
                            ansatz.num_qubits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_lane_groups_replay_each_genomes_own_frames() {
        // Lane group g of a packed replay holds, shot for shot, the frames
        // genome g's own program replays from the same tape, at every
        // group count that fits one word: random, all-even and all-odd
        // genomes side by side, under NISQ and dense rates. Above 32
        // shots a group of one is the single-genome replay, on as many
        // words as the tape has.
        use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(67);
        for ansatz in [
            linear_hea(4, 1),
            fully_connected_hea(9, 2),
            blocked_all_to_all(8, 1),
        ] {
            let len = ansatz.num_params();
            for noise in [nisq_like(), dense()] {
                let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
                for shots in [1usize, 6, 16, 21, 32] {
                    let tape = template.sample_faults(shots, SeedSequence::new(rng.gen()));
                    let genomes: Vec<Vec<u8>> = (0..WORD_BITS / shots)
                        .map(|g| {
                            let parity = [None, Some(0), Some(1)][g % 3];
                            (0..len)
                                .map(|_| {
                                    let k = rng.gen_range(0..4u8);
                                    parity.map_or(k, |p| k & 2 | p)
                                })
                                .collect()
                        })
                        .collect();
                    let alone: Vec<PauliFrames> = genomes
                        .iter()
                        .map(|g| template.bind_clifford(g).run_faults(&tape))
                        .collect();
                    for groups in 1..=genomes.len() {
                        let ks: Vec<&[u8]> = genomes[..groups].iter().map(Vec::as_slice).collect();
                        let packed = template.bind_lanes(&ks, shots).run_faults(&tape);
                        assert_eq!(packed.num_shots(), groups * shots);
                        for (g, frames) in alone[..groups].iter().enumerate() {
                            for s in 0..shots {
                                assert_eq!(
                                    packed.frame(g * shots + s),
                                    frames.frame(s),
                                    "{} qubits, {shots} shots, group {g} of {groups}, shot {s}",
                                    ansatz.num_qubits()
                                );
                            }
                        }
                    }
                }
                for shots in [40usize, 100, 300] {
                    let tape = template.sample_faults(shots, SeedSequence::new(rng.gen()));
                    let genome: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
                    assert_eq!(
                        template.bind_lanes(&[&genome], shots).run_faults(&tape),
                        template.bind_clifford(&genome).run_faults(&tape),
                        "{shots} shots"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "16 shots replayed into 8-shot lane groups")]
    fn packed_program_rejects_a_tape_of_another_width() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let tape = template.sample_faults(16, SeedSequence::new(3));
        let genome = vec![1u8; ansatz.num_params()];
        let _ = template
            .bind_lanes(&[&genome, &genome], 8)
            .run_faults(&tape);
    }

    #[test]
    #[should_panic(expected = "3 lane groups of 22 shots do not fit in one lane word")]
    fn lane_groups_past_one_word_are_rejected() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let genome = vec![1u8; ansatz.num_params()];
        let _ = template.bind_lanes(&[&genome, &genome, &genome], 22);
    }

    #[test]
    #[should_panic(expected = "another template")]
    fn fault_tape_of_another_template_is_rejected() {
        // Same circuit, same noise, but a separate compilation: its op
        // positions are not the tape's to trust.
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let sampled = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let other = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let tape = sampled.sample_faults(16, SeedSequence::new(3));
        let _ = other
            .bind_clifford(&vec![1u8; ansatz.num_params()])
            .run_faults(&tape);
    }

    #[test]
    fn cx_kernels_fuse_into_runs_until_another_op_intervenes() {
        // Two CX layers, then H(1) beside CX(0, 2): noiseless, the first
        // four CNOTs form one run across the layer boundary and the H
        // splits off the last; with two-qubit sites after every layer's
        // kernels, each layer's CNOTs form their own run.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(3, 0).h(1).cx(0, 2);
        let runs = |noise: &StabilizerNoise| -> Vec<u32> {
            let template = NoiseTemplate::compile(&c, noise);
            let lens = template.ops.iter().filter_map(|op| match op {
                TemplateOp::Fixed(Op::CxRun { len, .. }) => Some(*len),
                _ => None,
            });
            lens.collect()
        };
        assert_eq!(runs(&StabilizerNoise::noiseless()), [4, 1]);
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_2q = 0.01;
        assert_eq!(runs(&noise), [2, 2, 1]);
    }

    #[test]
    fn template_site_count_is_genome_independent() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let all_even = template.bind_clifford(&vec![0u8; ansatz.num_params()]);
        let all_odd = template.bind_clifford(&vec![1u8; ansatz.num_params()]);
        // Sites survive either way; only rotation kernels differ.
        assert_eq!(all_even.num_sites(), template.num_sites());
        assert_eq!(all_odd.num_sites(), template.num_sites());
    }

    #[test]
    #[should_panic(expected = "genome entries")]
    fn template_rejects_short_genomes() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &StabilizerNoise::noiseless());
        let _ = template.bind_clifford(&[0, 1]);
    }

    #[test]
    fn cache_key_separates_circuits_and_noise() {
        use eftq_circuit::ansatz::{fully_connected_hea, linear_hea};
        let a = linear_hea(4, 1);
        let b = fully_connected_hea(4, 1);
        let n1 = nisq_like();
        let mut n2 = nisq_like();
        n2.depol_2q += 1e-4;
        let k = NoiseTemplate::cache_key;
        assert_eq!(k(a.circuit(), &n1), k(a.circuit(), &n1), "stable");
        assert_ne!(k(a.circuit(), &n1), k(b.circuit(), &n1), "circuit");
        assert_ne!(k(a.circuit(), &n1), k(a.circuit(), &n2), "noise");
        // Binding changes the key too (bound angles hash differently from
        // symbolic parameters).
        let bound = a.bind_clifford(&vec![1u8; a.num_params()]);
        assert_ne!(k(a.circuit(), &n1), k(&bound, &n1));
    }
}
