//! `shot_reeval`: repeated `eft_vqa::clifford_vqe::reevaluate_genome`
//! calls — one genome, many shots — on the 100-qubit
//! `fully_connected_hea` ansatz and the Heisenberg chain under NISQ
//! noise, at `threads = 1`. Every op gets a fresh genome and estimator
//! seed drawn from the workload seed. One op is one call. The run walks
//! its ops three times, and an op's latency is its median over the
//! passes. The calls and a [`HostSampler`] of [`Reference::PauliFrames`]
//! share one vCPU, and every call is rescaled by the samples taken
//! around it.
//!
//! Traced runs recompose every call from its public parts (bind,
//! `NoiseProgram::compile`, `Tableau::run`, per-term expectations,
//! `run_threaded`, accumulation); every eighth op is also run through
//! `reevaluate_genome` itself, and the two energies must agree bit for
//! bit.

use crate::clifford::program_energy;
use crate::host::{pin_here, HostSampler, Reference};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{ms_since, overhead, setup_sample, Cfg, Outcome};
use eft_vqa::clifford_vqe::reevaluate_genome;
use eft_vqa::hamiltonians::heisenberg_1d;
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_pauli::PauliSum;
use eftq_stabilizer::{NoiseProgram, StabilizerNoise};
use rand::Rng;
use std::time::Instant;

/// Qubits of the ansatz and chain.
pub const QUBITS: usize = 100;
/// Shots per re-evaluation.
pub const SHOTS: usize = 2048;
/// Ops per second of `--seconds` (three calls of about 4.5 ms each per
/// op on the reference machine).
const OPS_PER_SECOND: u64 = 60;
/// The run walks its op list this many times, and an op's latency is the
/// median of its timings. On the reference VM about one call in two
/// hundred meets a 5–15 ms host stall, and host throughput sags for
/// seconds at a time; one timing per op let those set the p99.8 tail of
/// a run's thousands of ops and spread it by 60% across seeds. Passes
/// seconds apart rarely see two sags on the same op, while a genome that
/// is really slow stays slow in every pass.
const PASSES: usize = 3;
/// Every this-many-th op is re-run at another thread count (untimed).
const RECHECK_EVERY: usize = 64;
/// The untraced run takes a set-up sample before every this-many-th call
/// and after its last: about sixty samples spread over a 25-s run.
const SETUP_EVERY: usize = 75;
/// Traced runs pair every this-many-th op with an untraced call.
const PAIR_EVERY: usize = 8;

/// The workload's inputs.
pub struct Inputs {
    ansatz: Ansatz,
    h: PauliSum,
    noise: StabilizerNoise,
    /// `(genome, estimator seed)` per op.
    ops: Vec<(Vec<u8>, u64)>,
}

/// `count` genomes of `len` Clifford multipliers with their estimator
/// seeds, drawn from the workload seed.
pub fn genomes(seed: u64, count: usize, len: usize) -> Vec<(Vec<u8>, u64)> {
    let root = SeedSequence::new(seed).derive("shot_reeval");
    (0..count)
        .map(|i| {
            let node = root.derive_index(i as u64);
            let mut rng = node.rng();
            let genome = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
            (genome, node.derive("estimator").seed())
        })
        .collect()
}

fn inputs(seed: u64, count: usize) -> Inputs {
    let ansatz = fully_connected_hea(QUBITS, 1);
    let ops = genomes(seed, count, ansatz.num_params());
    Inputs {
        h: heisenberg_1d(QUBITS, 1.0),
        noise: ExecutionRegime::nisq_default().stabilizer_noise(),
        ansatz,
        ops,
    }
}

/// Whether `e` can be an energy of `h`: finite and within `Σ|c|`.
pub fn energy_ok(h: &PauliSum, e: f64) -> bool {
    let bound: f64 = h.terms().iter().map(|t| t.coefficient.abs()).sum();
    e.is_finite() && e.abs() <= bound
}

pub fn run(cfg: &Cfg) -> Outcome {
    let count = (cfg.seconds * OPS_PER_SECOND) as usize;
    let mut build = || inputs(cfg.seed, count);
    let s = build();
    let mut o = Outcome::default();
    let call = |(genome, seed): &(Vec<u8>, u64), threads| {
        reevaluate_genome(&s.ansatz, &s.h, &s.noise, genome, SHOTS, *seed, threads)
    };
    let mut energies = Vec::with_capacity(count);
    if cfg.trace {
        let tracer = Tracer::new(Instant::now());
        let mut pairs = Vec::new();
        let mut mismatched = 0;
        for (i, op) in s.ops.iter().enumerate() {
            let plain = (i % PAIR_EVERY == 0).then(|| {
                let t = Instant::now();
                (call(op, 1), ms_since(t))
            });
            let t = Instant::now();
            let (e, sites) = traced_call(&s, op, &tracer);
            let ms = ms_since(t);
            o.layers.fold(&tracer.drain());
            o.layers
                .count("stabilizer.bernoulli_trials", (sites * SHOTS) as f64);
            if let Some((e_plain, plain_ms)) = plain {
                pairs.push((plain_ms, ms));
                mismatched += usize::from(e_plain.to_bits() != e.to_bits());
            }
            o.op_ms.push(ms);
            energies.push(e);
        }
        o.checks
            .push(("traced_equals_untraced".into(), mismatched == 0));
        overhead(&pairs, &mut o.per_layer);
        o.per_layer
            .insert("trace.op_p50_ms".into(), median(&o.op_ms).unwrap_or(0.0));
        o.wall_s = o.op_ms.iter().sum::<f64>() * 1e-3;
    } else {
        let sampler = HostSampler::start(Reference::PauliFrames, &pin_here());
        // `(op, start, end)` per call.
        let mut calls = Vec::with_capacity(PASSES * count);
        for pass in 0..PASSES {
            for (i, op) in s.ops.iter().enumerate() {
                if (pass * count + i).is_multiple_of(SETUP_EVERY) {
                    o.setup_s.push(setup_sample(&mut build, drop));
                }
                let t = Instant::now();
                let e = call(op, 1);
                calls.push((i, t, Instant::now()));
                // Later passes are a determinism check: same genome and
                // seed, same bits.
                if pass == 0 {
                    energies.push(e);
                } else if e.to_bits() != energies[i].to_bits() {
                    energies[i] = f64::NAN;
                }
            }
        }
        o.setup_s.push(setup_sample(&mut build, drop));
        let speed = sampler.finish();
        o.host_factor = speed.run_factor();
        let mut ms = vec![Vec::with_capacity(PASSES); count];
        let mut raw = vec![Vec::with_capacity(PASSES); count];
        for &(i, start, end) in &calls {
            let t = (end - start).as_secs_f64() * 1e3;
            raw[i].push(t);
            ms[i].push(speed.rescale(t, start, end));
        }
        o.wall_s = ms.iter().flatten().sum::<f64>() * 1e-3;
        o.raw_wall_s = raw.iter().flatten().sum::<f64>() * 1e-3;
        let per_op = |timings: &[Vec<f64>]| -> Vec<f64> {
            timings
                .iter()
                .map(|m| median(m).expect("every pass ran"))
                .collect()
        };
        o.op_ms = per_op(&ms);
        o.raw_op_ms = per_op(&raw);
    }
    // The thread-invariance guarantee: a fixed subset re-run at another
    // thread count (untimed) must return identical bits.
    for (i, (op, &e)) in s.ops.iter().zip(&energies).enumerate() {
        o.attempted += 1;
        let invariant = i % RECHECK_EVERY != 0 || call(op, 2).to_bits() == e.to_bits();
        if !(energy_ok(&s.h, e) && invariant) {
            o.failed += 1;
        }
        o.digest.push(&e.to_bits().to_le_bytes());
    }
    o
}

/// `reevaluate_genome` recomposed from its parts, one span per layer:
/// the energy and the program's injection sites.
fn traced_call(s: &Inputs, (genome, seed): &(Vec<u8>, u64), tr: &Tracer) -> (f64, usize) {
    let span = tr.open("core.reevaluate", None);
    let at = Some(span.id());
    let circuit = tr.time("circuit.bind_clifford", at, || {
        s.ansatz.bind_clifford(genome)
    });
    let program = tr.time("stabilizer.program_compile", at, || {
        NoiseProgram::compile(&circuit, &s.noise)
    });
    let e = program_energy(
        &circuit,
        &s.h,
        &program,
        s.noise.meas_flip,
        SHOTS,
        SeedSequence::new(*seed).derive("reeval"),
        1,
        tr,
        at,
    );
    (e, program.num_sites())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_genomes() {
        let a = genomes(7, 50, 300);
        assert_eq!(a, genomes(7, 50, 300), "same seed, same genomes");
        let b = genomes(8, 50, 300);
        assert_ne!(a, b, "another seed, other genomes");
        assert!(a.iter().all(|(g, _)| g.iter().all(|&k| k < 4)));
        // Fresh genome and estimator seed per op.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn a_corrupted_energy_fails_its_check() {
        let h = heisenberg_1d(4, 1.0);
        assert!(energy_ok(&h, -3.0));
        assert!(!energy_ok(&h, f64::NAN));
        assert!(!energy_ok(&h, 1e9));
    }
}
