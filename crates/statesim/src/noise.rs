//! Gate-triggered noise models and the layered noisy executor.
//!
//! The executor reproduces the methodology of Section 5.2.1: the circuit is
//! layered (ASAP), gates inside a layer experience their gate channel, and
//! qubits idle during a layer experience the idle channel. Which channels
//! are active is controlled by [`NoiseModel`]; the NISQ and pQEC parameter
//! sets are constructed by the `eft-vqa` core crate.

use crate::channels::KrausChannel;
use crate::density::DensityMatrix;
use eftq_circuit::{Circuit, Gate};

/// Relaxation (T1/T2) parameters plus operation durations, all in the same
/// time unit (conventionally nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relaxation {
    /// Energy relaxation time T1.
    pub t1: f64,
    /// Coherence time T2 (must satisfy T2 ≤ 2·T1).
    pub t2: f64,
    /// Duration of a single-qubit gate.
    pub t_1q: f64,
    /// Duration of a two-qubit gate.
    pub t_2q: f64,
    /// Duration of a measurement.
    pub t_meas: f64,
}

impl Relaxation {
    /// IBM-flavoured defaults: T1 = 100 µs, T2 = 100 µs, 35 ns single-qubit
    /// gates, 300 ns CNOTs, 700 ns measurements (order-of-magnitude values
    /// from the device data the paper cites).
    pub fn superconducting_defaults() -> Self {
        Relaxation {
            t1: 100_000.0,
            t2: 100_000.0,
            t_1q: 35.0,
            t_2q: 300.0,
            t_meas: 700.0,
        }
    }
}

/// A gate-triggered noise model.
///
/// Every probability is per gate occurrence. Rotations classified as
/// non-Clifford (`rz_like` in [`eftq_circuit::GateCounts`]) receive
/// `depol_rz` instead of `depol_1q`, matching the paper's split between
/// virtual/injected rotations and physical Clifford gates.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after a single-qubit Clifford gate.
    pub depol_1q: f64,
    /// Two-qubit depolarizing probability after a two-qubit gate.
    pub depol_2q: f64,
    /// Depolarizing probability after a non-Clifford `Rz` rotation
    /// (injection error under pQEC; 0 under NISQ's virtual-Z convention).
    pub depol_rz: f64,
    /// Depolarizing probability after a non-Clifford `Rx`/`Ry` rotation
    /// (a physical pulse under NISQ; an injected `H·Rz·H` under pQEC).
    pub depol_rot_xy: f64,
    /// Bit-flip probability at measurement.
    pub meas_flip: f64,
    /// Depolarizing probability per idle layer per qubit (pQEC memory
    /// errors; `0` disables).
    pub idle_depol: f64,
    /// Thermal relaxation; `None` disables relaxation entirely (pQEC).
    pub relaxation: Option<Relaxation>,
}

impl NoiseModel {
    /// The noiseless model.
    pub fn noiseless() -> Self {
        NoiseModel {
            depol_1q: 0.0,
            depol_2q: 0.0,
            depol_rz: 0.0,
            depol_rot_xy: 0.0,
            meas_flip: 0.0,
            idle_depol: 0.0,
            relaxation: None,
        }
    }

    /// Whether every channel is trivial.
    pub fn is_noiseless(&self) -> bool {
        self.depol_1q == 0.0
            && self.depol_2q == 0.0
            && self.depol_rz == 0.0
            && self.depol_rot_xy == 0.0
            && self.meas_flip == 0.0
            && self.idle_depol == 0.0
            && self.relaxation.is_none()
    }
}

/// Statistics from a noisy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoisyRunReport {
    /// Number of ASAP layers executed.
    pub layers: usize,
    /// Noise channel applications (gate + idle + measurement).
    pub channel_applications: usize,
    /// Idle (qubit, layer) slots that received idle noise.
    pub idle_slots: usize,
}

/// Channels that depend only on the (fixed) noise model, built once per
/// run. The seed implementation constructed a fresh `KrausChannel` —
/// heap-allocating its Kraus operators and, for thermal relaxation,
/// composing two channels — per *application*; with `4ⁿ⁻¹` blocks behind
/// every application this dominated the density-matrix VQE tests.
struct RunChannels {
    /// Thermal relaxation over a single-qubit gate window, with the
    /// window duration (for the layer clock).
    relax_1q: Option<(KrausChannel, f64)>,
    /// Thermal relaxation over a two-qubit gate window, with duration.
    relax_2q: Option<(KrausChannel, f64)>,
    /// Thermal relaxation over a measurement window, with duration.
    relax_meas: Option<(KrausChannel, f64)>,
    /// Measurement bit-flip.
    meas_flip: Option<KrausChannel>,
    /// Idle relaxation per distinct layer duration seen so far (layer
    /// durations are maxima over the three gate windows, so this stays
    /// tiny).
    idle_relax: Vec<(f64, KrausChannel)>,
}

impl RunChannels {
    fn new(noise: &NoiseModel) -> Self {
        let relax = |r: &Relaxation, t: f64| (KrausChannel::thermal_relaxation(t, r.t1, r.t2), t);
        RunChannels {
            relax_1q: noise.relaxation.map(|r| relax(&r, r.t_1q)),
            relax_2q: noise.relaxation.map(|r| relax(&r, r.t_2q)),
            relax_meas: noise.relaxation.map(|r| relax(&r, r.t_meas)),
            meas_flip: (noise.meas_flip > 0.0).then(|| KrausChannel::bit_flip(noise.meas_flip)),
            idle_relax: Vec::new(),
        }
    }

    /// The relaxation channel for an idle window of `duration` (cached by
    /// exact duration).
    fn idle_relaxation(&mut self, noise: &NoiseModel, duration: f64) -> &KrausChannel {
        let idx = self
            .idle_relax
            .iter()
            .position(|(t, _)| *t == duration)
            .unwrap_or_else(|| {
                let r = noise.relaxation.expect("idle relaxation without model");
                self.idle_relax.push((
                    duration,
                    KrausChannel::thermal_relaxation(duration, r.t1, r.t2),
                ));
                self.idle_relax.len() - 1
            });
        &self.idle_relax[idx].1
    }
}

/// Runs a fully bound circuit under `noise`, returning the final state and
/// a report.
///
/// Gates are grouped into ASAP layers; after each layer's gates (and their
/// gate-attached channels), idle qubits receive the idle channel: thermal
/// relaxation over the layer's duration when `relaxation` is set, plus
/// `idle_depol` depolarizing when non-zero.
///
/// # Panics
///
/// Panics on symbolic parameters or qubit-count overflow (> 13 qubits).
pub fn run_noisy(circuit: &Circuit, noise: &NoiseModel) -> (DensityMatrix, NoisyRunReport) {
    let n = circuit.num_qubits();
    let mut rho = DensityMatrix::zero_state(n);
    let mut report = NoisyRunReport::default();
    let mut chans = RunChannels::new(noise);

    for layer in circuit.layers() {
        report.layers += 1;
        let mut busy = vec![false; n];
        let mut layer_duration: f64 = 0.0;
        for g in &layer {
            for q in g.qubits() {
                busy[q] = true;
            }
            apply_gate_with_noise(&mut rho, g, noise, &chans, &mut report, &mut layer_duration);
        }
        // Idle noise for untouched qubits.
        let idle_needed = noise.relaxation.is_some() || noise.idle_depol > 0.0;
        if idle_needed {
            for (q, _) in busy.iter().enumerate().filter(|&(_, &b)| !b) {
                report.idle_slots += 1;
                if noise.relaxation.is_some() && layer_duration > 0.0 {
                    rho.apply_channel(q, chans.idle_relaxation(noise, layer_duration));
                    report.channel_applications += 1;
                }
                if noise.idle_depol > 0.0 {
                    rho.apply_depolarizing_1q(q, noise.idle_depol);
                    report.channel_applications += 1;
                }
            }
        }
    }
    (rho, report)
}

fn apply_gate_with_noise(
    rho: &mut DensityMatrix,
    gate: &Gate,
    noise: &NoiseModel,
    chans: &RunChannels,
    report: &mut NoisyRunReport,
    layer_duration: &mut f64,
) {
    match *gate {
        Gate::Measure(q) => {
            if let Some((ch, t)) = &chans.relax_meas {
                rho.apply_channel(q, ch);
                report.channel_applications += 1;
                *layer_duration = layer_duration.max(*t);
            }
            if let Some(ch) = &chans.meas_flip {
                rho.apply_channel(q, ch);
                report.channel_applications += 1;
            }
        }
        ref g if g.is_two_qubit() => {
            rho.apply_gate(g);
            let qs = g.qubits();
            if noise.depol_2q > 0.0 {
                rho.apply_depolarizing_2q(qs[0], qs[1], noise.depol_2q);
                report.channel_applications += 1;
            }
            if let Some((ch, t)) = &chans.relax_2q {
                for &q in &qs {
                    rho.apply_channel(q, ch);
                    report.channel_applications += 1;
                }
                *layer_duration = layer_duration.max(*t);
            }
        }
        ref g => {
            rho.apply_gate(g);
            let q = g.qubits()[0];
            let is_rz_like = matches!(g, Gate::Rz(..)) && !g.is_clifford(1e-9);
            let is_xy_rotation = matches!(g, Gate::Rx(..) | Gate::Ry(..)) && !g.is_clifford(1e-9);
            let p = if is_rz_like {
                noise.depol_rz
            } else if is_xy_rotation {
                noise.depol_rot_xy
            } else {
                noise.depol_1q
            };
            if p > 0.0 {
                // Closed-form fast path: no Kraus loop for depolarizing.
                rho.apply_depolarizing_1q(q, p);
                report.channel_applications += 1;
            }
            // Virtual-Z convention: an Rz in the NISQ regime is free and
            // instantaneous, so it contributes no relaxation window.
            if let Some((ch, t)) = &chans.relax_1q {
                if !matches!(g, Gate::Rz(..)) {
                    rho.apply_channel(q, ch);
                    report.channel_applications += 1;
                    *layer_duration = layer_duration.max(*t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_pauli::PauliSum;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h
    }

    #[test]
    fn noiseless_model_reproduces_pure_state() {
        let (rho, report) = run_noisy(&bell(), &NoiseModel::noiseless());
        assert!((rho.expectation(&zz()) - 1.0).abs() < 1e-10);
        assert_eq!(report.channel_applications, 0);
        assert!(NoiseModel::noiseless().is_noiseless());
    }

    #[test]
    fn two_qubit_noise_degrades_bell_correlation() {
        let mut noise = NoiseModel::noiseless();
        noise.depol_2q = 0.05;
        let (rho, _) = run_noisy(&bell(), &noise);
        let e = rho.expectation(&zz());
        assert!((e - (1.0 - 16.0 * 0.05 / 15.0)).abs() < 1e-10, "{e}");
    }

    #[test]
    fn rz_noise_only_hits_non_clifford_rotations() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, std::f64::consts::PI).h(0); // Clifford Rz
        let mut noise = NoiseModel::noiseless();
        noise.depol_rz = 0.2;
        let (_, report) = run_noisy(&c, &noise);
        assert_eq!(report.channel_applications, 0);

        let mut c2 = Circuit::new(1);
        c2.h(0).rz(0, 0.4).h(0); // injection-requiring Rz
        let (_, report2) = run_noisy(&c2, &noise);
        assert_eq!(report2.channel_applications, 1);

        // Rx rotations draw from the separate rot_xy budget.
        let mut c3 = Circuit::new(1);
        c3.rx(0, 0.4);
        let (_, report3) = run_noisy(&c3, &noise);
        assert_eq!(report3.channel_applications, 0);
        let mut noise_xy = NoiseModel::noiseless();
        noise_xy.depol_rot_xy = 0.2;
        let (_, report4) = run_noisy(&c3, &noise_xy);
        assert_eq!(report4.channel_applications, 1);
    }

    #[test]
    fn idle_depol_hits_only_idle_qubits() {
        // Qubit 1 idles during the H-only layer.
        let mut c = Circuit::new(2);
        c.h(0);
        let mut noise = NoiseModel::noiseless();
        noise.idle_depol = 0.1;
        let (_, report) = run_noisy(&c, &noise);
        assert_eq!(report.idle_slots, 1);
        assert_eq!(report.channel_applications, 1);
    }

    #[test]
    fn relaxation_damps_excited_population() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        let mut noise = NoiseModel::noiseless();
        noise.relaxation = Some(Relaxation {
            t1: 1000.0,
            t2: 1000.0,
            t_1q: 100.0,
            t_2q: 300.0,
            t_meas: 500.0,
        });
        let (rho, _) = run_noisy(&c, &noise);
        // After X: |1⟩; relaxation during gate (100) and measurement (500).
        let p1 = rho.probability(1);
        assert!(p1 < 1.0 && p1 > 0.4, "{p1}");
    }

    #[test]
    fn measurement_flip_reduces_z() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let mut noise = NoiseModel::noiseless();
        noise.meas_flip = 0.1;
        let (rho, _) = run_noisy(&c, &noise);
        assert!((rho.probability(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn layering_matches_depth() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).cx(1, 2).rz(0, 0.3);
        let layers = c.layers();
        assert_eq!(layers.len(), c.depth());
        let total: usize = layers.iter().map(|l| l.len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn virtual_z_is_free_under_relaxation() {
        // An Rz between two idles should not advance the layer clock.
        let mut c = Circuit::new(1);
        c.rz(0, std::f64::consts::PI); // Clifford *and* virtual
        let mut noise = NoiseModel::noiseless();
        noise.relaxation = Some(Relaxation::superconducting_defaults());
        let (rho, report) = run_noisy(&c, &noise);
        assert_eq!(report.channel_applications, 0);
        assert!((rho.probability(0) - 1.0).abs() < 1e-12);
    }
}
