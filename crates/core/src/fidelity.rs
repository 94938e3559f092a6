//! The analytic workload-fidelity model behind Figures 4, 5, 6 and 11.
//!
//! A VQA iteration is summarized by a [`Workload`] (gate counts + schedule
//! length on the proposed layout); each regime maps the workload to an
//! error budget λ and a fidelity `exp(−λ)`:
//!
//! * **NISQ** — CNOTs at `p`, physical single-qubit gates at `p/10`,
//!   measurements at `10p`, virtual `Rz` free (Section 4.4's rates).
//! * **pQEC** — Cliffords/measurements at the logical rate `p_L(d)`,
//!   rotations injected at `23p/30` per attempt × `E[g] = 2` attempts,
//!   memory at `p_L` per patch-cycle. `d` is the largest odd distance
//!   whose layout fits the device.
//! * **qec-conventional** — every rotation becomes `K(ε)` T gates; T
//!   states come from distillation factories that *compete with the
//!   program for space*: more factories → higher production rate but a
//!   smaller program code distance; fewer → long stalls and memory
//!   errors. The model scans the factory count and reports the best.
//! * **qec-cultivation** — same structure with cultivation units.
//!
//! Calibration notes: memory errors are charged at `p_L` per patch per
//! scheduler cycle — conservative, but it is what reproduces the paper's
//! finding that distillation stalls dominate large factories. Fidelities
//! are floored at [`FIDELITY_FLOOR`] (a fully scrambled state retains no
//! useful fidelity; ratios below the floor are not meaningful).

use eftq_circuit::ansatz::{cnots_per_layer, AnsatzKind};
use eftq_circuit::synthesis::ross_selinger_t_count;
use eftq_layout::layouts::LayoutModel;
use eftq_layout::schedule::{schedule_ansatz, ScheduleConfig};
use eftq_qec::{CultivationModel, DeviceModel, FactoryConfig, InjectionModel, SurfaceCodeModel};
use serde::{Deserialize, Serialize};

/// Fidelity floor: below this the state is noise and ratios saturate.
pub const FIDELITY_FLOOR: f64 = 1e-3;

/// Gridsynth precision for the Clifford+T baselines ("hundreds of T gates
/// per rotation for reasonable accuracy", Section 1 — `K(1e-10) = 97`).
pub const SYNTHESIS_PRECISION: f64 = 1e-10;

/// Largest code distance the distance-budgeting search considers.
pub const MAX_DISTANCE: usize = 25;

/// Gate-count and schedule summary of one VQA iteration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Logical qubits.
    pub logical_qubits: usize,
    /// Ansatz depth p.
    pub depth: usize,
    /// Total CNOTs.
    pub cx: usize,
    /// Physical (non-virtual) single-qubit gates under NISQ — the `Rx`
    /// rotations of the HEA rotation layers.
    pub physical_1q: usize,
    /// Logical injected rotations under pQEC (`Rx` and `Rz`).
    pub rotations: usize,
    /// Measurements.
    pub measurements: usize,
    /// Critical-path cycles on the proposed layout.
    pub cycles: usize,
    /// Tiles of the proposed layout.
    pub tiles: usize,
    /// Rotation slots in series on one qubit (rotation layers × 2).
    pub serial_rotation_slots: usize,
}

impl Workload {
    fn from_ansatz(kind: AnsatzKind, n: usize, depth: usize) -> Workload {
        let sched = schedule_ansatz(
            kind,
            n,
            depth,
            &LayoutModel::proposed(),
            &ScheduleConfig::default(),
        );
        Workload {
            logical_qubits: n,
            depth,
            cx: cnots_per_layer(kind, n).expect("closed-form ansatz") * depth,
            physical_1q: n * (depth + 1),
            rotations: 2 * n * (depth + 1),
            measurements: n,
            cycles: sched.cycles,
            tiles: sched.tiles,
            serial_rotation_slots: 2 * (depth + 1),
        }
    }

    /// A fully-connected hardware-efficient ansatz iteration (the Figure-4
    /// and Figure-13 workload).
    pub fn fche(n: usize, depth: usize) -> Workload {
        Workload::from_ansatz(AnsatzKind::FullyConnectedHea, n, depth)
    }

    /// A `blocked_all_to_all` iteration (Figures 11 and 14).
    ///
    /// # Panics
    ///
    /// Panics unless `n = 4k + 4`.
    pub fn blocked(n: usize, depth: usize) -> Workload {
        Workload::from_ansatz(AnsatzKind::BlockedAllToAll, n, depth)
    }

    /// A linear hardware-efficient iteration.
    pub fn linear(n: usize, depth: usize) -> Workload {
        Workload::from_ansatz(AnsatzKind::LinearHea, n, depth)
    }
}

/// Result of the pQEC fidelity model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PqecReport {
    /// Iteration fidelity.
    pub fidelity: f64,
    /// Chosen code distance.
    pub distance: usize,
    /// Physical qubits occupied.
    pub physical_qubits: usize,
}

/// Result of the Clifford+T baseline models.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CliffordTReport {
    /// Iteration fidelity.
    pub fidelity: f64,
    /// Program code distance.
    pub distance: usize,
    /// Factories / cultivation units deployed.
    pub units: usize,
    /// Execution time in scheduler cycles (including stalls).
    pub cycles: f64,
    /// Total T gates consumed.
    pub t_count: usize,
}

/// NISQ iteration fidelity (no device constraint — NISQ runs on bare
/// qubits).
pub fn nisq_fidelity(w: &Workload, p_phys: f64) -> f64 {
    let lambda = w.cx as f64 * p_phys
        + w.physical_1q as f64 * p_phys / 10.0
        + w.measurements as f64 * (10.0 * p_phys).min(0.45);
    (-lambda).exp().max(FIDELITY_FLOOR)
}

/// Largest odd distance (3..=[`MAX_DISTANCE`]) whose `tiles` patches fit
/// `budget` physical qubits.
fn best_distance(tiles: usize, budget: usize) -> Option<usize> {
    let mut best = None;
    let mut d = 3;
    while d <= MAX_DISTANCE {
        if tiles * (2 * d * d - 1) <= budget {
            best = Some(d);
        }
        d += 2;
    }
    best
}

/// pQEC iteration fidelity on a device, or `None` when even `d = 3` does
/// not fit.
pub fn pqec_fidelity(w: &Workload, device: &DeviceModel) -> Option<PqecReport> {
    let distance = best_distance(w.tiles, device.physical_qubits)?;
    let code = SurfaceCodeModel::new(distance, device.p_phys);
    let inj = InjectionModel::new(distance, device.p_phys);
    let p_l = code.logical_error_rate();
    // Rotations consume injected states serially per qubit; consumption
    // windows extend the schedule.
    let cycles =
        w.cycles as f64 + w.serial_rotation_slots as f64 * code.consumption_cycles() as f64;
    let lambda = w.cx as f64 * p_l
        + w.rotations as f64 * inj.expected_attempts() * inj.rz_error_rate()
        + w.measurements as f64 * p_l
        + w.tiles as f64 * cycles * p_l;
    Some(PqecReport {
        fidelity: (-lambda).exp().max(FIDELITY_FLOOR),
        distance,
        physical_qubits: w.tiles * (2 * distance * distance - 1),
    })
}

/// qec-conventional iteration fidelity with a given factory design,
/// scanning the factory count for the best space/throughput trade-off.
/// Returns `None` when no (program, ≥1 factory) split fits the device.
pub fn conventional_fidelity(
    w: &Workload,
    device: &DeviceModel,
    factory: &FactoryConfig,
) -> Option<CliffordTReport> {
    let t_per_rotation = ross_selinger_t_count(SYNTHESIS_PRECISION);
    let t_total = w.rotations * t_per_rotation;
    let max_factories = device.physical_qubits / factory.physical_qubits;
    let mut best: Option<CliffordTReport> = None;
    for n_fact in 1..=max_factories {
        let leftover = device.leftover(n_fact * factory.physical_qubits);
        let Some(distance) = best_distance(w.tiles, leftover) else {
            continue;
        };
        let code = SurfaceCodeModel::new(distance, device.p_phys);
        let p_l = code.logical_error_rate();
        let production = factory.production_rate(n_fact); // states/cycle
        let t_serial = w.serial_rotation_slots as f64
            * t_per_rotation as f64
            * code.consumption_cycles() as f64;
        let t_stall = t_total as f64 / production;
        let cycles = w.cycles as f64 + t_serial.max(t_stall);
        let lambda = w.cx as f64 * p_l
            + t_total as f64 * factory.output_error(device.p_phys)
            + t_total as f64 * p_l // T consumptions are lattice surgery ops
            + w.rotations as f64 * SYNTHESIS_PRECISION
            + w.measurements as f64 * p_l
            + w.tiles as f64 * cycles * p_l;
        let report = CliffordTReport {
            fidelity: (-lambda).exp().max(FIDELITY_FLOOR),
            distance,
            units: n_fact,
            cycles,
            t_count: t_total,
        };
        if best.map_or(true, |b| report.fidelity > b.fidelity) {
            best = Some(report);
        }
    }
    best
}

/// qec-conventional with the best factory from the Section-3.2 catalog.
pub fn conventional_fidelity_best_factory(
    w: &Workload,
    device: &DeviceModel,
) -> Option<CliffordTReport> {
    eftq_qec::FACTORY_CATALOG
        .iter()
        .filter_map(|f| conventional_fidelity(w, device, f))
        .max_by(|a, b| a.fidelity.partial_cmp(&b.fidelity).unwrap())
}

/// qec-cultivation iteration fidelity (Section 3.4), scanning the unit
/// count.
pub fn cultivation_fidelity(w: &Workload, device: &DeviceModel) -> Option<CliffordTReport> {
    let t_per_rotation = ross_selinger_t_count(SYNTHESIS_PRECISION);
    let t_total = w.rotations * t_per_rotation;
    let mut best: Option<CliffordTReport> = None;
    // Scan the program distance: cultivation units fill whatever is left.
    let mut d = 3;
    while d <= MAX_DISTANCE {
        let program_qubits = w.tiles * (2 * d * d - 1);
        if program_qubits > device.physical_qubits {
            break;
        }
        let model = CultivationModel::new(d, device.p_phys);
        let units = model.units_in(device.leftover(program_qubits));
        if units == 0 {
            d += 2;
            continue;
        }
        let code = SurfaceCodeModel::new(d, device.p_phys);
        let p_l = code.logical_error_rate();
        let t_serial = w.serial_rotation_slots as f64
            * t_per_rotation as f64
            * code.consumption_cycles() as f64;
        let t_stall = t_total as f64 * model.cycles_between_states(units);
        let cycles = w.cycles as f64 + t_serial.max(t_stall);
        let lambda = w.cx as f64 * p_l
            + t_total as f64 * model.output_error()
            + t_total as f64 * p_l
            + w.rotations as f64 * SYNTHESIS_PRECISION
            + w.measurements as f64 * p_l
            + w.tiles as f64 * cycles * p_l;
        let report = CliffordTReport {
            fidelity: (-lambda).exp().max(FIDELITY_FLOOR),
            distance: d,
            units,
            cycles,
            t_count: t_total,
        };
        if best.map_or(true, |b| report.fidelity > b.fidelity) {
            best = Some(report);
        }
        d += 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eft() -> DeviceModel {
        DeviceModel::eft_default()
    }

    #[test]
    fn workload_counts_fche() {
        let w = Workload::fche(12, 1);
        assert_eq!(w.cx, 66);
        assert_eq!(w.rotations, 48);
        assert_eq!(w.physical_1q, 24);
        assert_eq!(w.cycles, 75); // 7N − 9
        assert_eq!(w.tiles, 24);
    }

    #[test]
    fn pqec_beats_nisq_at_12_qubits() {
        let w = Workload::fche(12, 1);
        let pqec = pqec_fidelity(&w, &eft()).unwrap();
        let nisq = nisq_fidelity(&w, 1e-3);
        assert!(pqec.fidelity > nisq, "{} vs {nisq}", pqec.fidelity);
        // The distance search may exceed the paper's d = 11 when spare
        // space allows (more distance never hurts pQEC).
        assert!(pqec.distance >= 11, "{}", pqec.distance);
    }

    /// Figure 4's headline: pQEC ≥ qec-conventional for every factory
    /// configuration at 12–24 qubits on the 10k device, and the advantage
    /// grows with qubit count for the sweet-spot factory.
    #[test]
    fn fig4_pqec_dominates_conventional() {
        for n in [12usize, 16, 20, 24] {
            let w = Workload::fche(n, 1);
            let pqec = pqec_fidelity(&w, &eft()).unwrap();
            for f in &eftq_qec::FACTORY_CATALOG {
                let conv = conventional_fidelity(&w, &eft(), f);
                if let Some(conv) = conv {
                    assert!(
                        pqec.fidelity >= conv.fidelity * 0.999,
                        "n = {n}, {}: pQEC {} vs conv {}",
                        f.name,
                        pqec.fidelity,
                        conv.fidelity
                    );
                }
            }
        }
    }

    #[test]
    fn fig4_sweet_spot_advantage_grows_with_size() {
        let sweet = &eftq_qec::FACTORY_CATALOG[2]; // (15-to-1)_{11,5,5}
        let ratio = |n: usize| {
            let w = Workload::fche(n, 1);
            let p = pqec_fidelity(&w, &eft()).unwrap().fidelity;
            let c = conventional_fidelity(&w, &eft(), sweet).unwrap().fidelity;
            p / c
        };
        let r12 = ratio(12);
        let r24 = ratio(24);
        assert!(r12 >= 1.0, "{r12}");
        assert!(r24 > r12, "{r24} vs {r12}");
        // The paper's inset: sweet-spot ratios sit around 1–2.5.
        assert!(r12 < 4.0, "{r12}");
    }

    #[test]
    fn fig4_small_factory_is_worst() {
        let w = Workload::fche(16, 1);
        let small = conventional_fidelity(&w, &eft(), &eftq_qec::FACTORY_CATALOG[0])
            .unwrap()
            .fidelity;
        let sweet = conventional_fidelity(&w, &eft(), &eftq_qec::FACTORY_CATALOG[2])
            .unwrap()
            .fidelity;
        assert!(small < sweet, "{small} vs {sweet}");
    }

    /// Figure 5's frontier: on a big device a small program is better off
    /// with conventional QEC; at the device frontier pQEC wins.
    #[test]
    fn fig5_frontier_dynamics() {
        let big = DeviceModel::new(60_000, 1e-3);
        let small_program = Workload::fche(12, 1);
        let conv = conventional_fidelity_best_factory(&small_program, &big).unwrap();
        let pqec = pqec_fidelity(&small_program, &big).unwrap();
        assert!(
            conv.fidelity > pqec.fidelity,
            "{} vs {}",
            conv.fidelity,
            pqec.fidelity
        );

        let frontier_program = Workload::fche(40, 1);
        let conv2 = conventional_fidelity_best_factory(&frontier_program, &eft());
        let pqec2 = pqec_fidelity(&frontier_program, &eft()).unwrap();
        let conv2_f = conv2.map_or(0.0, |c| c.fidelity);
        assert!(pqec2.fidelity > conv2_f, "{} vs {conv2_f}", pqec2.fidelity);
    }

    /// Figure 6: cultivation wins for small programs, pQEC wins as logical
    /// qubits grow.
    #[test]
    fn fig6_cultivation_crossover() {
        let small = Workload::fche(12, 1);
        let cult = cultivation_fidelity(&small, &eft()).unwrap();
        let pqec = pqec_fidelity(&small, &eft()).unwrap();
        assert!(
            cult.fidelity > pqec.fidelity,
            "small: cult {} vs pqec {}",
            cult.fidelity,
            pqec.fidelity
        );

        let large = Workload::fche(60, 1);
        let cult2 = cultivation_fidelity(&large, &eft()).map_or(0.0, |c| c.fidelity);
        let pqec2 = pqec_fidelity(&large, &eft()).unwrap();
        assert!(
            pqec2.fidelity > cult2,
            "large: {} vs {cult2}",
            pqec2.fidelity
        );
    }

    #[test]
    fn infeasible_layouts_return_none() {
        let w = Workload::fche(40, 1);
        let tiny = DeviceModel::new(500, 1e-3);
        assert!(pqec_fidelity(&w, &tiny).is_none());
        assert!(conventional_fidelity(&w, &tiny, &eftq_qec::FACTORY_CATALOG[0]).is_none());
    }

    #[test]
    fn fidelity_floor_applies() {
        // A hopeless configuration floors rather than underflowing.
        let w = Workload::fche(24, 8);
        let f = conventional_fidelity(&w, &eft(), &eftq_qec::FACTORY_CATALOG[0]).unwrap();
        assert!(f.fidelity >= FIDELITY_FLOOR);
    }

    #[test]
    fn bigger_device_never_hurts_pqec() {
        let w = Workload::fche(20, 1);
        let small = pqec_fidelity(&w, &DeviceModel::new(12_000, 1e-3)).unwrap();
        let big = pqec_fidelity(&w, &DeviceModel::new(60_000, 1e-3)).unwrap();
        assert!(big.fidelity >= small.fidelity);
        assert!(big.distance >= small.distance);
    }

    #[test]
    fn nisq_fidelity_decreases_with_size() {
        let f12 = nisq_fidelity(&Workload::fche(12, 1), 1e-3);
        let f24 = nisq_fidelity(&Workload::fche(24, 1), 1e-3);
        assert!(f24 < f12);
    }
}
