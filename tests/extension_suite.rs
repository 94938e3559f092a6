//! Integration tests for the extensions built from the paper's discussion
//! and future-work sections: zero-noise extrapolation under pQEC, the
//! Optimal-Parameter-Resilience transfer, multi-round injection and the
//! lattice-surgery event timeline.

use eft_vqa::hamiltonians::ising_1d;
use eft_vqa::opr::parameter_transfer;
use eft_vqa::vqe::VqeConfig;
use eft_vqa::zne::{energy_at_scale, zne_energy};
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::AnsatzKind;
use eftq_layout::timeline::ansatz_timeline;
use eftq_layout::ScheduleConfig;
use eftq_qec::{InjectionModel, MultiRoundInjection};

/// ZNE composes with pQEC: extrapolating the injected-rotation channel
/// recovers most of the noiseless energy.
#[test]
fn zne_composes_with_pqec() {
    let h = ising_1d(5, 1.0);
    let a = fully_connected_hea(5, 1);
    let params: Vec<f64> = (0..a.num_params()).map(|i| 0.19 * i as f64).collect();
    let regime = ExecutionRegime::pqec_default();
    let ideal = energy_at_scale(&a, &params, &regime, &h, 0.0);
    let noisy = energy_at_scale(&a, &params, &regime, &h, 1.0);
    let zne = zne_energy(&a, &params, &regime, &h, &[1.0, 2.0, 3.0]);
    assert!((zne.extrapolated - ideal).abs() < (noisy - ideal).abs());
}

/// OPR transfer holds under both regimes on the Ising workload.
#[test]
fn opr_transfer_holds() {
    let h = ising_1d(4, 0.5);
    let a = fully_connected_hea(4, 1);
    let config = VqeConfig {
        max_iters: 150,
        restarts: 2,
        ..VqeConfig::default()
    };
    for regime in [
        ExecutionRegime::pqec_default(),
        ExecutionRegime::nisq_default(),
    ] {
        let r = parameter_transfer(&a, &h, &regime, &config, 15);
        assert!(r.opr_holds(), "{}: {r:?}", regime.name());
    }
}

/// Multi-round injection: three rounds cut the pQEC rotation error ~3x
/// while staying shuffle-feasible — a better pQEC operating point.
#[test]
fn multi_round_injection_improves_pqec_budget() {
    let base = InjectionModel::eft_default();
    let three = MultiRoundInjection::new(base, 3);
    assert!(three.rz_error_rate() < base.rz_error_rate() / 3.0);
    assert!(three.shuffle_feasible());
    // The paper's headline rotation budget at n = 24 (192 injections)
    // drops proportionally.
    let budget_base = 192.0 * base.rz_error_rate();
    let budget_three = 192.0 * three.rz_error_rate();
    assert!(budget_three < budget_base / 3.0);
}

/// The event timeline's makespan matches the closed-form scheduler and
/// its per-op volume is self-consistent.
#[test]
fn timeline_consistency() {
    let cfg = ScheduleConfig::default();
    let t = ansatz_timeline(AnsatzKind::BlockedAllToAll, 20, 1, &cfg);
    assert_eq!(t.makespan(), 71); // Table 2
    assert!(t.operation_volume() > 0);
    let tiles = eftq_layout::LayoutModel::proposed().total_tiles(20);
    assert!(t.envelope_volume(tiles) >= 71 * tiles);
}
