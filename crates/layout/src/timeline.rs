//! Event-level schedule timelines: the per-operation spacetime accounting
//! of Section 4 (`V_op = t_op × N_op`, `V_circ = Σ V_op`).
//!
//! The closed-form scheduler ([`crate::schedule`]) produces critical-path
//! lengths; this module expands a scheduled ansatz into the actual
//! sequence of lattice-surgery events — CNOT clusters, alignment
//! rotations, magic-state consumptions — each with its start cycle,
//! duration and patch footprint, so `V_circ` can be computed the way the
//! paper defines it (as a *sum over operations*, not tiles × wall-clock)
//! and the two accountings can be compared.

use crate::layouts::LayoutModel;
use crate::schedule::ScheduleConfig;
use eftq_circuit::AnsatzKind;
use serde::{Deserialize, Serialize};

/// Kind of a lattice-surgery event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A single-control fan-out CNOT cluster (Figure 9).
    CnotCluster {
        /// Targets in the cluster.
        targets: usize,
    },
    /// Patch-rotation alignment between clusters.
    Alignment,
    /// A magic-state consumption window for one `Rz`.
    RotationConsumption,
    /// The trailing fix-up of a cross-row layer.
    Fixup,
}

/// One scheduled event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// What happens.
    pub kind: EventKind,
    /// Start cycle.
    pub start: usize,
    /// Duration in cycles.
    pub duration: usize,
    /// Patches engaged (`N_op` of Section 4's metric 1).
    pub patches: usize,
}

impl Event {
    /// The operation's spacetime volume `V_op = t_op × N_op`.
    pub fn volume(&self) -> usize {
        self.duration * self.patches
    }

    /// End cycle (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.duration
    }
}

/// A full timeline for one ansatz layer sequence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<Event>,
    makespan: usize,
}

impl Timeline {
    /// The events, in start order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Critical-path length (cycles).
    pub fn makespan(&self) -> usize {
        self.makespan
    }

    /// The paper's metric 3: `V_circ = Σ_op V_op` (patch-cycles).
    pub fn operation_volume(&self) -> usize {
        self.events.iter().map(Event::volume).sum()
    }

    /// The coarse accounting used by Table 1: tiles × makespan.
    pub fn envelope_volume(&self, tiles: usize) -> usize {
        tiles * self.makespan
    }
}

/// Expands an ansatz schedule on the proposed layout into events.
///
/// The critical path reproduces [`crate::schedule::schedule_ansatz`]'s
/// cycle count exactly (a property the tests pin). Rotation consumptions
/// run *concurrently* with the CNOT stream on the layout's injection
/// sites, so they add operation volume but not makespan (Section 4.1).
pub fn ansatz_timeline(kind: AnsatzKind, n: usize, depth: usize, cfg: &ScheduleConfig) -> Timeline {
    let k = LayoutModel::block_parameter_for(n);
    let layout = LayoutModel::proposed();
    let mut events = Vec::new();
    let mut clock = 0usize;
    for _layer in 0..depth {
        match kind {
            AnsatzKind::FullyConnectedHea => {
                for cluster in 0..n - 1 {
                    if cluster > 0 {
                        events.push(Event {
                            kind: EventKind::Alignment,
                            start: clock,
                            duration: cfg.cross_row_alignment,
                            patches: 2,
                        });
                        clock += cfg.cross_row_alignment;
                    }
                    let targets = n - 1 - cluster;
                    events.push(Event {
                        kind: EventKind::CnotCluster { targets },
                        start: clock,
                        duration: cfg.cluster_cycles,
                        patches: targets + 2, // control + targets + route
                    });
                    clock += cfg.cluster_cycles;
                }
                events.push(Event {
                    kind: EventKind::Fixup,
                    start: clock,
                    duration: cfg.final_fixup,
                    patches: 1,
                });
                clock += cfg.final_fixup;
            }
            AnsatzKind::BlockedAllToAll => {
                // Two blocks in parallel: emit both blocks' clusters at the
                // same start cycles.
                let mut block_clock = clock;
                for cluster in 0..2 * k {
                    if cluster > 0 {
                        for _ in 0..2 {
                            events.push(Event {
                                kind: EventKind::Alignment,
                                start: block_clock,
                                duration: cfg.in_block_alignment,
                                patches: 2,
                            });
                        }
                        block_clock += cfg.in_block_alignment;
                    }
                    for _ in 0..2 {
                        events.push(Event {
                            kind: EventKind::CnotCluster { targets: 2 * k - 1 },
                            start: block_clock,
                            duration: cfg.cluster_cycles,
                            patches: 2 * k + 1,
                        });
                    }
                    block_clock += cfg.cluster_cycles;
                }
                clock = block_clock;
                for _link in 0..8 {
                    events.push(Event {
                        kind: EventKind::CnotCluster { targets: 1 },
                        start: clock,
                        duration: cfg.cluster_cycles,
                        patches: 3,
                    });
                    clock += cfg.cluster_cycles;
                }
            }
            AnsatzKind::LinearHea => {
                for cluster in 0..n - 1 {
                    if cluster > 0 {
                        events.push(Event {
                            kind: EventKind::Alignment,
                            start: clock,
                            duration: cfg.in_block_alignment,
                            patches: 2,
                        });
                        clock += cfg.in_block_alignment;
                    }
                    events.push(Event {
                        kind: EventKind::CnotCluster { targets: 1 },
                        start: clock,
                        duration: cfg.cluster_cycles,
                        patches: 3,
                    });
                    clock += cfg.cluster_cycles;
                }
            }
        }
        // Rotation consumptions pipeline against the layer on the magic
        // sites: 2N rotations per layer, each engaging a data patch, a
        // magic patch and a route for 2d cycles — concurrent, so they
        // start within the layer window.
        let sites = layout.parallel_injection_sites(n).max(1);
        let window = 22; // 2d at the EFT default distance
        for r in 0..2 * n {
            let start = clock.saturating_sub(cfg.cluster_cycles) + (r / sites) * window / 8;
            events.push(Event {
                kind: EventKind::RotationConsumption,
                start,
                duration: window,
                patches: 3,
            });
        }
    }
    let makespan = clock;
    Timeline { events, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule_ansatz;

    fn cfg() -> ScheduleConfig {
        ScheduleConfig::default()
    }

    #[test]
    fn makespan_matches_closed_form_schedule() {
        let ours = LayoutModel::proposed();
        for kind in [
            AnsatzKind::FullyConnectedHea,
            AnsatzKind::BlockedAllToAll,
            AnsatzKind::LinearHea,
        ] {
            for n in [20usize, 40, 60] {
                let t = ansatz_timeline(kind, n, 1, &cfg());
                let s = schedule_ansatz(kind, n, 1, &ours, &cfg());
                assert_eq!(t.makespan(), s.cycles, "{kind:?} n = {n}");
            }
        }
    }

    #[test]
    fn events_are_ordered_and_positive() {
        let t = ansatz_timeline(AnsatzKind::FullyConnectedHea, 12, 2, &cfg());
        assert!(!t.events().is_empty());
        for e in t.events() {
            assert!(e.duration > 0);
            assert!(e.patches > 0);
            assert!(e.volume() == e.duration * e.patches);
        }
    }

    #[test]
    fn operation_volume_below_envelope_volume() {
        // Σ V_op counts only engaged patches, so it is bounded by the
        // tiles × makespan envelope... except rotation pipelining can
        // overlap past the makespan; compare against the envelope with
        // the consumption tail included.
        let n = 40;
        let t = ansatz_timeline(AnsatzKind::FullyConnectedHea, n, 1, &cfg());
        let tiles = LayoutModel::proposed().total_tiles(n);
        let horizon = t.events().iter().map(Event::end).max().unwrap();
        assert!(
            t.operation_volume() <= tiles * horizon,
            "{} vs {}",
            t.operation_volume(),
            tiles * horizon
        );
    }

    #[test]
    fn blocked_runs_blocks_concurrently() {
        let t = ansatz_timeline(AnsatzKind::BlockedAllToAll, 20, 1, &cfg());
        // At every cluster start there are exactly two concurrent block
        // cluster events (one per block) until the linking phase.
        let first = t
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CnotCluster { .. }) && e.start == 0)
            .count();
        assert_eq!(first, 2);
    }

    #[test]
    fn rotation_events_do_not_extend_makespan() {
        let t = ansatz_timeline(AnsatzKind::LinearHea, 12, 1, &cfg());
        let cnot_end = t
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::RotationConsumption))
            .map(Event::end)
            .max()
            .unwrap();
        assert_eq!(t.makespan(), cnot_end);
    }

    #[test]
    fn depth_scales_event_count() {
        let one = ansatz_timeline(AnsatzKind::LinearHea, 10, 1, &cfg());
        let three = ansatz_timeline(AnsatzKind::LinearHea, 10, 3, &cfg());
        assert_eq!(three.events().len(), 3 * one.events().len());
        assert!(three.makespan() >= 3 * one.makespan());
    }
}
