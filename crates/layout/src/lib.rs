//! Surface-code patch layouts, lattice-surgery scheduling and
//! spacetime-volume accounting (Section 4 of the paper).
//!
//! * [`layouts`] — the paper's Figure-3 layout (parameterized by `k`, with
//!   its `4(k+1)/(6(k+2))` packing efficiency) and the Compact /
//!   Intermediate / Fast (Litinski) and Grid baselines of Table 1.
//! * [`schedule`] — the lattice-surgery cost model of Figure 9 (4-cycle
//!   in-row fan-out CNOT clusters, 8-cycle cross-row CNOTs, patch-rotation
//!   alignment) and the per-ansatz schedules that reproduce Table 2's cycle
//!   counts exactly (`blocked_all_to_all`: 2.5N + 21; FCHE: 7N − 9).
//! * [`shuffling`] — the patch-shuffling strategy of Section 4.2 versus the
//!   naive b-backup strategy (Figure 8).
//!
//! # Examples
//!
//! ```
//! use eftq_layout::layouts::{LayoutKind, LayoutModel};
//!
//! let ours = LayoutModel::proposed();
//! // ≈67% packing efficiency for large k (Section 4.1).
//! assert!(ours.packing_efficiency(164) > 0.64);
//! assert_eq!(ours.kind(), LayoutKind::Proposed);
//! ```

#![deny(missing_docs)]

pub mod grid;
pub mod layouts;
pub mod schedule;
pub mod shuffling;
pub mod timeline;

pub use grid::{PatchGrid, TileRole};
pub use layouts::{LayoutKind, LayoutModel};
pub use schedule::{schedule_ansatz, ScheduleConfig, ScheduleReport};
pub use shuffling::{naive_backup_volume, patch_shuffling_volume, RotationStrategyReport};
pub use timeline::{ansatz_timeline, Event, EventKind, Timeline};
