//! # fv-field
//!
//! Regular-grid scalar fields and the operations the `fillvoid` workspace
//! performs on them.
//!
//! A scientific simulation timestep in this workspace is a [`ScalarField`]:
//! a [`Grid3`] (dimensions, physical origin and spacing) plus one `f32` per
//! grid node. The crate provides:
//!
//! * [`grid`] — index ↔ world-coordinate mapping, linearization, iteration;
//! * [`volume`] — the field container, constructors (including parallel
//!   evaluation of analytic functions), reductions and normalization;
//! * [`gradient`] — central-difference gradients (the FCNN's auxiliary
//!   training targets);
//! * [`stats`] — means/variances and value histograms (the importance
//!   sampler's rarity criterion);
//! * [`resample`] — trilinear sampling and down/up-sampling between
//!   resolutions (Experiment 3);
//! * [`io`] — a compact little-endian binary format plus a legacy-VTK ASCII
//!   writer for inspection in ParaView-like tools;
//! * [`brick`] — fixed-geometry domain decomposition and a crash-safe
//!   on-disk brick store with an atomically-updated completion ledger
//!   (the out-of-core substrate, DESIGN.md §13).
//!
//! Conventions: indices are `[i, j, k]` with `i` fastest (x), matching the
//! `x + nx*(y + ny*z)` linearization used by the VTK structured-points
//! format the paper's pipeline reads and writes.

pub mod brick;
pub mod error;
pub mod faults;
pub mod gradient;
pub mod grid;
pub mod io;
pub mod resample;
pub mod stats;
pub mod volume;

pub use brick::{BrickLayout, BrickStore};
pub use error::FieldError;
pub use grid::Grid3;
pub use volume::ScalarField;
