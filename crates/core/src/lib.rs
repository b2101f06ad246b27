//! # fillvoid-core
//!
//! The paper's primary contribution: data-driven FCNN reconstruction of
//! sampled spatiotemporal scientific simulation data.
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! 1. a full-resolution timestep is importance-sampled down to 0.1%–5% of
//!    its points (`fv-sampling`);
//! 2. grid nodes are partitioned into *sampled points* and *void
//!    locations*; for every void location, [`features`] builds the paper's
//!    `[1×23]` vector from the five nearest sampled points (normalized into
//!    a resolution- and domain-independent frame — the key to Experiment
//!    3's cross-resolution transfer);
//! 3. a five-hidden-layer FCNN ([`fv_nn`]) is trained to predict the
//!    `[1×4]` output — scalar value plus x/y/z gradients — on the union of
//!    a 1% and a 5% sampling (the "1%+5% model" of Fig. 7);
//! 4. [`pipeline::FcnnPipeline::reconstruct`] fills every void of an
//!    arbitrarily-sampled cloud, at any resolution, in one batched forward
//!    pass.
//!
//! Supporting modules: [`metrics`] (SNR as defined in Sec. IV), [`breaker`]
//! (the circuit breaker shared by [`insitu`] and `fv-serve`), [`timesteps`]
//! (Experiment 2 workflows with Case 1/Case 2 fine-tuning), [`upscale`]
//! (Experiment 3), [`experiment`] (sweep harnesses shared by the `exp`
//! driver) and [`render`] (qualitative slice dumps, Figs. 2–3).

pub mod breaker;
pub mod brick;
pub mod checkpoint;
pub mod error;
pub mod ensemble;
pub mod experiment;
pub mod features;
pub mod insitu;
pub mod metrics;
pub mod normalize;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod timesteps;
pub mod upscale;

/// Chaos plans are process-global; every test in this binary that installs
/// one must hold this lock so concurrently running tests cannot bleed
/// injected faults into each other.
#[cfg(test)]
pub(crate) static CHAOS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use brick::{reconstruct_bricked, BrickReconConfig, BrickRunReport, BrickStreamer};
pub use error::CoreError;
pub use features::FeatureScratch;
pub use pipeline::{FcnnPipeline, PipelineConfig, ReconstructWorkspace, DEFAULT_PREDICTION_BATCH};
