//! # fv-serve — reconstruction as a service
//!
//! A multi-tenant TCP server that serves [`fillvoid_core::FcnnPipeline`]
//! reconstructions over a zero-dependency binary protocol (`FVS1`,
//! length-prefixed + CRC-checked frames, same framing family as the FVF2
//! volume and FVPL pipeline formats). Four layers:
//!
//! 1. **Model registry** ([`registry`]) — loads pretrained / fine-tuned
//!    pipelines from FVPL files or [`fillvoid_core::checkpoint::CheckpointStore`]
//!    directories, keyed by `(dataset, model_version)`, LRU-evicted under
//!    a byte budget.
//! 2. **Session manager** ([`session`]) — per-tenant sessions holding the
//!    uploaded sample cloud, per-tenant telemetry counters, and the
//!    in-flight admission cap (RAII slots, panic-safe).
//! 3. **Micro-batcher** ([`batcher`]) — coalesces concurrent requests
//!    for the same model into shared packed forward passes through one
//!    reusable inference workspace, flushing on size or deadline. Row
//!    packing is bitwise-identical to per-request
//!    [`fillvoid_core::FcnnPipeline::reconstruct`] because every query row
//!    is an independent dot product.
//! 4. **Admission + degradation** ([`Breaker`], [`server`]) — bounded
//!    queues, per-tenant in-flight caps, per-request deadlines via
//!    [`fv_runtime::ExecCtx`], and a circuit breaker that demotes a
//!    failing model to classical IDW interpolation with a typed
//!    `Degraded` response instead of an outage.
//!
//! On top of those, the **model lifecycle** (DESIGN.md §16): hot-swap
//! promotion with canary validation and session draining
//! ([`ModelRegistry::promote`]), connection watchdogs (idle reaping,
//! per-frame I/O deadlines, write budgets — [`server`]), and a
//! self-healing client ([`Client::connect_healing`]) whose retries ride
//! idempotent request ids answered from a short-lived server-side reply
//! cache ([`session::ReplyCache`]).
//!
//! Protocol spec: DESIGN.md §14. Bench: `exp serve` (BENCH_serve.json).

pub mod batcher;
pub mod client;
pub mod error;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;
pub mod stream;

pub use batcher::{AfterFlush, BatchConfig, MicroBatcher};
pub use fillvoid_core::breaker::{self, Breaker, BreakerState};
pub use client::{Client, ClientError, RetryPolicy, ServedBrick, ServedField, StreamSummary};
pub use error::ServeError;
pub use proto::{ErrorCode, Op, Status, VERSION_ACTIVE};
pub use registry::{fingerprint_f32, CanarySpec, ModelEntry, ModelRegistry, SwapStats};
pub use server::{ServeConfig, Server};
pub use session::{ReplyCache, SessionManager, TenantStats};
pub use stream::{BrickScheduler, StreamConfig};
