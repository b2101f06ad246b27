//! Per-layer probes shared by the workloads. Each probe drives one layer
//! through its public calls on the workload's own inputs, so a layer
//! metric means the same thing on every workload: that layer's cost at
//! that workload's shapes.

use crate::common::{timed, Report};
use crate::stats::{dense_flops, fnv1a_f32, median, self_time_by_name};
use crate::trace::{SpanId, Tracer};
use fillvoid_core::features::{FeatureExtractor, FeatureScratch};
use fillvoid_core::normalize::CoordFrame;
use fillvoid_core::FcnnPipeline;
use fv_field::{Grid3, ScalarField};
use fv_interp::{linear::LinearReconstructor, Reconstructor};
use fv_linalg::{GemmScratch, Matrix};
use fv_nn::{InferWorkspace, Mlp};
use fv_runtime::telemetry;
use fv_sampling::PointCloud;
use fv_spatial::delaunay::WalkCursor;
use fv_spatial::{Delaunay3, KdTree};
use rayon::prelude::*;

/// Query rows a reconstruction predicts: the voids when `target` is the
/// cloud's own grid, every node otherwise (as `reconstruct_with` does).
pub fn queries(cloud: &PointCloud, target: &Grid3) -> Vec<usize> {
    if cloud.grid() == target {
        cloud.void_indices()
    } else {
        (0..target.num_points()).collect()
    }
}

/// Where one traced reconstruction spent its time.
#[derive(Debug, Default, Clone)]
pub struct ReconBreakdown {
    /// Whole call.
    pub total_s: f64,
    /// `FeatureExtractor::features_for_into`, summed over batches.
    pub features_s: f64,
    /// `Mlp::forward_with`, summed over batches.
    pub forward_s: f64,
    /// Scatter + denormalise of predictions into the output grid.
    pub epilogue_s: f64,
    /// Rows predicted.
    pub rows: usize,
    /// Prediction batches.
    pub batches: usize,
}

/// Buffers [`traced_reconstruct`] keeps across calls, as
/// `ReconstructWorkspace` does for the library call.
#[derive(Debug)]
pub struct ReplicaWorkspace {
    features: Matrix<f32>,
    scratch: FeatureScratch,
    infer: InferWorkspace,
}

impl Default for ReplicaWorkspace {
    fn default() -> Self {
        Self {
            features: Matrix::zeros(0, 0),
            scratch: FeatureScratch::default(),
            infer: InferWorkspace::default(),
        }
    }
}

/// `FcnnPipeline::reconstruct_with` rebuilt from the public calls it is
/// made of, with a span around each. The output must be bitwise equal to
/// the library call's; the caller checks that.
pub fn traced_reconstruct(
    model: &FcnnPipeline,
    cloud: &PointCloud,
    target: &Grid3,
    ws: &mut ReplicaWorkspace,
    tracer: &mut Tracer,
    parent: SpanId,
) -> (ScalarField, ReconBreakdown) {
    let first = tracer.len();
    let root = tracer.begin("core.reconstruct", parent, 0);
    let frame = CoordFrame::of_grid(target);
    let norm = *model.value_norm();
    let extractor = {
        let s = tracer.begin("core.extractor_new", root, 0);
        let e = FeatureExtractor::new(cloud, *model.feature_config());
        tracer.end(s);
        e
    };
    let mut out = ScalarField::zeros(*target);
    if cloud.grid() == target {
        for (pos, &idx) in cloud.indices().iter().enumerate() {
            out.values_mut()[idx] = cloud.values()[pos];
        }
    }
    let q = queries(cloud, target);
    let ReplicaWorkspace {
        features,
        scratch,
        infer,
    } = ws;
    for chunk in q.chunks(model.prediction_batch()) {
        let s = tracer.begin("core.features", root, 0);
        extractor.features_for_into(target, &frame, &norm, chunk, features, scratch);
        tracer.end(s);
        let s = tracer.begin("nn.forward", root, 0);
        let pred = model
            .mlp()
            .forward_with(features, infer)
            .expect("feature width matches the model");
        tracer.end(s);
        let s = tracer.begin("core.epilogue", root, 0);
        for (row, &idx) in chunk.iter().enumerate() {
            out.values_mut()[idx] = norm.denormalize(pred[(row, 0)]);
        }
        tracer.end(s);
    }
    tracer.end(root);
    let spans = tracer.since(first);
    let mut b = ReconBreakdown {
        total_s: spans.first().map_or(0.0, |s| s.end - s.start),
        rows: q.len(),
        batches: q.len().div_ceil(model.prediction_batch()),
        ..Default::default()
    };
    for (name, t) in self_time_by_name(&spans) {
        match name {
            "core.features" => b.features_s = t,
            "nn.forward" => b.forward_s = t,
            "core.epilogue" => b.epilogue_s = t,
            _ => {}
        }
    }
    (out, b)
}

/// k-d tree build and batched k-nearest time for the queries of one
/// reconstruction, batched as the reconstruction batches them.
pub fn knn_probe(cloud: &PointCloud, target: &Grid3, k: usize, batch: usize) -> (f64, f64, usize) {
    let builds: Vec<f64> = (0..3)
        .map(|_| timed(|| KdTree::build(cloud.positions())).1)
        .collect();
    let tree = KdTree::build(cloud.positions());
    let q = queries(cloud, target);
    let mut pos = Vec::new();
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut knn_s = 0.0;
    for chunk in q.chunks(batch) {
        pos.clear();
        pos.extend(chunk.iter().map(|&i| target.world_linear(i)));
        knn_s +=
            timed(|| tree.k_nearest_batch_into(cloud.positions(), &pos, k, &mut out, &mut scratch))
                .1;
    }
    (median(&builds), knn_s, q.len())
}

/// Delaunay-linear reconstruction rebuilt from `Delaunay3::build` and
/// `Delaunay3::interpolate` (nearest-sample fill outside the hull), timed
/// per stage. Returns `(field, delaunay_build_s, eval_s)`.
pub fn linear_probe(cloud: &PointCloud, target: &Grid3) -> (ScalarField, f64, f64) {
    let (tri, build_s) = timed(|| Delaunay3::build(cloud.positions()).expect("cloud triangulates"));
    let (data, eval_s) = timed(|| {
        let tree = KdTree::build(cloud.positions());
        let (positions, values) = (cloud.positions(), cloud.values());
        let [nx, ny, _] = target.dims();
        let mut data = vec![0.0f32; target.num_points()];
        data.par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(kz, slab)| {
                let mut cursor = WalkCursor::default();
                for j in 0..ny {
                    for i in 0..nx {
                        let p = target.world([i, j, kz]);
                        slab[i + nx * j] = match tri.interpolate(p, values, &mut cursor) {
                            Some(v) => v as f32,
                            None => {
                                values[tree.nearest(positions, p).expect("non-empty cloud").index]
                            }
                        };
                    }
                }
            });
        data
    });
    (
        ScalarField::from_vec(*target, data).expect("grid-sized buffer"),
        build_s,
        eval_s,
    )
}

/// Run `LinearReconstructor` once and check every value is finite.
pub fn linear_reconstruct(
    report: &mut Report,
    cloud: &PointCloud,
    target: &Grid3,
) -> (ScalarField, f64) {
    let (out, s) = timed(|| LinearReconstructor::default().reconstruct(cloud, target));
    let ok = out
        .as_ref()
        .is_ok_and(|f| f.values().iter().all(|v| v.is_finite()));
    report.check(ok, || {
        format!(
            "linear reconstruction failed or is non-finite: {:?}",
            out.as_ref().err()
        )
    });
    (out.unwrap_or_else(|_| ScalarField::zeros(*target)), s)
}

/// Per-layer inference time and rate: each layer of `mlp` run alone
/// (`Mlp::from_layers` + `forward_with`, the reconstruct path) on the
/// activations the previous layer produced from `x`. FLOPs come from the
/// shapes. Returns `(label, seconds, gflops)` per layer.
pub fn layer_probe(mlp: &Mlp, x: &Matrix<f32>, reps: usize) -> Vec<(String, f64, f64)> {
    let mut input = x.clone();
    let mut rows = Vec::new();
    for layer in mlp.layers() {
        let single = Mlp::from_layers(vec![layer.clone()]).expect("one valid layer");
        let mut ws = InferWorkspace::default();
        single.forward_with(&input, &mut ws).expect("width matches");
        let times: Vec<f64> = (0..reps)
            .map(|_| timed(|| single.forward_with(&input, &mut ws).map(|_| ())).1)
            .collect();
        let s = median(&times);
        let flops = dense_flops(input.rows(), layer.input_size(), layer.output_size());
        rows.push((
            format!("{}x{}", layer.input_size(), layer.output_size()),
            s,
            flops / s / 1e9,
        ));
        input = single
            .forward_with(&input, &mut ws)
            .expect("width matches")
            .clone();
    }
    rows
}

/// Best GEMM rate of `matmul_transpose_b_into_with` on a compute-bound
/// 2048×512·(512×512)ᵀ product: the host peak the layer rates are
/// compared with.
pub fn peak_gflops() -> f64 {
    let (m, n, k) = (2048usize, 512usize, 512usize);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 97) as f32 * 0.021 - 1.0);
    let w = Matrix::from_fn(n, k, |r, c| ((r * 13 + c * 5) % 89) as f32 * 0.023 - 1.0);
    let mut c = Matrix::zeros(0, 0);
    let mut scratch = GemmScratch::default();
    a.matmul_transpose_b_into_with(&w, &mut c, &mut scratch)
        .expect("shapes agree");
    let best = (0..7)
        .map(|_| timed(|| a.matmul_transpose_b_into_with(&w, &mut c, &mut scratch)).1)
        .fold(f64::INFINITY, f64::min);
    dense_flops(m, k, n) / best / 1e9
}

/// Encode and decode times of a `Reconstruct` response carrying `field`.
pub fn proto_probe(report: &mut Report, field: &ScalarField) -> (f64, f64) {
    use fv_serve::proto::ReconstructResp;
    let resp = ReconstructResp {
        values: field.values().to_vec(),
        reason: String::new(),
    };
    let reps = (2_000_000 / field.values().len().max(1)).clamp(5, 200);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut ok = true;
    for _ in 0..reps {
        let (bytes, e) = timed(|| resp.encode());
        let (back, d) = timed(|| ReconstructResp::decode(&bytes));
        ok &= back.is_ok_and(|b| fnv1a_f32(&b.values) == fnv1a_f32(&resp.values));
        enc.push(e);
        dec.push(d);
    }
    report.check(ok, || "proto response did not round-trip bitwise".into());
    (median(&enc), median(&dec))
}

/// Run `f` with the program's telemetry on, returning its result and the
/// snapshot of what the existing sites recorded meanwhile.
pub fn with_telemetry<R>(f: impl FnOnce() -> R) -> (R, telemetry::Snapshot) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let r = f();
    telemetry::set_enabled(false);
    (r, telemetry::snapshot())
}

/// Total seconds a telemetry site recorded.
fn site_s(snap: &telemetry::Snapshot, name: &str) -> f64 {
    snap.sites
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// Spans a telemetry site recorded.
pub fn site_count(snap: &telemetry::Snapshot, name: &str) -> u64 {
    snap.sites
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.count)
}

/// Value of a telemetry counter.
fn counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Record the `linalg.gemm.*` and `runtime.pool.*` metrics from a
/// telemetry window around `calls` runs of the workload's main operation,
/// per call.
pub fn report_gemm_and_pool(report: &mut Report, snap: &telemetry::Snapshot, calls: usize) {
    let per = calls.max(1) as f64;
    let pack = site_s(snap, "linalg.gemm.pack") / per;
    let kernel = site_s(snap, "linalg.gemm.kernel") / per;
    report.metric("linalg.gemm.pack_s", pack, "s");
    report.metric("linalg.gemm.kernel_s", kernel, "s");
    report.metric(
        "linalg.gemm.pack_bytes",
        counter(snap, "linalg.gemm.pack_bytes") as f64 / per,
        "bytes",
    );
    report.metric(
        "linalg.gemm.pack_share",
        pack / (pack + kernel).max(1e-12),
        "share",
    );
    report.metric(
        "runtime.pool.jobs",
        counter(snap, "pool.jobs") as f64 / per,
        "count",
    );
    report.metric(
        "runtime.pool.steals",
        counter(snap, "pool.steals") as f64 / per,
        "count",
    );
}

/// Sequential and parallel dispatch decisions taken by the granularity
/// policy while `f` ran.
pub fn dispatch_counts<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    use fv_runtime::granularity::{dispatch_stats, reset_dispatch_stats};
    reset_dispatch_stats();
    let r = f();
    let stats = dispatch_stats();
    (
        r,
        stats.iter().map(|d| d.seq).sum(),
        stats.iter().map(|d| d.par).sum(),
    )
}
