//! The per-layer metrics every workload reports for its model: the
//! reconstruct path (kNN, features, forward, epilogue, GEMM, pool), the
//! paper layer table, the linear baseline, the wire payload, and the
//! set-up fit.

use crate::common::{timed, Report, SYSTEM_SEED};
use crate::probes::{
    dispatch_counts, knn_probe, layer_probe, linear_probe, peak_gflops, proto_probe, queries,
    report_gemm_and_pool, site_count, traced_reconstruct, with_telemetry, ReconBreakdown,
    ReplicaWorkspace,
};
use crate::stats::{backward_flops, fnv1a_f32, forward_flops, median};
use crate::trace::{Tracer, ROOT};
use fillvoid_core::normalize::ValueNorm;
use fillvoid_core::pipeline::{build_training_set, PipelineConfig};
use fillvoid_core::{FcnnPipeline, ReconstructWorkspace};
use fv_field::{Grid3, ScalarField};
use fv_nn::{Mlp, Trainer, TrainerConfig};
use fv_runtime::alloc::allocation_count;
use fv_runtime::telemetry;
use fv_runtime::Pool;
use fv_sampling::PointCloud;

/// A reconstruction the workload performs, and the fingerprint of its
/// output as the library call produced it.
pub struct ReconCase<'a> {
    pub model: &'a FcnnPipeline,
    pub cloud: &'a PointCloud,
    pub target: &'a Grid3,
    pub fingerprint: u64,
    /// Rows per layer-probe batch: the forward batch this workload runs.
    pub layer_rows: usize,
}

/// Layer widths of a pipeline's network, input first.
pub fn widths(model: &FcnnPipeline) -> Vec<usize> {
    let mlp = model.mlp();
    std::iter::once(mlp.input_size())
        .chain(mlp.layers().iter().map(|l| l.output_size()))
        .collect()
}

/// Largest share of the traced reconstruction its printed layer self
/// times may leave unattributed.
const RESIDUAL_SHARE: f64 = 0.05;

/// Largest share of the library call's time by which the traced replica's
/// total may depart from it, beyond the tracing overhead. Interleaved
/// calls on a shared 2-vCPU host differ by up to about 10%.
const REPLICA_SHARE: f64 = 0.25;

/// The program's telemetry sites `reconstruct_with` passes through.
const RECON_SITES: [&str; 4] = [
    "recon",
    "recon.batch",
    "core.feature_build",
    "spatial.knn_batch",
];

/// Run `f`, adding the spans each of [`RECON_SITES`] recorded meanwhile to
/// `into`.
fn count_recon_sites<R>(into: &mut [u64; 4], f: impl FnOnce() -> R) -> R {
    let counts = || {
        let snap = telemetry::snapshot();
        RECON_SITES.map(|site| site_count(&snap, site))
    };
    let before = counts();
    let r = f();
    for ((n, after), before) in into.iter_mut().zip(counts()).zip(before) {
        *n += after - before;
    }
    r
}

/// The library call and its traced replica, side by side, for
/// [`check_replica`].
struct Replica {
    /// [`RECON_SITES`] spans of the library calls.
    real_sites: [u64; 4],
    /// [`RECON_SITES`] spans of the replicas.
    replica_sites: [u64; 4],
    calls: usize,
    /// Prediction batches per call in the replica.
    batches: usize,
    /// Median library call, telemetry on.
    real_s: f64,
    /// Median replica total.
    traced_s: f64,
    overhead_s: f64,
}

/// Check that the traced replica still describes `reconstruct_with`: the
/// library call makes one `recon` span per call, one `recon.batch` per
/// replica batch, and as many feature builds and batched k-nearest calls
/// as the replica; and the replica's total departs from the library
/// call's by no more than the tracing overhead plus [`REPLICA_SHARE`].
fn check_replica(report: &mut Report, r: &Replica) {
    let want = [
        r.calls as u64,
        (r.calls * r.batches) as u64,
        r.replica_sites[2],
        r.replica_sites[3],
    ];
    for ((site, got), n) in RECON_SITES.iter().zip(r.real_sites).zip(want) {
        report.check(got == n && n > 0, || {
            format!(
                "reconstruct_with recorded {got} `{site}` spans, the traced replica implies {n}"
            )
        });
    }
    let allowed = r.overhead_s.abs() + REPLICA_SHARE * r.real_s;
    println!(
        "# traced replica {:.6} s, reconstruct_with with telemetry {:.6} s, allowed departure {allowed:.6} s",
        r.traced_s, r.real_s
    );
    report.check((r.traced_s - r.real_s).abs() <= allowed, || {
        format!(
            "traced replica takes {:.6} s, reconstruct_with {:.6} s (allowed departure {allowed:.6} s)",
            r.traced_s, r.real_s
        )
    });
}

/// Record every reconstruct-path layer metric for `case`.
pub fn report_recon_layers(report: &mut Report, case: &ReconCase, tracer: &mut Tracer) {
    let ReconCase {
        model,
        cloud,
        target,
        fingerprint,
        layer_rows,
    } = *case;
    let mut ws = ReconstructWorkspace::default();
    let check = |report: &mut Report, what: &str, out: &ScalarField| {
        let fp = fnv1a_f32(out.values());
        report.check(fp == fingerprint, || {
            format!("{what} fingerprint {fp:016x} != {fingerprint:016x}")
        });
    };

    // Untraced library call on a warm workspace: the base the trace is
    // compared with, and its steady-state allocation count. Small
    // reconstructions are repeated (about a second in all) and every
    // per-call figure below is a median or a per-call mean over the reps.
    let (out, first_s) = timed(|| {
        model
            .reconstruct_with(cloud, target, &mut ws)
            .expect("reconstruct")
    });
    check(report, "reconstruct_with", &out);
    let reps = ((1.0 / first_s).round() as usize).clamp(1, 50);
    let mut plain = Vec::new();
    let mut allocs = 0;
    for _ in 0..reps {
        let a0 = allocation_count();
        let (out, s) = timed(|| {
            model
                .reconstruct_with(cloud, target, &mut ws)
                .expect("reconstruct")
        });
        allocs = allocation_count() - a0;
        plain.push(s);
        check(report, "reconstruct_with", &out);
    }
    let plain_s = median(&plain);

    // The same reconstruction rebuilt from its public calls on its own
    // warm buffers, spans on, interleaved with the library call itself.
    // Program telemetry is on for both: its `linalg.gemm.*` and `pool.*`
    // sites give the GEMM and pool figures (the two run the same GEMMs),
    // and the [`RECON_SITES`] spans of each say how it is structured.
    let mut replica_ws = ReplicaWorkspace::default();
    let (warm, _) = traced_reconstruct(model, cloud, target, &mut replica_ws, tracer, ROOT);
    check(report, "traced reconstruct", &warm);
    let (mut real_sites, mut replica_sites) = ([0; 4], [0; 4]);
    let ((real, runs), snap) = with_telemetry(|| {
        let (mut real, mut runs) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let (out, s) = count_recon_sites(&mut real_sites, || {
                timed(|| {
                    model
                        .reconstruct_with(cloud, target, &mut ws)
                        .expect("reconstruct")
                })
            });
            check(report, "reconstruct_with", &out);
            real.push(s);
            runs.push(count_recon_sites(&mut replica_sites, || {
                traced_reconstruct(model, cloud, target, &mut replica_ws, tracer, ROOT)
            }));
        }
        (real, runs)
    });
    for (out, _) in &runs {
        check(report, "traced reconstruct", out);
    }
    let per =
        |f: fn(&ReconBreakdown) -> f64| median(&runs.iter().map(|(_, b)| f(b)).collect::<Vec<_>>());
    report_gemm_and_pool(report, &snap, 2 * reps);

    let k = model.feature_config().k;
    let knn: Vec<_> = (0..reps)
        .map(|_| knn_probe(cloud, target, k, model.prediction_batch()))
        .collect();
    let knn_s = median(&knn.iter().map(|p| p.1).collect::<Vec<_>>());
    let features_s = per(|b| b.features_s);
    report.metric(
        "spatial.kdtree_build_s",
        median(&knn.iter().map(|p| p.0).collect::<Vec<_>>()),
        "s",
    );
    report.metric("spatial.knn_s", knn_s, "s");
    report.metric("spatial.knn_queries", knn[0].2 as f64, "count");
    report.metric("core.features_s", features_s, "s");
    report.metric("core.features_self_s", features_s - knn_s, "s");
    report.metric("core.recon_epilogue_s", per(|b| b.epilogue_s), "s");
    let forward_s = per(|b| b.forward_s);
    report.metric("nn.forward_s", forward_s, "s");
    let traced_s = per(|b| b.total_s);
    let overhead_s = traced_s - plain_s;
    report.metric("trace.recon_s", traced_s, "s");
    report.metric("trace.overhead_s", overhead_s, "s");
    report.metric("core.recon_allocs", allocs as f64, "count");

    // What the printed layer self times leave of the traced call: the k-d
    // tree build inside `FeatureExtractor::new` and the root's own scatter
    // of the known samples. The printed layers must account for nearly
    // all of the call.
    let residual_s = per(|b| b.total_s - b.features_s - b.forward_s - b.epilogue_s);
    report.metric("trace.residual_s", residual_s, "s");
    println!(
        "# layer self times {:.6} s + residual {residual_s:.6} s = traced {traced_s:.6} s; untraced {plain_s:.6} s, overhead {overhead_s:.6} s",
        traced_s - residual_s
    );
    report.check(
        (0.0..=RESIDUAL_SHARE * traced_s).contains(&residual_s),
        || {
            format!(
                "layer self times leave {residual_s:.6} s of the traced {traced_s:.6} s reconstruction unattributed"
            )
        },
    );
    check_replica(
        report,
        &Replica {
            real_sites,
            replica_sites,
            calls: reps,
            batches: runs[0].1.batches,
            real_s: median(&real),
            traced_s,
            overhead_s,
        },
    );
    let b = &runs[0].1;

    // Paper layer table at this workload's forward rows.
    let widths = widths(model);
    let q = queries(cloud, target);
    let rows = layer_rows.min(q.len()).max(1);
    let frame = fillvoid_core::normalize::CoordFrame::of_grid(target);
    let x = fillvoid_core::features::FeatureExtractor::new(cloud, *model.feature_config())
        .features_for(target, &frame, model.value_norm(), &q[..rows]);
    let layer_reps = ((2e9 / forward_flops(&widths, rows)) as usize).clamp(3, 200);
    let peak = peak_gflops();
    report.metric("linalg.peak_gflops", peak, "GFLOP/s");
    for (label, s, gflops) in layer_probe(model.mlp(), &x, layer_reps) {
        report.metric(format!("nn.layer.{label}.s"), s, "s");
        report.metric(format!("nn.layer.{label}.gflops"), gflops, "GFLOP/s");
    }
    let fwd_gflops = forward_flops(&widths, b.rows) / forward_s / 1e9;
    report.metric("nn.forward.peak_share", fwd_gflops / peak, "share");

    // Thread scaling of the same call: one worker under `Pool::install`
    // against the default pool (`FV_THREADS` workers) the workload uses.
    // The two-worker side deliberately avoids `Pool::new(2).install`:
    // fine-tunes driven from a two-worker pool's own worker hit a write
    // fault inside fv-runtime (one run in twelve on a 2-vCPU Xeon).
    let mut timed_recon = |threads: Option<Pool>| {
        let mut ws = ReconstructWorkspace::default();
        let mut call = || {
            timed(|| {
                model
                    .reconstruct_with(cloud, target, &mut ws)
                    .expect("reconstruct")
            })
        };
        let mut run = || match &threads {
            Some(pool) => pool.install(&mut call),
            None => call(),
        };
        run();
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let (out, s) = run();
                check(report, "scaling reconstruct", &out);
                s
            })
            .collect();
        median(&times)
    };
    let one = timed_recon(Some(Pool::new(1)));
    let two = timed_recon(None);
    report.metric("runtime.recon_1t_s", one, "s");
    report.metric("runtime.recon_scaling", one / two, "ratio");

    // Linear baseline, stage by stage, checked against the library call.
    let (lib, _) = crate::probes::linear_reconstruct(report, cloud, target);
    let (mut delaunay, mut eval) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(3) {
        let (linear, d, e) = linear_probe(cloud, target);
        report.check(
            fnv1a_f32(linear.values()) == fnv1a_f32(lib.values()),
            || "stage-by-stage linear reconstruction differs from LinearReconstructor".into(),
        );
        delaunay.push(d);
        eval.push(e);
    }
    report.metric("spatial.delaunay_build_s", median(&delaunay), "s");
    report.metric("interp.linear_eval_s", median(&eval), "s");

    let (enc, dec) = proto_probe(report, &out);
    report.metric("serve.proto.encode_s", enc, "s");
    report.metric("serve.proto.decode_s", dec, "s");
}

/// Record the training-layer metrics for the set-up fit of the workload:
/// `FcnnPipeline::train` rebuilt from `build_training_set` and
/// `Trainer::fit`, with the same seed.
pub fn report_pretrain_layers(
    report: &mut Report,
    field: &ScalarField,
    cfg: &PipelineConfig,
    widths: &[usize],
) {
    let norm = ValueNorm::fit(field.values());
    let (data, set_s) =
        timed(|| build_training_set(field, cfg, &norm, SYSTEM_SEED).expect("training set"));
    report.metric("core.training_set_s", set_s, "s");
    let fit = || {
        let mut mlp = Mlp::regression(
            widths[0],
            &cfg.hidden,
            widths[widths.len() - 1],
            SYSTEM_SEED,
        );
        Trainer::new(TrainerConfig {
            seed: SYSTEM_SEED,
            ..cfg.trainer.clone()
        })
        .fit(&mut mlp, &data)
        .expect("fit")
    };

    // Default pool for the figures and the two-worker time, one worker
    // under `Pool::install` for the scaling base (see report_recon_layers).
    let a0 = allocation_count();
    let (h, seq, par) = dispatch_counts(fit);
    let allocs = allocation_count() - a0;
    let (h2, two) = timed(fit);
    let one = Pool::new(1).install(|| timed(fit).1);
    report.check(h.epoch_loss == h2.epoch_loss, || {
        "training is not repeatable".into()
    });

    let t = h2.timings;
    let epochs = cfg.trainer.epochs;
    let steps = epochs * data.len().div_ceil(cfg.trainer.batch_size);
    let rows_seen = (epochs * data.len()) as f64;
    report.metric("nn.train.data_s", t.data_s, "s");
    report.metric("nn.train.forward_s", t.forward_s, "s");
    report.metric("nn.train.backward_s", t.backward_s, "s");
    report.metric("nn.train.optim_s", t.optim_s, "s");
    report.metric("nn.train.steps", steps as f64, "count");
    report.metric(
        "nn.train.forward_gflops",
        forward_flops(widths, 1) * rows_seen / t.forward_s / 1e9,
        "GFLOP/s",
    );
    report.metric(
        "nn.train.backward_gflops",
        backward_flops(widths, 1) * rows_seen / t.backward_s / 1e9,
        "GFLOP/s",
    );
    report.metric("runtime.fit_1t_s", one, "s");
    report.metric("runtime.fit_scaling", one / two, "ratio");
    report.metric("runtime.seq_ops", seq as f64, "count");
    report.metric("runtime.par_ops", par as f64, "count");
    report.metric("nn.train_allocs", allocs as f64, "count");
}
