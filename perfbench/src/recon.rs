//! `recon-paper`: offline whole-grid reconstruction at the paper's shape
//! (Fig. 10). isabel at `Scale::Medium` (125×125×25 = 390,625 voxels), a
//! 3% importance sample, the paper-width FCNN; each iteration runs
//! `reconstruct_with` on a warm workspace, then the Delaunay-linear
//! baseline on the same cloud and grid. No training code is timed.

use crate::common::{
    check_fingerprint, isabel, median_and_tail, paper_width_config, peak_rss_mb, timed, Args,
    Report, CLOUD_FRACTION, SETUPS, SYSTEM_SEED,
};
use crate::model::{report_pretrain_layers, report_recon_layers, widths, ReconCase};
use crate::probes::linear_reconstruct;
use crate::stats::{fnv1a_f32, median};
use crate::trace::Tracer;
use fillvoid_core::metrics::snr_db;
use fillvoid_core::pipeline::PipelineConfig;
use fillvoid_core::{FcnnPipeline, ReconstructWorkspace};
use fv_field::ScalarField;
use fv_sampling::{FieldSampler, ImportanceSampler, PointCloud};
use fv_sims::Scale;
use std::time::Instant;

const WORKLOAD: &str = "recon-paper";
/// Share of the training sample's void rows the model is fitted on.
const TRAIN_ROWS: f64 = 0.02;
/// Epochs of the set-up training budget.
const TRAIN_EPOCHS: usize = 2;

struct Inputs {
    field: ScalarField,
    cloud: PointCloud,
    model: FcnnPipeline,
    sample_s: f64,
}

fn config() -> PipelineConfig {
    paper_width_config(CLOUD_FRACTION, TRAIN_ROWS, TRAIN_EPOCHS)
}

/// Data generation, sampling and the short model fit.
fn setup(seed: u64) -> Inputs {
    let sim = isabel(Scale::Medium);
    let field = sim.timestep(sim.num_timesteps() / 2);
    let (cloud, sample_s) =
        timed(|| ImportanceSampler::default().sample(&field, CLOUD_FRACTION, seed));
    let model = FcnnPipeline::train(&field, &config(), SYSTEM_SEED).expect("paper-width training");
    Inputs {
        field,
        cloud,
        model,
        sample_s,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut samples = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (i, s) = timed(|| setup(args.seed));
        setups.push(s);
        samples.push(i.sample_s);
        inputs = Some(i);
    }
    let Inputs {
        field,
        cloud,
        model,
        ..
    } = inputs.expect("at least one set-up");
    let grid = *field.grid();

    let mut ws = ReconstructWorkspace::default();
    let first = model
        .reconstruct_with(&cloud, &grid, &mut ws)
        .expect("reconstruct");
    let fp = fnv1a_f32(first.values());
    check_fingerprint(&mut report, WORKLOAD, "recon", args.seed, fp);

    if args.trace {
        let mut tracer = Tracer::new(Instant::now(), true);
        report.metric("sampling.importance_s", median(&samples), "s");
        let case = ReconCase {
            model: &model,
            cloud: &cloud,
            target: &grid,
            fingerprint: fp,
            layer_rows: model.prediction_batch(),
        };
        report_recon_layers(&mut report, &case, &mut tracer);

        report_pretrain_layers(&mut report, &field, &config(), &widths(&model));

        let (_, unloaded) = timed(|| {
            model
                .reconstruct_with(&cloud, &grid, &mut ws)
                .expect("reconstruct");
            linear_reconstruct(&mut report, &cloud, &grid)
        });
        report.metric("task.unloaded_s", unloaded, "s");
        crate::serve::report_no_server(&mut report);
        let _ = tracer.write_jsonl(&crate::common::trace_path(WORKLOAD, args.seed));
        return report;
    }

    let (mut recon, mut linear, mut task) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || recon.len() < 3 {
        let (out, r) = timed(|| {
            model
                .reconstruct_with(&cloud, &grid, &mut ws)
                .expect("reconstruct")
        });
        let got = fnv1a_f32(out.values());
        report.check(got == fp, || {
            format!("iteration fingerprint {got:016x} != {fp:016x}")
        });
        let (_, l) = linear_reconstruct(&mut report, &cloud, &grid);
        recon.push(r);
        linear.push(l);
        task.push(r + l);
    }
    let (task_s, tail_s, p) = median_and_tail(&task);
    report.metric("recon_s", median(&recon), "s");
    report.metric("linear_recon_s", median(&linear), "s");
    report.metric("recon_snr_db", snr_db(&field, &first), "dB");
    report.metric("task_s", task_s, "s");
    report.metric(
        "task_rate",
        task.len() as f64 / task.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "# {} iterations over {} voxels from {} samples; task tail (p{p}) {tail_s:.4} s; FCNN/linear = {:.2}",
        recon.len(),
        grid.num_points(),
        cloud.len(),
        median(&recon) / median(&linear)
    );
    report
}
