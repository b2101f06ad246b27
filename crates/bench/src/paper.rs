//! The paper's figures and tables (Figs. 2–3 and 6–14, Tables I–II) plus
//! the ablation and extension studies, one function per `exp` section.
//!
//! Absolute dB values and seconds differ from the paper on the surrogate
//! data and CPU-only hosts; EXPERIMENTS.md records, per section, the
//! paper's shape that must reproduce and what this repository measures.

use crate::{db, pct, secs, ExpOpts};
use fillvoid_core::ensemble::EnsemblePipeline;
use fillvoid_core::experiment::{
    format_table, hidden_layer_sweep, method_sweep, variant_series, FcnnReconstructor, MethodRow,
    VariantSeries,
};
use fillvoid_core::metrics::snr_db;
use fillvoid_core::pipeline::{
    FcnnPipeline, FineTuneCase, FineTuneSpec, PipelineConfig, TrainCorpus,
};
use fillvoid_core::render::save_slice_pgm;
use fillvoid_core::timesteps::{baseline_replay, replay, ReplayConfig};
use fillvoid_core::upscale::{upscale_study, UpscaleConfig};
use fv_field::ScalarField;
use fv_interp::linear::LinearReconstructor;
use fv_interp::natural::NaturalNeighborReconstructor;
use fv_interp::nearest::NearestReconstructor;
use fv_interp::shepard::ShepardReconstructor;
use fv_interp::Reconstructor;
use fv_nn::serialize;
use fv_sampling::{
    FieldSampler, ImportanceSampler, RandomSampler, RegularSampler, StratifiedSampler,
    ValueStratifiedSampler,
};
use fv_sims::{DatasetSpec, Simulation};
use fv_spatial::gridindex::GridIndex;
use fv_spatial::KdTree;
use std::time::Instant;

/// The isabel surrogate and its mid-run timestep, the workload of every
/// single-timestep isabel study.
pub(crate) fn isabel_mid(opts: &ExpOpts) -> (Box<dyn Simulation>, ScalarField) {
    let spec = DatasetSpec::by_name("isabel").expect("isabel is registered");
    let sim = opts.build(spec);
    let field = sim.timestep(sim.num_timesteps() / 2);
    (sim, field)
}

fn print_table(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(header, rows));
}

/// The scale's pipeline configuration with one study's change applied.
fn config(opts: &ExpOpts, edit: impl FnOnce(&mut PipelineConfig)) -> PipelineConfig {
    let mut config = opts.pipeline_config();
    edit(&mut config);
    config
}

/// Train one model per `(label, config)` variant on `field` and score each
/// across the sampling axis.
fn variants(
    opts: &ExpOpts,
    field: &ScalarField,
    variants: impl IntoIterator<Item = (String, PipelineConfig)>,
) -> Vec<VariantSeries> {
    let fractions = opts.fraction_axis();
    variants
        .into_iter()
        .map(|(label, config)| {
            eprintln!("[variants] training {label} ...");
            variant_series(field, &label, &config, &fractions, opts.seed).expect("variant trains")
        })
        .collect()
}

/// Print a table whose first column is the sampling axis and whose other
/// columns are one series each.
fn print_series(opts: &ExpOpts, header: &[&str], series: &[VariantSeries]) {
    let rows: Vec<Vec<String>> = opts
        .fraction_axis()
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let mut row = vec![pct(f)];
            row.extend(series.iter().map(|s| db(s.points[i].1)));
            row
        })
        .collect();
    print_table(header, &rows);
}

/// Fig. 6 — SNR vs number of hidden layers (isabel, 3%).
pub fn fig06(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    // Depth d uses the first d rungs of the paper's width ladder, padded
    // with 8-wide layers beyond five (the paper's deep variants).
    let ladder = [512usize, 256, 128, 64, 16, 8, 8, 8, 8];
    let config = opts.pipeline_config();
    let rows = hidden_layer_sweep(
        &field,
        &ladder,
        &[1, 3, 5, 7, 9],
        &config,
        &[0.03],
        opts.seed,
    )
    .expect("sweep");
    println!("# Fig. 6 — SNR vs hidden layer count (isabel, 3% sampling)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.depth.to_string(), db(r.snr), secs(r.train_seconds)])
        .collect();
    print_table(&["hidden_layers", "snr_db", "train_s"], &table);
    let best = rows
        .iter()
        .max_by(|a, b| a.snr.partial_cmp(&b.snr).unwrap())
        .expect("non-empty");
    println!("# best depth: {} ({} dB)", best.depth, db(best.snr));
}

/// Fig. 7 — training on 1%, 5% or the 1%+5% union of voids (isabel).
pub fn fig07(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let corpora = [
        ("1%", TrainCorpus::Single(0.01)),
        ("5%", TrainCorpus::Single(0.05)),
        ("1%+5%", TrainCorpus::Union(vec![0.01, 0.05])),
    ];
    let configs = corpora.map(|(l, corpus)| (l.into(), config(opts, |c| c.corpus = corpus)));
    let series = variants(opts, &field, configs);
    println!("# Fig. 7 — SNR vs test sampling % for different training corpora (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    let header = ["test_sampling", "train_1%", "train_5%", "train_1%+5%"];
    print_series(opts, &header, &series);
}

/// Fig. 8 — `[value, gx, gy, gz]` vs `[value]` output layer (isabel).
pub fn fig08(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let no_grad = config(opts, |c| c.features.predict_gradients = false);
    let configs = [
        ("with-gradient".into(), opts.pipeline_config()),
        ("without-gradient".into(), no_grad),
    ];
    let series = variants(opts, &field, configs);
    println!("# Fig. 8 — SNR with vs without gradients in the output layer (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    let header = ["sampling", "with_gradient", "without_gradient"];
    print_series(opts, &header, &series);
    let rates = series[0].points.len();
    let wins = (0..rates)
        .filter(|&i| series[0].points[i].1 > series[1].points[i].1)
        .count();
    println!("# gradient supervision wins at {wins}/{rates} sampling rates");
}

/// One dataset's method sweep: the workload of Figs. 9 and 10.
struct MethodSweep {
    dataset: &'static str,
    dims: [usize; 3],
    rows: Vec<MethodRow>,
}

/// Train the FCNN on every selected dataset and run it against the
/// classical methods at every sampling rate. `sequential_linear` adds the
/// naive single-threaded Delaunay-linear path that only Fig. 10 reports.
fn method_sweeps(opts: &ExpOpts, sequential_linear: bool) -> Vec<MethodSweep> {
    let config = opts.pipeline_config();
    let sweep = |spec: &'static DatasetSpec| {
        let sim = opts.build(spec);
        let field = sim.timestep(sim.num_timesteps() / 2);
        eprintln!("[fig09/10] training FCNN on {} ...", spec.name);
        let pipeline = FcnnPipeline::train(&field, &config, opts.seed).expect("training");
        let fcnn = FcnnReconstructor::new(&pipeline);
        let seq = LinearReconstructor::sequential();
        let par = LinearReconstructor::parallel();
        let shepard = ShepardReconstructor::default();
        let mut methods: Vec<&dyn Reconstructor> = vec![
            &fcnn,
            &seq,
            &par,
            &NaturalNeighborReconstructor,
            &shepard,
            &NearestReconstructor,
        ];
        if !sequential_linear {
            methods.remove(1);
        }
        let fractions = opts.fraction_axis();
        let rows = method_sweep(&field, &methods, &fractions, config.sampler, opts.seed);
        MethodSweep {
            dataset: spec.name,
            dims: field.grid().dims(),
            rows,
        }
    };
    opts.datasets().into_iter().map(sweep).collect()
}

/// Print one method × sampling-rate table, one column per method in sweep
/// order, then a blank line.
fn print_methods(opts: &ExpOpts, rows: &[MethodRow], cell: fn(&MethodRow) -> String) {
    let mut header = vec!["sampling"];
    for r in rows {
        if !header.contains(&r.method.as_str()) {
            header.push(&r.method);
        }
    }
    let table: Vec<Vec<String>> = opts
        .fraction_axis()
        .into_iter()
        .map(|f| {
            let mut row = vec![pct(f)];
            row.extend(header[1..].iter().map(|name| {
                let hit = rows.iter().find(|r| r.fraction == f && r.method == *name);
                hit.map(cell).unwrap_or_else(|| "?".into())
            }));
            row
        })
        .collect();
    print_table(&header, &table);
    println!();
}

fn print_fig09(opts: &ExpOpts, sweeps: &[MethodSweep]) {
    for s in sweeps {
        // Fig. 9 compares quality, so the sequential twin of `linear` (same
        // SNR, Fig. 10's timing contrast) is left out.
        let rows: Vec<MethodRow> = s
            .rows
            .iter()
            .filter(|r| r.method != "linear-seq")
            .cloned()
            .collect();
        println!(
            "# Fig. 9 — SNR (dB) by method and sampling %, dataset = {} {:?}",
            s.dataset, s.dims
        );
        print_methods(opts, &rows, |r| db(r.snr));
        if let Some(base) = &opts.csv {
            let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("fig09");
            let path = base.with_file_name(format!("{stem}-{}.csv", s.dataset));
            let file = std::fs::File::create(&path).expect("create csv");
            fillvoid_core::report::method_rows_csv(&rows, file).expect("write csv");
            eprintln!("[fig09] wrote {}", path.display());
        }
    }
}

fn print_fig10(opts: &ExpOpts, sweeps: &[MethodSweep]) {
    for s in sweeps {
        println!(
            "# Fig. 10 — reconstruction time (s) by method and sampling %, dataset = {} {:?}",
            s.dataset, s.dims
        );
        print_methods(opts, &s.rows, |r| secs(r.seconds));
    }
}

/// Fig. 9 — SNR of the FCNN vs the classical methods, 0.1–5% sampling,
/// all three datasets.
pub fn fig09(opts: &ExpOpts) {
    print_fig09(opts, &method_sweeps(opts, false));
}

/// Fig. 10 — reconstruction time of Fig. 9's workload, with sequential
/// and parallel Delaunay-linear; training is excluded, as in the paper.
pub fn fig10(opts: &ExpOpts) {
    print_fig10(opts, &method_sweeps(opts, true));
}

/// Figs. 9 and 10 from one sweep (one trained FCNN per dataset).
pub fn fig09_fig10(opts: &ExpOpts) {
    let sweeps = method_sweeps(opts, true);
    print_fig09(opts, &sweeps);
    println!();
    print_fig10(opts, &sweeps);
}

/// Fig. 11 — SNR across the isabel run at 3%: linear, and models
/// pretrained at the first and middle step, frozen or fine-tuned each step.
pub fn fig11(opts: &ExpOpts) {
    let (sim, _) = isabel_mid(opts);
    let sim = sim.as_ref();
    let n_steps = sim.num_timesteps();
    // Every 3rd step at tiny/small scale keeps single-core runs
    // interactive; every step at --medium and --full.
    let stride = match opts.scale {
        fv_sims::Scale::Tiny | fv_sims::Scale::Small => 3,
        _ => 1,
    };
    let timesteps: Vec<usize> = (0..n_steps).step_by(stride).collect();
    let config = opts.pipeline_config();
    eprintln!("[fig11] pretraining Pf00 and Pf{:02} ...", n_steps / 2);
    let model_a = FcnnPipeline::train(&sim.timestep(0), &config, opts.seed).unwrap();
    let model_b = FcnnPipeline::train(&sim.timestep(n_steps / 2), &config, opts.seed ^ 1).unwrap();

    let frozen = ReplayConfig {
        fraction: 0.03,
        fine_tune: None,
        seed: opts.seed,
        sampler: config.sampler,
    };
    let tuned = ReplayConfig {
        fine_tune: Some(FineTuneSpec::case1()),
        ..frozen.clone()
    };
    let run = |model: &FcnnPipeline, cfg: &ReplayConfig| {
        replay(sim, &mut model.clone(), &timesteps, cfg).unwrap()
    };
    let linear = LinearReconstructor::default();
    let series = [
        ("linear", baseline_replay(sim, &linear, &timesteps, &frozen)),
        ("fcnn_pf_first", run(&model_a, &frozen)),
        ("fcnn_pf_mid", run(&model_b, &frozen)),
        ("finetune_first", run(&model_a, &tuned)),
        ("finetune_mid", run(&model_b, &tuned)),
    ];

    println!(
        "# Fig. 11 — SNR (dB) across {} timesteps of isabel at 3% sampling (grid {:?})",
        timesteps.len(),
        sim.grid().dims()
    );
    let mut header = vec!["t"];
    header.extend(series.iter().map(|(name, _)| *name));
    let table: Vec<Vec<String>> = timesteps
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut row = vec![t.to_string()];
            row.extend(series.iter().map(|(_, rows)| db(rows[i].snr)));
            row
        })
        .collect();
    print_table(&header, &table);

    if let Some(path) = &opts.csv {
        let labelled: Vec<_> = series
            .iter()
            .map(|(name, rows)| (*name, rows.as_slice()))
            .collect();
        let file = std::fs::File::create(path).expect("create csv");
        fillvoid_core::report::replay_rows_csv(&labelled, file).expect("write csv");
        eprintln!("[fig11] wrote {}", path.display());
    }
}

/// Fig. 12 — loss per epoch: training from scratch vs a Case-1 fine-tune.
pub fn fig12(opts: &ExpOpts) {
    let (sim, _) = isabel_mid(opts);
    eprintln!("[fig12] full training at t=0, then fine-tuning to t=mid ...");
    let config = opts.pipeline_config();
    let mut pipeline = FcnnPipeline::train(&sim.timestep(0), &config, opts.seed).unwrap();
    let full: Vec<f32> = pipeline.history().epoch_loss.clone();
    let mid = sim.num_timesteps() / 2;
    let ft = pipeline
        .fine_tune(&sim.timestep(mid), &FineTuneSpec::case1())
        .unwrap();

    let loss_table = |losses: &[f32]| {
        let table: Vec<Vec<String>> = losses
            .iter()
            .enumerate()
            .map(|(e, l)| vec![e.to_string(), format!("{l:.6}")])
            .collect();
        print_table(&["epoch", "loss"], &table);
    };
    println!("# Fig. 12a — full-training loss per epoch (isabel t=0)");
    loss_table(&full);
    println!("\n# Fig. 12b — fine-tuning loss per epoch (to t={mid}, Case 1)");
    loss_table(&ft.epoch_loss);
    println!(
        "\n# warm-start check: fine-tune epoch-0 loss {:.6} vs full-training epoch-0 loss {:.6}",
        ft.epoch_loss[0], full[0]
    );
}

/// Fig. 13 — upscaling 2× per dimension over a shifted domain: linear,
/// an FCNN trained at high resolution, and the low-resolution FCNN
/// fine-tuned for 10 epochs.
pub fn fig13(opts: &ExpOpts) {
    let (sim, _) = isabel_mid(opts);
    let config = UpscaleConfig {
        t: sim.num_timesteps() / 2,
        refine: 2,
        // The paper modifies the spatial extent of the high-res data; shift
        // by a quarter of the domain.
        domain_shift: [125.0, -60.0, 0.0],
        fractions: opts.fraction_axis(),
        fine_tune_epochs: 10,
        pipeline: opts.pipeline_config(),
        seed: opts.seed,
    };
    eprintln!(
        "[fig13] low-res grid {:?}, training both models ...",
        sim.grid().dims()
    );
    let study = upscale_study(sim.as_ref(), &config).expect("study");
    println!(
        "# Fig. 13b — SNR (dB) reconstructing {:?} (shifted domain) from low-res-trained models",
        study.high_grid.dims()
    );
    let table: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                pct(r.fraction),
                db(r.snr_linear),
                db(r.snr_full),
                db(r.snr_transferred),
            ]
        })
        .collect();
    let header = [
        "sampling",
        "linear",
        "fcnn_full_highres",
        "fcnn_lowres_finetuned",
    ];
    print_table(&header, &table);
}

/// The training-row fractions of Fig. 14 and Table II.
const ROW_FRACTIONS: [f64; 3] = [1.0, 0.5, 0.25];

fn row_fraction_series(opts: &ExpOpts, field: &ScalarField) -> Vec<VariantSeries> {
    let configs = ROW_FRACTIONS.map(|keep| {
        let label = format!("{}% rows", (keep * 100.0) as u32);
        (label, config(opts, |c| c.train_row_fraction = keep))
    });
    variants(opts, field, configs)
}

fn print_fig14(opts: &ExpOpts, field: &ScalarField, series: &[VariantSeries]) {
    println!("# Fig. 14 — SNR when training on a fraction of the training rows (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    let header = ["sampling", "100%_rows", "50%_rows", "25%_rows"];
    print_series(opts, &header, series);
    println!(
        "# training seconds: 100% = {:.2}, 50% = {:.2}, 25% = {:.2}",
        series[0].train_seconds, series[1].train_seconds, series[2].train_seconds
    );
}

/// Table II from one training time per entry of [`ROW_FRACTIONS`].
fn print_table2(opts: &ExpOpts, field: &ScalarField, train_seconds: &[f64]) {
    println!(
        "# Table II — training time vs %% of training rows (isabel {:?}, {} epochs)",
        field.grid().dims(),
        opts.pipeline_config().trainer.epochs
    );
    let table: Vec<Vec<String>> = ROW_FRACTIONS
        .iter()
        .zip(train_seconds)
        .map(|(keep, &t)| {
            let rel = t / train_seconds[0];
            vec![
                format!("{}%", (keep * 100.0) as u32),
                secs(t),
                format!("{rel:.2}x"),
            ]
        })
        .collect();
    print_table(&["rows_kept", "train_s", "relative"], &table);
    println!("# paper (500 epochs): 100% -> 533s, 50% -> 275s (0.52x), 25% -> 161s (0.30x)");
}

/// Fig. 14 — SNR when training on 100/50/25% of the training rows (isabel).
pub fn fig14(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    print_fig14(opts, &field, &row_fraction_series(opts, &field));
}

/// Table II — training time vs kept training rows (isabel).
pub fn table2(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let times = ROW_FRACTIONS.map(|keep| {
        eprintln!("[table2] training on a {keep} fraction of the rows ...");
        let start = Instant::now();
        let cfg = config(opts, |c| c.train_row_fraction = keep);
        FcnnPipeline::train(&field, &cfg, opts.seed).expect("training");
        start.elapsed().as_secs_f64()
    });
    print_table2(opts, &field, &times);
}

/// Fig. 14 and Table II from the same three trainings.
pub fn fig14_table2(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let series = row_fraction_series(opts, &field);
    print_fig14(opts, &field, &series);
    println!();
    let times: Vec<f64> = series.iter().map(|s| s.train_seconds).collect();
    print_table2(opts, &field, &times);
}

/// Table I — training time per dataset, plus isabel at 2× per dimension.
pub fn table1(opts: &ExpOpts) {
    let config = opts.pipeline_config();
    println!(
        "# Table I — training time for {} epochs (scale {:?})",
        config.trainer.epochs, opts.scale
    );
    let mut table = Vec::new();
    let mut timed_row = |name: &str, field: &ScalarField| {
        eprintln!("[table1] training on {name} {:?} ...", field.grid().dims());
        let start = Instant::now();
        FcnnPipeline::train(field, &config, opts.seed).expect("training");
        let d = field.grid().dims();
        let resolution = format!("{}x{}x{}", d[0], d[1], d[2]);
        table.push(vec![
            name.to_string(),
            resolution,
            secs(start.elapsed().as_secs_f64()),
        ]);
    };
    for spec in opts.datasets() {
        let sim = opts.build(spec);
        let t = sim.num_timesteps() / 2;
        let field = sim.timestep(t);
        timed_row(spec.name, &field);
        if spec.name == "isabel" {
            let high_grid = field.grid().refined(2).expect("refine");
            timed_row("isabel-hi", &sim.timestep_on(t, high_grid));
        }
    }
    print_table(&["dataset", "resolution", "train_s"], &table);
    println!("# paper (500 epochs, GPU node): isabel 533s, isabel-hi 3737s, combustion 829s, ionization 5522s");
}

/// Figs. 2–3 — PGM z-slices of the truth and the FCNN, linear and
/// natural-neighbor reconstructions at 1% (combustion and ionization, or
/// the `--dataset`), written to `target/exp_qualitative/`.
pub fn qualitative(opts: &ExpOpts) {
    let out_dir = std::path::Path::new("target/exp_qualitative");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    for spec in opts.datasets() {
        if spec.name == "isabel" && opts.dataset.is_none() {
            continue; // the paper's qualitative figures use the other two
        }
        let sim = opts.build(spec);
        let field = sim.timestep(sim.num_timesteps() / 2);
        let plane = field.grid().dims()[2] / 2;
        let config = opts.pipeline_config();
        eprintln!("[qualitative] training FCNN on {} ...", spec.name);
        let pipeline = FcnnPipeline::train(&field, &config, opts.seed).expect("training");
        let cloud = ImportanceSampler::new(config.sampler).sample(&field, 0.01, opts.seed);
        save_slice_pgm(
            &field,
            plane,
            out_dir.join(format!("{}_truth.pgm", spec.name)),
        )
        .expect("write truth");
        println!("# {} (1% sampling, z-slice {plane})", spec.name);
        let fcnn = FcnnReconstructor::new(&pipeline);
        let linear = LinearReconstructor::default();
        let methods: [&dyn Reconstructor; 3] = [&fcnn, &linear, &NaturalNeighborReconstructor];
        for method in methods {
            let recon = method
                .reconstruct(&cloud, field.grid())
                .expect("reconstruct");
            let path = out_dir.join(format!("{}_{}.pgm", spec.name, method.name()));
            save_slice_pgm(&recon, plane, &path).expect("write slice");
            let snr = db(snr_db(&field, &recon));
            println!("  {:>8}: SNR {snr} dB -> {}", method.name(), path.display());
        }
    }
}

/// Ablation: absolute (paper) vs void-relative neighbor coordinates.
pub fn ablation_features(opts: &ExpOpts) {
    for spec in opts.datasets() {
        let sim = opts.build(spec);
        let field = sim.timestep(sim.num_timesteps() / 2);
        let relative = config(opts, |c| c.features.relative_coords = true);
        let configs = [
            ("absolute".into(), opts.pipeline_config()),
            ("relative".into(), relative),
        ];
        let series = variants(opts, &field, configs);
        println!(
            "# Ablation — absolute vs relative neighbor coordinates, dataset = {}",
            spec.name
        );
        let header = ["sampling", "absolute_coords", "relative_coords"];
        print_series(opts, &header, &series);
        println!();
    }
}

/// Ablation: neighbors per void `k` around the paper's 5 (isabel).
pub fn ablation_k(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let configs =
        [2usize, 3, 5, 8, 12].map(|k| (format!("k={k}"), config(opts, |c| c.features.k = k)));
    let labels = configs.clone().map(|(label, _)| label);
    let series = variants(opts, &field, configs);
    println!("# Ablation — neighbors per void location (isabel, feature width = 4k+3)");
    let mut header = vec!["sampling"];
    header.extend(labels.iter().map(String::as_str));
    print_series(opts, &header, &series);
    let times: Vec<String> = series
        .iter()
        .map(|s| format!("{} -> {}", s.label, secs(s.train_seconds)))
        .collect();
    println!("# training seconds: {}", times.join(", "));
}

/// Ablation: Delaunay-linear from five samplers at the same budget.
pub fn ablation_sampler(opts: &ExpOpts) {
    let linear = LinearReconstructor::default();
    let (importance, stratified) = (ImportanceSampler::default(), StratifiedSampler::default());
    let value_stratified = ValueStratifiedSampler::default();
    let samplers: [&dyn FieldSampler; 5] = [
        &importance,
        &RandomSampler,
        &stratified,
        &value_stratified,
        &RegularSampler,
    ];
    let header = [
        "sampling",
        "importance",
        "random",
        "stratified",
        "value-strat",
        "regular",
    ];
    for spec in opts.datasets() {
        let sim = opts.build(spec);
        let field = sim.timestep(sim.num_timesteps() / 2);
        println!(
            "# Ablation — sampler choice under a fixed budget (linear reconstruction), dataset = {}",
            spec.name
        );
        let snr = |sampler: &&dyn FieldSampler, f: f64| {
            let cloud = sampler.sample(&field, f, opts.seed);
            match linear.reconstruct(&cloud, field.grid()) {
                Ok(recon) => db(snr_db(&field, &recon)),
                Err(_) => "n/a".into(),
            }
        };
        let table: Vec<Vec<String>> = opts
            .fraction_axis()
            .into_iter()
            .map(|f| {
                std::iter::once(pct(f))
                    .chain(samplers.iter().map(|s| snr(s, f)))
                    .collect()
            })
            .collect();
        print_table(&header, &table);
        println!();
    }
}

/// Ablation: fine-tuning Case 1 vs Case 2 — SNR, wall-clock and
/// per-timestep artifact bytes (Fig. 5's trade-off, measured).
pub fn ablation_finetune(opts: &ExpOpts) {
    let (sim, field_new) = isabel_mid(opts);
    let config = opts.pipeline_config();
    let t_new = sim.num_timesteps() / 2;
    let cloud = ImportanceSampler::new(config.sampler).sample(&field_new, 0.03, opts.seed);
    eprintln!("[ablation-finetune] pretraining at t=0 ...");
    let pretrained = FcnnPipeline::train(&sim.timestep(0), &config, opts.seed).unwrap();
    let artifact_bytes = |mlp: &fv_nn::mlp::Mlp, case| {
        let mut buf = Vec::new();
        match case {
            FineTuneCase::FullNetwork => serialize::write_model(mlp, &mut buf).unwrap(),
            // Per-timestep artifact = just the trainable tail.
            FineTuneCase::LastTwoLayers => {
                let mut tail = mlp.clone();
                tail.freeze_all_but_last(2);
                serialize::save_partial(&tail, &mut buf).unwrap();
            }
        }
        buf.len()
    };

    // Epoch budgets proportional to the paper's 10 vs 300-500; "frozen"
    // skips the fine-tune.
    let case2_epochs = (config.trainer.epochs * 4).max(40);
    let modes = [
        ("frozen", FineTuneCase::FullNetwork, 0),
        ("case1", FineTuneCase::FullNetwork, 10),
        ("case2", FineTuneCase::LastTwoLayers, case2_epochs),
    ];
    println!("# Ablation — fine-tuning modes, isabel t=0 -> t={t_new} at 3% sampling");
    let mut table = Vec::new();
    for (label, case, epochs) in modes {
        let mut model = pretrained.clone();
        let mut elapsed = 0.0;
        if epochs > 0 {
            let spec = FineTuneSpec {
                case,
                epochs,
                learning_rate: 1e-3,
                seed: opts.seed,
            };
            let start = Instant::now();
            model.fine_tune(&field_new, &spec).unwrap();
            elapsed = start.elapsed().as_secs_f64();
        }
        let recon = model.reconstruct(&cloud, field_new.grid()).unwrap();
        table.push(vec![
            label.to_string(),
            db(snr_db(&field_new, &recon)),
            secs(elapsed),
            artifact_bytes(model.mlp(), case).to_string(),
        ]);
    }
    print_table(&["mode", "snr_db", "finetune_s", "artifact_bytes"], &table);
    println!(
        "# paper: case1 ~10 epochs; case2 needs 300-500 epochs but stores only the last two layers"
    );
}

/// Extension: deep-ensemble uncertainty and its calibration (MAE per
/// predicted-std quartile should grow monotonically).
pub fn ext_uncertainty(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let config = opts.pipeline_config();
    let ensemble_size = 5;
    eprintln!("[uncertainty] training {ensemble_size}-member ensemble ...");
    let ens = EnsemblePipeline::train(&field, &config, ensemble_size, opts.seed).expect("train");
    let cloud = ImportanceSampler::new(config.sampler).sample(&field, 0.01, opts.seed);
    let ur = ens.reconstruct(&cloud, field.grid()).expect("reconstruct");
    println!(
        "# Extension — deep-ensemble uncertainty (isabel {:?}, 1% sampling, E = {ensemble_size})",
        field.grid().dims()
    );
    println!("# ensemble-mean SNR: {} dB", db(snr_db(&field, &ur.mean)));

    // Calibration: bucket voxels by predicted std quartile, report MAE.
    let (truth, mean, std_dev) = (field.values(), ur.mean.values(), ur.std_dev.values());
    let mut order: Vec<usize> = (0..field.len()).collect();
    order.sort_by(|&a, &b| std_dev[a].partial_cmp(&std_dev[b]).unwrap());
    let q = field.len() / 4; // the last quartile takes the remainder
    let bounds = [0, q, 2 * q, 3 * q, field.len()];
    let table: Vec<Vec<String>> = (1..)
        .zip(bounds.windows(2))
        .map(|(n, w)| {
            let idx = &order[w[0]..w[1]];
            let avg = |f: &dyn Fn(usize) -> f64| {
                idx.iter().map(|&i| f(i)).sum::<f64>() / idx.len() as f64
            };
            let mae = avg(&|i| (truth[i] - mean[i]).abs() as f64);
            let mean_std = avg(&|i| std_dev[i] as f64);
            vec![
                format!("Q{n}"),
                format!("{mean_std:.4}"),
                format!("{mae:.4}"),
            ]
        })
        .collect();
    let header = ["uncertainty_quartile", "mean_predicted_std", "actual_mae"];
    print_table(&header, &table);
    println!("# calibrated uncertainty = actual_mae grows monotonically with the predicted std");
}

/// Extension: k-d tree vs bucket grid on one nearest query per grid node,
/// with identical results asserted.
pub fn ext_spatial(opts: &ExpOpts) {
    let (_, field) = isabel_mid(opts);
    let grid = field.grid();
    println!(
        "# Extension — nearest-neighbor index comparison (isabel {:?}, one query per node)",
        grid.dims()
    );
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        secs(t0.elapsed().as_secs_f64())
    };
    let queries = || (0..grid.num_points()).map(|idx| grid.world_linear(idx));
    let mut table = Vec::new();
    for fraction in opts.fraction_axis() {
        let cloud = ImportanceSampler::default().sample(&field, fraction, opts.seed);
        let positions = cloud.positions();
        let (mut tree, mut bucket) = (None, None);
        let kd_build = timed(&mut || tree = Some(KdTree::build(positions)));
        let grid_build = timed(&mut || bucket = Some(GridIndex::build(positions, 2.0)));
        let (tree, bucket) = (tree.unwrap(), bucket.unwrap());
        let (mut kd_acc, mut grid_acc) = (0.0f64, 0.0f64);
        let kd_query = timed(&mut || {
            queries().for_each(|q| kd_acc += tree.nearest(positions, q).unwrap().dist_sq)
        });
        let grid_query = timed(&mut || {
            queries().for_each(|q| grid_acc += bucket.nearest(positions, q).unwrap().dist_sq)
        });
        assert!(
            (kd_acc - grid_acc).abs() < 1e-6 * kd_acc.max(1.0),
            "indexes disagree: {kd_acc} vs {grid_acc}"
        );
        table.push(vec![
            pct(fraction),
            kd_build,
            grid_build,
            kd_query,
            grid_query,
        ]);
    }
    let header = [
        "sampling",
        "kd_build_s",
        "grid_build_s",
        "kd_query_s",
        "grid_query_s",
    ];
    print_table(&header, &table);
    println!("# identical results verified per row (summed nearest distances match)");
}
