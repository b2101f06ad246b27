//! Shared experiment harnesses: the sweeps behind the paper's figures.
//!
//! The `exp` driver's sections (`crates/bench/src/paper.rs`) are thin
//! wrappers around these functions, which produce plain row structs so
//! results can be printed, asserted on in tests, or dumped to CSV.

use crate::error::CoreError;
use crate::metrics::snr_db;
use crate::pipeline::{FcnnPipeline, PipelineConfig};
use fv_field::{Grid3, ScalarField};
use fv_interp::{InterpError, Reconstructor};
use fv_sampling::{FieldSampler, ImportanceConfig, ImportanceSampler, PointCloud};
use std::time::Instant;

/// Adapter: expose a trained [`FcnnPipeline`] through the classical
/// [`Reconstructor`] interface so it slots into the same sweeps and timing
/// harnesses as the baselines (Figs. 9–10).
pub struct FcnnReconstructor<'a> {
    pipeline: &'a FcnnPipeline,
}

impl<'a> FcnnReconstructor<'a> {
    /// Wrap a trained pipeline.
    pub fn new(pipeline: &'a FcnnPipeline) -> Self {
        Self { pipeline }
    }
}

impl Reconstructor for FcnnReconstructor<'_> {
    fn name(&self) -> &'static str {
        "fcnn"
    }

    fn reconstruct(
        &self,
        cloud: &PointCloud,
        target: &Grid3,
    ) -> Result<ScalarField, InterpError> {
        match self.pipeline.reconstruct(cloud, target) {
            Ok(f) => Ok(f),
            Err(CoreError::EmptyCloud) => Err(InterpError::EmptyCloud),
            Err(e) => Err(InterpError::Triangulation(e.to_string())),
        }
    }
}

/// One `(method, fraction)` cell of the Fig. 9 / Fig. 10 grids.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Reconstruction method name.
    pub method: String,
    /// Sampling fraction.
    pub fraction: f64,
    /// Reconstruction SNR in dB (NaN when the method failed).
    pub snr: f64,
    /// Wall-clock reconstruction time in seconds (excludes FCNN training,
    /// exactly as Fig. 10 does).
    pub seconds: f64,
}

/// Sweep reconstruction methods over sampling fractions on one timestep.
///
/// For each fraction the field is sampled once (all methods see the same
/// cloud) and every method reconstructs the full grid; quality and time are
/// recorded.
pub fn method_sweep(
    field: &ScalarField,
    methods: &[&dyn Reconstructor],
    fractions: &[f64],
    sampler_config: ImportanceConfig,
    seed: u64,
) -> Vec<MethodRow> {
    let sampler = ImportanceSampler::new(sampler_config);
    let mut rows = Vec::with_capacity(methods.len() * fractions.len());
    for (i, &fraction) in fractions.iter().enumerate() {
        let cloud = sampler.sample(field, fraction, seed ^ ((i as u64 + 1) << 24));
        for method in methods {
            let start = Instant::now();
            let outcome = method.reconstruct(&cloud, field.grid());
            let seconds = start.elapsed().as_secs_f64();
            let snr = match outcome {
                Ok(recon) => snr_db(field, &recon),
                Err(_) => f64::NAN,
            };
            rows.push(MethodRow {
                method: method.name().to_string(),
                fraction,
                snr,
                seconds,
            });
        }
    }
    rows
}

/// One depth's outcome in the hidden-layer sweep (Fig. 6).
#[derive(Debug, Clone)]
pub struct DepthRow {
    /// Number of hidden layers.
    pub depth: usize,
    /// Mean SNR over the evaluation fractions.
    pub snr: f64,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

/// Train pipelines of increasing depth and score each (Fig. 6).
///
/// Depth `d` uses the first `d` entries of `width_ladder` as hidden sizes.
pub fn hidden_layer_sweep(
    field: &ScalarField,
    width_ladder: &[usize],
    depths: &[usize],
    base: &PipelineConfig,
    eval_fractions: &[f64],
    seed: u64,
) -> Result<Vec<DepthRow>, CoreError> {
    let sampler = ImportanceSampler::new(base.sampler);
    let mut rows = Vec::with_capacity(depths.len());
    for &depth in depths {
        let d = depth.clamp(1, width_ladder.len());
        let config = PipelineConfig {
            hidden: width_ladder[..d].to_vec(),
            ..base.clone()
        };
        let start = Instant::now();
        let pipeline = FcnnPipeline::train(field, &config, seed)?;
        let train_seconds = start.elapsed().as_secs_f64();
        let mut snr_sum = 0.0;
        for (i, &fraction) in eval_fractions.iter().enumerate() {
            let cloud = sampler.sample(field, fraction, seed ^ ((i as u64 + 3) << 20));
            let recon = pipeline.reconstruct(&cloud, field.grid())?;
            snr_sum += snr_db(field, &recon);
        }
        rows.push(DepthRow {
            depth: d,
            snr: snr_sum / eval_fractions.len().max(1) as f64,
            train_seconds,
        });
    }
    Ok(rows)
}

/// One pipeline-variant's SNR series over test fractions (Figs. 7, 8, 14).
#[derive(Debug, Clone)]
pub struct VariantSeries {
    /// Label of the variant ("1%+5%", "no-gradient", "25% rows", ...).
    pub label: String,
    /// `(fraction, snr)` pairs.
    pub points: Vec<(f64, f64)>,
    /// Wall-clock training time in seconds (Table II).
    pub train_seconds: f64,
}

/// Train one pipeline variant and score it across test sampling fractions.
pub fn variant_series(
    field: &ScalarField,
    label: &str,
    config: &PipelineConfig,
    test_fractions: &[f64],
    seed: u64,
) -> Result<VariantSeries, CoreError> {
    let start = Instant::now();
    let pipeline = FcnnPipeline::train(field, config, seed)?;
    let train_seconds = start.elapsed().as_secs_f64();
    let sampler = ImportanceSampler::new(config.sampler);
    let mut points = Vec::with_capacity(test_fractions.len());
    for (i, &fraction) in test_fractions.iter().enumerate() {
        let cloud = sampler.sample(field, fraction, seed ^ ((i as u64 + 11) << 18));
        let recon = pipeline.reconstruct(&cloud, field.grid())?;
        points.push((fraction, snr_db(field, &recon)));
    }
    Ok(VariantSeries {
        label: label.to_string(),
        points,
        train_seconds,
    })
}

/// Render a sequence of rows as an aligned text table (the bench binaries'
/// output format).
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_interp::nearest::NearestReconstructor;
    use fv_interp::shepard::ShepardReconstructor;

    fn field() -> ScalarField {
        let g = Grid3::new([10, 10, 6]).unwrap();
        ScalarField::from_world_fn(g, |p| ((p[0] * 0.5).sin() + 0.2 * p[1]) as f32)
    }

    #[test]
    fn method_sweep_covers_grid() {
        let f = field();
        let nearest = NearestReconstructor;
        let shepard = ShepardReconstructor::default();
        let methods: Vec<&dyn Reconstructor> = vec![&nearest, &shepard];
        let rows = method_sweep(&f, &methods, &[0.05, 0.1], ImportanceConfig::default(), 1);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.snr.is_finite() && r.seconds >= 0.0));
        // same cloud per fraction: both methods at 0.05 come first
        assert_eq!(rows[0].fraction, rows[1].fraction);
    }

    #[test]
    fn fcnn_adapter_reconstructs() {
        let f = field();
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 2).unwrap();
        let adapter = FcnnReconstructor::new(&pipeline);
        assert_eq!(adapter.name(), "fcnn");
        let sampler = ImportanceSampler::default();
        let cloud = sampler.sample(&f, 0.05, 3);
        let recon = adapter.reconstruct(&cloud, f.grid()).unwrap();
        assert_eq!(recon.len(), f.len());
        let empty = PointCloud::from_indices(&f, vec![]);
        assert!(matches!(
            adapter.reconstruct(&empty, f.grid()),
            Err(InterpError::EmptyCloud)
        ));
    }

    #[test]
    fn hidden_layer_sweep_rows() {
        let f = field();
        let base = PipelineConfig::small_for_tests();
        let rows =
            hidden_layer_sweep(&f, &[16, 12, 8, 8], &[1, 3], &base, &[0.05], 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].depth, 1);
        assert_eq!(rows[1].depth, 3);
        assert!(rows.iter().all(|r| r.snr.is_finite() && r.train_seconds > 0.0));
    }

    #[test]
    fn variant_series_points() {
        let f = field();
        let cfg = PipelineConfig::small_for_tests();
        let s = variant_series(&f, "test", &cfg, &[0.03, 0.06], 4).unwrap();
        assert_eq!(s.label, "test");
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|(_, snr)| snr.is_finite()));
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["method", "snr"],
            &[
                vec!["nearest".into(), "12.3".into()],
                vec!["fcnn".into(), "28.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("method"));
        assert!(lines[2].ends_with("12.3"));
    }
}
