//! Shared plumbing: command line, result report, inputs made from the seed,
//! and the output-fingerprint checks.

use crate::stats::{median, percentile, tail_percentile};
use fillvoid_core::pipeline::{PipelineConfig, TrainCorpus};
use fv_sims::{DatasetSpec, Scale, Simulation};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace,
        })
    }
}

/// Metrics plus the correctness tally of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Count one checked operation; a failed check is counted and named.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Fold in the checks a worker thread made.
    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Print a readable table, then the result object as the last line.
    pub fn finish(self, note: &str) {
        println!("# {note}");
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        for p in &self.problems {
            println!("# FAILED: {p}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = self.failed == 0 && finite && self.attempted > 0;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Time `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median and tail of a set of task times, with the percentile used for
/// the tail: the highest one with at least ten samples beyond it, or the
/// maximum (reported as 100) when the run holds fewer than twenty. The
/// tail is printed with its sample count but not gated: on a shared
/// 2-vCPU host it moves by more than any bound a run could hold.
pub fn median_and_tail(values: &[f64]) -> (f64, f64, u32) {
    let p = tail_percentile(values.len(), 10).unwrap_or(100);
    (median(values), percentile(values, p), p)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seed of the isabel surrogate and of the model fitted in set-up. Both
/// are fixed, so every run measures the same data and the same model; the
/// run seed draws the sampled clouds the model reconstructs. (With a
/// seeded model, a short training budget on a small grid swings the SNR by
/// several dB between seeds, which no bound could absorb.)
pub const SYSTEM_SEED: u64 = 0;

/// The isabel surrogate at `scale`.
pub fn isabel(scale: Scale) -> Box<dyn Simulation> {
    DatasetSpec::by_name("isabel")
        .expect("isabel is registered")
        .build(scale, SYSTEM_SEED)
}

/// The paper's network (23→512→256→128→64→16→4) on a short, fixed
/// training budget: `epochs` passes over `row_fraction` of the void rows
/// of one `fraction` sample. Enough to produce a real model whose
/// reconstruction scores well above a constant field; not the paper's
/// 500-epoch accuracy.
pub fn paper_width_config(fraction: f64, row_fraction: f64, epochs: usize) -> PipelineConfig {
    let paper = PipelineConfig::paper();
    PipelineConfig {
        corpus: TrainCorpus::Single(fraction),
        train_row_fraction: row_fraction,
        trainer: fv_nn::TrainerConfig {
            epochs,
            ..paper.trainer.clone()
        },
        ..paper
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Sampling fraction of every cloud the benchmark reconstructs from.
pub const CLOUD_FRACTION: f64 = 0.03;

/// Output fingerprints recorded for documented seeds
/// (`perfbench/fingerprints.txt`: `workload seed hex` per line).
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The recorded fingerprint of `workload`'s output `what` at `seed`.
pub fn recorded_fingerprint(workload: &str, what: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next(), f.next()) {
            (Some(w), Some(k), Some(s), Some(h))
                if w == workload && k == what && s.parse() == Ok(seed) =>
            {
                u64::from_str_radix(h.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}

/// Where a traced run writes its spans: the build directory the benchmark
/// was built into (inside the checkout).
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench")
    .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Check `fp` against the fingerprint recorded for this seed, if any.
pub fn check_fingerprint(report: &mut Report, workload: &str, what: &str, seed: u64, fp: u64) {
    if let Some(want) = recorded_fingerprint(workload, what, seed) {
        report.check(fp == want, || {
            format!(
                "{workload} {what} fingerprint {fp:016x} != recorded {want:016x} for seed {seed}"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec.json` documents every per-layer metric `BENCHMARK.json` lists
    /// and records the serving settings the code uses.
    #[test]
    fn spec_documents_every_metric_and_the_serve_settings() {
        let bench = include_str!("../../BENCHMARK.json");
        let spec = include_str!("../spec.json");
        let per_layer = &bench[bench.find("\"per_layer\"").expect("per_layer section")..];
        let names: Vec<&str> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        assert!(names.len() > 40);
        for name in names {
            assert!(
                spec.contains(&format!("\"{name}\":")),
                "{name} is not in spec.json"
            );
        }
        assert!(spec.contains(&format!("\"phase_a_rate_rps\": {},", crate::serve::RATE)));
        assert!(spec.contains(&format!(
            "\"latency_limit_s\": {},",
            crate::serve::LATENCY_LIMIT_S
        )));
        assert!(spec.contains(&format!("\"system_seed\": {SYSTEM_SEED},")));
        assert!(spec.contains(&format!("\"threads\": {},", crate::THREADS)));
    }

    #[test]
    fn recorded_fingerprints_parse() {
        for line in RECORDED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line:?}");
            let seed: u64 = f[2].parse().expect("seed");
            assert!(recorded_fingerprint(f[0], f[1], seed).is_some(), "{line:?}");
        }
    }
}
