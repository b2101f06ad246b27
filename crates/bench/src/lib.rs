//! # fv-bench
//!
//! The experiment driver behind the single `exp` binary: one section per
//! table/figure of the paper's evaluation (see DESIGN.md §4 for the
//! index), the ablation and extension studies, and the `runtime`, `brick`
//! and `serve` system benches that write `BENCH_*.json` for the CI gates.
//!
//! ```text
//! exp [--tiny|--small|--medium|--full] [--seed N] [--dataset D] [--csv F] <section…|all>
//! exp --list
//! ```
//!
//! * `--tiny` (default) / `--small` / `--medium` / `--full` — grid scale
//!   (the `--full` scale reproduces the paper's published resolutions;
//!   expect long runtimes on CPU-only hosts);
//! * `--seed N` — RNG seed (default 42);
//! * `--dataset NAME` — restrict to one dataset, for the sections that
//!   loop over datasets;
//! * `--csv FILE` — also write machine-readable rows (fig09, fig11);
//! * `--list` — print every section name, one per line.
//!
//! A flag the selected sections do not read is rejected (exit status 2)
//! rather than silently ignored. `all` runs the first [`PAPER`] sections,
//! the paper's own figures and tables, in one process; when two selected
//! sections share a trained model (fig09 + fig10, fig14 + table2) it is
//! trained once.
//!
//! Output is an aligned text table whose rows mirror what the paper plots,
//! so "regenerating Fig. 9" means diffing shapes: who wins, by how much,
//! where the crossovers sit.

pub mod brick;
pub mod paper;
pub mod runtime;
pub mod serve;

use fillvoid_core::pipeline::PipelineConfig;
use fv_sims::{DatasetSpec, Scale, Simulation};

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Grid scale for every dataset in the run.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Restrict to one dataset (None = all three).
    pub dataset: Option<String>,
    /// Also write machine-readable CSV next to the text table.
    pub csv: Option<std::path::PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            seed: 42,
            dataset: None,
            csv: None,
        }
    }
}

/// An experiment: reads its options, prints its tables.
pub type SectionFn = fn(&ExpOpts);

/// One runnable experiment section.
#[derive(Debug)]
pub struct Section {
    /// Name given on the command line.
    pub name: &'static str,
    /// The experiment itself.
    pub run: SectionFn,
    /// The optional flags it honors (`--dataset`, `--csv`); scale and seed
    /// are read by every section.
    pub flags: &'static [&'static str],
}

const DATASET: &str = "--dataset";
const CSV: &str = "--csv";

const fn section(name: &'static str, run: SectionFn, flags: &'static [&'static str]) -> Section {
    Section { name, run, flags }
}

/// Every section, in the DESIGN.md §4 order.
pub static SECTIONS: &[Section] = &[
    section("fig06", paper::fig06, &[]),
    section("fig07", paper::fig07, &[]),
    section("fig08", paper::fig08, &[]),
    section("fig09", paper::fig09, &[DATASET, CSV]),
    section("fig10", paper::fig10, &[DATASET]),
    section("fig11", paper::fig11, &[CSV]),
    section("fig12", paper::fig12, &[]),
    section("fig13", paper::fig13, &[]),
    section("table1", paper::table1, &[DATASET]),
    section("fig14", paper::fig14, &[]),
    section("table2", paper::table2, &[]),
    section("qualitative", paper::qualitative, &[DATASET]),
    section("ablation-features", paper::ablation_features, &[DATASET]),
    section("ablation-k", paper::ablation_k, &[]),
    section("ablation-sampler", paper::ablation_sampler, &[DATASET]),
    section("ablation-finetune", paper::ablation_finetune, &[]),
    section("ext-uncertainty", paper::ext_uncertainty, &[]),
    section("ext-spatial", paper::ext_spatial, &[]),
    section("runtime", runtime::run, &[]),
    section("brick", brick::run, &[]),
    section("serve", serve::run, &[]),
];

/// `all` runs the first `PAPER` sections: those that regenerate the
/// paper's own figures and tables (Figs. 2–3 and 6–14, Tables I–II). The
/// sections of each shared-model pair are adjacent, so `all` prints every
/// section in exactly this order.
pub const PAPER: usize = 12;

/// Section pairs that share one trained model: when both are selected the
/// joint function runs once in place of the two.
const SHARED: &[(&str, &str, SectionFn)] = &[
    ("fig09", "fig10", paper::fig09_fig10),
    ("fig14", "table2", paper::fig14_table2),
];

/// Look a section up by its command-line name.
pub fn find_section(name: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.name == name)
}

/// What one command line asks for.
#[derive(Debug)]
pub enum Command {
    /// Run these sections, in order, with these options.
    Run(ExpOpts, Vec<&'static Section>),
    /// Print every section name (`--list`).
    List,
    /// Print usage (`--help`).
    Help,
}

/// A rejected command line; the driver prints it and exits with
/// [`UsageError::EXIT_CODE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl UsageError {
    /// Process exit status for a usage error.
    pub const EXIT_CODE: i32 = 2;
}

fn join<'a>(items: impl Iterator<Item = &'a str>, sep: &str) -> String {
    items.collect::<Vec<_>>().join(sep)
}

fn dataset_names() -> String {
    join(fv_sims::registry::DATASETS.iter().map(|d| d.name), "|")
}

fn section_names(sections: &[Section]) -> String {
    join(sections.iter().map(|s| s.name), " ")
}

/// Usage text, including every section name.
pub fn usage() -> String {
    format!(
        "usage: exp [--tiny|--small|--medium|--full] [--seed N] [--dataset {}] [--csv FILE] <section…|all>\n       exp --list\nsections: {}\nall = {}",
        dataset_names(),
        section_names(SECTIONS),
        section_names(&SECTIONS[..PAPER]),
    )
}

impl ExpOpts {
    /// Parse a command line (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Command, UsageError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fail = |msg: String| Err(UsageError(msg));
        let mut opts = Self::default();
        let mut given: Vec<&'static str> = Vec::new(); // optional flags given
        let mut names: Vec<String> = Vec::new();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = |flag: &'static str, what: &str| {
                given.push(flag);
                let v = args.next().filter(|v| !v.is_empty());
                v.ok_or_else(|| UsageError(format!("{flag} expects {what}")))
            };
            match arg.as_str() {
                "--tiny" => opts.scale = Scale::Tiny,
                "--small" => opts.scale = Scale::Small,
                "--medium" => opts.scale = Scale::Medium,
                "--full" => opts.scale = Scale::Paper,
                "--seed" => {
                    let v = value("--seed", "an integer")?;
                    let bad = |_| UsageError(format!("--seed expects an integer, got {v:?}"));
                    opts.seed = v.parse().map_err(bad)?;
                }
                "--dataset" => {
                    let v = value(DATASET, "a dataset name")?;
                    if DatasetSpec::by_name(&v).is_none() {
                        return fail(format!(
                            "unknown dataset {v:?} (valid: {})",
                            dataset_names()
                        ));
                    }
                    opts.dataset = Some(v);
                }
                "--csv" => opts.csv = Some(value(CSV, "an output path")?.into()),
                "--list" => return Ok(Command::List),
                "--help" | "-h" => return Ok(Command::Help),
                flag if flag.starts_with('-') => {
                    return fail(format!(
                        "unknown flag {flag:?} (valid: --tiny --small --medium --full --seed --dataset --csv --list --help)"
                    ));
                }
                "all" => names.extend(SECTIONS[..PAPER].iter().map(|s| s.name.to_string())),
                name => names.push(name.to_string()),
            }
        }
        if names.is_empty() {
            return fail(format!("no section given\n{}", usage()));
        }
        let mut sections: Vec<&'static Section> = Vec::new();
        for name in &names {
            let Some(s) = find_section(name) else {
                return fail(format!(
                    "unknown section {name:?} (valid: {} all)",
                    section_names(SECTIONS)
                ));
            };
            if !sections.iter().any(|t| t.name == s.name) {
                sections.push(s);
            }
        }
        for flag in given.into_iter().filter(|f| [DATASET, CSV].contains(f)) {
            if let Some(s) = sections.iter().find(|s| !s.flags.contains(&flag)) {
                let readers = SECTIONS
                    .iter()
                    .filter(|t| t.flags.contains(&flag))
                    .map(|t| t.name);
                return fail(format!(
                    "section {} does not read {flag} (sections that do: {})",
                    s.name,
                    join(readers, " ")
                ));
            }
        }
        Ok(Command::Run(opts, sections))
    }

    /// Datasets selected by this run.
    pub fn datasets(&self) -> Vec<&'static DatasetSpec> {
        match &self.dataset {
            Some(name) => vec![DatasetSpec::by_name(name).expect("--dataset is checked by parse")],
            None => fv_sims::registry::DATASETS.iter().collect(),
        }
    }

    /// Instantiate one dataset's surrogate at the selected scale.
    pub fn build(&self, spec: &DatasetSpec) -> Box<dyn Simulation> {
        spec.build(self.scale, self.seed)
    }

    /// A pipeline configuration proportionate to the selected scale: the
    /// paper's exact configuration at `--full`, progressively lighter
    /// stacks below so single-core runs stay interactive.
    pub fn pipeline_config(&self) -> PipelineConfig {
        match self.scale {
            Scale::Paper => PipelineConfig::paper(),
            Scale::Medium => PipelineConfig {
                hidden: vec![256, 128, 64, 32, 16],
                trainer: fv_nn::TrainerConfig {
                    epochs: 120,
                    ..PipelineConfig::paper().trainer
                },
                ..PipelineConfig::paper()
            },
            Scale::Small => PipelineConfig::bench_default(),
            Scale::Tiny => PipelineConfig {
                hidden: vec![64, 32, 16],
                trainer: fv_nn::TrainerConfig {
                    epochs: 40,
                    learning_rate: 2e-3,
                    ..PipelineConfig::paper().trainer
                },
                ..PipelineConfig::bench_default()
            },
        }
    }

    /// The sampling-fraction axis of Figs. 7–10 and 13–14, matching the
    /// paper's 0.1%–5% sweep.
    pub fn fraction_axis(&self) -> Vec<f64> {
        vec![0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05]
    }
}

/// Run `sections` in order, one blank line apart. When both sections of a
/// shared-model pair are selected, their joint function runs once at the
/// position of the first.
pub fn run(opts: &ExpOpts, sections: &[&'static Section]) {
    let selected = |name: &str| sections.iter().any(|s| s.name == name);
    let mut done: Vec<&str> = Vec::new();
    for s in sections {
        if done.contains(&s.name) {
            continue;
        }
        if !done.is_empty() {
            println!();
        }
        let pair = SHARED
            .iter()
            .find(|(a, b, _)| (*a == s.name && selected(b)) || (*b == s.name && selected(a)));
        let (names, section_fn) = match pair {
            Some(&(a, b, joint)) => (vec![a, b], joint),
            None => (vec![s.name], s.run),
        };
        eprintln!("[exp] {}", names.join(" + "));
        section_fn(opts);
        done.extend(names);
    }
}

/// Format a fraction as the paper writes it ("0.1%", "5%").
pub fn pct(fraction: f64) -> String {
    // Round to 4 decimals first so binary fractions like 0.001 don't print
    // as 0.10000000000000001%.
    let p = (fraction * 1e6).round() / 1e4;
    if p == p.trunc() {
        format!("{}%", p as i64)
    } else {
        format!("{p}%")
    }
}

/// Format an SNR value for the tables.
pub fn db(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Format seconds with ms precision.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

/// Whether two volumes hold the same values bit for bit.
pub(crate) fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak (`"VmHWM:"`) or current (`"VmRSS:"`) resident set of this process
/// in KiB, from `/proc/self/status`; 0 where unavailable (non-Linux).
pub(crate) fn proc_status_kib(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix(key));
    line.and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Command, UsageError> {
        ExpOpts::parse(args.split_whitespace())
    }

    fn run_names(args: &str) -> Vec<&'static str> {
        match parse(args) {
            Ok(Command::Run(_, sections)) => sections.iter().map(|s| s.name).collect(),
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    fn rejected(args: &str) -> String {
        match parse(args) {
            Err(UsageError(msg)) => msg,
            other => panic!("{args:?} should be rejected, parsed to {other:?}"),
        }
    }

    #[test]
    fn defaults() {
        let o = ExpOpts::default();
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.seed, 42);
        assert_eq!(o.datasets().len(), 3);
        assert!(o.csv.is_none());
        // A bare section parses to these defaults; flags override them.
        let Ok(Command::Run(p, _)) = parse("fig07") else {
            panic!("fig07 must parse")
        };
        assert_eq!(
            (p.scale, p.seed, p.dataset, p.csv),
            (o.scale, o.seed, None, None)
        );
        let args = "--full --seed 7 --dataset combustion --csv o.csv fig09";
        let Ok(Command::Run(p, _)) = parse(args) else {
            panic!("{args:?} must parse")
        };
        assert_eq!((p.scale, p.seed), (Scale::Paper, 7));
        assert_eq!(p.dataset.as_deref(), Some("combustion"));
        assert_eq!(p.csv.as_deref(), Some(std::path::Path::new("o.csv")));
        assert!(matches!(parse("--list"), Ok(Command::List)));
        assert!(matches!(parse("-h"), Ok(Command::Help)));
        assert_eq!(UsageError::EXIT_CODE, 2);
    }

    #[test]
    fn unknown_flags_and_sections_list_the_valid_names() {
        let msg = rejected("--bogus fig06");
        assert!(
            msg.contains("\"--bogus\"") && msg.contains("--dataset"),
            "{msg}"
        );
        let msg = rejected("fig99");
        assert!(msg.contains("\"fig99\""), "{msg}");
        assert!(SECTIONS.iter().all(|s| msg.contains(s.name)), "{msg}");
        assert!(rejected("").contains("no section"));
        assert!(rejected("--seed x fig06").contains("integer"));
        assert!(rejected("fig06 --seed").contains("--seed expects"));
        assert!(rejected("--dataset mars fig09").contains("isabel"));
    }

    #[test]
    fn unread_flags_are_rejected_per_section() {
        for s in SECTIONS {
            for (flag, value) in [(DATASET, "combustion"), (CSV, "out.csv")] {
                match parse(&format!("{flag} {value} {}", s.name)) {
                    Ok(_) => assert!(s.flags.contains(&flag), "{} accepted {flag}", s.name),
                    Err(UsageError(msg)) => {
                        assert!(!s.flags.contains(&flag), "{} rejected {flag}", s.name);
                        assert!(msg.contains(s.name) && msg.contains(flag), "{msg}");
                    }
                }
            }
        }
        // One unreading section in a list is enough to reject the flag.
        assert!(rejected("--dataset ionization fig09 fig07").contains("fig07"));
        assert!(rejected("--csv x.csv all").contains("--csv"));
    }

    #[test]
    fn every_section_resolves_to_its_function() {
        for s in SECTIONS {
            assert!(std::ptr::eq(find_section(s.name).unwrap(), s), "{}", s.name);
            assert_eq!(run_names(s.name), [s.name]);
        }
        for (a, b, _) in SHARED {
            assert!(find_section(a).is_some() && find_section(b).is_some());
        }
    }

    #[test]
    fn all_expands_to_the_paper_sections_in_order() {
        let all = "fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 table1 fig14 table2 qualitative";
        assert_eq!(run_names("all"), all.split(' ').collect::<Vec<_>>());
        // Duplicates collapse to their first position.
        assert_eq!(run_names("fig13 all")[..2], ["fig13", "fig06"]);
        assert_eq!(run_names("fig13 all").len(), PAPER);
        // Shared-model pairs are adjacent, so joint runs keep this order.
        for (a, b, _) in SHARED {
            assert!(all.contains(&format!("{a} {b}")), "{a} {b}");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.001), "0.1%");
        assert_eq!(pct(0.05), "5%");
        assert_eq!(db(f64::NAN), "n/a");
        assert_eq!(db(27.346), "27.35");
        assert_eq!(db(27.344), "27.34");
        assert_eq!(db(f64::INFINITY), "inf");
        assert_eq!(secs(0.12345), "0.123");
    }

    #[test]
    fn pipeline_config_scales() {
        let mut o = ExpOpts {
            scale: Scale::Paper,
            ..Default::default()
        };
        assert_eq!(o.pipeline_config().hidden, vec![512, 256, 128, 64, 16]);
        o.scale = Scale::Tiny;
        assert_eq!(o.pipeline_config().hidden.len(), 3);
    }

    #[test]
    fn fraction_axis_is_ascending_and_in_paper_range() {
        let axis = ExpOpts::default().fraction_axis();
        assert!(axis.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(axis[0], 0.001);
        assert_eq!(*axis.last().unwrap(), 0.05);
    }
}
