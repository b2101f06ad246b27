//! Machine-readable experiment output.
//!
//! The `exp` driver prints aligned text tables for humans; this module
//! writes the same rows as CSV so the paper's plots can be regenerated
//! with any external plotting tool (`exp --csv FILE fig09|fig11` flows
//! through here).

use crate::experiment::{DepthRow, MethodRow, VariantSeries};
use crate::timesteps::ReplayRow;
use crate::upscale::UpscaleRow;
use std::io::{BufWriter, Write};

/// Serialize method-sweep rows (Figs. 9–10).
pub fn method_rows_csv<W: Write>(rows: &[MethodRow], w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "method,fraction,snr_db,seconds")?;
    for r in rows {
        writeln!(w, "{},{},{},{}", r.method, r.fraction, csv_f64(r.snr), r.seconds)?;
    }
    w.flush()
}

/// Serialize depth-sweep rows (Fig. 6).
pub fn depth_rows_csv<W: Write>(rows: &[DepthRow], w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "hidden_layers,snr_db,train_seconds")?;
    for r in rows {
        writeln!(w, "{},{},{}", r.depth, csv_f64(r.snr), r.train_seconds)?;
    }
    w.flush()
}

/// Serialize variant series (Figs. 7, 8, 14): one row per (label, fraction).
pub fn variant_series_csv<W: Write>(series: &[VariantSeries], w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "label,fraction,snr_db,train_seconds")?;
    for s in series {
        for &(fraction, snr) in &s.points {
            writeln!(w, "{},{},{},{}", s.label, fraction, csv_f64(snr), s.train_seconds)?;
        }
    }
    w.flush()
}

/// Serialize replay rows (Fig. 11); `label` distinguishes the curves.
pub fn replay_rows_csv<W: Write>(
    labeled: &[(&str, &[ReplayRow])],
    w: W,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "label,t,snr_db,fine_tune_loss")?;
    for (label, rows) in labeled {
        for r in *rows {
            let ft = r
                .fine_tune_loss
                .map(|l| l.to_string())
                .unwrap_or_default();
            writeln!(w, "{},{},{},{}", label, r.t, csv_f64(r.snr), ft)?;
        }
    }
    w.flush()
}

/// Serialize upscale rows (Fig. 13).
pub fn upscale_rows_csv<W: Write>(rows: &[UpscaleRow], w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "fraction,snr_linear,snr_full,snr_transferred")?;
    for r in rows {
        writeln!(
            w,
            "{},{},{},{}",
            r.fraction,
            csv_f64(r.snr_linear),
            csv_f64(r.snr_full),
            csv_f64(r.snr_transferred)
        )?;
    }
    w.flush()
}

/// Serialize a loss history (Fig. 12).
pub fn history_csv<W: Write>(history: &fv_nn::train::History, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "epoch,train_loss,val_loss,learning_rate")?;
    for (e, &loss) in history.epoch_loss.iter().enumerate() {
        let val = history
            .val_loss
            .get(e)
            .map(|v| v.to_string())
            .unwrap_or_default();
        let lr = history
            .learning_rates
            .get(e)
            .map(|v| v.to_string())
            .unwrap_or_default();
        writeln!(w, "{e},{loss},{val},{lr}")?;
    }
    w.flush()
}

/// NaN/inf-safe float formatting (empty cell for NaN, `inf` spelled out).
fn csv_f64(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else if v.is_infinite() {
        if v > 0.0 { "inf".into() } else { "-inf".into() }
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_rows_have_header_and_rows() {
        let rows = vec![
            MethodRow {
                method: "fcnn".into(),
                fraction: 0.01,
                snr: 27.5,
                seconds: 0.2,
            },
            MethodRow {
                method: "linear".into(),
                fraction: 0.01,
                snr: f64::NAN,
                seconds: 1.5,
            },
        ];
        let mut buf = Vec::new();
        method_rows_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "method,fraction,snr_db,seconds");
        assert_eq!(lines[1], "fcnn,0.01,27.5,0.2");
        assert_eq!(lines[2], "linear,0.01,,1.5"); // NaN -> empty cell
    }

    #[test]
    fn depth_and_upscale_rows() {
        let mut buf = Vec::new();
        depth_rows_csv(
            &[DepthRow {
                depth: 5,
                snr: 28.0,
                train_seconds: 12.5,
            }],
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("5,28,12.5"));

        let mut buf = Vec::new();
        upscale_rows_csv(
            &[UpscaleRow {
                fraction: 0.02,
                snr_linear: 15.0,
                snr_full: 20.0,
                snr_transferred: 19.0,
            }],
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("0.02,15,20,19"));
    }

    #[test]
    fn variant_series_flattens_points() {
        let s = VariantSeries {
            label: "1%+5%".into(),
            points: vec![(0.01, 20.0), (0.05, 25.0)],
            train_seconds: 3.0,
        };
        let mut buf = Vec::new();
        variant_series_csv(&[s], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("1%+5%,0.05,25,3"));
    }

    #[test]
    fn replay_rows_and_history() {
        let rows = vec![ReplayRow {
            t: 3,
            snr: 22.0,
            fine_tune_loss: Some(0.01),
        }];
        let mut buf = Vec::new();
        replay_rows_csv(&[("tuned", rows.as_slice())], &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("tuned,3,22,0.01"));

        let h = fv_nn::train::History {
            epoch_loss: vec![1.0, 0.5],
            learning_rates: vec![0.001, 0.001],
            ..Default::default()
        };
        let mut buf = Vec::new();
        history_csv(&h, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("0,1,,0.001"));
        assert!(text.contains("1,0.5,,0.001"));
    }

    #[test]
    fn inf_formatting() {
        assert_eq!(csv_f64(f64::INFINITY), "inf");
        assert_eq!(csv_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(csv_f64(1.25), "1.25");
        assert_eq!(csv_f64(f64::NAN), "");
    }
}
