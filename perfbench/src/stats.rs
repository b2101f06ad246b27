//! The benchmark's own arithmetic: order statistics, the tail percentile a
//! sample supports, span self time, open-loop latency accounting and the
//! FLOP counts of the paper's layer shapes. Kept free of I/O so each rule
//! is unit-tested on its own.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile `p` (at most 99) for which at least
/// `min_beyond` of `n` samples lie strictly above the `p`-th percentile
/// rank, i.e. `n - ceil(n * p / 100) >= min_beyond`. `None` when even the
/// median leaves fewer than `min_beyond` samples beyond it.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= min_beyond)
}

/// 1-based nearest-rank position of the `p`-th percentile among `n`
/// samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile. Infinite samples (failed requests)
/// sort last, so they can only raise a tail.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p).min(v.len()) - 1]
}

/// A closed time interval recorded around one call, in seconds from a
/// common origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 when it serves no request).
    pub request: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (parallel work)
/// are merged first, so covered time is never counted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.max(lo), s.end.min(hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter().filter(|(a, b)| b > a) {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sum of self times per span name, in first-seen name order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// One open-loop request as the generator saw it, in seconds from the
/// schedule's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule said the request should be sent.
    pub due: f64,
    /// When it was actually sent (never before `due`).
    pub sent: f64,
    /// When its reply completed; `None` if it failed.
    pub done: Option<f64>,
}

impl OpenLoopSample {
    /// Latency charged to the request: from its due time, so a stall that
    /// delays later sends is counted against them. A failed request is
    /// infinitely late and misses any limit.
    pub fn latency(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |d| d - self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

/// Due time of request `i` of a generator sending every `period` seconds
/// starting at `offset`.
pub fn due_time(offset: f64, period: f64, i: usize) -> f64 {
    offset + period * i as f64
}

/// Requests whose latency exceeds `limit` (failures included).
pub fn limit_misses(samples: &[OpenLoopSample], limit: f64) -> usize {
    samples.iter().filter(|s| s.latency() > limit).count()
}

/// Multiply-add FLOPs (2 per MAC) of one dense layer over `rows` rows.
/// Bias and activation are not counted.
pub fn dense_flops(rows: usize, input: usize, output: usize) -> f64 {
    2.0 * rows as f64 * input as f64 * output as f64
}

/// Forward FLOPs of a layer stack over `rows` rows.
pub fn forward_flops(widths: &[usize], rows: usize) -> f64 {
    widths
        .windows(2)
        .map(|w| dense_flops(rows, w[0], w[1]))
        .sum()
}

/// Backward FLOPs of a fully trainable layer stack over `rows` rows: the
/// weight gradient `dZᵀ·X` for every layer plus the input gradient `dZ·W`
/// for every layer except the first, whose input is data.
pub fn backward_flops(widths: &[usize], rows: usize) -> f64 {
    widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let per = dense_flops(rows, w[0], w[1]);
            if i == 0 {
                per
            } else {
                2.0 * per
            }
        })
        .sum()
}

/// FNV-1a over the bit patterns of `values`, little-endian bytes.
pub fn fnv1a_f32(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        // 999 samples: p99 would leave 9, so p98 (rank 980, 19 above).
        assert_eq!(tail_percentile(999, 10), Some(98));
        // 200 samples: p95 is rank 190, 10 above.
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(240, 10), Some(95));
        assert_eq!(tail_percentile(250, 10), Some(96));
        // Too few samples for any tail at all.
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50));
        for n in [20usize, 57, 200, 333, 1000, 5000] {
            let p = tail_percentile(n, 10).unwrap();
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_failures_sort_last() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&v, 50), 100.0);
        let mut w = v.clone();
        w[0] = f64::INFINITY;
        assert_eq!(percentile(&w, 100), f64::INFINITY);
        assert_eq!(percentile(&w, 95), 191.0);
    }

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("b.inner", 5.0, 6.0, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![4.0, 2.0, 3.0, 1.0]);
        // Self times partition the root interval.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("w0", 2.0, 6.0, Some(0)),
            span("w1", 4.0, 7.0, Some(0)),
            // Clipped to the parent's interval.
            span("late", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 5.0 - 1.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("root", 4.0));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let period = 0.1;
        // The second request is sent 0.05 s late because the first one
        // held the connection; its latency includes that wait.
        let s = [
            OpenLoopSample {
                due: due_time(0.0, period, 0),
                sent: 0.0,
                done: Some(0.15),
            },
            OpenLoopSample {
                due: due_time(0.0, period, 1),
                sent: 0.15,
                done: Some(0.22),
            },
            OpenLoopSample {
                due: due_time(0.0, period, 2),
                sent: 0.2,
                done: None,
            },
        ];
        assert!((s[0].latency() - 0.15).abs() < 1e-12);
        assert!((s[1].latency() - 0.12).abs() < 1e-12);
        assert!((s[1].lateness() - 0.05).abs() < 1e-12);
        assert_eq!(s[0].lateness(), 0.0);
        assert_eq!(s[2].latency(), f64::INFINITY);
        // A failure always misses the limit.
        assert_eq!(limit_misses(&s, 0.13), 2);
        assert_eq!(limit_misses(&s, 1.0), 1);
    }

    /// Widths of the paper's network: 23 inputs, five hidden layers, 4 outputs.
    const PAPER_WIDTHS: [usize; 7] = [23, 512, 256, 128, 64, 16, 4];

    #[test]
    fn paper_layer_flops_follow_the_shapes() {
        let rows = 16_384;
        let per_layer: Vec<f64> = PAPER_WIDTHS
            .windows(2)
            .map(|w| dense_flops(rows, w[0], w[1]))
            .collect();
        assert_eq!(per_layer[0], 2.0 * 16_384.0 * 23.0 * 512.0);
        assert_eq!(per_layer[1], 2.0 * 16_384.0 * 512.0 * 256.0);
        assert_eq!(per_layer[5], 2.0 * 16_384.0 * 16.0 * 4.0);
        // 184,896 MACs per row across the six layers.
        let macs = 23 * 512 + 512 * 256 + 256 * 128 + 128 * 64 + 64 * 16 + 16 * 4;
        assert_eq!(macs, 184_896);
        assert_eq!(forward_flops(&PAPER_WIDTHS, 1), 2.0 * macs as f64);
        assert_eq!(
            backward_flops(&PAPER_WIDTHS, 1),
            2.0 * forward_flops(&PAPER_WIDTHS, 1) - dense_flops(1, 23, 512)
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_f32(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_f32(&[0.0]), fnv1a_f32(&[-0.0]));
        assert_eq!(fnv1a_f32(&[1.5, 2.0]), fnv1a_f32(&[1.5, 2.0]));
    }
}
