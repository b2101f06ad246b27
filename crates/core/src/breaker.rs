//! Consecutive-failure circuit breaker.
//!
//! One Closed → Open → HalfOpen machine (DESIGN.md §11) shared by the
//! in-situ session, which gates whole steps, and by `fv-serve`, which
//! keeps one breaker per registry entry so one tenant's broken fine-tune
//! cannot take down every model on the server. While open, work is
//! demoted to a classical-interpolation fallback; every `probe_after`-th
//! denial lets one probe through, and a successful probe closes the
//! breaker again.

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: work takes the model path.
    Closed,
    /// Tripped: work is demoted to the fallback without touching the
    /// model.
    Open,
    /// Cooldown elapsed: the next attempt is a recovery probe.
    HalfOpen,
}

/// Consecutive-failure circuit breaker (not thread-safe on its own; the
/// serve registry wraps it in a mutex).
#[derive(Debug, Clone)]
pub struct Breaker {
    threshold: u32,
    probe_after: u32,
    failures: u32,
    open: bool,
    denials_until_probe: u32,
    opens: u64,
}

impl Breaker {
    /// `threshold` consecutive failures trip the breaker; after
    /// `probe_after` denials one probe is allowed through (0: the very
    /// next attempt after a trip is already a probe).
    pub fn new(threshold: u32, probe_after: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            probe_after,
            failures: 0,
            open: false,
            denials_until_probe: 0,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        if !self.open {
            BreakerState::Closed
        } else if self.denials_until_probe == 0 {
            BreakerState::HalfOpen
        } else {
            BreakerState::Open
        }
    }

    /// Times the breaker tripped over its lifetime.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Should this attempt take the model path? `false` demotes it to the
    /// fallback. While open, each denial counts down toward the next
    /// probe.
    pub fn allow(&mut self) -> bool {
        if !self.open {
            return true;
        }
        if self.denials_until_probe == 0 {
            return true; // half-open: let one probe through
        }
        self.denials_until_probe -= 1;
        false
    }

    /// Record a model-path success: closes the breaker and clears the
    /// failure streak.
    pub fn record_success(&mut self) {
        self.open = false;
        self.failures = 0;
        self.denials_until_probe = 0;
    }

    /// Record a model-path failure (panic, error, or non-finite output).
    pub fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        if self.failures >= self.threshold && !self.open {
            self.open = true;
            self.opens += 1;
        }
        if self.open {
            self.denials_until_probe = self.probe_after;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_probes() {
        let mut b = Breaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(b.allow());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        // Two denials, then a probe slips through.
        assert!(!b.allow());
        assert!(!b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow());
        // Failed probe re-opens with a fresh cooldown.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(!b.allow());
        // Successful probe closes fully.
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn zero_probe_interval_probes_right_after_a_trip() {
        let mut b = Breaker::new(1, 0);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.opens(), 1, "a failed probe is not a fresh trip");
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = Breaker::new(2, 1);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak must reset");
    }
}
