//! A circuit breaker for the exact-compute path.
//!
//! Exact recomputation is the planner's slow dependency: it can panic
//! (chaos faults, model bugs) or stall. The breaker watches consecutive
//! failures and, once tripped, short-circuits further exact attempts to
//! the degraded surrogate path until a cooldown passes — then lets one
//! probe through (half-open) and re-opens or closes on its outcome.
//!
//! The state machine is pure over an explicit `now` instant, so tests
//! drive it with a manual clock instead of sleeping.

use std::time::{Duration, Instant};

/// Breaker state (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Healthy: counting consecutive failures.
    Closed { failures: u32 },
    /// Tripped: reject exact attempts until the cooldown instant.
    Open { until: Instant },
    /// Cooldown elapsed: exactly one probe is in flight.
    HalfOpen,
}

/// A consecutive-failure circuit breaker with a manual clock.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: State,
    /// Total trips (exposed for health reporting).
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown`.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is 0 (the breaker could never close).
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        CircuitBreaker {
            threshold,
            cooldown,
            state: State::Closed { failures: 0 },
            trips: 0,
        }
    }

    /// Whether an exact attempt may proceed at `now`. Transitions
    /// `Open → HalfOpen` when the cooldown has elapsed (the caller that
    /// receives `true` in half-open state is the probe).
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            State::Closed { .. } => true,
            State::Open { until } if now >= until => {
                self.state = State::HalfOpen;
                true
            }
            State::Open { .. } => false,
            // One probe at a time: others stay degraded until it lands.
            State::HalfOpen => false,
        }
    }

    /// Records a successful exact computation: closes the breaker.
    pub fn record_success(&mut self) {
        self.state = State::Closed { failures: 0 };
    }

    /// Records a failed exact computation at `now`: trips the breaker
    /// when the consecutive-failure threshold is reached, and re-opens
    /// immediately from a failed half-open probe.
    pub fn record_failure(&mut self, now: Instant) {
        match self.state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    self.state = State::Open {
                        until: now + self.cooldown,
                    };
                    self.trips += 1;
                } else {
                    self.state = State::Closed { failures };
                }
            }
            State::HalfOpen => {
                self.state = State::Open {
                    until: now + self.cooldown,
                };
                self.trips += 1;
            }
            State::Open { .. } => {}
        }
    }

    /// Times the breaker has tripped since construction.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The state as a numeric gauge for metrics exposition: 0 closed,
    /// 1 open, 2 half-open. An open breaker whose cooldown has elapsed
    /// reports half-open — the next [`CircuitBreaker::allow`] call
    /// becomes the probe, so that is the state a scrape should see.
    pub fn state_code(&self, now: Instant) -> i64 {
        match self.state {
            State::Closed { .. } => 0,
            State::Open { until } if now < until => 1,
            State::Open { .. } | State::HalfOpen => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(3, Duration::from_secs(10));
        for _ in 0..2 {
            assert!(b.allow(t0));
            b.record_failure(t0);
        }
        assert!(b.allow(t0), "below threshold stays closed");
        b.record_failure(t0);
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(t0), "tripped");
        assert!(!b.allow(t0 + Duration::from_secs(9)));

        // Cooldown elapsed: exactly one probe allowed.
        let t1 = t0 + Duration::from_secs(10);
        assert!(b.allow(t1), "probe");
        assert!(!b.allow(t1), "second caller waits for the probe");
        b.record_success();
        assert!(b.allow(t1), "closed again");
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::from_secs(5));
        b.record_failure(t0);
        let t1 = t0 + Duration::from_secs(5);
        assert!(b.allow(t1), "probe");
        b.record_failure(t1);
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(t1 + Duration::from_secs(4)));
        assert!(b.allow(t1 + Duration::from_secs(5)));
    }

    #[test]
    fn state_codes_track_the_lifecycle() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(1, Duration::from_secs(5));
        assert_eq!(b.state_code(t0), 0, "closed");
        b.record_failure(t0);
        assert_eq!(b.state_code(t0), 1, "open");
        let t1 = t0 + Duration::from_secs(5);
        assert_eq!(b.state_code(t1), 2, "cooldown elapsed: half-open");
        assert!(b.allow(t1), "probe");
        assert_eq!(b.state_code(t1), 2, "probe in flight");
        b.record_success();
        assert_eq!(b.state_code(t1), 0, "closed again");
    }

    #[test]
    fn successes_reset_the_consecutive_count() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(2, Duration::from_secs(1));
        b.record_failure(t0);
        b.record_success();
        b.record_failure(t0);
        assert!(b.allow(t0), "non-consecutive failures never trip");
        assert_eq!(b.trips(), 0);
    }
}
