//! Cooperative deadlines for bounding worst-case work per request.
//!
//! A [`Deadline`] is a cheap, copyable token threaded through the long
//! loops of the pipeline (error-matrix row builds, search sweeps). Code
//! holding one polls [`Deadline::check`] at natural work boundaries and
//! unwinds with [`DeadlineExceeded`] when the budget is spent — there is
//! no preemption, so the granularity of cancellation is one unit of work
//! between checks (one matrix row, one search sweep).
//!
//! [`Deadline::NONE`] never expires, which lets unbounded entry points
//! share one implementation with their bounded counterparts.

use std::time::{Duration, Instant};

/// A point in time after which cooperative work should stop.
///
/// `Deadline` is `Copy` and internally just an `Option<Instant>`; an
/// absent instant means "no deadline" and never expires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The deadline that never expires.
    pub const NONE: Deadline = Deadline { at: None };

    /// A deadline `budget` from now. A budget large enough to overflow
    /// the clock is treated as unbounded.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// A deadline `ms` milliseconds from now; `0` means unbounded,
    /// matching the service convention that a zero knob disables the
    /// limit.
    pub fn after_millis(ms: u64) -> Deadline {
        if ms == 0 {
            Deadline::NONE
        } else {
            Deadline::after(Duration::from_millis(ms))
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline { at: Some(instant) }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry; `None` when unbounded, zero when
    /// already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Poll the deadline at a work boundary.
    ///
    /// # Errors
    /// Returns [`DeadlineExceeded`] when the deadline has passed.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// Error signalling that a [`Deadline`] expired mid-computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::NONE;
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.check(), Err(DeadlineExceeded));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn far_future_deadline_is_bounded_but_live() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert!(d.remaining().is_some_and(|r| r > Duration::from_secs(3000)));
    }

    #[test]
    fn after_millis_zero_is_unbounded() {
        assert_eq!(Deadline::after_millis(0), Deadline::NONE);
        assert!(Deadline::after_millis(50).remaining().is_some());
    }

    #[test]
    fn past_instant_is_expired() {
        let d = Deadline::at(Instant::now());
        // An `at` in the past (or exactly now) reads as expired.
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
    }

    #[test]
    fn display_and_error_impls() {
        let e: Box<dyn std::error::Error> = Box::new(DeadlineExceeded);
        assert_eq!(e.to_string(), "deadline exceeded");
    }
}
