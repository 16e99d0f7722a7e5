//! Per-backend health as a pure state machine.
//!
//! ```text
//!            consecutive failures ≥ SUSPECT_AFTER (1)
//!   Healthy ────────────────────────────────────▶ Suspect
//!      ▲                                            │
//!      │ any success                                │ failures ≥ DOWN_AFTER (3)
//!      │                                            ▼
//!   Probing ◀──────── probe tick ────────────── Down
//!      │  probe ok → Healthy · probe fail → Down  ▲
//!      └──────────────────────────────────────────┘
//! ```
//!
//! `Healthy` and `Suspect` are *routable*: a suspect backend keeps
//! taking (and possibly failing) traffic until it crosses the `Down`
//! threshold, so one dropped packet never evicts a shard. `Down` and
//! `Probing` are not routed to; the probe thread owns the recovery
//! path. The transitions live here, free of sockets and clocks, so the
//! whole machine is unit-testable; the gateway drives one cell per
//! backend under a mutex.

/// Consecutive failures that turn a Healthy backend Suspect.
const SUSPECT_AFTER: u32 = 1;

/// Consecutive failures that turn a routable backend Down.
const DOWN_AFTER: u32 = 3;

/// Where a backend sits in the health lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Some consecutive failures; still routed, watched closely.
    Suspect,
    /// Considered dead: not routed, awaiting a probe.
    Down,
    /// A recovery probe is in flight; not routed until it succeeds.
    Probing,
}

impl BackendState {
    /// The wire word for this state (used in the `gateway` snapshot).
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Healthy => "healthy",
            BackendState::Suspect => "suspect",
            BackendState::Down => "down",
            BackendState::Probing => "probing",
        }
    }
}

/// One backend's health cell: current state plus the consecutive-
/// failure streak that drives the transitions. The default is a fresh,
/// healthy cell.
#[derive(Clone, Debug, Default)]
pub struct HealthCell {
    state: BackendState,
    consecutive_failures: u32,
}

impl HealthCell {
    /// The current state.
    pub fn state(&self) -> BackendState {
        self.state
    }

    /// The current consecutive-failure streak.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether traffic may be routed here (Healthy or Suspect).
    pub fn is_routable(&self) -> bool {
        matches!(self.state, BackendState::Healthy | BackendState::Suspect)
    }

    /// A request (traffic or probe) succeeded: any state snaps back to
    /// Healthy and the failure streak resets. Success from `Down` or
    /// `Probing` is the traffic-driven recovery path — a last-resort
    /// routed job that happened to work revives the backend without
    /// waiting for the next probe tick.
    pub fn on_success(&mut self) {
        self.state = BackendState::Healthy;
        self.consecutive_failures = 0;
    }

    /// A routed request died on connect or mid-connection I/O. Counts
    /// toward the Suspect/Down thresholds; rejections (backpressure) do
    /// NOT come through here — a saturated backend is alive.
    pub fn on_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.state = match self.state {
            BackendState::Down | BackendState::Probing => BackendState::Down,
            _ if self.consecutive_failures >= DOWN_AFTER => BackendState::Down,
            _ if self.consecutive_failures >= SUSPECT_AFTER => BackendState::Suspect,
            unchanged => unchanged,
        };
    }

    /// The probe thread is about to test a Down backend. No-op from any
    /// other state (traffic may have revived it since the tick was
    /// scheduled).
    pub fn begin_probe(&mut self) {
        if self.state == BackendState::Down {
            self.state = BackendState::Probing;
        }
    }

    /// The probe finished: success re-admits the backend, failure sends
    /// it back to Down to wait for the next tick.
    pub fn on_probe_result(&mut self, ok: bool) {
        if ok {
            self.on_success();
        } else if self.state == BackendState::Probing {
            self.state = BackendState::Down;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> HealthCell {
        HealthCell::default()
    }

    #[test]
    fn starts_healthy_and_routable() {
        let c = cell();
        assert_eq!(c.state(), BackendState::Healthy);
        assert!(c.is_routable());
    }

    #[test]
    fn failures_walk_healthy_suspect_down() {
        let mut c = cell();
        c.on_failure();
        assert_eq!(c.state(), BackendState::Suspect);
        assert!(c.is_routable(), "suspect backends still take traffic");
        c.on_failure();
        assert_eq!(c.state(), BackendState::Suspect);
        c.on_failure();
        assert_eq!(c.state(), BackendState::Down);
        assert!(!c.is_routable());
    }

    #[test]
    fn one_success_heals_any_streak() {
        let mut c = cell();
        for _ in 0..10 {
            c.on_failure();
        }
        assert_eq!(c.state(), BackendState::Down);
        c.on_success();
        assert_eq!(c.state(), BackendState::Healthy);
        assert_eq!(c.consecutive_failures(), 0);
        // The streak restarts from scratch afterwards.
        c.on_failure();
        assert_eq!(c.state(), BackendState::Suspect);
    }

    #[test]
    fn probe_cycle_recovers_or_returns_to_down() {
        let mut c = cell();
        for _ in 0..3 {
            c.on_failure();
        }
        c.begin_probe();
        assert_eq!(c.state(), BackendState::Probing);
        assert!(!c.is_routable(), "probing backends are not routed");
        c.on_probe_result(false);
        assert_eq!(c.state(), BackendState::Down);
        c.begin_probe();
        c.on_probe_result(true);
        assert_eq!(c.state(), BackendState::Healthy);
    }

    #[test]
    fn begin_probe_is_a_noop_unless_down() {
        let mut c = cell();
        c.begin_probe();
        assert_eq!(c.state(), BackendState::Healthy);
        c.on_failure();
        c.begin_probe();
        assert_eq!(c.state(), BackendState::Suspect);
    }

    #[test]
    fn failures_while_probing_keep_the_backend_down() {
        let mut c = cell();
        for _ in 0..3 {
            c.on_failure();
        }
        c.begin_probe();
        // A last-resort routed job failed while the probe was in flight.
        c.on_failure();
        assert_eq!(c.state(), BackendState::Down);
        // The stale probe's failure result cannot resurrect anything.
        c.on_probe_result(false);
        assert_eq!(c.state(), BackendState::Down);
    }

    #[test]
    fn state_names_are_wire_stable() {
        assert_eq!(BackendState::Healthy.name(), "healthy");
        assert_eq!(BackendState::Suspect.name(), "suspect");
        assert_eq!(BackendState::Down.name(), "down");
        assert_eq!(BackendState::Probing.name(), "probing");
    }
}
