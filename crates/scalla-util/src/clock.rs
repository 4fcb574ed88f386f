//! Time abstraction shared by every Scalla component.
//!
//! All paper constants are time-based — the 8 h location-object lifetime
//! `L_t`, the `L_t/64` window tick, the 5 s processing deadline, and the
//! 133 ms fast-response sweep. To reproduce latency-shape experiments
//! deterministically, the cache and protocol code never read the system
//! clock directly; they are handed a [`Clock`]. The discrete-event runtime
//! supplies a [`VirtualClock`] advanced by the event loop, the live threaded
//! runtime a [`SystemClock`].

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A point in time, in nanoseconds since an arbitrary epoch.
///
/// `Nanos` is also used for durations; the arithmetic saturates rather than
/// wraps so that deadline math near the epoch cannot panic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time — the virtual epoch.
    pub const ZERO: Nanos = Nanos(0);

    /// Constructs from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Constructs from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Constructs from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Constructs from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Nanos {
        Nanos::from_secs(m * 60)
    }

    /// Constructs from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Nanos {
        Nanos::from_secs(h * 3600)
    }

    /// Value in microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in seconds as a float — for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference, `self - earlier`.
    #[inline]
    #[must_use]
    pub fn since(self, earlier: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// Integer division of durations (e.g. `L_t / 64` for the window size).
    #[inline]
    #[must_use]
    pub fn div(self, n: u64) -> Nanos {
        Nanos(self.0 / n)
    }

    /// Scalar multiplication of a duration.
    #[inline]
    #[must_use]
    pub fn mul(self, n: u64) -> Nanos {
        Nanos(self.0.saturating_mul(n))
    }
}

impl std::ops::Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        self.since(rhs)
    }
}

impl std::fmt::Debug for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self)
    }
}

impl std::fmt::Display for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A source of the current time.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Nanos;
}

/// A shared, thread-safe clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Deterministic clock advanced explicitly by a driver (the discrete-event
/// loop, or a test).
#[derive(Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Moves the clock forward by `delta`.
    pub fn advance(&self, delta: Nanos) {
        self.now.fetch_add(delta.0, Ordering::SeqCst);
    }

    /// Jumps the clock to `t`. `t` must not be earlier than the current
    /// time; time never moves backwards.
    pub fn set(&self, t: Nanos) {
        let prev = self.now.swap(t.0, Ordering::SeqCst);
        debug_assert!(prev <= t.0, "virtual clock moved backwards: {prev} -> {}", t.0);
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now(&self) -> Nanos {
        Nanos(self.now.load(Ordering::SeqCst))
    }
}

/// Monotonic wall-clock time for the live threaded runtime.
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> SystemClock {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    #[inline]
    fn now(&self) -> Nanos {
        Nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors() {
        assert_eq!(Nanos::from_micros(1).0, 1_000);
        assert_eq!(Nanos::from_millis(1).0, 1_000_000);
        assert_eq!(Nanos::from_secs(1).0, 1_000_000_000);
        assert_eq!(Nanos::from_hours(8), Nanos::from_secs(8 * 3600));
        assert_eq!(Nanos::from_hours(8).div(64), Nanos::from_secs(450));
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(Nanos(5) - Nanos(10), Nanos::ZERO);
        assert_eq!(Nanos(u64::MAX) + Nanos(1), Nanos(u64::MAX));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(50)), "50.000us");
        assert_eq!(format!("{}", Nanos::from_millis(133)), "133.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(5)), "5.000s");
    }

    #[test]
    fn virtual_clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Nanos::ZERO);
        c.advance(Nanos::from_millis(7));
        assert_eq!(c.now(), Nanos::from_millis(7));
        c.set(Nanos::from_secs(1));
        assert_eq!(c.now(), Nanos::from_secs(1));
    }

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
