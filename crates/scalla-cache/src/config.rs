//! Cache configuration with the paper's default constants.

use scalla_util::Nanos;

/// Number of eviction windows the lifetime `L_t` is divided into (§III-A3).
/// The paper fixes this at 64; it is a structural constant, not a tunable,
/// because window indices are stored as 6-bit values chained per window.
pub const WINDOW_COUNT: usize = 64;

/// Load-factor percentage at which the hash table grows to the next
/// Fibonacci size. 80 % in the paper (§III-A1).
pub const MAX_LOAD_PERCENT: usize = 80;

/// Tunable cache parameters. Every default is the value the paper states.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Location-object lifetime `L_t`. "configurable but usually set to
    /// eight hours" (§III-A2).
    pub lifetime: Nanos,
    /// Full client delay imposed when a file's existence cannot yet be
    /// decided; also the processing-deadline length. "By default, the delay
    /// is set to 5 seconds" (§III-B, §III-C2).
    pub full_delay: Nanos,
    /// Fast-response sweep period: a queued request gets this long to be
    /// satisfied before the full delay is imposed. 133 ms in the paper
    /// (§III-B1).
    pub fast_window: Nanos,
    /// Number of fast-response-queue anchors. "an array of 1024 anchors"
    /// (§III-B).
    pub response_anchors: usize,
    /// Initial hash-table size; rounded up to a Fibonacci number.
    pub initial_table_size: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            lifetime: Nanos::from_hours(8),
            full_delay: Nanos::from_secs(5),
            fast_window: Nanos::from_millis(133),
            response_anchors: 1024,
            initial_table_size: 89,
        }
    }
}

impl CacheConfig {
    /// The window tick period, `L_t / 64` (7.5 minutes at the default
    /// lifetime, matching the paper's example).
    #[inline]
    pub fn window_period(&self) -> Nanos {
        self.lifetime.div(WINDOW_COUNT as u64)
    }

    /// A compact configuration for tests: short lifetime, small table.
    pub fn for_tests() -> CacheConfig {
        CacheConfig {
            lifetime: Nanos::from_secs(64),
            full_delay: Nanos::from_secs(5),
            fast_window: Nanos::from_millis(133),
            response_anchors: 8,
            initial_table_size: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CacheConfig::default();
        assert_eq!(c.lifetime, Nanos::from_hours(8));
        assert_eq!(c.full_delay, Nanos::from_secs(5));
        assert_eq!(c.fast_window, Nanos::from_millis(133));
        assert_eq!(c.response_anchors, 1024);
        assert_eq!(MAX_LOAD_PERCENT, 80);
        // 8h / 64 = 7.5 minutes, the example in §III-A3.
        assert_eq!(c.window_period(), Nanos::from_secs(450));
    }
}
