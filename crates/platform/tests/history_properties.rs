//! Property-based tests for the inter-arrival window behind
//! [`faas_platform::keepalive::FunctionHistory`].
//!
//! The window keeps its last 64 gaps sorted as arrivals come in, so every
//! percentile query is an index read. Keep-alive decisions — and with them
//! every simulated outcome — depend on those reads being exactly the order
//! statistics of the recent gaps. These tests drive the window against an
//! oracle that keeps every gap and sorts the last ≤ 64 of them from scratch
//! on each query.

use faas_platform::keepalive::FunctionHistory;
use proptest::prelude::*;

/// Window size of `FunctionHistory`.
const WINDOW: usize = 64;

/// The quantiles checked after every arrival, NaN included.
const QUANTILES: [f64; 6] = [0.0, 0.1, 0.5, 0.9, 1.0, f64::NAN];

/// Reference model: all gaps ever observed, sorted per query.
#[derive(Default)]
struct SortOracle {
    gaps: Vec<u64>,
    last_ms: Option<u64>,
}

impl SortOracle {
    fn observe_arrival(&mut self, now_ms: u64) {
        if let Some(last) = self.last_ms {
            self.gaps.push(now_ms.saturating_sub(last));
        }
        self.last_ms = Some(now_ms);
    }

    /// The last ≤ 64 gaps in ascending order.
    fn window(&self) -> Vec<u64> {
        let mut w = self.gaps[self.gaps.len().saturating_sub(WINDOW)..].to_vec();
        w.sort_unstable();
        w
    }

    /// Order statistic at `ceil(q * n) - 1`, with `q` clamped into `[0, 1]`
    /// and a non-finite `q` read as 0.5.
    fn quantile(&self, q: f64) -> Option<u64> {
        let w = self.window();
        if w.len() < 4 {
            return None;
        }
        let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
        let rank = ((w.len() as f64) * q).ceil() as usize;
        Some(w[rank.max(1) - 1])
    }

    /// Upper median.
    fn median(&self) -> Option<u64> {
        let w = self.window();
        (w.len() >= 4).then(|| w[w.len() / 2])
    }

    fn dispersion(&self) -> Option<f64> {
        let median = self.median()?;
        let p90 = self.quantile(0.9)?;
        (median != 0).then(|| p90 as f64 / median as f64)
    }
}

/// One step of an arrival sequence: a repeat of the last timestamp (zero
/// gap), a gap from a small set (duplicate gaps), a wide gap, or a step
/// backwards in time (the gap saturates to 0).
fn arb_step() -> impl Strategy<Value = (u8, u64)> {
    (0u8..4, 0u64..1 << 20)
}

fn apply(t: u64, (kind, value): (u8, u64)) -> u64 {
    match kind {
        0 => t,
        1 => t + [1, 50, 1_000, 60_000][(value % 4) as usize],
        2 => t + value,
        _ => t.saturating_sub(value % 5_000),
    }
}

/// Asserts that every query of `h` equals the oracle's answer.
fn check(h: &FunctionHistory, oracle: &SortOracle, step: usize) {
    let n = oracle.gaps.len().min(WINDOW);
    prop_assert_eq!(h.sample_count(), n, "step {}: sample count", step);
    prop_assert_eq!(h.iat_median_ms(), oracle.median(), "step {}: median", step);
    prop_assert_eq!(h.iat_p90_ms(), oracle.quantile(0.9), "step {}: p90", step);
    prop_assert_eq!(
        h.iat_dispersion(),
        oracle.dispersion(),
        "step {}: dispersion",
        step
    );
    for q in QUANTILES {
        prop_assert_eq!(
            h.iat_quantile_ms(q),
            oracle.quantile(q),
            "step {}: quantile {}",
            step,
            q
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    // Short and long sequences alike: every query after every arrival
    // equals the sort oracle, before the window fills and after it wraps.
    #[test]
    fn queries_match_the_sort_oracle(
        start in 0u64..1 << 40,
        steps in proptest::collection::vec(arb_step(), 0..400),
    ) {
        let mut h = FunctionHistory::default();
        let mut oracle = SortOracle::default();
        let mut t = start;
        for (i, &step) in steps.iter().enumerate() {
            t = apply(t, step);
            h.observe_arrival(t);
            oracle.observe_arrival(t);
            check(&h, &oracle, i);
        }
        prop_assert_eq!(h.arrivals, steps.len() as u64);
    }

    // Past two full windows the ring has evicted every slot at least twice;
    // low-cardinality gaps make most evictions remove one of several equal
    // values.
    #[test]
    fn wrapped_window_with_duplicate_gaps_matches_the_oracle(
        start in 0u64..1 << 40,
        gaps in proptest::collection::vec(0u64..4, 2 * WINDOW + 1..6 * WINDOW),
    ) {
        let mut h = FunctionHistory::default();
        let mut oracle = SortOracle::default();
        let mut t = start;
        h.observe_arrival(t);
        oracle.observe_arrival(t);
        for (i, &gap) in gaps.iter().enumerate() {
            t += gap * 100;
            h.observe_arrival(t);
            oracle.observe_arrival(t);
            check(&h, &oracle, i);
        }
        prop_assert_eq!(h.sample_count(), WINDOW);
    }
}
