//! Time-series utilities: smoothing, peak detection, peak-to-trough ratios.
//!
//! Section 3.2 of the paper detects the largest daily peak of each region on
//! a smoothed request series (Figure 5) and characterizes functions by their
//! peak-to-trough ratio (Figure 6). This module provides those operations on
//! plain `&[f64]` series (one value per time bin).

use serde::{Deserialize, Serialize};

/// Centred moving average with the given half-window.
///
/// `half_window = 0` returns the input unchanged. Edges use the available
/// (shorter) window, so the output has the same length as the input.
pub fn moving_average(series: &[f64], half_window: usize) -> Vec<f64> {
    if half_window == 0 || series.len() <= 1 {
        return series.to_vec();
    }
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half_window);
        let hi = (i + half_window + 1).min(n);
        let window = &series[lo..hi];
        out.push(window.iter().sum::<f64>() / window.len() as f64);
    }
    out
}

/// A detected local maximum in a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Peak {
    /// Index of the peak in the (smoothed) series.
    pub index: usize,
    /// Value of the smoothed series at the peak.
    pub value: f64,
}

/// Configuration for peak detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeakDetector {
    /// Half-window of the moving average applied before detection.
    pub smoothing_half_window: usize,
    /// Minimum number of bins between two reported peaks.
    pub min_separation: usize,
    /// Minimum peak value as a fraction of the global maximum (0 disables).
    pub min_relative_height: f64,
}

impl Default for PeakDetector {
    fn default() -> Self {
        Self {
            smoothing_half_window: 15,
            min_separation: 60,
            min_relative_height: 0.2,
        }
    }
}

impl PeakDetector {
    /// Detects local maxima after smoothing, honouring the separation and
    /// height constraints. Peaks are returned sorted by index.
    pub fn detect(&self, series: &[f64]) -> Vec<Peak> {
        detect_peaks_with(series, self)
    }

    /// Returns the single largest peak inside each consecutive window of
    /// `period` bins (e.g. `period = 1440` for daily peaks on minute bins),
    /// mirroring the red "largest peak in 24 hours" markers of Figure 5.
    pub fn largest_peak_per_period(&self, series: &[f64], period: usize) -> Vec<Peak> {
        if period == 0 || series.is_empty() {
            return Vec::new();
        }
        let smoothed = moving_average(series, self.smoothing_half_window);
        let mut out = Vec::new();
        let mut start = 0;
        while start < smoothed.len() {
            let end = (start + period).min(smoothed.len());
            if let Some((idx, &val)) = smoothed[start..end]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            {
                out.push(Peak {
                    index: start + idx,
                    value: val,
                });
            }
            start = end;
        }
        out
    }
}

/// Detects peaks with the default detector settings.
pub fn detect_peaks(series: &[f64]) -> Vec<Peak> {
    detect_peaks_with(series, &PeakDetector::default())
}

fn detect_peaks_with(series: &[f64], cfg: &PeakDetector) -> Vec<Peak> {
    if series.len() < 3 {
        return Vec::new();
    }
    let smoothed = moving_average(series, cfg.smoothing_half_window);
    let global_max = smoothed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !global_max.is_finite() || global_max <= 0.0 {
        return Vec::new();
    }
    let threshold = global_max * cfg.min_relative_height;
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 1..smoothed.len() - 1 {
        if smoothed[i] >= smoothed[i - 1]
            && smoothed[i] > smoothed[i + 1]
            && smoothed[i] >= threshold
        {
            candidates.push(Peak {
                index: i,
                value: smoothed[i],
            });
        }
    }
    // Enforce minimum separation, keeping the taller of two close peaks.
    candidates.sort_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= cfg.min_separation)
        {
            kept.push(c);
        }
    }
    kept.sort_by_key(|p| p.index);
    kept
}

/// Peak-to-trough ratio of a series, following the paper's definition: the
/// ratio of the largest peak of the (smoothed) periodic pattern to its lowest
/// trough.
///
/// To avoid division by zero for series that touch zero (e.g. functions with
/// no requests at night), the trough is floored at `floor`. Series with no
/// identifiable variation return 1.0, matching the paper's convention that
/// "functions with a constant value of requests per minute, or no
/// identifiable peaks have a peak-to-trough ratio of one".
pub fn peak_to_trough_ratio(series: &[f64], smoothing_half_window: usize, floor: f64) -> f64 {
    if series.is_empty() {
        return 1.0;
    }
    let smoothed = moving_average(series, smoothing_half_window);
    let max = smoothed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = smoothed.iter().cloned().fold(f64::INFINITY, f64::min);
    if !max.is_finite() || !min.is_finite() || max <= 0.0 {
        return 1.0;
    }
    let trough = min.max(floor.max(f64::MIN_POSITIVE));
    let ratio = max / trough;
    if ratio < 1.0 {
        1.0
    } else {
        ratio
    }
}

/// Normalizes a series by its maximum (series of zeros stays zero).
pub fn normalize_by_max(series: &[f64]) -> Vec<f64> {
    let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() || max <= 0.0 {
        return vec![0.0; series.len()];
    }
    series.iter().map(|v| v / max).collect()
}

/// Sums a series into coarser bins of `factor` consecutive elements
/// (the last bin may be partial). Used to roll minute bins up to hours.
pub fn rebin_sum(series: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return series.to_vec();
    }
    series.chunks(factor).map(|c| c.iter().sum()).collect()
}

/// Averages a series into coarser bins of `factor` consecutive elements.
pub fn rebin_mean(series: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return series.to_vec();
    }
    series
        .chunks(factor)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Exact quantile of a series by partial selection (`select_nth_unstable`),
/// without sorting the whole input: the `q`-quantile is the order statistic
/// at index `ceil(q * n) - 1` (clamped into range), matching the convention
/// of the platform's sorted inter-arrival window. Returns `None` for an
/// empty series or a non-finite `q`. NaN values are ordered last.
pub fn quantile(series: &[f64], q: f64) -> Option<f64> {
    if series.is_empty() || !q.is_finite() {
        return None;
    }
    let n = series.len();
    let idx = if q <= 0.0 {
        0
    } else {
        (((n as f64) * q.min(1.0)).ceil() as usize).saturating_sub(1)
    }
    .min(n - 1);
    let mut scratch = series.to_vec();
    let (_, nth, _) = scratch.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(*nth)
}

/// Configuration of the online [`Forecaster`]: Holt's linear (level + trend)
/// exponential smoothing with an optional additive seasonal component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForecastConfig {
    /// Level smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor in `[0, 1]`.
    pub beta: f64,
    /// Seasonal smoothing factor in `[0, 1]` (ignored when
    /// `season_len == 0`).
    pub gamma: f64,
    /// Number of buckets in one season (0 disables the seasonal component;
    /// e.g. bins-per-day for diurnal recovery).
    pub season_len: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self {
            alpha: 0.4,
            beta: 0.1,
            gamma: 0.3,
            season_len: 0,
        }
    }
}

/// Online trend + seasonality forecaster over a bucketed rate series.
///
/// Additive Holt–Winters: the smoothed `level` follows the deseasonalised
/// observations, `trend` follows the level's drift, and `season` holds one
/// additive offset per bucket of the configured season. When a season is
/// configured, the first full period is buffered and used as the classical
/// initialisation — `level` starts at the period mean and each seasonal
/// offset at its bucket's deviation from that mean. Zero-initialised
/// seasonals would instead let the level chase a slowly-varying signal and
/// leave the offsets near zero, flattening the forecast (visible at high
/// bins-per-day in the diurnal-recovery property). Every update — including
/// the first-season mean — is a fixed linear combination of the
/// observations, so the whole state — and therefore every forecast — scales
/// linearly with the input: feeding `c · xᵢ` yields `c ·` the original
/// forecast for any `c ≥ 0`. The property suite pins this (scaled-input
/// monotonicity) together with diurnal recovery.
///
/// Forecasts are floored at zero: arrival rates cannot be negative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forecaster {
    config: ForecastConfig,
    level: f64,
    trend: f64,
    season: Vec<f64>,
    /// First-season buffer; drained into `level`/`season` once full.
    warmup: Vec<f64>,
    observations: u64,
}

impl Forecaster {
    /// A fresh forecaster with no observations.
    pub fn new(config: ForecastConfig) -> Self {
        let season = vec![0.0; config.season_len];
        Self {
            config,
            level: 0.0,
            trend: 0.0,
            season,
            warmup: Vec::new(),
            observations: 0,
        }
    }

    /// Fits a forecaster over a whole series, observing in order.
    pub fn fit(config: ForecastConfig, series: &[f64]) -> Self {
        let mut f = Self::new(config);
        for &v in series {
            f.observe(v);
        }
        f
    }

    /// Number of observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds the next bucket's observed value (one fixed time step).
    pub fn observe(&mut self, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        if !self.season.is_empty() && (self.observations as usize) < self.season.len() {
            // Classical initialisation: buffer the first full season, then
            // seed the level with the period mean and each seasonal offset
            // with its bucket's deviation from it.
            self.warmup.push(value);
            if self.warmup.len() == self.season.len() {
                let mean = self.warmup.iter().sum::<f64>() / self.warmup.len() as f64;
                self.level = mean;
                for (slot, &v) in self.season.iter_mut().zip(&self.warmup) {
                    *slot = v - mean;
                }
                self.warmup = Vec::new();
            }
            self.observations += 1;
            return;
        }
        if self.observations == 0 {
            // Seed the level directly so the first forecasts track the
            // observed magnitude instead of decaying up from zero.
            self.level = value;
        } else {
            let seasonal = self.seasonal_at(self.observations);
            let deseasoned = value - seasonal;
            let prev_level = self.level;
            self.level = self.config.alpha * deseasoned
                + (1.0 - self.config.alpha) * (prev_level + self.trend);
            self.trend = self.config.beta * (self.level - prev_level)
                + (1.0 - self.config.beta) * self.trend;
            if !self.season.is_empty() {
                let idx = (self.observations as usize) % self.season.len();
                self.season[idx] = self.config.gamma * (value - self.level)
                    + (1.0 - self.config.gamma) * self.season[idx];
            }
        }
        self.observations += 1;
    }

    fn seasonal_at(&self, step: u64) -> f64 {
        if self.season.is_empty() {
            0.0
        } else {
            self.season[(step as usize) % self.season.len()]
        }
    }

    /// Predicted value `steps_ahead` buckets after the last observation
    /// (`steps_ahead = 1` is the next bucket), floored at zero.
    pub fn forecast(&self, steps_ahead: u64) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        if !self.warmup.is_empty() {
            // Still inside the first season: predict the running mean of the
            // buffered observations (linear in the input, like the rest of
            // the state).
            let mean = self.warmup.iter().sum::<f64>() / self.warmup.len() as f64;
            return mean.max(0.0);
        }
        let h = steps_ahead.max(1);
        let linear = self.level + (h as f64) * self.trend;
        let seasonal = self.seasonal_at(self.observations + h - 1);
        (linear + seasonal).max(0.0)
    }

    /// The largest forecast over the next `horizon` buckets — the peak the
    /// model expects inside the horizon (0 for an empty horizon).
    pub fn forecast_peak(&self, horizon: u64) -> f64 {
        (1..=horizon).map(|h| self.forecast(h)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_series(days: usize, bins_per_day: usize, phase: f64) -> Vec<f64> {
        (0..days * bins_per_day)
            .map(|i| {
                let t = i as f64 / bins_per_day as f64 * std::f64::consts::TAU;
                100.0 + 80.0 * (t - phase).sin()
            })
            .collect()
    }

    #[test]
    fn moving_average_preserves_length_and_smooths() {
        let noisy: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 10.0 } else { 0.0 })
            .collect();
        let smooth = moving_average(&noisy, 5);
        assert_eq!(smooth.len(), noisy.len());
        let var_raw: f64 = noisy.iter().map(|v| (v - 5.0).powi(2)).sum();
        let var_smooth: f64 = smooth.iter().map(|v| (v - 5.0).powi(2)).sum();
        assert!(var_smooth < var_raw / 4.0);
        assert_eq!(moving_average(&noisy, 0), noisy);
        assert_eq!(moving_average(&[1.0], 3), vec![1.0]);
    }

    #[test]
    fn detects_daily_peaks() {
        let series = diurnal_series(3, 1440, 0.0);
        let detector = PeakDetector {
            smoothing_half_window: 10,
            min_separation: 600,
            min_relative_height: 0.5,
        };
        let peaks = detector.detect(&series);
        assert_eq!(peaks.len(), 3, "one peak per day, got {peaks:?}");
        // Peaks are roughly a day apart.
        for w in peaks.windows(2) {
            let gap = w[1].index - w[0].index;
            assert!((gap as i64 - 1440).abs() < 60, "gap {gap}");
        }
    }

    #[test]
    fn largest_peak_per_period_finds_daily_max() {
        let series = diurnal_series(4, 1440, 1.0);
        let detector = PeakDetector::default();
        let daily = detector.largest_peak_per_period(&series, 1440);
        assert_eq!(daily.len(), 4);
        for p in &daily {
            assert!(p.value > 170.0, "peak value {}", p.value);
        }
        assert!(detector.largest_peak_per_period(&series, 0).is_empty());
    }

    #[test]
    fn peak_detection_edge_cases() {
        assert!(detect_peaks(&[]).is_empty());
        assert!(detect_peaks(&[1.0, 2.0]).is_empty());
        assert!(detect_peaks(&[0.0; 100]).is_empty());
    }

    #[test]
    fn peak_to_trough_basic() {
        let series = diurnal_series(2, 1440, 0.0);
        let ratio = peak_to_trough_ratio(&series, 10, 1.0);
        assert!((ratio - 9.0).abs() < 1.0, "ratio {ratio}");
        // Constant series => ratio 1.
        assert_eq!(
            peak_to_trough_ratio(&[5.0; 100], 5, 1.0),
            5.0f64.max(1.0) / 5.0
        );
        assert_eq!(peak_to_trough_ratio(&[], 5, 1.0), 1.0);
        assert_eq!(peak_to_trough_ratio(&[0.0; 50], 5, 1.0), 1.0);
    }

    #[test]
    fn peak_to_trough_floors_trough() {
        let mut series = vec![0.0; 100];
        series[50] = 1000.0;
        let ratio = peak_to_trough_ratio(&series, 0, 1.0);
        assert!((ratio - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_matches_order_statistics() {
        let series = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&series, 0.0), Some(1.0));
        assert_eq!(quantile(&series, 0.5), Some(3.0));
        assert_eq!(quantile(&series, 1.0), Some(5.0));
        assert_eq!(quantile(&series, 0.9), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&series, f64::NAN), None);
    }

    #[test]
    fn forecaster_tracks_level_and_trend() {
        // A pure linear ramp: Holt smoothing converges on the slope, so the
        // h-step forecast extrapolates ahead of the last observation.
        let series: Vec<f64> = (0..200).map(|i| 10.0 + 2.0 * i as f64).collect();
        let f = Forecaster::fit(ForecastConfig::default(), &series);
        let last = *series.last().unwrap();
        let one = f.forecast(1);
        assert!(one > last, "forecast {one} should extend the ramp {last}");
        assert!(f.forecast(10) > one, "longer horizons extrapolate further");
        assert!((one - (last + 2.0)).abs() < 2.0, "one-step forecast {one}");
        assert_eq!(f.observations(), 200);
        // A fresh forecaster predicts nothing.
        assert_eq!(Forecaster::new(ForecastConfig::default()).forecast(1), 0.0);
    }

    #[test]
    fn forecaster_recovers_diurnal_seasonality() {
        let bins = 48;
        let series = diurnal_series(6, bins, 0.0);
        let cfg = ForecastConfig {
            season_len: bins,
            ..ForecastConfig::default()
        };
        let f = Forecaster::fit(cfg, &series);
        // Forecast one full day ahead and compare phases: the predicted peak
        // bucket must clearly exceed the predicted trough bucket.
        let day_ahead: Vec<f64> = (1..=bins as u64).map(|h| f.forecast(h)).collect();
        let max = day_ahead.iter().cloned().fold(f64::MIN, f64::max);
        let min = day_ahead.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > min + 80.0,
            "seasonal swing not recovered: max {max}, min {min}"
        );
        // The peak forecast over the horizon is the maximum of the steps.
        assert_eq!(f.forecast_peak(bins as u64), max);
        assert_eq!(f.forecast_peak(0), 0.0);
    }

    #[test]
    fn forecaster_scales_linearly_with_input() {
        let series = diurnal_series(3, 24, 0.5);
        let scaled: Vec<f64> = series.iter().map(|v| v * 3.0).collect();
        let cfg = ForecastConfig {
            season_len: 24,
            ..ForecastConfig::default()
        };
        let base = Forecaster::fit(cfg, &series);
        let tripled = Forecaster::fit(cfg, &scaled);
        for h in 1..=30 {
            let expected = 3.0 * base.forecast(h);
            let got = tripled.forecast(h);
            assert!(
                (got - expected).abs() < 1e-6 * expected.abs().max(1.0),
                "h={h}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn normalize_and_rebin() {
        let series = vec![1.0, 2.0, 4.0, 8.0];
        let norm = normalize_by_max(&series);
        assert_eq!(norm, vec![0.125, 0.25, 0.5, 1.0]);
        assert_eq!(normalize_by_max(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(rebin_sum(&series, 2), vec![3.0, 12.0]);
        assert_eq!(rebin_mean(&series, 2), vec![1.5, 6.0]);
        assert_eq!(rebin_sum(&series, 3), vec![7.0, 8.0]);
        assert_eq!(rebin_sum(&series, 1), series);
    }
}
