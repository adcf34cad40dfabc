//! The metric catalogue (mirrored by `BENCHMARK.json`) and the per-layer
//! metric set of a traced run.

use std::collections::BTreeMap;

use faas_platform::SimReport;

use crate::trace::HookTotals;

/// End-to-end metrics, printed with tracing off: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("arrivals_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
];

/// Per-layer metrics, printed by a traced run: name, unit. A metric of a
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.stream.drain_s", "s"),
    ("workload.stream.ns_per_arrival", "ns"),
    ("workload.replay.open_s", "s"),
    ("workload.replay.open_passes", "count"),
    ("trace.csv.drain_s", "s"),
    ("trace.csv.read_passes", "count"),
    ("policy.keep_alive.calls", "count"),
    ("policy.keep_alive.busy_s", "s"),
    ("policy.keep_alive.ns_per_call", "ns"),
    ("policy.prewarm.calls", "count"),
    ("policy.prewarm.busy_s", "s"),
    ("policy.prewarm.pods_requested", "count"),
    ("policy.prewarm.useful_ratio", "ratio"),
    ("policy.admission.calls", "count"),
    ("policy.admission.busy_s", "s"),
    ("policy.admission.delayed_ratio", "ratio"),
    ("platform.engine.self_s", "s"),
    ("platform.engine.ns_per_arrival", "ns"),
    ("platform.cold_starts", "count"),
    ("platform.prewarmed_pods", "count"),
    ("platform.pool_hit_ratio", "ratio"),
    ("platform.layer_cache_hit_ratio", "ratio"),
    ("platform.peak_live_pods", "count"),
    ("platform.shard.arrival_imbalance", "ratio"),
    ("platform.shard.speedup", "ratio"),
    ("session.lower_s", "s"),
    ("session.parallel_efficiency", "ratio"),
    ("session.fold_s", "s"),
    ("session.envelope_s", "s"),
    ("session.envelope_bytes", "bytes"),
    ("session.cell_ms.keepalive", "ms"),
    ("session.cell_ms.keepalive-fixed", "ms"),
    ("session.cell_ms.prewarm", "ms"),
    ("session.cell_ms.pool-prediction", "ms"),
    ("session.cell_ms.concurrency", "ms"),
    ("session.cell_ms.node-placement", "ms"),
    ("session.cell_ms.adaptive", "ms"),
    ("session.cell_ms.baseline", "ms"),
    ("session.cell_ms.adaptive-keep-alive", "ms"),
    ("session.cell_ms.timer-aware-keep-alive", "ms"),
    ("session.cell_ms.timer-prewarm", "ms"),
    ("session.cell_ms.demand-prewarm", "ms"),
    ("session.cell_ms.chain-prewarm", "ms"),
    ("session.cell_ms.peak-shaving", "ms"),
    ("session.cell_ms.combined", "ms"),
    ("trace_overhead", "ratio"),
    ("host.reference_ms", "ms"),
];

/// Per-layer values of one traced run, every [`PER_LAYER`] metric present,
/// plus the log2 latency histogram of each policy hook.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub histograms: Vec<(&'static str, String)>,
}

impl Layers {
    pub fn new() -> Self {
        Self {
            values: PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect(),
            histograms: Vec::new(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`]: the catalogue is fixed.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        *slot.1 = value;
    }

    /// Metrics in catalogue order with their units.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.values[name], *unit))
    }

    /// Policy-hook metrics from the hook totals and the runs' reports.
    pub fn hooks(&mut self, totals: &HookTotals, reports: &[SimReport]) {
        let (ka, pw, adm) = (&totals.keep_alive, &totals.prewarm, &totals.admission);
        self.histograms = vec![
            ("policy.keep_alive", ka.histogram()),
            ("policy.prewarm", pw.histogram()),
            ("policy.admission", adm.histogram()),
        ];
        self.set("policy.keep_alive.calls", ka.calls as f64);
        self.set("policy.keep_alive.busy_s", ka.busy_s());
        self.set("policy.keep_alive.ns_per_call", ratio(ka.busy_ns, ka.calls));
        self.set("policy.prewarm.calls", pw.calls as f64);
        self.set("policy.prewarm.busy_s", pw.busy_s());
        self.set("policy.prewarm.pods_requested", pw.items as f64);
        let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
        self.set(
            "policy.prewarm.useful_ratio",
            ratio(sum(|r| r.prewarmed_pods_used), sum(|r| r.prewarmed_pods)),
        );
        self.set("policy.admission.calls", adm.calls as f64);
        self.set("policy.admission.busy_s", adm.busy_s());
        self.set(
            "policy.admission.delayed_ratio",
            ratio(sum(|r| r.delayed_requests), sum(|r| r.requests)),
        );
    }

    /// Platform counts summed over the runs' reports (peak pods: the
    /// largest of any run).
    pub fn platform(&mut self, reports: &[SimReport]) {
        let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
        self.set("platform.cold_starts", sum(|r| r.cold_starts) as f64);
        self.set("platform.prewarmed_pods", sum(|r| r.prewarmed_pods) as f64);
        let pool_hits = sum(|r| r.pool_hits);
        self.set(
            "platform.pool_hit_ratio",
            ratio(pool_hits, pool_hits + sum(|r| r.scratch_creations)),
        );
        let cache_hits = sum(|r| r.layer_cache_hits);
        self.set(
            "platform.layer_cache_hit_ratio",
            ratio(cache_hits, cache_hits + sum(|r| r.layer_pulls)),
        );
        let peak = reports.iter().map(|r| r.peak_live_pods).max().unwrap_or(0);
        self.set("platform.peak_live_pods", f64::from(peak));
    }
}

/// `num / den`, 0 for an empty base.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the checkout root lists exactly these metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn every_metric_starts_at_zero_and_unknown_names_panic() {
        let mut layers = Layers::new();
        assert!(layers.values().all(|(_, v, _)| v == 0.0));
        layers.set("trace_overhead", 0.5);
        assert!(std::panic::catch_unwind(move || layers.set("nope", 1.0)).is_err());
    }
}
