//! Cross-shard determinism: `run_sharded(n)` must produce exactly the
//! `SimReport` and `RegionTrace` of `run_streamed` over the unsharded
//! stream, for every shard count `n` — the contract that makes intra-cell
//! sharding a pure performance knob rather than a semantic one (see
//! `faas_platform::shard` and ARCHITECTURE.md).
//!
//! The suite covers the baseline policy set, a stateful policy set that
//! exercises every cross-shard touchpoint (pre-warm ticks, pool draws,
//! admission delays, adaptive keep-alive histories), and the epoch-boundary
//! edge cases called out in the design: more shards than functions (empty
//! shards), an epoch longer than the whole horizon, a one-second epoch, and
//! pools so scarce they exhaust within an epoch.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use faas_platform::keepalive::FunctionHistory;
use faas_platform::{
    AdaptiveKeepAlive, AdmissionPolicy, FunctionView, KeepAlivePolicy, PlatformConfig,
    PlatformView, PolicyFactory, PrewarmPolicy, PrewarmRequest, SimulationSpec,
};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::stream::StreamedWorkload;
use faas_workload::{ShardPlan, WorkloadSpec};
use fntrace::FunctionId;
use fntrace::TriggerType;
use proptest::prelude::*;

fn population(min_functions: usize) -> PopulationConfig {
    PopulationConfig {
        function_scale: 0.002,
        volume_scale: 2.0e-6,
        max_requests_per_day: 2_000.0,
        min_functions,
    }
}

fn calibration(days: u32) -> Calibration {
    Calibration {
        duration_days: days,
        ..Calibration::default()
    }
}

fn region(index: u16) -> RegionProfile {
    RegionProfile::paper_region(index.clamp(1, 5)).expect("paper regions 1..=5 exist")
}

/// Runs the unsharded baseline once, then asserts every sharded run over the
/// same workload reproduces it byte for byte (reports and traces are
/// `PartialEq` over every field, including the full request/cold-start
/// tables when tracing is on).
fn assert_shard_invariant(
    spec: &SimulationSpec,
    streamed: &StreamedWorkload,
    shard_counts: &[u32],
) {
    let header = streamed.header();
    let (base_report, base_trace) = spec.run_streamed(header, streamed.stream());
    for &shards in shard_counts {
        let plan = ShardPlan::new(&header.functions, shards);
        let streams: Vec<_> = (0..plan.shards())
            .map(|s| streamed.stream_shard(&plan, s))
            .collect();
        let (report, trace) = spec.run_sharded(header, &plan, streams);
        assert_eq!(report, base_report, "report diverged at shards={shards}");
        assert_eq!(trace, base_trace, "trace diverged at shards={shards}");
    }
}

fn streamed_workload(seed: u64, min_functions: usize, days: u32) -> StreamedWorkload {
    StreamedWorkload::generate(
        &region(2),
        calibration(days),
        &population(min_functions),
        seed,
    )
}

// ---------------------------------------------------------------------------
// A deliberately busy policy set: every policy is stateful and per-function,
// so the test exercises pre-warm pool draws, delayed arrivals crossing epoch
// boundaries, and keep-alive histories — all the machinery that could
// plausibly observe shard layout.
// ---------------------------------------------------------------------------

/// Pre-warms one pod for any function that saw traffic in the last interval
/// but has no warm pod — a per-function rule (shard-safe by construction)
/// that fires often enough to drain pools.
struct DemandPrewarm;

impl PrewarmPolicy for DemandPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        view.functions
            .iter()
            .filter(|f| f.recent_arrivals > 0 && f.warm_pods == 0)
            .map(|f| PrewarmRequest {
                function: f.function,
                count: 1,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "test-demand-prewarm"
    }
}

/// Delays every k-th asynchronous arrival of each function by a
/// deterministic, per-function amount long enough to cross epoch boundaries.
struct EveryOtherDelay {
    seen: std::collections::HashMap<u64, u64>,
}

impl AdmissionPolicy for EveryOtherDelay {
    fn delay_ms(&mut self, view: &FunctionView, _now_ms: u64) -> u64 {
        if view.trigger == TriggerType::ApigSync {
            return 0;
        }
        let count = self.seen.entry(view.function.raw()).or_insert(0);
        *count += 1;
        if (*count).is_multiple_of(2) {
            // Long enough to hop a 1 s epoch, short enough to land in-horizon.
            1_500 + (view.function.raw() % 7) * 400
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "test-every-other-delay"
    }
}

/// Keep-alive driven by the sorted inter-arrival window with a hysteresis
/// map — the platform substrate the adaptive policy layer builds on. Reads
/// `iat_quantile_ms`/`iat_dispersion` on every decision so the window's
/// quantile reads run under sharding, and keeps interior-mutable per-function
/// state exactly the way the core-crate quantile policy does.
struct QuantileProbeKeepAlive {
    applied: RefCell<HashMap<u64, u64>>,
}

impl KeepAlivePolicy for QuantileProbeKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        let Some(q90) = history.iat_quantile_ms(0.9) else {
            return 45_000;
        };
        // Fold the dispersion in so both new accessors sit on the hot path.
        let spread = history.iat_dispersion().unwrap_or(1.0).clamp(1.0, 8.0);
        let target = (((q90 as f64) * spread.sqrt()) as u64).clamp(2_000, 600_000);
        let mut applied = self.applied.borrow_mut();
        let slot = applied.entry(function.raw()).or_insert(target);
        if target.abs_diff(*slot) > *slot / 5 {
            *slot = target;
        }
        *slot
    }

    fn name(&self) -> &'static str {
        "test-quantile-probe"
    }
}

struct QuantileProbePolicies;

impl PolicyFactory for QuantileProbePolicies {
    fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(QuantileProbeKeepAlive {
            applied: RefCell::new(HashMap::new()),
        })
    }

    fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(DemandPrewarm)
    }

    fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(EveryOtherDelay {
            seen: std::collections::HashMap::new(),
        })
    }

    fn label(&self) -> &str {
        "quantile-probe-policies"
    }
}

struct BusyPolicies;

impl PolicyFactory for BusyPolicies {
    fn keep_alive(&self, _workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(AdaptiveKeepAlive::default())
    }

    fn prewarm(&self, _workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(DemandPrewarm)
    }

    fn admission(&self, _workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(EveryOtherDelay {
            seen: std::collections::HashMap::new(),
        })
    }

    fn label(&self) -> &str {
        "busy-test-policies"
    }
}

// ---------------------------------------------------------------------------
// Deterministic fixed-case tests.
// ---------------------------------------------------------------------------

#[test]
fn baseline_policies_are_shard_count_invariant() {
    let streamed = streamed_workload(11, 18, 1);
    let spec = SimulationSpec::new().with_seed(5);
    assert_shard_invariant(&spec, &streamed, &[1, 2, 3, 4, 5, 8]);
}

#[test]
fn stateful_policies_are_shard_count_invariant() {
    let streamed = streamed_workload(12, 16, 1);
    let spec = SimulationSpec::new()
        .with_seed(6)
        .with_policies(Arc::new(BusyPolicies));
    assert_shard_invariant(&spec, &streamed, &[2, 3, 4, 7]);
}

#[test]
fn quantile_cache_backed_keepalive_is_shard_count_invariant_1_through_8() {
    let streamed = streamed_workload(18, 16, 1);
    let spec = SimulationSpec::new()
        .with_seed(12)
        .with_policies(Arc::new(QuantileProbePolicies));
    assert_shard_invariant(&spec, &streamed, &[1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn more_shards_than_functions_leaves_empty_shards_harmless() {
    let streamed = streamed_workload(13, 8, 1);
    let functions = streamed.header().functions.len() as u32;
    let spec = SimulationSpec::new().with_seed(7);
    // Shard counts beyond the population force at least one shard with zero
    // member functions, whose engine must idle through every epoch barrier
    // without contributing anything.
    assert_shard_invariant(&spec, &streamed, &[functions, functions + 3, functions * 2]);
}

#[test]
fn epoch_longer_than_horizon_degenerates_to_one_epoch() {
    let streamed = streamed_workload(14, 12, 1);
    let config = PlatformConfig {
        epoch_ms: 30 * 24 * 60 * 60 * 1_000, // one epoch spanning the run
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new().with_seed(8).with_config(config);
    assert_shard_invariant(&spec, &streamed, &[2, 4]);
}

#[test]
fn one_second_epochs_reconcile_identically() {
    let streamed = streamed_workload(15, 10, 1);
    let config = PlatformConfig {
        epoch_ms: 1_000,
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new()
        .with_seed(9)
        .with_config(config)
        .with_policies(Arc::new(BusyPolicies));
    assert_shard_invariant(&spec, &streamed, &[2, 4]);
}

#[test]
fn scarce_pools_exhausting_within_an_epoch_stay_invariant() {
    let streamed = streamed_workload(16, 14, 1);
    let mut config = PlatformConfig::default();
    // One pooled pod per configuration and no replenishment: the aggregate
    // draw budget runs dry mid-epoch, so the boundary clamp (and the
    // documented oversubscription approximation) is on the hot path.
    config.pool.target_per_config = 1;
    config.pool.replenish_per_tick = 0;
    let spec = SimulationSpec::new()
        .with_seed(10)
        .with_config(config)
        .with_policies(Arc::new(BusyPolicies));
    assert_shard_invariant(&spec, &streamed, &[2, 3, 5]);
}

#[test]
fn trace_recording_off_still_matches() {
    let streamed = streamed_workload(17, 10, 1);
    let config = PlatformConfig {
        record_trace: false,
        ..PlatformConfig::default()
    };
    let spec = SimulationSpec::new().with_seed(11).with_config(config);
    assert_shard_invariant(&spec, &streamed, &[2, 4]);
}

// ---------------------------------------------------------------------------
// Property-based sweep over seeds, populations, shard counts, and epochs.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn run_sharded_equals_run_streamed(
        seed in 0u64..200,
        min_functions in 6usize..20,
        shards in 2u32..9,
        epoch_choice in 0usize..3,
    ) {
        let streamed = streamed_workload(seed, min_functions, 1);
        let epoch_ms = [60_000, 7_000, 600_000][epoch_choice];
        let config = PlatformConfig {
            epoch_ms,
            ..PlatformConfig::default()
        };
        let spec = SimulationSpec::new()
            .with_seed(seed.wrapping_add(1))
            .with_config(config);
        let header = streamed.header();
        let (base_report, base_trace) = spec.run_streamed(header, streamed.stream());
        let plan = ShardPlan::new(&header.functions, shards);
        let streams: Vec<_> = (0..plan.shards())
            .map(|s| streamed.stream_shard(&plan, s))
            .collect();
        let (report, trace) = spec.run_sharded(header, &plan, streams);
        prop_assert_eq!(report, base_report);
        prop_assert_eq!(trace, base_trace);
    }
}
