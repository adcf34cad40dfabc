//! The three workloads, each a batch job with a fixed input size made from
//! the workload seed, and the traced passes that measure their layers.
//!
//! | workload | one batch | operations |
//! |---|---|---|
//! | `adaptive` | 2-day diurnal stream, hybrid adaptive policies, 1 shard | 1 run |
//! | `sweep` | `PolicySweep` over every family × 5 presets, 2 threads | 360 cells |
//! | `trace_replay` | `Scenario::ALL` over a CSV fileset streamed from disk, 2 threads | 8 cells |
//!
//! The seed varies the simulation, not the inputs' size. What is deployed
//! and the arrivals drawn for it — each preset's function population and
//! stream, the trace fileset — are the repository's own inputs at
//! [`DEPLOYMENT_SEED`], built by its own generators (`StreamedWorkload::
//! generate`, the sweep's `PresetSource`, `SynthTraceSpec`); the workload
//! seed seeds the simulation's random draws. A seed that re-drew the
//! population would change the batch's work by up to 2x (a few heavy
//! functions carry most of the volume) and its figures could not be
//! compared across seeds.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use coldstarts::evaluation::Scenario;
use coldstarts::session::{
    seeds, ExperimentSession, LoweredWorkload, SessionPerf, SessionReport, ShardedLowered,
    SourceKind, TraceDirSource, WorkloadSource,
};
use coldstarts::sweep::params::ParamValue;
use coldstarts::{PolicyFamily, PolicySweep, SweepConfig};
use faas_platform::{PlatformConfig, PolicyFactory, SimReport, SimulationSpec};
use faas_workload::population::PopulationConfig;
use faas_workload::profile::RegionProfile;
use faas_workload::stream::{StreamedWorkload, SyntheticStream};
use faas_workload::{ScenarioPreset, ShardPlan, WorkloadSpec};
use fntrace::synth::{SynthShape, SynthTraceSpec};
use fntrace::{RegionId, TraceDirPaths};

use crate::check::{Checker, Op};
use crate::layers::Layers;
use crate::measure::{self, median, timed};
use crate::trace::{CountingStream, HookTotals, Tracer, TracingFactory, TracingSource};

/// Worker threads of the session workloads, and shards of adaptive's
/// traced 2-shard run.
pub const THREADS: usize = 2;

/// Paper region every workload is generated for.
const REGION: u16 = 2;

/// Seed of what is deployed: function populations and the trace fileset.
const DEPLOYMENT_SEED: u64 = 7;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Adaptive,
    Sweep,
    TraceReplay,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Adaptive, Kind::Sweep, Kind::TraceReplay];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Adaptive => "adaptive",
            Kind::Sweep => "sweep",
            Kind::TraceReplay => "trace_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads a batch runs on: one per session worker, one for a run.
    pub fn threads(self) -> usize {
        match self {
            Kind::Adaptive => 1,
            Kind::Sweep | Kind::TraceReplay => THREADS,
        }
    }

    /// Pinned outputs of every operation at the default seed.
    pub fn pins(self) -> &'static str {
        match self {
            Kind::Adaptive => include_str!("../pins/adaptive.tsv"),
            Kind::Sweep => include_str!("../pins/sweep.tsv"),
            Kind::TraceReplay => include_str!("../pins/trace_replay.tsv"),
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Small` is the same
/// configuration at a size the self-tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// One workload: set-up, batches, and the traced passes.
pub trait Workload {
    /// How many set-up samples a run takes before its first batch;
    /// `setup_s` is their median.
    fn setup_reps(&self) -> usize;

    /// Span name of one set-up.
    fn setup_name(&self) -> &'static str {
        "setup"
    }

    /// One set-up: the work before the first simulated arrival. Each call
    /// replaces the previous set-up's state.
    fn setup(&mut self) -> Result<(), String>;

    /// Counts every operation's arrivals by draining its input stream(s)
    /// with no engine attached (independently of `SimReport`).
    fn count_arrivals(&mut self) -> Result<(), String>;

    /// One batch: the operations whose time the benchmark reports.
    fn batch(&self) -> Vec<Op>;

    /// The traced passes: fill `run.layers` and check every traced
    /// operation against the untraced one.
    fn traced(&self, run: &mut TraceRun) -> Result<(), String>;
}

/// State of a traced run.
pub struct TraceRun<'a> {
    pub tracer: Arc<Tracer>,
    pub checker: &'a mut Checker,
    pub layers: Layers,
    /// Median wall seconds of this process's untraced batches.
    pub untraced_wall_s: f64,
    /// Median seconds of this process's set-ups.
    pub setup_s: f64,
}

/// Builds a workload; `dir` is where trace_replay writes its fileset.
pub fn make(kind: Kind, seed: u64, scale: Scale, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::Adaptive => Box::new(Synthetic::new(seed, scale, adaptive_config())),
        Kind::Sweep => Box::new(SessionBench::sweep(seed, scale)),
        Kind::TraceReplay => Box::new(SessionBench::trace_replay(seed, scale, dir)?),
    })
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .map_or("panicked".to_string(), |m| format!("panicked: {m}"))
    })
}

fn base_platform() -> PlatformConfig {
    PlatformConfig {
        record_trace: false,
        ..PlatformConfig::default()
    }
}

/// `adaptive/mode=hybrid,quantile_pct=90,hysteresis_pct=20,horizon_ticks=2`.
fn adaptive_config() -> SweepConfig {
    SweepConfig::new(
        PolicyFamily::Adaptive,
        vec![
            ("mode", ParamValue::Str("hybrid")),
            ("quantile_pct", ParamValue::U64(90)),
            ("hysteresis_pct", ParamValue::U64(20)),
            ("horizon_ticks", ParamValue::U64(2)),
        ],
    )
}

/// `preset`'s workload over `days` at [`DEPLOYMENT_SEED`], generated as the
/// repository's `longhaul` bin and the sweep's `PresetSource` generate it.
fn deployed_workload(
    preset: ScenarioPreset,
    days: u32,
    config: &PopulationConfig,
) -> StreamedWorkload {
    let region = RegionProfile::paper_region(REGION).expect("paper region");
    StreamedWorkload::generate(
        &preset.profile(&region),
        preset.calibration(days),
        config,
        DEPLOYMENT_SEED,
    )
}

/// A session source lowered at [`DEPLOYMENT_SEED`] whatever the cell's
/// seed, so the workload seed reaches only the simulation. Every call is
/// forwarded to the wrapped source: its own lowering is what gets timed.
struct Deployed(Arc<dyn WorkloadSource>);

impl WorkloadSource for Deployed {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn kind(&self) -> SourceKind {
        self.0.kind()
    }

    fn workload(&self, _seed: u64) -> Arc<WorkloadSpec> {
        self.0.workload(DEPLOYMENT_SEED)
    }

    fn lower(&self, _seed: u64) -> LoweredWorkload {
        self.0.lower(DEPLOYMENT_SEED)
    }

    fn lower_sharded(&self, _seed: u64, shards: u32) -> ShardedLowered {
        self.0.lower_sharded(DEPLOYMENT_SEED, shards)
    }
}

/// adaptive: one streamed run of a generated diurnal workload on one shard
/// under the hybrid adaptive policies; its traced pass adds a 2-shard run of
/// the same config for the shard layer.
struct Synthetic {
    days: u32,
    population: PopulationConfig,
    policies: Arc<dyn PolicyFactory>,
    /// Platform, seed and `policies`.
    spec: SimulationSpec,
    workload: Option<StreamedWorkload>,
    arrivals: u64,
}

impl Synthetic {
    fn new(seed: u64, scale: Scale, config: SweepConfig) -> Self {
        let (days, population) = match scale {
            // 2.9M arrivals over 1200 functions at the default seed.
            Scale::Full => (
                2,
                PopulationConfig {
                    function_scale: 0.2,
                    volume_scale: 2.0e-2,
                    max_requests_per_day: 200_000.0,
                    min_functions: 50,
                },
            ),
            Scale::Small => (
                1,
                PopulationConfig {
                    function_scale: 0.01,
                    volume_scale: 2.0e-4,
                    max_requests_per_day: 200_000.0,
                    min_functions: 50,
                },
            ),
        };
        let platform = config.platform(&base_platform());
        let policies: Arc<dyn PolicyFactory> = Arc::new(config);
        let spec = SimulationSpec::new()
            .with_seed(seed)
            .with_config(platform)
            .with_policies(Arc::clone(&policies));
        Self {
            days,
            population,
            policies,
            spec,
            workload: None,
            arrivals: 0,
        }
    }

    fn workload(&self) -> &StreamedWorkload {
        self.workload.as_ref().expect("set up before use")
    }

    /// A run with every hook timed and every stream counted: on one shard,
    /// or with a plan on one thread per shard. The report is checked
    /// against the untraced one. Returns the operation, arrivals per
    /// stream, hook totals and wall seconds.
    fn traced_run(
        &self,
        tracer: &Tracer,
        checker: &mut Checker,
        plan: Option<&ShardPlan>,
    ) -> (Op, Vec<u64>, HookTotals, f64) {
        let w = self.workload();
        let factory = Arc::new(TracingFactory::new(Arc::clone(&self.policies)));
        let spec = self.spec.clone().with_policies(factory.clone());
        let streams: Vec<SyntheticStream> = match plan {
            None => vec![w.stream()],
            Some(plan) => (0..plan.shards())
                .map(|s| w.stream_shard(plan, s))
                .collect(),
        };
        let counters: Vec<Arc<AtomicU64>> = streams.iter().map(|_| Arc::default()).collect();
        let mut counted: Vec<_> = streams
            .into_iter()
            .zip(&counters)
            .map(|(s, c)| CountingStream::new(s, Arc::clone(c)))
            .collect();
        let detail = format!("{} shard(s)", counted.len());
        let (outcome, wall_s) = tracer.span("run", detail, None, |_| {
            guarded(|| match plan {
                None => spec.run_streamed(w.header(), counted.remove(0)).0,
                Some(plan) => spec.run_sharded(w.header(), plan, counted).0,
            })
        });
        let per_stream: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let op = Op {
            label: "run".into(),
            arrivals: per_stream.iter().sum(),
            wall_ms: wall_s * 1e3,
            outcome,
        };
        checker.check(&op);
        (op, per_stream, factory.totals(), wall_s)
    }
}

impl Workload for Synthetic {
    fn setup_reps(&self) -> usize {
        7
    }

    fn setup(&mut self) -> Result<(), String> {
        self.workload = Some(deployed_workload(
            ScenarioPreset::Diurnal,
            self.days,
            &self.population,
        ));
        Ok(())
    }

    fn count_arrivals(&mut self) -> Result<(), String> {
        self.arrivals = self.workload().stream().count() as u64;
        Ok(())
    }

    fn batch(&self) -> Vec<Op> {
        let w = self.workload();
        let (outcome, wall_s) =
            timed(|| guarded(|| self.spec.run_streamed(w.header(), w.stream()).0));
        vec![Op {
            label: "run".into(),
            arrivals: self.arrivals,
            wall_ms: wall_s * 1e3,
            outcome,
        }]
    }

    fn traced(&self, run: &mut TraceRun) -> Result<(), String> {
        let tracer = Arc::clone(&run.tracer);
        let w = self.workload();
        let per_arrival = |secs: f64| secs * 1e9 / self.arrivals as f64;

        // The batch's stream with no engine attached.
        let drain_s = tracer
            .span("drain", "stream", None, |_| w.stream().count())
            .1;
        run.layers.set("workload.stream.drain_s", drain_s);
        run.layers
            .set("workload.stream.ns_per_arrival", per_arrival(drain_s));

        // The batch's configuration with every hook and the stream traced.
        // Engine self time: run wall minus arrival generation minus hooks.
        let (op, _, totals, wall_s) = self.traced_run(&tracer, run.checker, None);
        run.layers
            .set("trace_overhead", wall_s / run.untraced_wall_s - 1.0);
        let self_s = wall_s - drain_s - totals.busy_s();
        run.layers.set("platform.engine.self_s", self_s);
        run.layers
            .set("platform.engine.ns_per_arrival", per_arrival(self_s));
        let reports: Vec<SimReport> = op.outcome.into_iter().collect();
        run.layers.hooks(&totals, &reports);
        run.layers.platform(&reports);

        // The same config on two shards, whose report must equal the
        // 1-shard one: arrivals per shard, and the speed-up.
        let plan = ShardPlan::new(&w.header().functions, THREADS as u32);
        let (_, per_shard, _, wall2) = self.traced_run(&tracer, run.checker, Some(&plan));
        let mean = self.arrivals as f64 / per_shard.len() as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0);
        run.layers
            .set("platform.shard.arrival_imbalance", max as f64 / mean);
        run.layers.set("platform.shard.speedup", wall_s / wall2);
        Ok(())
    }
}

/// How a session batch finishes after its cells: the sweep folds them into
/// its Pareto report; both write the report envelope.
enum Finish {
    Sweep(Box<PolicySweep>),
    Replay,
}

/// Seconds of a session batch's fold (sweep only) and envelope, and the
/// envelope's size.
struct Finished {
    fold_s: f64,
    envelope_s: f64,
    envelope_bytes: usize,
}

/// Runs `f`, inside a span under `parent` when traced; returns its result
/// and wall seconds.
fn maybe_span<T>(
    tracer: Option<(&Tracer, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some((t, parent)) => t.span(name, "", Some(parent), |_| f()),
        None => timed(f),
    }
}

/// sweep and trace_replay: one `ExperimentSession` per batch.
struct SessionBench {
    seed: u64,
    finish: Finish,
    /// Builds the session (the set-up).
    declare: Box<dyn Fn() -> Result<ExperimentSession, String> + Send + Sync>,
    session: Option<ExperimentSession>,
    /// Cell labels, `policy@source`, in the session's cell order.
    labels: Vec<String>,
    /// Arrivals per source index (one seed per session).
    arrivals: Vec<u64>,
    /// trace_replay: the fileset's request file and `rchar` read passes
    /// over it per open.
    requests_file: Option<PathBuf>,
    open_passes: f64,
}

impl SessionBench {
    fn sweep(seed: u64, scale: Scale) -> Self {
        let mut sweep = PolicySweep {
            seeds: vec![seed],
            spaces: PolicyFamily::ALL.iter().map(|f| f.param_space()).collect(),
            threads: THREADS,
            ..PolicySweep::default()
        };
        if scale == Scale::Small {
            sweep.duration_days = 1;
        }
        let declared = sweep.clone();
        Self::new(seed, Finish::Sweep(Box::new(sweep)), None, move || {
            let mut session = declared.session();
            if session.sources.len() != declared.presets.len() {
                return Err("the sweep declares one region".into());
            }
            session.sources = session
                .sources
                .drain(..)
                .map(|source| Arc::new(Deployed(source)) as Arc<dyn WorkloadSource>)
                .collect();
            Ok(session)
        })
    }

    fn trace_replay(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String> {
        let (days, functions, rpd) = match scale {
            // 463k requests, 51 MB of CSV at the default seed.
            Scale::Full => (6, 40, 2_500.0),
            Scale::Small => (2, 8, 300.0),
        };
        let region = RegionId::new(REGION);
        // Written before any timed phase.
        SynthTraceSpec {
            region,
            shape: SynthShape::Diurnal,
            functions,
            duration_days: days,
            mean_requests_per_day: rpd,
            keep_alive_secs: 60.0,
            seed: DEPLOYMENT_SEED,
        }
        .generate()
        .write_csv_dir(dir)
        .map_err(|e| format!("writing the trace fileset to {}: {e}", dir.display()))?;
        let dir = dir.to_path_buf();
        let requests_file = TraceDirPaths::new(region, &dir).requests;
        Ok(Self::new(
            seed,
            Finish::Replay,
            Some(requests_file),
            move || {
                let source = TraceDirSource::open("trace/r2", region, &dir)
                    .map_err(|e| format!("opening the trace fileset: {e}"))?;
                Ok(ExperimentSession::new()
                    .scenarios(&Scenario::ALL)
                    .source(source)
                    .with_seeds(vec![seed])
                    .with_threads(THREADS))
            },
        ))
    }

    fn new(
        seed: u64,
        finish: Finish,
        requests_file: Option<PathBuf>,
        declare: impl Fn() -> Result<ExperimentSession, String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            seed,
            finish,
            declare: Box::new(declare),
            session: None,
            labels: Vec::new(),
            arrivals: Vec::new(),
            requests_file,
            open_passes: 0.0,
        }
    }

    fn session(&self) -> &ExperimentSession {
        self.session.as_ref().expect("set up before use")
    }

    /// Source index of cell `i` (one seed per session).
    fn source_of(&self, i: usize) -> usize {
        i % self.session().sources.len()
    }

    /// Folds (sweep) and writes the envelope, inside spans when traced.
    /// Returns the cell reports in cell order.
    fn finish(
        &self,
        report: SessionReport,
        perf: &SessionPerf,
        tracer: Option<(&Tracer, usize)>,
    ) -> (Vec<SimReport>, Finished) {
        match &self.finish {
            Finish::Sweep(sweep) => {
                let (folded, fold_s) = maybe_span(tracer, "fold", || sweep.fold(report));
                let (envelope_bytes, envelope_s) = maybe_span(tracer, "envelope", || {
                    let envelope = folded.to_envelope().with("perf", perf.to_value());
                    envelope.to_json().len()
                });
                let reports = folded.cells.into_iter().map(|c| c.report).collect();
                let finished = Finished {
                    fold_s,
                    envelope_s,
                    envelope_bytes,
                };
                (reports, finished)
            }
            Finish::Replay => {
                let (envelope_bytes, envelope_s) = maybe_span(tracer, "envelope", || {
                    let envelope = report.envelope("replay").with("perf", perf.to_value());
                    envelope.to_json().len()
                });
                let reports = report.cells.into_iter().map(|c| c.report).collect();
                let finished = Finished {
                    fold_s: 0.0,
                    envelope_s,
                    envelope_bytes,
                };
                (reports, finished)
            }
        }
    }

    /// The cells of one session run as operations.
    fn ops(
        &self,
        outcome: Result<(SessionReport, SessionPerf), String>,
        tracer: Option<(&Tracer, usize)>,
    ) -> (Vec<Op>, Option<(SessionPerf, Finished)>) {
        let fail = |why: String| -> Vec<Op> {
            self.labels
                .iter()
                .enumerate()
                .map(|(i, label)| Op {
                    label: label.clone(),
                    arrivals: self.arrivals[self.source_of(i)],
                    wall_ms: 0.0,
                    outcome: Err(why.clone()),
                })
                .collect()
        };
        let (report, perf) = match outcome {
            Ok(done) => done,
            Err(why) => return (fail(why), None),
        };
        let labels_match = report.cells.len() == self.labels.len()
            && report
                .cells
                .iter()
                .zip(&self.labels)
                .all(|(c, label)| *label == format!("{}@{}", c.policy, c.source));
        if !labels_match {
            return (
                fail("session cells differ from the declaration".into()),
                None,
            );
        }
        let (reports, finished) = match guarded(|| self.finish(report, &perf, tracer)) {
            Ok(done) => done,
            Err(why) => return (fail(why), None),
        };
        let ops = reports
            .into_iter()
            .enumerate()
            .map(|(i, report)| Op {
                label: self.labels[i].clone(),
                arrivals: self.arrivals[self.source_of(i)],
                wall_ms: perf.cells[i].wall_ms,
                outcome: Ok(report),
            })
            .collect();
        (ops, Some((perf, finished)))
    }

    /// One cell re-run outside the session with every hook traced: the
    /// session's own cell recipe (per-policy platform and factory, the
    /// source lowered for the cell's seed, workload adjustment on an
    /// event-free header), through public calls only.
    fn hook_cell(&self, i: usize, tracer: &Tracer, parent: usize) -> (Op, HookTotals, f64) {
        let session = self.session();
        let si = self.source_of(i);
        let policy = &session.policies[i / session.sources.len()];
        let platform = policy.platform(&session.platform);
        let factory = Arc::new(TracingFactory::new(policy.factory(&platform)));
        let spec = SimulationSpec::new()
            .with_config(platform)
            .with_seed(seeds::sim_seed(self.seed))
            .with_policies(factory.clone());
        let label = &self.labels[i];
        let counter: Arc<AtomicU64> = Arc::default();
        let cell = tracer.open("cell", label.as_str(), Some(parent));
        let outcome = guarded(|| {
            let lowered = tracer
                .span("lower", label.as_str(), Some(cell), |_| {
                    session.sources[si].lower(seeds::sim_seed(self.seed))
                })
                .0;
            let adjusted = policy.adjusts_workload().then(|| {
                let stripped = WorkloadSpec {
                    region: lowered.header.region,
                    profile: lowered.header.profile.clone(),
                    calibration: lowered.header.calibration,
                    functions: lowered.header.functions.clone(),
                    events: Vec::new(),
                    source: lowered.header.source,
                };
                policy.adjust_workload(&stripped).unwrap_or(stripped)
            });
            let header = adjusted.as_ref().unwrap_or(&lowered.header);
            let stream = CountingStream::new(lowered.stream, Arc::clone(&counter));
            tracer.span("run", label.as_str(), Some(cell), |_| {
                spec.run_streamed(header, stream).0
            })
        });
        let wall_s = tracer.close(cell);
        let (outcome, run_s) = match outcome {
            Ok((report, run_s)) => (Ok(report), run_s),
            Err(why) => (Err(why), wall_s),
        };
        let op = Op {
            label: label.clone(),
            arrivals: counter.load(Ordering::Relaxed),
            wall_ms: wall_s * 1e3,
            outcome,
        };
        (op, factory.totals(), run_s)
    }

    /// Bytes read between two `rchar` readings, in passes over the
    /// requests file (trace_replay only), rounded to 4 decimals so the few
    /// bytes of the `/proc` reads themselves do not show.
    fn read_passes(&self, before: Option<u64>, after: Option<u64>) -> Option<f64> {
        let bytes = std::fs::metadata(self.requests_file.as_ref()?).ok()?.len();
        let passes = (after? - before?) as f64 / bytes as f64;
        Some((passes * 1e4).round() / 1e4)
    }

    /// Cell-time group: policy family (plus the `keepalive/mode=fixed`
    /// reference cells) on sweep, scenario on trace_replay.
    fn group(&self, i: usize) -> String {
        let session = self.session();
        let policy = session.policies[i / session.sources.len()].label();
        match self.finish {
            Finish::Sweep(_) if policy.starts_with("keepalive/mode=fixed") => {
                "keepalive-fixed".into()
            }
            Finish::Sweep(_) => policy.split('/').next().unwrap_or(policy).to_string(),
            Finish::Replay => policy.to_string(),
        }
    }
}

impl Workload for SessionBench {
    fn setup_reps(&self) -> usize {
        match self.finish {
            Finish::Sweep(_) => 7,
            // Each open takes seconds.
            Finish::Replay => 3,
        }
    }

    fn setup_name(&self) -> &'static str {
        match self.finish {
            Finish::Sweep(_) => "setup",
            Finish::Replay => "open",
        }
    }

    fn setup(&mut self) -> Result<(), String> {
        let before = measure::rchar();
        let session = (self.declare)()?;
        if let Some(passes) = self.read_passes(before, measure::rchar()) {
            self.open_passes = passes;
        }
        if session.seeds.len() != 1 || session.shards > 1 {
            return Err("session workloads declare one seed and no shards".into());
        }
        self.labels = session
            .policies
            .iter()
            .flat_map(|p| {
                session
                    .sources
                    .iter()
                    .map(move |s| format!("{}@{}", p.label(), s.label()))
            })
            .collect();
        // What each cell does before its first arrival, as the session
        // would: lower its source.
        let seed = seeds::sim_seed(self.seed);
        for i in 0..self.labels.len() {
            std::hint::black_box(session.sources[i % session.sources.len()].lower(seed));
        }
        self.session = Some(session);
        Ok(())
    }

    fn count_arrivals(&mut self) -> Result<(), String> {
        let seed = seeds::sim_seed(self.seed);
        let arrivals = guarded(|| {
            self.session()
                .sources
                .iter()
                .map(|s| s.lower(seed).stream.count() as u64)
                .collect()
        })?;
        self.arrivals = arrivals;
        Ok(())
    }

    fn batch(&self) -> Vec<Op> {
        let outcome = guarded(|| self.session().run_timed(&mut []));
        self.ops(outcome, None).0
    }

    fn traced(&self, run: &mut TraceRun) -> Result<(), String> {
        let session = self.session();
        let tracer = Arc::clone(&run.tracer);
        let cells = self.labels.len();
        let seed = seeds::sim_seed(self.seed);

        // Each source's stream with no engine attached.
        let mut drain_s = Vec::new();
        for (si, source) in session.sources.iter().enumerate() {
            let lowered = source.lower(seed);
            let (n, secs) = tracer.span("drain", source.label(), None, |_| {
                lowered.stream.count() as u64
            });
            if n != self.arrivals[si] {
                return Err(format!(
                    "{}: drained {n} arrivals, counted {}",
                    source.label(),
                    self.arrivals[si]
                ));
            }
            drain_s.push(secs);
        }
        let batch_drain_s: f64 = (0..cells).map(|i| drain_s[self.source_of(i)]).sum();
        let batch_arrivals: u64 = (0..cells).map(|i| self.arrivals[self.source_of(i)]).sum();
        let layers = &mut run.layers;
        match self.finish {
            Finish::Sweep(_) => {
                layers.set("workload.stream.drain_s", batch_drain_s);
                layers.set(
                    "workload.stream.ns_per_arrival",
                    batch_drain_s * 1e9 / batch_arrivals as f64,
                );
            }
            Finish::Replay => {
                layers.set("workload.replay.open_s", run.setup_s);
                layers.set("workload.replay.open_passes", self.open_passes);
                layers.set("trace.csv.drain_s", batch_drain_s);
            }
        }

        // The session itself, with every source traced.
        let root = tracer.open("session", "traced", None);
        let sources: Vec<Arc<TracingSource>> = session
            .sources
            .iter()
            .map(|s| {
                Arc::new(TracingSource::new(
                    Arc::clone(s),
                    Arc::clone(&tracer),
                    Some(root),
                ))
            })
            .collect();
        let mut traced = session.clone();
        traced.sources = sources
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn WorkloadSource>)
            .collect();
        let rchar_before = measure::rchar();
        let (outcome, run_s) = timed(|| guarded(|| traced.run_timed(&mut [])));
        let rchar_after = measure::rchar();
        let (ops, finished) = self.ops(outcome, Some((&tracer, root)));
        let session_s = tracer.close(root);
        for op in &ops {
            run.checker.check(op);
        }
        run.checker.check_coverage(&ops);
        let (perf, finished) = finished.ok_or("the traced session failed")?;
        let counted: u64 = sources.iter().map(|s| s.arrivals()).sum();
        if counted != batch_arrivals {
            return Err(format!(
                "traced session pulled {counted} arrivals, expected {batch_arrivals}"
            ));
        }
        let layers = &mut run.layers;
        layers.set("trace_overhead", session_s / run.untraced_wall_s - 1.0);
        layers.set("session.lower_s", sources.iter().map(|s| s.lower_s()).sum());
        let cell_wall: f64 = perf.cells.iter().map(|c| c.wall_ms * 1e-3).sum();
        layers.set(
            "session.parallel_efficiency",
            cell_wall / (THREADS as f64 * run_s),
        );
        layers.set("session.fold_s", finished.fold_s);
        layers.set("session.envelope_s", finished.envelope_s);
        layers.set("session.envelope_bytes", finished.envelope_bytes as f64);
        let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, c) in perf.cells.iter().enumerate() {
            groups.entry(self.group(i)).or_default().push(c.wall_ms);
        }
        for (group, walls) in &groups {
            layers.set(&format!("session.cell_ms.{group}"), median(walls));
        }
        if let Some(passes) = self.read_passes(rchar_before, rchar_after) {
            layers.set("trace.csv.read_passes", passes);
        }

        // Every cell again, outside the session, with every hook traced.
        let hooks_root = tracer.open("hooks", "per-cell replicas", None);
        let next = AtomicUsize::new(0);
        let results: Vec<(usize, (Op, HookTotals, f64))> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= cells {
                                return done;
                            }
                            done.push((i, self.hook_cell(i, &tracer, hooks_root)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("hook-pass worker panicked"))
                .collect()
        });
        tracer.close(hooks_root);
        let mut totals = HookTotals::default();
        let mut reports = Vec::new();
        let mut self_s = 0.0;
        for (i, (op, cell_totals, run_s)) in results {
            run.checker.check(&op);
            totals.merge(&cell_totals);
            self_s += run_s - drain_s[self.source_of(i)] - cell_totals.busy_s();
            if let Ok(report) = op.outcome {
                reports.push(report);
            }
        }
        let layers = &mut run.layers;
        layers.set("platform.engine.self_s", self_s);
        layers.set(
            "platform.engine.ns_per_arrival",
            self_s * 1e9 / batch_arrivals as f64,
        );
        layers.hooks(&totals, &reports);
        layers.platform(&reports);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::measure::median;

    /// Sets up, runs one untraced batch, then the traced passes, at small
    /// scale: every traced report must equal the untraced one.
    fn self_test(kind: Kind) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("selftest-{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let mut w = make(kind, 11, Scale::Small, &dir).expect("workload");
        w.setup().expect("setup");
        w.count_arrivals().expect("arrivals");
        let mut checker = Checker::new(None);
        let (ops, wall) = timed(|| w.batch());
        for op in &ops {
            assert!(checker.check(op), "untraced {} failed", op.label);
        }
        let untraced = checker.attempted;
        let mut run = TraceRun {
            tracer: Arc::new(Tracer::new()),
            checker: &mut checker,
            layers: Layers::new(),
            untraced_wall_s: wall,
            setup_s: median(&[wall]),
        };
        w.traced(&mut run).expect("traced passes");
        let layers = run.layers;
        assert!(
            checker.attempted > untraced,
            "traced passes checked nothing"
        );
        assert_eq!(
            checker.failed, 0,
            "a traced report differs from the untraced one"
        );
        assert_eq!(layers.values().count(), PER_LAYER.len());
        std::fs::remove_dir_all(&dir).expect("remove test dir");
    }

    #[test]
    fn adaptive_traced_equals_untraced() {
        self_test(Kind::Adaptive);
    }

    #[test]
    fn sweep_traced_equals_untraced() {
        self_test(Kind::Sweep);
    }

    #[test]
    fn trace_replay_traced_equals_untraced() {
        self_test(Kind::TraceReplay);
    }
}
