//! Pluggable workload sources.
//!
//! A [`WorkloadSource`] is where a session cell's workload comes from. The
//! trait is object-safe and `Send + Sync`, so one boxed source can be shared
//! read-only across every worker thread of a session, and a new workload
//! family plugs into grids, sweeps, and benches by implementing one method.
//!
//! The built-in implementations cover every origin the paper's experiments
//! use:
//!
//! | Source | Origin |
//! |---|---|
//! | [`PresetSource`] | A [`ScenarioPreset`] distortion of a region profile |
//! | [`RegionSource`] | A calibrated region, via [`MultiRegionWorkload`] |
//! | [`ReplayTraceSource`] | A replay-tagged workload lowered from trace records |
//! | [`SynthTraceSource`] | A seeded [`fntrace::synth`] trace, lowered per seed |
//! | [`FixedWorkloadSource`] | Any pre-built workload, shared as-is |
//! | [`ChunkSource`] | One time window of a longer workload |
//!
//! These replace the ad-hoc per-subsystem selection that existed before the
//! session API: the sweep's `SweepWorkloadSource`/`ReplaySource` pair and the
//! grid's region lists are now thin shims that construct sources.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::replay::{StreamedTraceDir, TraceReplayWorkload, TraceStreamError};
use faas_workload::stream::{ArrivalStream, ShardedStream, SpecStream, StreamedWorkload};
use faas_workload::{MultiRegionWorkload, ScenarioPreset, ShardPlan, WorkloadSpec};
use fntrace::synth::SynthTraceSpec;
use fntrace::{RegionId, RegionTrace};

/// Coarse classification of a source, carried into report envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceKind {
    /// A synthetic scenario preset applied to a region profile.
    Preset,
    /// A calibrated region workload (the experiment grid's axis).
    Region,
    /// A replayed trace.
    Replay,
    /// A synthesized trace dataset, lowered through the replay path.
    SynthTrace,
    /// A pre-built workload used verbatim.
    Fixed,
}

impl SourceKind {
    /// Stable machine-readable name used in envelopes.
    pub fn name(&self) -> &'static str {
        match self {
            SourceKind::Preset => "preset",
            SourceKind::Region => "region",
            SourceKind::Replay => "replay",
            SourceKind::SynthTrace => "synth-trace",
            SourceKind::Fixed => "fixed",
        }
    }
}

/// A workload lowered to *header + event stream* for one session cell.
///
/// The header is the spec the simulator's static state builds from (function
/// table, profile, calibration, region); the stream produces the cell's
/// events on demand. For sources backed by a materialised spec the stream is
/// a cursor over the shared `Arc` — no copying; for generative sources the
/// header carries no events at all and the stream generates them in `O(k)`
/// memory (see [`faas_workload::stream`]).
pub struct LoweredWorkload {
    /// Static tables; `events` may be empty for lazily generated streams.
    /// The engine's streamed path never reads them — the stream below is
    /// the cell's only event source.
    pub header: Arc<WorkloadSpec>,
    /// The cell's event source, consistent with what
    /// [`WorkloadSource::workload`] would materialise for the same seed.
    pub stream: Box<dyn ArrivalStream + Send>,
}

impl LoweredWorkload {
    /// Lowers a fully materialised spec: the stream is a cursor over the
    /// shared `Arc`, copying nothing.
    pub fn from_spec(spec: Arc<WorkloadSpec>) -> Self {
        Self {
            stream: Box::new(SpecStream::new(Arc::clone(&spec))),
            header: spec,
        }
    }

    /// Lowers one chunk window `[start, end)` of a shared base spec. The
    /// stream covers only the window; the header stays the shared base.
    pub fn from_spec_range(spec: Arc<WorkloadSpec>, start: usize, end: usize) -> Self {
        Self {
            stream: Box::new(SpecStream::range(Arc::clone(&spec), start, end)),
            header: spec,
        }
    }

    /// Pairs an event-free header with the stream that generates its events.
    pub fn from_stream(header: Arc<WorkloadSpec>, stream: Box<dyn ArrivalStream + Send>) -> Self {
        Self { header, stream }
    }
}

/// A workload lowered to *header + one event stream per shard* for one
/// session cell running intra-cell sharded (see `faas_platform::shard`).
///
/// The `n` streams partition the events [`WorkloadSource::lower`] would
/// produce for the same seed, by the plan's function→shard routing; the
/// plan itself rides along because the engine needs it to assign member
/// functions to shards.
pub struct ShardedLowered {
    /// Static tables, exactly as [`LoweredWorkload::header`].
    pub header: Arc<WorkloadSpec>,
    /// The function→shard assignment the streams were partitioned by.
    pub plan: Arc<ShardPlan>,
    /// One event stream per shard, in shard order.
    pub streams: Vec<Box<dyn ArrivalStream + Send>>,
}

/// One origin of workloads for a session.
///
/// Implementations must be deterministic: the same `seed` must always
/// produce the same workload, because every policy cell of a `(source,
/// seed)` column lowers the source independently (possibly on different
/// worker threads) and the cells must still agree byte for byte — that is
/// what makes parallel and sequential session execution identical.
pub trait WorkloadSource: Send + Sync {
    /// Stable label identifying the source in cells, tables, and envelopes.
    fn label(&self) -> &str;

    /// Coarse classification for report envelopes.
    fn kind(&self) -> SourceKind;

    /// Materialises the workload for one simulation seed.
    ///
    /// Sources backed by a fixed artifact (replayed traces, pre-built specs)
    /// may ignore the seed and return the same `Arc` every time; generative
    /// sources must derive the workload from it deterministically.
    fn workload(&self, seed: u64) -> Arc<WorkloadSpec>;

    /// Lowers the workload for one seed into a header plus event stream —
    /// the session's primary path.
    ///
    /// The default materialises via [`workload`](Self::workload) and streams
    /// the shared spec, which is free for artifact-backed sources.
    /// Generative sources override this to return an event-free header and
    /// a lazy stream, so a cell's memory never scales with its horizon. The
    /// two forms must agree: `lower(seed)` collected equals
    /// `workload(seed)`'s events (property-tested in
    /// `tests/session_determinism.rs`).
    fn lower(&self, seed: u64) -> LoweredWorkload {
        LoweredWorkload::from_spec(self.workload(seed))
    }

    /// Lowers the workload for one seed into a header plus one event stream
    /// per shard, for intra-cell sharded execution.
    ///
    /// The default lowers the source once per shard and filters each full
    /// stream down to its shard's functions with
    /// [`ShardedStream`] — correct for any deterministic source, at the cost
    /// of generating every event `n` times. Generative sources override
    /// this to produce each shard's events directly (see
    /// `StreamedWorkload::stream_shard`), so per-shard generation cost
    /// scales with the shard's own population.
    fn lower_sharded(&self, seed: u64, shards: u32) -> ShardedLowered {
        let first = self.lower(seed);
        let plan = Arc::new(ShardPlan::new(&first.header.functions, shards));
        let header = Arc::clone(&first.header);
        let mut inners = vec![first.stream];
        for _ in 1..plan.shards() {
            inners.push(self.lower(seed).stream);
        }
        let streams = inners
            .into_iter()
            .enumerate()
            .map(|(s, inner)| {
                Box::new(ShardedStream::new(inner, Arc::clone(&plan), s as u32))
                    as Box<dyn ArrivalStream + Send>
            })
            .collect();
        ShardedLowered {
            header,
            plan,
            streams,
        }
    }
}

/// A [`ScenarioPreset`] applied to a base region profile — the sweep
/// subsystem's workload axis.
#[derive(Debug, Clone)]
pub struct PresetSource {
    /// The preset shaping the workload.
    pub preset: ScenarioPreset,
    /// Base region profile the preset is applied to.
    pub region: RegionProfile,
    /// Trace duration, in days.
    pub duration_days: u32,
    /// Function-population scaling.
    pub population: PopulationConfig,
    label: String,
}

impl PresetSource {
    /// Creates a preset source labelled `preset/<name>/r<region>`.
    pub fn new(
        preset: ScenarioPreset,
        region: RegionProfile,
        duration_days: u32,
        population: PopulationConfig,
    ) -> Self {
        let label = format!("preset/{}/r{}", preset.name(), region.region.index());
        Self {
            preset,
            region,
            duration_days,
            population,
            label,
        }
    }
}

impl WorkloadSource for PresetSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Preset
    }

    fn workload(&self, seed: u64) -> Arc<WorkloadSpec> {
        Arc::new(WorkloadSpec::generate(
            &self.preset.profile(&self.region),
            self.preset.calibration(self.duration_days),
            &self.population,
            seed,
        ))
    }

    fn lower(&self, seed: u64) -> LoweredWorkload {
        let streamed = StreamedWorkload::generate(
            &self.preset.profile(&self.region),
            self.preset.calibration(self.duration_days),
            &self.population,
            seed,
        );
        let stream = Box::new(streamed.stream());
        LoweredWorkload::from_stream(Arc::clone(streamed.header()), stream)
    }

    fn lower_sharded(&self, seed: u64, shards: u32) -> ShardedLowered {
        let streamed = StreamedWorkload::generate(
            &self.preset.profile(&self.region),
            self.preset.calibration(self.duration_days),
            &self.population,
            seed,
        );
        shard_streamed(streamed, shards)
    }
}

/// Partitions a generative workload into per-shard streams via
/// `StreamedWorkload::stream_shard`, so each shard only generates (and
/// holds per-function arrival state for) its own member functions.
fn shard_streamed(streamed: StreamedWorkload, shards: u32) -> ShardedLowered {
    let plan = Arc::new(ShardPlan::new(&streamed.header().functions, shards));
    let streams = (0..plan.shards())
        .map(|s| Box::new(streamed.stream_shard(&plan, s)) as Box<dyn ArrivalStream + Send>)
        .collect();
    ShardedLowered {
        header: Arc::clone(streamed.header()),
        plan,
        streams,
    }
}

/// A calibrated region workload — the experiment grid's workload axis,
/// generated through [`MultiRegionWorkload`] so a session region is
/// byte-identical to the same region inside any multi-region set.
#[derive(Debug, Clone)]
pub struct RegionSource {
    /// The region profile workloads are generated for.
    pub profile: RegionProfile,
    /// Calibration (duration, holiday window, keep-alive default).
    pub calibration: Calibration,
    /// Function-population scaling.
    pub population: PopulationConfig,
    label: String,
}

impl RegionSource {
    /// Creates a region source labelled `region/r<index>`.
    pub fn new(
        profile: RegionProfile,
        calibration: Calibration,
        population: PopulationConfig,
    ) -> Self {
        let label = format!("region/r{}", profile.region.index());
        Self {
            profile,
            calibration,
            population,
            label,
        }
    }

    /// One source per profile — the session form of a multi-region grid.
    pub fn multi(
        profiles: &[RegionProfile],
        calibration: Calibration,
        population: &PopulationConfig,
    ) -> Vec<RegionSource> {
        profiles
            .iter()
            .map(|p| RegionSource::new(p.clone(), calibration, *population))
            .collect()
    }
}

impl WorkloadSource for RegionSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Region
    }

    fn workload(&self, seed: u64) -> Arc<WorkloadSpec> {
        let mut multi = MultiRegionWorkload::generate(
            std::slice::from_ref(&self.profile),
            self.calibration,
            &self.population,
            seed,
        );
        Arc::new(multi.workloads.remove(0))
    }

    fn lower(&self, seed: u64) -> LoweredWorkload {
        // `MultiRegionWorkload` generates each region with
        // `WorkloadSpec::generate`, whose streaming twin this is — the
        // lowered stream collects to the exact multi-region member.
        let streamed =
            StreamedWorkload::generate(&self.profile, self.calibration, &self.population, seed);
        let stream = Box::new(streamed.stream());
        LoweredWorkload::from_stream(Arc::clone(streamed.header()), stream)
    }

    fn lower_sharded(&self, seed: u64, shards: u32) -> ShardedLowered {
        let streamed =
            StreamedWorkload::generate(&self.profile, self.calibration, &self.population, seed);
        shard_streamed(streamed, shards)
    }
}

/// A replay-tagged workload lowered from trace records.
///
/// The workload is shared read-only (one `Arc` bump per cell), so adding a
/// replayed trace to a session costs no workload regeneration. Replaces the
/// sweep subsystem's `ReplaySource`.
#[derive(Debug, Clone)]
pub struct ReplayTraceSource {
    label: String,
    workload: Arc<WorkloadSpec>,
}

impl ReplayTraceSource {
    /// Wraps an already-lowered replay workload under a label.
    pub fn new(label: impl Into<String>, workload: Arc<WorkloadSpec>) -> Self {
        Self {
            label: label.into(),
            workload,
        }
    }

    /// Lowers `trace` with a default [`TraceReplayWorkload`] builder.
    pub fn from_trace(label: impl Into<String>, trace: &RegionTrace) -> Self {
        Self::from_trace_with(label, &TraceReplayWorkload::new(), trace)
    }

    /// Lowers `trace` with a configured builder (profile or calibration
    /// overrides).
    pub fn from_trace_with(
        label: impl Into<String>,
        builder: &TraceReplayWorkload,
        trace: &RegionTrace,
    ) -> Self {
        Self::new(label, Arc::new(builder.build(trace)))
    }

    /// The shared workload every cell replays.
    pub fn spec(&self) -> &Arc<WorkloadSpec> {
        &self.workload
    }
}

impl WorkloadSource for ReplayTraceSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Replay
    }

    fn workload(&self, _seed: u64) -> Arc<WorkloadSpec> {
        Arc::clone(&self.workload)
    }
}

/// A trace directory replayed straight from disk — the larger-than-memory
/// counterpart of [`ReplayTraceSource`].
///
/// Opening the source streams the directory's CSV files (one pass validates
/// every row and infers the function specs in bounded memory, and a few
/// more select the medians of large functions, see
/// [`StreamedTraceDir::request_passes`]); each session cell then streams its events from disk again via
/// [`StreamedTraceDir::stream`], so no cell ever holds the request table.
/// The seed is ignored, exactly as for [`ReplayTraceSource`]: the trace is a
/// fixed artifact.
///
/// `workload()` — the materialising oracle used by chunk splitting and
/// equality tests — collects the disk stream once and memoises it; sessions
/// that only call [`lower`](WorkloadSource::lower) never pay that cost.
#[derive(Debug)]
pub struct TraceDirSource {
    label: String,
    streamed: StreamedTraceDir,
    memo: Mutex<Option<Arc<WorkloadSpec>>>,
}

impl Clone for TraceDirSource {
    fn clone(&self) -> Self {
        // The memo is an optimisation, not state.
        Self {
            label: self.label.clone(),
            streamed: self.streamed.clone(),
            memo: Mutex::new(None),
        }
    }
}

impl TraceDirSource {
    /// Opens `dir` (the [`RegionTrace::write_csv_dir`] layout) with a
    /// default [`TraceReplayWorkload`] builder and reorder window.
    pub fn open(
        label: impl Into<String>,
        region: RegionId,
        dir: &Path,
    ) -> Result<Self, TraceStreamError> {
        Ok(Self::from_streamed(
            label,
            TraceReplayWorkload::new().open_csv_dir(region, dir)?,
        ))
    }

    /// Opens `dir` with a configured builder (profile or calibration
    /// overrides) and an explicit reorder window.
    pub fn open_with(
        label: impl Into<String>,
        builder: &TraceReplayWorkload,
        region: RegionId,
        dir: &Path,
        window_ms: u64,
    ) -> Result<Self, TraceStreamError> {
        Ok(Self::from_streamed(
            label,
            builder.open_csv_dir_with_window(region, dir, window_ms)?,
        ))
    }

    /// Wraps an already-opened streamed trace directory under a label.
    pub fn from_streamed(label: impl Into<String>, streamed: StreamedTraceDir) -> Self {
        Self {
            label: label.into(),
            streamed,
            memo: Mutex::new(None),
        }
    }

    /// The opened trace directory (header, counts, stream access).
    pub fn streamed(&self) -> &StreamedTraceDir {
        &self.streamed
    }
}

impl WorkloadSource for TraceDirSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Replay
    }

    fn workload(&self, _seed: u64) -> Arc<WorkloadSpec> {
        if let Some(workload) = self.memo.lock().expect("memo lock").as_ref() {
            return Arc::clone(workload);
        }
        // Collect outside the lock; concurrent racers produce identical
        // workloads (the stream is deterministic) and the first insert wins.
        let header = self.streamed.header();
        let events = self
            .streamed
            .stream()
            .expect("trace dir validated at open")
            .collect();
        let workload = Arc::new(WorkloadSpec {
            region: header.region,
            profile: header.profile.clone(),
            calibration: header.calibration,
            functions: header.functions.clone(),
            events,
            source: header.source,
        });
        Arc::clone(self.memo.lock().expect("memo lock").get_or_insert(workload))
    }

    fn lower(&self, _seed: u64) -> LoweredWorkload {
        // The directory was fully validated at open, so a failure to reopen
        // the request file mid-session is fatal, not recoverable.
        let stream = self.streamed.stream().expect("trace dir validated at open");
        LoweredWorkload::from_stream(Arc::clone(self.streamed.header()), Box::new(stream))
    }
}

/// A seeded [`fntrace::synth`] trace, lowered through the replay path.
///
/// The session seed replaces the spec's own `seed` field, so the seed axis
/// varies the synthesized trace (and therefore the replayed workload) while
/// everything else about the spec stays fixed.
///
/// Synthesis plus lowering is the most expensive `workload` of the built-in
/// sources, and streamed sessions lower once per *cell*, so the source
/// memoises the workload per seed — every policy cell of a column then
/// shares one `Arc`, exactly as the artifact-backed sources do. The shape
/// and builder are fixed at construction (private fields), so the memo can
/// never serve a workload from a stale configuration.
#[derive(Debug)]
pub struct SynthTraceSource {
    /// Trace shape; its `seed` field is overridden per cell.
    spec: SynthTraceSpec,
    /// Builder lowering the generated trace into a workload.
    builder: TraceReplayWorkload,
    label: String,
    cache: Mutex<HashMap<u64, Arc<WorkloadSpec>>>,
}

impl Clone for SynthTraceSource {
    fn clone(&self) -> Self {
        // The memo is an optimisation, not state: a clone starts empty and
        // regenerates identical workloads on demand.
        Self::with_builder(self.spec, self.builder.clone())
    }
}

impl SynthTraceSource {
    /// Creates a synth-trace source labelled `synth/<shape?>/r<region>`.
    pub fn new(spec: SynthTraceSpec) -> Self {
        Self::with_builder(spec, TraceReplayWorkload::new())
    }

    /// Creates the source with a configured replay builder.
    pub fn with_builder(spec: SynthTraceSpec, builder: TraceReplayWorkload) -> Self {
        let label = format!("synth/r{}", spec.region.index());
        Self {
            spec,
            builder,
            label,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The trace shape workloads are synthesized from (seed overridden per
    /// cell).
    pub fn spec(&self) -> &SynthTraceSpec {
        &self.spec
    }

    /// The builder lowering generated traces into workloads.
    pub fn builder(&self) -> &TraceReplayWorkload {
        &self.builder
    }
}

impl WorkloadSource for SynthTraceSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::SynthTrace
    }

    fn workload(&self, seed: u64) -> Arc<WorkloadSpec> {
        if let Some(workload) = self.cache.lock().expect("cache lock").get(&seed) {
            return Arc::clone(workload);
        }
        // Generate outside the lock; concurrent racers produce identical
        // workloads (generation is deterministic) and the first insert wins.
        let trace = SynthTraceSpec { seed, ..self.spec }.generate();
        let workload = Arc::new(self.builder.build(&trace));
        Arc::clone(
            self.cache
                .lock()
                .expect("cache lock")
                .entry(seed)
                .or_insert(workload),
        )
    }
}

/// Any pre-built workload, used verbatim for every seed.
///
/// This is the single-workload corner of the session — what
/// [`PolicyEvaluation`](crate::PolicyEvaluation) wraps its input in.
#[derive(Debug, Clone)]
pub struct FixedWorkloadSource {
    label: String,
    workload: Arc<WorkloadSpec>,
}

impl FixedWorkloadSource {
    /// Wraps a workload under a label.
    pub fn new(label: impl Into<String>, workload: Arc<WorkloadSpec>) -> Self {
        Self {
            label: label.into(),
            workload,
        }
    }
}

impl WorkloadSource for FixedWorkloadSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Fixed
    }

    fn workload(&self, _seed: u64) -> Arc<WorkloadSpec> {
        Arc::clone(&self.workload)
    }
}

/// One time window of a longer workload, materialised on demand.
///
/// [`ChunkSource::split`] produces one source per non-empty window of
/// `chunk_ms` (the windows of [`WorkloadSpec::chunked`]); each source holds
/// only the shared base `Arc` plus an index range, and copies out exactly
/// its own window's events when the session materialises the column. A
/// session over chunk sources therefore holds, beyond the shared base, one
/// extra copy of the event stream in total (the chunk columns together)
/// plus a per-chunk copy of the function table and profile, all resident
/// for the duration of the run; every chunk simulates as an independent
/// cell.
#[derive(Debug, Clone)]
pub struct ChunkSource {
    base: Arc<WorkloadSpec>,
    start: usize,
    end: usize,
    label: String,
}

impl ChunkSource {
    /// Splits `base` into per-window sources labelled `chunk/<index>`.
    ///
    /// The windows are exactly those of [`WorkloadSpec::chunked`] (via
    /// [`WorkloadSpec::chunk_ranges`]): every source is non-empty and
    /// confined to one half-open `chunk_ms` window; `chunk_ms == 0` yields
    /// the whole stream as a single source.
    pub fn split(base: &Arc<WorkloadSpec>, chunk_ms: u64) -> Vec<ChunkSource> {
        base.chunk_ranges(chunk_ms)
            .into_iter()
            .enumerate()
            .map(|(i, (start, end))| ChunkSource {
                base: Arc::clone(base),
                start,
                end,
                label: format!("chunk/{i:04}"),
            })
            .collect()
    }

    /// Timestamp of the chunk's first event, in milliseconds.
    pub fn start_ms(&self) -> u64 {
        self.base.events[self.start].timestamp_ms
    }

    /// Number of events in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk holds no events (never true for split output).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WorkloadSource for ChunkSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Fixed
    }

    fn workload(&self, _seed: u64) -> Arc<WorkloadSpec> {
        // Field-by-field so only this window's events are copied —
        // struct-update syntax would clone the base's full event stream per
        // chunk just to throw it away.
        Arc::new(WorkloadSpec {
            region: self.base.region,
            profile: self.base.profile.clone(),
            calibration: self.base.calibration,
            functions: self.base.functions.clone(),
            events: self.base.events[self.start..self.end].to_vec(),
            source: self.base.source,
        })
    }

    fn lower(&self, _seed: u64) -> LoweredWorkload {
        // The streamed chunk is a cursor over the shared base — unlike
        // `workload`, it copies nothing at all.
        LoweredWorkload::from_spec_range(Arc::clone(&self.base), self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::synth::SynthShape;
    use fntrace::{RegionId, MILLIS_PER_HOUR};

    fn tiny_population() -> PopulationConfig {
        PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        }
    }

    #[test]
    fn source_kinds_have_unique_names() {
        let kinds = [
            SourceKind::Preset,
            SourceKind::Region,
            SourceKind::Replay,
            SourceKind::SynthTrace,
            SourceKind::Fixed,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn preset_source_matches_direct_generation() {
        let source = PresetSource::new(
            ScenarioPreset::Diurnal,
            RegionProfile::r2(),
            1,
            tiny_population(),
        );
        assert_eq!(source.label(), "preset/diurnal/r2");
        assert_eq!(source.kind(), SourceKind::Preset);
        let direct = WorkloadSpec::generate(
            &ScenarioPreset::Diurnal.profile(&RegionProfile::r2()),
            ScenarioPreset::Diurnal.calibration(1),
            &tiny_population(),
            9,
        );
        assert_eq!(*source.workload(9), direct);
    }

    #[test]
    fn region_source_matches_multi_region_generation() {
        let calibration = Calibration {
            duration_days: 1,
            ..Calibration::default()
        };
        let source = RegionSource::new(RegionProfile::r3(), calibration, tiny_population());
        assert_eq!(source.label(), "region/r3");
        let multi = MultiRegionWorkload::generate(
            &[RegionProfile::r2(), RegionProfile::r3()],
            calibration,
            &tiny_population(),
            5,
        );
        assert_eq!(
            source.workload(5).as_ref(),
            multi.region(RegionId::new(3)).unwrap()
        );
        let all = RegionSource::multi(
            &[RegionProfile::r2(), RegionProfile::r3()],
            calibration,
            &tiny_population(),
        );
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].label(), "region/r2");
    }

    fn synth_spec() -> SynthTraceSpec {
        SynthTraceSpec {
            region: RegionId::new(2),
            shape: SynthShape::Diurnal,
            functions: 6,
            duration_days: 1,
            mean_requests_per_day: 120.0,
            keep_alive_secs: 60.0,
            seed: 0,
        }
    }

    #[test]
    fn replay_source_shares_one_workload_across_seeds() {
        let trace = SynthTraceSpec {
            seed: 31,
            ..synth_spec()
        }
        .generate();
        let source = ReplayTraceSource::from_trace("synth-r2", &trace);
        assert_eq!(source.kind(), SourceKind::Replay);
        let a = source.workload(1);
        let b = source.workload(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.is_replay());
        assert_eq!(a.len(), trace.requests.len());
    }

    #[test]
    fn trace_dir_source_matches_the_eager_replay_source() {
        let trace = SynthTraceSpec {
            seed: 77,
            ..synth_spec()
        }
        .generate();
        let dir = std::env::temp_dir().join("coldstarts_trace_dir_source_test");
        let _ = std::fs::remove_dir_all(&dir);
        trace.write_csv_dir(&dir).unwrap();

        let eager = ReplayTraceSource::from_trace("synth-r2", &trace);
        let streamed = TraceDirSource::open("synth-r2", trace.region, &dir).unwrap();
        assert_eq!(streamed.kind(), SourceKind::Replay);
        assert_eq!(streamed.label(), eager.label());
        assert_eq!(
            streamed.streamed().request_count(),
            trace.requests.len() as u64
        );

        // The materialised workload is identical to the eager path, and the
        // memo hands back one shared Arc across seeds.
        let a = streamed.workload(1);
        let b = streamed.workload(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *eager.workload(0));

        // Lowering streams from disk: same header, same events, no
        // materialised table.
        let lowered = streamed.lower(0);
        assert!(Arc::ptr_eq(&lowered.header, streamed.streamed().header()));
        let events: Vec<_> = lowered.stream.collect();
        assert_eq!(events, a.events);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synth_trace_source_varies_with_the_session_seed() {
        let source = SynthTraceSource::new(synth_spec());
        assert_eq!(source.label(), "synth/r2");
        assert_eq!(source.kind(), SourceKind::SynthTrace);
        let a = source.workload(1);
        let b = source.workload(1);
        let c = source.workload(2);
        assert_eq!(a, b, "same seed, same workload");
        assert_ne!(a, c, "the seed axis must vary the trace");
        assert!(a.is_replay());
    }

    #[test]
    fn chunk_sources_cover_every_event_exactly_once() {
        let source = SynthTraceSource::new(synth_spec());
        let base = source.workload(3);
        let chunks = ChunkSource::split(&base, MILLIS_PER_HOUR);
        assert!(chunks.len() > 1);
        // Windows agree with WorkloadSpec::chunked exactly.
        let expected: Vec<usize> = base
            .chunked(MILLIS_PER_HOUR)
            .iter()
            .map(|c| c.len())
            .collect();
        let actual: Vec<usize> = chunks.iter().map(ChunkSource::len).collect();
        assert_eq!(actual, expected);
        assert_eq!(ChunkSource::split(&base, 0).len(), 1);
        let total: usize = chunks.iter().map(ChunkSource::len).sum();
        assert_eq!(total, base.len());
        let mut rebuilt = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert!(!chunk.is_empty());
            assert_eq!(chunk.label(), format!("chunk/{i:04}"));
            let spec = chunk.workload(0);
            assert_eq!(spec.events.len(), chunk.len());
            assert_eq!(spec.events[0].timestamp_ms, chunk.start_ms());
            rebuilt.extend(spec.events.iter().copied());
        }
        assert_eq!(rebuilt, base.events);
        // Chunk windows are chronologically ordered.
        for w in chunks.windows(2) {
            assert!(w[0].start_ms() < w[1].start_ms());
        }
    }

    #[test]
    fn fixed_source_returns_the_same_arc() {
        let base = SynthTraceSource::new(synth_spec()).workload(4);
        let source = FixedWorkloadSource::new("fixed", Arc::clone(&base));
        assert_eq!(source.kind(), SourceKind::Fixed);
        assert!(Arc::ptr_eq(&source.workload(0), &base));
        assert_eq!(source.label(), "fixed");
    }
}
