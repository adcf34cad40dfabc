//! Trace-driven workload replay.
//!
//! Everything upstream of this module *generates* workloads; this module
//! closes the loop in the other direction: it lowers recorded trace tables —
//! a [`fntrace::RegionTrace`] parsed from the public CSV layout, or the
//! output of the simulator's own trace recorder — into the exact
//! [`WorkloadSpec`] the discrete-event platform consumes. The experiment
//! grid and the policy sweeps can then run every policy family against a
//! replayed production (or synthetic) trace exactly as they do against the
//! synthetic presets.
//!
//! Replay has to reconstruct the per-function attributes the simulator needs
//! but the trace does not store directly. They are inferred from the
//! records themselves:
//!
//! * execution time, CPU, and memory medians from the request table,
//! * dependency layers from non-zero `deploy_dep_us` cold-start components,
//! * per-pod concurrency from the maximum number of overlapping requests
//!   observed on a single pod,
//! * timer periods from the median gap between consecutive invocations of
//!   timer-triggered functions.
//!
//! The produced spec is tagged [`WorkloadSource::Replay`], which makes the
//! platform engine attribute cold starts per function in its report.
//!
//! # Examples
//!
//! ```
//! use fntrace::synth::{SynthShape, SynthTraceSpec};
//! use fntrace::RegionId;
//! use faas_workload::replay::TraceReplayWorkload;
//!
//! // Any trace in the Table 1 layout works; here a tiny synthetic one.
//! let trace = SynthTraceSpec {
//!     region: RegionId::new(3),
//!     shape: SynthShape::Steady,
//!     functions: 5,
//!     duration_days: 1,
//!     mean_requests_per_day: 100.0,
//!     keep_alive_secs: 60.0,
//!     seed: 11,
//! }
//! .generate();
//!
//! let workload = TraceReplayWorkload::new().build(&trace);
//! assert!(workload.is_replay());
//! assert_eq!(workload.len(), trace.requests.len());
//! assert_eq!(workload.region, RegionId::new(3));
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fntrace::csv::CsvError;
use fntrace::stream::TraceReader;
use fntrace::{
    ColdStartRecord, Dataset, FunctionId, FunctionTable, PodId, RegionId, RegionTrace,
    RequestRecord, TraceDirPaths, TriggerType, MILLIS_PER_DAY, MILLIS_PER_HOUR,
};

use crate::population::FunctionSpec;
use crate::profile::{Calibration, RegionProfile};
use crate::simio::{WorkloadEvent, WorkloadSource, WorkloadSpec};
use crate::stream::{ArrivalStream, ReplayStream};

/// Builder lowering trace records into replayable [`WorkloadSpec`]s.
///
/// By default the region profile is looked up from the paper regions by the
/// trace's region id (falling back to Region 2's calibration) and the
/// calibration horizon is derived from the trace's time span; both can be
/// overridden so a replay matches the exact setup of a synthetic run it is
/// being compared against.
#[derive(Debug, Clone, Default)]
pub struct TraceReplayWorkload {
    profile: Option<RegionProfile>,
    calibration: Option<Calibration>,
}

impl TraceReplayWorkload {
    /// Creates a builder with default profile and calibration inference.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `profile` for the latency model and load modulation instead of
    /// the paper region matching the trace's region id.
    pub fn with_profile(mut self, profile: RegionProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Uses `calibration` (horizon, keep-alive) instead of deriving the
    /// duration from the trace's time span.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// The override calibration, or one whose horizon ends on the day
    /// boundary after the latest timestamp in `span` (at least one day).
    fn calibration_for(&self, span: Option<(u64, u64)>) -> Result<Calibration, TraceStreamError> {
        if let Some(calibration) = self.calibration {
            return Ok(calibration);
        }
        let days = match span {
            None => 0,
            Some((_, hi)) => hi
                .checked_add(1)
                .and_then(|end| u32::try_from(end.div_ceil(MILLIS_PER_DAY)).ok())
                .ok_or(TraceStreamError::TimestampBeyondHorizon { timestamp_ms: hi })?,
        };
        Ok(Calibration {
            duration_days: days.max(1),
            ..Calibration::default()
        })
    }

    /// Lowers one region's trace into a replay-tagged workload.
    ///
    /// This is [`build_streamed`](Self::build_streamed) collected: the
    /// events come out of the same ordered [`ReplayStream`] the streaming
    /// path yields window by window.
    pub fn build(&self, trace: &RegionTrace) -> WorkloadSpec {
        let (mut spec, stream) = self.build_streamed(trace);
        spec.events = stream.collect();
        spec
    }

    /// Lowers a trace into an event-free header spec plus the
    /// [`ReplayStream`] that yields its events in `(timestamp, function)`
    /// order.
    ///
    /// The stream borrows the trace's request table and holds only a sorted
    /// index permutation, so replaying never duplicates the event list; the
    /// header carries the reconstructed function specs, profile, and
    /// calibration the simulator's static state needs.
    ///
    /// # Panics
    ///
    /// Without a [`with_calibration`](Self::with_calibration) override,
    /// panics with the [`TraceStreamError::TimestampBeyondHorizon`] message
    /// when the trace's latest timestamp puts its horizon beyond `u32::MAX`
    /// days ([`open_csv_dir`](Self::open_csv_dir) returns that error).
    pub fn build_streamed<'a>(&self, trace: &'a RegionTrace) -> (WorkloadSpec, ReplayStream<'a>) {
        let calibration = self
            .calibration_for(trace.time_span_ms())
            .unwrap_or_else(|e| panic!("{e}"));
        let profile = self.profile.clone().unwrap_or_else(|| {
            let base =
                RegionProfile::paper_region(trace.region.index()).unwrap_or_else(RegionProfile::r2);
            RegionProfile {
                region: trace.region,
                ..base
            }
        });

        let functions = infer_functions(trace, &calibration);

        let spec = WorkloadSpec {
            region: trace.region,
            profile,
            calibration,
            functions,
            events: Vec::new(),
            source: WorkloadSource::Replay,
        };
        let stream = ReplayStream::new(trace, spec.duration_ms());
        (spec, stream)
    }

    /// Lowers every region of a dataset, in ascending region-id order.
    pub fn build_dataset(&self, dataset: &Dataset) -> Vec<WorkloadSpec> {
        dataset.regions().map(|trace| self.build(trace)).collect()
    }
}

/// Errors from streaming trace-directory ingestion.
#[derive(Debug)]
pub enum TraceStreamError {
    /// Parsing or I/O failure in one of the CSV files.
    Csv(CsvError),
    /// A request record was out of order by more than the reorder window.
    Disorder {
        /// 0-based data-row index of the offending record.
        seq: u64,
        /// Its timestamp.
        timestamp_ms: u64,
        /// Largest timestamp seen before it.
        max_seen_ms: u64,
        /// The configured reorder window.
        window_ms: u64,
    },
    /// A timestamp so late that the trace horizon (the day after it) does
    /// not fit a [`Calibration`]'s `u32` day count.
    TimestampBeyondHorizon {
        /// The latest timestamp in the trace.
        timestamp_ms: u64,
    },
    /// The request file changed between the passes that select a median:
    /// a later pass found fewer keys than the first pass counted.
    TraceChanged {
        /// Function whose median was being selected.
        function: FunctionId,
        /// Which statistic.
        stat: ReplayStat,
    },
}

impl std::fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStreamError::Csv(e) => write!(f, "{e}"),
            TraceStreamError::Disorder {
                seq,
                timestamp_ms,
                max_seen_ms,
                window_ms,
            } => write!(
                f,
                "request record {seq} at {timestamp_ms}ms arrives more than {window_ms}ms \
                 after later timestamps (max seen {max_seen_ms}ms); raise the reorder window \
                 or sort the trace"
            ),
            TraceStreamError::TimestampBeyondHorizon { timestamp_ms } => write!(
                f,
                "timestamp {timestamp_ms}ms is beyond the latest replayable horizon of {} days",
                u32::MAX
            ),
            TraceStreamError::TraceChanged { function, stat } => write!(
                f,
                "request file changed between passes: the {stat:?} median of function \
                 {function} ranks beyond the keys re-read"
            ),
        }
    }
}

impl std::error::Error for TraceStreamError {}

impl From<CsvError> for TraceStreamError {
    fn from(e: CsvError) -> Self {
        TraceStreamError::Csv(e)
    }
}

/// Exact multiset median over `u64` keys with a memory cap.
///
/// Keys are collected verbatim up to `cap`; the `cap + 1`-th observation
/// drops the collection and only counts from then on. An overflowed median
/// must be [`resolve`](Self::resolve)d externally (the streaming path runs
/// an exact out-of-core radix selection over the re-streamable request file
/// — see `select_medians`) before it can be read. With `cap = usize::MAX`
/// (the eager path, where the whole table is resident anyway) overflow never
/// happens.
#[derive(Debug, Clone)]
struct ValueMedian {
    keys: Vec<u64>,
    total: u64,
    /// Smallest and largest key added: they seed the selection of an
    /// overflowed median with the key prefix every key shares.
    lo: u64,
    hi: u64,
    cap: usize,
    overflowed: bool,
    resolved: Option<u64>,
}

impl ValueMedian {
    fn new(cap: usize) -> Self {
        Self {
            keys: Vec::new(),
            total: 0,
            lo: u64::MAX,
            hi: 0,
            cap,
            overflowed: false,
            resolved: None,
        }
    }

    fn add(&mut self, key: u64) {
        self.total += 1;
        self.lo = self.lo.min(key);
        self.hi = self.hi.max(key);
        if self.overflowed {
            return;
        }
        if self.keys.len() < self.cap {
            self.keys.push(key);
        } else {
            self.overflowed = true;
            self.keys = Vec::new();
        }
    }

    /// 0-based sorted index of the median (the upper median, matching
    /// `sorted[len / 2]` over the materialised vector).
    fn rank(&self) -> u64 {
        self.total / 2
    }

    fn resolve(&mut self, value: u64) {
        debug_assert!(self.overflowed, "only overflowed medians need resolving");
        self.resolved = Some(value);
    }

    /// The value at sorted index `total / 2`.
    fn median(mut self) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        if self.overflowed {
            return Some(
                self.resolved
                    .expect("overflowed median was never resolved by selection"),
            );
        }
        self.keys.sort_unstable();
        Some(self.keys[(self.total / 2) as usize])
    }
}

/// Order-preserving bijection from `f64` to `u64` under `f64::total_cmp`,
/// so float medians can ride the same counting structure.
fn f64_total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn f64_from_total_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// In-flight request end-times on one pod (min-heap), for streaming
/// concurrency inference.
#[derive(Debug, Default, Clone)]
struct PodLoad {
    ends: BinaryHeap<Reverse<u64>>,
    /// Largest end time ever pushed, for garbage collection.
    last_end: u64,
}

/// Per-function streaming accumulation state.
#[derive(Debug, Clone)]
struct StreamAccum {
    count: u64,
    exec_us: ValueMedian,
    /// CPU medians keyed through [`f64_total_key`].
    cpu_keys: ValueMedian,
    memory_bytes: ValueMedian,
    prev_ts: Option<u64>,
    gaps_ms: ValueMedian,
    pods: HashMap<PodId, PodLoad>,
    max_concurrency: u32,
    records_since_gc: u32,
}

impl StreamAccum {
    fn new(median_cap: usize) -> Self {
        Self {
            count: 0,
            exec_us: ValueMedian::new(median_cap),
            cpu_keys: ValueMedian::new(median_cap),
            memory_bytes: ValueMedian::new(median_cap),
            prev_ts: None,
            gaps_ms: ValueMedian::new(median_cap),
            pods: HashMap::new(),
            max_concurrency: 0,
            records_since_gc: 0,
        }
    }

    fn stat(&mut self, stat: ReplayStat) -> &mut ValueMedian {
        match stat {
            ReplayStat::ExecUs => &mut self.exec_us,
            ReplayStat::CpuKey => &mut self.cpu_keys,
            ReplayStat::MemoryBytes => &mut self.memory_bytes,
            ReplayStat::GapMs => &mut self.gaps_ms,
        }
    }
}

/// One of the four per-function statistics inferred by median.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStat {
    /// Request execution time, microseconds.
    ExecUs,
    /// CPU usage, as the order-preserving total-order key of millicores
    /// (the `f64` bits mapped so `u64` ordering matches `f64::total_cmp`).
    CpuKey,
    /// Memory usage, bytes.
    MemoryBytes,
    /// Gap between consecutive same-function arrivals in replay order,
    /// milliseconds.
    GapMs,
}

impl ReplayStat {
    const ALL: [ReplayStat; 4] = [
        ReplayStat::ExecUs,
        ReplayStat::CpuKey,
        ReplayStat::MemoryBytes,
        ReplayStat::GapMs,
    ];
}

/// A median the capped builder could not hold in memory: selection must find
/// the key at sorted index `rank` of the named per-function statistic.
#[derive(Debug, Clone, Copy)]
pub struct PendingMedian {
    /// Function whose statistic overflowed the cap.
    pub function: FunctionId,
    /// Which statistic.
    pub stat: ReplayStat,
    /// 0-based index into the sorted multiset of that statistic's keys.
    pub rank: u64,
    /// Smallest key the first pass saw.
    pub lo: u64,
    /// Largest key the first pass saw.
    pub hi: u64,
}

/// Streaming function-stat inference.
///
/// Feed every request record in `(timestamp, function, record index)` order
/// (the [`ReplayStream`] order — [`WindowedReplayOrder`] produces exactly
/// this from nearly-sorted disk files), then every cold-start record in any
/// order, then call [`finish`](Self::finish). The result is identical to
/// scanning a fully materialised [`RegionTrace`]: medians are exact (capped
/// key collections, finished out-of-core by `select_medians` when a
/// function's observations outgrow the cap), timer gaps come from the sorted
/// per-function
/// arrival sequence, and per-pod concurrency replays the same
/// ends-release-before-starts sweep the eager sort performed.
///
/// # Memory contract
///
/// Resident state is per *function*, never per request: at most
/// [`with_median_cap`](Self::with_median_cap) keys per statistic (overflowed
/// medians are finished by out-of-core selection) plus the live per-pod heaps
/// (idle pods are garbage-collected as timestamps advance). A trace 100×
/// longer with the same function population accumulates in the same
/// footprint.
#[derive(Debug)]
pub struct ReplayStatsBuilder {
    accum: BTreeMap<FunctionId, StreamAccum>,
    has_deps: BTreeMap<FunctionId, bool>,
    requests: u64,
    cold_starts: u64,
    span: Option<(u64, u64)>,
    median_cap: usize,
}

impl Default for ReplayStatsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayStatsBuilder {
    /// Creates an empty builder with an unbounded median cap (exact medians
    /// held fully in memory — the eager path).
    pub fn new() -> Self {
        Self::with_median_cap(usize::MAX)
    }

    /// Creates an empty builder that keeps at most `cap` raw keys per
    /// (function, statistic) median. A median that overflows the cap keeps an
    /// exact count but forgets its keys; [`pending_medians`](Self::pending_medians)
    /// reports those, and each must be [`resolve_median`](Self::resolve_median)d
    /// (the streaming path re-scans the request file with `select_medians`)
    /// before [`finish`](Self::finish).
    pub fn with_median_cap(cap: usize) -> Self {
        Self {
            accum: BTreeMap::new(),
            has_deps: BTreeMap::new(),
            requests: 0,
            cold_starts: 0,
            span: None,
            median_cap: cap,
        }
    }

    fn widen_span(&mut self, ts: u64) {
        self.span = Some(match self.span {
            Some((lo, hi)) => (lo.min(ts), hi.max(ts)),
            None => (ts, ts),
        });
    }

    /// Accumulates one request record. Records of the same function **must**
    /// arrive in non-decreasing timestamp order (debug-asserted).
    pub fn record_request(&mut self, r: &RequestRecord) {
        self.requests += 1;
        self.widen_span(r.timestamp_ms);
        let cap = self.median_cap;
        let a = self
            .accum
            .entry(r.function)
            .or_insert_with(|| StreamAccum::new(cap));
        a.count += 1;
        a.exec_us.add(r.execution_time_us);
        a.cpu_keys.add(f64_total_key(r.cpu_usage_millicores));
        a.memory_bytes.add(r.memory_usage_bytes);
        if let Some(prev) = a.prev_ts {
            debug_assert!(
                prev <= r.timestamp_ms,
                "requests must be fed in per-function timestamp order"
            );
            a.gaps_ms.add(r.timestamp_ms.saturating_sub(prev));
        }
        a.prev_ts = Some(r.timestamp_ms);

        let start = r.timestamp_ms;
        let end = start
            .saturating_add(r.execution_time_us.div_ceil(1000))
            .max(start.saturating_add(1));
        let pod = a.pods.entry(r.pod).or_default();
        // Requests ending at or before this start are no longer in flight:
        // releases happen before the new arrival, so back-to-back requests
        // never count as overlapping (matching the eager sweep's tie rule).
        while pod.ends.peek().is_some_and(|Reverse(e)| *e <= start) {
            pod.ends.pop();
        }
        pod.ends.push(Reverse(end));
        pod.last_end = pod.last_end.max(end);
        a.max_concurrency = a.max_concurrency.max(pod.ends.len() as u32);

        a.records_since_gc += 1;
        if a.records_since_gc >= POD_GC_INTERVAL {
            a.records_since_gc = 0;
            // Pods whose every request already ended would start from an
            // empty heap anyway; dropping their state changes nothing.
            a.pods.retain(|_, p| p.last_end > start);
        }
    }

    /// Accumulates one cold-start record (order-independent).
    pub fn record_cold_start(&mut self, cs: &ColdStartRecord) {
        self.cold_starts += 1;
        self.widen_span(cs.timestamp_ms);
        *self.has_deps.entry(cs.function).or_default() |= cs.deploy_dep_us > 0;
    }

    /// Number of request records accumulated.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Number of cold-start records accumulated.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    /// Timestamp span `[min, max]` across both record kinds.
    pub fn span_ms(&self) -> Option<(u64, u64)> {
        self.span
    }

    /// The medians whose key collections overflowed the cap, so their exact
    /// value must come from an out-of-core selection pass. Empty when the cap
    /// is unbounded or every per-function statistic stayed small.
    pub fn pending_medians(&self) -> Vec<PendingMedian> {
        let mut pending = Vec::new();
        for (&function, a) in &self.accum {
            for stat in ReplayStat::ALL {
                let m = match stat {
                    ReplayStat::ExecUs => &a.exec_us,
                    ReplayStat::CpuKey => &a.cpu_keys,
                    ReplayStat::MemoryBytes => &a.memory_bytes,
                    ReplayStat::GapMs => &a.gaps_ms,
                };
                if m.overflowed {
                    pending.push(PendingMedian {
                        function,
                        stat,
                        rank: m.rank(),
                        lo: m.lo,
                        hi: m.hi,
                    });
                }
            }
        }
        pending
    }

    /// Supplies the selected key for one overflowed median reported by
    /// [`pending_medians`](Self::pending_medians).
    pub fn resolve_median(&mut self, function: FunctionId, stat: ReplayStat, key: u64) {
        self.accum
            .get_mut(&function)
            .expect("resolving a median for an unseen function")
            .stat(stat)
            .resolve(key);
    }

    /// Reconstructs a [`FunctionSpec`] per distinct function seen in the
    /// request feed, in ascending function-id order.
    pub fn finish(self, functions: &FunctionTable, calibration: &Calibration) -> Vec<FunctionSpec> {
        let days = f64::from(calibration.duration_days.max(1));
        self.accum
            .into_iter()
            .map(|(function, a)| {
                let meta = functions.get(function);
                let triggers = meta
                    .map(|m| m.triggers.clone())
                    .filter(|t| !t.is_empty())
                    .unwrap_or_else(|| vec![TriggerType::Unknown]);
                let primary = triggers[0];
                let config = functions.config_of(function);
                let user = meta
                    .map(|m| m.user)
                    .unwrap_or_else(|| fntrace::UserId::new(function.raw()));

                let requests_per_day = a.count as f64 / days;
                let timer_period_secs = if primary == TriggerType::Timer {
                    a.gaps_ms
                        .median()
                        .map(|g| g as f64 / 1e3)
                        .unwrap_or(86_400.0 / requests_per_day.max(1e-9))
                        .max(1.0)
                } else {
                    0.0
                };

                FunctionSpec {
                    function,
                    user,
                    runtime: functions.runtime_of(function),
                    triggers,
                    config,
                    base_requests_per_day: requests_per_day,
                    timer_period_secs,
                    // Replay takes arrival times verbatim from the records,
                    // so the generative shape parameters stay neutral.
                    diurnal_amplitude: 0.0,
                    peak_offset_hours: 0.0,
                    median_execution_secs: (a.exec_us.median().unwrap_or(0) as f64 / 1e6).max(1e-4),
                    cpu_millicores: a
                        .cpu_keys
                        .median()
                        .map(f64_from_total_key)
                        .unwrap_or(0.0)
                        .max(1.0),
                    memory_bytes: a.memory_bytes.median().unwrap_or(0).max(1),
                    has_dependencies: self.has_deps.get(&function).copied().unwrap_or(false),
                    concurrency: a.max_concurrency.max(1),
                    upstream: None,
                }
            })
            .collect()
    }
}

/// How many records a function accumulates between idle-pod sweeps.
const POD_GC_INTERVAL: u32 = 1024;

/// Raw keys kept per (function, statistic) median on the streaming path
/// before it falls back to out-of-core selection.
const MEDIAN_COLLECT_CAP: usize = 1024;

/// Key bits one narrowing pass of [`select_medians`] fixes. Its histogram
/// has `2^NARROW_BITS` = [`MEDIAN_COLLECT_CAP`] buckets, so narrowing a
/// median holds no more memory than collecting one may.
const NARROW_BITS: u32 = MEDIAN_COLLECT_CAP.ilog2();

/// One overflowed median being narrowed down by [`select_medians`].
struct Selector {
    function: FunctionId,
    stat: ReplayStat,
    rank: u64,
    /// Key bits fixed so far, left-aligned; only the top `bits` are valid.
    prefix: u64,
    bits: u32,
    mode: SelectorMode,
    result: Option<u64>,
}

enum SelectorMode {
    /// Histogram the next `log2(len)` key bits (at most [`NARROW_BITS`]) of
    /// every key matching the prefix.
    Narrow(Vec<u64>),
    /// Few enough keys match the prefix: gather and sort them outright.
    Collect(Vec<u64>),
}

impl SelectorMode {
    /// A zeroed histogram over the key bits that follow a `bits`-bit prefix.
    fn narrow(bits: u32) -> Self {
        SelectorMode::Narrow(vec![0; 1 << NARROW_BITS.min(64 - bits)])
    }
}

impl Selector {
    /// Starts selecting `p` from the key prefix its smallest and largest
    /// keys share: every key lies between the two, so every key has it.
    /// At most 63 bits count as known, so even a median whose keys are all
    /// equal is confirmed by one re-read of the file.
    fn seeded(p: PendingMedian) -> Self {
        let bits = (p.lo ^ p.hi).leading_zeros().min(63);
        Self {
            function: p.function,
            stat: p.stat,
            rank: p.rank,
            prefix: p.lo & !(u64::MAX >> bits),
            bits,
            mode: SelectorMode::narrow(bits),
            result: None,
        }
    }

    fn matches(&self, key: u64) -> bool {
        self.bits == 0 || (key >> (64 - self.bits)) == (self.prefix >> (64 - self.bits))
    }

    fn observe(&mut self, key: u64) {
        if !self.matches(key) {
            return;
        }
        match &mut self.mode {
            SelectorMode::Narrow(hist) => {
                let mask = hist.len() - 1;
                let shift = 64 - self.bits - mask.count_ones();
                hist[(key >> shift) as usize & mask] += 1;
            }
            SelectorMode::Collect(keys) => keys.push(key),
        }
    }

    /// Digests one pass: fixes the next key bits (or finishes), choosing
    /// direct collection once at most `cap` keys remain under the prefix.
    /// Fails when the pass saw too few keys to hold the rank, which means
    /// the file changed since the pass that counted them.
    fn conclude_pass(&mut self, cap: usize) -> Result<(), TraceStreamError> {
        let (function, stat) = (self.function, self.stat);
        let changed = move || TraceStreamError::TraceChanged { function, stat };
        match std::mem::replace(&mut self.mode, SelectorMode::Collect(Vec::new())) {
            SelectorMode::Narrow(hist) => {
                let mut before = 0u64;
                let mut bucket = None;
                for (b, &n) in hist.iter().enumerate() {
                    if self.rank < before + n {
                        bucket = Some((b, n));
                        break;
                    }
                    before += n;
                }
                let (b, n) = bucket.ok_or_else(changed)?;
                self.rank -= before;
                self.bits += hist.len().trailing_zeros();
                self.prefix |= (b as u64) << (64 - self.bits);
                if self.bits == 64 {
                    self.result = Some(self.prefix);
                } else if n <= cap as u64 {
                    self.mode = SelectorMode::Collect(Vec::with_capacity(n as usize));
                } else {
                    self.mode = SelectorMode::narrow(self.bits);
                }
            }
            SelectorMode::Collect(mut keys) => {
                keys.sort_unstable();
                self.result = Some(*keys.get(self.rank as usize).ok_or_else(changed)?);
            }
        }
        Ok(())
    }
}

/// Selected `(function, statistic, key)` triples and the passes taken.
type Selected = (Vec<(FunctionId, ReplayStat, u64)>, u32);

/// Exact out-of-core median selection for the statistics that overflowed the
/// streaming builder's cap. Returns the selected keys and the number of
/// passes it read the request file.
///
/// Each pass re-streams the request file through the same
/// [`WindowedReplayOrder`] the builder consumed (the order is deterministic,
/// and gap keys depend on it) and refines every unresolved selector. A
/// selector starts from the key prefix shared by the smallest and largest
/// keys the first pass saw (`b` bits, at most 63); each narrowing pass fixes
/// up to [`NARROW_BITS`] (10) more bits until at most `cap` keys remain
/// under the prefix, at which point one final pass collects and sorts them.
/// That is at most ⌈(64 − b)/10⌉ passes, `b` taken from the selector with
/// the shortest shared prefix, so an open reads the request file at most
/// 1 + ⌈(64 − b)/10⌉ times; the benchmark's 463k-request fileset takes 2
/// selection passes. Every selector takes at least one pass, even when all
/// its keys are equal. Resident memory is `O(selectors × cap)` (a
/// narrowing histogram holds `2^NARROW_BITS` = [`MEDIAN_COLLECT_CAP`]
/// counts), independent of trace length. A pass that finds fewer keys than
/// a selector's rank (the file changed between passes) is a
/// [`TraceStreamError::TraceChanged`].
fn select_medians(
    requests_path: &Path,
    window_ms: u64,
    pending: Vec<PendingMedian>,
    cap: usize,
) -> Result<Selected, TraceStreamError> {
    let mut selectors: Vec<Selector> = pending.into_iter().map(Selector::seeded).collect();
    let mut passes = 0;

    while selectors.iter().any(|s| s.result.is_none()) {
        passes += 1;
        // Index the unresolved selectors by function for the scan.
        let mut by_function: HashMap<FunctionId, Vec<usize>> = HashMap::new();
        for (i, s) in selectors.iter().enumerate() {
            if s.result.is_none() {
                by_function.entry(s.function).or_default().push(i);
            }
        }

        let reader = TraceReader::<_, RequestRecord>::from_path(requests_path)?;
        let mut prev_ts: HashMap<FunctionId, u64> = HashMap::new();
        for rec in WindowedReplayOrder::new(reader, window_ms) {
            let r = rec?;
            let gap = prev_ts
                .insert(r.function, r.timestamp_ms)
                .map(|prev| r.timestamp_ms.saturating_sub(prev));
            let Some(indices) = by_function.get(&r.function) else {
                continue;
            };
            for &i in indices {
                let s = &mut selectors[i];
                match s.stat {
                    ReplayStat::ExecUs => s.observe(r.execution_time_us),
                    ReplayStat::CpuKey => s.observe(f64_total_key(r.cpu_usage_millicores)),
                    ReplayStat::MemoryBytes => s.observe(r.memory_usage_bytes),
                    ReplayStat::GapMs => {
                        if let Some(g) = gap {
                            s.observe(g);
                        }
                    }
                }
            }
        }

        for s in &mut selectors {
            if s.result.is_none() {
                s.conclude_pass(cap)?;
            }
        }
    }

    let selected = selectors
        .into_iter()
        .map(|s| {
            (
                s.function,
                s.stat,
                s.result.expect("loop ran to resolution"),
            )
        })
        .collect();
    Ok((selected, passes))
}

/// Reconstructs a [`FunctionSpec`] per distinct function in the request
/// table, in ascending function-id order.
///
/// Routes through [`ReplayStatsBuilder`] fed in [`ReplayStream`] order, so
/// eager and streaming inference agree by construction.
fn infer_functions(trace: &RegionTrace, calibration: &Calibration) -> Vec<FunctionSpec> {
    let requests = trace.requests.records();
    assert!(
        u32::try_from(requests.len()).is_ok(),
        "replay indexes requests with u32"
    );
    let mut order: Vec<u32> = (0..requests.len() as u32).collect();
    order.sort_by_key(|&i| {
        let r = &requests[i as usize];
        (r.timestamp_ms, r.function.raw(), i)
    });
    let mut builder = ReplayStatsBuilder::new();
    for &i in &order {
        builder.record_request(&requests[i as usize]);
    }
    for cs in trace.cold_starts.records() {
        builder.record_cold_start(cs);
    }
    builder.finish(&trace.functions, calibration)
}

/// One buffered record inside [`WindowedReplayOrder`], ordered by the replay
/// key `(timestamp, function, sequence)`.
#[derive(Debug, Clone)]
struct PendingRecord {
    key: (u64, u64, u64),
    rec: RequestRecord,
}

impl PartialEq for PendingRecord {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for PendingRecord {}
impl PartialOrd for PendingRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Re-orders a nearly-sorted request-record stream into exact
/// `(timestamp, function, record index)` order — the [`ReplayStream`] sort
/// key — using a bounded time window.
///
/// A record is held in the buffer until every record that could still sort
/// before it has been read: record `r` is emitted once the largest timestamp
/// seen exceeds `r.timestamp_ms + window_ms`. A record arriving more than
/// `window_ms` behind the largest seen timestamp is a hard
/// [`TraceStreamError::Disorder`] — silently emitting it out of order would
/// break the byte-determinism contract with the eager full-sort path.
///
/// The buffer has two parts. A record whose key is not below the last
/// record of the sorted *run* is appended to it; any other record goes to a
/// min-*heap*. The next record out is the smaller of the two fronts, so an
/// in-order record costs O(1) and only out-of-order ones pay for the heap.
///
/// # Memory contract
///
/// The run and the heap together hold only the records of the trailing
/// `window_ms` of trace time (plus ties), never the file: memory is bounded
/// by the peak arrival rate × window, independent of trace length. Sorted
/// input never errors at any window.
pub struct WindowedReplayOrder<I: Iterator<Item = Result<RequestRecord, CsvError>>> {
    source: Option<I>,
    window_ms: u64,
    run: VecDeque<PendingRecord>,
    heap: BinaryHeap<Reverse<PendingRecord>>,
    max_seen_ms: u64,
    next_seq: u64,
}

impl<I: Iterator<Item = Result<RequestRecord, CsvError>>> WindowedReplayOrder<I> {
    /// Wraps a record source with the given reorder window.
    pub fn new(source: I, window_ms: u64) -> Self {
        Self {
            source: Some(source),
            window_ms,
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            max_seen_ms: 0,
            next_seq: 0,
        }
    }

    /// Removes the smallest buffered record if no unread record can sort
    /// before it: strictly below the watermark, so equal timestamps are
    /// always buffered together and tie-break by (function, seq).
    fn pop_ready(&mut self) -> Option<RequestRecord> {
        let run_min = self.run.front().map(|p| p.key);
        let heap_min = self.heap.peek().map(|Reverse(p)| p.key);
        let from_run = match (run_min, heap_min) {
            (Some(r), Some(h)) => r < h,
            (r, _) => r.is_some(),
        };
        let (min_ts, _, _) = if from_run { run_min } else { heap_min }?;
        let ready =
            self.source.is_none() || min_ts.saturating_add(self.window_ms) < self.max_seen_ms;
        if !ready {
            return None;
        }
        if from_run {
            self.run.pop_front().map(|p| p.rec)
        } else {
            self.heap.pop().map(|Reverse(p)| p.rec)
        }
    }

    fn fail(&mut self, e: TraceStreamError) -> Option<Result<RequestRecord, TraceStreamError>> {
        self.source = None;
        self.run.clear();
        self.heap.clear();
        Some(Err(e))
    }
}

impl<I: Iterator<Item = Result<RequestRecord, CsvError>>> Iterator for WindowedReplayOrder<I> {
    type Item = Result<RequestRecord, TraceStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.pop_ready() {
                return Some(Ok(rec));
            }
            let source = self.source.as_mut()?;
            match source.next() {
                Some(Ok(rec)) => {
                    if rec.timestamp_ms.saturating_add(self.window_ms) < self.max_seen_ms {
                        return self.fail(TraceStreamError::Disorder {
                            seq: self.next_seq,
                            timestamp_ms: rec.timestamp_ms,
                            max_seen_ms: self.max_seen_ms,
                            window_ms: self.window_ms,
                        });
                    }
                    self.max_seen_ms = self.max_seen_ms.max(rec.timestamp_ms);
                    let key = (rec.timestamp_ms, rec.function.raw(), self.next_seq);
                    self.next_seq += 1;
                    let pending = PendingRecord { key, rec };
                    if self.run.back().is_none_or(|last| last.key < key) {
                        self.run.push_back(pending);
                    } else {
                        self.heap.push(Reverse(pending));
                    }
                }
                Some(Err(e)) => return self.fail(e.into()),
                None => self.source = None,
            }
        }
    }
}

/// Default reorder window for disk-backed replay: one hour of trace time.
pub const DEFAULT_REPLAY_WINDOW_MS: u64 = MILLIS_PER_HOUR;

/// A trace directory opened for streaming replay: an event-free header spec
/// (inferred in a first streaming pass) plus the ability to stream the
/// request file's events in [`ReplayStream`] order on demand.
///
/// Built by [`TraceReplayWorkload::open_csv_dir`]. The header is identical
/// to what [`TraceReplayWorkload::build_streamed`] produces from the fully
/// materialised [`RegionTrace`] of the same directory; [`stream`](Self::stream)
/// yields exactly the same event sequence as the in-memory [`ReplayStream`].
#[derive(Debug, Clone)]
pub struct StreamedTraceDir {
    header: Arc<WorkloadSpec>,
    requests_path: PathBuf,
    window_ms: u64,
    requests: u64,
    cold_starts: u64,
    functions: u64,
    request_passes: u32,
}

impl StreamedTraceDir {
    /// The event-free replay header (functions, profile, calibration).
    pub fn header(&self) -> &Arc<WorkloadSpec> {
        &self.header
    }

    /// Number of request records counted in the inference pass.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Number of cold-start records counted in the inference pass.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    /// Number of rows in the directory's function metadata table (which may
    /// differ from the inferred [`header`](Self::header) specs when the
    /// table lists functions that never appear in the request file).
    pub fn function_count(&self) -> u64 {
        self.functions
    }

    /// How many times the open read the request file: the inference pass
    /// plus the passes that selected the medians too large to collect.
    pub fn request_passes(&self) -> u32 {
        self.request_passes
    }

    /// Opens a fresh disk-backed event stream (one more pass over the
    /// request file, after those of the open). Every call
    /// replays the same deterministic sequence.
    pub fn stream(&self) -> Result<DiskReplayStream, TraceStreamError> {
        let reader = TraceReader::<_, RequestRecord>::from_path(&self.requests_path)?;
        Ok(DiskReplayStream {
            inner: WindowedReplayOrder::new(reader, self.window_ms),
            horizon_ms: self.header.duration_ms(),
            remaining: self.requests,
        })
    }
}

/// Disk-backed replay events in `(timestamp, function)` order — the
/// streaming counterpart of [`ReplayStream`], produced by
/// [`StreamedTraceDir::stream`].
///
/// The request file was fully validated (parse and ordering) by the
/// inference pass, so mid-stream errors can only mean the file changed or
/// failed underneath a running simulation; they panic rather than silently
/// truncating the replay.
pub struct DiskReplayStream {
    inner: WindowedReplayOrder<TraceReader<BufReader<File>, RequestRecord>>,
    horizon_ms: u64,
    remaining: u64,
}

impl Iterator for DiskReplayStream {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        match self.inner.next()? {
            Ok(rec) => {
                self.remaining = self.remaining.saturating_sub(1);
                Some(WorkloadEvent {
                    timestamp_ms: rec.timestamp_ms,
                    function: rec.function,
                })
            }
            Err(e) => panic!("trace file changed underneath a running replay: {e}"),
        }
    }
}

impl ArrivalStream for DiskReplayStream {
    fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    fn events_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

impl TraceReplayWorkload {
    /// Opens a trace directory (the [`RegionTrace::write_csv_dir`] layout)
    /// for streaming replay with the default one-hour reorder window.
    ///
    /// This is the larger-than-memory counterpart of
    /// [`RegionTrace::read_csv_dir`] + [`build_streamed`](Self::build_streamed):
    /// one streaming pass over the three files infers the function specs
    /// (via [`ReplayStatsBuilder`]) and validates every row, and the medians
    /// of functions with more than 1024 observations are then selected
    /// exactly in a few more passes over the request file (see
    /// [`StreamedTraceDir::request_passes`]); the returned
    /// [`StreamedTraceDir`] then replays events straight from disk. Only the
    /// function table is held resident.
    ///
    /// A trace whose latest timestamp puts its horizon beyond `u32::MAX`
    /// days is a [`TraceStreamError::TimestampBeyondHorizon`] (unless a
    /// [`with_calibration`](Self::with_calibration) override sets the
    /// horizon).
    pub fn open_csv_dir(
        &self,
        region: RegionId,
        dir: &Path,
    ) -> Result<StreamedTraceDir, TraceStreamError> {
        self.open_csv_dir_with_window(region, dir, DEFAULT_REPLAY_WINDOW_MS)
    }

    /// [`open_csv_dir`](Self::open_csv_dir) with an explicit reorder window:
    /// request rows may be out of timestamp order by up to `window_ms`
    /// (anything worse is a [`TraceStreamError::Disorder`]). A request file
    /// that loses rows between the passes of median selection is a
    /// [`TraceStreamError::TraceChanged`].
    pub fn open_csv_dir_with_window(
        &self,
        region: RegionId,
        dir: &Path,
        window_ms: u64,
    ) -> Result<StreamedTraceDir, TraceStreamError> {
        let paths = TraceDirPaths::new(region, dir);
        let mut functions = FunctionTable::new();
        for rec in TraceReader::<_, fntrace::FunctionMeta>::from_path(&paths.functions)? {
            functions.insert(rec?);
        }

        let mut builder = ReplayStatsBuilder::with_median_cap(MEDIAN_COLLECT_CAP);
        for rec in TraceReader::<_, ColdStartRecord>::from_path(&paths.cold_starts)? {
            builder.record_cold_start(&rec?);
        }
        let reader = TraceReader::<_, RequestRecord>::from_path(&paths.requests)?;
        for rec in WindowedReplayOrder::new(reader, window_ms) {
            builder.record_request(&rec?);
        }
        // Functions with more than `MEDIAN_COLLECT_CAP` distinct observations
        // per statistic dropped their key collections; finish those medians
        // exactly by re-streaming the file (bounded extra passes, bounded
        // memory) instead of letting resident state grow with trace length.
        let pending = builder.pending_medians();
        let mut request_passes = 1;
        if !pending.is_empty() {
            let (selected, passes) =
                select_medians(&paths.requests, window_ms, pending, MEDIAN_COLLECT_CAP)?;
            for (function, stat, key) in selected {
                builder.resolve_median(function, stat, key);
            }
            request_passes += passes;
        }

        let calibration = self.calibration_for(builder.span_ms())?;
        let profile = self.profile.clone().unwrap_or_else(|| {
            let base =
                RegionProfile::paper_region(region.index()).unwrap_or_else(RegionProfile::r2);
            RegionProfile { region, ..base }
        });
        let requests = builder.request_count();
        let cold_starts = builder.cold_start_count();
        let function_rows = functions.len() as u64;
        let specs = builder.finish(&functions, &calibration);

        let header = Arc::new(WorkloadSpec {
            region,
            profile,
            calibration,
            functions: specs,
            events: Vec::new(),
            source: WorkloadSource::Replay,
        });
        Ok(StreamedTraceDir {
            header,
            requests_path: paths.requests,
            window_ms,
            requests,
            cold_starts,
            functions: function_rows,
            request_passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::synth::{SynthShape, SynthTraceSpec};
    use fntrace::{RegionId, RequestId, RequestRecord, Runtime, UserId};

    fn synth_trace(seed: u64) -> RegionTrace {
        SynthTraceSpec {
            region: RegionId::new(4),
            shape: SynthShape::Diurnal,
            functions: 10,
            duration_days: 1,
            mean_requests_per_day: 150.0,
            keep_alive_secs: 60.0,
            seed,
        }
        .generate()
    }

    #[test]
    fn replay_preserves_every_request_as_an_event() {
        let trace = synth_trace(1);
        let workload = TraceReplayWorkload::new().build(&trace);
        assert_eq!(workload.len(), trace.requests.len());
        assert!(workload.is_replay());
        assert_eq!(workload.region, RegionId::new(4));
        for w in workload.events.windows(2) {
            assert!(w[0].timestamp_ms <= w[1].timestamp_ms);
        }
        // Every event references a reconstructed function spec.
        for e in &workload.events {
            assert!(workload.function(e.function).is_some());
        }
        // Deterministic: same trace, same workload.
        assert_eq!(workload, TraceReplayWorkload::new().build(&trace));
    }

    #[test]
    fn inferred_specs_match_the_function_table() {
        let trace = synth_trace(2);
        let workload = TraceReplayWorkload::new().build(&trace);
        for spec in &workload.functions {
            let meta = trace.functions.get(spec.function).expect("meta exists");
            assert_eq!(spec.runtime, meta.runtime);
            assert_eq!(spec.triggers, meta.triggers);
            assert_eq!(spec.config, meta.config);
            assert_eq!(spec.user, meta.user);
            assert!(spec.median_execution_secs > 0.0);
            assert!(spec.base_requests_per_day > 0.0);
            assert!(spec.concurrency >= 1);
            if spec.primary_trigger() == TriggerType::Timer {
                assert!(spec.timer_period_secs >= 1.0);
            } else {
                assert_eq!(spec.timer_period_secs, 0.0);
            }
        }
    }

    #[test]
    fn dependency_layers_are_read_from_cold_start_components() {
        let trace = synth_trace(3);
        let workload = TraceReplayWorkload::new().build(&trace);
        for spec in &workload.functions {
            let expected = trace
                .cold_starts
                .records()
                .iter()
                .any(|cs| cs.function == spec.function && cs.deploy_dep_us > 0);
            assert_eq!(spec.has_dependencies, expected, "{}", spec.function);
        }
    }

    #[test]
    fn calibration_spans_the_trace_and_can_be_overridden() {
        let trace = synth_trace(4);
        let inferred = TraceReplayWorkload::new().build(&trace);
        let (_, hi) = trace.time_span_ms().unwrap();
        assert!(inferred.duration_ms() > hi);

        let fixed = Calibration {
            duration_days: 9,
            ..Calibration::default()
        };
        let overridden = TraceReplayWorkload::new()
            .with_calibration(fixed)
            .with_profile(RegionProfile::r1())
            .build(&trace);
        assert_eq!(overridden.calibration.duration_days, 9);
        assert_eq!(
            overridden.profile.component_base,
            RegionProfile::r1().component_base
        );
    }

    #[test]
    fn concurrency_is_inferred_from_overlapping_pod_requests() {
        let mut trace = RegionTrace::new(RegionId::new(1));
        // Two overlapping requests on the same pod, one disjoint.
        for (i, (ts, exec_ms)) in [(0u64, 10_000u64), (5_000, 10_000), (60_000, 100)]
            .into_iter()
            .enumerate()
        {
            trace.requests.push(RequestRecord {
                timestamp_ms: ts,
                pod: PodId::new(1),
                cluster: 0,
                function: FunctionId::new(1),
                user: UserId::new(1),
                request: RequestId::new(i as u64),
                execution_time_us: exec_ms * 1000,
                cpu_usage_millicores: 50.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        let workload = TraceReplayWorkload::new().build(&trace);
        assert_eq!(workload.functions.len(), 1);
        assert_eq!(workload.functions[0].concurrency, 2);
        // Back-to-back requests never overlap.
        let mut seq = RegionTrace::new(RegionId::new(1));
        for (i, ts) in [0u64, 1000, 2000].into_iter().enumerate() {
            seq.requests.push(RequestRecord {
                timestamp_ms: ts,
                pod: PodId::new(1),
                cluster: 0,
                function: FunctionId::new(1),
                user: UserId::new(1),
                request: RequestId::new(i as u64),
                execution_time_us: 1_000_000,
                cpu_usage_millicores: 50.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        let workload = TraceReplayWorkload::new().build(&seq);
        assert_eq!(workload.functions[0].concurrency, 1);
    }

    #[test]
    fn functions_missing_from_the_metadata_table_get_defaults() {
        let mut trace = RegionTrace::new(RegionId::new(2));
        trace.requests.push(RequestRecord {
            timestamp_ms: 500,
            pod: PodId::new(9),
            cluster: 1,
            function: FunctionId::new(77),
            user: UserId::new(5),
            request: RequestId::new(1),
            execution_time_us: 20_000,
            cpu_usage_millicores: 80.0,
            memory_usage_bytes: 4 << 20,
        });
        let workload = TraceReplayWorkload::new().build(&trace);
        let spec = &workload.functions[0];
        assert_eq!(spec.runtime, Runtime::Unknown);
        assert_eq!(spec.triggers, vec![TriggerType::Unknown]);
        assert_eq!(spec.function, FunctionId::new(77));
    }

    #[test]
    fn streamed_dir_matches_eager_build_exactly() {
        let dir = std::env::temp_dir().join("faas_workload_streamdir_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(7);
        trace.write_csv_dir(&dir).unwrap();

        let eager_trace = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
        let (eager_header, eager_stream) = TraceReplayWorkload::new().build_streamed(&eager_trace);
        let eager_events: Vec<WorkloadEvent> = eager_stream.collect();

        let streamed = TraceReplayWorkload::new()
            .open_csv_dir(trace.region, &dir)
            .unwrap();
        assert_eq!(**streamed.header(), eager_header);
        assert_eq!(streamed.request_count(), trace.requests.len() as u64);
        assert_eq!(streamed.cold_start_count(), trace.cold_starts.len() as u64);
        // 150 requests per day never outgrow the collection cap: no
        // selection pass.
        assert_eq!(streamed.request_passes(), 1);

        let disk = streamed.stream().unwrap();
        assert_eq!(disk.horizon_ms(), eager_header.duration_ms());
        assert_eq!(disk.events_hint(), Some(eager_events.len() as u64));
        let disk_events: Vec<WorkloadEvent> = disk.collect();
        assert_eq!(disk_events, eager_events);

        // Repeated streams replay the same sequence.
        let again: Vec<WorkloadEvent> = streamed.stream().unwrap().collect();
        assert_eq!(again, disk_events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capped_medians_resolved_by_selection_match_the_eager_build() {
        let dir = std::env::temp_dir().join("faas_workload_median_cap_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(11);
        trace.write_csv_dir(&dir).unwrap();
        let paths = TraceDirPaths::new(trace.region, &dir);

        let calibration = Calibration {
            duration_days: 2,
            ..Calibration::default()
        };
        let eager = infer_functions(&trace, &calibration);

        // A cap this small forces every function's medians through the
        // out-of-core selection passes.
        let cap = 4;
        let mut builder = ReplayStatsBuilder::with_median_cap(cap);
        for cs in trace.cold_starts.records() {
            builder.record_cold_start(cs);
        }
        let reader = TraceReader::<_, RequestRecord>::from_path(&paths.requests).unwrap();
        for rec in WindowedReplayOrder::new(reader, DEFAULT_REPLAY_WINDOW_MS) {
            builder.record_request(&rec.unwrap());
        }
        let pending = builder.pending_medians();
        assert!(!pending.is_empty(), "the tiny cap must overflow");
        let (selected, _) =
            select_medians(&paths.requests, DEFAULT_REPLAY_WINDOW_MS, pending, cap).unwrap();
        for (function, stat, key) in selected {
            builder.resolve_median(function, stat, key);
        }
        let streamed = builder.finish(&trace.functions, &calibration);
        assert_eq!(streamed, eager);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn median_rank_beyond_the_file_is_an_error() {
        let dir = std::env::temp_dir().join("faas_workload_median_rank_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = synth_trace(12);
        trace.write_csv_dir(&dir).unwrap();
        let paths = TraceDirPaths::new(trace.region, &dir);
        let function = trace.requests.records()[0].function;

        // A rank past every key the file holds: the first (narrowing) pass
        // cannot place it.
        let pending = vec![PendingMedian {
            function,
            stat: ReplayStat::ExecUs,
            rank: trace.requests.len() as u64,
            lo: 0,
            hi: u64::MAX,
        }];
        let err =
            select_medians(&paths.requests, DEFAULT_REPLAY_WINDOW_MS, pending, 4).unwrap_err();
        assert!(
            matches!(
                err,
                TraceStreamError::TraceChanged { function: f, stat: ReplayStat::ExecUs }
                    if f == function
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();

        // The final (collecting) pass fails the same way when fewer keys
        // came back than the narrowing passes counted.
        let mut selector = Selector {
            function,
            stat: ReplayStat::GapMs,
            rank: 2,
            prefix: 0,
            bits: 56,
            mode: SelectorMode::Collect(vec![5, 9]),
            result: None,
        };
        assert!(matches!(
            selector.conclude_pass(4),
            Err(TraceStreamError::TraceChanged {
                stat: ReplayStat::GapMs,
                ..
            })
        ));
    }

    #[test]
    fn large_functions_are_selected_in_at_most_three_reads() {
        let dir = std::env::temp_dir().join("faas_workload_request_passes_test");
        std::fs::remove_dir_all(&dir).ok();
        // 2000 requests per function-day: every statistic of every
        // function outgrows the default collection cap of 1024 keys.
        let trace = SynthTraceSpec {
            region: RegionId::new(2),
            shape: SynthShape::Diurnal,
            functions: 4,
            duration_days: 2,
            mean_requests_per_day: 2000.0,
            keep_alive_secs: 60.0,
            seed: 5,
        }
        .generate();
        trace.write_csv_dir(&dir).unwrap();

        let eager_trace = RegionTrace::read_csv_dir(trace.region, &dir).unwrap();
        let (eager_header, _) = TraceReplayWorkload::new().build_streamed(&eager_trace);
        let streamed = TraceReplayWorkload::new()
            .open_csv_dir(trace.region, &dir)
            .unwrap();
        assert_eq!(**streamed.header(), eager_header);
        let passes = streamed.request_passes();
        assert!(
            (2..=3).contains(&passes),
            "{passes} reads of the request file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-request trace directory whose request is at `timestamp_ms`.
    fn extreme_timestamp_trace(timestamp_ms: u64) -> RegionTrace {
        let mut trace = RegionTrace::new(RegionId::new(3));
        trace.requests.push(RequestRecord {
            timestamp_ms,
            pod: PodId::new(1),
            cluster: 0,
            function: FunctionId::new(1),
            user: UserId::new(1),
            request: RequestId::new(1),
            execution_time_us: 5_000,
            cpu_usage_millicores: 50.0,
            memory_usage_bytes: 1 << 20,
        });
        trace
    }

    #[test]
    fn timestamps_beyond_the_horizon_are_an_error() {
        for timestamp_ms in [u64::MAX, 1_000_000_000_000_000_000] {
            let dir = std::env::temp_dir().join(format!("faas_workload_extreme_{timestamp_ms}"));
            std::fs::remove_dir_all(&dir).ok();
            let trace = extreme_timestamp_trace(timestamp_ms);
            trace.write_csv_dir(&dir).unwrap();
            let err = TraceReplayWorkload::new()
                .open_csv_dir(trace.region, &dir)
                .unwrap_err();
            assert!(
                matches!(err, TraceStreamError::TimestampBeyondHorizon { timestamp_ms: t }
                    if t == timestamp_ms),
                "{err}"
            );
            assert!(err.to_string().contains(&timestamp_ms.to_string()), "{err}");
            std::fs::remove_dir_all(&dir).ok();

            let eager = std::panic::catch_unwind(|| TraceReplayWorkload::new().build(&trace));
            let message = eager.unwrap_err();
            assert_eq!(message.downcast_ref::<String>(), Some(&err.to_string()));
        }
        // The latest representable horizon still opens.
        let last_day = u64::from(u32::MAX) * MILLIS_PER_DAY - 1;
        let trace = extreme_timestamp_trace(last_day);
        let (header, _) = TraceReplayWorkload::new().build_streamed(&trace);
        assert_eq!(header.calibration.duration_days, u32::MAX);
    }

    /// Selects sorted index `rank` of `keys` the way `select_medians` does
    /// over the file, one pass over the slice per file pass. Returns the
    /// key and the number of passes.
    fn select_in_memory(keys: &[u64], rank: u64, cap: usize) -> (u64, u32) {
        let mut selector = Selector::seeded(PendingMedian {
            function: FunctionId::new(1),
            stat: ReplayStat::ExecUs,
            rank,
            lo: *keys.iter().min().unwrap(),
            hi: *keys.iter().max().unwrap(),
        });
        let mut passes = 0;
        while selector.result.is_none() {
            passes += 1;
            for &k in keys {
                selector.observe(k);
            }
            selector.conclude_pass(cap).unwrap();
        }
        (selector.result.unwrap(), passes)
    }

    /// A key multiset of one of four shapes: all equal, only `0` and
    /// `u64::MAX`, a range `2^spread_bits` wide, or the total-order keys of
    /// negative, signed-zero and positive floats.
    fn key_multiset(shape: u8, n: usize, base: u64, spread_bits: u32, seed: u64) -> Vec<u64> {
        let mut rng = faas_stats::rng::Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let r = rng.next_u64();
                match shape {
                    0 => base,
                    1 if i < 2 => [0, u64::MAX][i],
                    1 => [0, u64::MAX][(r & 1) as usize],
                    2 => base.saturating_add(r >> (64 - spread_bits.max(1))),
                    _ => f64_total_key(match r % 4 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => -((r >> 11) as f64) / 1e9,
                        _ => (r >> 11) as f64 / 1e9,
                    }),
                }
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn selection_matches_a_sort_oracle(
            shape in 0u8..4,
            n in 1usize..3000,
            base in proptest::prelude::any::<u64>(),
            spread_bits in 0u32..24,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let keys = key_multiset(shape, n, base, spread_bits, seed);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let (lo, hi) = (sorted[0], sorted[n - 1]);
            let shared = (lo ^ hi).leading_zeros().min(63);
            let bound = (64 - shared).div_ceil(NARROW_BITS);
            for rank in [0, n / 2, n - 1] {
                for cap in [1, 4, 1024] {
                    let (key, passes) = select_in_memory(&keys, rank as u64, cap);
                    proptest::prop_assert_eq!(key, sorted[rank], "shape {} rank {} cap {}", shape, rank, cap);
                    proptest::prop_assert!(
                        (1..=bound).contains(&passes),
                        "{} passes, bound {} (shape {}, cap {})", passes, bound, shape, cap
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_order_tolerates_bounded_disorder_and_rejects_worse() {
        let trace = synth_trace(8);
        let records = trace.requests.records();
        // Reverse pairs: disorder of at most one record's gap.
        let mut shuffled: Vec<RequestRecord> = records.to_vec();
        for pair in shuffled.chunks_mut(2) {
            pair.reverse();
        }
        let max_gap = shuffled
            .windows(2)
            .map(|w| w[0].timestamp_ms.saturating_sub(w[1].timestamp_ms))
            .max()
            .unwrap();

        let ordered: Vec<RequestRecord> =
            WindowedReplayOrder::new(shuffled.iter().cloned().map(Ok), max_gap + 1)
                .collect::<Result<_, _>>()
                .unwrap();
        // The windowed sort equals the eager full sort on the same multiset.
        let mut expected = shuffled.clone();
        expected.sort_by_key(|r| (r.timestamp_ms, r.function.raw()));
        let keys = |v: &[RequestRecord]| {
            v.iter()
                .map(|r| (r.timestamp_ms, r.function.raw()))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&ordered), keys(&expected));

        // Disorder beyond the window is a hard error, not a reorder.
        let span = records.last().unwrap().timestamp_ms - records[0].timestamp_ms;
        let mut reversed: Vec<RequestRecord> = records.to_vec();
        reversed.reverse();
        let err = WindowedReplayOrder::new(reversed.into_iter().map(Ok), span / 4)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, TraceStreamError::Disorder { .. }));
    }

    #[test]
    fn streaming_stats_builder_matches_eager_inference() {
        let trace = synth_trace(9);
        let calibration = Calibration {
            duration_days: 2,
            ..Calibration::default()
        };
        let eager = infer_functions(&trace, &calibration);

        // Feed the builder through the windowed reorderer, as the disk path
        // does, rather than pre-sorting.
        let mut builder = ReplayStatsBuilder::new();
        let feed = trace.requests.records().iter().cloned().map(Ok);
        for rec in WindowedReplayOrder::new(feed, DEFAULT_REPLAY_WINDOW_MS) {
            builder.record_request(&rec.unwrap());
        }
        for cs in trace.cold_starts.records() {
            builder.record_cold_start(cs);
        }
        assert_eq!(builder.span_ms(), trace.time_span_ms());
        let streamed = builder.finish(&trace.functions, &calibration);
        assert_eq!(streamed, eager);
    }

    #[test]
    fn build_dataset_lowers_every_region() {
        let ds = fntrace::synth::dataset(&[
            SynthTraceSpec {
                region: RegionId::new(1),
                functions: 4,
                ..SynthTraceSpec::default()
            },
            SynthTraceSpec {
                region: RegionId::new(2),
                functions: 4,
                ..SynthTraceSpec::default()
            },
        ]);
        let workloads = TraceReplayWorkload::new().build_dataset(&ds);
        assert_eq!(workloads.len(), 2);
        assert_eq!(workloads[0].region, RegionId::new(1));
        assert_eq!(workloads[1].region, RegionId::new(2));
        assert!(workloads.iter().all(|w| w.is_replay()));
    }
}
