//! Outside-in tracing: coarse spans around calls into the simulator, and
//! decorators that count and time the per-call policy hooks and arrival
//! streams.
//!
//! Everything here wraps public extension points — [`PolicyFactory`],
//! [`WorkloadSource`], [`ArrivalStream`] — and forwards every method,
//! including `name()` and `is_noop()`: the engine skips building policy
//! views for no-op policies, so a decorator that hid `is_noop` would change
//! what the engine does (never what it reports, but its cost). Per-call
//! hooks are aggregated into a count, a busy total and a log2 histogram
//! rather than one span each: keep-alive alone runs millions of calls.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coldstarts::session::{LoweredWorkload, ShardedLowered, SourceKind, WorkloadSource};
use faas_platform::keepalive::FunctionHistory;
use faas_platform::policy::{
    AdmissionPolicy, FunctionView, PlatformView, PrewarmPolicy, PrewarmRequest,
};
use faas_platform::{KeepAlivePolicy, PolicyFactory};
use faas_workload::stream::ArrivalStream;
use faas_workload::{WorkloadEvent, WorkloadSpec};
use fntrace::FunctionId;

/// One coarse span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call: `setup`, `open`, `lower`, `cell`, `run`, `drain`,
    /// `session`, `fold`, `envelope`.
    pub name: &'static str,
    /// What the call was for (cell label, source label, shard count).
    pub detail: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder, shared across worker threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(
        &self,
        name: &'static str,
        detail: impl Into<String>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panic");
        spans.push(Span {
            name,
            detail: detail.into(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panic");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        detail: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.open(name, detail, parent);
        let value = f(id);
        (value, self.close(id))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
            .clone()
    }
}

/// Per span name: count, total seconds, and self seconds (duration minus
/// the part of it that child spans cover), in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                    spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                )
            })
            .collect();
        covered.sort_unstable();
        let (mut union, mut reach) = (0u64, s.start_ns);
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
        let own = total - union as f64 * 1e-9;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total;
                row.3 += own;
            }
            None => rows.push((s.name, 1, total, own)),
        }
    }
    rows
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let detail = s.detail.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"detail\": \"{detail}\", \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" },
        );
    }
    out.push_str("]\n");
    out
}

/// Count, busy time and log2 latency histogram of one per-call hook.
#[derive(Debug, Clone, Copy)]
pub struct HookStats {
    pub calls: u64,
    pub busy_ns: u64,
    /// Pods requested (pre-warm hook only).
    pub items: u64,
    /// `log2_ns[k]` counts calls that took `[2^(k-1), 2^k)` nanoseconds.
    pub log2_ns: [u64; 64],
}

impl Default for HookStats {
    fn default() -> Self {
        Self {
            calls: 0,
            busy_ns: 0,
            items: 0,
            log2_ns: [0; 64],
        }
    }
}

impl HookStats {
    fn record(&mut self, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.busy_ns += ns;
        self.log2_ns[((64 - ns.leading_zeros()) as usize).min(63)] += 1;
    }

    pub fn merge(&mut self, other: &HookStats) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.items += other.items;
        for (a, b) in self.log2_ns.iter_mut().zip(other.log2_ns.iter()) {
            *a += b;
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Histogram as `"<upper bound ns>:<count>"` pairs, non-empty buckets only.
    pub fn histogram(&self) -> String {
        let buckets: Vec<String> = self
            .log2_ns
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, n)| format!("<{}ns:{n}", 1u128 << k))
            .collect();
        buckets.join(" ")
    }
}

/// Hook statistics of every policy a factory built.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    pub keep_alive: HookStats,
    pub prewarm: HookStats,
    pub admission: HookStats,
}

impl HookTotals {
    pub fn merge(&mut self, other: &HookTotals) {
        self.keep_alive.merge(&other.keep_alive);
        self.prewarm.merge(&other.prewarm);
        self.admission.merge(&other.admission);
    }

    pub fn busy_s(&self) -> f64 {
        self.keep_alive.busy_s() + self.prewarm.busy_s() + self.admission.busy_s()
    }
}

type Sink = Arc<Mutex<HookTotals>>;

/// A [`PolicyFactory`] whose policies time every hook call. Each policy
/// keeps its own counters and adds them to the factory's totals when the
/// engine drops it, so shard threads never contend per call.
pub struct TracingFactory {
    inner: Arc<dyn PolicyFactory>,
    sink: Sink,
}

impl TracingFactory {
    pub fn new(inner: Arc<dyn PolicyFactory>) -> Self {
        Self {
            inner,
            sink: Sink::default(),
        }
    }

    /// Totals of every policy built so far that has been dropped.
    pub fn totals(&self) -> HookTotals {
        *self.sink.lock().expect("hook totals poisoned by a panic")
    }
}

impl PolicyFactory for TracingFactory {
    fn keep_alive(&self, workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(TracedKeepAlive {
            inner: self.inner.keep_alive(workload),
            stats: RefCell::default(),
            sink: Arc::clone(&self.sink),
        })
    }

    fn prewarm(&self, workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(TracedPrewarm {
            inner: self.inner.prewarm(workload),
            stats: HookStats::default(),
            sink: Arc::clone(&self.sink),
        })
    }

    fn admission(&self, workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(TracedAdmission {
            inner: self.inner.admission(workload),
            stats: HookStats::default(),
            sink: Arc::clone(&self.sink),
        })
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

struct TracedKeepAlive {
    inner: Box<dyn KeepAlivePolicy>,
    // `keep_alive_ms` takes `&self`; the engine owns the policy on one thread.
    stats: RefCell<HookStats>,
    sink: Sink,
}

impl KeepAlivePolicy for TracedKeepAlive {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        let started = Instant::now();
        let ms = self.inner.keep_alive_ms(function, history);
        self.stats.borrow_mut().record(started);
        ms
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedKeepAlive {
    fn drop(&mut self) {
        if let Ok(mut totals) = self.sink.lock() {
            totals.keep_alive.merge(&self.stats.borrow());
        }
    }
}

struct TracedPrewarm {
    inner: Box<dyn PrewarmPolicy>,
    stats: HookStats,
    sink: Sink,
}

impl PrewarmPolicy for TracedPrewarm {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        let started = Instant::now();
        let requests = self.inner.prewarm(view);
        self.stats.record(started);
        self.stats.items += requests.iter().map(|r| u64::from(r.count)).sum::<u64>();
        requests
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

impl Drop for TracedPrewarm {
    fn drop(&mut self) {
        if let Ok(mut totals) = self.sink.lock() {
            totals.prewarm.merge(&self.stats);
        }
    }
}

struct TracedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    stats: HookStats,
    sink: Sink,
}

impl AdmissionPolicy for TracedAdmission {
    fn delay_ms(&mut self, view: &FunctionView, now_ms: u64) -> u64 {
        let started = Instant::now();
        let delay = self.inner.delay_ms(view, now_ms);
        self.stats.record(started);
        delay
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

impl Drop for TracedAdmission {
    fn drop(&mut self) {
        if let Ok(mut totals) = self.sink.lock() {
            totals.admission.merge(&self.stats);
        }
    }
}

/// An [`ArrivalStream`] that counts the events pulled through it and adds
/// the count to a shared counter when dropped (the engine consumes streams
/// by value). Counts only; no clock.
pub struct CountingStream<S> {
    inner: S,
    seen: u64,
    sink: Arc<AtomicU64>,
}

impl<S> CountingStream<S> {
    pub fn new(inner: S, sink: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            seen: 0,
            sink,
        }
    }
}

impl<S: ArrivalStream> Iterator for CountingStream<S> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let event = self.inner.next();
        self.seen += u64::from(event.is_some());
        event
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: ArrivalStream> ArrivalStream for CountingStream<S> {
    fn horizon_ms(&self) -> u64 {
        self.inner.horizon_ms()
    }

    fn events_hint(&self) -> Option<u64> {
        self.inner.events_hint()
    }
}

impl<S> Drop for CountingStream<S> {
    fn drop(&mut self) {
        // A statistic: publishes no other data.
        self.sink.fetch_add(self.seen, Ordering::Relaxed);
    }
}

/// A [`WorkloadSource`] that records a `lower` span per call, sums the time
/// spent lowering, and counts the arrivals its streams yield.
pub struct TracingSource {
    inner: Arc<dyn WorkloadSource>,
    tracer: Arc<Tracer>,
    parent: Option<usize>,
    lower_ns: AtomicU64,
    arrivals: Arc<AtomicU64>,
}

impl TracingSource {
    pub fn new(inner: Arc<dyn WorkloadSource>, tracer: Arc<Tracer>, parent: Option<usize>) -> Self {
        Self {
            inner,
            tracer,
            parent,
            lower_ns: AtomicU64::new(0),
            arrivals: Arc::default(),
        }
    }

    /// Seconds spent inside the wrapped source's `lower`/`lower_sharded`.
    pub fn lower_s(&self) -> f64 {
        self.lower_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Arrivals yielded by every stream this source lowered (once dropped).
    pub fn arrivals(&self) -> u64 {
        self.arrivals.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.open("lower", self.inner.label(), self.parent);
        let started = Instant::now();
        let value = f();
        self.lower_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tracer.close(span);
        value
    }

    fn counted(&self, stream: Box<dyn ArrivalStream + Send>) -> Box<dyn ArrivalStream + Send> {
        Box::new(CountingStream::new(stream, Arc::clone(&self.arrivals)))
    }
}

impl WorkloadSource for TracingSource {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn workload(&self, seed: u64) -> Arc<WorkloadSpec> {
        self.inner.workload(seed)
    }

    fn lower(&self, seed: u64) -> LoweredWorkload {
        let lowered = self.timed(|| self.inner.lower(seed));
        LoweredWorkload::from_stream(lowered.header, self.counted(lowered.stream))
    }

    fn lower_sharded(&self, seed: u64, shards: u32) -> ShardedLowered {
        let lowered = self.timed(|| self.inner.lower_sharded(seed, shards));
        ShardedLowered {
            header: lowered.header,
            plan: lowered.plan,
            streams: lowered
                .streams
                .into_iter()
                .map(|s| self.counted(s))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            detail: String::new(),
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("session", None, 0, 100),
            span("lower", Some(0), 10, 40),
            span("lower", Some(0), 30, 50),
            span("lower", Some(0), 90, 120),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[0].0, "session");
        assert!((rows[0].3 - 50e-9).abs() < 1e-15);
        assert_eq!(rows[1].1, 3);
    }

    #[test]
    fn decorators_forward_names_and_noop_flags() {
        use coldstarts::evaluation::Scenario;
        use coldstarts::session::PolicyConfig;
        use faas_platform::PlatformConfig;
        use faas_workload::population::PopulationConfig;
        use faas_workload::profile::{Calibration, RegionProfile};
        use faas_workload::stream::StreamedWorkload;

        let w = StreamedWorkload::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: 1,
                ..Calibration::default()
            },
            &PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 2_000.0,
                min_functions: 5,
            },
            1,
        );
        let header = w.header();
        for scenario in Scenario::ALL {
            let inner = PolicyConfig::scenario(scenario).factory(&PlatformConfig::default());
            let traced = TracingFactory::new(Arc::clone(&inner));
            assert_eq!(traced.label(), inner.label());
            let (a, b) = (inner.keep_alive(header), traced.keep_alive(header));
            assert_eq!(a.name(), b.name());
            let (a, b) = (inner.prewarm(header), traced.prewarm(header));
            assert_eq!((a.name(), a.is_noop()), (b.name(), b.is_noop()));
            let (a, b) = (inner.admission(header), traced.admission(header));
            assert_eq!((a.name(), a.is_noop()), (b.name(), b.is_noop()));
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut stats = HookStats::default();
        stats.log2_ns[3] = 2;
        stats.calls = 2;
        assert_eq!(stats.histogram(), "<8ns:2");
    }
}
