//! Property-based tests for `faas_workload::replay::WindowedReplayOrder`:
//! on any record stream whose disorder stays within the reorder window it
//! must yield exactly the stable sort by `(timestamp, function)` — the
//! replay order, with ties kept in file order — and any record further
//! behind than the window must end the stream with a `Disorder` error.

use faas_workload::replay::{TraceStreamError, WindowedReplayOrder};
use fntrace::{FunctionId, PodId, RequestId, RequestRecord, UserId};
use proptest::prelude::*;

fn record(index: usize, timestamp_ms: u64, function: u64) -> RequestRecord {
    RequestRecord {
        timestamp_ms,
        pod: PodId::new(index as u64 % 7),
        cluster: 0,
        function: FunctionId::new(function),
        user: UserId::new(function),
        request: RequestId::new(index as u64),
        execution_time_us: 1_000 + index as u64,
        cpu_usage_millicores: index as f64 * 0.5,
        memory_usage_bytes: 1 << 20,
    }
}

/// `n` records in file order whose disorder is at most `window_ms`: each
/// record gets a delay in `[0, window_ms]` and the file lists records by
/// timestamp plus delay, so a record read after another trails it by at
/// most the difference of their delays. A `span_ms` small against `n`
/// gives many equal `(timestamp, function)` pairs.
fn disordered(
    n: usize,
    span_ms: u64,
    functions: u64,
    window_ms: u64,
    seed: u64,
) -> Vec<RequestRecord> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut delayed: Vec<(u64, RequestRecord)> = (0..n)
        .map(|i| {
            let ts = next() % span_ms;
            let delay = next() % (window_ms + 1);
            (ts + delay, record(i, ts, next() % functions))
        })
        .collect();
    delayed.sort_by_key(|&(arrival, _)| arrival);
    delayed.into_iter().map(|(_, r)| r).collect()
}

/// The replay order: a stable sort by `(timestamp, function)`.
fn replay_sorted(records: &[RequestRecord]) -> Vec<RequestRecord> {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| (r.timestamp_ms, r.function.raw()));
    sorted
}

fn reorder(
    records: &[RequestRecord],
    window_ms: u64,
) -> Vec<Result<RequestRecord, TraceStreamError>> {
    WindowedReplayOrder::new(records.iter().copied().map(Ok), window_ms).collect()
}

proptest! {
    #[test]
    fn bounded_disorder_yields_the_stable_sort(
        n in 0usize..600,
        span_ms in 1u64..5_000,
        functions in 1u64..5,
        window_ms in 0u64..2_000,
        seed in any::<u64>(),
    ) {
        let records = disordered(n, span_ms, functions, window_ms, seed);
        let ordered: Vec<RequestRecord> = reorder(&records, window_ms)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("disorder within the window");
        prop_assert_eq!(ordered, replay_sorted(&records));
    }

    #[test]
    fn disorder_beyond_the_window_is_an_error(
        n in 0usize..400,
        span_ms in 1u64..5_000,
        functions in 1u64..5,
        window_ms in 0u64..2_000,
        seed in any::<u64>(),
        behind_ms in 1u64..1_000,
    ) {
        let mut records = disordered(n, span_ms, functions, window_ms, seed);
        // A record further behind the largest timestamp than the window.
        let max_seen_ms = span_ms + 2 * window_ms + behind_ms;
        let late_ms = max_seen_ms - window_ms - behind_ms;
        records.push(record(n, max_seen_ms, 0));
        records.push(record(n + 1, late_ms, 0));

        let results = reorder(&records, window_ms);
        // The stream ends at the error ...
        let (last, emitted) = results.split_last().expect("at least the error");
        let err = last.as_ref().expect_err("the late record is an error");
        prop_assert!(
            matches!(
                err,
                TraceStreamError::Disorder { seq, timestamp_ms, max_seen_ms: m, window_ms: w }
                    if *seq == n as u64 + 1
                        && *timestamp_ms == late_ms
                        && *m == max_seen_ms
                        && *w == window_ms
            ),
            "{}",
            err
        );
        // ... and what came before it is in replay order.
        let emitted: Vec<RequestRecord> = emitted
            .iter()
            .map(|r| *r.as_ref().expect("only the last item is an error"))
            .collect();
        let expected = replay_sorted(&records[..=n]);
        prop_assert_eq!(&emitted[..], &expected[..emitted.len()]);
    }
}
