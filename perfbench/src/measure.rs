//! Process counters read from outside the simulator, and the summary
//! statistics the benchmark reports.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds the whole process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and clock_gettime
    // writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resets the process's VmHWM to its current RSS, so the next
/// [`peak_rss_kb`] reading is scoped to what runs in between. Returns false
/// where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (VmHWM) in kB.
pub fn peak_rss_kb() -> Option<u64> {
    status_field("VmHWM:")
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes the process has read through read-like system calls (`rchar` of
/// `/proc/self/io`), page cache hits included.
pub fn rchar() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("rchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a sample: the highest percentile that still has at least ten
/// samples above it, i.e. the eleventh-largest value, at percentile
/// `100 * (n - 10) / n`. A sample of ten or fewer has no such percentile;
/// its tail reads the median, at percentile 50, rather than a maximum that
/// would swing with every stray slow run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The percentile it sits at.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n <= 10 {
        return Tail {
            value: median(values),
            percentile: 50.0,
            samples: n,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        value: sorted[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// Median and tail of a run's cell times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    pub p50: f64,
    pub tail: Tail,
    /// Whether the figures are over each cell's median (true) or over the
    /// pooled times (false).
    pub per_cell: bool,
}

/// See [`CellStats`]; `batches` holds each batch's operation times in
/// operation order. When every batch holds the same more than ten
/// operations, each operation's median over the batches is taken first and
/// the median and tail are over those, so a cell stalled in one batch does
/// not set the figure; otherwise the run's times are pooled.
pub fn cell_stats(batches: &[Vec<f64>]) -> CellStats {
    let n = batches.first().map_or(0, Vec::len);
    if n > 10 && batches.iter().all(|b| b.len() == n) {
        let per_cell: Vec<f64> = (0..n)
            .map(|i| median(&batches.iter().map(|b| b[i]).collect::<Vec<_>>()))
            .collect();
        return CellStats {
            p50: median(&per_cell),
            tail: tail(&per_cell),
            per_cell: true,
        };
    }
    let pooled = batches.concat();
    CellStats {
        p50: median(&pooled),
        tail: tail(&pooled),
        per_cell: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        let small = tail(&[2.0, 5.0, 1.0]);
        assert_eq!(
            (small.value, small.percentile, small.samples),
            (2.0, 50.0, 3)
        );
    }

    #[test]
    fn cell_stats_take_each_cells_median_when_batches_are_large() {
        // Twenty cells; in the middle batch every cell stalls tenfold.
        let batch = |k: f64| (1..=20).map(|v| k * f64::from(v)).collect::<Vec<_>>();
        let stats = cell_stats(&[batch(1.0), batch(10.0), batch(1.0)]);
        assert_eq!(
            (
                stats.p50,
                stats.tail.value,
                stats.tail.samples,
                stats.per_cell
            ),
            (10.5, 10.0, 20, true)
        );
        let pooled = cell_stats(&[vec![1.0; 8], vec![2.0; 8]]);
        assert_eq!(
            (pooled.p50, pooled.tail.samples, pooled.per_cell),
            (1.5, 16, false)
        );
    }

    #[test]
    fn counters_are_readable() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= before);
        assert!(peak_rss_kb().is_some());
        assert!(rchar().is_some());
    }
}
