//! The host's speed, measured with a fixed reference kernel, so that the
//! benchmark's times can be reported at one reference speed.
//!
//! The 2-vCPU machines the benchmark runs on share caches and memory with
//! other tenants, and their speed drifts by up to 1.5x over minutes. Every
//! time the benchmark takes drifts with it, so two runs minutes apart
//! differ by more than any change to the program would. A run therefore
//! times this kernel — random updates and lookups in a hash map of a
//! million entries, the memory-bound kind of work the simulator's pools and
//! per-function state do — right before and right after each batch, on as
//! many threads as the batch runs (and around each set-up sample, on one),
//! and scales the batch's times by ([`REFERENCE_NOMINAL_S`] ÷ the mean of
//! the two kernel times) ^ [`ELASTICITY`]. The kernel is the benchmark's
//! own code: no change to the program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's time on an unloaded host of the kind the baseline was
/// measured on (2-vCPU Intel Xeon VM): a time the benchmark reports equals
/// the raw time on a host where the kernel takes this long.
pub const REFERENCE_NOMINAL_S: f64 = 0.5;

/// Keys the kernel draws from, and the map's capacity.
const KEYS: u64 = 1 << 20;

/// Updates (each with one lookup) per kernel run.
const STEPS: u64 = 2_000_000;

/// Runs the kernel once on each of `threads` threads at the same time and
/// returns the mean of the threads' times: the two vCPUs are slowed
/// independently, and a session's two workers share its cells between
/// them, so its batch runs at about their mean speed. On one thread the
/// kernel runs on the calling thread, which the scheduler keeps on the
/// vCPU that just ran the batch or set-up it is paired with.
pub fn reference_s(threads: usize) -> f64 {
    let timed_kernel = |salt: u64| {
        let started = Instant::now();
        std::hint::black_box(kernel(salt));
        started.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return timed_kernel(0);
    }
    let total: f64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || timed_kernel(t as u64)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the reference kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// How far the simulator's times move with the kernel's: a batch's time
/// goes as the kernel's time to this power. Regressing log batch wall on
/// log kernel time over 51–90 batches per series gave 0.58 (adaptive),
/// 0.45 (sweep), 0.54 (trace_replay), and 0.60 and 0.74 on two long
/// single-process series: the purely memory-bound kernel slows about twice
/// as much as the simulator does, and dividing by its whole slowdown
/// over-corrected.
pub const ELASTICITY: f64 = 0.5;

/// The factor a batch's times are scaled by, given the kernel's times just
/// before and just after it: (nominal ÷ their mean) ^ [`ELASTICITY`].
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    (REFERENCE_NOMINAL_S / ((before_s + after_s) / 2.0)).powf(ELASTICITY)
}

/// Random updates and lookups in a hash map of [`KEYS`] slots, from a fixed
/// xorshift sequence and a fixed hasher, so every run does the same work.
fn kernel(salt: u64) -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default());
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ salt;
    let mut acc = 0u64;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % KEYS).or_insert(0) += step;
        if let Some(v) = map.get(&(x.rotate_left(17) % KEYS)) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc ^ map.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_scale_follows_the_mean() {
        assert_eq!(kernel(0), kernel(0));
        assert!(reference_s(2) > 0.0);
        assert_eq!(scale(REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S), 1.0);
        let quarter = REFERENCE_NOMINAL_S / 4.0;
        let expected = 4f64.powf(ELASTICITY);
        assert!((scale(quarter * 0.5, quarter * 1.5) - expected).abs() < 1e-12);
    }
}
