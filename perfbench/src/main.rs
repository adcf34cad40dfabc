//! End-to-end and per-layer benchmark of the cold-start simulator.
//!
//! ```text
//! python3 perfbench/run.py --workload adaptive --seed 7 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` a run sets up several times, counts the batch's arrivals
//! by draining its input streams, then repeats the workload's batch for
//! `--seconds`, checking every operation's simulated outputs, and prints the
//! end-to-end metrics, every time in them scaled to the reference host
//! speed of [`host`] (the raw figures are printed above the result line). With `--trace 1` it then runs the traced passes and
//! prints the per-layer metrics instead; the spans go to
//! `.perfbench/spans/<workload>-seed<seed>.json`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod check;
mod host;
mod layers;
mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use check::{parse_pins, Checker, Pin};
use layers::{Layers, END_TO_END};
use measure::{cell_stats, median, timed};
use trace::{self_times, spans_json, Tracer};
use workloads::{Kind, Scale, TraceRun, Workload};

/// The seed whose outputs are pinned.
const DEFAULT_SEED: u64 = 7;

/// Fewest batches a run measures, however long they take.
const MIN_BATCHES: usize = 3;

/// Shortest set-up sample: a sample repeats the set-up until this long has
/// passed and records the time per set-up, so a set-up of a millisecond is
/// not timed against the jitter of one moment of a shared machine.
const SETUP_SAMPLE_S: f64 = 0.1;

/// Where runs write scratch files and spans, relative to the checkout root.
const OUT_DIR: &str = ".perfbench";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--pin]\n\n\
         --workload  one of {}\n\
         --seed      workload seed (default {DEFAULT_SEED}; its outputs are pinned)\n\
         --seconds   how long to repeat the batch (default 10)\n\
         --trace     1: traced run printing the per-layer metrics (default 0)\n\
         --pin       print the pins file of one batch at --seed and exit",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::Adaptive,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                kind = Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--seconds" => args.seconds = parse(&value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--pin" => args.pin = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    args.kind = kind.ok_or_else(usage)?;
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("invalid value {text:?}: {e}"))
}

/// A directory removed when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One measured batch, its times raw.
struct Batch {
    wall_s: f64,
    cpu_s: f64,
    rss_kb: Option<u64>,
    /// Arrivals of the operations that passed their checks.
    arrivals: u64,
    cell_ms: Vec<f64>,
    /// What the batch's times are multiplied by to report them at the
    /// reference host speed ([`host::scale`]).
    scale: f64,
}

/// The reference kernel's runs.
struct Reference {
    samples: Vec<f64>,
}

impl Reference {
    /// Runs the kernel once on `threads` threads and returns its seconds.
    fn sample(&mut self, threads: usize) -> f64 {
        let secs = host::reference_s(threads);
        self.samples.push(secs);
        secs
    }
}

/// Set-up samples: the time per set-up of each, raw and at the reference
/// host speed.
struct Setups {
    times: Vec<f64>,
    scaled: Vec<f64>,
}

/// Takes `n` set-up samples, each at least one set-up and
/// [`SETUP_SAMPLE_S`], with a span per sample, and the reference kernel on
/// one thread (a set-up runs on one) before the first sample and after
/// each.
fn take_setups(
    w: &mut dyn Workload,
    tracer: &Tracer,
    name: &'static str,
    reference: &mut Reference,
    n: usize,
) -> Result<Setups, String> {
    let mut setups = Setups {
        times: Vec::new(),
        scaled: Vec::new(),
    };
    let mut reference_before = reference.sample(1);
    for _ in 0..n {
        let span = tracer.open(w.setup_name(), name, None);
        let started = Instant::now();
        let mut reps = 0u32;
        let done = loop {
            if let Err(why) = w.setup() {
                break Err(why);
            }
            reps += 1;
            if started.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
                break Ok(());
            }
        };
        let secs = tracer.close(span);
        done?;
        let reference_after = reference.sample(1);
        let per_setup = secs / f64::from(reps);
        setups.times.push(per_setup);
        setups
            .scaled
            .push(per_setup * host::scale(reference_before, reference_after));
        reference_before = reference_after;
    }
    Ok(setups)
}

/// Repeats the batch for about `seconds`, at least [`MIN_BATCHES`] times,
/// checking every operation, with a run of the reference kernel on the
/// batch's threads before the first batch and after each. A further batch
/// starts while more than half a batch of the window is left, so a run
/// overshoots the window by at most half a batch.
fn measure_batches(
    w: &dyn Workload,
    threads: usize,
    reference: &mut Reference,
    seconds: f64,
    checker: &mut Checker,
) -> Vec<Batch> {
    let started = Instant::now();
    let mut reference_before = reference.sample(threads);
    let mut batches: Vec<Batch> = Vec::new();
    let window_left = |batches: &[Batch]| {
        let half_batch = batches.last().map_or(0.0, |b| b.wall_s / 2.0);
        started.elapsed().as_secs_f64() + half_batch < seconds
    };
    while batches.len() < MIN_BATCHES || window_left(&batches) {
        measure::reset_peak_rss();
        let cpu_before = measure::process_cpu_s();
        let (ops, wall_s) = timed(|| w.batch());
        let cpu_s = measure::process_cpu_s() - cpu_before;
        let rss_kb = measure::peak_rss_kb();
        let mut arrivals = 0;
        for op in &ops {
            if checker.check(op) {
                arrivals += op.arrivals;
            }
        }
        checker.check_coverage(&ops);
        let reference_after = reference.sample(threads);
        batches.push(Batch {
            wall_s,
            cpu_s,
            rss_kb,
            arrivals,
            cell_ms: ops.iter().map(|op| op.wall_ms).collect(),
            scale: host::scale(reference_before, reference_after),
        });
        reference_before = reference_after;
    }
    batches
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(checker: &Checker, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.failed == 0,
        checker.attempted,
        checker.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let scratch = ScratchDir(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let name = args.kind.name();
    if !args.pin {
        println!(
            "perfbench: workload={name} seed={} seconds={} trace={} threads={} \
             available_parallelism={}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.kind.threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
    }

    // Inputs (trace_replay writes its fileset here, before any timed phase).
    let mut w = workloads::make(args.kind, args.seed, Scale::Full, &scratch.0)?;
    let tracer = Arc::new(Tracer::new());
    let mut reference = Reference {
        samples: Vec::new(),
    };
    let reps = w.setup_reps();
    let setups = take_setups(w.as_mut(), &tracer, name, &mut reference, reps)?;
    w.count_arrivals()?;

    if args.pin {
        println!(
            "# {name} at seed {}: label, arrivals, requests, cold_starts, cold_us_total, \
             prewarmed_pods, mem_gb_s_wasted (regenerate with --pin)",
            args.seed
        );
        let mut checker = Checker::new(None);
        for op in w.batch() {
            checker.check(&op);
            let report = op.outcome.map_err(|why| format!("{}: {why}", op.label))?;
            println!("{}", Pin::of(op.arrivals, &report).line(&op.label));
        }
        return Ok(checker.failed == 0);
    }

    let pins = if args.seed == DEFAULT_SEED {
        Some(parse_pins(args.kind.pins())?)
    } else {
        None
    };
    let mut checker = Checker::new(pins);
    let batches = measure_batches(
        w.as_ref(),
        args.kind.threads(),
        &mut reference,
        args.seconds,
        &mut checker,
    );
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_s).collect();
    let scales: Vec<f64> = batches.iter().map(|b| b.scale).collect();
    eprintln!("perfbench: batch wall s: {walls:.4?}");
    eprintln!("perfbench: batch scale: {scales:.4?}");
    eprintln!("perfbench: reference kernel s: {:.4?}", reference.samples);
    eprintln!("perfbench: set-up s: {:.6?}", setups.times);
    let arrivals = batches.first().map_or(0, |b| b.arrivals);
    let cells_of = |scaled: bool| -> Vec<Vec<f64>> {
        batches
            .iter()
            .map(|b| {
                let k = if scaled { b.scale } else { 1.0 };
                b.cell_ms.iter().map(|ms| ms * k).collect()
            })
            .collect()
    };
    let cells = cell_stats(&cells_of(true));
    println!(
        "perfbench: batches={} operations={} failed={} error_rate={} arrivals_per_batch={arrivals} \
         cell_tail=p{:.2} of {} {}",
        batches.len(),
        checker.attempted,
        checker.failed,
        checker.failed as f64 / checker.attempted.max(1) as f64,
        cells.tail.percentile,
        cells.tail.samples,
        if cells.per_cell {
            "cells, each its median over the batches"
        } else {
            "cell times pooled over the batches"
        },
    );
    println!(
        "perfbench: host scale median {:.4} (reference kernel median {:.4} s, nominal {} s)",
        median(&scales),
        median(&reference.samples),
        host::REFERENCE_NOMINAL_S,
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut traced = TraceRun {
            tracer: Arc::clone(&tracer),
            checker: &mut checker,
            layers: Layers::new(),
            untraced_wall_s: median(&walls),
            setup_s: median(&setups.times),
        };
        w.traced(&mut traced)?;
        let mut layers = traced.layers;
        layers.set("host.reference_ms", median(&reference.samples) * 1e3);
        for (hook, histogram) in &layers.histograms {
            eprintln!("perfbench: {hook} call time (log2 buckets): {histogram}");
        }
        let spans = tracer.spans();
        eprintln!("perfbench: spans (name, count, total s, self s):");
        for (span, count, total, own) in self_times(&spans) {
            eprintln!("  {span:<10} {count:>6} {total:>12.6} {own:>12.6}");
        }
        let dir = Path::new(OUT_DIR).join("spans");
        let path = dir.join(format!("{name}-seed{}.json", args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans_json(&spans)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        );
        layers.values().collect()
    } else {
        // Raw (`k` = 1) or at the reference host speed (`k` = the batch's
        // scale), in `END_TO_END` order.
        let values = |scaled: bool| {
            let k = |b: &Batch| if scaled { b.scale } else { 1.0 };
            let batch_median =
                |f: &dyn Fn(&Batch) -> f64| median(&batches.iter().map(f).collect::<Vec<_>>());
            let stats = cell_stats(&cells_of(scaled));
            let setup = if scaled {
                &setups.scaled
            } else {
                &setups.times
            };
            [
                batch_median(&|b| b.arrivals as f64 / (b.wall_s * k(b))),
                batch_median(&|b| b.cpu_s * k(b)),
                batch_median(&|b| b.rss_kb.unwrap_or(0) as f64 / 1024.0),
                median(setup),
                stats.p50,
                stats.tail.value,
            ]
        };
        let raw = values(false);
        println!("perfbench: raw (unscaled) figures:");
        for ((metric, unit), value) in END_TO_END.iter().zip(raw) {
            println!("  {metric:<40} {value:>18.6} {unit}");
        }
        println!("perfbench: at the reference host speed:");
        END_TO_END
            .iter()
            .zip(values(true))
            .map(|((name, unit), value)| (*name, value, *unit))
            .collect()
    };
    for (metric, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("{metric} is not a finite number"));
        }
        println!("  {metric:<40} {value:>18.6} {unit}");
    }
    println!("{}", result_json(&checker, &metrics));
    Ok(checker.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if !measure::reset_peak_rss() {
        eprintln!("perfbench: /proc/self/clear_refs refused; peak_rss_mb is process-wide");
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
