//! Output checks: every operation's simulated outputs are checked before
//! its time counts, and every failure is counted into the error rate.
//!
//! An operation is one simulation run (adaptive) or one session
//! cell (sweep, trace_replay). It fails if it panics, returns an error, or
//! fails one of these checks:
//!
//! - the cold-start components sum exactly to `cold_us_total`;
//! - the engine executed every arrival the benchmark counted;
//! - for the default seed, the simulated numbers equal the pins in
//!   `pins/<workload>.tsv` (the numbers themselves, not envelope bytes, so a
//!   schema-only change does not fail the check), and every pinned
//!   operation ran: one a batch lost counts as a failed attempt;
//! - every repetition, and every traced run, reproduces the first report of
//!   the same operation exactly.

use std::collections::{HashMap, HashSet};

use faas_platform::SimReport;

/// One simulated operation and its outcome.
pub struct Op {
    /// Stable label: `run`, or a cell's `policy@source`.
    pub label: String,
    /// Arrivals the benchmark counted for this operation's input.
    pub arrivals: u64,
    /// Wall time of the operation, milliseconds.
    pub wall_ms: f64,
    /// The report, or why the operation failed to produce one.
    pub outcome: Result<SimReport, String>,
}

/// Pinned simulated outputs of one operation at the default seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    pub arrivals: u64,
    pub requests: u64,
    pub cold_starts: u64,
    pub cold_us_total: u64,
    pub prewarmed_pods: u64,
    pub mem_gb_s_wasted: f64,
}

impl Pin {
    pub fn of(arrivals: u64, report: &SimReport) -> Self {
        Self {
            arrivals,
            requests: report.requests,
            cold_starts: report.cold_starts,
            cold_us_total: report.cold_us_total,
            prewarmed_pods: report.prewarmed_pods,
            mem_gb_s_wasted: report.mem_gb_s_wasted,
        }
    }

    /// One TSV line; `{:?}` prints the float so it parses back exactly.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label}\t{}\t{}\t{}\t{}\t{}\t{:?}",
            self.arrivals,
            self.requests,
            self.cold_starts,
            self.cold_us_total,
            self.prewarmed_pods,
            self.mem_gb_s_wasted
        )
    }
}

/// Parses a pins file: `label arrivals requests cold_starts cold_us_total
/// prewarmed_pods mem_gb_s_wasted`, tab-separated; `#` starts a comment.
pub fn parse_pins(text: &str) -> Result<HashMap<String, Pin>, String> {
    let mut pins = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = |what: &str| format!("pins line {}: {what}: {line:?}", n + 1);
        if fields.len() != 7 {
            return Err(bad("expected 7 tab-separated fields"));
        }
        let int = |i: usize| fields[i].parse::<u64>().map_err(|e| bad(&e.to_string()));
        let pin = Pin {
            arrivals: int(1)?,
            requests: int(2)?,
            cold_starts: int(3)?,
            cold_us_total: int(4)?,
            prewarmed_pods: int(5)?,
            mem_gb_s_wasted: fields[6].parse().map_err(|e| bad(&format!("{e}")))?,
        };
        if pins.insert(fields[0].to_string(), pin).is_some() {
            return Err(bad("duplicate label"));
        }
    }
    Ok(pins)
}

/// Checks operations and counts attempts and failures.
pub struct Checker {
    pins: Option<HashMap<String, Pin>>,
    first: HashMap<String, SimReport>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// `pins` is `Some` only at the default seed.
    pub fn new(pins: Option<HashMap<String, Pin>>) -> Self {
        Self {
            pins,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one operation; a failure is counted and printed to stderr.
    pub fn check(&mut self, op: &Op) -> bool {
        self.attempted += 1;
        match self.verify(op) {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!("perfbench: FAILED {}: {why}", op.label);
                }
                false
            }
        }
    }

    /// At the default seed, counts every pinned operation that `ops` (one
    /// batch) lacks as a failed attempt, so a batch that loses cells fails
    /// rather than passing with less work. (An operation without a pin
    /// already fails [`Checker::check`].) Returns whether none was missing.
    pub fn check_coverage(&mut self, ops: &[Op]) -> bool {
        let Some(pins) = &self.pins else {
            return true;
        };
        let ran: HashSet<&str> = ops.iter().map(|op| op.label.as_str()).collect();
        let mut missing: Vec<String> = pins
            .keys()
            .filter(|label| !ran.contains(label.as_str()))
            .cloned()
            .collect();
        missing.sort();
        for label in &missing {
            self.attempted += 1;
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED {label}: pinned operation did not run");
            }
        }
        missing.is_empty()
    }

    fn verify(&mut self, op: &Op) -> Result<(), String> {
        let report = op.outcome.as_ref().map_err(Clone::clone)?;
        let components = report.cold_components.total_us();
        if components != report.cold_us_total {
            return Err(format!(
                "cold components sum to {components} us, cold_us_total is {}",
                report.cold_us_total
            ));
        }
        if report.requests != op.arrivals {
            return Err(format!(
                "{} requests executed, {} arrivals counted",
                report.requests, op.arrivals
            ));
        }
        if let Some(pins) = &self.pins {
            let pin = pins
                .get(&op.label)
                .ok_or_else(|| "no pin for this operation at the default seed".to_string())?;
            let got = Pin::of(op.arrivals, report);
            if &got != pin {
                return Err(format!("pinned {pin:?}, got {got:?}"));
            }
        }
        match self.first.get(&op.label) {
            Some(first) if first != report => {
                Err("report differs from this operation's first report".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.first.insert(op.label.clone(), report.clone());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_trip_exactly() {
        let report = SimReport {
            requests: 5,
            cold_starts: 2,
            mem_gb_s_wasted: 0.1 + 0.2,
            ..SimReport::default()
        };
        let pin = Pin::of(5, &report);
        let parsed = parse_pins(&pin.line("run")).expect("valid pins");
        assert_eq!(parsed["run"], pin);
    }

    #[test]
    fn checker_counts_failures() {
        let op = |requests, outcome_ok: bool| Op {
            label: "run".into(),
            arrivals: 3,
            wall_ms: 1.0,
            outcome: if outcome_ok {
                Ok(SimReport {
                    requests,
                    ..SimReport::default()
                })
            } else {
                Err("panicked".into())
            },
        };
        let mut checker = Checker::new(None);
        assert!(checker.check(&op(3, true)));
        assert!(!checker.check(&op(2, true)));
        assert!(!checker.check(&op(3, false)));
        assert_eq!((checker.attempted, checker.failed), (3, 2));
    }

    #[test]
    fn a_batch_missing_a_pinned_operation_fails() {
        let report = SimReport {
            requests: 4,
            ..SimReport::default()
        };
        let pins = [
            Pin::of(4, &report).line("a@x"),
            Pin::of(4, &report).line("b@x"),
        ];
        let pins = parse_pins(&pins.join("\n")).expect("valid pins");
        let op = |label: &str| Op {
            label: label.into(),
            arrivals: 4,
            wall_ms: 1.0,
            outcome: Ok(report.clone()),
        };
        let mut checker = Checker::new(Some(pins));
        let full = [op("a@x"), op("b@x")];
        assert!(full.iter().all(|o| checker.check(o)));
        assert!(checker.check_coverage(&full));
        assert_eq!((checker.attempted, checker.failed), (2, 0));

        let short = [op("a@x")];
        assert!(checker.check(&short[0]));
        assert!(!checker.check_coverage(&short));
        assert_eq!((checker.attempted, checker.failed), (4, 1));
    }
}
