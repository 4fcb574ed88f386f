//! `scalla-benchmark compare <a.json> <b.json>`: two ledgers of the same
//! benchmark, one row per workload × end-to-end metric.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    Regressed,
    /// The quartiles of one side's repetitions lie further apart than the
    /// bound, so the two medians cannot be told apart at that resolution.
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one metric's repetitions in one ledger.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// `b` against base `a`: how much worse (as a share of `a`), and whether
/// that is inside the metric's bound.
pub fn judge(metric: &EndToEnd, a: Side, b: Side) -> (f64, Status) {
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let worse = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let status = if a.spread().max(b.spread()) > metric.bound {
        Status::Unresolved
    } else if worse > metric.bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (worse, status)
}

fn side(ledger: &Json, workload: &str, metric: &str) -> Option<Side> {
    let row =
        ledger.get("workloads")?.get(workload)?.get("end_to_end")?.get("values")?.get(metric)?;
    Some(Side {
        median: row.get("median")?.as_f64()?,
        q1: row.get("q1")?.as_f64()?,
        q3: row.get("q3")?.as_f64()?,
    })
}

fn failed(ledger: &Json, workload: &str) -> f64 {
    ledger
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Prints the table; returns whether any row regressed (or any workload
/// of `b` has failures `a` did not).
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut regressed = false;
    println!(
        "{:<14} {:<14} {:>13} {:>13} {:>9} {:>7}  status",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let workloads = a.get("workloads").map(Json::entries).unwrap_or(&[]);
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) =
                (side(a, workload, metric.name), side(b, workload, metric.name))
            else {
                println!("{workload:<14} {:<14} missing on one side", metric.name);
                regressed = true;
                continue;
            };
            let (_, status) = judge(metric, sa, sb);
            regressed |= status == Status::Regressed;
            println!(
                "{workload:<14} {:<14} {:>13.3} {:>13.3} {:>9.4} {:>6.0}%  {}",
                metric.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                metric.bound * 100.0,
                status.as_str(),
            );
        }
        // The tails carry no bound (see `metrics`); shown for the reader.
        for tail in ["e2e.op_p95_us", "e2e.op_p99_us"] {
            if let (Some(sa), Some(sb)) = (side(a, workload, tail), side(b, workload, tail)) {
                println!(
                    "{workload:<14} {tail:<14} {:>13.3} {:>13.3} {:>9.4} {:>7}  unbounded",
                    sa.median,
                    sb.median,
                    sb.median / sa.median,
                    "-",
                );
            }
        }
        let (fa, fb) = (failed(a, workload), failed(b, workload));
        // Any increase in failures is a regression: the bound is zero.
        let status = if fb <= fa { Status::Ok } else { Status::Regressed };
        regressed |= status == Status::Regressed;
        println!(
            "{workload:<14} {:<14} {fa:>13} {fb:>13} {:>9} {:>6}%  {}",
            "failed",
            "",
            0,
            status.as_str()
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Side {
        Side { median: v, q1: v * 0.99, q3: v * 1.01 }
    }

    const RATE: EndToEnd =
        EndToEnd { name: "rate", unit: "1/s", better: Better::Higher, bound: 0.10 };
    const P50: EndToEnd = EndToEnd { name: "p50", unit: "us", better: Better::Lower, bound: 0.10 };

    #[test]
    fn direction_and_bound_decide_the_status() {
        let (rate, p50) = (&RATE, &P50);
        assert_eq!(judge(rate, flat(1000.0), flat(950.0)).1, Status::Ok);
        assert_eq!(judge(rate, flat(1000.0), flat(880.0)).1, Status::Regressed);
        assert_eq!(judge(rate, flat(1000.0), flat(2000.0)).1, Status::Ok);
        assert_eq!(judge(p50, flat(500.0), flat(540.0)).1, Status::Ok);
        assert_eq!(judge(p50, flat(500.0), flat(560.0)).1, Status::Regressed);
        let (worse, _) = judge(p50, flat(500.0), flat(450.0));
        assert!((worse + 0.10).abs() < 1e-12, "an improvement is negative worsening");
    }

    #[test]
    fn wide_repetition_spread_is_unresolved_not_ok() {
        let p50 = &P50;
        let noisy = Side { median: 500.0, q1: 450.0, q3: 520.0 };
        assert_eq!(judge(p50, flat(500.0), noisy).1, Status::Unresolved);
        assert_eq!(judge(p50, noisy, flat(900.0)).1, Status::Unresolved);
    }

    #[test]
    fn reads_ledger_rows() {
        let ledger = Json::parse(
            r#"{"workloads": {"warm_open": {"end_to_end": {"failed": 0, "values":
               {"op_p50_us": {"median": 560.5, "q1": 550, "q3": 570, "unit": "us"}}}}}}"#,
        )
        .unwrap();
        let s = side(&ledger, "warm_open", "op_p50_us").unwrap();
        assert_eq!((s.median, s.q1, s.q3), (560.5, 550.0, 570.0));
        assert!(side(&ledger, "warm_open", "ops_per_s").is_none());
        assert_eq!(failed(&ledger, "warm_open"), 0.0);
    }
}
