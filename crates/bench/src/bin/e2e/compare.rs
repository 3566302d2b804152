//! `e2e compare A.json B.json`: one row per workload × end-to-end metric,
//! with a verdict that knows the difference between "unchanged" and "the
//! runs are too noisy to tell".

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the headline value and the runs behind it.
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// B against A. `worse` when B's value is worse than A's by more than the
/// bound, `better` when it is better by more than the bound. When either
/// side's run-to-run spread exceeds the bound the medians alone decide
/// nothing: the verdict is `unresolved` unless every run of one side beats
/// every run of the other.
pub fn verdict(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worsening = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let noisy = stats::spread(&a.samples).max(stats::spread(&b.samples)) > bound;
    if noisy {
        let extent = |s: &Side| {
            let lo = s.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (extent(a), extent(b));
        let overlap = a_lo <= b_hi && b_lo <= a_hi;
        if overlap {
            return Verdict::Unresolved;
        }
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<(Side, f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let samples = m
        .get("samples")?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((
        Side {
            value: num("value")?,
            samples,
        },
        num("q1")?,
        num("q3")?,
    ))
}

/// Print the comparison table; `Ok(true)` if any row reads `worse`.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let workloads = a.get("workloads").ok_or("first file has no `workloads`")?;
    let mut any_worse = false;
    println!(
        "{:<14} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "B/A"
    );
    for (workload, _) in workloads.as_obj() {
        for m in &END_TO_END {
            let (Some((sa, a1, a3)), Some((sb, b1, b3))) =
                (side(&a, workload, m.name), side(&b, workload, m.name))
            else {
                return Err(format!(
                    "{workload}/{} is missing from one of the files",
                    m.name
                ));
            };
            let v = verdict(m.better, m.bound, &sa, &sb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<14} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>8.3}  {}",
                workload,
                m.name,
                sa.value,
                format!("[{a1:.4}, {a3:.4}]"),
                sb.value,
                format!("[{b1:.4}, {b3:.4}]"),
                sb.value / sa.value,
                v.as_str()
            );
        }
    }
    println!("B/A is the second file's value over the first file's (base: A).");
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn steady_runs_are_judged_by_their_medians() {
        let a = side(100.0, &[99.0, 100.0, 101.0, 100.0]);
        let same = side(104.0, &[103.0, 104.0, 105.0, 104.0]);
        let worse = side(120.0, &[119.0, 120.0, 121.0, 120.0]);
        let better = side(80.0, &[79.0, 80.0, 81.0, 80.0]);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &same), Verdict::Same);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &worse), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &better), Verdict::Better);
        // The direction flips for a higher-is-better metric.
        assert_eq!(verdict(Better::Higher, 0.10, &a, &worse), Verdict::Better);
        assert_eq!(verdict(Better::Higher, 0.10, &a, &better), Verdict::Worse);
    }

    #[test]
    fn noisy_overlapping_runs_are_unresolved() {
        let a = side(100.0, &[70.0, 90.0, 100.0, 110.0, 140.0]);
        let b = side(125.0, &[95.0, 110.0, 125.0, 140.0, 160.0]);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &b), Verdict::Unresolved);
        // Equal medians do not make noisy runs "same" either.
        let c = side(100.0, &[60.0, 90.0, 100.0, 115.0, 150.0]);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &c), Verdict::Unresolved);
    }

    #[test]
    fn noisy_but_disjoint_runs_are_resolved() {
        let a = side(100.0, &[70.0, 90.0, 100.0, 110.0, 140.0]);
        let b = side(200.0, &[150.0, 180.0, 200.0, 230.0, 280.0]);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &b), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 0.10, &a, &b), Verdict::Better);
    }

    #[test]
    fn a_single_sample_has_no_spread() {
        let a = side(50.0, &[50.0]);
        let b = side(52.0, &[52.0]);
        assert_eq!(verdict(Better::Lower, 0.10, &a, &b), Verdict::Same);
    }

    #[test]
    fn compare_reads_two_documents() {
        let doc = |eps: f64| {
            let metric = |v: f64| {
                Json::obj(vec![
                    ("value", Json::Num(v)),
                    ("q1", Json::Num(v * 0.99)),
                    ("q3", Json::Num(v * 1.01)),
                    ("samples", Json::nums(&[v * 0.99, v, v * 1.01])),
                ])
            };
            let metrics = END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        metric(if m.name == "events_per_s" { eps } else { 10.0 }),
                    )
                })
                .collect();
            Json::obj(vec![(
                "workloads",
                Json::obj(vec![(
                    "w",
                    Json::obj(vec![("end_to_end", Json::obj(metrics))]),
                )]),
            )])
            .render()
        };
        assert_eq!(compare(&doc(1000.0), &doc(1010.0)), Ok(false));
        assert_eq!(compare(&doc(1000.0), &doc(600.0)), Ok(true));
        assert!(compare(&doc(1000.0), "{}").is_err());
    }
}
