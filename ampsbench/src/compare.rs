//! `ampsbench compare <parent-runs-dir> <change-runs-dir>`: the
//! regression gate over two sets of untraced `--out` records.
//!
//! Per workload and end-to-end metric it prints each side's median and
//! quartiles, the change's wins out of the runs paired in file-name order,
//! and a verdict. A gain needs at least nine tenths of the pairs won and a
//! median gap wider than the parent's own spread; a regression is a
//! median worse by more than the metric's bound; a metric whose spread is
//! wider than its bound is unresolved unless every change run beats every
//! parent run. A workload whose share of failed operations rises, or
//! with a change run whose checks failed, is a regression as a whole.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::sut::Json;
use crate::workload::Kind;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric, with the change's wins and the pairs run.
pub fn verdict(
    better: Better,
    bound: f64,
    parent: &[f64],
    change: &[f64],
) -> (Verdict, usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.prefers(**c, **p))
        .count();
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return (Verdict::Unresolved, wins, pairs);
    };
    let iqr = |xs: &[f64], m: f64| quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1) / m.abs();
    let parent_iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    // Positive when the change is worse.
    let gap = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && -gap > parent_iqr {
        return (Verdict::Improved, wins, pairs);
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.prefers(c, p)));
    let spread = iqr(parent, pm).max(iqr(change, cm));
    let v = if all_better {
        Verdict::Unchanged
    } else if spread > bound {
        Verdict::Unresolved
    } else if gap > bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (v, wins, pairs)
}

/// One `--out` record.
#[derive(Clone)]
struct Record {
    workload: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

fn load(dir: &str) -> Result<Vec<Record>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let j = read(&p)?;
        if j.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let field = |k: &str| j.get(k).ok_or_else(|| format!("{}: no `{k}`", p.display()));
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            correct: field("correct")?.as_bool() == Some(true),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0),
            failed: field("failed")?.as_f64().unwrap_or(0.0),
            metrics: field("metrics")?.clone(),
        });
    }
    Ok(out)
}

fn read(p: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
}

pub fn main(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: ampsbench compare <parent-runs-dir> <change-runs-dir>");
        return 2;
    };
    let (parent, change) = match (load(parent_dir), load(change_dir)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut regressed = false;
    let mut compared = 0;
    for kind in Kind::ALL {
        let of = |rs: &[Record]| -> Vec<Record> {
            rs.iter()
                .filter(|r| r.workload == kind.name())
                .cloned()
                .collect()
        };
        let (p, c) = (of(&parent), of(&change));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        compared += 1;
        let failed_frac = |rs: &[Record]| {
            rs.iter().map(|r| r.failed).sum::<f64>()
                / rs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (pf, cf) = (failed_frac(&p), failed_frac(&c));
        println!(
            "{}: {} parent run(s), {} change run(s), failed {:.4} -> {:.4}",
            kind.name(),
            p.len(),
            c.len(),
            pf,
            cf
        );
        if cf > pf || c.iter().any(|r| !r.correct) {
            println!("  regressed: more failed operations or a failed check in the change");
            regressed = true;
        }
        println!(
            "  {:<20} {:>6} {:>34} {:>34} {:>6} {:>8}  verdict",
            "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "gap"
        );
        for m in END_TO_END {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(m.name).and_then(Json::as_f64))
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            let (v, wins, pairs) = verdict(m.better, m.bound, &pv, &cv);
            regressed |= v == Verdict::Regressed;
            let side = |xs: &[f64]| match (median(xs), quartiles(xs)) {
                (Some(md), Some((q1, q3))) => format!("{md:.6} [{q1:.6}, {q3:.6}]"),
                (Some(md), None) => format!("{md:.6}"),
                _ => "-".into(),
            };
            let gap = median(&cv).zip(median(&pv)).map_or("-".into(), |(c, p)| {
                format!("{:+.2}%", 100.0 * (c / p - 1.0))
            });
            println!(
                "  {:<20} {:>6} {:>34} {:>34} {:>6} {:>8}  {} ({} is better, bound {}%)",
                m.name,
                m.unit,
                side(&pv),
                side(&cv),
                format!("{wins}/{pairs}"),
                gap,
                v.label(),
                m.better.label(),
                m.bound * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("error: no workload has untraced runs on both sides");
        return 2;
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];

    fn scaled(f: f64) -> Vec<f64> {
        TEN.iter().map(|x| x * f).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let (v, wins, pairs) = verdict(Better::Lower, 0.1, &TEN, &scaled(0.8));
        assert_eq!((v, wins, pairs), (Verdict::Improved, 10, 10));
        let (v, _, _) = verdict(Better::Higher, 0.1, &TEN, &scaled(1.25));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn gap_inside_the_bound_is_unchanged() {
        let (v, _, _) = verdict(Better::Lower, 0.1, &TEN, &scaled(1.05));
        assert_eq!(v, Verdict::Unchanged);
        let (v, _, _) = verdict(Better::Lower, 0.1, &TEN, &TEN);
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn gap_past_the_bound_is_regressed() {
        let (v, wins, _) = verdict(Better::Lower, 0.1, &TEN, &scaled(1.2));
        assert_eq!((v, wins), (Verdict::Regressed, 0));
        let (v, _, _) = verdict(Better::Higher, 0.1, &TEN, &scaled(0.8));
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let (v, _, _) = verdict(Better::Lower, 0.1, &noisy, &noisy.map(|x| x * 1.3));
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let (v, _, _) = verdict(Better::Lower, 0.1, &noisy, &[4.0; 10]);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn a_win_rate_short_of_nine_tenths_claims_no_gain() {
        // Eight of ten pairs won and a large gap: not a claimed gain, and
        // within the bound it stays unchanged.
        let mut change = scaled(0.95);
        change[0] = 11.0;
        change[1] = 11.0;
        let (v, wins, _) = verdict(Better::Lower, 0.1, &TEN, &change);
        assert_eq!((v, wins), (Verdict::Unchanged, 8));
    }
}
