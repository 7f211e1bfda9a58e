//! `ladder --check A/ B/`: is result set B no worse than result set A?
//!
//! End-to-end metrics are held to their bounds; a metric whose own
//! quartiles are wider apart than its bound cannot resolve a change of that
//! size and is reported `unresolved`, not `ok`. Counts that repeat exactly
//! for a seed are compared for equality when both sets used the same seed.

use crate::jsonr::Json;
use crate::report::{Better, END_TO_END};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// An exact count that is not the same on both sides.
    Differs,
    /// Shown for reading, not judged: per-layer timings and racy counts.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
            Verdict::Info => "-",
        }
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn of(metric: &Json) -> Option<Reading> {
        Some(Reading {
            value: metric.get("value")?.num()?,
            q1: metric.get("q1")?.num()?,
            q3: metric.get("q3")?.num()?,
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// By how much of `a` is `b` worse (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(name: &str, kind: &str, same_seed: bool, a: Reading, b: Reading) -> Verdict {
    let exact = kind == "exact" && same_seed;
    if exact && a.value != b.value {
        return Verdict::Differs;
    }
    match END_TO_END.iter().find(|d| d.name == name) {
        Some(def) => {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            if worse_by(def.better, a.value, b.value) > bound {
                Verdict::Regressed
            } else if a.spread().max(b.spread()) > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            }
        }
        None if exact => Verdict::Ok,
        None => Verdict::Info,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one line per metric and a summary; `Ok(true)` when nothing
/// regressed.
pub fn check(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut files: Vec<_> = std::fs::read_dir(a_dir)
        .map_err(|e| format!("{}: {e}", a_dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", a_dir.display()));
    }
    let mut tally = [0usize; 5];
    println!(
        "{:<28} {:<38} {:>16} {:>16} {:>9}  verdict",
        "result", "metric", "A", "B", "worse by"
    );
    for file in &files {
        let (a, b) = (load(&a_dir.join(file))?, load(&b_dir.join(file))?);
        let seed = |j: &Json| j.get("seed").and_then(Json::num);
        let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
        for side in [&a, &b] {
            let failed = side.get("ops_failed").and_then(Json::num).unwrap_or(0.0);
            if failed > 0.0 || !side.get("violations").map_or(&[][..], Json::arr).is_empty() {
                println!("{file}: a side failed its own checks ({failed} ops failed)");
                tally[Verdict::Regressed as usize] += 1;
            }
        }
        let metrics = |j: &Json| j.get("metrics").and_then(Json::obj).cloned();
        let (Some(am), Some(bm)) = (metrics(&a), metrics(&b)) else {
            return Err(format!("{file}: no metrics object"));
        };
        for (name, metric) in &am {
            let (Some(ra), Some(rb)) = (Reading::of(metric), bm.get(name).and_then(Reading::of))
            else {
                return Err(format!("{file}: {name} is missing on one side"));
            };
            let kind = metric.get("kind").and_then(Json::str).unwrap_or("timed");
            let better = match metric.get("better").and_then(Json::str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let verdict = judge(name, kind, same_seed, ra, rb);
            tally[verdict as usize] += 1;
            println!(
                "{:<28} {:<38} {:>16.4} {:>16.4} {:>8.2}%  {}",
                file.trim_end_matches(".json"),
                name,
                ra.value,
                rb.value,
                worse_by(better, ra.value, rb.value) * 100.0,
                verdict.label()
            );
        }
    }
    println!(
        "ok={} regressed={} unresolved={} differs={}",
        tally[Verdict::Ok as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Differs as usize]
    );
    Ok(tally[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, q1: f64, q3: f64) -> Reading {
        Reading { value, q1, q3 }
    }

    fn bound_of(name: &str) -> f64 {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .unwrap()
            .bound
            .unwrap()
    }

    #[test]
    fn bounds_are_directional() {
        let tight = |v: f64| r(v, v * 0.999, v * 1.001);
        let verdict = |name: &str, b: f64| judge(name, "timed", true, tight(100.0), tight(b));
        // msg_rate: higher is better.
        let bound = 100.0 * bound_of("msg_rate");
        assert_eq!(verdict("msg_rate", 100.0 - 0.8 * bound), Verdict::Ok);
        assert_eq!(verdict("msg_rate", 100.0 - 1.2 * bound), Verdict::Regressed);
        assert_eq!(verdict("msg_rate", 100.0 + 3.0 * bound), Verdict::Ok);
        // cpu_us_per_msg: lower is better.
        let bound = 100.0 * bound_of("cpu_us_per_msg");
        assert_eq!(verdict("cpu_us_per_msg", 100.0 + 0.8 * bound), Verdict::Ok);
        assert_eq!(
            verdict("cpu_us_per_msg", 100.0 + 1.2 * bound),
            Verdict::Regressed
        );
        assert_eq!(verdict("cpu_us_per_msg", 100.0 - 3.0 * bound), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let half = 100.0 * bound_of("msg_rate") * 0.6;
        let wide = r(100.0, 100.0 - half, 100.0 + half);
        assert_eq!(
            judge("msg_rate", "timed", true, wide, wide),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_must_be_equal_for_equal_seeds_only() {
        let (a, b) = (r(41.0, 41.0, 41.0), r(42.0, 42.0, 42.0));
        assert_eq!(
            judge("reliable.retransmits", "exact", true, a, b),
            Verdict::Differs
        );
        assert_eq!(
            judge("reliable.retransmits", "exact", true, a, a),
            Verdict::Ok
        );
        assert_eq!(
            judge("reliable.retransmits", "exact", false, a, b),
            Verdict::Info
        );
        assert_eq!(
            judge(
                "wire_packets_per_msg",
                "exact",
                true,
                r(1.2, 1.2, 1.2),
                r(1.2001, 1.2001, 1.2001)
            ),
            Verdict::Differs
        );
        assert_eq!(
            judge("block.path_nc_share", "racy", true, a, b),
            Verdict::Info
        );
    }
}
