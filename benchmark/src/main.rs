//! `ladder`: the repo's benchmark.
//!
//! ```text
//! ladder --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! ladder --all [--seed N] [--seconds S] [--quick] [--out DIR]
//! ladder --check A/ B/
//! ```
//!
//! One process per workload. A run prints every metric by name with its
//! unit, writes `DIR/NAME.json` (`NAME.layers.json` and `NAME.spans.jsonl`
//! when traced), and ends its standard output with one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. It exits non-zero when an
//! operation failed or a validity guard did not hold.

mod app;
mod check;
mod hostspeed;
mod jsonr;
mod report;
mod run;
mod rungs;
mod stats;
mod stream;
mod sys;
mod tracer;

use report::Run;
use run::Request;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Mode {
    Workload(String),
    All,
    Check(PathBuf, PathBuf),
}

struct Args {
    mode: Mode,
    request: Request,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: ladder --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
       ladder --all [--seed N] [--seconds S] [--quick] [--out DIR]
       ladder --check A/ B/";

fn workload_names() -> Vec<&'static str> {
    stream::STREAMS
        .iter()
        .map(|s| s.name)
        .chain(app::APPS.iter().map(|a| a.name))
        .collect()
}

fn parse_args(tokens: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut mode = None;
    let mut request = Request {
        seed: 1,
        seconds: 15,
        traced: false,
        quick: false,
    };
    let mut out = None;
    let mut it = tokens.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a workload name")?)),
            "--all" => mode = Some(Mode::All),
            "--check" => {
                let a = value("two directories")?;
                mode = Some(Mode::Check(a.into(), value("two directories")?.into()));
            }
            "--seed" => {
                request.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                request.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                request.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => request.quick = true,
            "--out" => out = Some(value("a directory")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --check is required")?,
        request,
        out,
    })
}

/// `<target dir>/ladder`, next to the build that produced this binary.
fn default_out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("ladder"))
        .ok_or_else(|| "the binary has no target directory above it".into())
}

fn run_workload(name: &str, request: &Request, out_dir: &Path) -> Result<Run, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let run = if let Some(spec) = stream::STREAMS.iter().find(|s| s.name == name) {
        run::run_stream(*spec, request, out_dir)?
    } else if let Some(spec) = app::APPS.iter().find(|a| a.name == name) {
        run::run_app(*spec, request)?
    } else {
        return Err(format!(
            "unknown workload {name}; the workloads are {}",
            workload_names().join(", ")
        ));
    };
    let file = if run.traced {
        format!("{name}.layers.json")
    } else {
        format!("{name}.json")
    };
    std::fs::write(out_dir.join(&file), run.file_json())
        .map_err(|e| format!("writing {file}: {e}"))?;
    Ok(run)
}

/// Every workload, untraced then traced, each in a process of its own.
fn run_all(request: &Request, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut all_ok = true;
    for name in workload_names() {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &request.seed.to_string()])
                .args(["--seconds", &request.seconds.to_string()])
                .arg("--out")
                .arg(out_dir);
            if request.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("starting {name}: {e}"))?;
            if !status.success() {
                eprintln!("ladder: {name} (trace {trace}) failed: {status}");
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        let out_dir = match args.out {
            Some(dir) => dir,
            None => default_out_dir()?,
        };
        match args.mode {
            Mode::Workload(name) => {
                let run = run_workload(&name, &args.request, &out_dir)?;
                print!("{}", run.table());
                println!("{}", run.contract_line());
                Ok(run.correct())
            }
            Mode::All => run_all(&args.request, &out_dir),
            Mode::Check(a, b) => check::check(&a, &b),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladder: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonr::Json;
    use report::{MetricDef, END_TO_END, PER_LAYER};

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names(list: &Json) -> Vec<String> {
        list.arr()
            .iter()
            .map(|m| m.get("name").unwrap().str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let spec = benchmark_json();
        assert_eq!(names(spec.get("workloads").unwrap()), workload_names());
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).unwrap().arr();
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, def) in listed.iter().zip(catalogue) {
                let MetricDef {
                    name,
                    unit,
                    better,
                    bound,
                    ..
                } = *def;
                assert_eq!(entry.get("name").unwrap().str(), Some(name));
                assert_eq!(entry.get("unit").unwrap().str(), Some(unit), "{name}");
                assert_eq!(
                    entry.get("better").unwrap().str(),
                    Some(better.label()),
                    "{name}"
                );
                assert_eq!(entry.get("bound").and_then(Json::num), bound, "{name}");
            }
        }
    }

    #[test]
    fn a_quick_pass_of_every_workload_emits_every_listed_metric() {
        let spec = benchmark_json();
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ladder-test");
        for name in workload_names() {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let request = Request {
                    seed: 3,
                    seconds: 1,
                    traced,
                    quick: true,
                };
                let run = run_workload(name, &request, &out).unwrap();
                assert_eq!(run.failed, 0, "{name}");
                assert_eq!(run.violations, Vec::<String>::new(), "{name}");
                let line = Json::parse(&run.contract_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                assert!(line.get("attempted").unwrap().num().unwrap() >= 1.0);
                let emitted: Vec<String> = line
                    .get("metrics")
                    .unwrap()
                    .obj()
                    .unwrap()
                    .keys()
                    .cloned()
                    .collect();
                let mut listed = names(spec.get(key).unwrap());
                listed.sort();
                assert_eq!(emitted, listed, "{name} {key}");
                if traced && name.starts_with("stream_") {
                    let spans = out.join(format!("{name}.spans.jsonl"));
                    assert!(std::fs::read_to_string(spans).unwrap().lines().count() > 1);
                }
            }
        }
    }

    #[test]
    fn a_failed_operation_or_a_violated_guard_fails_the_run() {
        let mut run = Run {
            workload: "stream_nc".into(),
            seed: 1,
            seconds: 1,
            traced: false,
            nproc: 1,
            reps: 1,
            msgs_per_rep: 512,
            attempted: 512,
            failed: 0,
            violations: Vec::new(),
            values: report::Values::default(),
        };
        assert!(run.correct());
        run.failed = 1;
        assert!(!run.correct());
        assert!(run
            .contract_line()
            .starts_with("{\"correct\":false,\"attempted\":512,\"failed\":1,"));
        run.failed = 0;
        run.violations
            .push("clean wire but retransmits == 3".into());
        assert!(!run.correct());
    }

    #[test]
    fn arguments_follow_the_contract() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload stream_wc --seed 9 --seconds 4 --trace 1").unwrap();
        assert!(matches!(a.mode, Mode::Workload(ref w) if w == "stream_wc"));
        assert_eq!(
            (a.request.seed, a.request.seconds, a.request.traced),
            (9, 4, true)
        );
        assert!(args("--workload stream_wc --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--check a").is_err());
        assert!(run_workload("nope", &a.request, Path::new("target")).is_err());
    }
}
