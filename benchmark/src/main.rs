//! `scalla-benchmark`: the repository's wall-clock end-to-end ledger.
//!
//! ```text
//! scalla-benchmark                      every workload, a traced pass, the
//!                                       isolated pass; writes out/ledger-*.json
//! scalla-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                       one workload (what the driver runs);
//!                                       last stdout line is the result object
//! scalla-benchmark --quick [--workload W]
//!                                       1 repetition, a tenth of the operations
//! scalla-benchmark --layers             the isolated pass alone
//! scalla-benchmark compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for the method and the metric tables.

mod cluster;
mod compare;
mod gen;
mod json;
mod layers;
mod load;
mod metrics;
mod pin;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const DEFAULT_SEED: u64 = 20120521;
const DEFAULT_SECONDS: f64 = 10.0;
/// Measured seconds of each traced child in ledger mode: one untraced
/// and one traced repetition.
const LEDGER_TRACE_SECONDS: f64 = 4.0;
/// A ledger child that has not finished by then is killed and recorded
/// as failed; the ledger carries on with the next workload.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);
/// A single-workload run that is still going by then reports failure
/// itself rather than leave the caller waiting.
const SELF_DEADLINE: Duration = Duration::from_secs(170);
const DETAIL_PREFIX: &str = "detail: ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    layers: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        layers: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "compare" => {
                args.compare = Some((value("two ledger files")?, value("two ledger files")?))
            }
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--quick" => args.quick = true,
            "--layers" => args.layers = true,
            "--out" => args.out = Some(value("a file name")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scalla-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    if args.layers {
        pin();
        for (name, value) in layers::run() {
            println!("{name:<36} {value:>14.2}  {}", metrics::unit_of(name));
        }
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => ledger(&args),
    }
}

/// Measurements run on one CPU (see `pin`); must precede any spawn.
fn pin() {
    match pin::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("scalla-benchmark: pinned to cpu {cpu}"),
        Err(why) => eprintln!("scalla-benchmark: NOT pinned to one cpu ({why}); expect noise"),
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if compare::compare(&a, &b) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("scalla-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. Prints the table on stderr, then on
/// stdout the detail line and, last, the result object.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = workloads::find(name) else {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("scalla-benchmark: unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    pin();
    // Every wait inside a repetition has its own deadline; this one
    // covers whatever those do not.
    std::thread::spawn(|| {
        std::thread::sleep(SELF_DEADLINE);
        eprintln!("scalla-benchmark: run exceeded {SELF_DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
    };
    let report = run::run(&opts);
    run::print(&opts, &report);
    println!("{DETAIL_PREFIX}{}", report.detail().encode());
    println!("{}", report.result_line(args.traced).encode());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `scalla-benchmark <args>` as a child under a deadline and returns
/// its detail object, or why there is none.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked".to_string())?;
    let Some(status) = status else {
        return Err(format!("killed after {CHILD_DEADLINE:?}"));
    };
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or(format!("no detail line (exit {status})"))?;
    Json::parse(detail)
}

/// A workload whose child produced nothing: every operation it would
/// have attempted counts as failed.
fn unfinished(why: &str) -> Json {
    Json::obj([
        ("correct", Json::Bool(false)),
        ("attempted", Json::Num(1.0)),
        ("failed", Json::Num(1.0)),
        ("reps", Json::Num(0.0)),
        ("notes", Json::Arr(vec![why.into()])),
        ("values", Json::obj::<&str>([])),
    ])
}

/// The default command: every workload untraced, then traced, as child
/// processes under a watchdog; one ledger file; non-zero exit if any
/// workload failed validation.
fn ledger(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in &workloads::WORKLOADS {
        let mut passes = Vec::new();
        for (key, trace, seconds) in
            [("end_to_end", "0", args.seconds), ("per_layer", "1", LEDGER_TRACE_SECONDS)]
        {
            let mut argv: Vec<String> =
                ["--workload", w.name, "--seed", &args.seed.to_string(), "--trace", trace]
                    .map(String::from)
                    .into();
            argv.extend(["--seconds".to_string(), seconds.to_string()]);
            if args.quick {
                argv.push("--quick".to_string());
            }
            let detail = child(&argv).unwrap_or_else(|why| {
                eprintln!("  ! {} (--trace {trace}): {why}", w.name);
                unfinished(&why)
            });
            all_correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
            passes.push((key, detail));
        }
        rows.push((w.name, Json::obj(passes)));
    }
    let ledger = Json::obj([
        ("bench", "scalla-benchmark".into()),
        ("clock", "wall".into()),
        ("topology", "in-process cluster over loopback TCP".into()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::obj(rows)),
    ]);
    let file = args.out.clone().unwrap_or_else(|| format!("ledger-seed{}.json", args.seed));
    match run::write_out(&file, &ledger) {
        Ok(path) => eprintln!("\nwrote {} in {:.0?}", path.display(), started.elapsed()),
        Err(e) => {
            eprintln!("could not write {file}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed validation");
        ExitCode::FAILURE
    }
}
