//! `mnsim-perf`: the end-to-end benchmark of the MNSIM reproduction.
//!
//! ```text
//! mnsim-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! mnsim-perf run [--seed <n>] [--seconds <s>] [--repeat <r>] [--traced] [--quick]
//!                [--workload <name>]... [--out <results.json>]...
//! mnsim-perf compare [--bench <BENCHMARK.json>] <base.json> <other.json> [<more.json>...]
//! mnsim-perf setup --workload <name> --seed <n> [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name and unit, then one JSON result line; `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones. `run` runs each
//! workload in its own child process (so peak RSS and the process-global
//! observability sessions are per workload) and collects the result lines
//! into one results file per `--out`, the sets recorded interleaved;
//! `compare` judges results files against the bounds in `BENCHMARK.json`.
//! `setup` sets a workload up, prints `ready` and exits: an end-to-end run
//! times it in child processes for `setup_s`. See `README.md` for the
//! workloads and metrics.

mod layers;
mod measure;
mod results;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use results::{Results, Run, WorkloadRuns};
use workloads::{Params, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: mnsim-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
       mnsim-perf run [--seed <n>] [--seconds <s>] [--repeat <r>] [--traced] [--quick] [--workload <name>]... [--out <file>]...\n\
       mnsim-perf compare [--bench <BENCHMARK.json>] <base.json> <other.json> [<more.json>...]\n\
       mnsim-perf setup --workload <name> --seed <n> [--quick]\n\
       workloads: table2_validation fault_campaign dse_sweep serve_mixed";

/// Default measurement window of `run`, in seconds (the one
/// `BENCHMARK.json` declares).
const DEFAULT_SECONDS: f64 = 30.0;

fn usage(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// Flags shared by every form.
#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: Option<usize>,
    traced: bool,
    out: Vec<String>,
    bench: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = |name: String| {
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
        };
        match arg.as_str() {
            "--workload" => flags.workloads.push(workload(value(arg)?)?),
            "--seed" => flags.seed = Some(value(arg)?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let seconds: f64 = value(arg)?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--repeat" => flags.repeat = Some(value(arg)?.parse().map_err(|_| "bad --repeat")?),
            "--out" => flags.out.push(value(arg)?),
            "--bench" => flags.bench = Some(value(arg)?),
            "--quick" => flags.quick = true,
            "--traced" => flags.traced = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some("setup") => ("setup", &args[1..]),
        _ => ("workload", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(message) => return usage(&message),
    };
    match command {
        "run" => run_all(&flags),
        "compare" => compare(&flags),
        "setup" => setup_only(&flags),
        _ => run_one(&flags),
    }
}

/// One cold set-up, timed by the parent up to the `ready` line.
fn setup_only(flags: &Flags) -> ExitCode {
    let ([workload], Some(_)) = (flags.workloads.as_slice(), flags.seed) else {
        return usage("setup needs --workload and --seed");
    };
    let ready = || {
        println!("{}", measure::READY);
        let _ = std::io::Write::flush(&mut std::io::stdout());
    };
    match workload.setup_only(&params(flags), ready) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn params(flags: &Flags) -> Params {
    Params {
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
        quick: flags.quick,
    }
}

/// One workload in this process (the form `BENCHMARK.json` declares).
fn run_one(flags: &Flags) -> ExitCode {
    let ([workload], Some(_), Some(_), Some(trace)) = (
        flags.workloads.as_slice(),
        flags.seed,
        flags.seconds,
        flags.trace,
    ) else {
        return usage("a workload run needs --workload, --seed, --seconds and --trace");
    };
    if !flags.positional.is_empty() {
        return usage("unexpected positional arguments");
    }
    let params = params(flags);
    let outcome = if trace {
        workload.per_layer(&params)
    } else {
        workload.end_to_end(&params)
    };
    outcome.print(workload.name());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child workload process and returns its parsed result line,
/// echoing its other output.
fn child_run(workload: Workload, params: &Params, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut args = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        params.seed.to_string(),
        "--seconds".to_string(),
        params.seconds.to_string(),
        "--trace".to_string(),
        if trace { "1" } else { "0" }.to_string(),
    ];
    if params.quick {
        args.push("--quick".to_string());
    }
    let output = Command::new(exe)
        .args(&args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    for line in lines {
        println!("{line}");
    }
    Run::parse(last).map_err(|e| format!("{} result line: {e}", workload.name()))
}

/// Runs the selected workloads in child processes, one set of runs per
/// `--out` file. The end-to-end runs go in rounds, each running every
/// workload once for one set, with the sets taking turns; so drift in the
/// host's speed while the sets record reaches all of them alike. Each set
/// then gets one traced run per workload.
fn run_all(flags: &Flags) -> ExitCode {
    let params = params(flags);
    let selected = if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    };
    let empty = Results {
        seed: params.seed,
        seconds: params.seconds,
        quick: params.quick,
        threads: workloads::threads(),
        workloads: selected
            .iter()
            .map(|w| WorkloadRuns {
                name: w.name().to_string(),
                runs: Vec::new(),
                traced: Vec::new(),
            })
            .collect(),
    };
    let mut sets = vec![empty; flags.out.len().max(1)];
    let mut ok = true;
    let mut run = |workload: Workload, trace: bool| match child_run(workload, &params, trace) {
        Ok(run) => {
            ok &= run.correct;
            Some(run)
        }
        Err(e) => {
            eprintln!("{e}");
            ok = false;
            None
        }
    };
    let rounds = flags.repeat.unwrap_or(1).max(1) * sets.len();
    for round in 0..rounds {
        let set = round % sets.len();
        for (i, &workload) in selected.iter().enumerate() {
            sets[set].workloads[i].runs.extend(run(workload, false));
        }
    }
    if flags.traced {
        for set in &mut sets {
            for (entry, &workload) in set.workloads.iter_mut().zip(&selected) {
                entry.traced.extend(run(workload, true));
            }
        }
    }
    for (set, path) in sets.iter().zip(&flags.out) {
        if let Err(e) = std::fs::write(path, set.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("results written to {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(flags: &Flags) -> ExitCode {
    if flags.positional.len() < 2 {
        return usage("compare needs a base results file and at least one other");
    }
    let bench_path = flags.bench.as_deref().unwrap_or("BENCHMARK.json");
    let declared = match std::fs::read_to_string(bench_path)
        .map_err(|e| e.to_string())
        .and_then(|text| results::declared_end_to_end(&text))
    {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("cannot read {bench_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Results::parse(&text))
            .map_err(|e| format!("cannot read {path}: {e}"))
    };
    let base = match load(&flags.positional[0]) {
        Ok(base) => base,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    for path in &flags.positional[1..] {
        match load(path) {
            Ok(other) => {
                println!("{} vs {path}", flags.positional[0]);
                let (table, worse) = results::compare(&declared, &base, &other);
                print!("{table}");
                regressed |= worse;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
