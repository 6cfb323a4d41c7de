//! `repro` — regenerate every table and figure of the MNSIM paper, or
//! run MNSIM as a persistent service.
//!
//! ```text
//! repro <experiment> [--emit <kind>=<path>]...
//!   where experiment is one of:
//!   table2 table3 table4 table5 table6 table7
//!   fig5 fig6 fig7 fig8 fig9 jpeg variation faultmc all
//!   serve client
//! ```
//!
//! # Exit codes (a documented contract — see README)
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | evaluation failure (solver, I/O, internal) |
//! | 2 | configuration/usage error (bad flags, bad config values) |
//! | 3 | interrupted (cancelled or deadline hit; checkpoint written first when a policy is set) |
//! | 4 | server-protocol error (`repro client`: connect/handshake failure, malformed or unsupported request, backpressure, server shutting down) |
//!
//! # Artifact emission
//!
//! Observability artifacts are requested uniformly:
//!
//! ```text
//! repro table3 --emit metrics=m.json --emit trace=t.json --emit live=l.ndjson
//! ```
//!
//! `metrics=<path>` writes the final [`mnsim_obs::MetricsSnapshot`] JSON;
//! `trace=<path>` writes hierarchical Chrome trace-event JSON (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) and prints the
//! [`mnsim_obs::TraceSummary`] table to stderr; `live=<path>` streams
//! typed progress events ([`mnsim_obs::live`]) as flushed NDJSON so
//! `tail -f` follows a long campaign. `--progress` prints a human
//! one-liner per campaign wave. [`mnsim_obs::EmitSpec`] parses these flags
//! and writes the artifacts, as it does for the examples. An unknown flag
//! is a usage error (exit 2).
//!
//! # Fault-injection campaigns
//!
//! ```text
//! repro faultmc [--trials N] [--seed S] [--rate R] [--threads T]
//!               [--checkpoint <path>] [--deadline-ms MS]
//! ```
//!
//! With `--checkpoint` the campaign persists completed trials to `path`
//! and resumes from it on the next invocation (bit-identical to an
//! uninterrupted run). With `--deadline-ms` the campaign stops
//! cooperatively at the deadline and exits with status **3**.
//!
//! # Simulation as a service
//!
//! ```text
//! repro serve [--socket <path>] [--workers N] [--cache-mb MB]
//!             [--max-pending N] [--threads T] [--emit metrics=<path>]
//!             [--emit live=<path>]
//! repro client --socket <path> [--shutdown] [<request-json>...]
//! ```
//!
//! `serve` runs the [`mnsim_serve`] session server — a versioned
//! line-delimited JSON protocol over the unix socket (or stdio when no
//! `--socket` is given), with a cross-request artifact cache, in-flight
//! deduplication, and per-client fairness. `client` performs the
//! handshake, sends each `<request-json>` line, prints every streamed
//! event and the response to stdout, and exits per the code contract
//! above; `--shutdown` asks the server to stop afterwards.

use mnsim_bench::experiments;
use mnsim_core::checkpoint::CheckpointPolicy;
use mnsim_core::error::CoreError;
use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::report::format_report;
use mnsim_core::simulator::Simulator;
use mnsim_core::Config;
use mnsim_obs as obs;
use mnsim_obs::EmitSpec;
use mnsim_serve::client::Client;
use mnsim_serve::server::{serve, ServeOptions};
use mnsim_tech::fault::FaultRates;
use mnsim_tech::interconnect::InterconnectNode;

/// Flags of the `faultmc` experiment.
#[derive(Debug, Clone)]
struct FaultMcArgs {
    trials: usize,
    seed: u64,
    rate: f64,
    threads: usize,
    checkpoint: Option<String>,
    deadline_ms: Option<u64>,
}

impl Default for FaultMcArgs {
    fn default() -> Self {
        FaultMcArgs {
            trials: 64,
            seed: 42,
            rate: 0.02,
            threads: 0,
            checkpoint: None,
            deadline_ms: None,
        }
    }
}

/// Flags of the `serve` / `client` modes.
#[derive(Debug, Clone, Default)]
struct ServeArgs {
    socket: Option<String>,
    workers: usize,
    cache_mb: usize,
    max_pending: usize,
    shutdown: bool,
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        eprintln!("{USAGE}");
        std::process::exit(2);
    })
}

fn parse_or_usage<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {value:?}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    })
}

fn main() {
    let mut experiment = None;
    let mut positional = Vec::new();
    let mut emit = EmitSpec::default();
    let mut faultmc = FaultMcArgs::default();
    let mut serve_args = ServeArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match emit.accept(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        match arg.as_str() {
            "--trials" => {
                faultmc.trials = parse_or_usage(&flag_value(&mut args, "--trials"), "--trials");
            }
            "--seed" => {
                faultmc.seed = parse_or_usage(&flag_value(&mut args, "--seed"), "--seed");
            }
            "--rate" => {
                faultmc.rate = parse_or_usage(&flag_value(&mut args, "--rate"), "--rate");
            }
            "--threads" => {
                faultmc.threads = parse_or_usage(&flag_value(&mut args, "--threads"), "--threads");
            }
            "--checkpoint" => faultmc.checkpoint = Some(flag_value(&mut args, "--checkpoint")),
            "--deadline-ms" => {
                faultmc.deadline_ms = Some(parse_or_usage(
                    &flag_value(&mut args, "--deadline-ms"),
                    "--deadline-ms",
                ));
            }
            "--socket" => serve_args.socket = Some(flag_value(&mut args, "--socket")),
            "--workers" => {
                serve_args.workers =
                    parse_or_usage(&flag_value(&mut args, "--workers"), "--workers");
            }
            "--cache-mb" => {
                serve_args.cache_mb =
                    parse_or_usage(&flag_value(&mut args, "--cache-mb"), "--cache-mb");
            }
            "--max-pending" => {
                serve_args.max_pending =
                    parse_or_usage(&flag_value(&mut args, "--max-pending"), "--max-pending");
            }
            "--shutdown" => serve_args.shutdown = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            _ if experiment.is_none() => experiment = Some(arg),
            _ => positional.push(arg),
        }
    }
    let experiment = experiment.unwrap_or_else(|| {
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    // The service modes own their observability sessions; dispatch to
    // them before opening any here.
    match experiment.as_str() {
        "serve" => std::process::exit(run_serve(&serve_args, &faultmc, &emit)),
        "client" => std::process::exit(run_client(&serve_args, &positional)),
        _ => {}
    }
    if !positional.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let mut emitter = emit.open().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let outcome = dispatch(&experiment, &faultmc);
    // Finish the live stream before deciding the exit status so an
    // interrupted or failed run still flushes its final event.
    emitter.finish_live();
    if let Err(e) = outcome {
        let code = match e.downcast_ref::<CoreError>() {
            // Status 3: the campaign was cut short by its control plane
            // (a checkpoint was written first when a policy is set).
            Some(CoreError::Cancelled { .. } | CoreError::DeadlineExceeded { .. }) => 3,
            // Status 2: the configuration itself is invalid.
            Some(
                CoreError::Config { .. }
                | CoreError::ConfigParse { .. }
                | CoreError::InvalidConfig { .. }
                | CoreError::EmptyDesignSpace { .. },
            ) => 2,
            _ => 1,
        };
        eprintln!("error while running `{experiment}`: {e}");
        std::process::exit(code);
    }
    if let Err(e) = emitter.finish() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage: repro <table2|table3|table4|table5|table6|table7|fig5|fig6|fig7|fig8|fig9|jpeg|variation|faultmc|all> [--emit <metrics|trace|live>=<path>] [--progress]\n\
       repro faultmc [--trials N] [--seed S] [--rate R] [--threads T] [--checkpoint <path>] [--deadline-ms MS]\n\
       repro serve [--socket <path>] [--workers N] [--cache-mb MB] [--max-pending N] [--threads T] [--emit metrics=<path>] [--emit live=<path>]\n\
       repro client --socket <path> [--shutdown] [<request-json>...]\n\
       exit codes: 0 ok, 1 failure, 2 config/usage error, 3 interrupted, 4 server-protocol error";

/// `repro serve`: run the session server until shutdown.
fn run_serve(args: &ServeArgs, faultmc: &FaultMcArgs, emit: &EmitSpec) -> i32 {
    let options = ServeOptions {
        socket: args.socket.clone(),
        workers: args.workers,
        cache_bytes: args.cache_mb << 20,
        max_pending_per_client: if args.max_pending == 0 {
            ServeOptions::default().max_pending_per_client
        } else {
            args.max_pending
        },
        threads_per_job: faultmc.threads,
        metrics_path: emit.metrics.clone(),
        live_path: emit.live.clone(),
    };
    match serve(options) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// Maps one server response line onto the exit-code contract.
fn response_exit_code(response: &str) -> i32 {
    let Ok(value) = obs::parse_json(response) else {
        return 4;
    };
    if value.get("ok").and_then(|v| v.as_bool()) == Some(true) {
        return 0;
    }
    match value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
    {
        Some("config") => 2,
        Some("cancelled" | "deadline") => 3,
        _ => 4,
    }
}

/// `repro client`: handshake, send each request, print every line.
fn run_client(args: &ServeArgs, requests: &[String]) -> i32 {
    let Some(socket) = &args.socket else {
        eprintln!("client mode requires --socket <path>");
        eprintln!("{USAGE}");
        return 2;
    };
    let mut client = match Client::connect(socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("client: {e}");
            return 4;
        }
    };
    let mut code = 0;
    for request in requests {
        match client.call(request) {
            Ok(outcome) => {
                for event in &outcome.events {
                    println!("{event}");
                }
                println!("{}", outcome.response);
                let this = response_exit_code(&outcome.response);
                if code == 0 {
                    code = this;
                }
            }
            Err(e) => {
                eprintln!("client: {e}");
                return 4;
            }
        }
    }
    if args.shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("client: {e}");
            return 4;
        }
    }
    code
}

fn run_faultmc(args: &FaultMcArgs) -> Result<String, Box<dyn std::error::Error>> {
    let config = Config::fully_connected_mlp(&[128, 64])?;
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(args.rate),
        trials: args.trials,
        seed: args.seed,
        ..FaultConfig::default()
    };
    let mut session = Simulator::new(config)
        .threads(args.threads)
        .faults(fault_config);
    if let Some(path) = &args.checkpoint {
        session = session.checkpoint(CheckpointPolicy::new(path));
    }
    if let Some(millis) = args.deadline_ms {
        session = session.deadline_ms(millis);
    }
    let report = session.run()?;
    Ok(format_report(&report))
}

fn dispatch(experiment: &str, faultmc: &FaultMcArgs) -> Result<(), Box<dyn std::error::Error>> {
    match experiment {
        "table2" => print(experiments::table2::run(3, 5)?),
        "table3" => print(experiments::table3::run(&[16, 32, 64, 128, 256])?),
        "table4" => print(experiments::table4::run()?),
        "table5" => print(experiments::table5::run()?),
        "table6" => print(experiments::table6::run()?),
        "table7" => print(experiments::table7::run()?),
        "fig5" => print(experiments::fig5::run(
            &[
                InterconnectNode::N18,
                InterconnectNode::N28,
                InterconnectNode::N45,
                InterconnectNode::N90,
            ],
            &[8, 16, 32, 64, 96, 128],
        )?),
        "fig6" => print(experiments::fig6::run()),
        "fig7" => print(experiments::fig7::run()?),
        "fig8" => print(experiments::fig8::run()?),
        "fig9" => print(experiments::fig9::run()?),
        "jpeg" => print(experiments::jpeg::run()?),
        "variation" => print(experiments::variation::run(&[8, 16, 32], 0.2, 10)?),
        "faultmc" => print(run_faultmc(faultmc)?),
        "all" => {
            for exp in [
                "table2", "table3", "table4", "table5", "table6", "table7", "fig5", "fig6",
                "fig7", "fig8", "fig9", "jpeg", "variation",
            ] {
                println!("================================================================");
                dispatch(exp, faultmc)?;
            }
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn print(text: String) {
    println!("{text}");
}
