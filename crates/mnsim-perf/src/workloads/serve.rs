//! `serve_mixed`: mixed traffic against the in-process session server.
//!
//! The benchmark boots `mnsim_serve::server::serve` on a unix socket
//! (2 workers, 1 thread per job, a 4 MiB artifact cache that starts empty)
//! and drives it from two connections, each a closed loop replaying its
//! own seeded request sequence: 70 % `simulate` over 256 MLP configs,
//! 20 % `dse` over 32 small sweeps, 10 % `fault_mc` (16 trials) over 16
//! campaigns, each pool with Zipf (s = 1.1) popularity. Hits are the
//! reads; misses are the writes that fill the cache and, under the 4 MiB
//! budget, keep evicting DSE fronts. This is the `repro serve` path:
//! protocol, JSON, cache and in-flight dedup.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mnsim_core::checkpoint::fnv64;
use mnsim_core::report::report_json;
use mnsim_core::{ArtifactCache, Config, Simulator};
use mnsim_obs::trace;
use mnsim_serve::client::Client;
use mnsim_serve::protocol::parse_request;
use mnsim_serve::server::{serve, ServeOptions};

use super::{cold_setup, failed, set_op_attribution, Params};
use crate::layers::LayerValues;
use crate::measure::{self, timed, Metric, Outcome};
use crate::rng::{Rng, Zipf};
use crate::spans::Spans;
use crate::stats;

/// Client connections (closed loops).
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Artifact-cache budget of the server.
const CACHE_BYTES: usize = 4 << 20;
/// Zipf exponent of every pool's popularity.
const ZIPF_S: f64 = 1.1;
/// Share of `simulate` and `dse` requests; the rest are `fault_mc`.
const SIMULATE_SHARE: f64 = 0.7;
const DSE_SHARE: f64 = 0.2;
/// Trials of each `fault_mc` campaign.
const FAULT_TRIALS: usize = 16;
/// Requests generated per connection; a long run replays the sequence.
const SEQUENCE_LEN: usize = 20_000;
/// Requests per connection in each phase of a traced run.
const TRACED_REQUESTS: usize = 20_000;
/// How long a client keeps retrying to reach a booting server.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Directory (under the working directory) holding the server socket.
const SOCKET_DIR: &str = ".mnsim-perf";

/// Pool sizes: `(simulate, dse, fault_mc)`.
fn pool_sizes(quick: bool) -> (usize, usize, usize) {
    if quick {
        (16, 4, 2)
    } else {
        (256, 32, 16)
    }
}

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A clean behaviour-level simulation.
    Simulate,
    /// A design-space sweep.
    Dse,
    /// A fault-injection campaign.
    FaultMc,
}

/// A request as generated: its kind, its pool entry, and its wire line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Operation kind.
    pub kind: Kind,
    /// Index into the kind's pool.
    pub index: usize,
    /// The protocol line sent.
    pub line: String,
}

/// Everything the serve workload generates from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// MLP layer sizes of every `simulate` config.
    pub simulate: Vec<Vec<usize>>,
    /// One request sequence per connection.
    pub sequences: Vec<Vec<Request>>,
}

fn json_list(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

/// `count` distinct sorted picks from `choices`.
fn distinct_sorted(rng: &mut Rng, choices: &[usize], count: usize) -> Vec<usize> {
    let mut pool = choices.to_vec();
    rng.shuffle(&mut pool);
    let mut picked = pool[..count].to_vec();
    picked.sort_unstable();
    picked
}

impl Traffic {
    /// Generates the pools and both connections' sequences from `seed`.
    pub fn generate(seed: u64, quick: bool) -> Traffic {
        let mut rng = Rng::new(seed);
        let (n_sim, n_dse, n_fault) = pool_sizes(quick);

        let mut simulate: Vec<Vec<usize>> = Vec::with_capacity(n_sim);
        while simulate.len() < n_sim {
            let depth = 2 + rng.below(3);
            let dims: Vec<usize> = (0..depth)
                .map(|_| rng.pick(&[64, 128, 256, 512, 1024]))
                .collect();
            if !simulate.contains(&dims) {
                simulate.push(dims);
            }
        }
        let simulate_ops: Vec<String> = simulate
            .iter()
            .map(|dims| format!("\"op\":\"simulate\",\"mlp\":{}", json_list(dims)))
            .collect();
        // Every sweep has the same base network and the same shape — all 7
        // crossbar sizes × 4 of the 5 parallelism degrees × 5 of the 7
        // wire nodes = 140 designs, all feasible (no error bound, every
        // degree ≤ every size) — so a miss costs the same whichever sweep
        // the seed makes popular. 32 such fronts overflow the 4 MiB cache:
        // DSE misses continue all run.
        let mut dse_ops: Vec<String> = Vec::with_capacity(n_dse);
        while dse_ops.len() < n_dse {
            let op = format!(
                "\"op\":\"dse\",\"mlp\":[256,256],\"crossbar_sizes\":{},\"parallelism\":{},\
                 \"interconnects_nm\":{}",
                json_list(&[16, 32, 64, 128, 256, 512, 1024]),
                json_list(&distinct_sorted(&mut rng, &[1, 2, 4, 8, 16], 4)),
                json_list(&distinct_sorted(&mut rng, &[18, 22, 28, 36, 45, 65, 90], 5)),
            );
            if !dse_ops.contains(&op) {
                dse_ops.push(op);
            }
        }
        let fault_ops: Vec<String> = (0..n_fault)
            .map(|_| {
                format!(
                    "\"op\":\"fault_mc\",\"mlp\":[64,32],\"trials\":{FAULT_TRIALS},\"seed\":{},\
                     \"rate\":0.02",
                    rng.next_u64() >> 12
                )
            })
            .collect();

        // Popularity order of each pool, shared by both connections so
        // their hot sets overlap (hits and in-flight joins).
        let pools = [
            (Kind::Simulate, &simulate_ops),
            (Kind::Dse, &dse_ops),
            (Kind::FaultMc, &fault_ops),
        ];
        let ranked: Vec<(Kind, &Vec<String>, Vec<usize>, Zipf)> = pools
            .into_iter()
            .map(|(kind, ops)| {
                let mut order: Vec<usize> = (0..ops.len()).collect();
                rng.shuffle(&mut order);
                (kind, ops, order, Zipf::new(ops.len(), ZIPF_S))
            })
            .collect();

        let len = if quick { 200 } else { SEQUENCE_LEN };
        let sequences = (0..CONNECTIONS)
            .map(|_| {
                let mut conn = Rng::new(rng.next_u64());
                (0..len)
                    .map(|id| {
                        let u = conn.unit();
                        let pool = if u < SIMULATE_SHARE {
                            0
                        } else if u < SIMULATE_SHARE + DSE_SHARE {
                            1
                        } else {
                            2
                        };
                        let (kind, ops, order, zipf) = &ranked[pool];
                        let index = order[zipf.sample(&mut conn)];
                        Request {
                            kind: *kind,
                            index,
                            line: format!(
                                "{{\"type\":\"request\",\"id\":{},{}}}",
                                id + 1,
                                ops[index]
                            ),
                        }
                    })
                    .collect()
            })
            .collect();
        Traffic {
            simulate,
            sequences,
        }
    }
}

/// How a response was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Hit,
    Miss,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    kind: Kind,
    cache: Cache,
    seconds: f64,
}

/// The `"key":"value"` string field of a response prefix.
fn field<'a>(prefix: &'a str, key: &str) -> Option<&'a str> {
    let start = prefix.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = prefix[start..].find('"')?;
    Some(&prefix[start..start + len])
}

/// Splits a success response into `(cache, fingerprint, result bytes)`
/// without parsing the result (a DSE front can be large).
fn split_response(line: &str) -> Result<(&str, &str, &str), String> {
    let at = line
        .find(",\"result\":")
        .ok_or_else(|| format!("non-ok response: {}", &line[..line.len().min(200)]))?;
    let prefix = &line[..at];
    if !prefix.contains("\"ok\":true") {
        return Err(format!("non-ok response: {prefix}"));
    }
    let result = line[at + 10..]
        .strip_suffix('}')
        .ok_or("unterminated response")?;
    let cache = field(prefix, "cache").ok_or("response without `cache`")?;
    let fingerprint = field(prefix, "fingerprint").ok_or("response without `fingerprint`")?;
    Ok((cache, fingerprint, result))
}

/// What one connection observed.
#[derive(Debug, Default)]
struct ConnLog {
    answers: Vec<Answer>,
    failures: Vec<String>,
    attempted: u64,
    /// Result identity per fingerprint: `(hash, length)`.
    results: HashMap<String, (u64, usize)>,
    /// Fingerprint of each `simulate` pool entry answered.
    simulate_fingerprints: HashMap<usize, String>,
}

impl ConnLog {
    fn record(&mut self, request: &Request, line: &str, seconds: f64) -> Result<(), String> {
        let (cache, fingerprint, result) = split_response(line)?;
        let cache = match cache {
            "hit" | "shared" => Cache::Hit,
            "miss" => Cache::Miss,
            other => return Err(format!("unexpected cache status {other:?}")),
        };
        let identity = (fnv64(result.as_bytes()), result.len());
        match self.results.get(fingerprint) {
            Some(seen) if *seen != identity => {
                return Err(format!(
                    "result bytes of {fingerprint} differ between responses"
                ));
            }
            Some(_) => {}
            None => {
                self.results.insert(fingerprint.to_string(), identity);
            }
        }
        if request.kind == Kind::Simulate {
            self.simulate_fingerprints
                .entry(request.index)
                .or_insert_with(|| fingerprint.to_string());
        }
        self.answers.push(Answer {
            kind: request.kind,
            cache,
            seconds,
        });
        Ok(())
    }
}

/// Sends one request and waits for its response, skipping streamed
/// progress events.
fn call(client: &mut Client, line: &str) -> Result<String, String> {
    client.send_line(line)?;
    loop {
        let reply = client
            .recv_line()?
            .ok_or("server closed the connection before responding")?;
        if reply.starts_with("{\"type\":\"response\"") {
            return Ok(reply);
        }
    }
}

/// Closed loop over `sequence` (replayed from the start when exhausted)
/// until `count` requests were sent or `deadline` passed.
fn drive(
    client: &mut Client,
    sequence: &[Request],
    count: usize,
    deadline: Option<Instant>,
) -> ConnLog {
    let mut log = ConnLog::default();
    for request in sequence.iter().cycle().take(count) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        log.attempted += 1;
        let _span = trace::span("perf.serve.request", trace::Level::Run);
        let start = Instant::now();
        let outcome = call(client, &request.line);
        let seconds = start.elapsed().as_secs_f64();
        let recorded = outcome.and_then(|line| log.record(request, &line, seconds));
        if let Err(failure) = recorded {
            log.failures.push(failure);
            if !client_alive(client) {
                break;
            }
        }
    }
    log
}

fn client_alive(client: &mut Client) -> bool {
    call(client, "{\"type\":\"request\",\"id\":0,\"op\":\"ping\"}").is_ok()
}

/// A booted server and its connected clients; dropping it shuts the
/// server down and waits for it.
struct Running {
    server: Option<JoinHandle<Result<(), String>>>,
    clients: Vec<Client>,
    socket: String,
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn socket_path() -> Result<String, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("cannot create {SOCKET_DIR}: {e}"))?;
    Ok(format!(
        "{SOCKET_DIR}/serve-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn connect(socket: &str) -> Result<Client, String> {
    let start = Instant::now();
    loop {
        match Client::connect(socket) {
            Ok(client) => return Ok(client),
            Err(e) if start.elapsed() > CONNECT_TIMEOUT => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

impl Running {
    /// Boots a fresh server and connects every client (all connections
    /// race the boot, so they are accepted together).
    fn boot() -> Result<Running, String> {
        let socket = socket_path()?;
        let options = ServeOptions {
            socket: Some(socket.clone()),
            workers: WORKERS,
            cache_bytes: CACHE_BYTES,
            threads_per_job: 1,
            ..ServeOptions::default()
        };
        let mut running = Running {
            server: Some(std::thread::spawn(move || serve(options))),
            clients: Vec::new(),
            socket,
        };
        let socket = &running.socket;
        let clients: Result<Vec<Client>, String> = std::thread::scope(|scope| {
            let connecting: Vec<_> = (0..CONNECTIONS)
                .map(|_| scope.spawn(|| connect(socket)))
                .collect();
            connecting
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|_| Err("connect panicked".into()))
                })
                .collect()
        });
        running.clients = clients?;
        Ok(running)
    }

    /// The server's cache/dedup counters from the `stats` op:
    /// `(cache misses, evictions, dedup joins)`.
    fn stats(&mut self) -> Result<(f64, f64, f64), String> {
        let client = self.clients.first_mut().ok_or("no client")?;
        let line = call(client, "{\"type\":\"request\",\"id\":0,\"op\":\"stats\"}")?;
        let value = mnsim_obs::parse_json(&line).map_err(|e| format!("stats reply: {e}"))?;
        let number = |path: [&str; 3]| {
            value
                .get(path[0])
                .and_then(|v| v.get(path[1]))
                .and_then(|v| v.get(path[2]))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("stats reply has no {}", path.join(".")))
        };
        Ok((
            number(["result", "cache", "misses"])?,
            number(["result", "cache", "evictions"])?,
            number(["result", "server", "dedup_joined"])?,
        ))
    }

    /// Asks the server to shut down and waits for it (once; later calls
    /// do nothing).
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let asked = match self.clients.first_mut() {
            Some(client) => client.shutdown(),
            None => Client::connect(&self.socket).and_then(|mut client| client.shutdown()),
        };
        self.clients.clear();
        let served = server
            .join()
            .unwrap_or_else(|_| Err("server panicked".into()));
        let _ = std::fs::remove_dir(SOCKET_DIR);
        asked.and(served)
    }

    /// Runs every connection's closed loop concurrently.
    fn run(&mut self, traffic: &Traffic, count: usize, deadline: Option<Instant>) -> Vec<ConnLog> {
        std::thread::scope(|scope| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&traffic.sequences)
                .map(|(client, sequence)| {
                    scope.spawn(move || drive(client, sequence, count, deadline))
                })
                .collect();
            loops
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| ConnLog {
                        failures: vec!["client loop panicked".into()],
                        ..ConnLog::default()
                    })
                })
                .collect()
        })
    }
}

/// Merged view of all connections of one phase.
struct Phase {
    answers: Vec<Answer>,
    failures: Vec<String>,
    attempted: u64,
    wall_s: f64,
}

impl Phase {
    fn latencies(&self, keep: impl Fn(&Answer) -> bool) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| keep(a))
            .map(|a| a.seconds)
            .collect()
    }

    fn median_ms(&self, keep: impl Fn(&Answer) -> bool) -> f64 {
        let samples = self.latencies(keep);
        if samples.is_empty() {
            0.0
        } else {
            stats::median(&samples) * 1e3
        }
    }
}

/// Merges connection logs, cross-checking result identity across
/// connections and a sample of `simulate` results against local
/// evaluation.
fn merge(logs: Vec<ConnLog>, traffic: &Traffic, wall_s: f64) -> Phase {
    let mut phase = Phase {
        answers: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        wall_s,
    };
    let mut results: HashMap<String, (u64, usize)> = HashMap::new();
    let mut simulate_fingerprints: HashMap<usize, String> = HashMap::new();
    for log in logs {
        phase.answers.extend(log.answers);
        phase.failures.extend(log.failures);
        phase.attempted += log.attempted;
        for (fingerprint, identity) in log.results {
            if let Some(seen) = results.insert(fingerprint.clone(), identity) {
                if seen != identity {
                    phase.failures.push(format!(
                        "result bytes of {fingerprint} differ between connections"
                    ));
                }
            }
        }
        simulate_fingerprints.extend(log.simulate_fingerprints);
    }
    // A sample of answered simulate configs must equal a local
    // `report_json(simulate(config))`.
    let mut sample: Vec<(&usize, &String)> = simulate_fingerprints.iter().collect();
    sample.sort();
    for (&index, fingerprint) in sample.into_iter().take(8) {
        let local = Config::fully_connected_mlp(&traffic.simulate[index])
            .and_then(|config| mnsim_core::simulate(&config))
            .map(|report| format!("{{\"report\":{}}}", report_json(&report)));
        let matches = match (&local, results.get(fingerprint)) {
            (Ok(json), Some(&identity)) => identity == (fnv64(json.as_bytes()), json.len()),
            _ => false,
        };
        if !matches {
            phase.failures.push(format!(
                "simulate config {index} differs from a local report_json(simulate)"
            ));
        }
    }
    phase
}

/// Runs one phase of traffic on `running`, reads its `stats`, and shuts
/// the server down.
fn run_phase(
    traffic: &Traffic,
    mut running: Running,
    count: usize,
    seconds: Option<f64>,
) -> Result<(Phase, (f64, f64, f64)), String> {
    let start = Instant::now();
    let deadline = seconds.map(|s| start + Duration::from_secs_f64(s));
    let logs = running.run(traffic, count, deadline);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = running.stats();
    running.stop()?;
    Ok((merge(logs, traffic, wall_s), stats?))
}

/// The set-up [`super::cold_setup`] times: the traffic generated, a
/// server booted and both connections through the handshake.
pub fn setup_only(params: &Params, ready: impl FnOnce()) -> Result<(), String> {
    let _traffic = Traffic::generate(params.seed, params.quick);
    let mut running = Running::boot()?;
    ready();
    running.stop()
}

/// End-to-end run: one server, cache starting empty, both closed loops
/// for `--seconds`.
pub fn end_to_end(params: &Params) -> Outcome {
    let setup = cold_setup(super::Workload::Serve, params).and_then(|setup| {
        let traffic = Traffic::generate(params.seed, params.quick);
        Ok((setup, traffic, Running::boot()?))
    });
    let (setup, traffic, running) = match setup {
        Ok(done) => done,
        Err(failure) => return failed(failure),
    };
    let (phase, _) = match run_phase(&traffic, running, usize::MAX, Some(params.seconds)) {
        Ok(result) => result,
        Err(failure) => return failed(failure),
    };
    let latencies = phase.latencies(|_| true);
    Outcome {
        attempted: phase.attempted,
        metrics: vec![
            setup,
            Metric::median_of("op_ms", "ms", &latencies, 1e3),
            Metric::new("items_per_s", "1/s", latencies.len() as f64 / phase.wall_s),
            Metric::new("peak_rss_mb", "MB", measure::peak_rss_mb()),
        ],
        failures: phase.failures,
    }
}

/// Traced run: the same fixed request count twice on fresh servers,
/// untraced then traced, plus in-process probes of the layers a request
/// crosses.
pub fn per_layer(params: &Params) -> Outcome {
    let traffic = Traffic::generate(params.seed, params.quick);
    let count = if params.quick { 40 } else { TRACED_REQUESTS };
    let untraced = Running::boot().and_then(|running| run_phase(&traffic, running, count, None));
    let (untraced, (stats_misses, evictions, joined)) = match untraced {
        Ok(result) => result,
        Err(failure) => return failed(failure),
    };
    let trace_session = trace::session();
    let traced = Running::boot().and_then(|running| run_phase(&traffic, running, count, None));
    let spans = Spans::from_trace(&trace_session.finish());
    let (traced, _) = match traced {
        Ok(result) => result,
        Err(failure) => return failed(failure),
    };

    let mut values = LayerValues::default();
    let is_hit = |a: &Answer| a.cache == Cache::Hit;
    let is_miss = |a: &Answer| a.cache == Cache::Miss;
    values.set("serve.hit_p50_ms", untraced.median_ms(is_hit));
    values.set("serve.miss_p50_ms", untraced.median_ms(is_miss));
    values.set(
        "serve.dse.hit_p50_ms",
        untraced.median_ms(|a| a.kind == Kind::Dse && is_hit(a)),
    );
    values.set(
        "serve.dse.miss_p50_ms",
        untraced.median_ms(|a| a.kind == Kind::Dse && is_miss(a)),
    );
    let all = untraced.latencies(|_| true);
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    // p99 when at least ten samples lie beyond it, else the highest
    // percentile that has them (tiny `--quick` runs).
    let tail = if stats::percentile_supported(sorted.len(), 99.0) {
        Some(stats::nearest_rank(&sorted, 99.0))
    } else {
        stats::tail(&sorted).map(|(_, value)| value)
    };
    if let Some(tail) = tail {
        values.set("serve.p99_ms", tail * 1e3);
    }
    let hits = untraced.answers.iter().filter(|a| is_hit(a)).count() as f64;
    let misses = untraced.answers.len() as f64 - hits;
    values.set(
        "serve.cache.hit_ratio",
        hits / untraced.answers.len().max(1) as f64,
    );
    if misses > 0.0 {
        values.set("serve.cache.stats_miss_ratio", stats_misses / misses);
    }
    values.set("serve.cache.evictions", evictions);
    values.set("serve.dedup.joined", joined);

    set_op_attribution(
        &mut values,
        &spans,
        ("perf.serve.request", &[]),
        &all,
        &traced.latencies(|_| true),
    );

    let simulate_hit_us = untraced.median_ms(|a| a.kind == Kind::Simulate && is_hit(a)) * 1e3;
    let mut failures = untraced.failures;
    failures.extend(traced.failures);
    match probe_layers(&traffic, &mut values) {
        Ok(session_hit_us) => {
            values.set("serve.wire_overhead_us", simulate_hit_us - session_hit_us)
        }
        Err(failure) => failures.push(failure),
    }
    Outcome {
        attempted: untraced.attempted + traced.attempted,
        failures,
        metrics: values.into_metrics(),
    }
}

/// In-process probes on the same inputs: a `Session::run` hit,
/// `report_json` and `parse_request`. Returns the session hit time (µs).
fn probe_layers(traffic: &Traffic, values: &mut LayerValues) -> Result<f64, String> {
    let cache = Arc::new(ArtifactCache::new());
    let sessions: Vec<_> = traffic
        .simulate
        .iter()
        .take(64)
        .map(|dims| {
            Config::fully_connected_mlp(dims)
                .map(|config| {
                    Simulator::new(config)
                        .threads(1)
                        .into_session_with(Arc::clone(&cache))
                })
                .map_err(|e| format!("simulate config: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut reports = Vec::with_capacity(sessions.len());
    for session in &sessions {
        reports.push(session.run().map_err(|e| format!("Session::run: {e}"))?);
    }
    let (mut hit_us, mut json_us) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        for (session, report) in sessions.iter().zip(&reports) {
            let (seconds, hit) = timed(|| session.run());
            if !hit.is_ok_and(|hit| Arc::ptr_eq(&hit, report)) {
                return Err("Session::run repeat was not a cache hit".into());
            }
            hit_us.push(seconds * 1e6);
            let (seconds, json) = timed(|| report_json(report));
            std::hint::black_box(json);
            json_us.push(seconds * 1e6);
        }
    }
    let mut parse_us = Vec::new();
    for request in traffic.sequences[0].iter().take(2_000) {
        let (seconds, parsed) = timed(|| parse_request(&request.line));
        parsed.map_err(|e| format!("parse_request: {}", e.message))?;
        parse_us.push(seconds * 1e6);
    }
    let session_hit_us = stats::median(&hit_us);
    values.set("core.simulator.session_hit_us", session_hit_us);
    values.set("core.report.json_us", stats::median(&json_us));
    values.set("serve.protocol.parse_us", stats::median(&parse_us));
    Ok(session_hit_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let a = Traffic::generate(5, true);
        assert_eq!(a, Traffic::generate(5, true));
        assert_ne!(a.sequences, Traffic::generate(6, true).sequences);
        assert_ne!(
            a.sequences[0], a.sequences[1],
            "connections replay different sequences"
        );
        for request in &a.sequences[0] {
            parse_request(&request.line).expect("generated lines parse");
        }
    }

    #[test]
    fn responses_split_without_parsing_the_result() {
        let line = r#"{"type":"response","id":3,"ok":true,"cache":"hit","fingerprint":"0x00ab","result":{"report":{"x":1}}}"#;
        assert_eq!(
            split_response(line).unwrap(),
            ("hit", "0x00ab", r#"{"report":{"x":1}}"#)
        );
        let error =
            r#"{"type":"response","id":3,"ok":false,"error":{"code":"config","message":"m"}}"#;
        assert!(split_response(error).is_err());
    }
}
