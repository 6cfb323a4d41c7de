//! End-to-end tests of the session server over a real unix socket:
//! handshake and schema rejection, cache-hit speedup, in-flight
//! deduplication, concurrent-client bit-identity, eviction under a tiny
//! budget, backpressure, and the metrics artifact.
//!
//! Every test boots its own server (on its own socket path) inside this
//! process. The server owns the process-global obs metrics + live
//! sessions, so the tests serialize through one lock.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::report::report_json;
use mnsim_core::{Config, Simulator};
use mnsim_obs::{parse_json, JsonValue};
use mnsim_serve::client::Client;
use mnsim_serve::server::{connect_stream, serve, ServeOptions};
use mnsim_tech::fault::FaultRates;

static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERVER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn socket_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("mnsim_serve_{tag}_{}.sock", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// Boots a server on `path`, runs `body`, then shuts the server down
/// (via a dedicated client) and joins it.
fn with_server<T>(options: ServeOptions, body: impl FnOnce(&str) -> T) -> T {
    let path = options.socket.clone().expect("tests use socket mode");
    let server = std::thread::spawn(move || serve(options));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !std::path::Path::new(&path).exists() {
        if server.is_finished() {
            panic!("server exited early: {:?}", server.join());
        }
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The socket file exists slightly before accept() runs; connects are
    // retried below via Client::connect's error propagation.
    //
    // The body runs under catch_unwind so a failing assertion still shuts
    // the server down — a leaked server holds the process-global obs
    // session and would starve every later test in this binary.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&path)));
    let mut stopper = Client::connect(&path).expect("shutdown client connects");
    stopper.shutdown().expect("shutdown request sends");
    server
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    match result {
        Ok(value) => value,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

fn options(tag: &str) -> ServeOptions {
    ServeOptions {
        socket: Some(socket_path(tag)),
        workers: 2,
        ..ServeOptions::default()
    }
}

/// The response's embedded result, as raw JSON text.
fn result_text(response: &str) -> &str {
    let start = response
        .find("\"result\":")
        .expect("response carries a result")
        + "\"result\":".len();
    // The result runs to the closing brace of the response object.
    &response[start..response.len() - 1]
}

fn cache_kind(response: &str) -> String {
    parse_json(response)
        .expect("response parses")
        .get("cache")
        .and_then(JsonValue::as_str)
        .expect("response carries a cache kind")
        .to_string()
}

fn assert_ok(response: &str) {
    let value = parse_json(response).expect("response parses");
    assert_eq!(
        value.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{response}"
    );
}

const FAULT_REQ: &str = r#"{"type":"request","id":1,"op":"fault_mc","mlp":[64,32],"trials":12,"seed":7,"rate":0.02}"#;

#[test]
fn handshake_rejects_schema_mismatch_with_typed_error() {
    let _guard = lock();
    with_server(options("handshake"), |path| {
        // A well-behaved client handshakes fine.
        drop(Client::connect(path).expect("matching version connects"));

        // A mismatched version gets a typed `schema_mismatch` error.
        let mut stream = connect_stream(path).expect("raw stream connects");
        writeln!(stream, "{{\"type\":\"hello\",\"schema_version\":999}}").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        let value = parse_json(reply.trim()).expect("rejection parses");
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("schema_mismatch"),
            "{reply}"
        );
        // The connection closes after the rejection.
        let mut rest = String::new();
        let n = BufReader::new(&stream).read_line(&mut rest).unwrap();
        assert_eq!(n, 0, "connection stays open after rejection: {rest:?}");
    });
}

#[test]
fn ping_stats_and_typed_request_errors() {
    let _guard = lock();
    with_server(options("ops"), |path| {
        let mut client = Client::connect(path).expect("connects");
        let pong = client
            .call(r#"{"type":"request","id":1,"op":"ping"}"#)
            .unwrap();
        assert_ok(&pong.response);
        assert!(pong.response.contains("\"pong\":true"), "{}", pong.response);

        let stats = client
            .call(r#"{"type":"request","id":2,"op":"stats"}"#)
            .unwrap();
        assert_ok(&stats.response);
        assert!(stats.response.contains("\"cache\""), "{}", stats.response);

        // Unsupported op: typed error that echoes the request id,
        // connection stays usable.
        let bad = client
            .call(r#"{"type":"request","id":3,"op":"warp"}"#)
            .unwrap();
        assert!(bad.response.contains("unsupported_op"), "{}", bad.response);
        assert!(bad.response.contains("\"id\":3,"), "{}", bad.response);

        // A line that is not JSON carries no readable id.
        let malformed = client.call("{\"type\":\"request\",\"id\":9").unwrap();
        assert!(
            malformed.response.contains("malformed"),
            "{}",
            malformed.response
        );
        assert!(
            malformed.response.contains("\"id\":null,"),
            "{}",
            malformed.response
        );

        // Config error: the full typed ConfigError list rides the wire.
        let invalid = client
            .call(r#"{"type":"request","id":4,"op":"simulate","config":"Crossbar_Size = 100\n"}"#)
            .unwrap();
        let value = parse_json(&invalid.response).unwrap();
        let error = value.get("error").expect("typed error payload");
        assert_eq!(
            error.get("code").and_then(JsonValue::as_str),
            Some("config")
        );
        assert!(
            error.get("errors").and_then(JsonValue::as_array).is_some(),
            "{}",
            invalid.response
        );

        // Still alive afterwards.
        let again = client
            .call(r#"{"type":"request","id":5,"op":"ping"}"#)
            .unwrap();
        assert_ok(&again.response);
    });
}

#[test]
fn deeply_nested_lines_get_typed_errors_and_the_server_lives_on() {
    let _guard = lock();
    with_server(options("deep"), |path| {
        let deep = "[".repeat(100_000);
        let error_code = |line: &str| {
            parse_json(line.trim())
                .expect("error reply parses")
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };

        // As the handshake line: a typed rejection.
        let mut stream = connect_stream(path).expect("raw stream connects");
        writeln!(stream, "{deep}").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert_eq!(error_code(&reply).as_deref(), Some("malformed"), "{reply}");

        // As a request line: the same error, on a connection that stays
        // open.
        let mut client = Client::connect(path).expect("connects");
        let bad = client.call(&deep).unwrap();
        assert_eq!(error_code(&bad.response).as_deref(), Some("malformed"));
        let pong = client
            .call(r#"{"type":"request","id":1,"op":"ping"}"#)
            .unwrap();
        assert_ok(&pong.response);
    });
}

#[test]
fn over_long_and_non_utf8_lines_get_malformed_and_the_connection_lives_on() {
    let _guard = lock();
    with_server(options("lines"), |path| {
        let mut stream = connect_stream(path).expect("raw stream connects");
        let mut replies = BufReader::new(stream.try_clone().expect("stream clones"));
        let mut exchange = |line: &[u8]| {
            stream.write_all(line).unwrap();
            stream.write_all(b"\n").unwrap();
            stream.flush().unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            parse_json(reply.trim()).expect("every reply parses")
        };
        let code = |reply: &JsonValue| {
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        let hello = exchange(br#"{"type":"hello","schema_version":1}"#);
        assert_eq!(
            hello.get("type").and_then(JsonValue::as_str),
            Some("hello_ok")
        );

        // A valid ping whose `pad` string runs past the server's 1 MiB
        // line cap: unless the server skips the rest of the line, its
        // tail is read as a line of its own and answered too, and every
        // reply below comes one line late.
        const CAP: usize = 1 << 20;
        let mut long = br#"{"type":"request","id":1,"op":"ping","pad":""#.to_vec();
        long.resize(CAP + 64, b'a');
        long.extend_from_slice(br#""}"#);
        let over = exchange(&long);
        assert_eq!(code(&over).as_deref(), Some("malformed"), "{over:?}");
        let message = over
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        assert!(message.contains(&CAP.to_string()), "{message}");

        let not_utf8 = exchange(b"\xff\xfe");
        assert_eq!(
            code(&not_utf8).as_deref(),
            Some("malformed"),
            "{not_utf8:?}"
        );

        let pong = exchange(br#"{"type":"request","id":2,"op":"ping"}"#);
        assert_eq!(
            pong.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{pong:?}"
        );
    });
}

#[test]
fn second_identical_request_hits_the_cache_and_is_faster() {
    let _guard = lock();
    with_server(options("speedup"), |path| {
        let mut client = Client::connect(path).expect("connects");

        let start = Instant::now();
        let first = client.call(FAULT_REQ).unwrap();
        let first_elapsed = start.elapsed();
        assert_ok(&first.response);
        assert_eq!(cache_kind(&first.response), "miss");
        // The fault campaign streams progress events while evaluating.
        assert!(
            first.events.iter().any(|e| e.contains("campaign_started")),
            "{:?}",
            first.events
        );
        assert!(
            first.events.iter().any(|e| e.contains("campaign_finished")),
            "{:?}",
            first.events
        );

        let start = Instant::now();
        let second = client.call(FAULT_REQ).unwrap();
        let second_elapsed = start.elapsed();
        assert_ok(&second.response);
        assert_eq!(cache_kind(&second.response), "hit");
        assert!(second.events.is_empty(), "hits evaluate nothing");

        // Bit-identical payloads, and the hit must be at least twice as
        // fast as the evaluation (in practice it is orders of magnitude).
        assert_eq!(result_text(&first.response), result_text(&second.response));
        assert!(
            second_elapsed * 2 <= first_elapsed,
            "hit not >=2x faster: first={first_elapsed:?} second={second_elapsed:?}"
        );

        // The wire result embeds the canonical report of a local run.
        let local = Simulator::new(Config::fully_connected_mlp(&[64, 32]).unwrap())
            .faults(FaultConfig {
                rates: FaultRates::stuck_at(0.02),
                trials: 12,
                seed: 7,
                ..FaultConfig::default()
            })
            .run()
            .unwrap();
        assert!(
            first.response.contains(&report_json(&local)),
            "wire result differs from local evaluation"
        );
    });
}

#[test]
fn pipelined_identical_requests_share_one_evaluation() {
    let _guard = lock();
    let mut opts = options("dedup");
    opts.workers = 1;
    with_server(opts, |path| {
        let mut client = Client::connect(path).expect("connects");
        let req1 = r#"{"type":"request","id":10,"op":"fault_mc","mlp":[64,32],"trials":16,"seed":3,"rate":0.02}"#;
        let req2 = r#"{"type":"request","id":11,"op":"fault_mc","mlp":[64,32],"trials":16,"seed":3,"rate":0.02}"#;
        client.send_line(req1).unwrap();
        client.send_line(req2).unwrap();

        let mut responses = Vec::new();
        while responses.len() < 2 {
            let line = client.recv_line().unwrap().expect("server stays up");
            let value = parse_json(&line).unwrap();
            if value.get("type").and_then(JsonValue::as_str) == Some("response") {
                responses.push(line);
            }
        }
        for response in &responses {
            assert_ok(response);
        }
        // The owner reports the evaluation; the duplicate shares it.
        assert_eq!(cache_kind(&responses[0]), "miss", "{}", responses[0]);
        assert_eq!(cache_kind(&responses[1]), "shared", "{}", responses[1]);
        assert_eq!(result_text(&responses[0]), result_text(&responses[1]));

        let stats = client
            .call(r#"{"type":"request","id":12,"op":"stats"}"#)
            .unwrap();
        let value = parse_json(&stats.response).unwrap();
        let server_stats = value.get("result").and_then(|r| r.get("server")).unwrap();
        assert_eq!(
            server_stats.get("dedup_joined").and_then(JsonValue::as_u64),
            Some(1),
            "{}",
            stats.response
        );
        assert_eq!(
            server_stats.get("jobs_completed").and_then(JsonValue::as_u64),
            Some(1),
            "{}",
            stats.response
        );
    });
}

/// Satellite 4, part 1: N concurrent clients submitting overlapping
/// fingerprints all get bit-identical results; exactly one `miss` per
/// distinct fingerprint; the dedup counter equals the `shared` count.
#[test]
fn concurrent_clients_get_bit_identical_results() {
    let _guard = lock();
    with_server(options("concurrent"), |path| {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 4;
        // Two distinct fingerprints, interleaved per client.
        let configs = ["[64,32]", "[96,48]"];
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let path = path.to_string();
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connects");
                let mut responses = Vec::new();
                for i in 0..PER_CLIENT {
                    let mlp = configs[(c + i) % configs.len()];
                    let req = format!(
                        "{{\"type\":\"request\",\"id\":{i},\"op\":\"simulate\",\"mlp\":{mlp}}}"
                    );
                    let outcome = client.call(&req).expect("call completes");
                    responses.push((mlp, outcome.response));
                }
                responses
            }));
        }
        let all: Vec<(&str, String)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread joins"))
            .collect();
        assert_eq!(all.len(), CLIENTS * PER_CLIENT);

        let mut miss = 0usize;
        let mut shared = 0usize;
        for (mlp, response) in &all {
            assert_ok(response);
            match cache_kind(response).as_str() {
                "miss" => miss += 1,
                "shared" => shared += 1,
                "hit" => {}
                other => panic!("unexpected cache kind {other}: {response}"),
            }
            // Every response for a fingerprint is byte-identical to the
            // local evaluation of that config.
            let dims: Vec<usize> = match *mlp {
                "[64,32]" => vec![64, 32],
                _ => vec![96, 48],
            };
            let local = Simulator::new(Config::fully_connected_mlp(&dims).unwrap())
                .run()
                .unwrap();
            assert!(
                response.contains(&report_json(&local)),
                "response for {mlp} differs from local evaluation"
            );
        }
        assert_eq!(miss, configs.len(), "one evaluation per fingerprint");

        let mut client = Client::connect(path).expect("stats client connects");
        let stats = client
            .call(r#"{"type":"request","id":99,"op":"stats"}"#)
            .unwrap();
        let value = parse_json(&stats.response).unwrap();
        let server_stats = value.get("result").and_then(|r| r.get("server")).unwrap();
        assert_eq!(
            server_stats.get("dedup_joined").and_then(JsonValue::as_u64),
            Some(shared as u64),
            "dedup counter equals duplicates joined: {}",
            stats.response
        );
    });
}

/// A missed request counts one cache miss, not two: the server's
/// pre-queue check records hits only, and the job's own lookup records
/// the miss.
#[test]
fn distinct_requests_count_one_miss_each() {
    let _guard = lock();
    with_server(options("misses"), |path| {
        let mut client = Client::connect(path).expect("connects");
        let widths = [32, 48, 64, 80];
        for (id, width) in widths.iter().enumerate() {
            let req = format!(
                "{{\"type\":\"request\",\"id\":{id},\"op\":\"simulate\",\"mlp\":[{width},16]}}"
            );
            let outcome = client.call(&req).expect("call completes");
            assert_ok(&outcome.response);
            assert_eq!(cache_kind(&outcome.response), "miss");
        }
        let repeat = client
            .call(r#"{"type":"request","id":9,"op":"simulate","mlp":[32,16]}"#)
            .unwrap();
        assert_eq!(cache_kind(&repeat.response), "hit");

        let stats = client
            .call(r#"{"type":"request","id":10,"op":"stats"}"#)
            .unwrap();
        let value = parse_json(&stats.response).unwrap();
        let cache = value.get("result").and_then(|r| r.get("cache")).unwrap();
        assert_eq!(
            cache.get("misses").and_then(JsonValue::as_u64),
            Some(widths.len() as u64),
            "{}",
            stats.response
        );
        assert_eq!(
            cache.get("hits").and_then(JsonValue::as_u64),
            Some(1),
            "{}",
            stats.response
        );
    });
}

/// Satellite 4, part 2: a pathologically small budget evicts every
/// artifact immediately, yet never corrupts an in-flight job — every
/// response is still correct and bit-identical.
#[test]
fn tiny_cache_budget_never_corrupts_results() {
    let _guard = lock();
    let mut opts = options("evict");
    opts.cache_bytes = 1;
    with_server(opts, |path| {
        let local = Simulator::new(Config::fully_connected_mlp(&[64, 32]).unwrap())
            .run()
            .unwrap();
        let local_json = report_json(&local);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let path = path.to_string();
            let local_json = local_json.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connects");
                for i in 0..3 {
                    let req = format!(
                        "{{\"type\":\"request\",\"id\":{i},\"op\":\"simulate\",\"mlp\":[64,32]}}"
                    );
                    let outcome = client.call(&req).expect("call completes");
                    assert_ok(&outcome.response);
                    // Never a stale hit (everything evicts), never wrong.
                    assert_ne!(cache_kind(&outcome.response), "hit");
                    assert!(
                        outcome.response.contains(&local_json),
                        "evicting cache corrupted a result: {}",
                        outcome.response
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().expect("client thread joins");
        }
        let mut client = Client::connect(path).expect("connects");
        let stats = client
            .call(r#"{"type":"request","id":50,"op":"stats"}"#)
            .unwrap();
        let value = parse_json(&stats.response).unwrap();
        let cache = value.get("result").and_then(|r| r.get("cache")).unwrap();
        assert!(
            cache.get("evictions").and_then(JsonValue::as_u64).unwrap() > 0,
            "tiny budget must evict: {}",
            stats.response
        );
    });
}

#[test]
fn overflowing_a_client_queue_returns_backpressure() {
    let _guard = lock();
    let mut opts = options("backpressure");
    opts.workers = 1;
    opts.max_pending_per_client = 1;
    with_server(opts, |path| {
        let mut client = Client::connect(path).expect("connects");
        // A slow job occupies the single pending slot...
        client.send_line(FAULT_REQ).unwrap();
        // ... so a second, distinct job (different fingerprint — identical
        // ones would dedup-join) must be rejected with a typed error.
        client
            .send_line(r#"{"type":"request","id":2,"op":"simulate","mlp":[96,48]}"#)
            .unwrap();
        let mut responses = Vec::new();
        while responses.len() < 2 {
            let line = client.recv_line().unwrap().expect("server stays up");
            let value = parse_json(&line).unwrap();
            if value.get("type").and_then(JsonValue::as_str) == Some("response") {
                responses.push(line);
            }
        }
        // The rejection arrives first (the fault job is still running).
        let value = parse_json(&responses[0]).unwrap();
        assert_eq!(value.get("id").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("backpressure"),
            "{}",
            responses[0]
        );
        assert_ok(&responses[1]);
    });
}

#[test]
fn shutdown_writes_the_metrics_artifact() {
    let _guard = lock();
    let metrics_path = std::env::temp_dir()
        .join(format!("mnsim_serve_metrics_{}.json", std::process::id()))
        .to_string_lossy()
        .to_string();
    let mut opts = options("metrics");
    opts.metrics_path = Some(metrics_path.clone());
    with_server(opts, |path| {
        let mut client = Client::connect(path).expect("connects");
        let first = client.call(FAULT_REQ).unwrap();
        assert_ok(&first.response);
        let second = client.call(FAULT_REQ).unwrap();
        assert_eq!(cache_kind(&second.response), "hit");
    });
    let snapshot = std::fs::read_to_string(&metrics_path).expect("metrics artifact written");
    let value = parse_json(&snapshot).expect("metrics artifact parses");
    let counters = value.get("counters").expect("counters section");
    for counter in [
        "serve.requests",
        "serve.responses",
        "serve.jobs.completed",
        "cache.artifact.hits",
        "cache.artifact.inserts",
    ] {
        let count = counters.get(counter).and_then(JsonValue::as_u64);
        assert!(
            count.unwrap_or(0) > 0,
            "counter {counter} missing/zero in {snapshot}"
        );
    }
    let _ = std::fs::remove_file(&metrics_path);
}
