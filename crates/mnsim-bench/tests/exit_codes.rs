//! The `repro` exit-code contract, asserted against the real binary:
//! 0 success, 2 configuration/usage error, 3 interrupted,
//! 4 server-protocol error. Plus a full serve/client round trip over a
//! unix socket.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_experiment_exits_2() {
    let out = repro().arg("table99").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn bad_emit_spec_exits_2() {
    let out = repro()
        .args(["fig6", "--emit", "nonsense"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn removed_emit_alias_exits_2() {
    // `--metrics <path>` was replaced by `--emit metrics=<path>`; the old
    // spelling is a usage error, not a silently ignored argument.
    let out = repro()
        .args(["table2", "--metrics", "m.json"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn expired_deadline_exits_3() {
    let out = repro()
        .args(["faultmc", "--deadline-ms", "0", "--trials", "4"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn unreachable_server_exits_4() {
    let out = repro()
        .args([
            "client",
            "--socket",
            "/nonexistent/mnsim.sock",
            r#"{"type":"request","id":1,"op":"ping"}"#,
        ])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}

#[test]
fn client_without_socket_exits_2() {
    let out = repro().arg("client").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn successful_experiment_exits_0() {
    let out = repro().arg("fig6").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn stdio_serve_drains_a_piped_batch_before_shutdown() {
    use std::io::Write;
    // Requests queued ahead of the shutdown line must all be answered:
    // stdio mode doubles as a one-shot batch evaluator.
    let mut server = repro()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    server
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            concat!(
                "{\"type\":\"hello\",\"schema_version\":1}\n",
                "{\"type\":\"request\",\"id\":1,\"op\":\"simulate\",\"mlp\":[64,32]}\n",
                "{\"type\":\"request\",\"id\":2,\"op\":\"simulate\",\"mlp\":[96,48]}\n",
                "{\"type\":\"shutdown\"}\n",
            )
            .as_bytes(),
        )
        .expect("requests pipe in");
    let out = server.wait_with_output().expect("server runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"hello_ok\""), "{stdout}");
    for id in [1, 2] {
        assert!(
            stdout.contains(&format!("{{\"type\":\"response\",\"id\":{id},\"ok\":true")),
            "request {id} was not answered: {stdout}"
        );
    }
    assert!(!stdout.contains("shutting_down"), "{stdout}");
}

#[test]
fn serve_client_round_trip_exits_0_and_4_for_bad_requests() {
    let socket = std::env::temp_dir()
        .join(format!("mnsim_exit_codes_{}.sock", std::process::id()))
        .to_string_lossy()
        .to_string();
    let mut server = repro()
        .args(["serve", "--socket", &socket, "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !std::path::Path::new(&socket).exists() {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A well-formed request: code 0, response on stdout.
    let ok = repro()
        .args([
            "client",
            "--socket",
            &socket,
            r#"{"type":"request","id":1,"op":"ping"}"#,
        ])
        .output()
        .expect("client runs");
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("\"pong\":true"), "{stdout}");

    // A protocol-level failure (unsupported op): code 4.
    let bad = repro()
        .args([
            "client",
            "--socket",
            &socket,
            r#"{"type":"request","id":2,"op":"warp"}"#,
        ])
        .output()
        .expect("client runs");
    assert_eq!(bad.status.code(), Some(4), "{bad:?}");

    // A config-level failure rides the same contract as local runs: 2.
    let config = repro()
        .args([
            "client",
            "--socket",
            &socket,
            r#"{"type":"request","id":3,"op":"simulate","config":"Crossbar_Size = 100\n"}"#,
        ])
        .output()
        .expect("client runs");
    assert_eq!(config.status.code(), Some(2), "{config:?}");

    // `--shutdown` stops the server; both sides exit 0.
    let stop = repro()
        .args([
            "client",
            "--socket",
            &socket,
            "--shutdown",
            r#"{"type":"request","id":4,"op":"stats"}"#,
        ])
        .output()
        .expect("client runs");
    assert_eq!(stop.status.code(), Some(0), "{stop:?}");

    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = server.try_wait().expect("try_wait works") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = server.kill();
            panic!("server did not exit after shutdown request");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0), "server exits cleanly");
}
