//! The versioned, line-delimited JSON wire protocol.
//!
//! Every message is one JSON object on one line (NDJSON). A connection
//! opens with a handshake — the client sends `hello` carrying its
//! [`SCHEMA_VERSION`], the server answers `hello_ok` or a typed
//! `schema_mismatch` error and closes — and then carries any number of
//! requests, identified by client-chosen `id`s. The server interleaves
//! three message types back:
//!
//! | line | meaning |
//! |---|---|
//! | `{"type":"hello_ok","schema_version":1}` | handshake accepted |
//! | `{"type":"response","id":N,"ok":true,"cache":K,"fingerprint":H,"result":{…}}` | a request completed |
//! | `{"type":"response","id":N,"ok":false,"error":{"code":C,"message":M,…}}` | a request failed |
//! | `{"type":"event","id":N,"data":{…}}` | streamed progress for request `N` |
//!
//! `cache` reports how the result was obtained: `"miss"` (evaluated for
//! this request), `"hit"` (served from the artifact cache), `"shared"`
//! (deduplicated onto another client's identical in-flight request), or
//! `"none"` (not a cacheable operation). `fingerprint` is the FNV-1a
//! config fingerprint in hex — the cache/dedup key. `event` lines carry
//! the live-telemetry NDJSON events (`campaign_started`,
//! `wave_completed`, …) of the evaluation serving request `N`, so
//! long-running fault campaigns and DSE sweeps stream progress instead
//! of replying only at completion.
//!
//! Error payloads are typed: `code` is one of [`ErrorCode`], and
//! configuration failures carry the full [`ConfigError`] list
//! (`field_path` / `reason` / `allowed`) so a client can render every
//! violation at once. A line the server cannot read as a request — not
//! JSON, nested too deep, longer than 1 MiB, or not UTF-8 — gets a
//! `malformed` error with `"id":null`, and after the handshake the
//! connection stays open.

use std::fmt::Write as _;

use mnsim_core::checkpoint::hex_u64;
use mnsim_core::config::Config;
use mnsim_core::error::{ConfigError, CoreError};
use mnsim_core::fault_sim::FaultConfig;
use mnsim_obs::{parse_json, write_json_string, JsonValue};
use mnsim_tech::fault::FaultRates;
use mnsim_tech::interconnect::InterconnectNode;

/// Protocol schema version. Bumped on any wire-incompatible change; the
/// handshake rejects clients speaking a different version with a typed
/// `schema_mismatch` error.
pub const SCHEMA_VERSION: u64 = 1;

/// One parsed client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The handshake opener: `{"type":"hello","schema_version":1}`.
    Hello {
        /// The client's protocol version.
        schema_version: u64,
    },
    /// A work submission: `{"type":"request","id":N,"op":…,…}`.
    Submit {
        /// Client-chosen request id, echoed on every response/event.
        id: u64,
        /// The operation to perform.
        op: Op,
    },
    /// Ask the server to stop accepting work and exit cleanly:
    /// `{"type":"shutdown"}`.
    Shutdown,
}

/// The operation of a [`Request::Submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe; answers immediately.
    Ping,
    /// A full behavior-level simulation, optionally with a fault
    /// campaign attached. The result embeds the canonical report JSON.
    Simulate {
        /// The configuration to evaluate.
        config: ConfigSpec,
        /// Fault-injection campaign parameters, if any.
        faults: Option<FaultSpec>,
    },
    /// Model-vs-circuit validation (Table II rows).
    Validate {
        /// The configuration to validate.
        config: ConfigSpec,
        /// Random weight matrices to sample.
        matrices: usize,
        /// Input vectors per matrix.
        inputs_per_matrix: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// A design-space exploration sweep.
    Dse {
        /// The base configuration.
        config: ConfigSpec,
        /// Crossbar sizes to sweep.
        crossbar_sizes: Vec<usize>,
        /// Parallelism degrees to sweep.
        parallelism: Vec<usize>,
        /// Interconnect nodes (nm) to sweep.
        interconnects_nm: Vec<u32>,
        /// Feasibility bound on the single-crossbar error rate.
        max_crossbar_error: Option<f64>,
    },
    /// Server/cache effectiveness counters; answers immediately.
    Stats,
}

/// How a request names its configuration: inline Table-I text
/// (`"config": "Crossbar_Size = 128\n…"`) or an MLP shorthand
/// (`"mlp": [256, 128]`).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigSpec {
    /// Table I `key = value` text, parsed by `Config::from_text`.
    Text(String),
    /// Fully-connected layer sizes for `Config::fully_connected_mlp`.
    Mlp(Vec<usize>),
}

impl ConfigSpec {
    /// Materializes the [`Config`].
    ///
    /// # Errors
    ///
    /// Propagates `Config` parse/validation errors.
    pub(crate) fn build(&self) -> Result<Config, CoreError> {
        match self {
            ConfigSpec::Text(text) => Config::from_text(text),
            ConfigSpec::Mlp(dims) => Config::fully_connected_mlp(dims),
        }
    }
}

/// Wire shape of a fault campaign, mirroring [`FaultConfig`] with the
/// `repro faultmc` CLI's flat single-rate convention.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Stuck-at-HRS defect rate.
    pub rate: f64,
    /// Spare rows per crossbar.
    pub spare_rows: usize,
    /// Bank retirement threshold.
    pub retire_threshold: f64,
    /// Input vectors per surviving trial.
    pub inputs_per_trial: usize,
}

impl FaultSpec {
    /// Converts to the core [`FaultConfig`].
    pub(crate) fn to_fault_config(&self) -> FaultConfig {
        FaultConfig {
            rates: FaultRates::stuck_at(self.rate),
            trials: self.trials,
            seed: self.seed,
            spare_rows: self.spare_rows,
            retire_threshold: self.retire_threshold,
            inputs_per_trial: self.inputs_per_trial,
        }
    }
}

impl Default for FaultSpec {
    /// Mirrors [`FaultConfig::default`]'s campaign parameters.
    fn default() -> Self {
        let d = FaultConfig::default();
        FaultSpec {
            trials: d.trials,
            seed: d.seed,
            rate: 0.01,
            spare_rows: d.spare_rows,
            retire_threshold: d.retire_threshold,
            inputs_per_trial: d.inputs_per_trial,
        }
    }
}

/// Typed protocol error classes (the `code` field of error payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version mismatch; the connection closes after this.
    SchemaMismatch,
    /// The line was not valid JSON or not a valid message shape.
    Malformed,
    /// The `op` is not one this server understands.
    UnsupportedOp,
    /// Configuration validation failed; `errors` lists every violation.
    Config,
    /// The client has too many requests pending; retry after one
    /// completes.
    Backpressure,
    /// The evaluation was cancelled.
    Cancelled,
    /// The evaluation hit its deadline.
    Deadline,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// An internal evaluation failure.
    Internal,
}

impl ErrorCode {
    /// The wire identifier.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::SchemaMismatch => "schema_mismatch",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedOp => "unsupported_op",
            ErrorCode::Config => "config",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed error payload ready for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// Per-field violations for [`ErrorCode::Config`] errors.
    pub config_errors: Vec<ConfigError>,
}

impl WireError {
    /// A payload with no per-field detail.
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            config_errors: Vec::new(),
        }
    }

    /// Maps a [`CoreError`] onto the wire, preserving the typed
    /// [`ConfigError`] list where one exists.
    pub(crate) fn from_core(err: &CoreError) -> Self {
        match err {
            CoreError::Config { errors } => WireError {
                code: ErrorCode::Config,
                message: err.to_string(),
                config_errors: errors.clone(),
            },
            CoreError::InvalidConfig { parameter, reason } => WireError {
                code: ErrorCode::Config,
                message: err.to_string(),
                config_errors: vec![ConfigError {
                    field_path: (*parameter).to_string(),
                    reason: reason.clone(),
                    allowed: String::new(),
                }],
            },
            CoreError::ConfigParse { .. } | CoreError::EmptyDesignSpace { .. } => {
                WireError::new(ErrorCode::Config, err.to_string())
            }
            CoreError::Cancelled { .. } => WireError::new(ErrorCode::Cancelled, err.to_string()),
            CoreError::DeadlineExceeded { .. } => {
                WireError::new(ErrorCode::Deadline, err.to_string())
            }
            other => WireError::new(ErrorCode::Internal, other.to_string()),
        }
    }
}

/// The server's handshake acknowledgement.
pub(crate) fn hello_ok_line() -> String {
    format!("{{\"type\":\"hello_ok\",\"schema_version\":{SCHEMA_VERSION}}}")
}

/// The client's handshake opener.
pub(crate) fn hello_line() -> String {
    format!("{{\"type\":\"hello\",\"schema_version\":{SCHEMA_VERSION}}}")
}

/// A failure response. `id` is `None` when the failing line carried no
/// usable request id (malformed JSON, handshake rejection).
pub(crate) fn error_line(id: Option<u64>, err: &WireError) -> String {
    let mut out = String::from("{\"type\":\"response\",");
    match id {
        Some(id) => {
            let _ = write!(out, "\"id\":{id},");
        }
        None => out.push_str("\"id\":null,"),
    }
    out.push_str("\"ok\":false,\"error\":{\"code\":");
    write_json_string(&mut out, err.code.as_str());
    out.push_str(",\"message\":");
    write_json_string(&mut out, &err.message);
    if !err.config_errors.is_empty() {
        out.push_str(",\"errors\":[");
        for (i, e) in err.config_errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"field_path\":");
            write_json_string(&mut out, &e.field_path);
            out.push_str(",\"reason\":");
            write_json_string(&mut out, &e.reason);
            out.push_str(",\"allowed\":");
            write_json_string(&mut out, &e.allowed);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str("}}");
    out
}

/// A success response. `result_json` must already be a well-formed JSON
/// value; it is embedded verbatim. `fingerprint` is omitted for
/// non-cacheable operations (`None`).
pub(crate) fn response_line(
    id: u64,
    cache: &str,
    fingerprint: Option<u64>,
    result_json: &str,
) -> String {
    let mut out = String::from("{\"type\":\"response\",");
    let _ = write!(out, "\"id\":{id},\"ok\":true,\"cache\":");
    write_json_string(&mut out, cache);
    if let Some(fp) = fingerprint {
        out.push_str(",\"fingerprint\":");
        write_json_string(&mut out, &hex_u64(fp));
    }
    out.push_str(",\"result\":");
    out.push_str(result_json);
    out.push('}');
    out
}

/// A streamed progress event for request `id`. `data_json` is one
/// live-telemetry NDJSON line, embedded verbatim.
pub(crate) fn event_line(id: u64, data_json: &str) -> String {
    let mut out = String::from("{\"type\":\"event\",");
    let _ = write!(out, "\"id\":{id},\"data\":");
    out.push_str(data_json);
    out.push('}');
    out
}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::Malformed, message)
}

fn get_usize(value: &JsonValue, key: &str) -> Result<Option<usize>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| malformed(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| malformed(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_f64(value: &JsonValue, key: &str) -> Result<Option<f64>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| malformed(format!("`{key}` must be a number"))),
    }
}

fn get_usize_array(value: &JsonValue, key: &str) -> Result<Option<Vec<usize>>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| malformed(format!("`{key}` must be an array")))?;
            items
                .iter()
                .map(|item| {
                    item.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| malformed(format!("`{key}` entries must be integers")))
                })
                .collect::<Result<Vec<usize>, WireError>>()
                .map(Some)
        }
    }
}

fn parse_config_spec(value: &JsonValue) -> Result<ConfigSpec, WireError> {
    if let Some(text) = value.get("config") {
        let text = text
            .as_str()
            .ok_or_else(|| malformed("`config` must be a Table-I text string"))?;
        return Ok(ConfigSpec::Text(text.to_string()));
    }
    if let Some(dims) = get_usize_array(value, "mlp")? {
        return Ok(ConfigSpec::Mlp(dims));
    }
    Err(malformed(
        "request needs a configuration: `config` (Table-I text) or `mlp` (layer sizes)",
    ))
}

fn parse_fault_spec(value: &JsonValue) -> Result<FaultSpec, WireError> {
    let defaults = FaultSpec::default();
    Ok(FaultSpec {
        trials: get_usize(value, "trials")?.unwrap_or(defaults.trials),
        seed: get_u64(value, "seed")?.unwrap_or(defaults.seed),
        rate: get_f64(value, "rate")?.unwrap_or(defaults.rate),
        spare_rows: get_usize(value, "spare_rows")?.unwrap_or(defaults.spare_rows),
        retire_threshold: get_f64(value, "retire_threshold")?.unwrap_or(defaults.retire_threshold),
        inputs_per_trial: get_usize(value, "inputs_per_trial")?
            .unwrap_or(defaults.inputs_per_trial),
    })
}

/// Parses one request line into its typed form: the line as JSON, then
/// the request that value carries.
///
/// # Errors
///
/// Returns a typed [`WireError`] (code `malformed` or `unsupported_op`)
/// describing the first problem found.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    request_of(&parse_line(line)?)
}

/// Parses one protocol line as JSON.
///
/// # Errors
///
/// A `malformed` [`WireError`] for a line that is not JSON.
pub(crate) fn parse_line(line: &str) -> Result<JsonValue, WireError> {
    parse_json(line.trim()).map_err(|e| malformed(format!("invalid JSON: {e}")))
}

/// The typed request a parsed line carries.
///
/// # Errors
///
/// Returns a typed [`WireError`] (code `malformed` or `unsupported_op`)
/// describing the first problem found; the caller echoes it back with the
/// line's request id when it has one.
pub(crate) fn request_of(value: &JsonValue) -> Result<Request, WireError> {
    let kind = value
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("missing `type`"))?;
    match kind {
        "hello" => {
            let schema_version = get_u64(value, "schema_version")?
                .ok_or_else(|| malformed("hello needs `schema_version`"))?;
            Ok(Request::Hello { schema_version })
        }
        "shutdown" => Ok(Request::Shutdown),
        "request" => {
            let id =
                get_u64(value, "id")?.ok_or_else(|| malformed("request needs a numeric `id`"))?;
            let op_name = value
                .get("op")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("request needs an `op` string"))?;
            let op = match op_name {
                "ping" => Op::Ping,
                "stats" => Op::Stats,
                "simulate" => Op::Simulate {
                    config: parse_config_spec(value)?,
                    faults: None,
                },
                "fault_mc" => Op::Simulate {
                    config: parse_config_spec(value)?,
                    faults: Some(parse_fault_spec(value)?),
                },
                "validate" => Op::Validate {
                    config: parse_config_spec(value)?,
                    matrices: get_usize(value, "matrices")?.unwrap_or(2),
                    inputs_per_matrix: get_usize(value, "inputs")?.unwrap_or(2),
                    seed: get_u64(value, "seed")?.unwrap_or(0),
                },
                "dse" => Op::Dse {
                    config: parse_config_spec(value)?,
                    crossbar_sizes: get_usize_array(value, "crossbar_sizes")?
                        .unwrap_or_else(|| vec![64, 128, 256]),
                    parallelism: get_usize_array(value, "parallelism")?
                        .unwrap_or_else(|| vec![1, 2, 4]),
                    interconnects_nm: get_usize_array(value, "interconnects_nm")?
                        .map(|v| v.into_iter().map(|n| n as u32).collect())
                        .unwrap_or_else(|| vec![22]),
                    max_crossbar_error: get_f64(value, "max_crossbar_error")?,
                },
                other => {
                    return Err(WireError::new(
                        ErrorCode::UnsupportedOp,
                        format!(
                            "unknown op `{other}` (supported: ping, simulate, fault_mc, \
                             validate, dse, stats)"
                        ),
                    ))
                }
            };
            Ok(Request::Submit { id, op })
        }
        other => Err(malformed(format!(
            "unknown message type `{other}` (expected hello, request, or shutdown)"
        ))),
    }
}

/// Resolves the interconnect node list of a DSE op.
///
/// # Errors
///
/// Returns a `config`-class error for an unknown node.
pub(crate) fn interconnects_from_nm(nm: &[u32]) -> Result<Vec<InterconnectNode>, WireError> {
    nm.iter()
        .map(|&n| {
            InterconnectNode::from_nanometers(n).map_err(|e| WireError {
                code: ErrorCode::Config,
                message: e.to_string(),
                config_errors: vec![ConfigError {
                    field_path: "interconnects_nm".into(),
                    reason: format!("{n} nm is not a known node"),
                    allowed: "18, 22, 28, 36, 45, 65, 90".into(),
                }],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_lines_round_trip() {
        let hello = parse_request(&hello_line()).unwrap();
        assert_eq!(
            hello,
            Request::Hello {
                schema_version: SCHEMA_VERSION
            }
        );
        assert!(hello_ok_line().contains("\"hello_ok\""));
    }

    #[test]
    fn parses_each_op() {
        let r = parse_request(r#"{"type":"request","id":7,"op":"simulate","mlp":[64,32]}"#);
        match r.unwrap() {
            Request::Submit {
                id: 7,
                op: Op::Simulate { config, faults },
            } => {
                assert_eq!(config, ConfigSpec::Mlp(vec![64, 32]));
                assert!(faults.is_none());
            }
            other => panic!("{other:?}"),
        }

        let r = parse_request(
            r#"{"type":"request","id":1,"op":"fault_mc","mlp":[64,32],"trials":5,"rate":0.05}"#,
        );
        match r.unwrap() {
            Request::Submit {
                op: Op::Simulate {
                    faults: Some(spec), ..
                },
                ..
            } => {
                assert_eq!(spec.trials, 5);
                assert_eq!(spec.rate, 0.05);
                assert_eq!(spec.inputs_per_trial, FaultSpec::default().inputs_per_trial);
            }
            other => panic!("{other:?}"),
        }

        let r = parse_request(
            r#"{"type":"request","id":2,"op":"dse","config":"Crossbar_Size = 64\n","crossbar_sizes":[64,128],"parallelism":[1,2],"interconnects_nm":[22,28]}"#,
        );
        match r.unwrap() {
            Request::Submit {
                op:
                    Op::Dse {
                        crossbar_sizes,
                        interconnects_nm,
                        ..
                    },
                ..
            } => {
                assert_eq!(crossbar_sizes, vec![64, 128]);
                assert_eq!(interconnects_nm, vec![22, 28]);
            }
            other => panic!("{other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"type":"request","id":3,"op":"stats"}"#).unwrap(),
            Request::Submit { op: Op::Stats, .. }
        ));
        assert!(matches!(
            parse_request(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn malformed_and_unsupported_are_typed() {
        assert_eq!(
            parse_request("not json").unwrap_err().code,
            ErrorCode::Malformed
        );
        assert_eq!(
            parse_request(r#"{"type":"request","id":1,"op":"warp"}"#)
                .unwrap_err()
                .code,
            ErrorCode::UnsupportedOp
        );
        assert_eq!(
            parse_request(r#"{"type":"request","id":1,"op":"simulate"}"#)
                .unwrap_err()
                .code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn error_line_embeds_config_errors() {
        let err = WireError {
            code: ErrorCode::Config,
            message: "bad".into(),
            config_errors: vec![ConfigError {
                field_path: "Crossbar_Size".into(),
                reason: "100 is not a power of two".into(),
                allowed: "powers of two".into(),
            }],
        };
        let line = error_line(Some(4), &err);
        let value = parse_json(&line).unwrap();
        assert_eq!(value.get("id").and_then(JsonValue::as_u64), Some(4));
        let error = value.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(JsonValue::as_str),
            Some("config")
        );
        let errors = error.get("errors").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            errors[0].get("field_path").and_then(JsonValue::as_str),
            Some("Crossbar_Size")
        );
    }

    #[test]
    fn response_and_event_lines_are_valid_json() {
        let line = response_line(9, "hit", Some(0xdead_beef), r#"{"report":{"x":1}}"#);
        let value = parse_json(&line).unwrap();
        assert_eq!(value.get("cache").and_then(JsonValue::as_str), Some("hit"));
        assert!(value
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .unwrap()
            .starts_with("0x"));
        let line = event_line(9, r#"{"event":"wave_completed","done":3}"#);
        let value = parse_json(&line).unwrap();
        assert_eq!(
            value
                .get("data")
                .and_then(|d| d.get("event"))
                .and_then(JsonValue::as_str),
            Some("wave_completed")
        );
    }

    #[test]
    fn core_errors_map_to_typed_payloads() {
        let err = CoreError::Config {
            errors: vec![ConfigError {
                field_path: "Trials".into(),
                reason: "zero".into(),
                allowed: ">= 1".into(),
            }],
        };
        let wire = WireError::from_core(&err);
        assert_eq!(wire.code, ErrorCode::Config);
        assert_eq!(wire.config_errors.len(), 1);

        let wire = WireError::from_core(&CoreError::DeadlineExceeded {
            completed: 1,
            total: 4,
            checkpoint: None,
        });
        assert_eq!(wire.code, ErrorCode::Deadline);
    }
}
