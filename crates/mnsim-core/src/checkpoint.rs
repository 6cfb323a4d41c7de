//! Deterministic checkpoint/resume substrate for long campaigns.
//!
//! Fault-Monte-Carlo campaigns ([`crate::fault_sim`]) and design-space
//! explorations ([`crate::dse`]) can run for hours; a cancellation,
//! deadline, or crash at trial 9,847 of 10,000 must not lose the first
//! 9,846. This module holds the one campaign driver both run on:
//!
//! * [`CheckpointPolicy`] — *where* to write and *how often*, set once
//!   per session with
//!   [`Simulator::checkpoint`](crate::simulator::Simulator::checkpoint);
//! * `Campaign` itself (crate-private): resume from an existing
//!   checkpoint, run the missing items in waves on
//!   [`exec::run_indices`], checkpoint after every wave, stream live
//!   progress events, and map interrupts and failures onto
//!   [`CoreError`];
//! * a **versioned, self-describing file format**: plain JSON written
//!   with the workspace's JSON writers
//!   ([`mnsim_obs::write_json_number`] renders floats via `{:?}`, so they
//!   round-trip bit-exactly through [`mnsim_obs::parse_json`]; `u64`
//!   seeds and fingerprints are `"0x…"` hex strings because JSON numbers
//!   lose integers above 2⁵³);
//! * **campaign fingerprints** ([`fnv64`] over a canonical description)
//!   so a checkpoint is only ever resumed into the campaign that wrote
//!   it — a mismatched config, seed, or design space is a hard
//!   [`CoreError::Checkpoint`] error, never silent corruption;
//! * **atomic writes** (`write_atomic`): the file is staged to a
//!   sibling `.tmp` and renamed into place, so a crash mid-write leaves
//!   the previous checkpoint intact.
//!
//! Because every trial derives its RNG stream independently (SplitMix64
//! per-trial seeding) and reductions run in canonical index order, a
//! resumed campaign is **bit-identical** to an uninterrupted one — the
//! property the `campaign_resume` integration tests pin down.

use std::fmt::Write as _;
use std::path::Path;

use mnsim_obs as obs;
use mnsim_obs::live::LiveEvent;
use mnsim_obs::{write_json_string, JsonValue, Level};

use crate::error::{ConfigError, CoreError};
use crate::exec::{self, ExecError, Interrupt, RunControl};

/// Format version stamped into every checkpoint file. Readers reject
/// other versions outright: checkpoints are short-lived working state,
/// not archives, so there is no cross-version migration.
pub const SCHEMA_VERSION: u32 = 1;

/// A checkpoint file was written; its instant carries the completed count
/// and its live line names the path.
static CHECKPOINT_WRITTEN: obs::Mark = obs::Mark::new("checkpoint.written", Level::Run);
/// A campaign resumed from a checkpoint; its instant carries the resumed count.
static CHECKPOINT_RESUMED: obs::Mark = obs::Mark::new("checkpoint.resumed", Level::Run);

/// When and where a campaign persists its progress.
///
/// With a policy attached, the campaign writes the checkpoint after every
/// `every_n` newly completed items **and** once more when the run stops —
/// whether it finished, errored, or was interrupted — so the file always
/// reflects the latest completed work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write the checkpoint after this many newly completed items
    /// (chunk-granular; the final write on exit always happens).
    pub every_n: usize,
    /// Checkpoint file path. The write is atomic (staged via a sibling
    /// `.tmp` file), so the path never holds a torn checkpoint.
    pub path: String,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` with the default cadence (every 64 items).
    pub fn new(path: impl Into<String>) -> Self {
        CheckpointPolicy {
            every_n: 64,
            path: path.into(),
        }
    }

    /// Sets the cadence: write after every `n` newly completed items
    /// (`n` is clamped to at least 1).
    pub fn every(mut self, n: usize) -> Self {
        self.every_n = n.max(1);
        self
    }
}

/// Writes `contents` to `path` atomically: staged to a sibling
/// `<file_name>.tmp` in the same directory, then renamed over `path`.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] when the staging write or the rename fails.
fn write_atomic(path: &str, contents: &str) -> Result<(), CoreError> {
    let target = Path::new(path);
    let file_name = target
        .file_name()
        .and_then(|name| name.to_str())
        .ok_or_else(|| CoreError::Checkpoint {
            path: path.to_string(),
            reason: "path has no file name".to_string(),
        })?;
    let tmp = target.with_file_name(format!("{file_name}.tmp"));
    std::fs::write(&tmp, contents).map_err(|e| CoreError::Checkpoint {
        path: path.to_string(),
        reason: format!("staging write failed: {e}"),
    })?;
    std::fs::rename(&tmp, target).map_err(|e| CoreError::Checkpoint {
        path: path.to_string(),
        reason: format!("rename into place failed: {e}"),
    })
}

/// Reads and parses a checkpoint file.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] when the file cannot be read or is not
/// valid JSON.
fn read_json(path: &str) -> Result<JsonValue, CoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| CoreError::Checkpoint {
        path: path.to_string(),
        reason: format!("read failed: {e}"),
    })?;
    obs::parse_json(&text).map_err(|e| CoreError::Checkpoint {
        path: path.to_string(),
        reason: format!("parse failed: {e}"),
    })
}

/// Checks the `schema` and `kind` headers of a parsed checkpoint.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] when either header is missing or does not
/// match what the resuming campaign expects.
fn check_header(path: &str, value: &JsonValue, kind: &str) -> Result<(), CoreError> {
    let schema = value.get("schema").and_then(JsonValue::as_f64);
    if schema != Some(f64::from(SCHEMA_VERSION)) {
        return Err(CoreError::Checkpoint {
            path: path.to_string(),
            reason: format!(
                "unsupported schema version {:?} (this build writes {SCHEMA_VERSION})",
                schema
            ),
        });
    }
    let found = value.get("kind").and_then(JsonValue::as_str);
    if found != Some(kind) {
        return Err(CoreError::Checkpoint {
            path: path.to_string(),
            reason: format!("kind {:?} is not a {kind} checkpoint", found),
        });
    }
    Ok(())
}

/// The campaign fingerprint hash: 64-bit FNV-1a over a canonical
/// description string.
pub use mnsim_obs::fnv64;

/// Formats a `u64` as a `"0x…"` hex string — the checkpoint encoding for
/// seeds and fingerprints, which would lose precision as JSON numbers.
pub fn hex_u64(value: u64) -> String {
    format!("0x{value:016x}")
}

/// Parses the [`hex_u64`] encoding back.
fn parse_hex_u64(text: &str) -> Option<u64> {
    let digits = text.strip_prefix("0x")?;
    u64::from_str_radix(digits, 16).ok()
}

/// Extracts a required [`hex_u64`]-encoded field from a checkpoint
/// object.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] when the field is missing or malformed.
fn require_hex_u64(path: &str, value: &JsonValue, field: &str) -> Result<u64, CoreError> {
    value
        .get(field)
        .and_then(JsonValue::as_str)
        .and_then(parse_hex_u64)
        .ok_or_else(|| CoreError::Checkpoint {
            path: path.to_string(),
            reason: format!("missing or malformed `{field}` field"),
        })
}

/// How one campaign kind stores its completed items in a checkpoint.
/// The envelope around the records — header, count check, atomic write —
/// belongs to [`Campaign`]; an implementation owns only its record
/// encoding.
pub(crate) trait Record: Sized + Send {
    /// The checkpoint `kind` header.
    const KIND: &'static str;
    /// The campaign name in live-telemetry events.
    const EVENT: &'static str;
    /// The header field holding the item count.
    const COUNT_KEY: &'static str;
    /// The header field holding the record array.
    const RECORDS_KEY: &'static str;

    /// Appends the record object (`{…}`) of item `index`.
    fn encode(&self, index: usize, out: &mut String);

    /// Reads one record back: its item index (below `total`) and the item
    /// to resume, or `None` for an item that must run again.
    fn decode(record: &JsonValue, total: usize) -> Result<(usize, Option<Self>), String>;
}

/// Reads the integer field `key` of a record as an item index below
/// `total`.
pub(crate) fn record_index(record: &JsonValue, key: &str, total: usize) -> Result<usize, String> {
    record
        .get(key)
        .and_then(JsonValue::as_f64)
        .filter(|i| i.fract() == 0.0 && *i >= 0.0 && *i < total as f64)
        .map(|i| i as usize)
        .ok_or_else(|| format!("record with missing/out-of-range `{key}`"))
}

/// One run of the checkpointed campaign driver shared by fault
/// Monte-Carlo and design-space exploration.
pub(crate) struct Campaign<'a> {
    /// Items in the campaign.
    pub total: usize,
    /// Fingerprint of everything that determines the items' outcomes; a
    /// checkpoint resumes only into the campaign with the same one.
    pub fingerprint: u64,
    /// Master seed written to the header, for campaigns that have one.
    pub seed: Option<u64>,
    /// Worker threads per wave (`0` = auto).
    pub threads: usize,
    /// Cancellation token and deadline.
    pub control: &'a RunControl,
    /// Where and how often to checkpoint, if at all.
    pub policy: Option<&'a CheckpointPolicy>,
}

impl Campaign<'_> {
    /// Runs `item` for every index in `0..total` and returns the outcomes
    /// in index order.
    ///
    /// Items already in the policy's checkpoint file are loaded instead of
    /// run. The rest run in waves on [`exec::run_indices`] — `every_n`
    /// items per wave with a policy (checkpointed after each wave), the
    /// live-telemetry grain without one — so the outcome is bit-identical
    /// for every thread count, wave size and resume pattern.
    ///
    /// # Errors
    ///
    /// The earliest failing item's error, [`CoreError::WorkerPanic`] for a
    /// panicking item, [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] (naming the checkpoint) when the
    /// control plane cut the run short, [`CoreError::Config`] for an
    /// empty checkpoint path, and [`CoreError::Checkpoint`] for an
    /// unusable or mismatched checkpoint file.
    pub(crate) fn run<T, F>(&self, item: F) -> Result<Vec<T>, CoreError>
    where
        T: Record,
        F: Fn(usize) -> Result<T, CoreError> + Sync,
    {
        let total = self.total;
        let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
        if let Some(policy) = self.policy {
            if policy.path.is_empty() {
                return Err(CoreError::Config {
                    errors: vec![ConfigError {
                        field_path: "CheckpointPolicy.path".into(),
                        reason: "checkpoint path is empty".into(),
                        allowed: "a writable file path".into(),
                    }],
                });
            }
            if Path::new(&policy.path).exists() {
                let resumed = self.load(&policy.path, &mut slots)?;
                CHECKPOINT_RESUMED.record(resumed as f64);
            }
        }

        let wave_len = match self.policy {
            Some(policy) => policy.every_n.max(1),
            None => obs::live::wave_grain(total),
        };
        let remaining: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
        let mut done = total - remaining.len();
        obs::live::campaign_started(T::EVENT, total, done);
        let mut failure = None;
        let mut interrupt = None;

        for wave in remaining.chunks(wave_len.min(remaining.len().max(1))) {
            if let Some(kind) = self.control.interrupted() {
                interrupt = Some(kind);
                // An interrupted run always leaves its checkpoint on disk,
                // even when the control plane tripped before the first wave.
                self.checkpoint(&slots, done)?;
                break;
            }
            let report = exec::run_indices(wave, self.threads, self.control, &item);
            done += report.completed;
            for (position, result) in report.results.into_iter().enumerate() {
                if result.is_some() {
                    slots[wave[position]] = result;
                }
            }
            self.checkpoint(&slots, done)?;
            if report.error.is_some() {
                failure = report.error;
                break;
            }
            if report.interrupt.is_some() {
                interrupt = report.interrupt;
                break;
            }
            // Only clean waves report progress: an interrupted wave's `done`
            // depends on where the workers happened to stop, so emitting it
            // would break the cross-thread determinism contract.
            obs::live::wave_completed(done, total, self.control.deadline.map(|d| d.remaining()));
        }

        let completed = slots.iter().filter(|slot| slot.is_some()).count();
        if completed < total {
            let status = if failure.is_some() {
                "failed"
            } else {
                "interrupted"
            };
            obs::live::campaign_finished(completed, total, status);
            let error =
                failure.unwrap_or_else(|| match interrupt.or_else(|| self.control.interrupted()) {
                    Some(Interrupt::DeadlineExceeded) => {
                        ExecError::DeadlineExceeded { completed, total }
                    }
                    _ => ExecError::Cancelled { completed, total },
                });
            return Err(error.into_core(self.policy.map(|policy| policy.path.clone())));
        }
        obs::live::campaign_finished(total, total, "complete");
        // `map` collects in place, reusing the slots' allocation.
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("a complete campaign has every item"))
            .collect())
    }

    /// Writes the checkpoint (when a policy is set) and records the write.
    fn checkpoint<T: Record>(&self, slots: &[Option<T>], done: usize) -> Result<(), CoreError> {
        if let Some(policy) = self.policy {
            self.write(&policy.path, slots)?;
            CHECKPOINT_WRITTEN.record_live(done as f64, || LiveEvent::CheckpointWritten {
                path: policy.path.clone(),
                completed: done,
            });
        }
        Ok(())
    }

    /// Writes the completed slots atomically in the versioned checkpoint
    /// format: the schema/kind/fingerprint header, the item count, and one
    /// record per completed item.
    pub(crate) fn write<T: Record>(
        &self,
        path: &str,
        slots: &[Option<T>],
    ) -> Result<(), CoreError> {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"schema\": {SCHEMA_VERSION},\n  \"kind\": \"{}\",\n  \"fingerprint\": ",
            T::KIND
        );
        write_json_string(&mut out, &hex_u64(self.fingerprint));
        if let Some(seed) = self.seed {
            out.push_str(",\n  \"seed\": ");
            write_json_string(&mut out, &hex_u64(seed));
        }
        let _ = write!(
            out,
            ",\n  \"{}\": {},\n  \"{}\": [",
            T::COUNT_KEY,
            slots.len(),
            T::RECORDS_KEY
        );
        let mut written = 0usize;
        for (index, slot) in slots.iter().enumerate() {
            let Some(item) = slot else { continue };
            out.push_str(if written == 0 { "\n    " } else { ",\n    " });
            item.encode(index, &mut out);
            written += 1;
        }
        if written > 0 {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        write_atomic(path, &out)
    }

    /// Loads a checkpoint into `slots`, verifying it belongs to this exact
    /// campaign. Returns the number of items resumed.
    pub(crate) fn load<T: Record>(
        &self,
        path: &str,
        slots: &mut [Option<T>],
    ) -> Result<usize, CoreError> {
        let malformed = |reason: String| CoreError::Checkpoint {
            path: path.to_string(),
            reason,
        };
        let value = read_json(path)?;
        check_header(path, &value, T::KIND)?;
        let found = require_hex_u64(path, &value, "fingerprint")?;
        if found != self.fingerprint {
            return Err(malformed(format!(
                "fingerprint {} does not match this campaign ({}); refusing to resume a \
                 different configuration",
                hex_u64(found),
                hex_u64(self.fingerprint),
            )));
        }
        let count = value.get(T::COUNT_KEY).and_then(JsonValue::as_f64);
        if count != Some(slots.len() as f64) {
            return Err(malformed(format!(
                "`{}` {count:?} does not match this campaign ({})",
                T::COUNT_KEY,
                slots.len()
            )));
        }
        let records = value
            .get(T::RECORDS_KEY)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed(format!("missing `{}` array", T::RECORDS_KEY)))?;
        let mut resumed = 0usize;
        for record in records {
            let (index, item) = T::decode(record, slots.len()).map_err(malformed)?;
            if let Some(item) = item {
                slots[index] = Some(item);
                resumed += 1;
            }
        }
        Ok(resumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builders() {
        let policy = CheckpointPolicy::new("/tmp/ck.json");
        assert_eq!(policy.every_n, 64);
        assert_eq!(policy.path, "/tmp/ck.json");
        assert_eq!(policy.clone().every(3).every_n, 3);
        assert_eq!(policy.every(0).every_n, 1, "cadence clamps to 1");
    }

    #[test]
    fn hex_u64_round_trips() {
        for value in [0u64, 1, 0x00C0_FFEE, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            assert_eq!(parse_hex_u64(&hex_u64(value)), Some(value));
        }
        assert_eq!(parse_hex_u64("123"), None);
        assert_eq!(parse_hex_u64("0xzz"), None);
    }

    #[test]
    fn fnv64_is_stable_and_sensitive() {
        // Pinned value: the fingerprint must never change across builds,
        // or every existing checkpoint would be rejected.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"trials=8"), fnv64(b"trials=9"));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("mnsim_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ck.json");
        let path = path.to_str().expect("utf-8 path");

        let mut body = String::from("{\"schema\": 1, \"kind\": \"fault_mc\", \"seed\": ");
        write_json_string(&mut body, &hex_u64(0x00C0_FFEE));
        body.push('}');
        write_atomic(path, &body).expect("write");

        let value = read_json(path).expect("read");
        check_header(path, &value, "fault_mc").expect("header");
        assert_eq!(require_hex_u64(path, &value, "seed").expect("seed"), 0x00C0_FFEE);
        assert!(check_header(path, &value, "dse").is_err());
        assert!(require_hex_u64(path, &value, "missing").is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_and_bad_json_are_typed_errors() {
        match read_json("/nonexistent/dir/ck.json") {
            Err(CoreError::Checkpoint { path, .. }) => {
                assert_eq!(path, "/nonexistent/dir/ck.json");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }
}
