//! The worker pool: the one parallel-map engine of the workspace.
//!
//! [`run_indices`] fans out every batch the
//! [`crate::simulator::Simulator`] facade runs — fault-campaign trials,
//! design-space points, validation matrices — under one determinism
//! contract:
//!
//! * **Work-stealing chunk queue.** Items are handed out in chunks from a
//!   single atomic cursor, so a slow item never idles the other workers
//!   the way static chunking does.
//! * **Deterministic reduction.** Results come back in request order, so
//!   callers reduce in canonical order and aggregates are
//!   **bit-identical** to the serial loop for every thread count.
//! * **Earliest-index errors.** When items can fail, the error reported
//!   is the one belonging to the earliest item in request order — the
//!   exact error a serial loop reports — regardless of which thread hit
//!   it first. Parallel runs still evaluate every item (coverage is
//!   never silently dropped by a failure elsewhere).
//! * **Control plane.** A cooperative [`CancelToken`] and a per-run
//!   [`Deadline`] are checked at chunk boundaries, and a panic in one
//!   item surfaces as a typed [`ExecError::WorkerPanic`] while every
//!   sibling result is kept. The returned [`MapReport`] says exactly
//!   which items completed — the substrate the checkpointed campaign
//!   driver ([`crate::checkpoint`]) builds on.
//! * **Trace affinity.** Workers pin deterministic trace lanes (one
//!   block reserved per pool via [`trace::reserve_lanes`]) and open one
//!   `exec.chunk` span per chunk ([`mnsim_obs::Level::Chunk`]) parented
//!   on the caller's innermost span, so cross-thread work stays
//!   attributed to the run that spawned it; the same span's histogram is
//!   the workers' busy time.
//! * **Pool effectiveness metrics.** With a metrics session open the pool
//!   also records per-worker idle time between chunks
//!   (`exec.worker.idle`), the queue depth after each chunk claim
//!   (`exec.queue.depth`), and a per-pool chunk-imbalance gauge
//!   (`exec.chunk_imbalance`, `(max − min) / mean` of per-worker item
//!   counts). These are timing telemetry — useful for judging the chunk
//!   queue, never part of the determinism contract.
//!
//! With one thread (or one item) the pool degenerates to the plain serial
//! loop on the calling thread: no spawn, no chunk spans, no queue.
//!
//! One simulation never uses the pool: its banks cost microseconds each,
//! below the grain where spawning workers pays off, so
//! [`crate::simulate::simulate`] evaluates them serially.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mnsim_obs as obs;
use mnsim_obs::{trace, Level};

/// The interrupts and panics that cut a map short; each instant carries
/// the number of items completed.
static EXEC_CANCELLED: obs::Mark = obs::Mark::new("exec.cancelled", Level::Run);
static EXEC_DEADLINE_EXCEEDED: obs::Mark = obs::Mark::new("exec.deadline_exceeded", Level::Run);
static EXEC_WORKER_PANICS: obs::Mark = obs::Mark::new("exec.worker_panics", Level::Run);
/// One chunk of items on one worker: the workers' busy time.
static EXEC_CHUNK: obs::Span = obs::Span::new("exec.chunk", Level::Chunk);
/// Per-worker self-time between finishing one chunk and claiming the
/// next (queue/cursor contention; excludes the post-queue drain).
static EXEC_WORKER_IDLE: obs::Span = obs::Span::new("exec.worker.idle", Level::Chunk);
/// Items left in the queue after the most recent chunk claim.
static EXEC_QUEUE_DEPTH: obs::Gauge = obs::Gauge::new("exec.queue.depth");
/// `(max − min) / mean` of per-worker item counts for the most recent
/// parallel pool — 0.0 is a perfectly balanced run.
static EXEC_CHUNK_IMBALANCE: obs::Gauge = obs::Gauge::new("exec.chunk_imbalance");

/// Chunks handed out per worker on average; >1 lets the queue rebalance
/// around slow items, while keeping per-chunk overhead negligible.
const CHUNKS_PER_WORKER: usize = 4;

/// Execution options of the [`crate::simulator::Simulator`] facade, the
/// one knob every workload shares.
///
/// `threads` sizes the worker pool that fans out fault trials, DSE
/// points and validation matrices; a plain simulation has nothing to fan
/// out and always runs on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Worker threads: `0` uses the machine's available parallelism, `1`
    /// forces the serial path. Results are bit-identical either way.
    pub threads: usize,
    /// Collect an observability snapshot and attach it to the report
    /// (honored by [`crate::simulator::Simulator`], which owns the
    /// exclusive metrics session).
    pub metrics: bool,
    /// Record a hierarchical trace and attach its summary to the report
    /// (honored by [`crate::simulator::Simulator`], which owns the
    /// exclusive trace session).
    pub trace: bool,
}

impl Default for ExecOptions {
    /// Auto thread count, no metrics, no trace.
    fn default() -> Self {
        ExecOptions {
            threads: 0,
            metrics: false,
            trace: false,
        }
    }
}

impl ExecOptions {
    /// Single-threaded execution, no metrics, no trace.
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            ..ExecOptions::default()
        }
    }

    /// A fixed worker-thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }
}

/// Resolves the `0 = auto` convention against the machine.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A cooperative cancellation token shared between a campaign driver and
/// the worker pool executing it.
///
/// Cancellation is **cooperative and chunk-granular**: workers check the
/// token at chunk boundaries (and the serial path before every item), so
/// a cancelled run stops promptly but never mid-item — every item either
/// ran to completion or did not run at all, which is what makes
/// checkpoint/resume bit-identical.
///
/// Tokens are cheap to clone; clones share the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Remaining item budget for [`CancelToken::after_items`];
    /// `usize::MAX` means "no budget" (only explicit [`CancelToken::cancel`]).
    budget: AtomicUsize,
}

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner {
            cancelled: AtomicBool::new(false),
            budget: AtomicUsize::new(usize::MAX),
        }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that cancels itself once `items` work items have completed
    /// under it — a deterministic way to interrupt a run mid-flight
    /// (used heavily by the resume-equivalence tests). The cut is
    /// chunk-granular: a parallel run may complete a few more items than
    /// `items` before the workers observe the trip.
    pub fn after_items(items: usize) -> Self {
        let token = CancelToken::new();
        token.inner.budget.store(items, Ordering::Relaxed);
        if items == 0 {
            token.inner.cancelled.store(true, Ordering::Relaxed);
        }
        token
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// chunk boundary of any run observing this token.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (or the item budget of
    /// [`CancelToken::after_items`] is exhausted).
    pub(crate) fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Deducts `items` completed work items from the budget, tripping the
    /// token when the budget reaches zero. No-op for budget-less tokens.
    fn note_completed(&self, items: usize) {
        if items == 0 {
            return;
        }
        let updated = self.inner.budget.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |budget| {
                if budget == usize::MAX {
                    None // unlimited: leave untouched
                } else {
                    Some(budget.saturating_sub(items))
                }
            },
        );
        if let Ok(previous) = updated {
            if previous <= items {
                self.inner.cancelled.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// A wall-clock deadline for a run; checked at the same chunk boundaries
/// as [`CancelToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `duration` from now.
    pub fn after(duration: Duration) -> Self {
        Deadline {
            at: Instant::now() + duration,
        }
    }

    /// A deadline `millis` milliseconds from now (the CLI convention:
    /// `--deadline-ms`).
    pub fn after_millis(millis: u64) -> Self {
        Deadline::after(Duration::from_millis(millis))
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: instant }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Why a run stopped before evaluating every item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// A [`CancelToken`] tripped.
    Cancelled,
    /// A [`Deadline`] expired.
    DeadlineExceeded,
}

/// The per-run control plane: an optional cancellation token and an
/// optional deadline, observed by [`run_indices`].
///
/// The default control (no token, no deadline) never interrupts.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation, if the caller wants to be able to stop
    /// the run.
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget, if the run must finish by a certain time.
    pub deadline: Option<Deadline>,
}

impl RunControl {
    /// A control plane that never interrupts.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// A control plane observing `token`.
    pub fn with_cancel(token: CancelToken) -> Self {
        RunControl {
            cancel: Some(token),
            deadline: None,
        }
    }

    /// Adds (or replaces) the cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Adds (or replaces) the deadline.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Checks both signals: cancellation wins over the deadline when both
    /// have fired (the caller asked first).
    pub fn interrupted(&self) -> Option<Interrupt> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(Interrupt::Cancelled);
        }
        if self.deadline.as_ref().is_some_and(Deadline::expired) {
            return Some(Interrupt::DeadlineExceeded);
        }
        None
    }
}

/// A typed failure from a controlled run. `E` is the caller's item error
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError<E> {
    /// The earliest failing item's own error — the exact error a serial
    /// loop would have reported.
    Item {
        /// The item index (in the caller's index space) that failed.
        index: usize,
        /// The item's error.
        error: E,
    },
    /// A worker closure panicked on one item. The other items' results
    /// were collected intact; only this item is lost.
    WorkerPanic {
        /// The item index whose closure panicked.
        index: usize,
        /// The panic payload, stringified (`&str` / `String` payloads are
        /// preserved verbatim).
        payload: String,
    },
    /// The run was cancelled before evaluating every item.
    Cancelled {
        /// Items that ran to completion before the cut.
        completed: usize,
        /// Items requested.
        total: usize,
    },
    /// The run's deadline expired before evaluating every item.
    DeadlineExceeded {
        /// Items that ran to completion before the cut.
        completed: usize,
        /// Items requested.
        total: usize,
    },
}

impl<E: fmt::Display> fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Item { index, error } => write!(f, "item {index}: {error}"),
            ExecError::WorkerPanic { index, payload } => {
                write!(f, "worker panicked on item {index}: {payload}")
            }
            ExecError::Cancelled { completed, total } => {
                write!(f, "run cancelled after {completed}/{total} items")
            }
            ExecError::DeadlineExceeded { completed, total } => {
                write!(f, "deadline exceeded after {completed}/{total} items")
            }
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for ExecError<E> {}

/// The full outcome of a [`run_indices`] run: per-item results, the
/// earliest failure (if any), and whether the run was interrupted.
///
/// Nothing is discarded: a panic or error on one item leaves the sibling
/// results in [`MapReport::results`], and an interrupted run reports
/// exactly which items completed — the substrate checkpoint/resume
/// builds on. [`MapReport::into_result`] collapses it for callers that
/// only want the results or the first failure.
#[derive(Debug)]
pub struct MapReport<R, E> {
    /// One slot per requested index, in request order: `Some` iff that
    /// item ran to successful completion.
    pub results: Vec<Option<R>>,
    /// The earliest-index item failure or worker panic, if any.
    pub error: Option<ExecError<E>>,
    /// Why the run stopped early, if it did. Only set when at least one
    /// requested item did **not** complete: a cancellation that lands
    /// after the last item is not an interruption.
    pub interrupt: Option<Interrupt>,
    /// Number of `Some` entries in [`MapReport::results`].
    pub completed: usize,
    /// Number of requested items.
    pub total: usize,
}

impl<R, E> MapReport<R, E> {
    /// Collapses the report into the classic `Result`: item errors and
    /// panics win over interrupts (both report the earliest failure a
    /// serial loop would have hit); an interrupt with no failure maps to
    /// [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`]; a
    /// clean, complete run yields the results in index order.
    pub fn into_result(self) -> Result<Vec<R>, ExecError<E>> {
        if let Some(error) = self.error {
            return Err(error);
        }
        match self.interrupt {
            Some(Interrupt::Cancelled) => Err(ExecError::Cancelled {
                completed: self.completed,
                total: self.total,
            }),
            Some(Interrupt::DeadlineExceeded) => Err(ExecError::DeadlineExceeded {
                completed: self.completed,
                total: self.total,
            }),
            None => Ok(self
                .results
                .into_iter()
                .map(|slot| slot.expect("complete un-failed run has every result"))
                .collect()),
        }
    }
}

/// How a single item finished inside the controlled engine.
enum ItemOutcome<R, E> {
    Ok(R),
    Err(E),
    Panic(String),
}

/// Renders a caught panic payload for [`ExecError::WorkerPanic`].
fn panic_payload_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(index)` for every index in `indices` under `control` on up to
/// `threads` workers (`0` = auto): the chunk queue, deterministic
/// reduction, trace affinity, cancellation, deadline enforcement and
/// per-item panic isolation described in the [module docs](self).
///
/// `indices` is the caller's index space (e.g. the trials still missing
/// from a checkpoint); results align positionally with it. The earliest
/// failure is judged by position in `indices`, so pass indices in
/// ascending order to preserve the serial-loop error contract.
///
/// Control signals are checked before every chunk claim (every item on
/// the serial path); a tripped signal stops further claims but never
/// abandons an item mid-evaluation. Panics in `f` are caught per item and
/// surfaced as [`ExecError::WorkerPanic`] while sibling results are kept.
pub fn run_indices<R, E, F>(
    indices: &[usize],
    threads: usize,
    control: &RunControl,
    f: F,
) -> MapReport<R, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let total = indices.len();
    let threads = resolve_threads(threads).min(total.max(1));
    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut failure: Option<(usize, ExecError<E>)> = None;

    if threads <= 1 {
        // Serial path: per-item control checks, stop at the first failure
        // exactly like the legacy serial loop.
        for (position, &index) in indices.iter().enumerate() {
            if control.interrupted().is_some() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(index))) {
                Ok(Ok(result)) => {
                    results[position] = Some(result);
                    if let Some(token) = &control.cancel {
                        token.note_completed(1);
                    }
                }
                Ok(Err(error)) => {
                    failure = Some((position, ExecError::Item { index, error }));
                    break;
                }
                Err(payload) => {
                    failure = Some((
                        position,
                        ExecError::WorkerPanic {
                            index,
                            payload: panic_payload_string(payload),
                        },
                    ));
                    break;
                }
            }
        }
    } else {
        let parent = trace::current_span();
        let lane_base = trace::reserve_lanes(threads as u64);
        let chunk = total.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, ItemOutcome<R, E>)>> =
            Mutex::new(Vec::with_capacity(total));
        // Pool-effectiveness metrics (idle time, queue depth, chunk
        // imbalance) cost `Instant::now` calls per chunk, so they are
        // gated on the metrics session being open at pool start.
        let instrument = obs::enabled();
        let worker_items: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();

        let f_ref = &f;
        let cursor_ref = &cursor;
        let collected_ref = &collected;
        let worker_items_ref = &worker_items;
        std::thread::scope(|scope| {
            for (worker, items_done) in worker_items_ref.iter().enumerate() {
                scope.spawn(move || {
                    trace::pin_lane(lane_base + worker as u64);
                    let mut local: Vec<(usize, ItemOutcome<R, E>)> = Vec::new();
                    let mut idle_since = instrument.then(Instant::now);
                    loop {
                        if control.interrupted().is_some() {
                            break;
                        }
                        let start = cursor_ref.fetch_add(chunk, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + chunk).min(total);
                        if let Some(since) = idle_since.take() {
                            EXEC_WORKER_IDLE.record_seconds(since.elapsed().as_secs_f64());
                            EXEC_QUEUE_DEPTH.set(total.saturating_sub(end) as f64);
                        }
                        let chunk_span = EXEC_CHUNK.enter_under((start / chunk) as i64, parent);
                        let mut chunk_completed = 0usize;
                        for (position, &index) in
                            indices.iter().enumerate().take(end).skip(start)
                        {
                            match catch_unwind(AssertUnwindSafe(|| f_ref(index))) {
                                Ok(Ok(result)) => {
                                    chunk_completed += 1;
                                    local.push((position, ItemOutcome::Ok(result)));
                                }
                                Ok(Err(error)) => {
                                    local.push((position, ItemOutcome::Err(error)));
                                }
                                Err(payload) => {
                                    local.push((
                                        position,
                                        ItemOutcome::Panic(panic_payload_string(payload)),
                                    ));
                                }
                            }
                        }
                        drop(chunk_span);
                        if let Some(token) = &control.cancel {
                            token.note_completed(chunk_completed);
                        }
                        if instrument {
                            items_done.fetch_add(end - start, Ordering::Relaxed);
                            idle_since = Some(Instant::now());
                        }
                    }
                    collected_ref
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(local);
                });
            }
        });

        if instrument {
            let counts: Vec<usize> = worker_items
                .iter()
                .map(|items| items.load(Ordering::Relaxed))
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
            let imbalance = if mean > 0.0 {
                (max - min) as f64 / mean
            } else {
                0.0
            };
            EXEC_CHUNK_IMBALANCE.set(imbalance);
        }

        let collected = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for (position, outcome) in collected {
            match outcome {
                ItemOutcome::Ok(result) => results[position] = Some(result),
                ItemOutcome::Err(error) => {
                    let candidate = ExecError::Item {
                        index: indices[position],
                        error,
                    };
                    if failure.as_ref().is_none_or(|(at, _)| position < *at) {
                        failure = Some((position, candidate));
                    }
                }
                ItemOutcome::Panic(payload) => {
                    let candidate = ExecError::WorkerPanic {
                        index: indices[position],
                        payload,
                    };
                    if failure.as_ref().is_none_or(|(at, _)| position < *at) {
                        failure = Some((position, candidate));
                    }
                }
            }
        }
    }

    let completed = results.iter().filter(|slot| slot.is_some()).count();
    let error = failure.map(|(_, error)| error);
    if matches!(error, Some(ExecError::WorkerPanic { .. })) {
        EXEC_WORKER_PANICS.record(completed as f64);
    }
    // An interrupt only counts if it actually cut work short: a token
    // that trips after the final item leaves the run complete.
    let interrupt = match control.interrupted() {
        Some(kind) if completed < total && error.is_none() => {
            let mark = match kind {
                Interrupt::Cancelled => &EXEC_CANCELLED,
                Interrupt::DeadlineExceeded => &EXEC_DEADLINE_EXCEEDED,
            };
            mark.record(completed as f64);
            Some(kind)
        }
        _ => None,
    };

    MapReport {
        results,
        error,
        interrupt,
        completed,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// `f` over `0..n` with no control plane, collapsed to a `Result`.
    fn map<R: Send, E: Send>(
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, ExecError<E>> {
        let indices: Vec<usize> = (0..n).collect();
        run_indices(&indices, threads, &RunControl::new(), f).into_result()
    }

    #[test]
    fn defaults_and_builders() {
        let d = ExecOptions::default();
        assert_eq!(d.threads, 0);
        assert!(!d.metrics && !d.trace);
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(7).threads, 7);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn results_are_in_order_for_every_thread_count() {
        let expected: Vec<usize> = (0..103).map(|i| i * i).collect();
        for threads in [1, 2, 3, 7, 64] {
            let out = map::<_, Infallible>(103, threads, |i| Ok(i * i)).unwrap();
            assert_eq!(out, expected, "threads={threads}");
        }
        assert_eq!(
            map::<usize, Infallible>(0, 4, Ok).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(map::<_, Infallible>(1, 4, |i| Ok(i + 1)).unwrap(), vec![1]);
        // A caller's own index space: results align with `indices`.
        let report =
            run_indices::<_, Infallible, _>(&[4, 9, 2], 2, &RunControl::new(), |i| Ok(i * 10));
        assert_eq!(report.into_result().unwrap(), vec![40, 90, 20]);
    }

    #[test]
    fn earliest_error_wins_for_every_thread_count() {
        // Items 5 and 11 fail; every thread count must report item 5.
        for threads in [1, 2, 7, 64] {
            let err = map::<usize, String>(16, threads, |i| {
                if i == 5 || i == 11 {
                    Err(format!("item {i} failed"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::Item {
                    index: 5,
                    error: "item 5 failed".to_string()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_run_evaluates_every_item_despite_errors() {
        use std::sync::atomic::AtomicUsize;
        let evaluated = AtomicUsize::new(0);
        let result = map::<(), &str>(40, 4, |i| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err("first item fails")
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
        assert_eq!(evaluated.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn worker_panic_is_isolated_and_siblings_survive() {
        for threads in [1, 2, 7] {
            let report = run_indices::<usize, &str, _>(
                &(0..24).collect::<Vec<_>>(),
                threads,
                &RunControl::new(),
                |i| {
                    if i == 9 {
                        panic!("trial 9 exploded");
                    }
                    Ok(i * 2)
                },
            );
            match &report.error {
                Some(ExecError::WorkerPanic { index, payload }) => {
                    assert_eq!(*index, 9, "threads={threads}");
                    assert_eq!(payload, "trial 9 exploded", "threads={threads}");
                }
                other => panic!("expected WorkerPanic, got {other:?} (threads={threads})"),
            }
            if threads > 1 {
                // Parallel runs keep evaluating: every sibling result is
                // present despite the panic.
                assert_eq!(report.completed, 23, "threads={threads}");
                for (i, slot) in report.results.iter().enumerate() {
                    if i == 9 {
                        assert!(slot.is_none());
                    } else {
                        assert_eq!(*slot, Some(i * 2), "threads={threads}");
                    }
                }
            } else {
                // Serial stops at the failure, exactly like a plain loop.
                assert_eq!(report.completed, 9);
            }
            assert!(report.interrupt.is_none());
        }
    }

    #[test]
    fn budget_token_cancels_mid_run_and_reports_completed() {
        for threads in [1, 2, 7] {
            let token = CancelToken::after_items(5);
            let control = RunControl::with_cancel(token.clone());
            let report =
                run_indices::<usize, Infallible, _>(&(0..64).collect::<Vec<_>>(), threads, &control, Ok);
            assert!(token.is_cancelled(), "threads={threads}");
            assert_eq!(report.interrupt, Some(Interrupt::Cancelled), "threads={threads}");
            assert!(report.completed >= 5, "threads={threads}");
            assert!(report.completed < 64, "threads={threads}");
            // Everything that completed is reported.
            assert_eq!(
                report.results.iter().filter(|s| s.is_some()).count(),
                report.completed
            );
            match report.into_result() {
                Err(ExecError::Cancelled { completed, total: 64 }) if completed < 64 => {}
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancellation_after_last_item_is_not_an_interrupt() {
        let token = CancelToken::after_items(8);
        let control = RunControl::with_cancel(token.clone());
        let report =
            run_indices::<usize, Infallible, _>(&(0..8).collect::<Vec<_>>(), 1, &control, Ok);
        assert!(token.is_cancelled());
        assert!(report.interrupt.is_none());
        assert_eq!(report.completed, 8);
        assert_eq!(report.into_result().unwrap().len(), 8);
    }

    #[test]
    fn expired_deadline_stops_the_run_before_work() {
        for threads in [1, 4] {
            let control = RunControl::new().deadline(Deadline::after_millis(0));
            std::thread::sleep(Duration::from_millis(2));
            let evaluated = AtomicUsize::new(0);
            let report = run_indices::<usize, Infallible, _>(
                &(0..32).collect::<Vec<_>>(),
                threads,
                &control,
                |i| {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
            );
            assert_eq!(report.interrupt, Some(Interrupt::DeadlineExceeded));
            assert_eq!(report.completed, 0, "threads={threads}");
            assert_eq!(evaluated.load(Ordering::Relaxed), 0, "threads={threads}");
            match report.into_result() {
                Err(ExecError::DeadlineExceeded { completed: 0, total: 32 }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn deadline_remaining_and_expiry() {
        let deadline = Deadline::after(Duration::from_secs(3600));
        assert!(!deadline.expired());
        assert!(deadline.remaining() > Duration::from_secs(3500));
        let past = Deadline::at(Instant::now());
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn thread_count_does_not_change_float_reductions() {
        // The canonical-order reduction makes even non-associative float
        // folds bit-identical across thread counts.
        let terms = |threads| map::<_, Infallible>(1000, threads, |i| Ok((i as f64).sqrt() * 0.1));
        let serial: f64 = terms(1).unwrap().iter().sum();
        for threads in [2, 7, 64] {
            let parallel: f64 = terms(threads).unwrap().iter().sum();
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads={threads}");
        }
    }
}
