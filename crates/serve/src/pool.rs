//! The worker pool: panic-isolated threads draining the bounded job
//! queue of *complete, parsed requests*.
//!
//! Under the readiness core the pool never touches a socket. The event
//! loop ([`crate::server`]) owns every connection, parses requests
//! incrementally, and enqueues a [`Job`] — one connection's batch of
//! complete requests — only when there is real work. A worker executes
//! the batch (each request wrapped in `catch_unwind` so a panicking
//! conversion answers `500` and the worker survives), serializes the
//! responses, and pushes a [`Done`] onto the [`CompletionQueue`], waking
//! the event loop to write the bytes out.
//!
//! Ordering guarantee for observability: a request's span closes and its
//! request series records *before* its response bytes can reach
//! the peer — the worker records first and only then publishes the
//! completion, and the loop writes only published completions. That is
//! what keeps the span ≡ counter consistency tests exact on this core.
//!
//! Workers exit when the queue disconnects (the event loop drops the
//! sending side after draining), which by [`webre_substrate::sync`]'s
//! contract happens only after every queued job has been drained.

use crate::admission::Admission;
use crate::handlers::{handle_routed, App, Routed};
use crate::router::OTHER;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use webre_obs::{scoped, span, stage, Ctx};
use webre_substrate::http::{write_response, HttpError, Response};
use webre_substrate::sync::Receiver;

/// One connection's batch of complete requests, headed for a worker.
#[derive(Debug)]
pub struct Job {
    /// Generation-tagged connection token (slot index + generation).
    pub token: u64,
    /// Complete requests in arrival order; never empty.
    pub requests: Vec<Routed>,
}

/// A worker's finished batch: serialized responses ready to write.
#[derive(Debug)]
pub struct Done {
    /// Token of the connection the bytes belong to. If the connection
    /// was reaped meanwhile the generation check drops the bytes.
    pub token: u64,
    /// Concatenated serialized responses, in request order.
    pub bytes: Vec<u8>,
    /// Whether the connection may continue after these responses.
    pub keep_alive: bool,
}

/// The worker → event-loop completion channel, with a wake-up side
/// channel so the loop never sleeps on `epoll` while results wait.
///
/// The sleep/wake handshake avoids lost wake-ups without locking the
/// queue around the poller: the loop stores `sleeping = true` *before*
/// its final emptiness check, and a worker loads `sleeping` *after* its
/// push (both `SeqCst`), so every push either lands before the final
/// check or observes `sleeping` and writes the wake byte.
pub struct CompletionQueue {
    queue: Mutex<VecDeque<Done>>,
    sleeping: AtomicBool,
    #[cfg(unix)]
    waker: Mutex<Option<std::os::unix::net::UnixStream>>,
}

impl CompletionQueue {
    /// An empty queue with no waker attached yet.
    pub fn new() -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(VecDeque::new()),
            sleeping: AtomicBool::new(false),
            #[cfg(unix)]
            waker: Mutex::new(None),
        }
    }

    /// Attaches the write half of the event loop's wake pipe
    /// (non-blocking). Without one, `wake` is a no-op and the loop's
    /// bounded poll timeout provides the latency floor instead.
    #[cfg(unix)]
    pub fn set_waker(&self, stream: std::os::unix::net::UnixStream) {
        *lock_or_recover(&self.waker) = Some(stream);
    }

    /// Publishes a completion and wakes the loop if it may be asleep.
    pub fn push(&self, done: Done) {
        lock_or_recover(&self.queue).push_back(done);
        if self.sleeping.load(Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Moves every pending completion into `out`.
    pub fn drain_into(&self, out: &mut Vec<Done>) {
        let mut queue = lock_or_recover(&self.queue);
        out.extend(queue.drain(..));
    }

    /// Declares intent to sleep; returns `false` (and cancels the
    /// intent) if completions are already pending, in which case the
    /// caller must not block.
    pub fn pre_wait(&self) -> bool {
        self.sleeping.store(true, Ordering::SeqCst);
        if lock_or_recover(&self.queue).is_empty() {
            true
        } else {
            self.sleeping.store(false, Ordering::SeqCst);
            false
        }
    }

    /// Clears the sleep intent after the poller returns.
    pub fn post_wait(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Nudges the event loop out of its poller wait. Also used by
    /// [`crate::server::Server::request_drain`] so a drain request is
    /// noticed immediately rather than on the next timeout sweep.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            if let Some(stream) = lock_or_recover(&self.waker).as_mut() {
                // A full pipe means a wake-up is already pending, and a
                // broken one means the loop is gone — both are fine;
                // webre::allow(dropped-result): wake is level-triggered
                let _ = stream.write(&[1]);
            }
        }
    }
}

impl Default for CompletionQueue {
    fn default() -> Self {
        CompletionQueue::new()
    }
}

/// Locks a mutex, recovering from poisoning: queue state is plain data
/// and remains consistent even if a holder panicked mid-push.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Handles to the running workers.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads consuming request batches from `jobs`.
    /// Fails if the OS refuses a thread; already-spawned workers then
    /// exit via the dropped receiver, so nothing leaks.
    pub fn spawn(
        workers: usize,
        jobs: Receiver<Job>,
        app: Arc<App>,
        admission: Arc<Admission>,
        completions: Arc<CompletionQueue>,
    ) -> io::Result<Self> {
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let jobs = jobs.clone();
            let app = Arc::clone(&app);
            let admission = Arc::clone(&admission);
            let completions = Arc::clone(&completions);
            let handle = std::thread::Builder::new()
                .name(format!("webre-serve-worker-{i}"))
                .spawn(move || worker_loop(&jobs, &app, &admission, &completions))?;
            handles.push(handle);
        }
        Ok(WorkerPool { handles })
    }

    /// Waits for every worker to exit (the queue must be closed first or
    /// this blocks forever).
    pub fn join(self) {
        for handle in self.handles {
            // A worker that somehow panicked outside catch_unwind is
            // already dead; joining it must not cascade.
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    jobs: &Receiver<Job>,
    app: &App,
    admission: &Admission,
    completions: &CompletionQueue,
) {
    while let Some(job) = jobs.recv() {
        let n = job.requests.len();
        app.metrics.queue_depth.fetch_sub(n as i64, Ordering::Relaxed);
        admission.dequeued(n);
        let busy = Instant::now();
        let mut bytes = Vec::new();
        let mut keep_alive = true;
        for routed in &job.requests {
            let (response, keep) = execute(app, Some(admission), routed);
            bytes.extend_from_slice(&response);
            keep_alive = keep;
            if !keep {
                // The peer asked to close (or drain started): anything
                // pipelined after this request is void.
                break;
            }
        }
        app.metrics
            .busy_ns
            .fetch_add(busy.elapsed().as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        completions.push(Done { token: job.token, bytes, keep_alive });
    }
}

/// Executes one request end to end: span, panic isolation, latency
/// recording, serialization. Shared by the workers and the event loop's
/// inline fast path (which passes `admission: None` so microsecond
/// fast-path requests cannot skew the queued-service-time EWMA).
pub(crate) fn execute(
    app: &App,
    admission: Option<&Admission>,
    routed: &Routed,
) -> (Vec<u8>, bool) {
    let request = &routed.request;
    // Only worker-path requests count as in-flight: the inline fast
    // path serves `/metrics` itself, and counting it would make every
    // scrape observe its own request (the gauge would never read 0).
    if admission.is_some() {
        app.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    }
    let started = Instant::now();
    // The request span opens and closes inside the unwind guard, so a
    // panicking handler still ends its span during unwinding and the
    // span tally matches `requests_total` exactly.
    let (endpoint, response) = match catch_unwind(AssertUnwindSafe(|| {
        scoped(Ctx::new(app.obs.recorder()), || {
            span(stage::REQUEST, || handle_routed(app, routed))
        })
    })) {
        Ok(response) => (routed.route.as_ref().map_or(OTHER, |r| *r as usize), response),
        Err(_) => {
            app.metrics.panics.fetch_add(1, Ordering::Relaxed);
            (
                OTHER,
                Response::text(
                    500,
                    "internal error: request handler panicked (worker recovered)\n",
                ),
            )
        }
    };
    let elapsed = started.elapsed();
    app.obs.stats().record_request(endpoint, elapsed);
    if let Some(admission) = admission {
        admission.observe(elapsed);
        app.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
    // Once draining, close connections after the in-flight response so
    // keep-alive clients cannot hold the drain open.
    let keep_alive = request.keep_alive() && !app.is_draining();
    (serialize_response(&response, keep_alive), keep_alive)
}

/// Serializes a response into bytes for the event loop to write.
pub(crate) fn serialize_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    // writing into a Vec cannot fail;
    // webre::allow(dropped-result): Vec<u8>'s Write impl is infallible
    let _ = write_response(&mut bytes, response, keep_alive);
    bytes
}

/// Maps a codec error to the response the peer receives.
pub(crate) fn error_response(error: &HttpError) -> Response {
    match error {
        HttpError::TooLarge { limit } => Response::text(
            413,
            format!("request exceeds the {limit}-byte body limit\n"),
        ),
        HttpError::Malformed(detail) => Response::text(400, format!("{detail}\n")),
        HttpError::Unsupported(detail) => Response::text(400, format!("unsupported: {detail}\n")),
        // Timeouts and truncated reads land here; 408 tells well-behaved
        // peers to retry on a fresh connection.
        HttpError::Io(detail) => Response::text(408, format!("{detail}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_map_to_expected_statuses() {
        assert_eq!(error_response(&HttpError::TooLarge { limit: 9 }).status, 413);
        assert_eq!(error_response(&HttpError::Malformed("x".into())).status, 400);
        assert_eq!(error_response(&HttpError::Unsupported("x".into())).status, 400);
        assert_eq!(error_response(&HttpError::Io("x".into())).status, 408);
    }

    #[test]
    fn completion_queue_sleep_handshake_never_loses_a_push() {
        let queue = CompletionQueue::new();
        assert!(queue.pre_wait(), "empty queue: sleeping is allowed");
        queue.post_wait();
        queue.push(Done { token: 1, bytes: vec![], keep_alive: true });
        assert!(!queue.pre_wait(), "pending completion must cancel the sleep");
        let mut out = Vec::new();
        queue.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert!(queue.pre_wait());
        queue.post_wait();
    }
}
