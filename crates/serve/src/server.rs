//! The server proper: readiness-driven event loop, lifecycle, drain.
//!
//! ```text
//!                    ┌────────────── event loop (1 thread) ──────────────┐
//!   TCP ── accept ──▶│ epoll/poll · per-conn parse buffers · timeouts    │
//!                    │   │ complete batch          ▲ Done (bytes)        │
//!                    │   ├─ fast path (cached /convert, /healthz, …)     │
//!                    │   └─ admission check ──▶ bounded job queue        │
//!                    └───────────────┬───────────────────────────────────┘
//!                                    ▼ recv
//!                         worker pool (M threads) ── CompletionQueue ──▶ wake
//! ```
//!
//! One event loop thread owns every connection: sockets are
//! non-blocking, request bytes accumulate in per-connection
//! [`crate::ready::Conn`] buffers, and only *complete* requests go
//! anywhere near a worker — an idle keep-alive connection costs a slab
//! slot and an epoll registration, not a thread. Cheap requests
//! (`/healthz`, `/metrics`, `/shutdown`, and `/convert` bodies already
//! in cache) execute inline on the loop; everything else is batched per
//! connection and dispatched through the bounded queue, guarded by
//! [`Admission`]'s queue-delay estimate (shed with `429 + retry-after`
//! when the estimate exceeds the deadline budget).
//!
//! Slow clients cannot pin anything: a partial request has a read
//! budget, keep-alive idleness has an idle budget, and an unread
//! response has a write budget — blowing any of them reaps the
//! connection (see [`crate::ready::Timeouts`]).
//!
//! Graceful drain: `POST /shutdown` (or [`Server::request_drain`]) flips
//! [`App::draining`] and wakes the loop, which closes the listener and
//! every idle connection immediately, finishes in-flight work, then
//! drops its job-queue sender; the substrate channel contract lets
//! workers drain every queued batch before exiting. [`Server::join`]
//! returns once all of that has happened.

use crate::admission::Admission;
use crate::engine::Engine;
use crate::handlers::{fast_eligible, App, Routed};
use crate::obs::ObsLayer;
use crate::persist::{CorpusStore, StoreConfig};
use crate::pool::{error_response, execute, serialize_response, CompletionQueue, Done, Job, WorkerPool};
use crate::ready::{CloseReason, Conn, ConnState, Flush, Timeouts};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webre_substrate::http::{HttpError, Request, Response};
use webre_substrate::poll::{Event, Poller};
use webre_substrate::sync::{bounded, Sender, TrySendError};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080`. Port `0` picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (per-connection batches); dispatches
    /// beyond it get 429.
    pub queue_cap: usize,
    /// `/convert` cache capacity in entries; `0` disables caching.
    pub cache_cap: usize,
    /// Maximum request body in bytes.
    pub max_body: usize,
    /// Budget for one request to arrive completely (slow-loris guard).
    pub read_timeout: Duration,
    /// Keep-alive idle budget between requests.
    pub idle_timeout: Duration,
    /// Budget for the peer to drain a response.
    pub write_timeout: Duration,
    /// Admission-control deadline: reject work whose estimated queue
    /// delay exceeds this. `None` disables shedding.
    pub deadline: Option<Duration>,
    /// Data directory for WAL + snapshot persistence; `None` keeps the
    /// corpus in memory only.
    pub data_dir: Option<PathBuf>,
    /// Corpus shard count (for a fresh data directory; an existing one
    /// keeps its recorded count).
    pub shards: usize,
    /// WAL records per fsync batch, per shard.
    pub sync_every: usize,
    /// Minimum WAL tail length before shard compaction can trigger.
    pub compact_min: usize,
    /// `POST /map` reject budget (`--map-budget`); `None` maps
    /// everything regardless of edit cost.
    pub map_budget: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_owned(),
            workers: 4,
            queue_cap: 128,
            cache_cap: 1024,
            max_body: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            deadline: None,
            data_dir: None,
            shards: 4,
            sync_every: 64,
            compact_min: 1024,
            map_budget: None,
        }
    }
}

/// A running server. Dropping the handle does not stop it; call
/// [`Server::join`] (after `/shutdown`) for an orderly exit.
pub struct Server {
    addr: SocketAddr,
    app: Arc<App>,
    completions: Arc<CompletionQueue>,
    event_loop: std::thread::JoinHandle<()>,
    pool: WorkerPool,
}

impl Server {
    /// Binds, spawns the worker pool and the event loop, and returns
    /// immediately.
    pub fn start(config: ServeConfig, engine: Engine) -> io::Result<Server> {
        Server::start_with_obs(config, engine, ObsLayer::default())
    }

    /// [`Server::start`] with an explicit observability layer — pass a
    /// layer built over a trace recorder to capture per-request span
    /// trees (`webre serve --trace-out`).
    pub fn start_with_obs(
        config: ServeConfig,
        engine: Engine,
        obs: ObsLayer,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // `std` listens with a backlog of 128; a C10k connection storm
        // overflows that instantly and dropped SYNs retry on one-second
        // timers. Re-issuing listen(2) widens the queue (best-effort —
        // the kernel caps it at net.core.somaxconn).
        // webre::allow(dropped-result): best-effort tuning; the default backlog still works
        let _ = webre_substrate::poll::widen_listen_backlog(
            std::os::fd::AsRawFd::as_raw_fd(&listener),
            4096,
        );
        let corpus = match &config.data_dir {
            None => LiveCorpus::in_memory(config.shards),
            Some(dir) => {
                let replay_started = Instant::now();
                let (store, sharded, report) = CorpusStore::open(&StoreConfig {
                    data_dir: dir.clone(),
                    shards: config.shards,
                    sync_every: config.sync_every,
                    compact_min: config.compact_min,
                })?;
                for warning in &report.warnings {
                    eprintln!("warning: {warning}");
                }
                if report.docs > 0 {
                    eprintln!(
                        "replayed {} document(s) across {} shard(s) from {} in {} ms",
                        report.docs,
                        report.shards,
                        dir.display(),
                        replay_started.elapsed().as_millis()
                    );
                }
                LiveCorpus::durable(sharded, store)
            }
        };
        let app = Arc::new(
            App::with_corpus(engine, config.cache_cap, config.workers, obs, corpus)
                .with_map_budget(config.map_budget),
        );
        let admission = Arc::new(Admission::new(
            config.deadline,
            config.workers,
            DEFAULT_SERVICE_PRIOR,
        ));
        let completions = Arc::new(CompletionQueue::new());
        let (jobs_tx, jobs_rx) = bounded::<Job>(config.queue_cap);
        let pool = WorkerPool::spawn(
            config.workers,
            jobs_rx,
            Arc::clone(&app),
            Arc::clone(&admission),
            Arc::clone(&completions),
        )?;

        let mut poller = Poller::new()?;
        let listener_fd = raw_fd(&listener, usize::MAX);
        poller.register(listener_fd, LISTENER_TOKEN, true, false)?;
        #[cfg(unix)]
        let wake_rx = {
            let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            poller.register(raw_fd(&rx, usize::MAX), WAKE_TOKEN, true, false)?;
            completions.set_waker(tx);
            rx
        };

        let timeouts = Timeouts::new(config.read_timeout, config.idle_timeout, config.write_timeout);
        let min_budget = config
            .read_timeout
            .min(config.idle_timeout)
            .min(config.write_timeout);
        let sweep_interval = (min_budget / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(500));
        let event_loop = EventLoop {
            poller,
            listener: Some(listener),
            listener_fd,
            #[cfg(unix)]
            wake_rx,
            completions: Arc::clone(&completions),
            jobs: jobs_tx,
            app: Arc::clone(&app),
            admission,
            timeouts,
            sweep_interval,
            max_body: config.max_body,
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            dispatched: 0,
            epoch: Instant::now(),
        };
        let event_loop = std::thread::Builder::new()
            .name("webre-serve-loop".to_owned())
            .spawn(move || {
                let mut event_loop = event_loop;
                event_loop.run();
            })?;
        Ok(Server {
            addr,
            app,
            completions,
            event_loop,
            pool,
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (metrics, corpus, drain flag).
    pub fn app(&self) -> Arc<App> {
        Arc::clone(&self.app)
    }

    /// Requests drain without a network round-trip (equivalent to
    /// `POST /shutdown`).
    pub fn request_drain(&self) {
        self.app.draining.store(true, Ordering::SeqCst);
        // Nudge the event loop so the drain is noticed immediately
        // rather than on its next timeout sweep.
        self.completions.wake();
    }

    /// Waits for the event loop to finish draining and every queued
    /// batch to be served. Only returns after `/shutdown` (or
    /// [`Server::request_drain`]) has been issued.
    pub fn join(self) {
        let _ = self.event_loop.join();
        // The loop dropped its job sender on exit; workers drain the
        // queue and then see the channel close.
        self.pool.join();
        // Every accepted write is in the log by now; force the final
        // fsync batch out so a drained server is fully durable.
        if let Err(e) = self.app.corpus.sync_to_disk() {
            eprintln!("warning: final corpus sync failed: {e}");
        }
    }
}

use crate::state::LiveCorpus;

/// Token of the accept listener in the poller.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token of the wake pipe's read half.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Most requests dispatched to a worker as one batch per connection.
const MAX_BATCH: usize = 64;
/// Seed for the service-time EWMA before any real observation.
const DEFAULT_SERVICE_PRIOR: Duration = Duration::from_millis(1);
/// Most connections accepted per readable-listener event, so one
/// accept storm cannot starve established connections.
const ACCEPT_BATCH: usize = 1024;

/// The raw descriptor handed to the poller. Off unix the sweep poller
/// never inspects descriptors, so a unique pseudo-fd (the slab index)
/// is enough to key register/deregister.
#[cfg(unix)]
fn raw_fd<T: std::os::fd::AsRawFd>(io: &T, _idx: usize) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T, idx: usize) -> i32 {
    // usize::MAX (the listener) maps to -2; slab indices map to 0..;
    // the wake pipe does not exist off unix.
    if idx == usize::MAX {
        -2
    } else {
        idx as i32
    }
}

/// One slab entry: the connection plus its poller registration state.
struct Slot {
    conn: Conn<TcpStream>,
    fd: i32,
    reg_read: bool,
    reg_write: bool,
}

/// The readiness loop. Owns the listener, every connection, the poller,
/// and the sending side of the job queue.
struct EventLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    listener_fd: i32,
    #[cfg(unix)]
    wake_rx: std::os::unix::net::UnixStream,
    completions: Arc<CompletionQueue>,
    jobs: Sender<Job>,
    app: Arc<App>,
    admission: Arc<Admission>,
    timeouts: Timeouts,
    sweep_interval: Duration,
    max_body: usize,
    slots: Vec<Option<Slot>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Live connections (slots occupied).
    open: usize,
    /// Jobs dispatched whose completions have not come back yet.
    dispatched: usize,
    epoch: Instant,
}

impl EventLoop {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn token_of(&self, idx: usize) -> u64 {
        ((self.gens[idx] as u64) << 32) | idx as u64
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        let mut done: Vec<Done> = Vec::new();
        let mut next_sweep = Instant::now() + self.sweep_interval;
        loop {
            done.clear();
            self.completions.drain_into(&mut done);
            for completion in done.drain(..) {
                self.on_done(completion);
            }

            if self.app.is_draining() {
                self.begin_drain();
                if self.open == 0 && self.dispatched == 0 {
                    break;
                }
            }

            let now = Instant::now();
            if now >= next_sweep {
                self.sweep_timeouts();
                next_sweep = now + self.sweep_interval;
            }

            let timeout = next_sweep
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            events.clear();
            if self.completions.pre_wait() {
                let waited = self.poller.wait(&mut events, Some(timeout));
                self.completions.post_wait();
                if waited.is_err() {
                    // A broken poller would spin; back off and rely on
                    // the completion queue plus sweeps to make progress.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            for i in 0..events.len() {
                let event = events[i];
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    token => self.conn_event(token, event.readable, event.writable),
                }
            }
        }
        // `self.jobs` drops with the loop: the channel closes once the
        // last queued batch is consumed and the workers exit.
    }

    /// Accepts until `WouldBlock` (bounded per event).
    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.add_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient (ECONNABORTED) and resource (EMFILE) errors:
                // drop this attempt; level-triggered polling retries.
                Err(_) => break,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        self.app.metrics.connections.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            return; // a blocking socket would stall the whole loop
        }
        // webre::allow(dropped-result): TCP_NODELAY is a latency hint only
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let fd = raw_fd(&stream, idx);
        let token = self.token_of(idx);
        if self.poller.register(fd, token, true, false).is_err() {
            self.free.push(idx);
            return; // closing the socket is the only safe degradation
        }
        let conn = Conn::new(stream, self.max_body, self.now_ns());
        self.slots[idx] = Some(Slot { conn, fd, reg_read: true, reg_write: false });
        self.open += 1;
        self.app.metrics.open_connections.fetch_add(1, Ordering::Relaxed);
        // The first request's bytes often arrive with the connection;
        // serving them now saves a poller round-trip.
        self.conn_event(token, true, false);
    }

    /// Routes a poller event to the owning connection, dropping stale
    /// tokens (connection reaped, slot re-used under a new generation).
    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        if idx >= self.slots.len() || self.gens[idx] != gen || self.slots[idx].is_none() {
            return;
        }
        if readable {
            let now = self.now_ns();
            let filled = match self.slots[idx].as_mut() {
                Some(slot) => slot.conn.fill(now),
                None => return,
            };
            if filled.error {
                self.close(idx, Some(CloseReason::Error));
                return;
            }
        }
        let _ = writable; // flushing happens unconditionally in pump
        self.pump(idx);
    }

    /// Drives one connection as far as it can go without blocking:
    /// flush pending output, then parse-and-serve complete requests
    /// until the transport or the state machine says stop.
    fn pump(&mut self, idx: usize) {
        loop {
            let now = self.now_ns();
            let flush = match self.slots[idx].as_mut() {
                Some(slot) => slot.conn.flush(now),
                None => return,
            };
            match flush {
                Flush::Error => {
                    self.close(idx, Some(CloseReason::Error));
                    return;
                }
                Flush::Pending => break, // wait for writable
                Flush::Done => {}
            }
            let (should_close, state, close_pending, peer_eof, mid_request) = {
                let Some(slot) = self.slots[idx].as_ref() else { return };
                (
                    slot.conn.should_close(),
                    slot.conn.state(),
                    slot.conn.close_pending(),
                    slot.conn.peer_eof(),
                    slot.conn.mid_request(),
                )
            };
            if should_close {
                self.close(idx, None);
                return;
            }
            if state == ConnState::Dispatched || close_pending {
                break; // awaiting the worker pool or the final flush
            }
            let batch = match self.slots[idx].as_mut() {
                Some(slot) => slot.conn.take_batch(MAX_BATCH, now),
                None => return,
            };
            match batch {
                Err(error) => {
                    self.app.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let bytes = serialize_response(&error_response(&error), false);
                    if let Some(slot) = self.slots[idx].as_mut() {
                        slot.conn.enqueue(bytes, false, now);
                    }
                    continue; // next iteration flushes, then closes
                }
                Ok(batch) if batch.is_empty() => {
                    if peer_eof {
                        // EOF and nothing parseable left: clean close if
                        // between requests, abandoned if mid-request.
                        let reason = mid_request.then_some(CloseReason::PeerClosed);
                        self.close(idx, reason);
                        return;
                    }
                    break; // need more bytes
                }
                Ok(batch) => {
                    self.handle_batch(idx, batch, now);
                    continue;
                }
            }
        }
        self.update_interest(idx);
    }

    /// Serves a batch of complete requests: inline fast path for the
    /// eligible prefix, then admission-checked dispatch of the rest.
    fn handle_batch(&mut self, idx: usize, batch: Vec<Request>, now: u64) {
        let token = self.token_of(idx);
        let mut batch: Vec<Routed> = batch.into_iter().map(Routed::new).collect();
        let mut inline = 0;
        let mut closed = false;
        while inline < batch.len() {
            if !fast_eligible(&self.app, &mut batch[inline]) {
                break;
            }
            let (bytes, keep_alive) = execute(&self.app, None, &batch[inline]);
            if let Some(slot) = self.slots[idx].as_mut() {
                slot.conn.enqueue(bytes, keep_alive, now);
            }
            inline += 1;
            if !keep_alive {
                closed = true;
                break;
            }
        }
        let rest = batch.split_off(inline);
        if closed || rest.is_empty() {
            // `closed`: the peer asked to close (or drain started), so
            // anything pipelined after that request is void.
            return;
        }
        let n = rest.len();
        match self.admission.admit(n) {
            Err(estimate) => {
                self.app.metrics.shed.fetch_add(n as u64, Ordering::Relaxed);
                let retry = Admission::retry_after_secs(estimate);
                self.refuse(idx, &rest, &shed_response(retry), now);
            }
            Ok(()) => match self.jobs.try_send(Job { token, requests: rest }) {
                Ok(()) => {
                    self.app.metrics.queue_depth.fetch_add(n as i64, Ordering::Relaxed);
                    self.admission.enqueued(n);
                    self.dispatched += 1;
                    if let Some(slot) = self.slots[idx].as_mut() {
                        slot.conn.mark_dispatched();
                    }
                }
                Err(TrySendError::Full(job)) => {
                    self.app.metrics.rejected.fetch_add(n as u64, Ordering::Relaxed);
                    self.refuse(idx, &job.requests, &queue_full_response(), now);
                }
                // The loop owns the only sender, so the channel cannot
                // close while this runs; treat it like queue-full.
                Err(TrySendError::Closed(_)) => {}
            },
        }
    }

    /// Answers every request in `requests` with `response` without
    /// running it (shed or queue full).
    fn refuse(&mut self, idx: usize, requests: &[Routed], response: &Response, now: u64) {
        let draining = self.app.is_draining();
        if let Some(slot) = self.slots[idx].as_mut() {
            for routed in requests {
                let keep_alive = routed.request.keep_alive() && !draining;
                slot.conn.enqueue(serialize_response(response, keep_alive), keep_alive, now);
            }
        }
    }

    /// Applies a worker's completed batch. Stale tokens (reaped
    /// connection, recycled slot) drop the bytes on the floor — the
    /// requests were still executed and counted.
    fn on_done(&mut self, done: Done) {
        self.dispatched = self.dispatched.saturating_sub(1);
        let idx = (done.token & u32::MAX as u64) as usize;
        let gen = (done.token >> 32) as u32;
        if idx >= self.slots.len() || self.gens[idx] != gen || self.slots[idx].is_none() {
            return;
        }
        let now = self.now_ns();
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.conn.complete(done.bytes, done.keep_alive, now);
        }
        self.pump(idx);
    }

    /// Reconciles the poller's interest set with what the connection
    /// actually wants right now.
    fn update_interest(&mut self, idx: usize) {
        let Some(slot) = self.slots[idx].as_mut() else { return };
        let want_read = slot.conn.wants_read();
        let want_write = slot.conn.has_output();
        if want_read == slot.reg_read && want_write == slot.reg_write {
            return;
        }
        let token = ((self.gens[idx] as u64) << 32) | idx as u64;
        if self.poller.modify(slot.fd, token, want_read, want_write).is_ok() {
            slot.reg_read = want_read;
            slot.reg_write = want_write;
        }
    }

    /// Reaps connections whose active budget has expired.
    fn sweep_timeouts(&mut self) {
        let now = self.now_ns();
        for idx in 0..self.slots.len() {
            let expired = match self.slots[idx].as_ref() {
                Some(slot) => slot.conn.check_deadline(now, &self.timeouts),
                None => None,
            };
            if let Some(reason) = expired {
                self.close(idx, Some(reason));
            }
        }
    }

    /// First-pass drain work, safe to call every iteration: stop
    /// listening, then close connections with nothing in flight.
    fn begin_drain(&mut self) {
        if self.listener.take().is_some() {
            // webre::allow(dropped-result): the listener closes either way
            let _ = self.poller.deregister(self.listener_fd);
        }
        for idx in 0..self.slots.len() {
            let idle = match self.slots[idx].as_ref() {
                Some(slot) => {
                    slot.conn.state() == ConnState::Reading
                        && !slot.conn.has_output()
                        && !slot.conn.mid_request()
                        && !slot.conn.close_pending()
                }
                None => false,
            };
            if idle {
                self.close(idx, None);
            }
        }
    }

    /// Removes and closes a connection. `reap: Some(..)` records the
    /// timeout category and (for read/idle) sends a best-effort 408 so
    /// well-behaved slow peers know to retry on a fresh connection.
    fn close(&mut self, idx: usize, reap: Option<CloseReason>) {
        let Some(mut slot) = self.slots[idx].take() else { return };
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        self.app.metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
        // webre::allow(dropped-result): the descriptor closes either way
        let _ = self.poller.deregister(slot.fd);
        match reap {
            Some(CloseReason::ReadTimeout) => {
                self.app.metrics.reaped_read.fetch_add(1, Ordering::Relaxed);
                courtesy_timeout_reply(&mut slot.conn);
            }
            Some(CloseReason::IdleTimeout) => {
                self.app.metrics.reaped_idle.fetch_add(1, Ordering::Relaxed);
                courtesy_timeout_reply(&mut slot.conn);
            }
            Some(CloseReason::WriteTimeout) => {
                self.app.metrics.reaped_write.fetch_add(1, Ordering::Relaxed);
            }
            Some(CloseReason::PeerClosed) | Some(CloseReason::Error) | None => {}
        }
        // Dropping the slot closes the socket. If a batch is still with
        // the workers, its Done arrives with a stale generation and is
        // discarded in `on_done`.
    }

    /// Drains the wake pipe so level-triggered polling quiesces.
    fn drain_wake(&mut self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            loop {
                match self.wake_rx.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break, // WouldBlock: fully drained
                }
            }
        }
    }
}

/// One best-effort non-blocking 408 at reap time. The socket is closing
/// regardless; a slow-but-honest client (e.g. the scale fleet's
/// round-trip prober) sees the status and retries on a new connection.
fn courtesy_timeout_reply(conn: &mut Conn<TcpStream>) {
    let bytes = serialize_response(&error_response(&HttpError::Io("read timed out".into())), false);
    // webre::allow(dropped-result): courtesy only; the close is the signal
    let _ = conn.socket_mut().write(&bytes);
}

/// The admission-control shed response.
fn shed_response(retry_after_secs: u64) -> Response {
    Response::text(
        429,
        "server is over its deadline budget; retry later\n",
    )
    .with_header("retry-after", retry_after_secs.to_string())
}

/// The structural-backpressure (bounded queue full) response.
fn queue_full_response() -> Response {
    Response::text(
        429,
        "server is at capacity (queue full); retry later\n",
    )
    .with_header("retry-after", "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = ServeConfig::default();
        assert_eq!(config.workers, 4);
        assert!(config.queue_cap >= config.workers);
        assert!(config.max_body >= 64 * 1024);
        assert!(config.deadline.is_none(), "shedding is opt-in");
        assert!(config.idle_timeout >= config.read_timeout);
    }

    #[test]
    fn start_serve_drain_join_without_traffic() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config, Engine::resume_domain()).expect("bind");
        assert_ne!(server.local_addr().port(), 0);
        server.request_drain();
        server.join(); // must not hang
    }
}
