//! The readiness-driven ingest front-end: one reactor thread, thousands of
//! connections, multiplexed in-flight requests.
//!
//! Instead of a thread per connection parked in `read_line` /
//! `reply.recv()`, the reactor keeps **every** connection on a single
//! thread behind an epoll/poll [`crate::sys::Poller`]:
//!
//! * non-blocking accept with a connection cap, paused (not spun on) while
//!   the process is out of file descriptors;
//! * per-connection state machines — a read buffer framed on `\n`, a write
//!   buffer flushed opportunistically and re-armed on `EPOLLOUT` only while
//!   non-empty (backpressure: a connection whose write buffer is over the
//!   limit stops being read until it drains);
//! * request multiplexing — a client may pipeline any number of requests;
//!   each carries its own `id`, completions come back from the worker pools
//!   through a completion channel + wake pipe and are written **in
//!   completion order**, not submission order;
//! * an idle timeout wheel (1 s granularity, lazy re-insert) that closes
//!   connections quiet for longer than the configured timeout;
//! * explicit wake-pipe shutdown with graceful drain: stop accepting,
//!   answer everything in flight, flush every write buffer, then close —
//!   bounded by a drain timeout.
//!
//! The executor side uses [`einet_edge::ExecutorPool::submit_with`]: a
//! completion callback instead of a parked thread per request, so in-flight
//! requests cost a queue slot, not a stack.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use einet_edge::ServeMetrics;
use einet_trace::{self as trace, Args, Category, TraceContext};

use crate::registry::ModelRegistry;
use crate::sys::{Event, Interest, Poller, WakePipe};
use crate::wire;

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Sizing and policy knobs for a [`ReactorServer`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Most connections held open at once; beyond it new accepts are closed
    /// immediately (the client sees a reset, the cheapest honest signal).
    pub max_conns: usize,
    /// Close connections with no traffic for this long. `ZERO` disables
    /// the idle wheel.
    pub idle_timeout: Duration,
    /// Longest accepted request line; a connection exceeding it without a
    /// newline gets a 400 and is closed (it cannot be re-framed).
    pub max_line_bytes: usize,
    /// Stop reading from a connection whose unsent responses exceed this
    /// many bytes, until the peer drains them (per-connection backpressure).
    pub write_buf_limit: usize,
    /// Upper bound on the graceful drain at shutdown; connections still
    /// busy past it are closed anyway.
    pub drain_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_conns: 8192,
            idle_timeout: Duration::ZERO,
            max_line_bytes: 256 * 1024,
            write_buf_limit: 1024 * 1024,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed into a full line.
    read_buf: Vec<u8>,
    /// Rendered responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Consumed prefix of `write_buf` (compacted when it grows).
    write_pos: usize,
    /// Requests submitted to a pool whose completions have not come back.
    inflight: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer sent EOF: close once everything owed has been written.
    peer_closed: bool,
    /// Last read/write activity, for the idle wheel.
    last_activity: Instant,
}

/// A running readiness-driven front-end over a shared [`ModelRegistry`]:
/// the workspace's one listener.
///
/// One JSON request per line in, one JSON response per line out (see
/// [`crate::wire`]). Every connection lives on one reactor thread and
/// clients may pipeline: responses to multiplexed requests return in
/// completion order, correlated by `id`.
#[derive(Debug)]
pub struct ReactorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<WakePipe>,
    metrics: Arc<ServeMetrics>,
    backend: &'static str,
    handle: Option<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` (port 0 for an OS-assigned port) and starts the
    /// reactor thread serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates bind, poller and wake-pipe creation failures.
    pub fn start(
        registry: Arc<ModelRegistry>,
        addr: &str,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let backend = poller.backend_name();
        let waker = Arc::new(WakePipe::new()?);
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker.read_fd(), TOKEN_WAKE, Interest::READ)?;
        let metrics = Arc::new(ServeMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = Reactor {
            registry,
            listener,
            poller,
            waker: Arc::clone(&waker),
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            cfg,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            accept_paused: false,
            inflight_total: 0,
            wheel: Vec::new(),
            wheel_cursor: 0,
            wheel_epoch: Instant::now(),
        };
        let handle = std::thread::Builder::new()
            .name("einet-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        Ok(ReactorServer {
            addr: local,
            stop,
            waker,
            metrics,
            backend,
            handle: Some(handle),
        })
    }

    /// The bound address — what clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which readiness backend the poller selected (`"epoll"` or `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The ingest metrics registry: `open_connections` and
    /// `inflight_requests` gauges live here (per-task counters stay on the
    /// model pools).
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting, answers everything in flight, flushes and closes
    /// every connection (bounded by [`ReactorConfig::drain_timeout`]), and
    /// joins the reactor thread. The registry stays alive.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// What a completion callback sends back to the reactor thread: the
/// connection token, the fully rendered response line, and the request's
/// trace id (for the reply-write span and drop accounting).
type Completion = (u64, String, u64);

struct Reactor {
    registry: Arc<ModelRegistry>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<WakePipe>,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    cfg: ReactorConfig,
    /// Slab of connections; tokens are `gen << 32 | slot`.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on close so stale completions and stale
    /// poller events never touch a recycled slot.
    gens: Vec<u32>,
    free: Vec<u32>,
    open: usize,
    /// The listener is out of the poller: `accept` failed for a reason that
    /// stays true while nothing changes (fd exhaustion), and a
    /// level-triggered listener with a pending connection would otherwise
    /// wake `wait` immediately, forever.
    accept_paused: bool,
    /// Callbacks outstanding across all connections (including ones whose
    /// connection already died); drained to zero before shutdown returns.
    inflight_total: usize,
    /// Idle wheel: one slot per second, entries checked lazily.
    wheel: Vec<Vec<(u32, u32)>>,
    wheel_cursor: usize,
    wheel_epoch: Instant,
}

impl Reactor {
    fn token(&self, slot: u32) -> u64 {
        (u64::from(self.gens[slot as usize]) << 32) | u64::from(slot)
    }

    fn run(mut self) {
        let (tx, rx) = channel::<Completion>();
        if !self.cfg.idle_timeout.is_zero() {
            // One wheel slot per second of timeout, plus slack so an entry
            // re-armed "now + timeout" never lands on the firing slot.
            let slots = self.cfg.idle_timeout.as_secs() as usize + 2;
            self.wheel = vec![Vec::new(); slots.max(2)];
        }
        let mut events: Vec<Event> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            events.clear();
            let timeout = if drain_started.is_some() {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(250)
            };
            let _ = self.poller.wait(&mut events, Some(timeout));
            if events.is_empty() {
                // A quiet tick: whatever refused the last accept may have
                // cleared on its own (another process released fds).
                self.resume_accept();
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(&tx),
                    TOKEN_WAKE => self.waker.drain(),
                    token => self.conn_ready(token, ev, &tx),
                }
            }
            self.drain_completions(&rx);
            self.tick_idle_wheel();
            if self.stop.load(Ordering::Acquire) && drain_started.is_none() {
                drain_started = Some(Instant::now());
                // Stop accepting; the listener closes when the reactor
                // returns. Connections live on to be drained.
                let _ = self.poller.delete(self.listener.as_raw_fd());
                self.accept_paused = false;
                // Idle connections owe nothing: close them now.
                self.close_drained_conns();
            }
            if let Some(started) = drain_started {
                self.close_drained_conns();
                let drained = self.inflight_total == 0 && self.open == 0;
                if drained || started.elapsed() >= self.cfg.drain_timeout {
                    break;
                }
            }
        }
        // Force-close whatever outlived the drain timeout.
        for slot in 0..self.conns.len() as u32 {
            if self.conns[slot as usize].is_some() {
                self.close_conn(slot);
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self, tx: &Sender<Completion>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.open >= self.cfg.max_conns || self.stop.load(Ordering::Acquire) {
                        drop(stream); // over cap (or draining): refuse
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Small line-framed responses must not sit in Nagle's
                    // buffer waiting for a delayed ACK; latency is the
                    // product here, so flush segments as they come.
                    let _ = stream.set_nodelay(true);
                    let slot = match self.free.pop() {
                        Some(s) => s,
                        None => {
                            self.conns.push(None);
                            self.gens.push(0);
                            (self.conns.len() - 1) as u32
                        }
                    };
                    let fd = stream.as_raw_fd();
                    let conn = Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        inflight: 0,
                        interest: Interest::READ,
                        peer_closed: false,
                        last_activity: Instant::now(),
                    };
                    let token = self.token(slot);
                    if self.poller.add(fd, token, Interest::READ).is_err() {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot as usize] = Some(conn);
                    self.open += 1;
                    self.metrics.conn_opened();
                    self.wheel_insert(slot);
                    // Level-triggered readiness only reports what changes
                    // after registration; data that raced the accept is
                    // already there, so take one read pass now.
                    let ev = Event {
                        token,
                        readable: true,
                        writable: false,
                        hangup: false,
                    };
                    self.conn_ready(token, ev, tx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE and kin: the connection stays in the
                    // backlog and the listener stays readable. Stop polling
                    // it until a connection closes (an fd comes back) or a
                    // wait times out.
                    let _ = self.poller.delete(self.listener.as_raw_fd());
                    self.accept_paused = true;
                    break;
                }
            }
        }
    }

    /// Puts a paused listener back into the poller.
    fn resume_accept(&mut self) {
        if self.accept_paused {
            let fd = self.listener.as_raw_fd();
            self.accept_paused = self.poller.add(fd, TOKEN_LISTENER, Interest::READ).is_err();
        }
    }

    fn slot_of(&self, token: u64) -> Option<u32> {
        let slot = (token & u32::MAX as u64) as u32;
        let gen = (token >> 32) as u32;
        if (slot as usize) < self.conns.len()
            && self.gens[slot as usize] == gen
            && self.conns[slot as usize].is_some()
        {
            Some(slot)
        } else {
            None
        }
    }

    /// Handles readiness on one connection.
    fn conn_ready(&mut self, token: u64, ev: Event, tx: &Sender<Completion>) {
        let Some(slot) = self.slot_of(token) else {
            return; // stale event for a recycled slot
        };
        let mut close = false;
        if ev.writable {
            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            conn.last_activity = Instant::now();
            close = flush_write(conn).is_err();
        }
        if !close && ev.readable {
            close = self.read_ready(slot, tx);
        }
        if !close && ev.hangup {
            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            conn.peer_closed = true;
        }
        if !close {
            let conn = self.conns[slot as usize].as_ref().expect("live conn");
            // A closed peer is owed only what is still in flight or
            // buffered; when nothing is, the connection is done.
            close = conn.peer_closed && conn.inflight == 0 && !has_pending(conn);
        }
        if close {
            self.close_conn(slot);
        } else {
            self.update_interest(slot);
        }
    }

    /// Reads until the socket would block, framing and serving every
    /// complete line. Returns `true` when the connection must close.
    fn read_ready(&mut self, slot: u32, tx: &Sender<Completion>) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Respect backpressure mid-burst, not just between events: stop
            // pulling new requests while this connection's responses back up.
            {
                let conn = self.conns[slot as usize].as_ref().expect("live conn");
                if pending_bytes(conn) >= self.cfg.write_buf_limit {
                    return false;
                }
            }
            let n = {
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        n
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            };
            debug_assert!(n > 0);
            if self.serve_buffered_lines(slot, tx) {
                return true;
            }
        }
        self.serve_buffered_lines(slot, tx)
    }

    /// Frames `read_buf` on newlines and serves each complete line.
    /// Returns `true` when the connection must close (unframeable input).
    fn serve_buffered_lines(&mut self, slot: u32, tx: &Sender<Completion>) -> bool {
        loop {
            let line = {
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                let Some(nl) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                    if conn.read_buf.len() > self.cfg.max_line_bytes {
                        // No newline within the cap: the stream cannot be
                        // re-framed. Answer 400 and hang up.
                        let line = wire::render_bad_request(0, "request line too long", 0);
                        queue_response(conn, &line);
                        let _ = flush_write(conn);
                        return true;
                    }
                    return false;
                };
                let mut line: Vec<u8> = conn.read_buf.drain(..=nl).collect();
                line.pop(); // the newline
                line
            };
            let Ok(text) = std::str::from_utf8(&line) else {
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                queue_response(
                    conn,
                    &wire::render_bad_request(0, "request is not UTF-8", 0),
                );
                continue;
            };
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            self.serve_line(slot, text, tx);
        }
    }

    /// Parses and routes one request line; inline errors are answered
    /// immediately, accepted requests complete asynchronously.
    fn serve_line(&mut self, slot: u32, line: &str, tx: &Sender<Completion>) {
        self.metrics.inflight_started();
        let ingest_started = Instant::now();
        let parsed = match wire::parse_request(line) {
            Ok(p) => p,
            Err(e) => {
                // Best effort: salvage the ids for correlation even when
                // the request is rejected; a traced reject still gets a
                // balanced flow so the reconciler can join its 400.
                let (id, trace_id) = wire::salvage_ids(line);
                if trace_id != 0 {
                    trace::flow_start(Category::Service, "task_flow", trace_id);
                    trace::flow_end(Category::Service, "task_flow", trace_id);
                }
                self.respond_inline(slot, &wire::render_bad_request(id, &e, trace_id), trace_id);
                return;
            }
        };
        // Adopt the client's context or mint a fresh root: legacy clients
        // without the wire field still get fully-traced server-side flows.
        let ctx = parsed.trace.unwrap_or_else(TraceContext::root);
        let token = self.token(slot);
        let wire_id = parsed.id;
        let trace_id = ctx.id;
        let completions = tx.clone();
        let waker = Arc::clone(&self.waker);
        let on_complete = Box::new(move |result: einet_edge::TaskResult| {
            // Runs on the worker thread: render there (cheap), hand the
            // bytes to the reactor, wake it. A dead reactor is fine — the
            // send just fails.
            let line = match result {
                Ok(outcome) => wire::render_outcome(wire_id, &outcome, trace_id),
                Err(_) => wire::render_worker_crashed(wire_id, trace_id),
            };
            let _ = completions.send((token, line, trace_id));
            waker.wake();
        });
        let submitted = self.registry.submit_callback(
            &parsed.model,
            parsed.request.with_trace(trace_id),
            on_complete,
        );
        // The ingest span covers framing + routing; the asynchronous wait
        // for the completion is the task's own queue/service time.
        trace::complete_span(
            Category::Queue,
            "ingest",
            ingest_started,
            Args::two("req", wire_id, "trace", trace_id),
        );
        match submitted {
            Ok(_task_id) => {
                self.inflight_total += 1;
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                conn.inflight += 1;
            }
            Err((err, _cb)) => {
                self.respond_inline(
                    slot,
                    &wire::render_route_error(wire_id, err, trace_id),
                    trace_id,
                );
            }
        }
    }

    /// Queues an immediately-known response (parse/route error) and closes
    /// out its in-flight accounting.
    fn respond_inline(&mut self, slot: u32, line: &str, trace_id: u64) {
        let conn = self.conns[slot as usize].as_mut().expect("live conn");
        let write_started = Instant::now();
        queue_response(conn, line);
        let _ = flush_write(conn);
        trace::complete_span(
            Category::Queue,
            "reply",
            write_started,
            Args::one("trace", trace_id),
        );
        self.metrics.inflight_finished();
    }

    /// Applies every completion the workers have delivered: out-of-order
    /// responses queue onto their connection's write buffer.
    fn drain_completions(&mut self, rx: &Receiver<Completion>) {
        while let Ok((token, line, trace_id)) = rx.try_recv() {
            self.inflight_total -= 1;
            self.metrics.inflight_finished();
            let Some(slot) = self.slot_of(token) else {
                // The requester hung up before its answer. The task's flow
                // already ended on the worker, so balance holds; record the
                // undeliverable response for the reconciler.
                trace::instant(
                    Category::Queue,
                    "reply_dropped",
                    Args::one("trace", trace_id),
                );
                continue;
            };
            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            conn.inflight -= 1;
            let write_started = Instant::now();
            queue_response(conn, &line);
            let close = flush_write(conn).is_err();
            trace::complete_span(
                Category::Queue,
                "reply",
                write_started,
                Args::one("trace", trace_id),
            );
            if close || (conn.peer_closed && conn.inflight == 0 && !has_pending(conn)) {
                self.close_conn(slot);
            } else {
                self.update_interest(slot);
            }
        }
    }

    /// Re-registers a connection when its desired interest changed:
    /// `EPOLLOUT` only while the write buffer is non-empty, `EPOLLIN`
    /// paused while the peer is too far behind on reads (backpressure).
    fn update_interest(&mut self, slot: u32) {
        let token = self.token(slot);
        let conn = self.conns[slot as usize].as_mut().expect("live conn");
        let want = Interest {
            readable: pending_bytes(conn) < self.cfg.write_buf_limit && !conn.peer_closed,
            writable: has_pending(conn),
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn close_conn(&mut self, slot: u32) {
        if let Some(conn) = self.conns[slot as usize].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
            self.free.push(slot);
            self.open -= 1;
            self.metrics.conn_closed();
            self.resume_accept();
            // `conn.inflight` callbacks are still outstanding; their
            // completions will arrive, decrement `inflight_total`, and be
            // dropped at the stale-token check.
        }
    }

    /// During shutdown: close every connection that is owed nothing.
    fn close_drained_conns(&mut self) {
        for slot in 0..self.conns.len() as u32 {
            if let Some(conn) = self.conns[slot as usize].as_mut() {
                if conn.inflight == 0 && !has_pending(conn) {
                    // One last sweep so requests already buffered by the
                    // kernel are not silently dropped mid-drain.
                    let mut probe = [0u8; 1];
                    let quiet =
                        matches!(conn.stream.peek(&mut probe), Ok(0) | Err(_)) || conn.peer_closed;
                    if quiet {
                        self.close_conn(slot);
                    }
                }
            }
        }
    }

    // --- idle wheel -------------------------------------------------------

    /// Inserts a connection into the wheel slot where its timeout lands.
    fn wheel_insert(&mut self, slot: u32) {
        if self.wheel.is_empty() {
            return;
        }
        let conn = self.conns[slot as usize].as_ref().expect("live conn");
        let deadline = conn.last_activity + self.cfg.idle_timeout;
        let secs = deadline.duration_since(self.wheel_epoch).as_secs() as usize;
        let idx = secs % self.wheel.len();
        let gen = self.gens[slot as usize];
        self.wheel[idx].push((slot, gen));
    }

    /// Fires due wheel slots: entries whose connection was active since
    /// insertion are lazily re-armed at their new deadline; truly idle
    /// connections are closed.
    fn tick_idle_wheel(&mut self) {
        if self.wheel.is_empty() {
            return;
        }
        let now_slot = self.wheel_epoch.elapsed().as_secs() as usize % self.wheel.len();
        while self.wheel_cursor != now_slot {
            self.wheel_cursor = (self.wheel_cursor + 1) % self.wheel.len();
            let entries: Vec<(u32, u32)> = std::mem::take(&mut self.wheel[self.wheel_cursor]);
            for (slot, gen) in entries {
                if self.gens.get(slot as usize) != Some(&gen) {
                    continue; // connection already closed
                }
                let Some(conn) = self.conns[slot as usize].as_ref() else {
                    continue;
                };
                let idle_for = conn.last_activity.elapsed();
                if idle_for >= self.cfg.idle_timeout && conn.inflight == 0 && !has_pending(conn) {
                    trace::instant(Category::Queue, "idle_close", Args::none());
                    self.close_conn(slot);
                } else {
                    self.wheel_insert(slot);
                }
            }
        }
    }
}

/// Unsent response bytes on a connection.
fn pending_bytes(conn: &Conn) -> usize {
    conn.write_buf.len() - conn.write_pos
}

fn has_pending(conn: &Conn) -> bool {
    pending_bytes(conn) > 0
}

/// Appends one rendered response line to the write buffer.
fn queue_response(conn: &mut Conn, line: &str) {
    conn.write_buf.extend_from_slice(line.as_bytes());
    conn.write_buf.push(b'\n');
}

/// Writes as much of the buffer as the socket accepts. `Err` means the
/// connection is dead.
fn flush_write(conn: &mut Conn) -> io::Result<()> {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Err(io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => {
                conn.write_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    } else if conn.write_pos > 64 * 1024 {
        // Compact occasionally so a slow reader cannot pin a large prefix.
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    Ok(())
}
