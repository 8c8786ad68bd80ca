//! The connection layer: a TCP accept loop feeding a bounded worker
//! thread pool.
//!
//! ```text
//!    accept loop ──▶ bounded queue (Mutex<VecDeque> + Condvar)
//!         │               │ pop
//!         │ full?         ▼
//!         └─▶ 503     worker 1..N: read_request → respond → write
//!                     (keep-alive until close / timeout / shutdown)
//! ```
//!
//! Backpressure is explicit: when the queue is at capacity the accept
//! loop answers 503 inline and closes, so overload degrades into fast
//! rejections instead of unbounded memory growth. Shutdown is
//! graceful: a stop flag flips, the accept loop is woken by a loopback
//! connection, workers finish their in-flight request, and
//! [`QueryServer::shutdown`] joins every thread.

use crate::http::{read_request, Request, RequestError, Response};
use crate::routes::QueryService;
use serde::Value;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The bounded connection queue between the accept loop and workers.
struct ConnQueue {
    capacity: usize,
    inner: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl ConnQueue {
    /// Enqueues a connection; a full queue hands the stream back so
    /// the caller can answer 503 on it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeues the next connection, or `None` at shutdown.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            q = self.cv.wait(q).expect("queue cv poisoned");
        }
    }
}

/// A running query server: sockets plus threads around a
/// [`QueryService`].
pub struct QueryServer {
    service: Arc<QueryService>,
    queue: Arc<ConnQueue>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker pool.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<QueryService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let config = *service.config();
        let queue = Arc::new(ConnQueue {
            capacity: config.queue_depth.max(1),
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let service = Arc::clone(&service);
            let queue = Arc::clone(&queue);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("moas-serve-worker-{i}"))
                    .spawn(move || {
                        let _registered = moas_obs::prof::register_thread();
                        while let Some(stream) = queue.pop() {
                            // A broken connection only ends that
                            // connection, never the worker.
                            let _ = serve_connection(&service, &queue, stream);
                        }
                    })?,
            );
        }

        let accept = {
            let service = Arc::clone(&service);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("moas-serve-accept".into())
                .spawn(move || {
                    let _registered = moas_obs::prof::register_thread();
                    for incoming in listener.incoming() {
                        if queue.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        let m = service.metrics();
                        m.connections_accepted.inc();
                        if let Err(rejected) = queue.push(stream_configured(stream, &config)) {
                            // Backpressure: answer 503 inline (best
                            // effort) and close, so overload degrades
                            // into fast rejections.
                            reject_unavailable(
                                rejected,
                                m,
                                "server busy: connection queue is full",
                                config.retry_after_secs,
                            );
                        }
                    }
                })?
        };

        Ok(QueryServer {
            service,
            queue,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the ephemeral port to aim clients at).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service behind the sockets.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// Queued-but-unserved connections are closed.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.queue.stop.store(true, Ordering::Release);
        self.queue.cv.notify_all();
        // Unblock the accept loop with a throwaway loopback connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(250));
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        for handle in self.workers.drain(..) {
            handle.join().ok();
        }
        self.queue
            .inner
            .lock()
            .expect("queue lock poisoned")
            .clear();
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.stop_threads();
        }
    }
}

/// The one 503 path: whether a connection is shed by the accept loop
/// (queue full) or by a worker draining into shutdown, the response
/// carries `Retry-After`, goes out `Connection: close`, and lands in
/// [`crate::ServerMetrics`] exactly like any worker-path status —
/// overload must be visible in `/v1/metrics`, not just in client
/// error logs.
fn reject_unavailable(
    mut stream: TcpStream,
    metrics: &crate::ServerMetrics,
    message: &str,
    retry_after_secs: u32,
) {
    metrics.connections_rejected.inc();
    metrics.record_status(503);
    let _ = Response::unavailable(message, retry_after_secs).write_to(&mut stream, false);
}

fn stream_configured(stream: TcpStream, config: &crate::ServerConfig) -> TcpStream {
    // A failed timeout set just means the idle-connection guard is
    // weaker for this connection; serving still works. The write
    // timeout matters as much as the read one: a client that sends
    // requests but never reads responses would otherwise block a
    // worker in write_all forever once the kernel send buffer fills.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    stream
}

/// Serves one connection until it closes, errs, times out, hits the
/// keep-alive cap, or the server shuts down.
fn serve_connection(
    service: &QueryService,
    queue: &ConnQueue,
    stream: TcpStream,
) -> std::io::Result<()> {
    // Backpressure answered inline for connections that were queued
    // while the pool drained into shutdown — counted and headed the
    // same as an accept-loop rejection.
    if queue.stop.load(Ordering::Acquire) {
        reject_unavailable(
            stream,
            service.metrics(),
            "server is shutting down",
            service.config().retry_after_secs,
        );
        return Ok(());
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let metrics = service.metrics();
    let keep_alive_cap = service.config().keep_alive_requests.max(1);

    for served in 0..keep_alive_cap {
        // Parse timing spans from "ready for a request" to "head
        // parsed", so on a keep-alive connection it includes the idle
        // wait for the client's next byte.
        let parse_started = Instant::now();
        let req = match read_request(&mut reader) {
            Ok(req) => req,
            Err(RequestError::Closed) => break,
            Err(RequestError::Timeout) => {
                metrics.read_timeouts.inc();
                break;
            }
            Err(RequestError::Malformed(why)) => {
                metrics.malformed_requests.inc();
                metrics.record_status(400);
                let _ = Response::error(400, "bad_request", &why).write_to(&mut out, false);
                break;
            }
            Err(RequestError::TooLarge) => {
                metrics.malformed_requests.inc();
                metrics.record_status(400);
                let _ = Response::error(400, "bad_request", "request exceeds size limits")
                    .write_to(&mut out, false);
                break;
            }
            Err(RequestError::Io(_)) => break,
        };
        let parse_elapsed = parse_started.elapsed();
        metrics.stage_parse.observe_duration(parse_elapsed);

        // The live tail is served right here at the connection layer:
        // it never terminates on its own, so it cannot be a buffered
        // Response. The worker is dedicated to the subscriber until it
        // disconnects, falls behind, or hits the per-connection bound.
        if req.method == "GET" && req.path == "/v1/events/stream" {
            let in_flight = metrics.begin_request();
            metrics.record_status(200);
            stream_events(service, queue, &req, &mut out);
            drop(in_flight);
            break;
        }

        // Per-request trace: a root span covering route + serialize,
        // with the already-measured parse stage backdated under it.
        // When head sampling skips the request all of this is no-ops.
        let tracer = service.registry().tracer();
        let span = tracer.span("request");
        let ctx = span.context();
        tracer.record_child(ctx, "request_parse", parse_elapsed);

        let in_flight = metrics.begin_request();
        let started = Instant::now();
        let response = service.respond(&req);
        let route_elapsed = started.elapsed();
        metrics.stage_route.observe_duration(route_elapsed);
        tracer.record_child(ctx, "request_route", route_elapsed);
        // Recorded before the write: once the client holds the bytes,
        // its next request (on any connection) must see this one.
        service.note_request(
            &req,
            response.status,
            response.body.len() as u64,
            route_elapsed.as_micros() as u64,
            ctx.trace,
        );
        metrics.record_status(response.status);
        let keep_alive =
            req.keep_alive && served + 1 < keep_alive_cap && !queue.stop.load(Ordering::Acquire);
        let write_started = Instant::now();
        let write = response.write_to(&mut out, keep_alive);
        let write_elapsed = write_started.elapsed();
        metrics.stage_serialize.observe_duration(write_elapsed);
        tracer.record_child(ctx, "request_serialize", write_elapsed);
        span.finish();
        drop(in_flight);
        write?;
        if !keep_alive {
            break;
        }
    }
    Ok(())
}

/// Serves `GET /v1/events/stream`: an SSE tail of the operational
/// event journal, so dashboards follow conflicts and incidents live
/// instead of polling `/v1/events/log`.
///
/// Protocol: standard `text/event-stream` frames (`id:` = journal
/// sequence, `event:` = journal kind, `data:` = the JSON row
/// `/v1/events/log` would serve), a `retry:` hint up front, and
/// comment pings while idle so intermediaries keep the connection
/// alive. Resume with the standard `Last-Event-ID` header (or an
/// `after=` query parameter) to skip already-seen sequences. The body
/// is delimited by connection close — no `Content-Length`, and the
/// `connection: close` header says so up front.
///
/// Bounds: at most [`crate::ServerConfig::sse_max_events`] events are
/// pushed per connection (then an `end_of_stream` event and a clean
/// close — clients resume with their last id), and a subscriber that
/// stops reading trips the socket write timeout and is disconnected,
/// counted in `sse_slow_disconnects`.
fn stream_events(service: &QueryService, queue: &ConnQueue, req: &Request, out: &mut TcpStream) {
    let metrics = service.metrics();
    let config = *service.config();
    metrics.sse_connections.inc();
    // `None` means a fresh subscription: replay the whole ring,
    // including seq 0 (the journal's first-ever event).
    let mut last: Option<u64> = req
        .header("last-event-id")
        .and_then(|v| v.parse().ok())
        .or_else(|| req.query_value("after").and_then(|v| v.parse().ok()));
    let head = "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-store\r\nconnection: close\r\n\r\nretry: 2000\n\n";
    if out
        .write_all(head.as_bytes())
        .and_then(|()| out.flush())
        .is_err()
    {
        return;
    }
    let mut sent: u64 = 0;
    let mut polls_since_ping = 0u32;
    loop {
        if queue.stop.load(Ordering::Acquire) {
            return;
        }
        for e in service.journal_events_after(last) {
            last = Some(e.seq);
            let mut row = vec![
                ("seq".to_string(), Value::U64(e.seq)),
                ("unix_ms".to_string(), Value::U64(e.unix_ms)),
                ("kind".to_string(), Value::String(e.kind.clone())),
                ("message".to_string(), Value::String(e.message.clone())),
            ];
            if e.trace != 0 {
                row.push(("trace".to_string(), Value::String(format!("{:x}", e.trace))));
            }
            if !e.collector.is_empty() {
                row.push(("collector".to_string(), Value::String(e.collector.clone())));
            }
            let data =
                serde_json::to_string(&Value::Object(row)).expect("value rendering is total");
            let frame = format!("id: {}\nevent: {}\ndata: {data}\n\n", e.seq, e.kind);
            if let Err(err) = out.write_all(frame.as_bytes()).and_then(|()| out.flush()) {
                // A write timeout means the subscriber stopped
                // reading: shed it rather than wedge the worker.
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    metrics.sse_slow_disconnects.inc();
                }
                return;
            }
            metrics.sse_events_sent.inc();
            sent += 1;
            polls_since_ping = 0;
            if config.sse_max_events > 0 && sent >= config.sse_max_events {
                let _ = out
                    .write_all(b"event: end_of_stream\ndata: {}\n\n")
                    .and_then(|()| out.flush());
                return;
            }
        }
        // Comment pings keep idle connections visibly alive (and let
        // us notice a dead peer without an event to push).
        polls_since_ping += 1;
        if polls_since_ping >= 20 {
            polls_since_ping = 0;
            if out
                .write_all(b": ping\n\n")
                .and_then(|()| out.flush())
                .is_err()
            {
                return;
            }
        }
        std::thread::sleep(config.sse_poll_interval);
    }
}
