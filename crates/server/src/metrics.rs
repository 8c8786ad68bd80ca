//! Server-side counters and latency tracking.
//!
//! Counters are typed handles on a shared [`moas_obs::Registry`] —
//! recording them is one relaxed atomic add and never contends with
//! request handling, and the same series the JSON `/v1/metrics` view
//! reports appear verbatim in the Prometheus `GET /metrics` scrape.
//! Latency is kept twice: a [`moas_obs::Histogram`]
//! (`moas_serve_request_duration_us`) for scrape-side quantile
//! estimation, and a fixed ring of the most recent [`LATENCY_RING`]
//! request durations for exact p50/p99 on demand. Percentiles are
//! computed over the *filled* portion of the ring only, and are
//! explicitly absent — not zero — before the first request lands.

use crate::cache::CacheStats;
use moas_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of recent request latencies retained for percentiles.
pub const LATENCY_RING: usize = 1024;

/// Live counters for a running query server.
pub struct ServerMetrics {
    /// Connections accepted by the listener.
    pub connections_accepted: Counter,
    /// Connections rejected with 503 because the queue was full.
    pub connections_rejected: Counter,
    /// Requests parsed and routed.
    pub requests: Counter,
    /// Requests currently being handled (gauge).
    pub in_flight: Gauge,
    /// Responses with a 2xx status.
    pub responses_ok: Counter,
    /// Responses with a 3xx status (all of them 304s here).
    pub responses_not_modified: Counter,
    /// Responses with a 4xx status.
    pub responses_client_error: Counter,
    /// Responses with a 5xx status.
    pub responses_server_error: Counter,
    /// `/v1/events/stream` connections opened.
    pub sse_connections: Counter,
    /// Events written to `/v1/events/stream` subscribers.
    pub sse_events_sent: Counter,
    /// Stream subscribers disconnected for not keeping up (write
    /// timeout while pushing an event).
    pub sse_slow_disconnects: Counter,
    /// Connections dropped by the idle read timeout.
    pub read_timeouts: Counter,
    /// Connections dropped because the request did not parse.
    pub malformed_requests: Counter,
    /// Request latency through route, excluding the socket write
    /// (microseconds, log-scale buckets).
    pub request_latency: Histogram,
    /// Time spent reading and parsing the request head. On a
    /// keep-alive connection this includes the idle wait for the next
    /// request's first byte, so treat it as an upper bound.
    pub stage_parse: Histogram,
    /// Time spent routing and computing the response body.
    pub stage_route: Histogram,
    /// Time spent serializing the response onto the socket.
    pub stage_serialize: Histogram,
    ring: [AtomicU64; LATENCY_RING],
    ring_cursor: AtomicU64,
    ring_filled: AtomicU64,
    registry: Arc<Registry>,
}

/// Panic-safe in-flight accounting: [`ServerMetrics::begin_request`]
/// increments the gauge, dropping the guard decrements it — on the
/// normal path, on early returns, and during the unwind of a
/// panicking handler alike.
#[must_use = "dropping the guard is what ends the in-flight window"]
pub struct InFlightGuard {
    in_flight: Gauge,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.in_flight.sub(1);
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new(&Arc::new(Registry::new()))
    }
}

impl ServerMetrics {
    /// Registers the server series on `registry` — share the registry
    /// with the monitor engine and feed so one scrape covers all of
    /// them.
    pub fn new(registry: &Arc<Registry>) -> Self {
        let r = registry.as_ref();
        let response_class = |class: &str| {
            r.counter_with(
                "moas_serve_responses_total",
                &[("class", class)],
                "Responses by status class.",
            )
        };
        ServerMetrics {
            connections_accepted: r.counter(
                "moas_serve_connections_accepted_total",
                "Connections accepted by the listener.",
            ),
            connections_rejected: r.counter(
                "moas_serve_connections_rejected_total",
                "Connections rejected with 503 (queue full or shutdown).",
            ),
            requests: r.counter("moas_serve_requests_total", "Requests parsed and routed."),
            in_flight: r.gauge("moas_serve_in_flight", "Requests currently being handled."),
            responses_ok: response_class("2xx"),
            responses_not_modified: response_class("3xx"),
            responses_client_error: response_class("4xx"),
            responses_server_error: response_class("5xx"),
            sse_connections: r.counter(
                "moas_serve_sse_connections_total",
                "Event-stream connections opened.",
            ),
            sse_events_sent: r.counter(
                "moas_serve_sse_events_sent_total",
                "Events written to event-stream subscribers.",
            ),
            sse_slow_disconnects: r.counter(
                "moas_serve_sse_slow_disconnects_total",
                "Event-stream subscribers disconnected for not keeping up.",
            ),
            read_timeouts: r.counter(
                "moas_serve_read_timeouts_total",
                "Connections dropped by the idle read timeout.",
            ),
            malformed_requests: r.counter(
                "moas_serve_malformed_requests_total",
                "Connections dropped because the request did not parse.",
            ),
            request_latency: r.histogram(
                "moas_serve_request_duration_us",
                "Request latency through route in microseconds (excludes the write).",
            ),
            stage_parse: r.stage_histogram("request_parse"),
            stage_route: r.stage_histogram("request_route"),
            stage_serialize: r.stage_histogram("request_serialize"),
            ring: std::array::from_fn(|_| AtomicU64::new(0)),
            ring_cursor: AtomicU64::new(0),
            ring_filled: AtomicU64::new(0),
            registry: Arc::clone(registry),
        }
    }

    /// The registry the server series live on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Counts a request and opens its in-flight window; the returned
    /// guard closes the window when dropped, panics included.
    pub fn begin_request(&self) -> InFlightGuard {
        self.requests.inc();
        self.in_flight.add(1);
        InFlightGuard {
            in_flight: self.in_flight.clone(),
        }
    }

    /// Records one request's wall-clock duration.
    pub fn record_latency(&self, micros: u64) {
        self.request_latency.observe(micros);
        let slot = self.ring_cursor.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_RING;
        self.ring[slot].store(micros, Ordering::Relaxed);
        self.ring_filled
            .fetch_max(slot as u64 + 1, Ordering::Relaxed);
    }

    /// Tallies a response by status class.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            300..=399 => &self.responses_not_modified,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.inc();
    }

    /// A point-in-time copy of every counter plus ring percentiles.
    pub fn stats(&self, cache: CacheStats) -> ServerStats {
        let filled = (self.ring_filled.load(Ordering::Relaxed) as usize).min(LATENCY_RING);
        let mut window: Vec<u64> = self.ring[..filled]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        window.sort_unstable();
        // No samples means no percentile — reporting 0 would read as
        // "requests are instant" on every fresh server.
        let pct = |p: f64| -> Option<u64> {
            if window.is_empty() {
                None
            } else {
                let idx = ((window.len() - 1) as f64 * p).round() as usize;
                Some(window[idx])
            }
        };
        ServerStats {
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            requests: self.requests.get(),
            in_flight: self.in_flight.get(),
            responses_ok: self.responses_ok.get(),
            responses_not_modified: self.responses_not_modified.get(),
            responses_client_error: self.responses_client_error.get(),
            responses_server_error: self.responses_server_error.get(),
            sse_connections: self.sse_connections.get(),
            sse_events_sent: self.sse_events_sent.get(),
            sse_slow_disconnects: self.sse_slow_disconnects.get(),
            read_timeouts: self.read_timeouts.get(),
            malformed_requests: self.malformed_requests.get(),
            latency_samples: window.len() as u64,
            p50_micros: pct(0.50),
            p99_micros: pct(0.99),
            cache,
        }
    }
}

/// A frozen copy of [`ServerMetrics`], served under `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ServerStats {
    /// Connections accepted by the listener.
    pub connections_accepted: u64,
    /// Connections rejected with 503 (queue full).
    pub connections_rejected: u64,
    /// Requests parsed and routed.
    pub requests: u64,
    /// Requests currently being handled.
    pub in_flight: u64,
    /// 2xx responses.
    pub responses_ok: u64,
    /// 3xx responses (304 conditional-request answers).
    pub responses_not_modified: u64,
    /// 4xx responses.
    pub responses_client_error: u64,
    /// 5xx responses.
    pub responses_server_error: u64,
    /// `/v1/events/stream` connections opened.
    pub sse_connections: u64,
    /// Events written to `/v1/events/stream` subscribers.
    pub sse_events_sent: u64,
    /// Stream subscribers disconnected for not keeping up.
    pub sse_slow_disconnects: u64,
    /// Connections dropped by the idle read timeout.
    pub read_timeouts: u64,
    /// Connections dropped because the request did not parse.
    pub malformed_requests: u64,
    /// Latency samples currently in the ring.
    pub latency_samples: u64,
    /// Median request latency over the ring, in microseconds;
    /// `None` until the first request completes.
    pub p50_micros: Option<u64>,
    /// 99th-percentile request latency over the ring; `None` until
    /// the first request completes.
    pub p99_micros: Option<u64>,
    /// Response-cache counters.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResponseCache;

    #[test]
    fn percentiles_over_partial_ring() {
        let m = ServerMetrics::default();
        for v in [10u64, 20, 30, 40, 1000] {
            m.record_latency(v);
        }
        let stats = m.stats(ResponseCache::new(4).stats());
        assert_eq!(stats.latency_samples, 5);
        assert_eq!(stats.p50_micros, Some(30));
        assert_eq!(stats.p99_micros, Some(1000));
    }

    #[test]
    fn percentiles_absent_before_first_request() {
        let m = ServerMetrics::default();
        let stats = m.stats(ResponseCache::new(4).stats());
        assert_eq!(stats.latency_samples, 0);
        assert_eq!(stats.p50_micros, None);
        assert_eq!(stats.p99_micros, None);
        // Same rule in the histogram's quantile estimate.
        assert_eq!(m.request_latency.snapshot().quantile(0.5), None);
    }

    #[test]
    fn ring_wraps_without_growing() {
        let m = ServerMetrics::default();
        for v in 0..(LATENCY_RING as u64 * 2) {
            m.record_latency(v);
        }
        let stats = m.stats(ResponseCache::new(4).stats());
        assert_eq!(stats.latency_samples, LATENCY_RING as u64);
        // Only the second pass's values remain.
        assert!(stats.p50_micros.unwrap() >= LATENCY_RING as u64);
    }

    #[test]
    fn status_classes_tally() {
        let m = ServerMetrics::default();
        for s in [200, 200, 304, 404, 400, 500, 503] {
            m.record_status(s);
        }
        let stats = m.stats(ResponseCache::new(4).stats());
        assert_eq!(stats.responses_ok, 2);
        assert_eq!(stats.responses_not_modified, 1);
        assert_eq!(stats.responses_client_error, 2);
        assert_eq!(stats.responses_server_error, 2);
    }

    #[test]
    fn in_flight_guard_survives_panics() {
        let m = Arc::new(ServerMetrics::default());
        let guard = m.begin_request();
        assert_eq!(m.in_flight.get(), 1);
        drop(guard);
        assert_eq!(m.in_flight.get(), 0);

        let inner = Arc::clone(&m);
        let result = std::panic::catch_unwind(move || {
            let _guard = inner.begin_request();
            panic!("handler blew up");
        });
        assert!(result.is_err());
        assert_eq!(m.in_flight.get(), 0, "unwind must release the gauge");
        assert_eq!(m.requests.get(), 2);
    }
}
