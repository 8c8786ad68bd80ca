//! The query router: maps `GET /v1/...` requests onto epoch-pinned
//! [`HistorySnapshot`] queries and renders the answers as JSON.
//!
//! Every request pins one epoch up front; all reads inside the handler
//! come from that snapshot, so an answer can never mix two epochs no
//! matter what the writer and compaction daemon do meanwhile. The
//! response cache sits directly in [`QueryService::respond`], keyed by
//! `(epoch, canonical query)`, and cacheable answers carry an
//! epoch-derived `ETag` so `If-None-Match` revisits cost no body at
//! all; operational routes (metrics, feed, stats, probes) are uncached
//! — their answers change independently of epochs.
//!
//! | Route | Answer |
//! |---|---|
//! | `/v1/stats` | epoch, horizon, record counts, store counters |
//! | `/v1/validity` | §VI validity report (threshold, affinity, percentile) |
//! | `/v1/conflicts?date=` | prefixes in conflict on a day (`limit=`/`cursor=` to page) |
//! | `/v1/prefix/{prefix}` | point lookup: record + §VI score |
//! | `/v1/timeline?days=` | conflicts open per day |
//! | `/v1/metrics` | server + engine counters (JSON view) |
//! | `/v1/feed` | live-feed cursor, lag, gaps (federated: + `collectors` array) |
//! | `/v1/collectors` | per-collector feed status blocks (corroboration denominators) |
//! | `/v1/events/log` | recent operational events (ring journal) |
//! | `/v1/events/stream` | SSE live tail of the event journal (connection layer) |
//! | `/v1/alerts` | §VII-style operational alert rules and their states |
//! | `/v1/series?name=&range=` | in-process tsdb points for one series |
//! | `/v1/trace/{id}` | one trace's span tree (hex trace id) |
//! | `/v1/traces?slow=N` | slowest recorded root spans |
//! | `/v1/profile?range=` | folded flamegraph stacks (`format=json` for per-stage self/total time) |
//! | `/v1/workload` | query workload analytics: hot keys, per-endpoint latency, slow-query log |
//! | `/metrics` | Prometheus text exposition of the shared registry |
//! | `/healthz` | liveness: 200 whenever the process answers |
//! | `/readyz` | readiness: 200 once an epoch is published, the feed (if any) is not lagging, and no page-severity alert fires |

use crate::cache::{CacheStats, ResponseCache};
use crate::http::{Request, Response};
use crate::metrics::{ServerMetrics, ServerStats};
use crate::ServerConfig;
use moas_history::service::{HistoryReader, HistorySnapshot};
use moas_history::{ConflictStore, RoleHandle, ServiceRole, ValidityConfig, Verdict};
use moas_monitor::metrics::EngineMetrics;
use moas_net::{Date, Prefix};
use moas_obs::{
    AlertEngine, Counter, CpuLedger, Histogram, Profiler, Registry, ResourceLedger, Tsdb, Workload,
};
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::Arc;

/// A pluggable live-status source for `/v1/feed` and the `/readyz`
/// feed-lag check — the feed subsystem supplies its own JSON and lag
/// figure, so this crate stays ingestion-agnostic.
pub trait FeedStatusSource: Send + Sync {
    /// The JSON document `/v1/feed` serves.
    fn status_json(&self) -> Value;
    /// Seconds the ingest position trails the newest discovered
    /// input; `/readyz` answers 503 while this exceeds
    /// [`ServerConfig::ready_max_feed_lag_secs`]. A federated source
    /// reports the *max* across its collectors, so a stalled vantage
    /// point cannot hide behind a healthy one.
    fn lag_seconds(&self) -> u64;
    /// Per-collector status blocks for `/v1/collectors`: one JSON
    /// object per vantage point. `None` for single-feed sources —
    /// the endpoint then wraps [`FeedStatusSource::status_json`] as a
    /// one-element federation so clients see a uniform shape.
    fn collectors(&self) -> Option<Value> {
        None
    }
}

/// How a feed status source is attached: any [`FeedStatusSource`]
/// behind an `Arc` (e.g. the feed crate's `FederationStatus`).
pub type FeedStatusProvider = Arc<dyn FeedStatusSource>;

/// The socket-independent request handler: an epoch-pinned router plus
/// the response cache and server metrics. [`crate::QueryServer`] wraps
/// it in TCP; tests can call [`QueryService::respond`] directly and
/// compare byte-for-byte with what the wire returned.
pub struct QueryService {
    reader: HistoryReader,
    config: ServerConfig,
    cache: ResponseCache,
    metrics: ServerMetrics,
    registry: Arc<Registry>,
    engine: Option<Arc<EngineMetrics>>,
    feed: Option<FeedStatusProvider>,
    /// Self-monitoring attachments ([`QueryService::with_self_monitor`]):
    /// the tsdb behind `/v1/series` and the alert engine behind
    /// `/v1/alerts` and the `/readyz` page check.
    tsdb: Option<Arc<Tsdb>>,
    alerts: Option<Arc<AlertEngine>>,
    /// Which side of the store this server fronts
    /// ([`QueryService::with_role`]): `/v1/stats` reports it and
    /// `/readyz` checks replica staleness through it.
    role: Option<RoleHandle>,
    /// Profiling attachments ([`QueryService::with_profiler`],
    /// [`QueryService::with_cpu_ledger`],
    /// [`QueryService::with_resources`]): the continuous profiler
    /// behind `/v1/profile`, and the CPU/resource ledgers sampled on
    /// every `/metrics` scrape so their gauges are never stale.
    profiler: Option<Arc<Profiler>>,
    cpu: Option<Arc<CpuLedger>>,
    resources: Option<Arc<ResourceLedger>>,
    /// Always-on workload analytics behind `/v1/workload`: every
    /// served request is recorded by normalized endpoint.
    workload: Workload,
    /// Meta-observability: cost of `/metrics` scrapes themselves.
    scrapes: Counter,
    scrape_duration: Histogram,
}

impl QueryService {
    /// A service answering from the given reader, with its metrics on
    /// a private registry.
    pub fn new(reader: HistoryReader, config: ServerConfig) -> Self {
        QueryService::with_registry(reader, config, Arc::new(Registry::new()))
    }

    /// A service whose metrics live on `registry` — share it with the
    /// monitor engine and feed so one `/metrics` scrape covers the
    /// whole pipeline.
    pub fn with_registry(
        reader: HistoryReader,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> Self {
        moas_obs::resource::register_process_metrics(&registry);
        // slow_request_micros == 0 disables slow-request journaling;
        // the workload slow log follows the same convention.
        let slow = if config.slow_request_micros == 0 {
            u64::MAX
        } else {
            config.slow_request_micros
        };
        QueryService {
            reader,
            cache: ResponseCache::new(config.cache_capacity),
            config,
            metrics: ServerMetrics::new(&registry),
            workload: Workload::new(Arc::clone(&registry), slow),
            scrapes: registry.counter(
                "moas_scrapes_total",
                "Prometheus exposition renders served under /metrics.",
            ),
            scrape_duration: registry.histogram(
                "moas_scrape_duration_us",
                "Time spent rendering one /metrics exposition, microseconds.",
            ),
            registry,
            engine: None,
            feed: None,
            tsdb: None,
            alerts: None,
            role: None,
            profiler: None,
            cpu: None,
            resources: None,
        }
    }

    /// The registry this service's series live on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Attaches a monitor engine's metrics block, surfaced under
    /// `/v1/metrics` next to the server's own counters.
    pub fn with_engine_metrics(mut self, engine: Arc<EngineMetrics>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a live-feed status source, served under `/v1/feed`
    /// (cursor, lag, gap count). Without one the route answers 404.
    pub fn with_feed_status(mut self, feed: FeedStatusProvider) -> Self {
        self.feed = Some(feed);
        self
    }

    /// Attaches the self-monitoring pair: the [`Tsdb`] (served under
    /// `/v1/series`) and the [`AlertEngine`] (served under
    /// `/v1/alerts`; a firing page-severity rule fails `/readyz`).
    /// Without them those routes answer 404 and readiness ignores
    /// alerts.
    pub fn with_self_monitor(mut self, tsdb: Arc<Tsdb>, alerts: Arc<AlertEngine>) -> Self {
        self.tsdb = Some(tsdb);
        self.alerts = Some(alerts);
        self
    }

    /// Attaches the history service's role descriptor: `/v1/stats`
    /// gains a `role` block (writer/replica, published vs on-disk
    /// epoch, lag) and on a replica `/readyz` answers 503 while the
    /// served epoch trails the manifest by more than
    /// [`ServerConfig::ready_max_replica_lag_epochs`].
    pub fn with_role(mut self, role: RoleHandle) -> Self {
        self.role = Some(role);
        self
    }

    /// Attaches the continuous profiler, served under `/v1/profile`
    /// (folded flamegraph stacks, `format=json` for per-stage
    /// aggregates). Without one the route answers 404.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attaches the per-thread CPU ledger; it is sampled on every
    /// `/metrics` scrape so `moas_thread_cpu_seconds_total` is always
    /// current at scrape time (a background [`moas_obs::Sampler`]
    /// hook normally also drives it on the tsdb cadence).
    pub fn with_cpu_ledger(mut self, cpu: Arc<CpuLedger>) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Attaches the component byte ledger; like the CPU ledger it is
    /// re-sampled on every `/metrics` scrape, so
    /// `moas_resource_bytes{component=...}` and process RSS are
    /// current in every exposition.
    pub fn with_resources(mut self, resources: Arc<ResourceLedger>) -> Self {
        self.resources = Some(resources);
        self
    }

    /// The workload analytics recorder (exposed for wiring sites that
    /// want to record non-HTTP work against the same sketches).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The server-side counters (shared with the connection layer).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Response-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Approximate response-cache footprint — what the
    /// `moas_resource_bytes{component="cache"}` probe reports.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.approx_bytes()
    }

    /// The tuning knobs this service runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Routes one request to a response. Hot queries are answered from
    /// the epoch-keyed cache; a panicking handler maps to a 500 and
    /// never takes the worker down.
    pub fn respond(&self, req: &Request) -> Arc<Response> {
        if req.method != "GET" {
            return Arc::new(Response::error(
                405,
                "method_not_allowed",
                &format!("method {} not allowed; only GET is supported", req.method),
            ));
        }
        let snap = self.reader.snapshot();
        let cacheable = is_cacheable(&req.path);
        let key = req.canonical_query();
        // Conditional requests short-circuit before the cache lookup:
        // the validator is (epoch, canonical query), so a client — or
        // a shared proxy in front of N replicas — holding a current
        // ETag costs no body bytes and no cache traffic at all.
        let etag = cacheable.then(|| make_etag(snap.epoch(), &key));
        if let Some(tag) = &etag {
            if if_none_match(req, tag) {
                return Arc::new(Response::not_modified(tag.clone()));
            }
        }
        if cacheable {
            if let Some(hit) = self.cache.get(snap.epoch(), &key) {
                return hit;
            }
        }
        let mut response = catch_unwind(AssertUnwindSafe(|| {
            self.route(&snap, req).unwrap_or_else(|err| err)
        }))
        .unwrap_or_else(|_| Response::error(500, "internal", "handler panicked"));
        if response.status == 200 {
            response.etag = etag;
        }
        let response = Arc::new(response);
        if cacheable && response.status == 200 {
            self.cache.put(snap.epoch(), key, Arc::clone(&response));
        }
        response
    }

    fn route(&self, snap: &HistorySnapshot, req: &Request) -> Result<Response, Response> {
        match req.path.as_str() {
            "/v1/stats" => Ok(self.stats_route(snap)),
            "/v1/validity" => self.validity_route(snap, req),
            "/v1/conflicts" => self.conflicts_route(snap, req),
            "/v1/timeline" => self.timeline_route(snap, req),
            "/v1/metrics" => Ok(self.metrics_route()),
            "/v1/feed" => self.feed_route(),
            "/v1/collectors" => self.collectors_route(),
            "/v1/events/log" => Ok(self.events_route()),
            "/v1/alerts" => self.alerts_route(),
            "/v1/series" => self.series_route(req),
            "/v1/traces" => self.traces_route(req),
            "/v1/profile" => self.profile_route(req),
            "/v1/workload" => self.workload_route(req),
            "/metrics" => Ok(self.prometheus_route()),
            "/healthz" => Ok(Response::ok_text("ok\n".to_string())),
            "/readyz" => Ok(self.readyz_route(snap)),
            // The stream is served at the connection layer (it never
            // terminates, so it cannot be a buffered Response); a
            // direct router call explains itself instead of 404ing.
            "/v1/events/stream" => Err(Response::error(
                400,
                "bad_request",
                "event stream is served at the connection layer; connect with a streaming client",
            )),
            p => match p.strip_prefix("/v1/prefix/") {
                Some(rest) if !rest.is_empty() => self.prefix_route(snap, rest, req),
                _ => match p.strip_prefix("/v1/trace/") {
                    Some(rest) if !rest.is_empty() => self.trace_route(rest),
                    _ => Err(Response::error(
                        404,
                        "not_found",
                        &format!("no such route: {p}"),
                    )),
                },
            },
        }
    }

    fn stats_route(&self, snap: &HistorySnapshot) -> Response {
        let store = snap.conflicts();
        let s = snap.stats();
        let role = self.role.as_ref().map(|r| RoleBody {
            mode: r.role().as_str(),
            published_epoch: r.published_epoch(),
            disk_epoch: r.disk_epoch(),
            epoch_lag: r.epoch_lag(),
        });
        json(&StatsResponse {
            epoch: snap.epoch(),
            role,
            horizon_day: snap.horizon_day(),
            last_event_at: store.last_event_at,
            events_replayed: store.events_replayed,
            records: store.records().len() as u64,
            open_conflicts: store.records().values().filter(|r| r.is_open()).count() as u64,
            truncated_prefixes: store.truncated_prefixes().len() as u64,
            affinity_pairs: store.affinity().len() as u64,
            tail_events: snap.tail_events() as u64,
            store: StoreCounters {
                segments_written: s.segments_written,
                segments_expired: s.segments_expired,
                tables_written: s.tables_written,
                retained_bytes: s.retained_bytes,
                lifetime_bytes: s.lifetime_bytes,
                bytes_expired: s.bytes_expired,
                events_appended: s.events_appended,
            },
        })
    }

    fn validity_route(&self, snap: &HistorySnapshot, req: &Request) -> Result<Response, Response> {
        let config = validity_config(req)?;
        let min_duration: u64 = param(req, "min_duration", 0)?;
        let limit: usize = param(req, "limit", 100)?;
        let offset = cursor_offset(req, snap.epoch())?;
        let report = snap.validity(config);
        let (likely_valid, recurring_valid, likely_invalid) = report.tally();
        let mut rows: Vec<&moas_history::ConflictValidity> = report
            .conflicts
            .iter()
            .filter(|c| c.open_secs >= min_duration)
            .collect();
        // Longest-lived first — §VI's strongest-signal ordering; ties
        // break on prefix so the rendering is deterministic (and so
        // cursor pages tile the full answer within one epoch).
        rows.sort_by(|a, b| b.open_secs.cmp(&a.open_secs).then(a.prefix.cmp(&b.prefix)));
        let matched = rows.len() as u64;
        let page: Vec<&moas_history::ConflictValidity> =
            rows.into_iter().skip(offset).take(limit).collect();
        // A follow-up cursor only when the client opted into paging
        // (the default-limit shape stays exactly as it always was).
        let next_cursor = (req.query_value("limit").is_some()
            && offset + page.len() < matched as usize)
            .then(|| encode_cursor(snap.epoch(), (offset + page.len()) as u64));
        Ok(json(&ValidityResponse {
            epoch: snap.epoch(),
            now: report.now,
            threshold_days: config.threshold_days(),
            affinity_min_episodes: config.affinity_min_episodes,
            min_duration_secs: min_duration,
            total: report.conflicts.len() as u64,
            matched,
            tally: Tally {
                likely_valid: likely_valid as u64,
                recurring_valid: recurring_valid as u64,
                likely_invalid: likely_invalid as u64,
            },
            next_cursor,
            conflicts: page.into_iter().map(validity_row).collect(),
        }))
    }

    /// Whether `date` falls below the snapshot's retention horizon —
    /// i.e. the whole day's segments have been expired, so the store
    /// can no longer distinguish "no conflicts that day" from "data
    /// deleted". Such days must be reported as truncated, never as
    /// zero conflicts (§VI longevity statistics would silently skew).
    /// Dates before day position 0 are equally unanswerable (the
    /// history never covered them) and get the same marker, so a
    /// pre-window day answers identically whether or not retention
    /// has ever expired anything.
    fn day_expired(&self, snap: &HistorySnapshot, date: Date) -> bool {
        self.config.start_date.days_until(&date) < snap.horizon_day() as i64
    }

    fn conflicts_route(&self, snap: &HistorySnapshot, req: &Request) -> Result<Response, Response> {
        let date: Date = required_param(req, "date")?;
        let limit: Option<usize> = match req.query_value("limit") {
            Some(_) => Some(param(req, "limit", 0)?),
            None => None,
        };
        if let Some(0) = limit {
            return Err(Response::error(
                400,
                "bad_request",
                "limit must be at least 1",
            ));
        }
        let offset = cursor_offset(req, snap.epoch())?;
        // Opt-in corroboration column: `corroboration=1` adds a
        // parallel array of per-conflict vantage counts (0 =
        // single-collector ingest, untracked). Off by default so the
        // pre-federation answer shape is untouched.
        let want_corroboration = req
            .query_value("corroboration")
            .is_some_and(|v| v != "0" && v != "false");
        let truncated = self.day_expired(snap, date);
        let (prefixes, corroborations): (Vec<String>, Vec<u32>) = if truncated {
            (Vec::new(), Vec::new())
        } else {
            let cut = ConflictStore::cuts(&[date])[0];
            snap.conflicts()
                .records()
                .values()
                .filter(|r| r.days_at_cuts(&[cut]) > 0)
                .map(|r| (r.prefix.to_string(), r.corroboration_count()))
                .unzip()
        };
        let count = (!truncated).then_some(prefixes.len() as u64);
        // Without `limit` the answer keeps its original unpaginated
        // shape, byte for byte. With it, the page plus an
        // epoch-stamped cursor (records iterate in prefix order, so
        // pages tile the full set within one epoch).
        let Some(limit) = limit else {
            let mut body = json_value(&ConflictsResponse {
                epoch: snap.epoch(),
                date: date.to_string(),
                horizon_day: snap.horizon_day(),
                truncated,
                count,
                prefixes,
            });
            if want_corroboration {
                push_field(&mut body, "corroboration", &corroborations);
            }
            return Ok(json(&body));
        };
        let total = prefixes.len();
        let page: Vec<String> = prefixes.into_iter().skip(offset).take(limit).collect();
        let corroboration_page: Vec<u32> = corroborations
            .into_iter()
            .skip(offset)
            .take(page.len())
            .collect();
        let next_cursor = (offset + page.len() < total)
            .then(|| encode_cursor(snap.epoch(), (offset + page.len()) as u64));
        let mut body = json_value(&PagedConflictsResponse {
            epoch: snap.epoch(),
            date: date.to_string(),
            horizon_day: snap.horizon_day(),
            truncated,
            count,
            offset: offset as u64,
            returned: page.len() as u64,
            next_cursor,
            prefixes: page,
        });
        if want_corroboration {
            push_field(&mut body, "corroboration", &corroboration_page);
        }
        Ok(json(&body))
    }

    fn prefix_route(
        &self,
        snap: &HistorySnapshot,
        raw: &str,
        req: &Request,
    ) -> Result<Response, Response> {
        let prefix = Prefix::from_str(raw).map_err(|e| {
            Response::error(400, "bad_request", &format!("bad prefix {raw:?}: {e}"))
        })?;
        let config = validity_config(req)?;
        let rec = snap.record(&prefix).ok_or_else(|| {
            Response::error(
                404,
                "not_found",
                &format!("prefix {prefix} never conflicted"),
            )
        })?;
        let validity = snap
            .validity_of(&prefix, config)
            .expect("record exists, so it scores");
        Ok(json(&PrefixResponse {
            epoch: snap.epoch(),
            prefix: prefix.to_string(),
            origins: rec.origins.iter().map(|a| a.value()).collect(),
            episodes: rec
                .episodes
                .iter()
                .map(|e| EpisodeBody {
                    opened_at: e.opened_at,
                    closed_at: e.closed_at,
                })
                .collect(),
            flap_count: rec.flap_count,
            is_open: rec.is_open(),
            truncated: snap
                .conflicts()
                .truncated_prefixes()
                .binary_search(&prefix)
                .is_ok(),
            affinity_max_pair: snap
                .conflicts()
                .affinity()
                .max_pair_count(prefix, &rec.origins),
            validity: validity_row(&validity),
        }))
    }

    fn timeline_route(&self, snap: &HistorySnapshot, req: &Request) -> Result<Response, Response> {
        let days: u32 = required_param(req, "days")?;
        if days == 0 || days > 3_650 {
            return Err(Response::error(
                400,
                "bad_request",
                &format!("days must be in 1..=3650, got {days}"),
            ));
        }
        let start: Date = param(req, "start", self.config.start_date)?;
        let dates: Vec<Date> = (0..days).map(|i| start.plus_days(i as i64)).collect();
        let cuts = ConflictStore::cuts(&dates);
        let store = snap.conflicts();
        // Days behind the retention horizon are absent, not zero: the
        // segments that would answer them have been expired.
        let days_out: Vec<TimelineDay> = dates
            .iter()
            .zip(&cuts)
            .map(|(date, &cut)| {
                if self.day_expired(snap, *date) {
                    return TimelineDay {
                        date: date.to_string(),
                        conflicts: None,
                        truncated: true,
                    };
                }
                TimelineDay {
                    date: date.to_string(),
                    conflicts: Some(
                        store
                            .records()
                            .values()
                            .filter(|r| r.days_at_cuts(&[cut]) > 0)
                            .count() as u64,
                    ),
                    truncated: false,
                }
            })
            .collect();
        let truncated_days = days_out.iter().filter(|d| d.truncated).count() as u64;
        Ok(json(&TimelineResponse {
            epoch: snap.epoch(),
            start: start.to_string(),
            horizon_day: snap.horizon_day(),
            truncated_days,
            days: days_out,
        }))
    }

    fn feed_route(&self) -> Result<Response, Response> {
        let feed = self.feed.as_ref().ok_or_else(|| {
            Response::error(404, "not_found", "no live feed attached to this server")
        })?;
        Ok(json(&feed.status_json()))
    }

    /// Per-collector feed status: one block per federation vantage
    /// point (corroboration's denominators). A single-feed source is
    /// served as a one-collector federation so clients see a uniform
    /// shape.
    fn collectors_route(&self) -> Result<Response, Response> {
        let feed = self.feed.as_ref().ok_or_else(|| {
            Response::error(404, "not_found", "no live feed attached to this server")
        })?;
        let collectors = feed
            .collectors()
            .unwrap_or_else(|| Value::Array(vec![feed.status_json()]));
        let count = match &collectors {
            Value::Array(items) => items.len() as u64,
            _ => 0,
        };
        Ok(json(&Value::Object(vec![
            ("count".into(), Value::U64(count)),
            ("collectors".into(), collectors),
        ])))
    }

    /// The Prometheus text exposition of the shared registry. When an
    /// engine was attached with its own (unshared) registry, its
    /// families are appended with duplicate `# HELP`/`# TYPE` headers
    /// elided so the combined document still parses.
    fn prometheus_route(&self) -> Response {
        // Meta-observability: the scrape itself is priced. A scrape
        // that balloons (series cardinality creep) shows up in its own
        // exposition on the next pull.
        let started = std::time::Instant::now();
        self.scrapes.inc();
        // Pull-model ledgers refresh at scrape time: thread CPU and
        // component bytes in the exposition are of *now*, not of the
        // last background tick.
        if let Some(cpu) = &self.cpu {
            cpu.sample();
        }
        if let Some(resources) = &self.resources {
            resources.sample();
        }
        let mut body = self.registry.render_prometheus();
        if let Some(engine) = &self.engine {
            let theirs = engine.registry();
            if !Arc::ptr_eq(theirs, &self.registry) {
                append_exposition(&mut body, &theirs.render_prometheus());
            }
        }
        self.scrape_duration.observe_duration(started.elapsed());
        Response::ok_text(body)
    }

    /// Readiness: the history must have published at least one epoch
    /// (a fresh store sits at epoch 0 until its first seal), and an
    /// attached feed must not be lagging beyond the configured bound.
    /// The 503 body names the failing check so probes are debuggable.
    fn readyz_route(&self, snap: &HistorySnapshot) -> Response {
        if snap.epoch() == 0 {
            return Response::error(
                503,
                "not_ready",
                "not ready: no history epoch published yet",
            );
        }
        if let Some(feed) = &self.feed {
            let lag = feed.lag_seconds();
            let max = self.config.ready_max_feed_lag_secs;
            if lag > max {
                return Response::error(
                    503,
                    "not_ready",
                    &format!("not ready: feed lag {lag}s exceeds limit {max}s"),
                );
            }
        }
        // A replica serving an epoch far behind the store on disk is
        // stale: take it out of rotation until its watcher catches up.
        if let Some(role) = &self.role {
            if role.role() == ServiceRole::Replica {
                let lag = role.epoch_lag();
                let max = self.config.ready_max_replica_lag_epochs;
                if lag > max {
                    return Response::error(
                        503,
                        "not_ready",
                        &format!("not ready: replica epoch lag {lag} exceeds limit {max}"),
                    );
                }
            }
        }
        // A firing page-severity alert sheds traffic at the load
        // balancer until the incident resolves.
        if let Some(alerts) = &self.alerts {
            if let Some(rule) = alerts.firing_page() {
                return Response::error(
                    503,
                    "not_ready",
                    &format!("not ready: page alert {rule} is firing"),
                );
            }
        }
        Response::ok_text("ready\n".to_string())
    }

    /// Recent operational events from the registry journal(s): slow
    /// requests, feed gaps, compaction runs, corrupt-segment skips.
    fn events_route(&self) -> Response {
        let mut recorded = self.registry.journal().recorded();
        let mut dropped = self.registry.journal().dropped();
        let mut events = self.registry.journal().events();
        if let Some(engine) = &self.engine {
            let theirs = engine.registry();
            if !Arc::ptr_eq(theirs, &self.registry) {
                recorded += theirs.journal().recorded();
                dropped += theirs.journal().dropped();
                events.extend(theirs.journal().events());
            }
        }
        events.sort_by_key(|e| (e.unix_ms, e.seq));
        let rows = events
            .iter()
            .map(|e| {
                let mut row = vec![
                    ("seq".into(), Value::U64(e.seq)),
                    ("unix_ms".into(), Value::U64(e.unix_ms)),
                    ("kind".into(), Value::String(e.kind.clone())),
                    ("message".into(), Value::String(e.message.clone())),
                ];
                if e.trace != 0 {
                    // Hex, matching what /v1/trace/{id} accepts.
                    row.push(("trace".into(), Value::String(format!("{:x}", e.trace))));
                }
                if !e.collector.is_empty() {
                    row.push(("collector".into(), Value::String(e.collector.clone())));
                }
                Value::Object(row)
            })
            .collect();
        json(&Value::Object(vec![
            ("recorded".into(), Value::U64(recorded)),
            ("dropped".into(), Value::U64(dropped)),
            ("events".into(), Value::Array(rows)),
        ]))
    }

    /// Every alert rule's current standing: name, watched series,
    /// severity, state machine position, last value, and baseline.
    fn alerts_route(&self) -> Result<Response, Response> {
        let alerts = self.alerts.as_ref().ok_or_else(|| {
            Response::error(404, "not_found", "no alert engine attached to this server")
        })?;
        let rows = alerts
            .report()
            .into_iter()
            .map(|a| {
                Value::Object(vec![
                    ("name".into(), Value::String(a.name.to_string())),
                    ("series".into(), Value::String(a.series)),
                    ("severity".into(), Value::String(a.severity.as_str().into())),
                    ("state".into(), Value::String(a.state.to_string())),
                    ("value".into(), a.value.map_or(Value::Null, Value::F64)),
                    ("baseline".into(), Value::F64(a.baseline)),
                    ("since_unix".into(), Value::U64(a.since_unix)),
                ])
            })
            .collect();
        Ok(json(&Value::Object(vec![(
            "alerts".into(),
            Value::Array(rows),
        )])))
    }

    /// Points of one tsdb series over `range` seconds (default one
    /// hour): `?name=moas_feed_lag_seconds&range=600`.
    fn series_route(&self, req: &Request) -> Result<Response, Response> {
        let tsdb = self.tsdb.as_ref().ok_or_else(|| {
            Response::error(
                404,
                "not_found",
                "no time-series store attached to this server",
            )
        })?;
        let name = req
            .query_value("name")
            .ok_or_else(|| {
                Response::error(400, "bad_request", "missing required parameter \"name\"")
            })?
            .to_string();
        let range: u64 = param(req, "range", 3_600)?;
        // An unknown series is a 404, not an empty answer: an empty
        // 200 is indistinguishable from "known series, idle window",
        // and dashboards typo'ing a name must fail loudly.
        if !tsdb.series_names().contains(&name) {
            return Err(Response::error(
                404,
                "not_found",
                &format!("series {name:?} not found (never sampled on this server)"),
            ));
        }
        let now = moas_obs::tsdb::unix_now();
        let series = tsdb
            .query(&name, range, now)
            .into_iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name)),
                    (
                        "labels".into(),
                        Value::Object(
                            s.labels
                                .into_iter()
                                .map(|(k, v)| (k, Value::String(v)))
                                .collect(),
                        ),
                    ),
                    (
                        "points".into(),
                        Value::Array(
                            s.points
                                .into_iter()
                                .map(|(ts, v)| Value::Array(vec![Value::U64(ts), Value::F64(v)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(json(&Value::Object(vec![
            ("name".into(), Value::String(name)),
            ("range_secs".into(), Value::U64(range)),
            ("now_unix".into(), Value::U64(now)),
            ("series".into(), Value::Array(series)),
        ])))
    }

    /// One trace's span tree, parents before children. The id is the
    /// hex string journal entries and `/v1/traces` hand out.
    fn trace_route(&self, raw: &str) -> Result<Response, Response> {
        let id = u64::from_str_radix(raw.trim_start_matches("0x"), 16).map_err(|_| {
            Response::error(
                400,
                "bad_request",
                &format!("bad trace id {raw:?}: expected hex"),
            )
        })?;
        let spans = self.registry.tracer().trace_spans(id);
        if spans.is_empty() {
            return Err(Response::error(
                404,
                "not_found",
                &format!("trace {raw} not found (never sampled, or rotated out of the ring)"),
            ));
        }
        Ok(json(&Value::Object(vec![
            ("trace".into(), Value::String(format!("{id:x}"))),
            (
                "spans".into(),
                Value::Array(spans.iter().map(span_row).collect()),
            ),
        ])))
    }

    /// The slowest recorded root spans, longest first:
    /// `?slow=10` bounds the answer (default 10, max 100).
    fn traces_route(&self, req: &Request) -> Result<Response, Response> {
        let limit: usize = param(req, "slow", 10)?;
        let roots = self.registry.tracer().slowest_roots(limit.min(100));
        Ok(json(&Value::Object(vec![(
            "traces".into(),
            Value::Array(roots.iter().map(span_row).collect()),
        )])))
    }

    /// The continuous wall-clock profile over `range` seconds
    /// (default 600). The default rendering is flamegraph.pl folded
    /// stacks (`stage;child weight` lines, weight = self-time µs) —
    /// pipe straight into `flamegraph.pl`; `format=json` answers
    /// per-stage self/total/count aggregates instead.
    fn profile_route(&self, req: &Request) -> Result<Response, Response> {
        let profiler = self.profiler.as_ref().ok_or_else(|| {
            Response::error(404, "not_found", "no profiler attached to this server")
        })?;
        let range: u64 = param(req, "range", 600)?;
        let now = moas_obs::tsdb::unix_now();
        // Fold whatever accumulated in the span ring since the last
        // collection, so the answer includes work finished an instant
        // ago even between background ticks.
        profiler.collect();
        match req.query_value("format") {
            None | Some("folded") => Ok(Response::ok_text(profiler.folded(range, now))),
            Some("json") => {
                let stages = profiler
                    .stages(range, now)
                    .into_iter()
                    .map(|(stage, agg)| {
                        Value::Object(vec![
                            ("stage".into(), Value::String(stage)),
                            ("self_us".into(), Value::U64(agg.self_us)),
                            ("total_us".into(), Value::U64(agg.total_us)),
                            ("count".into(), Value::U64(agg.count)),
                        ])
                    })
                    .collect();
                Ok(json(&Value::Object(vec![
                    ("range_secs".into(), Value::U64(range)),
                    ("now_unix".into(), Value::U64(now)),
                    ("spans_dropped".into(), Value::U64(profiler.spans_dropped())),
                    ("stages".into(), Value::Array(stages)),
                ])))
            }
            Some(other) => Err(Response::error(
                400,
                "bad_request",
                &format!(
                    "bad value {other:?} for parameter \"format\": expected \"folded\" or \"json\""
                ),
            )),
        }
    }

    /// Query workload analytics: the hot-key sketch (`?top=` bounds
    /// it, default 20, max 100), per-endpoint latency/size
    /// aggregates, and the slow-query log with trace ids.
    fn workload_route(&self, req: &Request) -> Result<Response, Response> {
        let limit: usize = param(req, "top", 20)?;
        let report = self.workload.report(limit.min(100));
        let top = report
            .top
            .into_iter()
            .map(|t| {
                Value::Object(vec![
                    ("endpoint".into(), Value::String(t.endpoint)),
                    ("key".into(), Value::String(t.key)),
                    ("count".into(), Value::U64(t.count)),
                    ("error".into(), Value::U64(t.error)),
                ])
            })
            .collect();
        let endpoints = report
            .endpoints
            .into_iter()
            .map(|e| {
                Value::Object(vec![
                    ("endpoint".into(), Value::String(e.endpoint)),
                    ("count".into(), Value::U64(e.count)),
                    ("p50_us".into(), e.p50_us.map_or(Value::Null, Value::U64)),
                    ("p99_us".into(), e.p99_us.map_or(Value::Null, Value::U64)),
                    (
                        "p99_bytes".into(),
                        e.p99_bytes.map_or(Value::Null, Value::U64),
                    ),
                ])
            })
            .collect();
        let slow = report
            .slow
            .into_iter()
            .map(|s| {
                let mut row = vec![
                    ("unix_ms".into(), Value::U64(s.unix_ms)),
                    ("endpoint".into(), Value::String(s.endpoint)),
                    ("target".into(), Value::String(s.target)),
                    ("micros".into(), Value::U64(s.micros)),
                    ("status".into(), Value::U64(s.status as u64)),
                ];
                if s.trace != 0 {
                    // Hex, matching what /v1/trace/{id} accepts.
                    row.push(("trace".into(), Value::String(format!("{:x}", s.trace))));
                }
                Value::Object(row)
            })
            .collect();
        Ok(json(&Value::Object(vec![
            ("recorded".into(), Value::U64(report.recorded)),
            (
                "slow_threshold_us".into(),
                Value::U64(report.slow_threshold_us),
            ),
            ("top".into(), Value::Array(top)),
            ("endpoints".into(), Value::Array(endpoints)),
            ("slow".into(), Value::Array(slow)),
        ])))
    }

    /// Records a completed request's latency, journaling it when it
    /// crossed the slow-request threshold. `trace` is the request's
    /// trace id (0 when unsampled) — the journal entry carries it, so
    /// a slow request resolves to its span tree at `/v1/trace/{id}`.
    /// Journal events newer than `last` (by ring sequence number), in
    /// order — what one `/v1/events/stream` poll pushes. Reads the
    /// server registry's journal only: an engine attached with a
    /// *separate* registry has its own sequence space, and
    /// interleaving the two would make `Last-Event-ID` resume
    /// ambiguous. (Production wiring shares one registry anyway.)
    /// `last` is `None` on a fresh subscription (sequence numbers
    /// start at 0, so "everything" has no numeric sentinel).
    pub(crate) fn journal_events_after(&self, last: Option<u64>) -> Vec<moas_obs::JournalEvent> {
        let mut events = self.registry.journal().events();
        events.retain(|e| last.is_none_or(|l| e.seq > l));
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Records one answered request in the latency ring, the workload
    /// sketch and (past the threshold) the slow-request journal. The
    /// connection loop calls it before writing the response, so
    /// `micros` is the route time only: it excludes the socket write,
    /// which the `request_serialize` stage histogram times.
    pub(crate) fn note_request(
        &self,
        req: &Request,
        status: u16,
        response_bytes: u64,
        micros: u64,
        trace: u64,
    ) {
        self.metrics.record_latency(micros);
        let path = req.path.as_str();
        let (endpoint, key) = normalize_endpoint(req);
        self.workload.record(
            endpoint,
            &key,
            &req.canonical_query(),
            micros,
            response_bytes,
            status,
            trace,
        );
        let slow = self.config.slow_request_micros;
        if slow > 0 && micros >= slow {
            self.registry.journal().record_with_trace(
                "slow_request",
                format!("{path} took {micros}us"),
                trace,
            );
        }
    }

    fn metrics_route(&self) -> Response {
        let engine = self.engine.as_ref().map(|m| {
            Value::Object(
                m.snapshot()
                    .fields()
                    .iter()
                    .map(|&(name, v)| (name.to_string(), Value::U64(v)))
                    .collect(),
            )
        });
        json(&MetricsResponse {
            server: self.metrics.stats(self.cache.stats()),
            engine,
        })
    }
}

/// Whether a route's answers may enter the epoch-keyed cache (and
/// carry an epoch-derived `ETag`). Metrics, feed status, stats (its
/// `role` block tracks on-disk state, not the pinned epoch), the
/// event journal and stream, the self-monitoring routes, and the
/// probes change with every request (or independently of epochs):
/// never cached.
fn is_cacheable(path: &str) -> bool {
    !matches!(
        path,
        "/v1/stats"
            | "/v1/metrics"
            | "/v1/feed"
            | "/v1/collectors"
            | "/v1/events/log"
            | "/v1/events/stream"
            | "/v1/alerts"
            | "/v1/series"
            | "/v1/traces"
            | "/v1/profile"
            | "/v1/workload"
            | "/metrics"
            | "/healthz"
            | "/readyz"
    ) && !path.starts_with("/v1/trace/")
}

/// Folds a request onto a bounded (endpoint, key) pair for workload
/// accounting: path parameters become placeholders (the endpoint set
/// stays finite no matter what clients ask for) and the interesting
/// dimension of each route becomes the hot-key `key` — the prefix for
/// point lookups, the series name for tsdb reads, the date for
/// per-day scans. Unrouted paths all pool under `"other"`.
fn normalize_endpoint(req: &Request) -> (&'static str, String) {
    const STATIC_ROUTES: &[&str] = &[
        "/v1/stats",
        "/v1/validity",
        "/v1/timeline",
        "/v1/metrics",
        "/v1/feed",
        "/v1/collectors",
        "/v1/events/log",
        "/v1/events/stream",
        "/v1/alerts",
        "/v1/traces",
        "/v1/profile",
        "/v1/workload",
        "/metrics",
        "/healthz",
        "/readyz",
    ];
    let path = req.path.as_str();
    let keyed = |name: &str| req.query_value(name).unwrap_or_default().to_string();
    if let Some(&endpoint) = STATIC_ROUTES.iter().find(|&&r| r == path) {
        return (endpoint, String::new());
    }
    match path {
        "/v1/conflicts" => ("/v1/conflicts", keyed("date")),
        "/v1/series" => ("/v1/series", keyed("name")),
        p if p.starts_with("/v1/prefix/") => {
            ("/v1/prefix/{prefix}", p["/v1/prefix/".len()..].to_string())
        }
        p if p.starts_with("/v1/trace/") => ("/v1/trace/{id}", String::new()),
        _ => ("other", String::new()),
    }
}

/// One span as a JSON row (trace ids in hex, everything else
/// numeric).
fn span_row(s: &moas_obs::SpanRecord) -> Value {
    Value::Object(vec![
        ("trace".into(), Value::String(format!("{:x}", s.trace))),
        ("span".into(), Value::U64(s.span)),
        ("parent".into(), Value::U64(s.parent)),
        ("name".into(), Value::String(s.name.to_string())),
        ("start_unix_us".into(), Value::U64(s.start_unix_us)),
        ("duration_us".into(), Value::U64(s.duration_us)),
    ])
}

/// Appends a second registry's exposition onto `body`, skipping
/// `# HELP`/`# TYPE` lines for families the first render already
/// declared (Prometheus rejects a duplicate `TYPE` line).
fn append_exposition(body: &mut String, extra: &str) {
    let declared: std::collections::HashSet<String> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .map(str::to_string)
        .collect();
    for line in extra.lines() {
        let family = line
            .strip_prefix("# HELP ")
            .or_else(|| line.strip_prefix("# TYPE "))
            .and_then(|rest| rest.split(' ').next());
        if family.is_some_and(|f| declared.contains(f)) {
            continue;
        }
        body.push_str(line);
        body.push('\n');
    }
}

/// Builds the §VI scoring config from `threshold_days` /
/// `affinity_min` query parameters (defaults match
/// [`ValidityConfig::default`]).
fn validity_config(req: &Request) -> Result<ValidityConfig, Response> {
    let defaults = ValidityConfig::default();
    let threshold_days: u32 = param(req, "threshold_days", defaults.threshold_days())?;
    let affinity_min: u32 = param(req, "affinity_min", defaults.affinity_min_episodes)?;
    let corroboration_min: u32 = param(req, "corroboration_min", defaults.corroboration_min)?;
    Ok(ValidityConfig {
        threshold_secs: threshold_days as u64 * 86_400,
        affinity_min_episodes: affinity_min,
        corroboration_min,
    })
}

fn param<T: FromStr>(req: &Request, name: &str, default: T) -> Result<T, Response> {
    match req.query_value(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            Response::error(
                400,
                "bad_request",
                &format!("bad value {raw:?} for parameter {name:?}"),
            )
        }),
    }
}

fn required_param<T: FromStr>(req: &Request, name: &str) -> Result<T, Response> {
    let raw = req.query_value(name).ok_or_else(|| {
        Response::error(
            400,
            "bad_request",
            &format!("missing required parameter {name:?}"),
        )
    })?;
    raw.parse().map_err(|_| {
        Response::error(
            400,
            "bad_request",
            &format!("bad value {raw:?} for parameter {name:?}"),
        )
    })
}

/// The entity validator for a cacheable answer: the history epoch plus
/// a digest of the canonical query. Epoch-prefixed, so every manifest
/// swap invalidates every tag at once — on the writer and on every
/// replica, identically, which is what makes a captured ETag reusable
/// against any server over the same store.
fn make_etag(epoch: u64, canonical_query: &str) -> String {
    format!(
        "\"e{epoch:x}-{:016x}\"",
        fnv1a64(canonical_query.as_bytes())
    )
}

/// FNV-1a, the usual dependency-free 64-bit string hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether the request's `If-None-Match` matches `tag`. Weak
/// validators compare by their opaque part (`W/"x"` matches `"x"`);
/// the `*` form is deliberately not honored — these endpoints always
/// have a current representation, so `*` would 304 everything.
fn if_none_match(req: &Request, tag: &str) -> bool {
    let Some(header) = req.header("if-none-match") else {
        return false;
    };
    header
        .split(',')
        .map(|t| t.trim())
        .map(|t| t.strip_prefix("W/").unwrap_or(t))
        .any(|t| t == tag)
}

/// Renders the opaque page cursor: epoch-stamped so a cursor cannot
/// silently tile two different epochs' orderings.
fn encode_cursor(epoch: u64, offset: u64) -> String {
    format!("{epoch:x}.{offset:x}")
}

/// Parses `cursor=` into a row offset, enforcing the protocol rules:
/// a cursor requires `limit`, must parse, and must carry the pinned
/// epoch — a cursor minted against an older epoch answers `410
/// cursor_expired` (typed, so crawlers know to restart rather than
/// retry).
fn cursor_offset(req: &Request, epoch: u64) -> Result<usize, Response> {
    let Some(raw) = req.query_value("cursor") else {
        return Ok(0);
    };
    if req.query_value("limit").is_none() {
        return Err(Response::error(400, "bad_request", "cursor requires limit"));
    }
    let parsed = raw.split_once('.').and_then(|(e, o)| {
        Some((
            u64::from_str_radix(e, 16).ok()?,
            u64::from_str_radix(o, 16).ok()?,
        ))
    });
    let Some((cursor_epoch, offset)) = parsed else {
        return Err(Response::error(
            400,
            "bad_request",
            &format!("malformed cursor {raw:?}"),
        ));
    };
    if cursor_epoch != epoch {
        return Err(Response::error(
            410,
            "cursor_expired",
            &format!(
                "cursor was minted at epoch {cursor_epoch}, store is now at epoch {epoch}; restart the crawl"
            ),
        ));
    }
    Ok(offset as usize)
}

fn json<T: Serialize>(value: &T) -> Response {
    Response::ok_json(serde_json::to_string(value).expect("value rendering is total"))
}

/// Renders a serializable body to its [`Value`] tree, so optional
/// fields can be appended before the final encode.
fn json_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Appends one field to an object-shaped [`Value`] (no-op on other
/// shapes).
fn push_field<T: Serialize>(body: &mut Value, name: &str, value: &T) {
    if let Value::Object(fields) = body {
        fields.push((name.to_string(), value.to_value()));
    }
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::LikelyValid => "likely_valid",
        Verdict::RecurringValid => "recurring_valid",
        Verdict::LikelyInvalid => "likely_invalid",
        Verdict::WeaklyCorroborated => "weakly_corroborated",
    }
}

fn validity_row(c: &moas_history::ConflictValidity) -> ValidityRow {
    ValidityRow {
        prefix: c.prefix.to_string(),
        open_secs: c.open_secs,
        episodes: c.episodes,
        flaps: c.flaps,
        longevity_percentile: c.longevity_percentile,
        corroboration: c.corroboration,
        verdict: verdict_str(c.verdict),
    }
}

#[derive(Serialize)]
struct StoreCounters {
    segments_written: u64,
    segments_expired: u64,
    tables_written: u64,
    retained_bytes: u64,
    lifetime_bytes: u64,
    bytes_expired: u64,
    events_appended: u64,
}

#[derive(Serialize)]
struct RoleBody {
    mode: &'static str,
    published_epoch: u64,
    disk_epoch: Option<u64>,
    epoch_lag: u64,
}

#[derive(Serialize)]
struct StatsResponse {
    epoch: u64,
    role: Option<RoleBody>,
    horizon_day: u32,
    last_event_at: u32,
    events_replayed: u64,
    records: u64,
    open_conflicts: u64,
    truncated_prefixes: u64,
    affinity_pairs: u64,
    tail_events: u64,
    store: StoreCounters,
}

#[derive(Serialize)]
struct Tally {
    likely_valid: u64,
    recurring_valid: u64,
    likely_invalid: u64,
}

#[derive(Serialize)]
struct ValidityRow {
    prefix: String,
    open_secs: u64,
    episodes: u32,
    flaps: u32,
    longevity_percentile: f64,
    corroboration: u32,
    verdict: &'static str,
}

#[derive(Serialize)]
struct ValidityResponse {
    epoch: u64,
    now: u32,
    threshold_days: u32,
    affinity_min_episodes: u32,
    min_duration_secs: u64,
    total: u64,
    matched: u64,
    tally: Tally,
    next_cursor: Option<String>,
    conflicts: Vec<ValidityRow>,
}

#[derive(Serialize)]
struct ConflictsResponse {
    epoch: u64,
    date: String,
    horizon_day: u32,
    truncated: bool,
    count: Option<u64>,
    prefixes: Vec<String>,
}

#[derive(Serialize)]
struct PagedConflictsResponse {
    epoch: u64,
    date: String,
    horizon_day: u32,
    truncated: bool,
    count: Option<u64>,
    offset: u64,
    returned: u64,
    next_cursor: Option<String>,
    prefixes: Vec<String>,
}

#[derive(Serialize)]
struct EpisodeBody {
    opened_at: u32,
    closed_at: Option<u32>,
}

#[derive(Serialize)]
struct PrefixResponse {
    epoch: u64,
    prefix: String,
    origins: Vec<u32>,
    episodes: Vec<EpisodeBody>,
    flap_count: u32,
    is_open: bool,
    truncated: bool,
    affinity_max_pair: u32,
    validity: ValidityRow,
}

#[derive(Serialize)]
struct TimelineDay {
    date: String,
    conflicts: Option<u64>,
    truncated: bool,
}

#[derive(Serialize)]
struct TimelineResponse {
    epoch: u64,
    start: String,
    horizon_day: u32,
    truncated_days: u64,
    days: Vec<TimelineDay>,
}

#[derive(Serialize)]
struct MetricsResponse {
    server: ServerStats,
    engine: Option<Value>,
}
