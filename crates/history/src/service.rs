//! The long-running service layer: one writer, one compaction daemon,
//! any number of snapshot-isolated readers — in one process or many.
//!
//! [`HistoryService`] wraps a [`HistoryStore`] for continuous
//! operation — the deployment shape "Live Long and Prosper"
//! (arXiv:2307.08490) measures against, where validity is queried
//! *while* months of history accumulate:
//!
//! ```text
//!          writer thread                 compaction daemon
//!   MonitorEngine::drain_events      watermark / retention sweeps
//!              │ append / mark_day            │ rewrite + expire
//!              ▼                              ▼
//!        ┌───────────────── Mutex<StoreState> ─────────────────┐
//!        │ HistoryStore (segments · table · MANIFEST)  + tail  │
//!        └──────────────────────────┬───────────────────────────┘
//!                   publish_epoch   │   (every manifest swap)
//!                                   ▼
//!                              EpochSlot
//!                                   │ clone Arc (no IO, no store lock)
//!              ┌────────────────────┼────────────────────┐
//!              ▼                    ▼                    ▼
//!          reader A             reader B             reader C
//!        snapshot(): table-seeded replay of the pinned epoch
//! ```
//!
//! Every manifest swap publishes a new immutable [`HistoryEpoch`] —
//! the decoded table plus the uncovered tail chunks — into an
//! `EpochSlot`. A reader pins an epoch by cloning the `Arc` (a few
//! nanoseconds under the read lock) and then replays it entirely from
//! shared immutable data: queries never block the writer, the daemon,
//! or each other, and two snapshots of the same epoch answer
//! identically no matter what the writer did in between.
//!
//! ## Replication: the manifest swap is the protocol
//!
//! Because every mutation commits through one atomic `MANIFEST`
//! rename, and segments and tables are immutable once the manifest
//! references them, *any other process* can follow the store by
//! re-reading the manifest and loading whatever files it names —
//! exactly what the in-process epoch publication does, over the
//! filesystem instead of a lock. [`HistoryService::open_read_only`]
//! opens a store in that mode: it never writes (no compaction daemon,
//! no crash-window adoption, no tmp-file cleanup), it just watches the
//! `MANIFEST` for epoch swaps and republishes fresh [`HistoryEpoch`]s
//! to its readers. N replica processes serving one store written by a
//! single feed is the horizontal-scale topology the ROADMAP's
//! "serving for millions of users" item calls for.
//! [`HistoryService::role_handle`] gives serving layers the replica's
//! published-vs-on-disk epoch lag for staleness checks.

use crate::compact::{Compactor, ConflictRecord, ConflictStore};
use crate::daemon::{run_daemon, RetentionPolicy};
use crate::manifest::{read_manifest, Manifest, ManifestError};
use crate::segment::read_segment;
use crate::store::{seg_path, HistoryStore, OpenReport, StoreStats};
use crate::table::{read_table, TableData};
use crate::validity::{score_prefix, ConflictValidity, ValidityConfig, ValidityReport};
use moas_monitor::metrics::EngineMetrics;
use moas_monitor::SeqEvent;
use moas_net::{Date, Prefix};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Date of day position 0 — what maps day indexes to stream
    /// timestamps for retention pruning.
    pub start_date: Date,
    /// What retention may delete.
    pub retention: RetentionPolicy,
    /// Compact once this many sealed segments await coverage.
    pub watermark_segments: usize,
    /// Fallback daemon wakeup (time-based retention can become due
    /// without a day mark). On a read-only replica this is the
    /// manifest poll interval — how quickly it notices epoch swaps.
    pub poll_interval: Duration,
    /// Spawn the background thread (compaction daemon on a writer,
    /// manifest watcher on a replica). Disable for fully deterministic
    /// tests and drive [`HistoryService::maintain_now`] /
    /// [`HistoryService::refresh_now`] by hand.
    pub daemon: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            start_date: Date::ymd(1970, 1, 1),
            retention: RetentionPolicy::keep_everything(),
            watermark_segments: 4,
            poll_interval: Duration::from_millis(500),
            daemon: true,
        }
    }
}

/// Which side of the replication protocol a service opened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceRole {
    /// The one process that mutates the store (and runs compaction).
    Writer,
    /// A read-only follower: watches the `MANIFEST`, never writes.
    Replica,
}

impl ServiceRole {
    /// Stable lower-case name for APIs and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceRole::Writer => "writer",
            ServiceRole::Replica => "replica",
        }
    }
}

/// The published-epoch slot shared between a service and its readers.
/// Writes only ever install a fully built `Arc`, so readers tolerate
/// writer-side poisoning and service shutdown alike.
pub(crate) struct EpochSlot(RwLock<Arc<HistoryEpoch>>);

impl EpochSlot {
    fn new(first: Arc<HistoryEpoch>) -> Self {
        EpochSlot(RwLock::new(first))
    }

    pub(crate) fn publish(&self, ep: Arc<HistoryEpoch>) {
        *self
            .0
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = ep;
    }

    pub(crate) fn pin(&self) -> Arc<HistoryEpoch> {
        Arc::clone(
            &self
                .0
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.0
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .epoch
    }
}

/// The epoch a service publishes before it has seen any store state:
/// epoch 0, nothing to replay.
fn empty_epoch() -> Arc<HistoryEpoch> {
    Arc::new(HistoryEpoch {
        epoch: 0,
        horizon_day: 0,
        stats: StoreStats::default(),
        table: None,
        tail: Vec::new(),
        replayed: OnceLock::new(),
    })
}

/// Writer-side state, all under one lock so every manifest swap and
/// its tail update commit together.
pub(crate) struct StoreState {
    pub(crate) store: HistoryStore,
    /// Uncovered sealed segments' events, ascending by file number —
    /// what snapshots replay on top of the table.
    pub(crate) tail: Vec<(u64, Arc<Vec<SeqEvent>>)>,
    /// Events appended since the last seal, in order (the open
    /// segment's contents; becomes the next tail chunk).
    pending: Vec<SeqEvent>,
}

/// Daemon coordination.
pub(crate) struct WorkState {
    pub(crate) generation: u64,
    pub(crate) completed: u64,
    pub(crate) shutdown: bool,
    pub(crate) notes: Vec<String>,
}

pub(crate) struct Shared {
    pub(crate) dir: PathBuf,
    pub(crate) config: ServiceConfig,
    pub(crate) state: Mutex<StoreState>,
    pub(crate) epoch: Arc<EpochSlot>,
    pub(crate) work: Mutex<WorkState>,
    pub(crate) work_cv: Condvar,
    /// Serializes maintenance sweeps (daemon vs `maintain_now`).
    pub(crate) maintain: Mutex<()>,
    /// The metric registry that arrived with `attach_metrics`; once
    /// set, notes are mirrored into its operational event journal.
    pub(crate) registry: Mutex<Option<Arc<moas_obs::Registry>>>,
}

impl Shared {
    /// Records a non-fatal observation (skipped corrupt segment,
    /// failed sweep) for [`HistoryService::notes`], mirrored into the
    /// attached registry's event journal when one is present.
    pub(crate) fn note(&self, note: String) {
        if let Some(r) = &*self.registry.lock().expect("registry slot poisoned") {
            r.journal().record(note_kind(&note), note.as_str());
        }
        let mut ws = self.work.lock().expect("work lock poisoned");
        if ws.notes.len() < 256 {
            ws.notes.push(note);
        }
    }
}

/// Journal kind for a store note: corrupt-data skips get their own
/// kind so an operator can alert on them specifically.
fn note_kind(note: &str) -> &'static str {
    if note.contains("corrupt") {
        "corrupt_segment"
    } else {
        "store_note"
    }
}

/// One immutable published state: everything a snapshot replays.
pub struct HistoryEpoch {
    /// The manifest epoch this state was published at.
    pub epoch: u64,
    /// First retained day position (whole days below it expired).
    pub horizon_day: u32,
    /// Store counters at publication.
    pub stats: StoreStats,
    table: Option<Arc<TableData>>,
    tail: Vec<(u64, Arc<Vec<SeqEvent>>)>,
    /// The replay, memoized: the epoch is immutable, so every
    /// snapshot of it answers from the same fold.
    replayed: OnceLock<Arc<ConflictStore>>,
}

impl HistoryEpoch {
    /// Replays the epoch into a queryable [`ConflictStore`]: seed from
    /// the record table, fold the uncovered tail chunks on top. Pure
    /// CPU over immutable shared data — no locks, no IO — and done at
    /// most once per epoch: repeat snapshots share the cached fold.
    pub fn replay(&self) -> Arc<ConflictStore> {
        Arc::clone(self.replayed.get_or_init(|| {
            let mut comp = Compactor::new();
            if let Some(t) = &self.table {
                t.seed_compactor(&mut comp);
            }
            for (_, chunk) in &self.tail {
                comp.fold(chunk);
            }
            Arc::new(comp.finish())
        }))
    }

    /// The cold table this epoch serves from, if one is installed.
    pub fn table(&self) -> Option<&TableData> {
        self.table.as_deref()
    }

    /// Events in the hot tail (not yet compacted into the table).
    pub fn tail_events(&self) -> usize {
        self.tail.iter().map(|(_, c)| c.len()).sum()
    }
}

/// Publishes the current store state as a fresh epoch. Call with the
/// state lock held so the epoch is consistent with the manifest.
pub(crate) fn publish_epoch(shared: &Shared, st: &StoreState) {
    let started = std::time::Instant::now();
    let m = st.store.manifest();
    let ep = Arc::new(HistoryEpoch {
        epoch: m.epoch,
        horizon_day: m.horizon_day,
        stats: st.store.stats(),
        table: st.store.table(),
        tail: st.tail.clone(),
        replayed: OnceLock::new(),
    });
    shared.epoch.publish(ep);
    if let Some(metrics) = st.store.metrics_handle() {
        // The newest event timestamp now visible to readers — the
        // serve side of the ingest-to-serve lag. The watermark gauge
        // absorbs re-publishing the same chunk.
        if let Some(newest) = st
            .tail
            .last()
            .and_then(|(_, chunk)| chunk.iter().map(|e| e.event.at()).max())
        {
            metrics.lag.observe_served(newest as u64);
        }
        metrics
            .registry()
            .stage_histogram("epoch_publish")
            .observe_duration(started.elapsed());
        // Publishes triggered by the writer thread carry its ambient
        // poll context, completing the discovery-to-served-epoch
        // trace.
        let t = metrics.registry().tracer();
        t.record_stage(t.current(), "epoch_publish", started.elapsed());
    }
}

/// Replica-side shared state: the manifest watcher's cache plus the
/// epoch slot its readers pin.
struct ReplicaShared {
    dir: PathBuf,
    poll_interval: Duration,
    slot: Arc<EpochSlot>,
    state: Mutex<ReplicaState>,
    ctl: Mutex<ReplicaCtl>,
    cv: Condvar,
    /// Mirrors notes into an attached registry's event journal, like
    /// the writer side does.
    registry: Mutex<Option<Arc<moas_obs::Registry>>>,
}

/// What the replica last loaded: reused across refreshes so an epoch
/// swap only reads the files that actually changed (normally one new
/// segment), not the whole store.
struct ReplicaState {
    manifest: Manifest,
    table: Option<Arc<TableData>>,
    chunks: Vec<(u64, Arc<Vec<SeqEvent>>)>,
    /// Whether the first refresh has published (so a missing manifest
    /// — replica started before the writer — still publishes the
    /// empty epoch exactly once).
    published: bool,
}

struct ReplicaCtl {
    shutdown: bool,
    notes: Vec<String>,
    /// Completed refresh passes (including no-change polls) — lets
    /// tests wait deterministically.
    refreshes: u64,
}

impl ReplicaShared {
    fn note(&self, note: String) {
        let mut ctl = self.ctl.lock().expect("replica ctl poisoned");
        // A persistent condition (corrupt manifest, unreadable table)
        // would otherwise add one identical note per poll.
        if ctl.notes.last() == Some(&note) {
            return;
        }
        if let Some(r) = &*self.registry.lock().expect("registry slot poisoned") {
            r.journal().record(note_kind(&note), note.as_str());
        }
        if ctl.notes.len() < 256 {
            ctl.notes.push(note);
        }
    }
}

/// Whether the on-disk manifest has moved past `seen_epoch` — the
/// retry signal when a file read races a writer-side swap (the writer
/// may have legitimately deleted what the stale manifest referenced).
fn manifest_moved(dir: &Path, seen_epoch: u64) -> bool {
    match read_manifest(dir) {
        Ok(m) => m.epoch != seen_epoch,
        Err(_) => false,
    }
}

/// One replication pull: re-read the manifest and, if it changed, load
/// what it references (reusing unchanged files from the cache) and
/// publish a fresh epoch. Never writes to the store directory.
/// Returns whether a new epoch was published.
fn replica_refresh(shared: &ReplicaShared) -> io::Result<bool> {
    let published = 'attempt: {
        // A file read can fail because the writer swapped the manifest
        // and deleted the file between our manifest read and the load;
        // re-read and retry against the fresh manifest. Bounded: each
        // retry needs another writer-side swap to trigger.
        for _ in 0..8 {
            let manifest = match read_manifest(&shared.dir) {
                Ok(m) => m,
                // Replica started before the writer created the store:
                // serve the empty epoch and keep watching.
                Err(ManifestError::Missing) => Manifest::default(),
                Err(e @ ManifestError::Corrupt(_)) => {
                    shared.note(format!(
                        "replica kept serving epoch {}: {e}",
                        shared.slot.epoch()
                    ));
                    break 'attempt false;
                }
            };
            let (prev_manifest, prev_table, prev_chunks, already) = {
                let st = shared.state.lock().expect("replica state poisoned");
                (
                    st.manifest.clone(),
                    st.table.clone(),
                    st.chunks.clone(),
                    st.published,
                )
            };
            if already && manifest == prev_manifest {
                break 'attempt false;
            }

            // The table: reuse the decoded one when the manifest still
            // names the same file (tables are immutable once installed).
            let table: Option<Arc<TableData>> = if manifest.table == prev_manifest.table && already
            {
                prev_table
            } else if let Some(path) = manifest.table_path(&shared.dir) {
                match read_table(&path) {
                    Ok(data) => Some(Arc::new(data)),
                    Err(e) => {
                        if manifest_moved(&shared.dir, manifest.epoch) {
                            continue;
                        }
                        // Keep serving the previous epoch rather than
                        // publish a view missing its table; the next
                        // swap may replace the table anyway.
                        shared.note(format!(
                            "replica kept serving epoch {}: table {} unreadable: {e}",
                            shared.slot.epoch(),
                            path.display()
                        ));
                        break 'attempt false;
                    }
                }
            } else {
                None
            };

            // Uncovered tail chunks, ascending; sealed segments are
            // immutable, so cached ones are reused byte-for-byte.
            let prev: BTreeMap<u64, Arc<Vec<SeqEvent>>> = prev_chunks.into_iter().collect();
            let mut chunks: Vec<(u64, Arc<Vec<SeqEvent>>)> = Vec::new();
            let mut raced = false;
            for &n in manifest
                .segments
                .iter()
                .filter(|&&n| n >= manifest.covered_below)
            {
                if let Some(c) = prev.get(&n) {
                    chunks.push((n, Arc::clone(c)));
                    continue;
                }
                match read_segment(&seg_path(&shared.dir, n)) {
                    Ok(data) => chunks.push((n, Arc::new(data.events))),
                    Err(e) => {
                        if manifest_moved(&shared.dir, manifest.epoch) {
                            raced = true;
                            break;
                        }
                        // Same policy as the writer's open: a corrupt
                        // sealed segment is skipped and reported,
                        // never fatal.
                        shared.note(format!("replica skipped corrupt segment seg-{n:08}: {e}"));
                    }
                }
            }
            if raced {
                continue;
            }

            // Live bytes by statting what the manifest references —
            // under a stable manifest this equals the writer's own
            // accounting, so `/v1/stats` agrees across replicas.
            let mut retained = 0u64;
            for &n in &manifest.segments {
                retained += std::fs::metadata(seg_path(&shared.dir, n))
                    .map(|m| m.len())
                    .unwrap_or(0);
            }
            if let Some(path) = manifest.table_path(&shared.dir) {
                retained += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
            let stats = StoreStats {
                segments_written: manifest.segments.len() as u64 + manifest.segments_expired,
                segments_expired: manifest.segments_expired,
                tables_written: manifest.tables_written,
                retained_bytes: retained,
                lifetime_bytes: manifest.lifetime_bytes,
                bytes_expired: manifest.bytes_expired,
                events_appended: manifest.events_appended,
            };

            let ep = Arc::new(HistoryEpoch {
                epoch: manifest.epoch,
                horizon_day: manifest.horizon_day,
                stats,
                table: table.clone(),
                tail: chunks.clone(),
                replayed: OnceLock::new(),
            });
            let mut st = shared.state.lock().expect("replica state poisoned");
            shared.slot.publish(ep);
            st.manifest = manifest;
            st.table = table;
            st.chunks = chunks;
            st.published = true;
            break 'attempt true;
        }
        shared.note(format!(
            "replica kept serving epoch {}: manifest kept moving during refresh",
            shared.slot.epoch()
        ));
        false
    };
    let mut ctl = shared.ctl.lock().expect("replica ctl poisoned");
    ctl.refreshes += 1;
    Ok(published)
}

/// The replica's watcher loop: poll the manifest on the configured
/// interval (or sooner when kicked), republishing on every swap.
fn run_replica_watcher(shared: Arc<ReplicaShared>) {
    loop {
        {
            let ctl = shared.ctl.lock().expect("replica ctl poisoned");
            if ctl.shutdown {
                return;
            }
        }
        if let Err(e) = replica_refresh(&shared) {
            shared.note(format!("replica refresh failed: {e}"));
        }
        let ctl = shared.ctl.lock().expect("replica ctl poisoned");
        if ctl.shutdown {
            return;
        }
        let _ = shared
            .cv
            .wait_timeout(ctl, shared.poll_interval)
            .expect("replica cv poisoned");
    }
}

/// A cloneable role descriptor a serving layer holds independently of
/// the service's lifetime: which side this process is on, plus the
/// published-vs-on-disk epoch gap a replica staleness probe needs.
#[derive(Clone)]
pub struct RoleHandle {
    role: ServiceRole,
    dir: PathBuf,
    slot: Arc<EpochSlot>,
}

impl RoleHandle {
    /// Writer or replica.
    pub fn role(&self) -> ServiceRole {
        self.role
    }

    /// The epoch currently served to readers.
    pub fn published_epoch(&self) -> u64 {
        self.slot.epoch()
    }

    /// The epoch the on-disk manifest is at right now (`None` when the
    /// manifest is missing or unreadable). On a healthy replica this
    /// trails the writer's swaps by at most one poll interval.
    pub fn disk_epoch(&self) -> Option<u64> {
        read_manifest(&self.dir).ok().map(|m| m.epoch)
    }

    /// How many epoch swaps behind the on-disk manifest this process
    /// is serving — 0 when caught up (or when the manifest cannot be
    /// read, since there is then no known newer state).
    pub fn epoch_lag(&self) -> u64 {
        let published = self.published_epoch();
        self.disk_epoch()
            .unwrap_or(published)
            .saturating_sub(published)
    }
}

/// Which side of the store a [`HistoryService`] wraps.
enum Backing {
    Writer(Arc<Shared>),
    Replica(Arc<ReplicaShared>),
}

/// The long-running conflict-history service handle.
///
/// Writer methods ([`HistoryService::append`],
/// [`HistoryService::mark_day`]) are `&self` and internally
/// serialized; the service assumes one *logical* writer — the thread
/// draining a [`moas_monitor::MonitorEngine`]. Readers come from
/// [`HistoryService::reader`] and are fully concurrent.
///
/// A service opened with [`HistoryService::open_read_only`] is a
/// replica: writer methods fail with `PermissionDenied`, and fresh
/// epochs arrive by watching the `MANIFEST` instead of by appending.
pub struct HistoryService {
    backing: Backing,
    thread: Option<JoinHandle<()>>,
}

impl HistoryService {
    /// Opens the store directory and starts the service: loads the
    /// manifest-rooted state (discarding any partial table or orphan
    /// file a crash left behind), reads the uncovered tail, publishes
    /// the first epoch, and spawns the compaction daemon (unless
    /// disabled).
    pub fn open(dir: impl AsRef<Path>, config: ServiceConfig) -> io::Result<Self> {
        let store = HistoryStore::open(dir)?;
        let dir = store.dir().to_path_buf();

        let mut tail = Vec::new();
        let mut notes = Vec::new();
        for (n, path) in store.uncovered_segments() {
            match read_segment(&path) {
                Ok(data) => tail.push((n, Arc::new(data.events))),
                Err(e) => notes.push(format!(
                    "tail skipped corrupt segment {}: {e}",
                    path.display()
                )),
            }
        }
        for (path, why) in &store.open_report().discarded {
            notes.push(format!("open discarded {}: {why}", path.display()));
        }
        if let Some((path, why)) = &store.open_report().dropped_table {
            notes.push(format!("open dropped table {}: {why}", path.display()));
        }

        let state = StoreState {
            store,
            tail,
            pending: Vec::new(),
        };
        let m = state.store.manifest();
        let first = Arc::new(HistoryEpoch {
            epoch: m.epoch,
            horizon_day: m.horizon_day,
            stats: state.store.stats(),
            table: state.store.table(),
            tail: state.tail.clone(),
            replayed: OnceLock::new(),
        });
        let shared = Arc::new(Shared {
            dir,
            config,
            state: Mutex::new(state),
            epoch: Arc::new(EpochSlot::new(first)),
            work: Mutex::new(WorkState {
                generation: 0,
                completed: 0,
                shutdown: false,
                notes,
            }),
            work_cv: Condvar::new(),
            maintain: Mutex::new(()),
            registry: Mutex::new(None),
        });

        let thread = config
            .daemon
            .then(|| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("moas-history-daemon".into())
                    .spawn(move || {
                        let _registered = moas_obs::prof::register_thread();
                        run_daemon(shared)
                    })
            })
            .transpose()?;

        Ok(HistoryService {
            backing: Backing::Writer(shared),
            thread,
        })
    }

    /// Opens a store directory as a read-only replica: the service
    /// never writes — no compaction daemon, no crash-window segment
    /// adoption, no tmp-file cleanup, not even a `create_dir` — it
    /// loads what the `MANIFEST` references and then watches it for
    /// atomic epoch swaps, republishing a fresh [`HistoryEpoch`] to
    /// its readers after each one.
    ///
    /// The directory (or its manifest) may not exist yet: the replica
    /// serves the empty epoch 0 and starts following as soon as the
    /// writer's first swap lands. With `config.daemon` disabled no
    /// watcher thread is spawned; drive
    /// [`HistoryService::refresh_now`] by hand.
    pub fn open_read_only(dir: impl AsRef<Path>, config: ServiceConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let shared = Arc::new(ReplicaShared {
            dir,
            poll_interval: config.poll_interval,
            slot: Arc::new(EpochSlot::new(empty_epoch())),
            state: Mutex::new(ReplicaState {
                manifest: Manifest::default(),
                table: None,
                chunks: Vec::new(),
                published: false,
            }),
            ctl: Mutex::new(ReplicaCtl {
                shutdown: false,
                notes: Vec::new(),
                refreshes: 0,
            }),
            cv: Condvar::new(),
            registry: Mutex::new(None),
        });
        replica_refresh(&shared)?;
        let thread = config
            .daemon
            .then(|| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("moas-history-replica".into())
                    .spawn(move || {
                        let _registered = moas_obs::prof::register_thread();
                        run_replica_watcher(shared)
                    })
            })
            .transpose()?;
        Ok(HistoryService {
            backing: Backing::Replica(shared),
            thread,
        })
    }

    /// The writer-side shared state, or the uniform read-only error a
    /// mutating method on a replica maps to.
    fn writer(&self) -> io::Result<&Arc<Shared>> {
        match &self.backing {
            Backing::Writer(s) => Ok(s),
            Backing::Replica(_) => Err(read_only_error()),
        }
    }

    /// Writer or replica.
    pub fn role(&self) -> ServiceRole {
        match &self.backing {
            Backing::Writer(_) => ServiceRole::Writer,
            Backing::Replica(_) => ServiceRole::Replica,
        }
    }

    /// A cloneable role descriptor for serving layers: role plus
    /// published-vs-on-disk epoch lag (the replica staleness signal).
    pub fn role_handle(&self) -> RoleHandle {
        match &self.backing {
            Backing::Writer(s) => RoleHandle {
                role: ServiceRole::Writer,
                dir: s.dir.clone(),
                slot: Arc::clone(&s.epoch),
            },
            Backing::Replica(r) => RoleHandle {
                role: ServiceRole::Replica,
                dir: r.dir.clone(),
                slot: Arc::clone(&r.slot),
            },
        }
    }

    /// Attaches an engine's metrics block; the store publishes its
    /// counters (retained/lifetime bytes, compaction lag, …) there,
    /// and notes — including the ones startup already collected —
    /// flow into the registry's operational event journal. On a
    /// replica only the note mirroring applies.
    pub fn attach_metrics(&self, metrics: Arc<EngineMetrics>) {
        let registry = Arc::clone(metrics.registry());
        for note in self.notes() {
            registry.journal().record(note_kind(&note), note.as_str());
        }
        match &self.backing {
            Backing::Writer(s) => {
                *s.registry.lock().expect("registry slot poisoned") = Some(registry);
                let mut st = s.state.lock().expect("state lock poisoned");
                st.store.attach_metrics(metrics);
            }
            Backing::Replica(r) => {
                *r.registry.lock().expect("registry slot poisoned") = Some(registry);
            }
        }
    }

    /// The metrics block attached via
    /// [`HistoryService::attach_metrics`] (or by the streaming archive
    /// pipeline), if any — what a query server surfaces under
    /// `/v1/metrics`. Replicas hold no store-side metrics block.
    pub fn metrics_handle(&self) -> Option<Arc<EngineMetrics>> {
        match &self.backing {
            Backing::Writer(s) => s
                .state
                .lock()
                .expect("state lock poisoned")
                .store
                .metrics_handle(),
            Backing::Replica(_) => None,
        }
    }

    /// Appends drained lifecycle events to the log. Rotation-sealed
    /// segments (a pathologically heavy day) are published to readers
    /// immediately; normally publication happens at the next
    /// [`HistoryService::mark_day`]. Fails with `PermissionDenied` on
    /// a read-only replica.
    pub fn append(&self, events: &[SeqEvent]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let shared = self.writer()?;
        let mut st = shared.state.lock().expect("state lock poisoned");
        let sealed = match st.store.append(events) {
            Ok(sealed) => sealed,
            Err(e) => {
                // A partial write left the open segment holding frames
                // `pending` never saw; drop both so store and buffer
                // stay in lockstep (the unsealed data was doomed — a
                // crash would have discarded it the same way).
                st.store.discard_open();
                st.pending.clear();
                return Err(e);
            }
        };
        st.pending.extend_from_slice(events);
        if !sealed.is_empty() {
            for seg in sealed {
                let chunk: Vec<SeqEvent> = st.pending.drain(..seg.events as usize).collect();
                st.tail.push((seg.file, Arc::new(chunk)));
            }
            publish_epoch(shared, &st);
        }
        Ok(())
    }

    /// The store directory this service runs over — where a feed
    /// driver persists its cursor next to the `MANIFEST`.
    pub fn dir(&self) -> &Path {
        match &self.backing {
            Backing::Writer(s) => &s.dir,
            Backing::Replica(r) => &r.dir,
        }
    }

    /// Seals the open segment mid-day and publishes the epoch, without
    /// marking a day boundary. This is the durability point a live
    /// feed's cursor rides on: events appended before a checkpoint
    /// survive a crash (sealed segments are recovered at open),
    /// events after it are discarded with the unsealed segment — so a
    /// cursor persisted right after a checkpoint is never ahead of
    /// the durable log. A no-op (no manifest swap, no epoch) when
    /// nothing was appended since the last seal.
    pub fn checkpoint(&self) -> io::Result<()> {
        let shared = self.writer()?;
        let mut st = shared.state.lock().expect("state lock poisoned");
        let sealed = match st.store.seal() {
            Ok(sealed) => sealed,
            Err(e) => {
                st.store.discard_open();
                st.pending.clear();
                return Err(e);
            }
        };
        if let Some(seg) = sealed {
            debug_assert_eq!(seg.events as usize, st.pending.len());
            let chunk: Vec<SeqEvent> = st.pending.drain(..).collect();
            st.tail.push((seg.file, Arc::new(chunk)));
            publish_epoch(shared, &st);
        }
        Ok(())
    }

    /// Per-shard maximum event sequence numbers across the durable
    /// uncovered tail (sealed segments not yet compacted into the
    /// table). A restarted feed uses these as suppression watermarks:
    /// any event it regenerates with `seq` at or below the watermark
    /// is already in the durable log and must not be appended again.
    pub fn tail_watermarks(&self) -> Vec<(usize, u64)> {
        let chunks: Vec<(u64, Arc<Vec<SeqEvent>>)> = match &self.backing {
            Backing::Writer(s) => s.state.lock().expect("state lock poisoned").tail.clone(),
            Backing::Replica(r) => r
                .state
                .lock()
                .expect("replica state poisoned")
                .chunks
                .clone(),
        };
        let mut max: BTreeMap<usize, u64> = BTreeMap::new();
        for (_, chunk) in &chunks {
            for e in chunk.iter() {
                let entry = max.entry(e.shard).or_insert(e.seq);
                *entry = (*entry).max(e.seq);
            }
        }
        max.into_iter().collect()
    }

    /// Marks day position `idx` complete: seals the day's segment,
    /// publishes a new epoch so readers see the day, and wakes the
    /// daemon for its watermark/retention check.
    pub fn mark_day(&self, idx: usize) -> io::Result<()> {
        {
            let shared = self.writer()?;
            let mut st = shared.state.lock().expect("state lock poisoned");
            let sealed = match st.store.mark_day(idx) {
                Ok(sealed) => sealed,
                Err(e) => {
                    st.store.discard_open();
                    st.pending.clear();
                    return Err(e);
                }
            };
            if let Some(seg) = sealed {
                debug_assert_eq!(seg.events as usize, st.pending.len());
                let chunk: Vec<SeqEvent> = st.pending.drain(..).collect();
                st.tail.push((seg.file, Arc::new(chunk)));
            }
            publish_epoch(shared, &st);
        }
        self.kick();
        Ok(())
    }

    /// Wakes the background thread: the daemon for a sweep on a writer
    /// (also called by every day mark), the manifest watcher for an
    /// immediate poll on a replica.
    pub fn kick(&self) {
        match &self.backing {
            Backing::Writer(s) => {
                let mut ws = s.work.lock().expect("work lock poisoned");
                ws.generation += 1;
                s.work_cv.notify_all();
            }
            Backing::Replica(r) => {
                r.cv.notify_all();
            }
        }
    }

    /// Runs one maintenance sweep on the calling thread — the
    /// deterministic alternative to the daemon for tests and batch
    /// use. Returns whether anything changed. Fails with
    /// `PermissionDenied` on a replica (maintenance mutates the
    /// store); use [`HistoryService::refresh_now`] there.
    pub fn maintain_now(&self) -> io::Result<bool> {
        crate::daemon::maintain_once(self.writer()?)
    }

    /// Forces one replication pull on the calling thread — the
    /// deterministic alternative to the watcher thread for tests.
    /// Returns whether a new epoch was published. On a writer this is
    /// a no-op `Ok(false)`: its epochs publish at each manifest swap.
    pub fn refresh_now(&self) -> io::Result<bool> {
        match &self.backing {
            Backing::Writer(_) => Ok(false),
            Backing::Replica(r) => replica_refresh(r),
        }
    }

    /// Blocks until the daemon has completed a sweep for every day
    /// mark issued so far. Immediate on a replica (nothing to sweep).
    pub fn wait_idle(&self) {
        let Backing::Writer(s) = &self.backing else {
            return;
        };
        let mut ws = s.work.lock().expect("work lock poisoned");
        while ws.completed < ws.generation {
            ws = s.work_cv.wait(ws).expect("work cv poisoned");
        }
    }

    /// A concurrent reader handle.
    pub fn reader(&self) -> HistoryReader {
        let slot = match &self.backing {
            Backing::Writer(s) => Arc::clone(&s.epoch),
            Backing::Replica(r) => Arc::clone(&r.slot),
        };
        HistoryReader { slot }
    }

    /// Store counters right now (on a replica: as of the published
    /// epoch).
    pub fn stats(&self) -> StoreStats {
        match &self.backing {
            Backing::Writer(s) => s.state.lock().expect("state lock poisoned").store.stats(),
            Backing::Replica(r) => r.slot.pin().stats,
        }
    }

    /// What opening found and fixed on disk. A replica never fixes
    /// anything (it never writes), so its report is always empty.
    pub fn open_report(&self) -> OpenReport {
        match &self.backing {
            Backing::Writer(s) => s
                .state
                .lock()
                .expect("state lock poisoned")
                .store
                .open_report()
                .clone(),
            Backing::Replica(_) => OpenReport::default(),
        }
    }

    /// Non-fatal observations so far (corrupt segments skipped, failed
    /// sweeps, startup discards; on a replica: skipped files and
    /// refresh races).
    pub fn notes(&self) -> Vec<String> {
        match &self.backing {
            Backing::Writer(s) => s.work.lock().expect("work lock poisoned").notes.clone(),
            Backing::Replica(r) => r.ctl.lock().expect("replica ctl poisoned").notes.clone(),
        }
    }

    /// Seals any pending events, runs a final maintenance sweep, stops
    /// the background thread, and returns the final counters. On a
    /// replica: stops the watcher and returns the published epoch's
    /// counters (nothing to seal — it never writes).
    pub fn close(mut self) -> io::Result<StoreStats> {
        match &self.backing {
            Backing::Writer(shared) => {
                {
                    let mut st = shared.state.lock().expect("state lock poisoned");
                    let sealed = st.store.seal()?;
                    if let Some(seg) = sealed {
                        let chunk: Vec<SeqEvent> = st.pending.drain(..).collect();
                        st.tail.push((seg.file, Arc::new(chunk)));
                    }
                    publish_epoch(shared, &st);
                }
                if let Some(handle) = self.thread.take() {
                    {
                        let mut ws = shared.work.lock().expect("work lock poisoned");
                        ws.generation += 1;
                        ws.shutdown = true;
                        shared.work_cv.notify_all();
                    }
                    handle.join().expect("daemon thread panicked");
                } else {
                    self.maintain_now()?;
                }
            }
            Backing::Replica(shared) => {
                if let Some(handle) = self.thread.take() {
                    {
                        let mut ctl = shared.ctl.lock().expect("replica ctl poisoned");
                        ctl.shutdown = true;
                        shared.cv.notify_all();
                    }
                    handle.join().expect("replica watcher panicked");
                }
            }
        }
        Ok(self.stats())
    }
}

fn read_only_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        "history service is open read-only (replica mode)",
    )
}

impl Drop for HistoryService {
    fn drop(&mut self) {
        let Some(handle) = self.thread.take() else {
            return;
        };
        match &self.backing {
            Backing::Writer(s) => {
                let mut ws = s.work.lock().expect("work lock poisoned");
                ws.shutdown = true;
                s.work_cv.notify_all();
            }
            Backing::Replica(r) => {
                let mut ctl = r.ctl.lock().expect("replica ctl poisoned");
                ctl.shutdown = true;
                r.cv.notify_all();
            }
        }
        handle.join().ok();
    }
}

/// A cloneable, `Send` reader handle: pins epochs and builds
/// snapshots without ever taking the store lock. Identical whether it
/// came from a writer or a replica — the serving layer cannot tell
/// the difference, which is the point.
#[derive(Clone)]
pub struct HistoryReader {
    slot: Arc<EpochSlot>,
}

impl HistoryReader {
    /// Pins the current epoch and replays it into a queryable
    /// snapshot. Concurrent with the writer, the daemon, and other
    /// readers; two snapshots of the same epoch answer identically.
    ///
    /// Readers deliberately survive everything on the writer side: the
    /// epoch slot only ever holds a fully published `Arc`, so even if
    /// a writer-side thread panicked while holding the lock (poisoning
    /// it), or the service has been [`HistoryService::close`]d, the
    /// snapshot still serves the last published epoch.
    pub fn snapshot(&self) -> HistorySnapshot {
        let epoch = self.slot.pin();
        let conflicts = epoch.replay();
        HistorySnapshot { epoch, conflicts }
    }

    /// The current epoch number without building a snapshot.
    pub fn epoch(&self) -> u64 {
        self.slot.epoch()
    }
}

/// One pinned, fully replayed view of the history.
pub struct HistorySnapshot {
    epoch: Arc<HistoryEpoch>,
    conflicts: Arc<ConflictStore>,
}

impl HistorySnapshot {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch.epoch
    }

    /// First retained day position (0 = nothing expired).
    pub fn horizon_day(&self) -> u32 {
        self.epoch.horizon_day
    }

    /// Store counters at the pinned epoch.
    pub fn stats(&self) -> StoreStats {
        self.epoch.stats
    }

    /// The replayed conflict store: records, affinity, truncation.
    pub fn conflicts(&self) -> &ConflictStore {
        &self.conflicts
    }

    /// Events in the pinned epoch's hot tail (not yet compacted into
    /// the table).
    pub fn tail_events(&self) -> usize {
        self.epoch.tail_events()
    }

    /// §VI validity scoring over the snapshot.
    pub fn validity(&self, config: ValidityConfig) -> ValidityReport {
        ValidityReport::build(&self.conflicts, config)
    }

    /// Point lookup: the compacted record for one prefix, if it ever
    /// conflicted in the retained history.
    pub fn record(&self, prefix: &Prefix) -> Option<&ConflictRecord> {
        self.conflicts.records().get(prefix)
    }

    /// Point lookup with §VI scoring: the exact row
    /// [`HistorySnapshot::validity`] would contain for this prefix,
    /// without scoring the other records.
    pub fn validity_of(&self, prefix: &Prefix, config: ValidityConfig) -> Option<ConflictValidity> {
        score_prefix(&self.conflicts, prefix, config)
    }

    /// Distinct conflicts observed on the given days (see
    /// [`ConflictStore::total_conflicts`]).
    pub fn total_conflicts(&self, dates: &[Date]) -> usize {
        self.conflicts.total_conflicts(dates, dates.len())
    }

    /// Day-granularity durations over the given days (see
    /// [`ConflictStore::durations`]).
    pub fn durations(&self, dates: &[Date]) -> Vec<u32> {
        self.conflicts.durations(dates, dates.len())
    }
}
