//! The listener, event-driven connection layer, compute pool, and admission
//! control.
//!
//! Connections are served by a fixed pool of *event-loop driver threads*,
//! each owning a readiness set of nonblocking sockets behind the pluggable
//! [`sys::Poller`] trait (edge-triggered `epoll(7)` on Linux by default,
//! portable `poll(2)` otherwise or via `io_backend`) — an open connection
//! costs a few hundred bytes of state in a loop's slot table, not a thread,
//! so thousands of mostly-idle keep-alive connections ride on a handful of
//! threads. Each connection registers with its loop's poller once at
//! accept and changes interest only when its state machine transitions, so
//! a wait costs O(ready), not O(open connections), on the `epoll` backend.
//! One acceptor thread takes TCP connections off the listener,
//! enforces the `max_connections` bound (overflow gets an immediate `503`
//! off a dedicated rejector thread), and deals admitted sockets round-robin
//! to the loops through a wake-pipe-signalled inbox.
//!
//! Each connection is a state machine over the incremental
//! [`http::RequestBuffer`] parser:
//!
//! ```text
//! Idle → ReadingHead → ReadingBody → ComputeInFlight → Writing ─┐
//!  ↑                        (inline routes skip the queue)      │
//!  └──────────── keep-alive, budget remaining ──────────────────┤
//!                                                           Draining → closed
//! ```
//!
//! Idle and per-request read deadlines are enforced by the loop's poll
//! timeout (no timer threads, no peek slices); cheap endpoints
//! (`/v1/healthz`, `/v1/stats`, refresh, routing errors) and
//! `/v1/generate` cache hits are answered inline on the loop, while
//! pipeline work is classified by tenant and offered to the weighted
//! per-tenant [`FairQueue`], drained in deficit-round-robin order by a
//! fixed pool of *compute workers*. A
//! worker's reply travels back to the owning loop through its inbox plus a
//! self-pipe wake, so the loop never blocks on compute and a connection
//! awaiting its response costs no thread anywhere.
//!
//! Overload degrades into fast, explicit rejections instead of growing
//! buffers or latency — and it degrades per tenant: a connection stampede
//! past `max_connections` gets an immediate `503 Service Unavailable` off
//! the acceptor, a tenant that fills its own sub-queue gets `429 Too Many
//! Requests` while every other tenant keeps being served, and only a full
//! *global* request queue turns into a `503` for everyone.

use crate::api::{
    batch_body, error_body, generate_response_body, item_error_body, timings_value, ApiError,
    BatchRequest, GenerateRequest, ResolvedRequest, TenantPatch, MAX_BATCH,
};
use crate::auth::{bearer_token, AuthTable, Principal};
use crate::http::{self, Limits, Parse, Request, RequestBuffer, Response, ResponseEmitter};
use crate::queue::{FairQueue, Rejection, Tuning};
use crate::stats::{self, Counters, TenantMetrics};
use crate::sys::{
    self, Event, IoBackend, IoBackendChoice, Poller, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT, POLLRDHUP,
};
use rpg_obs::log as obs_log;
use rpg_obs::metrics::{Counter, MetricsRegistry};
use rpg_obs::trace::{
    unix_ms_now, SharedRecorder, Span, SpanRecorder, StageTrace, TraceId, TraceLog, TraceRecord,
};
use rpg_repager::system::RepagerError;
use rpg_service::{
    snapshot, valid_tenant_name, CachedResult, CorpusRegistry, Manifest, ManifestDiff,
    RegistryError, Served, TenantConfig,
};
use serde::value::Value;
use serde::Deserialize;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The admission lane control-plane work (manifest reloads) is billed to —
/// reserved by tenant-name validation, so no real tenant can sit in it.
const ADMIN_LANE: &str = "__admin";

/// Value of the `Retry-After` header on `503`/`429` responses, in seconds.
const RETRY_AFTER_SECS: u32 = 1;

/// How many slow-request exemplars the trace ring retains (oldest evicted
/// first).
const TRACE_LOG_CAPACITY: usize = 256;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute-worker threads draining the request queue (minimum 1).
    pub workers: usize,
    /// Event-loop driver threads, each multiplexing its share of the open
    /// connections over one `poll` set. `0` derives a small default from
    /// `workers` — connections no longer cost threads, so a handful of
    /// loops serves thousands of sockets.
    pub drivers: usize,
    /// Open-connection bound across all loops. Arrivals past it get an
    /// immediate `503` off the acceptor.
    pub max_connections: usize,
    /// Global request-queue bound across every tenant; overflow gets `503`.
    pub queue_capacity: usize,
    /// Per-tenant request-queue bound: a tenant stampede past this gets
    /// `429 Too Many Requests` without crowding out other tenants. Queue
    /// depth is fed by every open connection (each can have one request in
    /// flight), so under the event loop the throttle engages whenever a
    /// tenant keeps more than this many requests outstanding.
    pub tenant_queue_capacity: usize,
    /// Deficit-round-robin weights per tenant name; unlisted tenants
    /// weigh 1. A weight-2 tenant drains twice as fast when backlogged.
    /// Spawn applies this and every other per-tenant column through
    /// [`FairQueue::tune`], the writer PATCH, PUT and reload use; a tenant
    /// named in only some columns keeps the defaults for the rest.
    pub tenant_weights: Vec<(String, u64)>,
    /// Tenant used when a request omits its `corpus` field.
    pub default_corpus: String,
    /// Whether to honour HTTP keep-alive. When `false` every response is
    /// `Connection: close` (the pre-persistent behaviour).
    pub keep_alive: bool,
    /// Exchanges served per connection before the server closes it, so one
    /// immortal socket cannot hold its slot forever (minimum 1).
    pub max_requests_per_connection: usize,
    /// How long a connection may sit idle between requests before its loop
    /// closes it.
    pub idle_timeout: Duration,
    /// Per-request wall-clock deadline: once the first byte of a request
    /// arrives, the whole head+body must follow within this long or the
    /// connection gets a `408` and a close — a slowloris trickling one
    /// byte per interval cannot reset it. On the response side it is the
    /// zero-progress bound: a reader that accepts no bytes for this long
    /// is cut off, while a slow-but-moving one keeps its connection.
    pub read_timeout: Duration,
    /// Request size limits.
    pub limits: Limits,
    /// Whether requests must authenticate: `true` maps
    /// `Authorization: Bearer <key>` to a tenant principal, bills
    /// admission to it, rejects cross-tenant generates with `403` and
    /// guards the admin endpoints with `401`/`403`. `false` keeps the
    /// self-declared `corpus` field authoritative and leaves the admin
    /// endpoints open.
    pub auth_enabled: bool,
    /// The initial key table (usually [`AuthTable::from_manifest`]);
    /// swapped live by manifest reloads and edited by `PUT`/`DELETE`.
    pub auth: AuthTable,
    /// Per-tenant admission-bound overrides applied at spawn
    /// ([`ServerConfig::with_manifest`] lists every manifest tenant);
    /// retunable later via `PATCH /v1/admin/tenants`.
    pub tenant_bounds: Vec<(String, usize)>,
    /// Per-tenant in-flight compute caps applied at spawn. A tenant at its
    /// cap keeps queueing but its lane is skipped by the compute pool until
    /// a slot frees, so fairness extends past admission into the workers
    /// themselves. [`ServerConfig::with_manifest`] fills this for every
    /// manifest tenant: an explicit `inflight` field wins, otherwise the
    /// tenant gets its weighted share of the worker pool (minimum 1).
    pub tenant_inflight: Vec<(String, usize)>,
    /// Per-tenant deadline budgets in milliseconds (manifest `deadline_ms`
    /// fields): work still queued past its budget is shed with a `503`
    /// instead of computed into a result nobody is waiting for.
    pub tenant_deadlines: Vec<(String, u64)>,
    /// Deadline budget applied to requests whose tenant declares none and
    /// that carry no `x-rpg-deadline-ms` header. `None` means work never
    /// expires in the queue (the pre-shedding behaviour).
    pub default_deadline_ms: Option<u64>,
    /// Where `POST /v1/admin/reload` (and the CLI's `SIGHUP` handler)
    /// re-reads the manifest from. `None` disables wire-triggered reloads
    /// with a `409`.
    pub manifest_path: Option<String>,
    /// Which readiness backend the event loops ride on: `Auto` (the
    /// default) picks edge-triggered `epoll` on Linux and portable `poll`
    /// elsewhere; forcing `epoll` off Linux fails at spawn. Surfaced in
    /// `/v1/stats` under `connections.io_backend`.
    pub io_backend: IoBackendChoice,
    /// Completed requests at least this slow (milliseconds, head parse to
    /// last response byte) are retained as span-tree exemplars behind
    /// `GET /v1/debug/requests`. `0` retains every request. Tenants can
    /// override it with the manifest `trace_slow_ms` field.
    pub trace_slow_ms: u64,
    /// Per-tenant `trace_slow_ms` overrides (manifest `trace_slow_ms`
    /// fields); retunable later via `PATCH /v1/admin/tenants`.
    pub tenant_trace_slow: Vec<(String, u64)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: rpg_service::default_threads(),
            drivers: 0,
            max_connections: 1024,
            queue_capacity: 64,
            tenant_queue_capacity: 8,
            tenant_weights: Vec::new(),
            default_corpus: "default".to_string(),
            keep_alive: true,
            max_requests_per_connection: 100,
            idle_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            auth_enabled: false,
            auth: AuthTable::new(),
            tenant_bounds: Vec::new(),
            tenant_inflight: Vec::new(),
            tenant_deadlines: Vec::new(),
            default_deadline_ms: None,
            manifest_path: None,
            io_backend: IoBackendChoice::default(),
            trace_slow_ms: 0,
            tenant_trace_slow: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// The event-loop pool size after resolving the `0 = auto` default.
    /// Loops multiplex, so the default stays small: one loop per four
    /// compute workers, between 1 and 4.
    fn driver_count(&self) -> usize {
        if self.drivers > 0 {
            self.drivers
        } else {
            (self.workers.max(1) / 4).clamp(1, 4)
        }
    }

    /// Folds a validated manifest's server-side tuning into the config
    /// (every [`Manifest::from_json`] result is validated): every
    /// tenant's weight, queue bound, in-flight cap, deadline budget and
    /// trace threshold exactly as a reload applies them, the default
    /// tenant, and the key table. (The corpus side — building the
    /// tenants — is [`CorpusRegistry::apply_manifest`]'s job.) Set
    /// `workers` and `tenant_queue_capacity` *before* calling this:
    /// omitted fields resolve against them.
    pub fn with_manifest(mut self, manifest: &Manifest) -> ServerConfig {
        /// `(tenant, value)` for every tenant whose tuning sets the field.
        fn column<T>(
            tunings: &[(&str, Tuning)],
            field: impl Fn(&Tuning) -> Option<T>,
        ) -> Vec<(String, T)> {
            tunings
                .iter()
                .filter_map(|(name, tuning)| Some((name.to_string(), field(tuning)?)))
                .collect()
        }
        let tunings = manifest_tunings(manifest, &self);
        self.tenant_weights = column(&tunings, |t| Some(t.weight));
        self.tenant_bounds = column(&tunings, |t| Some(t.bound));
        self.tenant_inflight = column(&tunings, |t| t.inflight);
        self.tenant_deadlines = column(&tunings, |t| t.deadline_ms);
        self.tenant_trace_slow = column(&tunings, |t| t.trace_slow_ms);
        if let Some(default) = manifest.default_tenant() {
            self.default_corpus = default.to_string();
        }
        self.auth = AuthTable::from_manifest(manifest);
        self
    }
}

impl Tuning {
    /// The tuning a tenant config asks for on a server configured by
    /// `server`. Omitted fields take their defaults: weight 1, the server's
    /// tenant queue bound, and the server-wide deadline and trace
    /// threshold. An omitted `inflight` becomes the tenant's weighted share
    /// of the worker pool among tenants weighing `total_weight` in all,
    /// minimum 1, so a heavy tenant cannot occupy every worker while a
    /// light one holds queued work.
    fn of(config: &TenantConfig, server: &ServerConfig, total_weight: u64) -> Tuning {
        let weight = config.weight.unwrap_or(1).max(1);
        let share = server.workers.max(1) as u64 * weight / total_weight.max(1);
        Tuning {
            weight,
            bound: config.queue.unwrap_or(server.tenant_queue_capacity),
            inflight: Some(config.inflight.unwrap_or(share.max(1) as usize)),
            deadline_ms: config.deadline_ms,
            trace_slow_ms: config.trace_slow_ms,
        }
    }
}

/// Every manifest tenant's [`Tuning`], sorted by name: derived in-flight
/// caps split the worker pool by weight across the manifest's tenants.
fn manifest_tunings<'m>(manifest: &'m Manifest, server: &ServerConfig) -> Vec<(&'m str, Tuning)> {
    let tenants = manifest.tenants_sorted();
    let total_weight = tenants
        .iter()
        .map(|(_, config)| config.weight.unwrap_or(1).max(1))
        .sum();
    tenants
        .into_iter()
        .map(|(name, config)| (name, Tuning::of(config, server, total_weight)))
        .collect()
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Connections currently open (admitted and not yet closed).
    pub open_connections: u64,
    /// Requests rejected with `503` (connection overflow at the acceptor,
    /// or a full global request queue).
    pub rejected: u64,
    /// Requests rejected with `429` because their tenant's sub-queue was
    /// full.
    pub throttled: u64,
    /// HTTP exchanges completed (any status).
    pub handled: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// `4xx` responses.
    pub client_errors: u64,
    /// `5xx` responses.
    pub server_errors: u64,
    /// Fresh (non-cached) pipeline runs recorded.
    pub pipeline_runs: u64,
}

/// Pipeline work classified by tenant, queued for the compute pool. A
/// generate request (a `/v1/generate` miss or one `/v1/batch` item)
/// travels in resolved form (corpus name + validated parameters) so the
/// event loop's validation is not repeated on the worker.
enum Work {
    Generate(String, ResolvedRequest),
    /// Build a corpus from a wire-shipped spec and atomically swap it in
    /// under `name` (the `PUT /v1/corpora/:name` endpoint), billed to that
    /// tenant's lane.
    Put {
        name: String,
        config: Box<TenantConfig>,
    },
    /// Re-read the manifest file and apply it (the `POST /v1/admin/reload`
    /// endpoint). Corpus builds are CPU-heavy, so the whole apply rides the
    /// compute pool — the event loops never block on it.
    Reload,
}

/// The address a compute worker posts its response back to: the owning
/// event loop's inbox plus that loop's wake pipe. If a `Job` is ever
/// dropped unfulfilled, the `Drop` impl posts an error response instead,
/// so the connection can never be stranded in `ComputeInFlight`.
struct Reply {
    target: Option<(Arc<LoopShared>, usize)>,
}

impl Reply {
    fn new(to: Arc<LoopShared>, token: usize) -> Reply {
        Reply {
            target: Some((to, token)),
        }
    }

    fn send(mut self, response: Response) {
        if let Some((to, token)) = self.target.take() {
            to.push_reply(token, response);
        }
    }

    /// Disarms the reply (used when admission hands the job back): the
    /// rejection is answered inline, so nothing must be posted later.
    fn cancel(mut self) {
        self.target = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some((to, token)) = self.target.take() {
            to.push_reply(
                token,
                Response::json(500, error_body("request was dropped")),
            );
        }
    }
}

/// Where a job's outcome goes.
enum Deliver {
    /// A single request's connection: the outcome is its whole response.
    Reply(Reply),
    /// One `/v1/batch` item's slot: the outcome is an item of the batch's
    /// `200`, whose shared [`BatchAssembly`] owns the batch's one reply.
    Item(BatchTicket),
}

impl Deliver {
    /// Delivers a job's outcome, the body of a `200` or an error. `retry`
    /// adds `retry-after` to a single request's error; an item's error is
    /// its slot's `{"error", "status"}` object.
    fn send(self, outcome: Result<Vec<u8>, ApiError>, retry: bool) {
        match (self, outcome) {
            (Deliver::Reply(reply), outcome) => reply.send(outcome_response(outcome, retry)),
            (Deliver::Item(ticket), Ok(item)) => ticket.fill(item),
            (Deliver::Item(ticket), Err(e)) => ticket.fail(e.status, &e.message),
        }
    }
}

/// A single request's response to a job outcome.
fn outcome_response(outcome: Result<Vec<u8>, ApiError>, retry: bool) -> Response {
    match outcome {
        Ok(body) => Response::json(200, body),
        Err(e) if retry => Response::json(e.status, e.body())
            .with_header("retry-after", RETRY_AFTER_SECS.to_string()),
        Err(e) => Response::json(e.status, e.body()),
    }
}

struct Job {
    work: Work,
    to: Deliver,
    /// Set by the owning event loop when the client hangs up while this
    /// work is queued or running (a reset observed in `ComputeInFlight`):
    /// the compute worker skips the pipeline run because nobody can
    /// receive the result.
    cancelled: Arc<AtomicBool>,
    /// The queue lane this job was admitted under; a worker releases the
    /// lane's in-flight slot once the job finishes (however it finishes).
    lane: String,
    /// When admission accepted the work — the origin of the tenant's
    /// queue-to-reply latency histogram.
    admitted_at: Instant,
    /// Absolute deadline: a worker popping the job past this point sheds
    /// it with a `503` instead of computing a result nobody awaits.
    deadline: Option<Instant>,
    /// The request's trace: its ID becomes the worker's logging context
    /// while the job runs, and its recorder (when armed) receives the
    /// `queue_wait`, `compute`, and per-stage spans.
    trace: RequestTrace,
}

/// The shared result collector of one `/v1/batch` request: per-item admission
/// means the items complete independently (across compute workers, or
/// instantly at admission for rejected items). Each slot holds its item's
/// encoded bytes, and whichever fill lands last joins them into the ordered
/// `results` array and posts the batch's single reply.
struct BatchAssembly {
    slots: Mutex<Vec<Option<Vec<u8>>>>,
    remaining: AtomicUsize,
    reply: Mutex<Option<Reply>>,
}

impl BatchAssembly {
    fn new(items: usize, reply: Reply) -> Arc<BatchAssembly> {
        Arc::new(BatchAssembly {
            slots: Mutex::new(vec![None; items]),
            remaining: AtomicUsize::new(items),
            reply: Mutex::new(Some(reply)),
        })
    }

    /// A ticket filling slot `index`; dropping it unfilled records an
    /// error, so a dropped job can never strand the batch.
    fn ticket(self: &Arc<BatchAssembly>, index: usize) -> BatchTicket {
        BatchTicket {
            assembly: self.clone(),
            index,
            filled: false,
        }
    }

    fn fill(&self, index: usize, item: Vec<u8>) {
        {
            let mut slots = self.slots.lock().unwrap();
            debug_assert!(slots[index].is_none(), "batch slot filled twice");
            slots[index] = Some(item);
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let items: Vec<Vec<u8>> = std::mem::take(&mut *self.slots.lock().unwrap())
                .into_iter()
                .map(|slot| slot.unwrap_or_else(dropped_item))
                .collect();
            if let Some(reply) = self.reply.lock().unwrap().take() {
                reply.send(Response::json(200, batch_body(&items)));
            }
        }
    }
}

/// One batch item's claim on its result slot.
struct BatchTicket {
    assembly: Arc<BatchAssembly>,
    index: usize,
    filled: bool,
}

impl BatchTicket {
    fn fill(mut self, item: Vec<u8>) {
        self.filled = true;
        self.assembly.fill(self.index, item);
    }

    /// Fills the slot with a failed item's bytes.
    fn fail(self, status: u16, message: &str) {
        self.fill(item_error_body(status, message).into_bytes());
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        if !self.filled {
            self.assembly.fill(self.index, dropped_item());
        }
    }
}

/// The item of a batch slot whose job was dropped unfilled.
fn dropped_item() -> Vec<u8> {
    item_error_body(500, "request was dropped").into_bytes()
}

/// What the acceptor and the compute workers hand to an event loop.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    replies: Vec<(usize, Response)>,
}

/// One event loop's mailbox: an inbox of new connections and finished
/// compute replies, plus the self-pipe that kicks the loop out of `poll`
/// whenever either arrives.
struct LoopShared {
    wake: WakePipe,
    inbox: Mutex<Inbox>,
}

impl LoopShared {
    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().conns.push(stream);
        self.wake.wake();
    }

    fn push_reply(&self, token: usize, response: Response) {
        self.inbox.lock().unwrap().replies.push((token, response));
        self.wake.wake();
    }
}

struct Shared {
    registry: Arc<CorpusRegistry>,
    config: ServerConfig,
    /// Parsed pipeline requests, per-tenant bounded, drained in DRR order.
    requests: FairQueue<Job>,
    /// The live key table; swapped by manifest reloads, edited by
    /// `PUT`/`DELETE`. Only consulted when `config.auth_enabled`.
    auth: RwLock<AuthTable>,
    /// Per-tenant latency histograms and shed/cancel counters, surfaced by
    /// `/v1/stats`. Entries appear lazily the first time one of a tenant's
    /// requests is answered from the cache on the loop or reaches the
    /// compute pool.
    metrics: RwLock<HashMap<String, Arc<TenantMetrics>>>,
    /// The unified metrics registry behind `GET /metrics` — every counter
    /// in [`Counters`] and every [`TenantMetrics`] handle points into it.
    obs: Arc<MetricsRegistry>,
    /// The ring of slow-request span-tree exemplars behind
    /// `GET /v1/debug/requests`.
    trace_log: Arc<TraceLog>,
    /// The event loops, indexed by the acceptor's round-robin.
    loops: Vec<Arc<LoopShared>>,
    /// The resolved readiness backend every driver runs on (reported by
    /// `/v1/stats`).
    io_backend: IoBackend,
    /// Connections admitted and not yet closed, across all loops.
    open_connections: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
    /// Open unless a test holds it through [`Server::hold_replies`].
    reply_gate: ReplyGate,
}

/// A per-server gate between a non-batch job's compute and its reply.
/// Closed while any [`ReplyHold`] lives; open, it costs a worker one
/// atomic load per job.
#[derive(Default)]
struct ReplyGate {
    holds: AtomicUsize,
    /// Guards no data, so a poisoned lock is still a usable one: it only
    /// orders a hold's release against a worker's check.
    lock: Mutex<()>,
    opened: Condvar,
}

impl ReplyGate {
    /// Blocks the calling worker until no hold is left.
    fn pass(&self) {
        if self.holds.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.holds.load(Ordering::SeqCst) > 0 {
            guard = self
                .opened
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Keeps a server's workers holding their finished replies until dropped;
/// see [`Server::hold_replies`].
#[doc(hidden)]
#[must_use = "the hold ends when this guard is dropped"]
pub struct ReplyHold<'a> {
    gate: &'a ReplyGate,
}

impl Drop for ReplyHold<'_> {
    fn drop(&mut self) {
        let _guard = self
            .gate
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.gate.holds.fetch_sub(1, Ordering::SeqCst);
        self.gate.opened.notify_all();
    }
}

/// A running HTTP front end over a [`CorpusRegistry`].
///
/// Dropping the server shuts it down: the listener stops accepting, open
/// connections finish their in-flight exchange, and every thread is joined.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    rejector: Option<JoinHandle<()>>,
    drivers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor, event-loop, and compute
    /// threads.
    pub fn spawn(registry: Arc<CorpusRegistry>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let driver_count = config.driver_count();
        let loops = (0..driver_count)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    wake: WakePipe::new()?,
                    inbox: Mutex::new(Inbox::default()),
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Build every driver's poller up front so an unbuildable backend
        // (epoll forced off Linux, fd exhaustion) fails the spawn instead
        // of a driver thread.
        let pollers = (0..driver_count)
            .map(|_| sys::new_poller(config.io_backend))
            .collect::<io::Result<Vec<_>>>()?;
        let io_backend = pollers[0].backend();
        let requests = FairQueue::new(config.queue_capacity, config.tenant_queue_capacity);
        for (tenant, weight) in &config.tenant_weights {
            requests.tune(tenant, |t| t.weight = *weight);
        }
        for (tenant, bound) in &config.tenant_bounds {
            requests.tune(tenant, |t| t.bound = *bound);
        }
        for (tenant, cap) in &config.tenant_inflight {
            requests.tune(tenant, |t| t.inflight = Some(*cap));
        }
        for (tenant, ms) in &config.tenant_deadlines {
            requests.tune(tenant, |t| t.deadline_ms = Some(*ms));
        }
        for (tenant, ms) in &config.tenant_trace_slow {
            requests.tune(tenant, |t| t.trace_slow_ms = Some(*ms));
        }
        let obs = Arc::new(MetricsRegistry::new());
        let counters = Counters::registered(&obs);
        let trace_log = Arc::new(TraceLog::new(TRACE_LOG_CAPACITY));
        let shared = Arc::new(Shared {
            registry,
            requests,
            auth: RwLock::new(config.auth.clone()),
            metrics: RwLock::new(HashMap::new()),
            obs,
            trace_log,
            loops,
            io_backend,
            config,
            open_connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters,
            reply_gate: ReplyGate::default(),
        });
        // Overflow connections waiting for their `503`. Writing the
        // rejection happens off the acceptor thread so a slow overflow
        // client cannot stall admission; the handoff is bounded too (when
        // even it is full, the connection is dropped outright), and it
        // closes when the acceptor exits and drops its sender.
        let (rejects, rejected) = sync_channel((shared.config.queue_capacity * 4).clamp(16, 256));
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rpg-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &rejects))?
        };
        let rejector = {
            std::thread::Builder::new()
                .name("rpg-reject".to_string())
                .spawn(move || rejector_loop(rejected))?
        };
        let drivers = pollers
            .into_iter()
            .enumerate()
            .map(|(i, poller)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rpg-loop-{i}"))
                    .spawn(move || {
                        let me = shared.loops[i].clone();
                        event_loop(&shared, &me, poller);
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rpg-worker-{i}"))
                    .spawn(move || compute_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            rejector: Some(rejector),
            drivers,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server routes to.
    pub fn registry(&self) -> &Arc<CorpusRegistry> {
        &self.shared.registry
    }

    /// Connections currently open across all event loops.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Event-loop driver threads serving all connections — fixed at spawn,
    /// independent of how many connections are open.
    pub fn driver_threads(&self) -> usize {
        self.drivers.len()
    }

    /// The readiness backend the event loops resolved to at spawn.
    pub fn io_backend(&self) -> IoBackend {
        self.shared.io_backend
    }

    /// Pipeline requests currently queued for compute, across all tenants.
    pub fn request_depth(&self) -> usize {
        self.shared.requests.depth()
    }

    /// Queued requests per tenant seen so far.
    pub fn tenant_depths(&self) -> Vec<(String, usize)> {
        self.shared.requests.tenant_depths()
    }

    /// Test support, not part of the public API: queued requests whose
    /// client has already reset its connection, so a worker will skip
    /// them.
    #[doc(hidden)]
    pub fn cancelled_depth(&self) -> usize {
        self.shared
            .requests
            .count_queued(|job| job.cancelled.load(Ordering::SeqCst))
    }

    /// Test support, not part of the public API: until the returned guard
    /// drops, a worker that finishes a non-batch job's compute holds the
    /// job, and its reply, instead of answering. A loopback test plugs a
    /// worker with one request, stages queue state behind it, then drops
    /// the guard, so no step races the plug's compute. The hold belongs to
    /// this server alone, so tests running in parallel cannot reach each
    /// other's workers.
    #[doc(hidden)]
    pub fn hold_replies(&self) -> ReplyHold<'_> {
        let gate = &self.shared.reply_gate;
        gate.holds.fetch_add(1, Ordering::SeqCst);
        ReplyHold { gate }
    }

    /// A copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        let counters = &self.shared.counters;
        let (ok, client_errors, server_errors) = (
            counters.ok.get(),
            counters.client_errors.get(),
            counters.server_errors.get(),
        );
        StatsSnapshot {
            accepted: counters.accepted.get(),
            open_connections: self.open_connections() as u64,
            rejected: counters.rejected.get(),
            throttled: counters.throttled.get(),
            handled: ok + client_errors + server_errors,
            ok,
            client_errors,
            server_errors,
            pipeline_runs: counters.pipeline.runs(),
        }
    }

    /// Applies a validated manifest to the *running* server: the registry's
    /// tenant set is diffed (create/replace/remove with epoch bumps and
    /// exact-tenant cache eviction), every listed tenant's tuning is
    /// applied, removed tenants' tunings are forgotten and their queue
    /// lanes retire once drained, and the key table is swapped — all
    /// without dropping a connection. This is what `SIGHUP` and
    /// `POST /v1/admin/reload` ride on.
    ///
    /// Corpus builds happen on the calling thread; call it from a worker
    /// or the CLI's supervisor loop, not from an event loop.
    pub fn apply_manifest(&self, manifest: &Manifest) -> Result<ManifestDiff, String> {
        apply_manifest_to(&self.shared, manifest)
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Event loops drain before the compute pool closes: a connection in
        // `ComputeInFlight` exits its loop only once a live compute worker
        // has posted its reply.
        for loop_shared in &self.shared.loops {
            loop_shared.wake.wake();
        }
        for driver in self.drivers.drain(..) {
            let _ = driver.join();
        }
        self.shared.requests.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(rejector) = self.rejector.take() {
            let _ = rejector.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared, rejects: &SyncSender<TcpStream>) {
    // Round-robin target; the acceptor is single-threaded, so a local
    // counter suffices.
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.counters.accepted.inc();
                if shared.open_connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.counters.rejected.inc();
                    // Hand the 503 to the rejector thread; if even the
                    // reject queue is full, drop the connection — admission
                    // never blocks and never buffers unboundedly.
                    let _ = rejects.try_send(stream);
                    continue;
                }
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                let target = &shared.loops[next % shared.loops.len()];
                next = next.wrapping_add(1);
                target.push_conn(stream);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure. Some of these (EMFILE) persist
                // until another thread frees a descriptor — back off briefly
                // instead of busy-spinning the acceptor at 100% CPU.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Answers the connections the acceptor would not admit.
///
/// Beyond the trace-ID sniff the request bytes are never read, so closing
/// immediately after the write would leave unread data in the receive
/// buffer — on close that triggers a TCP RST, which can destroy the `503`
/// before the client reads it. Hence the bounded drain after the write,
/// done here on a dedicated thread so the acceptor never blocks.
fn rejector_loop(rejected: Receiver<TcpStream>) {
    for stream in rejected {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        // Even an overflow 503 carries a trace ID the client can quote: a
        // short bounded read of whatever request bytes have already arrived
        // recovers the caller's `x-rpg-trace-id` when it sent one (the
        // header is near the head start, so one early chunk usually holds
        // it); otherwise the response echoes a freshly minted ID.
        let trace_id = sniff_trace_id(&stream).unwrap_or_else(TraceId::mint);
        let response = Response::json(503, error_body("server is at capacity, retry shortly"))
            .with_header("retry-after", RETRY_AFTER_SECS.to_string())
            .with_header("x-rpg-trace-id", trace_id.to_string());
        let _ = response.write_to(&mut &stream, false);
        // Half-close: the FIN lets the client finish reading the response
        // immediately; the drain then consumes its unread request bytes so
        // the final close doesn't RST.
        let _ = stream.shutdown(Shutdown::Write);
        drain_bounded(&stream);
    }
}

fn drain_bounded(stream: &TcpStream) {
    // Both a byte cap and a wall-clock deadline: without the deadline, a
    // client trickling one byte per (sub-timeout) interval could pin this
    // thread for as long as the byte cap lasts.
    let deadline = Instant::now() + Duration::from_secs(2);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut chunk = [0u8; 16 * 1024];
    let mut drained = 0usize;
    let mut stream = stream;
    while drained < DRAIN_BYTE_CAP && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Reads whatever head bytes the overflow client has already sent (one
/// bounded, short-deadline read — the rejector must never be pinned by a
/// slow sender) and scans them for an `x-rpg-trace-id` header, so even a
/// rejector-thread `503` echoes the caller's trace ID.
fn sniff_trace_id(stream: &TcpStream) -> Option<TraceId> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut head = [0u8; 4096];
    let n = (&mut &*stream).read(&mut head).ok().filter(|&n| n > 0)?;
    extract_trace_header(&head[..n])
}

/// Finds the value of an `x-rpg-trace-id` header inside raw head bytes
/// (case-insensitive name, as HTTP requires), returning it only when it
/// parses as a valid trace ID.
fn extract_trace_header(head: &[u8]) -> Option<TraceId> {
    const NAME: &[u8] = b"x-rpg-trace-id:";
    for line in head.split(|&b| b == b'\n') {
        if line.len() < NAME.len() || !line[..NAME.len()].eq_ignore_ascii_case(NAME) {
            continue;
        }
        let value = std::str::from_utf8(&line[NAME.len()..]).ok()?;
        return TraceId::parse(value.trim_matches(|c: char| c.is_ascii_whitespace()));
    }
    None
}

/// How many bytes a closing connection will read-and-discard so the final
/// close does not RST a response still in flight.
const DRAIN_BYTE_CAP: usize = 1024 * 1024;

/// How long a closing connection stays in `Draining` waiting for the
/// peer's FIN before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// The per-connection state machine phase (see the module docs for the
/// transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between requests on a persistent connection; the idle deadline runs.
    Idle,
    /// The first bytes of a request arrived; the head terminator has not.
    ReadingHead,
    /// The head parsed cleanly; the `Content-Length` body is still short.
    ReadingBody,
    /// A request was admitted to the compute queue; the connection holds
    /// no poll interest and waits for the worker's reply via the wake
    /// pipe.
    ComputeInFlight,
    /// A response is being written; `POLLOUT` drives progress.
    Writing,
    /// The final response is written and the write side half-closed; reads
    /// are discarded until FIN so the close cannot RST the response.
    Draining,
}

/// Whether a connection survives the event that was just processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Keep,
    Close,
}

struct Connection {
    stream: TcpStream,
    parse: RequestBuffer,
    phase: Phase,
    /// The phase's deadline (`None` only in `ComputeInFlight`); the loop's
    /// poll timeout is the minimum over these.
    deadline: Option<Instant>,
    /// Requests parsed on this connection, against the per-connection
    /// budget.
    served: usize,
    /// Interim bytes (`100 Continue`) queued ahead of the response, with
    /// their write cursor. Responses themselves never land here — they
    /// stream through `emitter`.
    out: Vec<u8>,
    out_pos: usize,
    /// The response currently being emitted in bounded chunks; a partial
    /// write resumes mid-chunk on the next `POLLOUT`.
    emitter: Option<ResponseEmitter>,
    /// The interest mask currently installed in the poller (`None` = not
    /// registered). Compared against [`Connection::interest`] so only an
    /// actual change costs a syscall.
    registered: Option<i16>,
    /// The keep-alive decision made when the current request was parsed;
    /// applied once its response fully drains.
    keep_alive_after: bool,
    /// Bytes discarded so far in `Draining`.
    drained: usize,
    /// Set when a hangup in `ComputeInFlight` probes as a true reset: the
    /// client is gone, so the pending reply is dropped (and the slot
    /// closed) when it arrives instead of attempting a doomed write.
    abandoned: bool,
    /// Set when a hangup in `ComputeInFlight` probes as a *graceful* FIN
    /// (`shutdown(SHUT_WR)` client, still reading): the response is still
    /// owed and deliverable, so the connection merely stops hangup-watching
    /// — the level-triggered FIN would otherwise re-report every tick.
    half_closed: bool,
    /// Cancellation flag shared with the compute job(s) of the in-flight
    /// request; flipped when the client hangs up so queued work is skipped
    /// before it runs.
    cancel: Option<Arc<AtomicBool>>,
    /// The in-flight request's trace: set when its head finishes parsing,
    /// stamped onto the response as `x-rpg-trace-id`, and consumed when
    /// the response fully drains (where the request may be retained as a
    /// slow-trace exemplar).
    trace: Option<ConnTrace>,
}

/// The driver-side view of one request's trace.
struct ConnTrace {
    /// Client-supplied (`x-rpg-trace-id`) or freshly minted.
    id: TraceId,
    /// When the request head finished parsing — the span epoch, and the
    /// origin of the exemplar's wall-clock latency.
    started: Instant,
    /// When the response started writing (stamps the `response_write`
    /// span).
    write_started: Instant,
    /// The response status, captured when the response is staged.
    status: u16,
    /// The billing tenant, once admission resolved one.
    tenant: Option<String>,
    /// The span sink shared with the compute worker. `None` for an
    /// exchange answered before a request parsed — its ID still flows,
    /// no spans are recorded.
    recorder: Option<SharedRecorder>,
}

impl ConnTrace {
    fn new(id: TraceId, now: Instant, record_spans: bool) -> ConnTrace {
        ConnTrace {
            id,
            started: now,
            write_started: now,
            status: 0,
            tenant: None,
            recorder: record_spans.then(|| Arc::new(Mutex::new(SpanRecorder::with_epoch(now)))),
        }
    }
}

impl Connection {
    fn new(stream: TcpStream, now: Instant, idle_timeout: Duration) -> Connection {
        Connection {
            stream,
            parse: RequestBuffer::new(),
            phase: Phase::Idle,
            deadline: Some(now + idle_timeout),
            served: 0,
            out: Vec::new(),
            out_pos: 0,
            emitter: None,
            registered: None,
            keep_alive_after: false,
            drained: 0,
            abandoned: false,
            half_closed: false,
            cancel: None,
            trace: None,
        }
    }

    /// Whether interim bytes are still queued (the reading phases add
    /// `POLLOUT` interest for these).
    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Unwritten bytes across the interim buffer and the staged response —
    /// the `Writing` deadline refreshes only while this shrinks.
    fn out_remaining(&self) -> usize {
        (self.out.len() - self.out_pos)
            + self.emitter.as_ref().map_or(0, ResponseEmitter::remaining)
    }

    /// The poll interest for the current phase; `None` keeps the
    /// connection out of the poll set entirely.
    fn interest(&self) -> Option<i16> {
        match self.phase {
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody => {
                // Reading phases may still owe the client an interim
                // `100 Continue` that did not fit the socket buffer.
                let events = if self.out_pending() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                Some(events)
            }
            Phase::Writing => Some(POLLOUT),
            Phase::Draining => Some(POLLIN),
            // Awaiting compute, the connection wants no I/O — but the
            // entry still reports `POLLHUP`/`POLLERR`, and `POLLRDHUP` is
            // requested so a graceful FIN is visible too. A hangup is then
            // *probed* (`sys::peek_peer`): a true reset cancels the queued
            // work, while a `shutdown(SHUT_WR)` client still gets its
            // reply. Either way the fd then leaves the set (both signals
            // are level-triggered and would re-report every tick).
            Phase::ComputeInFlight => (!self.abandoned && !self.half_closed).then_some(POLLRDHUP),
        }
    }

    /// Writes as much pending output as the socket accepts — interim
    /// bytes first, then the staged response chunk by chunk. `Ok(true)`
    /// means everything (including the emitter) fully drained. On
    /// `WouldBlock` the emitter's cursor holds the resume point, so no
    /// bytes are ever re-serialised.
    fn flush_out(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        // Only interim `100 Continue`s pass through `out` now, so the
        // buffer stays tiny; clearing keeps the capacity for reuse.
        self.out.clear();
        self.out_pos = 0;
        while let Some(emitter) = self.emitter.as_mut() {
            let Some(chunk) = emitter.next_chunk() else {
                self.emitter = None;
                break;
            };
            match (&self.stream).write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => emitter.advance(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Stages a response for emission behind any pending interim bytes and
    /// enters `Writing` (the caller's `advance` drives the flush). The
    /// response is consumed: its body becomes the emitter's, unserialised.
    ///
    /// This is the one place the `x-rpg-trace-id` header attaches, so
    /// every response — success, 4xx, 5xx, even connection-level errors
    /// that never had a parsed request (which get a minted ID here) —
    /// carries one.
    fn start_response(
        &mut self,
        response: Response,
        keep_alive: bool,
        now: Instant,
        shared: &Shared,
    ) {
        let trace = self
            .trace
            .get_or_insert_with(|| ConnTrace::new(TraceId::mint(), now, false));
        trace.status = response.status;
        trace.write_started = now;
        let response = response.with_header("x-rpg-trace-id", trace.id.to_string());
        self.emitter = Some(ResponseEmitter::new(response, keep_alive));
        self.keep_alive_after = keep_alive;
        self.phase = Phase::Writing;
        self.deadline = Some(now + shared.config.read_timeout);
    }
}

/// The wake pipe's token in the poller — never a valid slot index (slots
/// are bounded by `max_connections`).
const WAKE_TOKEN: usize = usize::MAX;

fn event_loop(shared: &Shared, me: &Arc<LoopShared>, mut poller: Box<dyn Poller>) {
    let mut slots: Vec<Option<Connection>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let poller = poller.as_mut();
    // The one permanent registration; everything else enters and leaves
    // the interest set with its connection.
    poller
        .register(me.wake.read_fd(), WAKE_TOKEN, POLLIN)
        .expect("a fresh poller accepts the wake pipe");
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // 1. Harvest the inbox: new connections and finished compute
        // replies.
        let (new_conns, replies) = {
            let mut inbox = me.inbox.lock().unwrap();
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.replies),
            )
        };
        let now = Instant::now();
        for stream in new_conns {
            if shutting_down {
                shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            register(&mut slots, poller, stream, now, shared);
        }
        for (token, response) in replies {
            if let Some(conn) = slots.get_mut(token).and_then(Option::as_mut) {
                conn.cancel = None;
                if conn.abandoned {
                    // The client hung up mid-compute; the reply has nowhere
                    // to go — drop it and free the slot (which stayed
                    // reserved so the reply could not be misdelivered to a
                    // successor connection).
                    close_slot(&mut slots, poller, token, shared);
                    continue;
                }
                // Honour the keep-alive decision made at parse time, unless
                // the server started draining in the meantime.
                let keep_alive = conn.keep_alive_after && !shutting_down;
                record_response(shared, response.status);
                conn.start_response(response, keep_alive, now, shared);
                if advance(conn, shared, me, token, now) == Flow::Close {
                    close_slot(&mut slots, poller, token, shared);
                } else {
                    sync_interest(&mut slots, poller, token, shared);
                }
            }
        }
        // 2. On shutdown, connections with no response in flight close
        // immediately; `ComputeInFlight` and `Writing` finish their
        // exchange, `Draining` finishes its bounded drain.
        if shutting_down {
            for token in 0..slots.len() {
                let closable = matches!(
                    slots[token].as_ref().map(|c| c.phase),
                    Some(Phase::Idle | Phase::ReadingHead | Phase::ReadingBody)
                );
                if closable {
                    close_slot(&mut slots, poller, token, shared);
                }
            }
            if slots.iter().all(Option::is_none) {
                return;
            }
        }
        // 3. The earliest deadline still comes from a userspace scan — the
        // cheap O(n) walk; what the incremental interest set removed is
        // the O(n) *kernel* hand-off per tick.
        let mut next_deadline: Option<Instant> = None;
        for slot in &slots {
            if let Some(deadline) = slot.as_ref().and_then(|conn| conn.deadline) {
                next_deadline =
                    Some(next_deadline.map_or(deadline, |current| current.min(deadline)));
            }
        }
        // 4. Sleep until the earliest deadline, capped defensively so a
        // lost wake can never park the loop for long.
        let now = Instant::now();
        let timeout = next_deadline
            .map(|deadline| deadline.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(500))
            .min(Duration::from_millis(500));
        if poller.wait(&mut events, Some(timeout)).is_err() {
            // EINVAL et al. are programming errors; treated as a timeout
            // tick so the loop stays alive (deadlines still fire).
            std::thread::sleep(Duration::from_millis(1));
        }
        // 5. Dispatch readiness by token.
        let now = Instant::now();
        for &event in &events {
            if event.token == WAKE_TOKEN {
                // Fully drained, so the next wake byte is a fresh edge.
                me.wake.drain();
                continue;
            }
            let token = event.token;
            let Some(conn) = slots.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.phase == Phase::ComputeInFlight {
                // The slot must outlive the pending reply (closing it would
                // let a successor connection receive this one's response),
                // so a hangup only *marks* the connection; the reply's
                // arrival frees the slot. The hangup bits alone cannot
                // distinguish a client that `shutdown(SHUT_WR)`'d and still
                // awaits its response from one whose connection reset — the
                // probe does: only a true reset cancels the queued work.
                if event.has(POLLHUP | POLLRDHUP | POLLERR | POLLNVAL) {
                    match sys::peek_peer(conn.stream.as_raw_fd()) {
                        sys::PeerProbe::Reset => {
                            conn.abandoned = true;
                            if let Some(cancel) = &conn.cancel {
                                cancel.store(true, Ordering::SeqCst);
                            }
                        }
                        // A graceful FIN (possibly behind pipelined bytes):
                        // the reply is still owed and deliverable.
                        sys::PeerProbe::Eof | sys::PeerProbe::Data => conn.half_closed = true,
                        sys::PeerProbe::Pending => {}
                    }
                }
                // Either verdict drops the hangup watch (under poll the
                // level-triggered FIN would re-report every tick).
                sync_interest(&mut slots, poller, token, shared);
                continue;
            }
            if event.has(POLLERR | POLLNVAL) {
                close_slot(&mut slots, poller, token, shared);
                continue;
            }
            if event.has(POLLIN | POLLOUT | POLLHUP | POLLRDHUP) {
                if handle_ready(conn, event, poller.edge_triggered(), shared, me, token, now)
                    == Flow::Close
                {
                    close_slot(&mut slots, poller, token, shared);
                } else {
                    sync_interest(&mut slots, poller, token, shared);
                }
            }
        }
        // 6. Enforce deadlines.
        let now = Instant::now();
        for token in 0..slots.len() {
            let expired = slots[token]
                .as_ref()
                .is_some_and(|conn| conn.deadline.is_some_and(|deadline| deadline <= now));
            if !expired {
                continue;
            }
            let conn = slots[token].as_mut().expect("expired slot is live");
            if expire(conn, shared, me, token, now) == Flow::Close {
                close_slot(&mut slots, poller, token, shared);
            } else {
                sync_interest(&mut slots, poller, token, shared);
            }
        }
    }
}

/// Reconciles a connection's installed interest with what its phase wants,
/// spending a syscall only on an actual change. This is also the
/// edge-triggered re-arm point: `modify` reports conditions that are
/// *already* true on the next wait, so calling this after every state
/// transition is what makes interest-on-transition safe under `EPOLLET` —
/// a response finishing while the socket was writable all along, or
/// pipelined bytes buffered behind a phase change, still surface.
fn sync_interest(
    slots: &mut [Option<Connection>],
    poller: &mut dyn Poller,
    token: usize,
    shared: &Shared,
) {
    let Some(conn) = slots[token].as_mut() else {
        return;
    };
    let desired = conn.interest();
    if conn.registered == desired {
        return;
    }
    let fd = conn.stream.as_raw_fd();
    let outcome = match (conn.registered, desired) {
        (None, Some(interest)) => poller.register(fd, token, interest),
        (Some(_), None) => poller.deregister(fd, token),
        (Some(_), Some(interest)) => poller.modify(fd, token, interest),
        (None, None) => Ok(()),
    };
    match outcome {
        Ok(()) => conn.registered = desired,
        Err(_) => {
            // An fd the kernel refuses to track cannot be served; the
            // failed transition also voids whatever registration it had.
            conn.registered = None;
            close_slot(slots, poller, token, shared);
        }
    }
}

fn register(
    slots: &mut Vec<Option<Connection>>,
    poller: &mut dyn Poller,
    stream: TcpStream,
    now: Instant,
    shared: &Shared,
) {
    if stream.set_nonblocking(true).is_err() {
        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    // Responses are small and latency-bound: never let Nagle hold one back
    // waiting for a delayed ACK on a persistent connection.
    let _ = stream.set_nodelay(true);
    let conn = Connection::new(stream, now, shared.config.idle_timeout);
    let token = match slots.iter().position(Option::is_none) {
        Some(at) => {
            slots[at] = Some(conn);
            at
        }
        None => {
            slots.push(Some(conn));
            slots.len() - 1
        }
    };
    // Enters the poll set once here; from now on only state transitions
    // touch it.
    sync_interest(slots, poller, token, shared);
}

fn close_slot(
    slots: &mut [Option<Connection>],
    poller: &mut dyn Poller,
    token: usize,
    shared: &Shared,
) {
    if let Some(conn) = slots[token].take() {
        if conn.registered.is_some() {
            // Deregister before the fd drops: the kernel removes epoll
            // entries with the last close anyway, but the poll backend
            // keys on the raw fd number, which the next accept may reuse.
            let _ = poller.deregister(conn.stream.as_raw_fd(), token);
        }
        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Feeds one readiness event into a connection and advances its state
/// machine as far as the buffered bytes allow.
fn handle_ready(
    conn: &mut Connection,
    event: Event,
    edge_triggered: bool,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    if event.has(POLLIN | POLLHUP | POLLRDHUP)
        && matches!(
            conn.phase,
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
        )
    {
        loop {
            // Consume what the kernel has buffered in bursts of 16 chunks,
            // parsing between bursts so a huge body is bounded by the
            // request limits, not by how fast the client can send. Under
            // level-triggered poll one burst per tick suffices (leftovers
            // re-report); an edge-triggered backend must drain to
            // `WouldBlock` before waiting again, hence the outer loop.
            let mut peer_eof = false;
            let mut drained_dry = false;
            for _ in 0..16 {
                match conn.parse.read_from(&mut &conn.stream) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        drained_dry = true;
                        break;
                    }
                    Err(_) => return Flow::Close,
                }
            }
            if peer_eof {
                // The peer's data and FIN may land in the same readiness
                // batch (write-then-shutdown is a legal client pattern), so
                // any fully buffered requests are served *first*; only what
                // remains after parsing counts as truncation.
                let flow = advance(conn, shared, me, token, now);
                if flow == Flow::Close
                    || !matches!(
                        conn.phase,
                        Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
                    )
                {
                    // A response is in flight (or the connection is
                    // closing); the EOF is re-observed once that phase's
                    // transition re-arms readability.
                    return flow;
                }
                if conn.phase == Phase::Idle && !conn.parse.has_buffered() {
                    // Clean goodbye between requests.
                    return Flow::Close;
                }
                // A partial request was truncated mid-stream: tell the peer
                // why before closing — it may have half-closed and still be
                // reading (matching the blocking parser's `Incomplete`).
                let e = http::HttpError::Incomplete;
                let response = Response::json(e.status(), error_body(&e.message()));
                record_response(shared, response.status);
                conn.start_response(response, false, now, shared);
                break;
            }
            if advance(conn, shared, me, token, now) == Flow::Close {
                return Flow::Close;
            }
            if !edge_triggered || drained_dry {
                break;
            }
            if !matches!(
                conn.phase,
                Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
            ) {
                // A response or compute is now in flight; whatever is still
                // unread surfaces when the phase transition back to reading
                // re-arms `POLLIN`.
                break;
            }
        }
    }
    advance(conn, shared, me, token, now)
}

/// Runs the state machine until it needs more I/O readiness, more compute,
/// or decides to close. This is the only place phases transition.
fn advance(
    conn: &mut Connection,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    loop {
        match conn.phase {
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody => {
                // An interim `100 Continue` may still be queued; push it
                // while the socket allows.
                if conn.out_pending() && conn.flush_out().is_err() {
                    return Flow::Close;
                }
                let mut wants_continue = false;
                match conn
                    .parse
                    .try_parse(&shared.config.limits, || wants_continue = true)
                {
                    Ok(Parse::Complete(request)) => {
                        if wants_continue {
                            conn.out.extend_from_slice(http::CONTINUE);
                        }
                        if handle_request(conn, &request, shared, me, token, now) == Flow::Close {
                            return Flow::Close;
                        }
                        // `ComputeInFlight` waits for the worker; `Writing`
                        // loops back in to flush.
                        if conn.phase == Phase::ComputeInFlight {
                            return Flow::Keep;
                        }
                    }
                    Ok(Parse::NeedHead) => {
                        if conn.phase == Phase::Idle && conn.parse.has_buffered() {
                            // First bytes of a new request: the per-request
                            // read deadline starts now.
                            conn.phase = Phase::ReadingHead;
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        return Flow::Keep;
                    }
                    Ok(Parse::NeedBody) => {
                        if wants_continue {
                            conn.out.extend_from_slice(http::CONTINUE);
                            if conn.flush_out().is_err() {
                                return Flow::Close;
                            }
                        }
                        if conn.phase == Phase::Idle {
                            // Head arrived in one gulp off an idle socket.
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        conn.phase = Phase::ReadingBody;
                        return Flow::Keep;
                    }
                    Err(e) => {
                        // Framing is lost after a parse error, so the
                        // connection always closes — which is also what
                        // keeps the conformance rejections (`501`
                        // Transfer-Encoding, duplicate Content-Length
                        // `400`) smuggling-proof.
                        let response = Response::json(e.status(), error_body(&e.message()));
                        record_response(shared, response.status);
                        conn.start_response(response, false, now, shared);
                    }
                }
            }
            Phase::Writing => {
                let progress_mark = conn.out_remaining();
                match conn.flush_out() {
                    Err(_) => return Flow::Close,
                    Ok(false) => {
                        // The deadline is progress-based, like the old
                        // per-write socket timeout: a slow-but-moving
                        // reader of a large response gets a fresh window
                        // with every accepted chunk, while a fully stalled
                        // one is still cut off after `read_timeout`.
                        if conn.out_remaining() < progress_mark {
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        return Flow::Keep;
                    }
                    Ok(true) => {
                        finish_trace(conn, shared, now);
                        if conn.keep_alive_after && !shared.shutdown.load(Ordering::SeqCst) {
                            conn.phase = Phase::Idle;
                            conn.deadline = Some(now + shared.config.idle_timeout);
                            // Pipelined bytes already buffered parse
                            // without waiting for the socket: loop
                            // straight back in.
                        } else {
                            // Half-close, then discard whatever the client
                            // still sends: closing with unread bytes in
                            // the kernel buffer triggers an RST that can
                            // destroy the final response in flight.
                            let _ = conn.stream.shutdown(Shutdown::Write);
                            conn.phase = Phase::Draining;
                            conn.deadline = Some(now + DRAIN_DEADLINE);
                            conn.drained = 0;
                            return Flow::Keep;
                        }
                    }
                }
            }
            Phase::Draining => {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => return Flow::Close,
                        Ok(n) => {
                            conn.drained += n;
                            if conn.drained >= DRAIN_BYTE_CAP {
                                return Flow::Close;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flow::Keep,
                        Err(_) => return Flow::Close,
                    }
                }
            }
            Phase::ComputeInFlight => return Flow::Keep,
        }
    }
}

/// Handles a phase deadline firing.
fn expire(
    conn: &mut Connection,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    match conn.phase {
        // An idle keep-alive connection that outlived its welcome closes
        // silently, exactly like the blocking driver's idle wait did.
        Phase::Idle => Flow::Close,
        // Mid-request the client gets told why before the close: the whole
        // request must arrive within the read deadline, however slowly it
        // trickles.
        Phase::ReadingHead | Phase::ReadingBody => {
            let e = http::HttpError::Timeout;
            let response = Response::json(e.status(), error_body(&e.message()));
            record_response(shared, response.status);
            conn.start_response(response, false, now, shared);
            advance(conn, shared, me, token, now)
        }
        // A peer too slow to take its response (or its FIN) forfeits the
        // courtesy drain.
        Phase::Writing | Phase::Draining => Flow::Close,
        Phase::ComputeInFlight => Flow::Keep,
    }
}

fn record_response(shared: &Shared, status: u16) {
    let counters = &shared.counters;
    match status {
        200..=299 => counters.ok.inc(),
        400..=499 => counters.client_errors.inc(),
        _ => counters.server_errors.inc(),
    };
}

/// Completes a request's trace once its response fully drained: when the
/// request was slow enough for its tenant's threshold, stamps the
/// `response_write` span and moves the spans into the trace ring as an
/// exemplar.
fn finish_trace(conn: &mut Connection, shared: &Shared, now: Instant) {
    let Some(trace) = conn.trace.take() else {
        return;
    };
    let Some(recorder) = trace.recorder else {
        return;
    };
    let latency = now.saturating_duration_since(trace.started);
    let threshold_ms = trace
        .tenant
        .as_deref()
        .and_then(|tenant| shared.requests.tuning(tenant).trace_slow_ms)
        .unwrap_or(shared.config.trace_slow_ms);
    if latency < Duration::from_millis(threshold_ms) {
        return;
    }
    let spans = match recorder.lock() {
        Ok(mut rec) => {
            rec.record_between(None, "response_write", trace.write_started, now);
            rec.take_spans()
        }
        Err(_) => return,
    };
    shared.trace_log.push(TraceRecord {
        id: trace.id,
        tenant: trace.tenant,
        status: trace.status,
        latency,
        unix_ms: unix_ms_now(),
        spans,
    });
}

/// Parses one request's routing outcome: answered inline on the loop, or
/// admitted to the compute queue with the reply addressed back here.
fn handle_request(
    conn: &mut Connection,
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    conn.served += 1;
    let config = &shared.config;
    let keep_alive = config.keep_alive
        && request.keep_alive
        && conn.served < config.max_requests_per_connection.max(1)
        && !shared.shutdown.load(Ordering::SeqCst);
    conn.keep_alive_after = keep_alive;
    // Resolve the request's trace identity first: accepted from a valid
    // `x-rpg-trace-id` header, minted otherwise — so even the rejection
    // paths below echo an ID. A malformed header is a 400 (silently
    // re-minting would break the caller's correlation, the one thing the
    // header exists for).
    let trace = match header_trace_id(request) {
        Ok(id) => RequestTrace {
            id: id.unwrap_or_else(TraceId::mint),
            recorder: None,
        },
        Err(response) => {
            conn.trace = Some(ConnTrace::new(TraceId::mint(), now, false));
            record_response(shared, response.status);
            conn.start_response(response, keep_alive, now, shared);
            return Flow::Keep;
        }
    };
    let mut conn_trace = ConnTrace::new(trace.id, now, true);
    let trace = RequestTrace {
        id: trace.id,
        recorder: conn_trace.recorder.clone(),
    };
    // A panic inside a handler must never take the event loop down with
    // it — compute workers guard their side; this guards the loop's inline
    // routes.
    let routed = catch_unwind(AssertUnwindSafe(|| {
        route(request, shared, me, token, &trace)
    }))
    .unwrap_or_else(|_| Routed::Inline(Response::json(500, error_body("internal error"))));
    let (tenant, response) = match routed {
        Routed::Inline(response) => (None, response),
        Routed::CacheHit(tenant, response) => (Some(tenant), response),
        Routed::Queued(tenant, cancel) => {
            conn_trace.tenant = tenant;
            conn.trace = Some(conn_trace);
            // Push any pending interim `100 Continue` now: the connection
            // holds no write interest while compute runs, and the client
            // deserves the interim response before the wait, not bundled
            // with the final one. A write failure here is the hangup case —
            // `POLLHUP`/`POLLERR` watching picks it up next tick.
            if conn.out_pending() {
                let _ = conn.flush_out();
            }
            conn.phase = Phase::ComputeInFlight;
            conn.deadline = None;
            conn.abandoned = false;
            conn.half_closed = false;
            conn.cancel = Some(cancel);
            return Flow::Keep;
        }
    };
    conn_trace.tenant = tenant;
    conn.trace = Some(conn_trace);
    record_response(shared, response.status);
    conn.start_response(response, keep_alive, now, shared);
    Flow::Keep
}

/// Where a request went after routing.
enum Routed {
    /// Answered on the event loop without touching the compute pool.
    Inline(Response),
    /// A `/v1/generate` cache hit answered on the event loop, billed to the
    /// named tenant (whose `trace_slow_ms` then governs its exemplar).
    CacheHit(String, Response),
    /// Admitted to the fair queue under the named billing tenant (`None`
    /// for mixed-tenant batches); a compute worker will post the reply.
    /// The flag is shared with every compute job the request spawned: a
    /// mid-compute hangup flips it so the work is skipped before it runs.
    Queued(Option<String>, Arc<AtomicBool>),
}

/// The worker-side slice of one request's trace, riding its [`Job`]s: the
/// ID (entered as the thread-local logging context while the job runs)
/// and the span sink shared with the owning connection.
#[derive(Clone)]
struct RequestTrace {
    id: TraceId,
    recorder: Option<SharedRecorder>,
}

/// Parses the client's `x-rpg-trace-id` header: `Ok(None)` when absent,
/// `Ok(Some(id))` for a well-formed ID. Anything else — wrong length,
/// non-hex, the reserved all-zero ID — is a `400` naming the header,
/// because silently substituting a minted ID would defeat the correlation
/// the caller asked for.
fn header_trace_id(request: &Request) -> Result<Option<TraceId>, Response> {
    let Some(raw) = request.header("x-rpg-trace-id") else {
        return Ok(None);
    };
    match TraceId::parse(raw.trim()) {
        Some(id) => Ok(Some(id)),
        None => Err(Response::json(
            400,
            error_body(&format!(
                "invalid x-rpg-trace-id {raw:?}: expected exactly 32 hex \
                 characters (and not all zero)"
            )),
        )),
    }
}

/// The authenticated identity of one request, or `None` when the server
/// runs with auth off (legacy self-declared tenancy).
fn authenticate(request: &Request, shared: &Shared) -> Option<Principal> {
    if !shared.config.auth_enabled {
        return None;
    }
    let bearer = bearer_token(request.header("authorization"));
    Some(shared.auth.read().unwrap().principal(bearer))
}

/// The `401` for requests that present no (valid) key while auth is on.
fn unauthorized() -> Response {
    Response::json(401, error_body("missing or invalid bearer key"))
        .with_header("www-authenticate", "Bearer")
}

/// Rejects non-admin principals: `401` for anonymous callers, `403` for
/// tenant keys (authenticated, but not entitled to the control plane).
/// `None` means the caller may proceed.
fn require_admin(principal: &Option<Principal>) -> Option<Response> {
    match principal {
        None | Some(Principal::Admin) => None,
        Some(Principal::Anonymous) => Some(unauthorized()),
        Some(Principal::Tenant(_)) => Some(Response::json(
            403,
            error_body("admin key required for this endpoint"),
        )),
    }
}

/// Rejects anonymous callers; any tenant or admin key passes. `None` means
/// the caller may proceed.
fn require_key(principal: &Option<Principal>) -> Option<Response> {
    match principal {
        Some(Principal::Anonymous) => Some(unauthorized()),
        _ => None,
    }
}

/// Routes one request: cheap endpoints inline on the loop, pipeline work
/// through the per-tenant fair queue.
fn route(
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    trace: &RequestTrace,
) -> Routed {
    let principal = authenticate(request, shared);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/generate") => admit_generate(request, &principal, shared, me, token, trace),
        ("POST", "/v1/batch") => admit_batch(request, &principal, shared, me, token, trace),
        ("GET", "/v1/healthz") => Routed::Inline(handle_healthz(shared)),
        ("GET", "/v1/stats") => Routed::Inline(handle_stats(shared)),
        ("GET", "/metrics") => Routed::Inline(handle_metrics(shared)),
        ("GET", "/v1/debug/requests") => Routed::Inline(
            require_admin(&principal).unwrap_or_else(|| handle_debug_requests(shared)),
        ),
        ("GET", "/v1/corpora") => Routed::Inline(
            require_key(&principal).unwrap_or_else(|| handle_corpora_list(shared, &principal)),
        ),
        ("POST", "/v1/admin/reload") => match require_admin(&principal) {
            Some(rejection) => Routed::Inline(rejection),
            None => admit_reload(request, shared, me, token, trace),
        },
        (method, path) => {
            if let Some(tenant) = admin_tenant_target(path) {
                return Routed::Inline(if method == "PATCH" {
                    require_admin(&principal)
                        .unwrap_or_else(|| handle_tenant_patch(tenant, &request.body, shared))
                } else {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "PATCH")
                });
            }
            if let Some(tenant) = refresh_target(path) {
                return Routed::Inline(match require_admin(&principal) {
                    Some(rejection) => rejection,
                    None if method == "POST" => handle_refresh(tenant, shared),
                    None => Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "POST"),
                });
            }
            if let Some(tenant) = snapshot_target(path) {
                return Routed::Inline(match require_admin(&principal) {
                    Some(rejection) => rejection,
                    None if method == "GET" => handle_snapshot_export(tenant, shared),
                    None => Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "GET"),
                });
            }
            if let Some(tenant) = corpus_target(path) {
                return match method {
                    "PUT" => match require_admin(&principal) {
                        Some(rejection) => Routed::Inline(rejection),
                        None => admit_put(tenant, request, shared, me, token, trace),
                    },
                    "DELETE" => Routed::Inline(
                        require_admin(&principal)
                            .unwrap_or_else(|| handle_corpus_delete(tenant, shared)),
                    ),
                    _ => Routed::Inline(
                        Response::json(405, error_body("method not allowed"))
                            .with_header("allow", "PUT, DELETE"),
                    ),
                };
            }
            Routed::Inline(match (method, path) {
                (_, "/v1/generate") | (_, "/v1/batch") | (_, "/v1/admin/reload") => {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "POST")
                }
                (_, "/v1/healthz")
                | (_, "/v1/stats")
                | (_, "/v1/corpora")
                | (_, "/metrics")
                | (_, "/v1/debug/requests") => {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "GET")
                }
                _ => Response::json(404, error_body("no such endpoint")),
            })
        }
    }
}

/// The tenant named by a `/v1/corpora/:name/refresh` path, if this is one.
fn refresh_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .and_then(|rest| rest.strip_suffix("/refresh"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a `/v1/corpora/:name/snapshot` path, if this is
/// one.
fn snapshot_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .and_then(|rest| rest.strip_suffix("/snapshot"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a bare `/v1/corpora/:name` path, if this is one.
fn corpus_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a `/v1/admin/tenants/:name` path, if this is one.
fn admin_tenant_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/admin/tenants/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("body is not UTF-8")))?;
    serde_json::from_str(text)
        .map_err(|e| Response::json(400, error_body(&format!("invalid request body: {e}"))))
}

/// The tenant a request naming `corpus` is billed to, under the given
/// principal. With auth off the self-declared field stays authoritative;
/// with auth on a tenant key bills itself (its own corpus name is the only
/// one it may also spell out), and an admin key may target any corpus. A
/// cross-tenant request is a `403`, an anonymous one a `401`.
fn billing_tenant(
    corpus: Option<&str>,
    principal: &Option<Principal>,
    shared: &Shared,
) -> Result<String, ApiError> {
    match principal {
        None | Some(Principal::Admin) => {
            Ok(corpus.unwrap_or(&shared.config.default_corpus).to_string())
        }
        Some(Principal::Tenant(own)) => match corpus {
            Some(named) if named != own => Err(ApiError {
                status: 403,
                message: format!("key for tenant {own:?} cannot access corpus {named:?}"),
            }),
            _ => Ok(own.clone()),
        },
        Some(Principal::Anonymous) => Err(ApiError {
            status: 401,
            message: "missing or invalid bearer key".to_string(),
        }),
    }
}

/// Resolves one generate request, a `/v1/generate` body or a batch item,
/// to its billing tenant and validated parameters. Parameters resolve
/// before the corpus check, so a bad variant is a 400 even for an unknown
/// corpus; the resolved form rides the job to the compute worker, so
/// validation happens exactly once. A tenant may declare a default variant
/// (manifest `variant` field); it applies only when the request does not
/// choose one itself.
fn resolve_generate(
    dto: &GenerateRequest,
    principal: &Option<Principal>,
    shared: &Shared,
) -> Result<(String, ResolvedRequest), ApiError> {
    let mut resolved = ResolvedRequest::resolve(dto)?;
    let tenant = billing_tenant(dto.corpus.as_deref(), principal, shared)?;
    if !shared.registry.contains(&tenant) {
        return Err(registry_error(RegistryError::UnknownCorpus(tenant)));
    }
    if dto.variant.is_none() {
        if let Some(variant) = shared.registry.default_variant(&tenant) {
            resolved.variant = variant;
        }
    }
    Ok((tenant, resolved))
}

/// Validates a generate request on the loop (cheap), answers it inline when
/// its result is cached, and otherwise queues it under its (authenticated)
/// tenant. Request-level errors never consume queue budget.
fn admit_generate(
    request: &Request,
    principal: &Option<Principal>,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    trace: &RequestTrace,
) -> Routed {
    let dto: GenerateRequest = match parse_body(&request.body) {
        Ok(dto) => dto,
        Err(response) => return Routed::Inline(response),
    };
    let (tenant, resolved) = match resolve_generate(&dto, principal, shared) {
        Ok(resolved) => resolved,
        Err(e) if e.status == 401 => return Routed::Inline(unauthorized()),
        Err(e) => return Routed::Inline(Response::json(e.status, e.body())),
    };
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    // Every check above runs for hits too. A hit does no compute, so it is
    // exempt from the queue bounds, in-flight caps and deadline shedding
    // that exist to bound compute: it costs one cache probe here.
    if let Some(response) = answer_cached(shared, &tenant, &resolved, trace) {
        return Routed::CacheHit(tenant, response);
    }
    let work = Work::Generate(tenant.clone(), resolved);
    submit_single(shared, &tenant, work, me, token, header_ms, trace)
}

/// Answers a `/v1/generate` cache hit on the event loop: probes the
/// registry's LRU with the fingerprint and epoch a worker would use and, on
/// a hit, books it like a worker-served request — the registry's hit
/// counter and `cache_hit` span (inside the probe), then a sample in the
/// tenant's latency histogram before the reply is staged. `None` is a miss.
fn answer_cached(
    shared: &Shared,
    tenant: &str,
    resolved: &ResolvedRequest,
    trace: &RequestTrace,
) -> Option<Response> {
    let admitted_at = Instant::now();
    let stage = stage_trace(trace, &None);
    let hit = shared
        .registry
        .probe(tenant, &resolved.as_path_request(), stage.as_ref())?;
    let response = cache_hit_response(tenant, &hit);
    tenant_metrics(shared, tenant)
        .latency
        .record(admitted_at.elapsed());
    Some(response)
}

/// The one rendering of a `/v1/generate` cache hit, shared by the loop's
/// inline answer and a worker whose key got cached while it was queued:
/// the entry's encoded body, written by [`generate_response_body`] on the
/// entry's first hit and replayed byte for byte by every later one.
fn cache_hit_response(corpus: &str, hit: &CachedResult) -> Response {
    Response::json(200, hit_body(corpus, hit).to_vec())
}

/// A cache entry's hit body, written on its first hit.
fn hit_body(corpus: &str, hit: &CachedResult) -> Arc<[u8]> {
    hit.hit_body(|output| generate_response_body(corpus, output, true).into_bytes())
}

/// The body of a served generate request: a hit's entry bytes, or a fresh
/// run's encoding.
fn served_body(corpus: &str, served: &Served) -> Vec<u8> {
    match served.hit() {
        Some(hit) => hit_body(corpus, hit).to_vec(),
        None => generate_response_body(corpus, &served.output, false).into_bytes(),
    }
}

/// Admits a batch *per item*: every item is validated on the loop, billed
/// to its own (authenticated) tenant, and queued as its own fair-queue
/// entry — so a mixed-corpus batch draws on each tenant's budget
/// separately, and a tenant at capacity costs exactly its own items a
/// per-item `429` inside the `200` batch response instead of sinking the
/// whole batch.
fn admit_batch(
    request: &Request,
    principal: &Option<Principal>,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    trace: &RequestTrace,
) -> Routed {
    let batch: BatchRequest = match parse_body(&request.body) {
        Ok(batch) => batch,
        Err(response) => return Routed::Inline(response),
    };
    if batch.requests.len() > MAX_BATCH {
        return Routed::Inline(Response::json(
            400,
            error_body(&format!(
                "batch of {} exceeds the {MAX_BATCH}-request limit",
                batch.requests.len()
            )),
        ));
    }
    if batch.requests.is_empty() {
        return Routed::Inline(Response::json(200, batch_body(&[])));
    }
    // An anonymous caller is a request-level 401, not 256 item errors.
    if matches!(principal, Some(Principal::Anonymous)) {
        return Routed::Inline(unauthorized());
    }
    // The deadline header covers the whole batch; a bad one is a
    // request-level 400 before any item is admitted.
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let assembly = BatchAssembly::new(batch.requests.len(), Reply::new(me.clone(), token));
    let cancel = Arc::new(AtomicBool::new(false));
    for (index, dto) in batch.requests.iter().enumerate() {
        let ticket = assembly.ticket(index);
        let (tenant, resolved) = match resolve_generate(dto, principal, shared) {
            Ok(resolved) => resolved,
            Err(e) => {
                ticket.fail(e.status, &e.message);
                continue;
            }
        };
        let work = Work::Generate(tenant.clone(), resolved);
        // A refused item fills its own slot; nothing is answered inline.
        let item = Deliver::Item(ticket);
        submit(shared, &tenant, work, item, &cancel, header_ms, trace);
    }
    // The assembly owns the batch's reply; once the last item fills (which
    // may already have happened, if everything was rejected inline) the
    // assembled response travels the normal reply path. A mixed-corpus
    // batch has no single billing tenant for the exemplar record.
    Routed::Queued(None, cancel)
}

/// Queues a corpus-spec build-and-swap for one tenant (`PUT`), billed to
/// that tenant's lane (which the push creates for a brand-new tenant).
fn admit_put(
    tenant: &str,
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    trace: &RequestTrace,
) -> Routed {
    if !valid_tenant_name(tenant) {
        return Routed::Inline(Response::json(
            400,
            error_body(&format!("invalid tenant name {tenant:?}")),
        ));
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Routed::Inline(Response::json(400, error_body("body is not UTF-8")));
    };
    // Cheap parsing and validation on the loop, by the rules every
    // manifest tenant meets; the build itself runs on a worker.
    let config = match TenantConfig::from_json(text) {
        Ok(config) => config,
        Err(e) => return Routed::Inline(Response::json(400, error_body(&e.to_string()))),
    };
    // The key rules that need the live key table: the wire path must not
    // accept (and then silently drop) a hash already held by the admin set
    // or another tenant.
    if shared.config.auth_enabled {
        let table = shared.auth.read().unwrap();
        for stored in config.stored_keys() {
            let hash = stored.encode();
            let message = match table.encoded_owner(&stored) {
                Some(Principal::Admin) => format!("key_hash {hash:?} is already an admin key"),
                Some(Principal::Tenant(owner)) if owner != tenant => {
                    format!("key_hash {hash:?} is already claimed by tenant {owner:?}")
                }
                _ => continue,
            };
            return Routed::Inline(Response::json(400, error_body(&message)));
        }
    }
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let work = Work::Put {
        name: tenant.to_string(),
        config: Box::new(config),
    };
    submit_single(shared, tenant, work, me, token, header_ms, trace)
}

/// Queues a manifest re-read-and-apply, billed to the reserved admin lane.
fn admit_reload(
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    trace: &RequestTrace,
) -> Routed {
    if shared.config.manifest_path.is_none() {
        return Routed::Inline(Response::json(
            409,
            error_body("server was started without --manifest; nothing to reload"),
        ));
    }
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let work = Work::Reload;
    submit_single(shared, ADMIN_LANE, work, me, token, header_ms, trace)
}

/// The tenant's metrics cell, created (and registered into the shared
/// metrics registry, labelled with the tenant) on first touch.
fn tenant_metrics(shared: &Shared, tenant: &str) -> Arc<TenantMetrics> {
    if let Some(metrics) = shared.metrics.read().unwrap().get(tenant) {
        return metrics.clone();
    }
    shared
        .metrics
        .write()
        .unwrap()
        .entry(tenant.to_string())
        .or_insert_with(|| Arc::new(TenantMetrics::registered(&shared.obs, tenant)))
        .clone()
}

/// Parses and validates the client's `x-rpg-deadline-ms` header:
/// `Ok(None)` when absent, `Ok(Some(ms))` for a positive integer. Zero and
/// malformed values are a `400` with a pointed message — a zero budget is
/// already expired on arrival, so accepting it would shed every request as
/// a `503` billed to the tenant's `shed` counter, and silently ignoring
/// garbage would run the request with no deadline at all, the opposite of
/// what the caller asked for.
fn header_deadline_ms(request: &Request) -> Result<Option<u64>, Response> {
    let Some(raw) = request.header("x-rpg-deadline-ms") else {
        return Ok(None);
    };
    match raw.trim().parse::<u64>() {
        Ok(0) => Err(Response::json(
            400,
            error_body(
                "x-rpg-deadline-ms must be at least 1: a zero budget is already \
                 expired on arrival and every request would be shed",
            ),
        )),
        Ok(ms) => Ok(Some(ms)),
        Err(_) => Err(Response::json(
            400,
            error_body(&format!(
                "invalid x-rpg-deadline-ms {raw:?}: expected a positive integer \
                 millisecond budget"
            )),
        )),
    }
}

/// The absolute deadline a request admitted now must meet: the minimum of
/// the client's validated `x-rpg-deadline-ms` budget (see
/// [`header_deadline_ms`]) and the tenant's tuned budget (manifest
/// `deadline_ms`, falling back to the server-wide default). `None` — no
/// header, no budget — means the work never expires queued.
fn effective_deadline(header_ms: Option<u64>, tenant: &str, shared: &Shared) -> Option<Instant> {
    let tuned_ms = shared
        .requests
        .tuning(tenant)
        .deadline_ms
        .or(shared.config.default_deadline_ms);
    let budget_ms = match (header_ms, tuned_ms) {
        (Some(header), Some(tuned)) => Some(header.min(tuned)),
        (header, tuned) => header.or(tuned),
    };
    budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// Queues a single request's work with its reply addressed back to the
/// connection; a refusal is answered inline.
fn submit_single(
    shared: &Shared,
    tenant: &str,
    work: Work,
    me: &Arc<LoopShared>,
    token: usize,
    header_ms: Option<u64>,
    trace: &RequestTrace,
) -> Routed {
    let cancel = Arc::new(AtomicBool::new(false));
    let reply = Deliver::Reply(Reply::new(me.clone(), token));
    match submit(shared, tenant, work, reply, &cancel, header_ms, trace) {
        Some(refusal) => Routed::Inline(refusal),
        None => Routed::Queued(Some(tenant.to_string()), cancel),
    }
}

/// Offers one job to the fair queue under `tenant`'s lane, the only way
/// work reaches the compute pool, with the deadline its header budget and
/// its tenant's tuning give it (see [`effective_deadline`]). Per-tenant
/// overflow is a `429` and global overflow a `503`, both saying when to
/// retry. A refused single request gets its refusal back to answer
/// inline, its reply disarmed so nothing is posted later; a refused batch
/// item fills its slot, and a batch item has no header of its own, so its
/// `429` says when in its message.
fn submit(
    shared: &Shared,
    tenant: &str,
    work: Work,
    to: Deliver,
    cancelled: &Arc<AtomicBool>,
    header_ms: Option<u64>,
    trace: &RequestTrace,
) -> Option<Response> {
    let job = Job {
        work,
        to,
        cancelled: cancelled.clone(),
        lane: tenant.to_string(),
        admitted_at: Instant::now(),
        deadline: effective_deadline(header_ms, tenant, shared),
        trace: trace.clone(),
    };
    let Err(rejection) = shared.requests.try_push(tenant, job) else {
        return None;
    };
    let (status, message, retry) = match &rejection {
        Rejection::TenantFull(job) => {
            shared.counters.throttled.inc();
            let when = match job.to {
                Deliver::Reply(_) => "retry shortly".to_string(),
                Deliver::Item(_) => format!("retry after {RETRY_AFTER_SECS}s"),
            };
            (
                429,
                format!("tenant {tenant:?} is at capacity, {when}"),
                true,
            )
        }
        Rejection::QueueFull(_) => {
            shared.counters.rejected.inc();
            (
                503,
                "server is at capacity, retry shortly".to_string(),
                true,
            )
        }
        Rejection::Closed(_) => (503, "server is shutting down".to_string(), false),
    };
    let refusal = Err(ApiError { status, message });
    match rejection.into_inner().to {
        Deliver::Reply(reply) => {
            reply.cancel();
            Some(outcome_response(refusal, retry))
        }
        item => {
            item.send(refusal, retry);
            None
        }
    }
}

/// Pairs the in-flight charge `pop` took on a lane with its release, even
/// when the job panics on the way out. `run_job` guards the pipeline with
/// its own `catch_unwind`, but a panic in the reply/ticket/metrics code
/// *past* that guard would otherwise unwind through `compute_loop` —
/// killing the worker thread **and** leaking the lane's in-flight charge,
/// silently shrinking the tenant's concurrency cap for the life of the
/// process.
struct InflightGuard<'a> {
    requests: &'a FairQueue<Job>,
    lane: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.requests.release(&self.lane);
    }
}

fn compute_loop(shared: &Shared) {
    while let Some(job) = shared.requests.pop() {
        // Pairs with the in-flight charge `pop` took on the lane; a capped
        // tenant's next queued job becomes poppable only here, so the cap
        // bounds *compute occupancy*, not just queue depth. The drop guard
        // releases on the unwind path too, and the `catch_unwind` keeps the
        // worker pool at full strength across any escaped panic.
        let guard = InflightGuard {
            requests: &shared.requests,
            lane: job.lane.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(job, shared)));
        drop(guard);
        if outcome.is_err() {
            obs_log::error(
                "server",
                "a compute job panicked past its pipeline guard; worker continues",
                &[],
            );
        }
    }
}

/// Opens a root-level span on a request's recorder, returning the handle
/// [`close_span`] needs. `None` when the trace carries no recorder (ring
/// disabled) — span recording must cost nothing then.
fn open_span(trace: &RequestTrace, name: &'static str) -> Option<(SharedRecorder, usize)> {
    let recorder = trace.recorder.as_ref()?;
    let index = recorder.lock().ok()?.open(None, name);
    Some((recorder.clone(), index))
}

fn close_span(open: &Option<(SharedRecorder, usize)>) {
    if let Some((recorder, index)) = open {
        if let Ok(mut rec) = recorder.lock() {
            rec.close(*index);
        }
    }
}

/// The pipeline-facing slice of a request's trace, with stage spans
/// parented under the given span (the worker's `compute` span).
fn stage_trace(
    trace: &RequestTrace,
    parent: &Option<(SharedRecorder, usize)>,
) -> Option<StageTrace> {
    let recorder = trace.recorder.as_ref()?;
    Some(StageTrace {
        recorder: recorder.clone(),
        parent: parent.as_ref().map(|(_, index)| *index),
    })
}

/// Fault-injection switches for the loopback test suite. Not part of the
/// public API.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::AtomicBool;

    /// When armed, the next non-batch job panics *after* its reply is sent
    /// — past `run_job`'s pipeline guard — exercising the worker's
    /// in-flight release guard. Self-disarms on first use.
    pub static PANIC_AFTER_REPLY: AtomicBool = AtomicBool::new(false);
}

/// Executes one popped job end to end: the cancellation and deadline gates
/// first (a gone client or blown budget sheds the work before the pipeline
/// runs), then the guarded compute, the tenant's latency sample, and the
/// reply (sample first, so a client holding the response always finds it
/// reflected in /metrics and /v1/stats).
fn run_job(job: Job, shared: &Shared) {
    let Job {
        work,
        to,
        cancelled,
        lane,
        admitted_at,
        deadline,
        trace,
    } = job;
    // Everything logged while this job runs — by the server, the service
    // layer, or the pipeline — carries the request's trace ID.
    let _log_scope = obs_log::trace_scope(trace.id);
    // Queue wait is the span from admission to this pop, whatever happens
    // next (shed, cancel, or compute).
    if let Some(recorder) = trace.recorder.as_ref() {
        if let Ok(mut rec) = recorder.lock() {
            rec.record(None, "queue_wait", admitted_at);
        }
    }
    let metrics = tenant_metrics(shared, &lane);
    let refuse = |status, message: &str| {
        Err(ApiError {
            status,
            message: message.to_string(),
        })
    };
    if cancelled.load(Ordering::SeqCst) {
        // Nobody can read the result; skip the pipeline run. A single
        // request's reply is still delivered so the owning loop can free
        // the connection's slot; the bytes are never written because the
        // slot is marked abandoned.
        metrics.cancelled.inc();
        to.send(refuse(500, "client disconnected"), false);
        return;
    }
    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        metrics.shed.inc();
        let message = "deadline exceeded before compute, retry shortly";
        to.send(refuse(503, message), true);
        return;
    }
    // A panic inside the pipeline must never take the worker thread down
    // with it: the job answers a 500 and the worker lives on.
    let compute = open_span(&trace, "compute");
    let stage = stage_trace(&trace, &compute);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(&work, shared, deadline, &metrics, stage)
    }))
    .unwrap_or_else(|_| refuse(500, "internal error"));
    close_span(&compute);
    let single = matches!(to, Deliver::Reply(_));
    if single {
        shared.reply_gate.pass();
    }
    // Sample before delivery: once the client holds the response it must
    // also find the sample in /metrics and /v1/stats.
    metrics.latency.record(admitted_at.elapsed());
    to.send(outcome, false);
    if single && test_hooks::PANIC_AFTER_REPLY.swap(false, Ordering::SeqCst) {
        panic!("test hook: panic after reply");
    }
}

/// Runs one job's work: the body of its `200`, or the error it answers
/// with. A generate's body is encoded here, as soon as its run ends, so a
/// batch slot holds only its bytes until the batch is assembled.
fn execute(
    work: &Work,
    shared: &Shared,
    deadline: Option<Instant>,
    metrics: &TenantMetrics,
    stage: Option<StageTrace>,
) -> Result<Vec<u8>, ApiError> {
    let body = match work {
        // A key cached while this request sat in the queue answers with
        // the same bytes the loop answers hits with.
        Work::Generate(corpus, resolved) => {
            return run_resolved(corpus, resolved, shared, deadline, metrics, stage)
                .map(|served| served_body(corpus, &served));
        }
        Work::Put { name, config } => {
            let created = !shared.registry.contains(name);
            let epoch = shared
                .registry
                .register_spec(name.clone(), config)
                .map_err(|e| ApiError::bad_request(format!("invalid corpus spec: {e}")))?;
            // An omitted `inflight` is the tenant's weighted share among
            // every tenant served now; the others keep their caps until
            // the next reload recomputes them.
            let others: u64 = shared
                .registry
                .tenants()
                .iter()
                .filter(|other| *other != name)
                .map(|other| shared.requests.tuning(other).weight)
                .sum();
            let total_weight = others + config.weight.unwrap_or(1).max(1);
            let tuning = Tuning::of(config, &shared.config, total_weight);
            shared.requests.tune(name, |t| *t = tuning);
            if shared.config.auth_enabled {
                shared
                    .auth
                    .write()
                    .unwrap()
                    .grant_tenant(name, config.stored_keys());
            }
            Value::Object(vec![
                ("corpus".to_string(), Value::String(name.clone())),
                ("epoch".to_string(), Value::Number(epoch as f64)),
                ("created".to_string(), Value::Bool(created)),
            ])
        }
        Work::Reload => {
            let path = shared
                .config
                .manifest_path
                .as_deref()
                .expect("reload admitted only with a manifest path");
            let diff = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| {
                    Manifest::from_json(&text).map_err(|e| format!("invalid manifest {path}: {e}"))
                })
                .and_then(|manifest| apply_manifest_to(shared, &manifest))
                .map_err(ApiError::bad_request)?;
            diff_value(&diff)
        }
    };
    Ok(serde_json::to_string(&body)
        .expect("response serialises")
        .into_bytes())
}

/// Applies a whole manifest to a running server: the registry's tenant set
/// first (create/replace/remove — the CPU-heavy part), then every listed
/// tenant's tuning (removed tenants' tunings go, and their lanes retire
/// once drained) and a key-table swap.
fn apply_manifest_to(shared: &Shared, manifest: &Manifest) -> Result<ManifestDiff, String> {
    let diff = shared
        .registry
        .apply_manifest(manifest)
        .map_err(|e| e.to_string())?;
    for (name, tuning) in manifest_tunings(manifest, &shared.config) {
        shared.requests.tune(name, |t| *t = tuning);
    }
    if let Some(level) = manifest.log_level.as_deref() {
        // Validated by `Manifest::validate`, so parse can only fail if the
        // manifest bypassed validation; keep the current level in that case.
        if let Some(level) = obs_log::Level::parse(level) {
            obs_log::set_level(level);
        }
    }
    for name in &diff.removed {
        shared.requests.retire(name);
    }
    *shared.auth.write().unwrap() = AuthTable::from_manifest(manifest);
    Ok(diff)
}

/// The JSON rendering of a [`ManifestDiff`] (the `/v1/admin/reload`
/// response body).
fn diff_value(diff: &ManifestDiff) -> Value {
    let names = |list: &[String]| Value::Array(list.iter().cloned().map(Value::String).collect());
    Value::Object(vec![
        ("created".to_string(), names(&diff.created)),
        ("replaced".to_string(), names(&diff.replaced)),
        ("removed".to_string(), names(&diff.removed)),
        ("unchanged".to_string(), names(&diff.unchanged)),
    ])
}

fn registry_error(e: RegistryError) -> ApiError {
    match e {
        RegistryError::UnknownCorpus(name) => ApiError {
            status: 404,
            message: format!("unknown corpus {name:?}"),
        },
        RegistryError::Request(RepagerError::Config(e)) => ApiError {
            status: 400,
            message: format!("invalid configuration: {e}"),
        },
        RegistryError::Request(RepagerError::Graph(e)) => ApiError {
            status: 500,
            message: format!("pipeline failure: {e}"),
        },
        // Same shape as the pre-compute shed: overload-class, retryable.
        RegistryError::Request(RepagerError::DeadlineExceeded) => ApiError {
            status: 503,
            message: "deadline exceeded mid-compute, retry shortly".to_string(),
        },
    }
}

/// Runs an already-validated request against its corpus, shedding its
/// remaining pipeline stages if `deadline` passes mid-compute.
fn run_resolved(
    corpus: &str,
    resolved: &ResolvedRequest,
    shared: &Shared,
    deadline: Option<Instant>,
    metrics: &TenantMetrics,
    stage: Option<StageTrace>,
) -> Result<Served, ApiError> {
    let served = shared
        .registry
        .generate_observed(corpus, &resolved.as_path_request(), deadline, stage)
        .map_err(|e| {
            if matches!(e, RegistryError::Request(RepagerError::DeadlineExceeded)) {
                // A mid-compute shed counts into the tenant's `shed` total
                // (kept comparable with pre-compute sheds) plus its own
                // distinguishing stat.
                metrics.shed.inc();
                metrics.shed_mid_compute.inc();
            }
            registry_error(e)
        })?;
    if !served.cached {
        shared.counters.pipeline.record(&served.output.timings);
    }
    Ok(served)
}

/// `GET /v1/corpora`: the control-plane listing — epoch, corpus spec (when
/// known), cache occupancy and queue tuning per tenant. An admin key (or
/// auth-off) sees every tenant; a tenant key sees only its own row, so one
/// tenant's corpus recipe and tuning are never disclosed to another.
fn handle_corpora_list(shared: &Shared, principal: &Option<Principal>) -> Response {
    let own = match principal {
        Some(Principal::Tenant(name)) => Some(name.as_str()),
        _ => None,
    };
    let corpora: Vec<Value> = shared
        .registry
        .overview()
        .into_iter()
        .filter(|row| own.is_none_or(|own| row.name == own))
        .map(|row| {
            let tuning = shared.requests.tuning(&row.name);
            let spec = match &row.spec {
                Some(spec) => serde::Serialize::to_value(spec),
                None => Value::Null,
            };
            Value::Object(vec![
                ("name".to_string(), Value::String(row.name.clone())),
                ("epoch".to_string(), Value::Number(row.epoch as f64)),
                ("corpus".to_string(), spec),
                (
                    "cached_entries".to_string(),
                    Value::Number(row.cached_entries as f64),
                ),
                (
                    "cache_share".to_string(),
                    row.cache_share
                        .map_or(Value::Null, |share| Value::Number(share as f64)),
                ),
                ("weight".to_string(), Value::Number(tuning.weight as f64)),
                ("queue".to_string(), Value::Number(tuning.bound as f64)),
            ])
        })
        .collect();
    json_200(&Value::Object(vec![(
        "corpora".to_string(),
        Value::Array(corpora),
    )]))
}

/// `GET /v1/corpora/:name/snapshot` (admin-gated): exports the tenant's
/// live artifacts as a binary snapshot — the same container
/// `rpg snapshot build` writes, embedding the tenant's spec fingerprint
/// when it has a spec ([`snapshot::NO_SPEC_FINGERPRINT`] otherwise, so a
/// spec-less export can be inspected but never matches a manifest spec).
/// The body is streamed through the event loop's [`ResponseEmitter`] in
/// bounded chunks like every other large response.
fn handle_snapshot_export(tenant: &str, shared: &Shared) -> Response {
    let Some(artifacts) = shared.registry.artifacts(tenant) else {
        let e = registry_error(RegistryError::UnknownCorpus(tenant.to_string()));
        return Response::json(e.status, e.body());
    };
    let fingerprint = shared
        .registry
        .spec(tenant)
        .map(|spec| snapshot::spec_fingerprint(&spec))
        .unwrap_or(snapshot::NO_SPEC_FINGERPRINT);
    match snapshot::encode(&artifacts, fingerprint) {
        Ok(bytes) => Response::json(200, bytes)
            .with_header("content-type", "application/octet-stream")
            .with_header(
                "content-disposition",
                format!("attachment; filename=\"{tenant}.rpgsnap\""),
            ),
        Err(e) => Response::json(500, error_body(&format!("snapshot encode failed: {e}"))),
    }
}

/// `POST /v1/corpora/:name/refresh`: starts a new cache epoch for the
/// tenant, evicting exactly its cached results. It costs no compute, so it
/// is answered on the loop like `DELETE`, outside every queue bound and
/// deadline.
fn handle_refresh(tenant: &str, shared: &Shared) -> Response {
    match shared.registry.refresh_in_place(tenant) {
        Ok(epoch) => json_200(&Value::Object(vec![
            ("corpus".to_string(), Value::String(tenant.to_string())),
            ("epoch".to_string(), Value::Number(epoch as f64)),
            ("refreshed".to_string(), Value::Bool(true)),
        ])),
        Err(e) => {
            let e = registry_error(e);
            Response::json(e.status, e.body())
        }
    }
}

/// `DELETE /v1/corpora/:name`: removes the tenant, evicts its cache
/// entries, forgets its tuning, retires its queue lane (draining queued
/// work first) and revokes its keys. Subsequent generates against it are
/// `404`s.
fn handle_corpus_delete(tenant: &str, shared: &Shared) -> Response {
    if !shared.registry.remove(tenant) {
        return Response::json(404, error_body(&format!("unknown corpus {tenant:?}")));
    }
    shared.requests.retire(tenant);
    if shared.config.auth_enabled {
        shared.auth.write().unwrap().revoke_tenant(tenant);
    }
    json_200(&Value::Object(vec![
        ("corpus".to_string(), Value::String(tenant.to_string())),
        ("removed".to_string(), Value::Bool(true)),
    ]))
}

/// `PATCH /v1/admin/tenants/:name`: retunes the named fields of a live
/// tenant's tuning, leaving the rest as they are and queued work
/// untouched, and answers with the tuning then in force.
fn handle_tenant_patch(tenant: &str, body: &[u8], shared: &Shared) -> Response {
    let patch: TenantPatch = match parse_body(body) {
        Ok(patch) => patch,
        Err(response) => return response,
    };
    if !shared.registry.contains(tenant) {
        return Response::json(404, error_body(&format!("unknown corpus {tenant:?}")));
    }
    if patch.weight == Some(0) || patch.queue == Some(0) {
        return Response::json(400, error_body("weight and queue must be at least 1"));
    }
    if patch.inflight == Some(0) || patch.deadline_ms == Some(0) {
        return Response::json(
            400,
            error_body("inflight and deadline_ms must be at least 1"),
        );
    }
    if patch.weight.is_none()
        && patch.queue.is_none()
        && patch.inflight.is_none()
        && patch.deadline_ms.is_none()
        && patch.trace_slow_ms.is_none()
    {
        return Response::json(
            400,
            error_body(
                "nothing to change: set weight, queue, inflight, deadline_ms and/or trace_slow_ms",
            ),
        );
    }
    let tuning = shared.requests.tune(tenant, |tuning| {
        tuning.weight = patch.weight.unwrap_or(tuning.weight);
        tuning.bound = patch.queue.unwrap_or(tuning.bound);
        tuning.inflight = patch.inflight.or(tuning.inflight);
        tuning.deadline_ms = patch.deadline_ms.or(tuning.deadline_ms);
        // 0 is legal: it means "capture an exemplar for every request".
        tuning.trace_slow_ms = patch.trace_slow_ms.or(tuning.trace_slow_ms);
    });
    let number = |value: Option<u64>| value.map_or(Value::Null, |v| Value::Number(v as f64));
    json_200(&Value::Object(vec![
        ("tenant".to_string(), Value::String(tenant.to_string())),
        ("weight".to_string(), number(Some(tuning.weight))),
        ("queue".to_string(), number(Some(tuning.bound as u64))),
        (
            "inflight".to_string(),
            number(tuning.inflight.map(|c| c as u64)),
        ),
        ("deadline_ms".to_string(), number(tuning.deadline_ms)),
        ("trace_slow_ms".to_string(), number(tuning.trace_slow_ms)),
    ]))
}

fn handle_healthz(shared: &Shared) -> Response {
    let corpora: Vec<Value> = shared
        .registry
        .tenants()
        .into_iter()
        .map(Value::String)
        .collect();
    json_200(&Value::Object(vec![
        ("status".to_string(), Value::String("ok".to_string())),
        ("corpora".to_string(), Value::Array(corpora)),
        (
            "workers".to_string(),
            Value::Number(shared.config.workers.max(1) as f64),
        ),
        ("queue".to_string(), queue_value(shared)),
    ]))
}

fn handle_stats(shared: &Shared) -> Response {
    let counters = &shared.counters;
    let cache = shared.registry.cache_stats();
    let (runs, sums) = (counters.pipeline.runs(), counters.pipeline.sums());
    let count = |counter: &Counter| Value::Number(counter.get() as f64);
    let handled = counters.ok.get() + counters.client_errors.get() + counters.server_errors.get();
    json_200(&Value::Object(vec![
        ("queue".to_string(), queue_value(shared)),
        (
            "connections".to_string(),
            Value::Object(vec![
                ("accepted".to_string(), count(&counters.accepted)),
                (
                    "open".to_string(),
                    Value::Number(shared.open_connections.load(Ordering::SeqCst) as f64),
                ),
                (
                    "drivers".to_string(),
                    Value::Number(shared.loops.len() as f64),
                ),
                (
                    "io_backend".to_string(),
                    Value::String(shared.io_backend.as_str().to_string()),
                ),
                (
                    "max".to_string(),
                    Value::Number(shared.config.max_connections as f64),
                ),
                ("rejected_503".to_string(), count(&counters.rejected)),
            ]),
        ),
        (
            "responses".to_string(),
            Value::Object(vec![
                ("handled".to_string(), Value::Number(handled as f64)),
                ("ok".to_string(), count(&counters.ok)),
                ("client_error".to_string(), count(&counters.client_errors)),
                ("server_error".to_string(), count(&counters.server_errors)),
            ]),
        ),
        (
            "cache".to_string(),
            Value::Object(vec![
                ("hits".to_string(), Value::Number(cache.hits as f64)),
                ("misses".to_string(), Value::Number(cache.misses as f64)),
                ("entries".to_string(), Value::Number(cache.entries as f64)),
                ("capacity".to_string(), Value::Number(cache.capacity as f64)),
            ]),
        ),
        (
            "pipeline".to_string(),
            Value::Object(vec![
                ("requests".to_string(), Value::Number(runs as f64)),
                ("sum".to_string(), timings_value(&sums)),
                ("mean".to_string(), timings_value(&stats::mean(&sums, runs))),
            ]),
        ),
        ("tenants".to_string(), tenants_value(shared)),
    ]))
}

/// `GET /metrics`: the same registry `/v1/stats` reads, rendered as
/// Prometheus text exposition 0.0.4. Sampled gauges (connection/queue/cache
/// occupancy) are refreshed at scrape time so the scrape never waits on the
/// hot path to push them.
fn handle_metrics(shared: &Shared) -> Response {
    let counters = &shared.counters;
    counters
        .open_connections
        .set(shared.open_connections.load(Ordering::SeqCst) as i64);
    counters.queue_depth.set(shared.requests.depth() as i64);
    let cache = shared.registry.cache_stats();
    counters.cache_hits.set(cache.hits);
    counters.cache_misses.set(cache.misses);
    counters.cache_entries.set(cache.entries as i64);
    Response {
        status: 200,
        headers: vec![(
            "content-type".to_string(),
            "text/plain; version=0.0.4".to_string(),
        )],
        body: shared.obs.render().into_bytes(),
    }
}

/// `GET /v1/debug/requests` (admin-gated): the slow-request exemplar ring,
/// newest first, each entry carrying its full span tree.
fn handle_debug_requests(shared: &Shared) -> Response {
    let spans_value = |spans: &[Span]| {
        Value::Array(
            spans
                .iter()
                .map(|span| {
                    Value::Object(vec![
                        ("name".to_string(), Value::String(span.name.to_string())),
                        (
                            "start_us".to_string(),
                            Value::Number(span.start.as_micros() as f64),
                        ),
                        (
                            "duration_us".to_string(),
                            Value::Number(span.duration.as_micros() as f64),
                        ),
                        (
                            "parent".to_string(),
                            span.parent
                                .map_or(Value::Null, |parent| Value::Number(parent as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let requests: Vec<Value> = shared
        .trace_log
        .snapshot()
        .iter()
        .map(|record| {
            Value::Object(vec![
                ("trace_id".to_string(), Value::String(record.id.to_string())),
                (
                    "tenant".to_string(),
                    record
                        .tenant
                        .as_ref()
                        .map_or(Value::Null, |t| Value::String(t.clone())),
                ),
                ("status".to_string(), Value::Number(record.status as f64)),
                (
                    "latency_ms".to_string(),
                    Value::Number(record.latency.as_secs_f64() * 1e3),
                ),
                ("unix_ms".to_string(), Value::Number(record.unix_ms as f64)),
                ("spans".to_string(), spans_value(&record.spans)),
            ])
        })
        .collect();
    json_200(&Value::Object(vec![
        (
            "capacity".to_string(),
            Value::Number(shared.trace_log.capacity() as f64),
        ),
        ("requests".to_string(), Value::Array(requests)),
    ]))
}

/// The per-tenant overload section of `/v1/stats`: completed-request
/// latency quantiles (milliseconds, log2-bucket upper bounds) plus the
/// shed/cancelled counters and the tenant's live compute occupancy.
fn tenants_value(shared: &Shared) -> Value {
    let metrics = shared.metrics.read().unwrap();
    let mut names: Vec<&String> = metrics.keys().collect();
    names.sort();
    let ms = |duration: Option<Duration>| {
        duration.map_or(Value::Null, |d| Value::Number(d.as_secs_f64() * 1e3))
    };
    let rows = names
        .into_iter()
        .map(|name| {
            let tenant = &metrics[name];
            let latency = &tenant.latency;
            (
                name.clone(),
                Value::Object(vec![
                    (
                        "latency".to_string(),
                        Value::Object(vec![
                            ("count".to_string(), Value::Number(latency.count() as f64)),
                            ("mean".to_string(), ms(latency.mean())),
                            ("p50".to_string(), ms(latency.quantile(0.5))),
                            ("p99".to_string(), ms(latency.quantile(0.99))),
                            ("p999".to_string(), ms(latency.quantile(0.999))),
                        ]),
                    ),
                    ("shed".to_string(), Value::Number(tenant.shed.get() as f64)),
                    (
                        "shed_mid_compute".to_string(),
                        Value::Number(tenant.shed_mid_compute.get() as f64),
                    ),
                    (
                        "cancelled".to_string(),
                        Value::Number(tenant.cancelled.get() as f64),
                    ),
                    (
                        "in_flight".to_string(),
                        Value::Number(shared.requests.tenant_inflight(name) as f64),
                    ),
                ]),
            )
        })
        .collect();
    Value::Object(rows)
}

/// The request-queue section of `/v1/stats` and `/v1/healthz`: global
/// depth/bound, the `429` counter, and one entry per tenant seen so far
/// with its depth, bound, and DRR weight.
fn queue_value(shared: &Shared) -> Value {
    let requests = &shared.requests;
    let tenants: Vec<(String, Value)> = requests
        .tenant_depths()
        .into_iter()
        .map(|(name, depth)| {
            let tuning = requests.tuning(&name);
            let in_flight = requests.tenant_inflight(&name);
            let inflight_cap = tuning
                .inflight
                .map_or(Value::Null, |cap| Value::Number(cap as f64));
            (
                name,
                Value::Object(vec![
                    ("depth".to_string(), Value::Number(depth as f64)),
                    ("capacity".to_string(), Value::Number(tuning.bound as f64)),
                    ("weight".to_string(), Value::Number(tuning.weight as f64)),
                    ("in_flight".to_string(), Value::Number(in_flight as f64)),
                    ("inflight".to_string(), inflight_cap),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("depth".to_string(), Value::Number(requests.depth() as f64)),
        (
            "capacity".to_string(),
            Value::Number(requests.capacity() as f64),
        ),
        (
            "throttled_429".to_string(),
            Value::Number(shared.counters.throttled.get() as f64),
        ),
        ("tenants".to_string(), Value::Object(tenants)),
    ])
}

fn json_200(value: &Value) -> Response {
    Response::json(
        200,
        serde_json::to_string(value).expect("response serialises"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_side_hit_renders_through_the_loops_hit_function() {
        let registry = Arc::new(CorpusRegistry::new());
        registry
            .register(
                "default",
                rpg_corpus::generate(&rpg_corpus::CorpusConfig::small()),
            )
            .unwrap();
        let server = Server::spawn(
            registry.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let shared = &server.shared;
        let artifacts = registry.artifacts("default").unwrap();
        let survey = artifacts.corpus().survey_bank().iter().next().unwrap();
        let resolved = ResolvedRequest::resolve(&GenerateRequest {
            query: survey.query.clone(),
            max_year: Some(survey.year),
            ..GenerateRequest::default()
        })
        .unwrap();
        let warm = registry
            .generate("default", &resolved.as_path_request())
            .unwrap();
        let entry = registry
            .probe("default", &resolved.as_path_request(), None)
            .expect("the key is warm");

        // The worker finds the key cached (as if it got cached while the
        // request was queued) and renders the entry's hit body into its
        // slot...
        let work = Work::Generate("default".to_string(), resolved);
        let metrics = tenant_metrics(shared, "default");
        let from_worker = execute(&work, shared, None, &metrics, None).expect("a warm key serves");
        let filled = entry.hit_body(|_| panic!("the worker left the entry's slot empty"));
        assert_eq!(from_worker, &filled[..]);

        // ...which is exactly what the loop's inline answer replays: the
        // same function, the same bytes, nothing encoded twice.
        let from_loop = cache_hit_response("default", &entry);
        assert_eq!(from_loop.body, from_worker);
        let expected = generate_response_body("default", &warm.output, true);
        assert_eq!(from_loop.body, expected.as_bytes());
    }
}
