//! The resident verdict daemon: sockets in, [`Evaluation`]s out.
//!
//! Architecture (each layer reuses an idiom an earlier PR established):
//!
//! * **Sockets** — one UDP socket and one TCP listener on the same
//!   ephemeral loopback port: the `dns` crate's
//!   [`UdpNameServer`](spf_dns::UdpNameServer) shape. The UDP socket and
//!   each TCP connection are drained by background threads with short
//!   read timeouts and an `Arc<AtomicBool>` shutdown flag; the listener
//!   blocks in the shared [`AcceptLoop`].
//! * **Queue** — listeners decode frames and `try_send` jobs into one
//!   bounded channel; a full queue yields an immediate typed
//!   `overloaded` response, never a silently dropped datagram.
//! * **Workers** — a fixed pool drains the queue, runs `check_host`
//!   (through the TTL/LRU [`ServiceVerdictCache`] when configured), and
//!   replies on the transport the query arrived on. Counters increment
//!   before the reply leaves, so a client that has seen its response
//!   can never observe a stale counter.
//! * **Shutdown** — the flag stops the listeners; dropping the last
//!   queue sender lets workers drain every job already admitted before
//!   exiting, so accepted queries are always answered. Queries arriving
//!   *during* the drain get a typed `shutting-down` response.
//!
//! Correctness bar: a served verdict is byte-identical to what bare
//! [`check_host`] returns for the same `(ip, domain, sender)` against
//! the same zones — workers share nothing mutable but the verdict memo,
//! whose transparency DESIGN.md §8 establishes and §9 extends to the
//! TTL/LRU layers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, TrySendError};
use serde::Serialize;
use spf_core::{
    check_host, check_host_cached, compile_policy, AuthCache, AuthCacheStats, AuthOutcome,
    CompileConfig, CompilerStats, EvalContext, EvalPolicy, Evaluation,
};
use spf_dns::{Clock, Resolver, SystemClock};
use spf_types::{render_stats, AcceptLoop, Backend, Evaluator, StatItem, Stats};

use crate::cache::{CompiledPolicyCache, ServiceVerdictCache, TtlLruConfig, TtlLruStats};
use crate::histogram::{LatencySnapshot, LogHistogram};
use crate::proto::{
    decode_datagram, decode_payload, encode_frame, peek_query_id, split_frame, Frame, FrameError,
    QueryFrame, ResponseFrame, Status, LEN_PREFIX,
};

/// Daemon sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity; the `try_send` overflow beyond
    /// it is answered with a typed `overloaded` response.
    pub queue_capacity: usize,
    /// Verdict-memo policy, or `None` to evaluate every query bare.
    pub cache: Option<TtlLruConfig>,
    /// Compiled-backend store policy, or `None` to tree-walk every
    /// query. When set, each domain's SPF tree is compiled to an
    /// interval matcher on first query and verdicts answer from the
    /// tables; residual regions fall back to the (cached) evaluator.
    /// The store expires exactly like the verdict memo — same TTL
    /// mechanism, same clock — so stale compiled policies never serve.
    pub compiled: Option<TtlLruConfig>,
    /// RFC 7208 limits applied to every evaluation.
    pub policy: EvalPolicy,
}

impl ServiceConfig {
    /// A config with `workers` threads and the defaults elsewhere.
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }

    /// Map a [`Backend`]'s evaluator onto the service's cache knobs:
    /// `Interpreted` evaluates every query bare (no memo),
    /// `Cached` keeps the default verdict memo, and `Compiled` adds the
    /// compiled-policy store on top of it. The backend's transport is
    /// the *resolver's* concern — the caller assembles that stack (see
    /// `spf_bench::build_resolver`) and hands the resolver in.
    pub fn from_backend(backend: Backend, workers: usize) -> ServiceConfig {
        let base = ServiceConfig::with_workers(workers);
        match backend.evaluator {
            Evaluator::Interpreted => base.cache(None),
            Evaluator::Cached => base,
            Evaluator::Compiled => base.compiled(Some(TtlLruConfig::default())),
        }
    }

    /// Override the request-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set (or disable, with `None`) the verdict memo.
    pub fn cache(mut self, cache: Option<TtlLruConfig>) -> ServiceConfig {
        self.cache = cache;
        self
    }

    /// Set (or disable, with `None`) the compiled backend.
    pub fn compiled(mut self, compiled: Option<TtlLruConfig>) -> ServiceConfig {
        self.compiled = compiled;
        self
    }

    /// Override the evaluation policy.
    pub fn policy(mut self, policy: EvalPolicy) -> ServiceConfig {
        self.policy = policy;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            cache: Some(TtlLruConfig::default()),
            compiled: None,
            policy: EvalPolicy::default(),
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    stacked_served: AtomicU64,
    udp_frames: AtomicU64,
    tcp_frames: AtomicU64,
    overloaded: AtomicU64,
    bad_frames: AtomicU64,
    shutdown_rejects: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
}

/// Point-in-time service counters plus cache and latency snapshots —
/// what `repro -- serve` prints as its `[service]` line.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceTelemetry {
    /// Queries evaluated and answered `ok`.
    pub served: u64,
    /// Of those, stacked (SPF × DMARC × MTA-STS) queries.
    pub stacked_served: u64,
    /// Frames received over UDP.
    pub udp_frames: u64,
    /// Frames received over TCP.
    pub tcp_frames: u64,
    /// Queries refused with `overloaded` (queue full).
    pub overloaded: u64,
    /// Frames refused with `bad-request` (decode failure).
    pub bad_frames: u64,
    /// Queries refused with `shutting-down` (arrived mid-drain).
    pub shutdown_rejects: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// High-water queue depth.
    pub peak_queue_depth: u64,
    /// Verdict-memo counters, when a cache is configured.
    pub cache: Option<TtlLruStats>,
    /// Compiler counters (the `[compiler]` line), when the compiled
    /// backend is configured.
    pub compiled: Option<CompilerStats>,
    /// Compiled-policy store counters, when the backend is configured.
    pub compiled_cache: Option<TtlLruStats>,
    /// DMARC/MTA-STS layer-memo counters (only stacked queries touch
    /// the memo, so all-zero means no client asked for the stack).
    pub auth_cache: AuthCacheStats,
    /// Enqueue-to-reply latency distribution.
    pub latency: LatencySnapshot,
}

impl Stats for ServiceTelemetry {
    fn scope(&self) -> &'static str {
        "service"
    }

    fn items(&self) -> Vec<StatItem> {
        let mut items = vec![
            StatItem::count("served", self.served),
            StatItem::count("stacked", self.stacked_served),
            StatItem::count("udp", self.udp_frames),
            StatItem::count("tcp", self.tcp_frames),
            StatItem::count("overloaded", self.overloaded),
            StatItem::count("bad", self.bad_frames),
            StatItem::text(
                "queue",
                format!("{}/{}", self.queue_depth, self.peak_queue_depth),
            ),
        ];
        if let Some(cache) = &self.cache {
            items.push(StatItem::percent("cache_hit", cache.hit_rate()));
            items.push(StatItem::count("cache_entries", cache.entries));
            items.push(StatItem::count("cache_evict", cache.evictions));
            items.push(StatItem::count("cache_expire", cache.expirations));
        }
        if self.stacked_served > 0 {
            items.push(StatItem::percent(
                "dmarc_hit",
                self.auth_cache.dmarc_hit_rate(),
            ));
        }
        items.push(StatItem::float("lat_p50_us", self.latency.p50_us));
        items.push(StatItem::float("lat_p99_us", self.latency.p99_us));
        items.push(StatItem::float("lat_p999_us", self.latency.p999_us));
        items
    }
}

impl std::fmt::Display for ServiceTelemetry {
    /// The `[service]` line (one [`render_stats`] call), plus — when the
    /// compiled backend is on — the `[compiler]` and `[store]` lines,
    /// every one through the same shared formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&Stats::render(self))?;
        if let Some(compiled) = &self.compiled {
            write!(f, "\n{compiled}")?;
            if let Some(store) = &self.compiled_cache {
                let items = [
                    StatItem::percent("hit", store.hit_rate()),
                    StatItem::count("entries", store.entries),
                    StatItem::count("expirations", store.expirations),
                ];
                write!(f, " {}", render_stats("store", &items))?;
            }
        }
        Ok(())
    }
}

/// The service's compiled backend: the per-domain policy store plus the
/// counters behind the `[compiler]` telemetry line. Compiles are rare
/// (once per domain per TTL) and go through the mutex; the per-query
/// verdict split stays on atomics.
struct CompiledBackend {
    store: CompiledPolicyCache,
    config: CompileConfig,
    stats: Mutex<CompilerStats>,
    compiled_verdicts: AtomicU64,
    fallback_verdicts: AtomicU64,
}

impl CompiledBackend {
    fn new(store_config: TtlLruConfig, policy: EvalPolicy, clock: Arc<dyn Clock>) -> Self {
        CompiledBackend {
            store: CompiledPolicyCache::new(store_config, clock),
            config: CompileConfig::with_policy(policy),
            stats: Mutex::new(CompilerStats::default()),
            compiled_verdicts: AtomicU64::new(0),
            fallback_verdicts: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> CompilerStats {
        let mut stats = *self.stats.lock().unwrap();
        stats.compiled_verdicts = self.compiled_verdicts.load(Ordering::Relaxed);
        stats.fallback_verdicts = self.fallback_verdicts.load(Ordering::Relaxed);
        stats
    }
}

enum ReplyPath {
    Udp {
        socket: Arc<UdpSocket>,
        peer: SocketAddr,
    },
    Tcp {
        stream: Arc<Mutex<TcpStream>>,
    },
}

impl ReplyPath {
    fn send(&self, response: ResponseFrame) -> std::io::Result<()> {
        let wire = encode_frame(&Frame::Response(response));
        match self {
            ReplyPath::Udp { socket, peer } => {
                socket.send_to(&wire, *peer)?;
            }
            ReplyPath::Tcp { stream } => {
                let mut guard = stream.lock().unwrap();
                guard.write_all(&wire)?;
                guard.flush()?;
            }
        }
        Ok(())
    }
}

struct Job {
    query: QueryFrame,
    enqueued: Instant,
    reply: ReplyPath,
}

/// Decode outcome → response or enqueued job; shared by both listeners.
fn dispatch(
    decoded: Result<Frame, FrameError>,
    raw_payload: &[u8],
    reply: ReplyPath,
    job_tx: &channel::Sender<Job>,
    counters: &Counters,
    shutting_down: bool,
) {
    let query = match decoded {
        Ok(Frame::Query(query)) => query,
        Ok(Frame::Response(r)) => {
            counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(ResponseFrame::error(
                r.id,
                Status::BadRequest,
                "unexpected response frame",
            ));
            return;
        }
        Err(e) => {
            counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            let id = peek_query_id(raw_payload).unwrap_or(0);
            let _ = reply.send(ResponseFrame::error(id, Status::BadRequest, &e.to_string()));
            return;
        }
    };
    if shutting_down {
        counters.shutdown_rejects.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(ResponseFrame::error(
            query.id,
            Status::ShuttingDown,
            "service draining",
        ));
        return;
    }
    let job = Job {
        query,
        enqueued: Instant::now(),
        reply,
    };
    // Count the admission *before* the job becomes visible to workers:
    // a worker can dequeue (and decrement) the instant `try_send`
    // returns, so incrementing afterwards would let the depth counter
    // underflow. Rejected sends roll their increment back.
    let depth = counters.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    counters
        .peak_queue_depth
        .fetch_max(depth, Ordering::Relaxed);
    match job_tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(job)) => {
            counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            counters.overloaded.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(ResponseFrame::error(
                job.query.id,
                Status::Overloaded,
                "request queue full",
            ));
        }
        Err(TrySendError::Disconnected(job)) => {
            counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let _ = job.reply.send(ResponseFrame::error(
                job.query.id,
                Status::ShuttingDown,
                "service stopped",
            ));
        }
    }
}

fn udp_listen_loop(
    socket: Arc<UdpSocket>,
    job_tx: channel::Sender<Job>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
) {
    let mut buf = [0u8; crate::proto::MAX_PAYLOAD + LEN_PREFIX];
    while !shutdown.load(Ordering::Relaxed) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(v) => v,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        counters.udp_frames.fetch_add(1, Ordering::Relaxed);
        let datagram = &buf[..len];
        let payload = datagram.get(LEN_PREFIX..).unwrap_or(&[]);
        dispatch(
            decode_datagram(datagram),
            payload,
            ReplyPath::Udp {
                socket: Arc::clone(&socket),
                peer,
            },
            &job_tx,
            &counters,
            shutdown.load(Ordering::Relaxed),
        );
    }
}

fn tcp_connection_loop(
    mut stream: TcpStream,
    job_tx: channel::Sender<Job>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    // Responses go through a shared, mutex-guarded clone so pipelined
    // queries can complete out of order while this thread keeps reading.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut acc: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                acc.extend_from_slice(&tmp[..n]);
                loop {
                    match split_frame(&acc) {
                        Ok(Some((used, payload))) => {
                            counters.tcp_frames.fetch_add(1, Ordering::Relaxed);
                            dispatch(
                                decode_payload(payload),
                                payload,
                                ReplyPath::Tcp {
                                    stream: Arc::clone(&writer),
                                },
                                &job_tx,
                                &counters,
                                shutdown.load(Ordering::Relaxed),
                            );
                            acc.drain(..used);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // An oversized prefix means the stream can
                            // never re-synchronize: answer and hang up.
                            counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                            let reply = ReplyPath::Tcp {
                                stream: Arc::clone(&writer),
                            };
                            let _ = reply.send(ResponseFrame::error(
                                0,
                                Status::BadRequest,
                                &e.to_string(),
                            ));
                            return Ok(());
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
            }
            Err(_) => return Ok(()),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    job_rx: channel::Receiver<Job>,
    resolver: Arc<dyn Resolver>,
    policy: EvalPolicy,
    cache: Option<Arc<ServiceVerdictCache>>,
    compiled: Option<Arc<CompiledBackend>>,
    auth: Arc<AuthCache>,
    counters: Arc<Counters>,
    latency: Arc<LogHistogram>,
) {
    while let Ok(job) = job_rx.recv() {
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // The SPF sub-verdict always routes through `evaluate` — the
        // same compiled/memo/bare ladder a plain query takes — so the
        // `spf` component of a stacked body is byte-identical to the
        // plain body for the same query (the DESIGN.md §13 rail).
        let eval = evaluate(
            &resolver,
            &policy,
            cache.as_deref(),
            compiled.as_deref(),
            &job.query,
        );
        let response = if job.query.stack {
            let dmarc = auth.dmarc(resolver.as_ref(), &job.query.domain);
            let mta_sts = auth.mta_sts(resolver.as_ref(), &job.query.domain);
            counters.stacked_served.fetch_add(1, Ordering::Relaxed);
            ResponseFrame::stacked(job.query.id, &AuthOutcome::compose(eval, dmarc, mta_sts))
        } else {
            ResponseFrame::verdict(job.query.id, &eval)
        };
        // Count before the reply leaves (the name-server idiom): a
        // client holding the response must never read a stale counter.
        counters.served.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(response);
        latency.record(job.enqueued.elapsed());
    }
}

fn evaluate(
    resolver: &Arc<dyn Resolver>,
    policy: &EvalPolicy,
    cache: Option<&ServiceVerdictCache>,
    compiled: Option<&CompiledBackend>,
    query: &QueryFrame,
) -> Evaluation {
    if let Some(backend) = compiled {
        // Probe the TTL store; an expired artifact is removed on probe
        // (never served) and recompiled against the live zone here.
        let policy_tables = match backend.store.get(&query.domain) {
            Some(tables) => tables,
            None => {
                let tables = Arc::new(compile_policy(
                    resolver.as_ref(),
                    &query.domain,
                    &backend.config,
                ));
                backend.stats.lock().unwrap().record(&tables);
                backend
                    .store
                    .insert(query.domain.clone(), Arc::clone(&tables));
                tables
            }
        };
        if let Some(eval) = policy_tables.verdict(query.ip) {
            backend.compiled_verdicts.fetch_add(1, Ordering::Relaxed);
            return eval;
        }
        backend.fallback_verdicts.fetch_add(1, Ordering::Relaxed);
    }
    let ctx = EvalContext::mail_from(query.ip, &query.sender_local, query.domain.clone());
    match cache {
        Some(memo) => check_host_cached(resolver.as_ref(), &ctx, &query.domain, policy, memo),
        None => check_host(resolver.as_ref(), &ctx, &query.domain, policy),
    }
}

/// A running verdict daemon on background threads; dropping it shuts it
/// down gracefully (drain semantics — see [`VerdictService::shutdown`]).
pub struct VerdictService {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    latency: Arc<LogHistogram>,
    cache: Option<Arc<ServiceVerdictCache>>,
    compiled: Option<Arc<CompiledBackend>>,
    auth: Arc<AuthCache>,
    udp_handle: Option<JoinHandle<()>>,
    tcp: Option<AcceptLoop>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<channel::Sender<Job>>,
}

impl VerdictService {
    /// Bind UDP + TCP on an ephemeral loopback port and start serving
    /// verdicts for `resolver`'s zones, with cache TTLs on [`SystemClock`].
    pub fn spawn(resolver: Arc<dyn Resolver>, config: ServiceConfig) -> std::io::Result<Self> {
        VerdictService::spawn_at(resolver, config, Arc::new(SystemClock::new()))
    }

    /// [`VerdictService::spawn`] with an explicit [`Clock`] — the hook
    /// the TTL proptests use to drive expiry with a `VirtualClock`.
    pub fn spawn_at(
        resolver: Arc<dyn Resolver>,
        config: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Self> {
        let socket = Arc::new(UdpSocket::bind(("127.0.0.1", 0))?);
        socket.set_read_timeout(Some(Duration::from_millis(25)))?;
        let addr = socket.local_addr()?;
        let listener = TcpListener::bind(addr)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let latency = Arc::new(LogHistogram::new());
        let cache = config
            .cache
            .clone()
            .map(|policy| Arc::new(ServiceVerdictCache::new(policy, Arc::clone(&clock))));
        let compiled = config
            .compiled
            .clone()
            .map(|store| Arc::new(CompiledBackend::new(store, config.policy, clock)));
        let auth = Arc::new(AuthCache::new());
        let (job_tx, job_rx) = channel::bounded::<Job>(config.queue_capacity.max(1));

        let udp_handle = std::thread::Builder::new().name("svc-udp".into()).spawn({
            let socket = Arc::clone(&socket);
            let job_tx = job_tx.clone();
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            move || udp_listen_loop(socket, job_tx, counters, shutdown)
        })?;
        let tcp = AcceptLoop::spawn("svc-tcp", listener, {
            let job_tx = job_tx.clone();
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            move |stream, _| {
                let tx = job_tx.clone();
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name("svc-tcp-conn".into())
                    .spawn(move || {
                        let _ = tcp_connection_loop(stream, tx, counters, shutdown);
                    })
                    .ok()
            }
        })?;

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let handle = std::thread::Builder::new()
                .name(format!("svc-worker-{i}"))
                .spawn({
                    let job_rx = job_rx.clone();
                    let resolver = Arc::clone(&resolver);
                    let cache = cache.clone();
                    let compiled = compiled.clone();
                    let auth = Arc::clone(&auth);
                    let counters = Arc::clone(&counters);
                    let latency = Arc::clone(&latency);
                    let policy = config.policy;
                    move || {
                        worker_loop(
                            job_rx, resolver, policy, cache, compiled, auth, counters, latency,
                        )
                    }
                })?;
            workers.push(handle);
        }
        drop(job_rx);

        Ok(VerdictService {
            addr,
            shutdown,
            counters,
            latency,
            cache,
            compiled,
            auth,
            udp_handle: Some(udp_handle),
            tcp: Some(tcp),
            workers,
            job_tx: Some(job_tx),
        })
    }

    /// The bound address (same port for UDP and TCP).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the counters, cache stats, and latency distribution.
    pub fn telemetry(&self) -> ServiceTelemetry {
        ServiceTelemetry {
            served: self.counters.served.load(Ordering::Relaxed),
            stacked_served: self.counters.stacked_served.load(Ordering::Relaxed),
            udp_frames: self.counters.udp_frames.load(Ordering::Relaxed),
            tcp_frames: self.counters.tcp_frames.load(Ordering::Relaxed),
            overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            bad_frames: self.counters.bad_frames.load(Ordering::Relaxed),
            shutdown_rejects: self.counters.shutdown_rejects.load(Ordering::Relaxed),
            queue_depth: self.counters.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: self.counters.peak_queue_depth.load(Ordering::Relaxed),
            cache: self.cache.as_ref().map(|c| c.stats()),
            compiled: self.compiled.as_ref().map(|b| b.snapshot()),
            compiled_cache: self.compiled.as_ref().map(|b| b.store.stats()),
            auth_cache: self.auth.stats(),
            latency: self.latency.snapshot(),
        }
    }

    /// Per-stripe verdict-memo counters (`None` when uncached) — the
    /// shard-counter-sum test's window into the cache.
    pub fn cache_stripe_stats(&self) -> Option<Vec<TtlLruStats>> {
        self.cache.as_ref().map(|c| c.stripe_stats())
    }

    /// Stop accepting queries, drain every admitted job, and join all
    /// threads. Admitted queries are always answered; queries arriving
    /// during the drain get a typed `shutting-down` response. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.udp_handle.take() {
            let _ = h.join();
        }
        // Dropping the accept loop joins its connection threads, which
        // see the flag within one read timeout.
        self.tcp = None;
        // With the listeners (and their connection threads) joined, ours
        // is the last sender: dropping it lets workers finish the queue
        // and observe the disconnect.
        self.job_tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for VerdictService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
