//! The epoll wire engine: hundreds of in-flight queries on a handful of
//! sockets.
//!
//! The blocking [`crate::fleet::WireResolver`] dedicates one pooled
//! socket (and one parked worker thread) to every outstanding query — a
//! faithful model of a classic stub resolver, but four syscalls and two
//! context switches per answer. This module rebuilds the transport the
//! way the paper's measurement infrastructure actually ran: a single
//! reactor thread drives one nonblocking UDP socket per server shard,
//! keys hundreds of concurrent flights by DNS message id, batches
//! datagrams through `sendmmsg`/`recvmmsg`, and retires timeouts from a
//! hashed deadline wheel. Truncated replies fall back to nonblocking TCP
//! connections multiplexed on the same epoll instance.
//!
//! Everything *semantic* — the TTL cache, single-flight coalescing,
//! per-shard fault injection, and the [`WireSnapshot`] counter set —
//! lives in the shared [`crate::fleet`] core, so the async engine is
//! byte-identical to the blocking one under a zero-fault profile; the
//! façade's stress suites compare their report streams at scale.
//!
//! Worker threads keep the synchronous [`Resolver`] interface: a query
//! that has to touch the wire is submitted to the reactor over a channel
//! and the worker parks on its single-flight completion slot until the
//! reactor publishes the outcome. The reactor is woken from `epoll_wait`
//! by a loopback wake datagram, sent only when the submitter observes the
//! reactor's `sleeping` flag — the uncontended fast path is one channel
//! push with no syscall at all.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use nix::sys::epoll::{Epoll, EpollCreateFlags, EpollEvent, EpollFlags};
use nix::sys::socket::{recv_from_batch, send_to_batch, RecvSlot, SendPacket};
use parking_lot::Mutex;
use spf_types::DomainName;

use crate::clock::{Clock, SystemClock};
use crate::fleet::{
    QueryStart, ShardBehavior, WireClientConfig, WireCore, WireSnapshot, WireTelemetry,
};
use crate::record::{Question, RecordType, ResourceRecord};
use crate::resolver::{DnsError, Resolver};
use crate::wire::{self, Message, Rcode};

/// Epoll token of the reactor's wake socket.
const TOKEN_WAKE: u64 = 0;
/// Epoll tokens `TOKEN_SHARD_BASE + i` address shard `i`'s UDP socket.
const TOKEN_SHARD_BASE: u64 = 1;
/// Tokens at or above this address TCP fallback connections.
const TOKEN_TCP_BASE: u64 = 1 << 32;
/// Longest the reactor parks in `epoll_wait` regardless of deadlines — a
/// safety net bounding any lost wake-up race.
const MAX_PARK: Duration = Duration::from_millis(50);
/// Datagrams sent/received per `sendmmsg`/`recvmmsg` call.
const BATCH: usize = 64;
/// Receive buffer size per batched slot (matches the blocking engine's
/// stack buffer).
const RECV_BUF: usize = 4096;

/// One leader query handed from a worker thread to the reactor.
struct Submission {
    q: Question,
    shard: usize,
}

/// Flags shared between worker threads and the reactor thread.
struct ReactorShared {
    /// True while the reactor is (about to be) parked in `epoll_wait`;
    /// submitters only pay the wake-datagram syscall when they see it.
    sleeping: AtomicBool,
    /// Set by [`AsyncWireResolver::drop`]; the reactor drains and exits.
    shutdown: AtomicBool,
    /// Submissions that had to queue behind the in-flight cap or an
    /// exhausted id space before launching.
    deferrals: AtomicU64,
}

/// The live reactor: submission channel, wake route and join handle.
struct ReactorHandle {
    tx: Sender<Submission>,
    wake_tx: UdpSocket,
    wake_addr: SocketAddr,
    shared: Arc<ReactorShared>,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// The epoll-reactor wire engine behind the plain blocking [`Resolver`]
/// interface.
///
/// Construction is cheap and does not open sockets; the reactor thread
/// spawns lazily on the first query that has to touch the wire. Dropping
/// the resolver shuts the reactor down and joins it.
pub struct AsyncWireResolver {
    core: Arc<WireCore>,
    reactor: OnceLock<Result<ReactorHandle, String>>,
}

impl AsyncWireResolver {
    /// An engine routing to `servers` (shard `i` of the fleet at index
    /// `i`), on the system clock.
    ///
    /// # Panics
    /// Panics when `servers` is empty.
    pub fn new(servers: Vec<SocketAddr>, config: WireClientConfig) -> Self {
        Self::with_clock(servers, config, Arc::new(SystemClock::new()))
    }

    /// Like [`AsyncWireResolver::new`] with an explicit clock (cache TTLs
    /// and injected latency run on it; socket deadlines always run on
    /// real time, as they do for the blocking engine).
    pub fn with_clock(
        servers: Vec<SocketAddr>,
        config: WireClientConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        AsyncWireResolver {
            core: Arc::new(WireCore::new(servers, config, clock)),
            reactor: OnceLock::new(),
        }
    }

    /// Attach per-shard fault/latency behaviors (one entry per server, in
    /// routing order), exactly as
    /// [`crate::fleet::WireResolver::with_behaviors`].
    ///
    /// # Panics
    /// Panics when `behaviors.len()` differs from the server count, or
    /// when called after the engine has started resolving (the reactor
    /// holds a reference to the core from its first query on).
    pub fn with_behaviors(mut self, behaviors: Vec<ShardBehavior>, seed: u64) -> Self {
        Arc::get_mut(&mut self.core)
            .expect("with_behaviors must be called before the first query")
            .set_behaviors(behaviors, seed);
        self
    }

    /// Number of server shards this engine routes across.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The shard index `name` routes to.
    pub fn shard_of(&self, name: &DomainName) -> usize {
        self.core.shard_of(name)
    }

    /// Point-in-time copy of the engine's counters.
    pub fn snapshot(&self) -> WireSnapshot {
        self.core.snapshot()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.core.cache_len()
    }

    /// Drop every cached answer and reset the cache-epoch counters; see
    /// [`crate::fleet::WireResolver::clear_cache`] for the exact counter
    /// partition.
    pub fn clear_cache(&self) {
        self.core.clear_cache()
    }

    /// Submissions that queued behind the per-shard in-flight cap
    /// ([`WireClientConfig::max_inflight_per_shard`]) or an exhausted
    /// message-id space before being launched. Purely a backpressure
    /// gauge; deferred queries still complete normally.
    pub fn deferrals(&self) -> u64 {
        match self.reactor.get() {
            Some(Ok(h)) => h.shared.deferrals.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    fn handle(&self) -> Result<&ReactorHandle, DnsError> {
        self.reactor
            .get_or_init(|| spawn_reactor(Arc::clone(&self.core)))
            .as_ref()
            .map_err(|e| DnsError::Network(format!("reactor: {e}")))
    }
}

impl Resolver for AsyncWireResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let q = Question::new(name.clone(), rtype);
        match self.core.begin(&q) {
            QueryStart::Cached(result) => result,
            QueryStart::Join(flight) => flight.wait(),
            QueryStart::Lead(flight) => {
                let shard = self.core.shard_of(name);
                // Fault injection happens on the submitting thread (it
                // may sleep on the virtual clock), exactly as the
                // blocking leader does.
                if let Some(outcome) = self.core.try_injected(shard) {
                    return self.core.finish(&q, outcome);
                }
                let handle = match self.handle() {
                    Ok(h) => h,
                    Err(e) => return self.core.finish(&q, Err(e)),
                };
                let sub = Submission {
                    q: q.clone(),
                    shard,
                };
                if handle.tx.send(sub).is_err() {
                    let err = DnsError::Network("reactor unavailable".into());
                    return self.core.finish(&q, Err(err));
                }
                if handle.shared.sleeping.load(Ordering::SeqCst) {
                    let _ = handle.wake_tx.send_to(b"w", handle.wake_addr);
                }
                flight.wait()
            }
        }
    }
}

impl WireTelemetry for AsyncWireResolver {
    fn snapshot(&self) -> WireSnapshot {
        AsyncWireResolver::snapshot(self)
    }

    fn clear_cache(&self) {
        AsyncWireResolver::clear_cache(self)
    }

    fn cache_len(&self) -> usize {
        AsyncWireResolver::cache_len(self)
    }

    fn shard_count(&self) -> usize {
        AsyncWireResolver::shard_count(self)
    }
}

impl Drop for AsyncWireResolver {
    fn drop(&mut self) {
        if let Some(Ok(h)) = self.reactor.get() {
            h.shared.shutdown.store(true, Ordering::SeqCst);
            let _ = h.wake_tx.send_to(b"w", h.wake_addr);
            if let Some(join) = h.join.lock().take() {
                let _ = join.join();
            }
        }
    }
}

fn spawn_reactor(core: Arc<WireCore>) -> Result<ReactorHandle, String> {
    let err = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let wake_rx = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| err("wake bind", e))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(|e| err("wake nonblocking", e))?;
    let wake_addr = wake_rx.local_addr().map_err(|e| err("wake addr", e))?;
    let wake_tx = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| err("wake tx bind", e))?;
    let epoll = Epoll::new(EpollCreateFlags::EPOLL_CLOEXEC).map_err(|e| err("epoll", e))?;
    epoll
        .add(&wake_rx, EpollEvent::new(EpollFlags::EPOLLIN, TOKEN_WAKE))
        .map_err(|e| err("wake register", e))?;
    let mut shards = Vec::with_capacity(core.servers.len());
    for (i, server) in core.servers.iter().enumerate() {
        let server = match server {
            SocketAddr::V4(a) => *a,
            SocketAddr::V6(a) => return Err(format!("IPv6 server unsupported: {a}")),
        };
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| err("shard bind", e))?;
        socket
            .set_nonblocking(true)
            .map_err(|e| err("shard nonblocking", e))?;
        epoll
            .add(
                &socket,
                EpollEvent::new(EpollFlags::EPOLLIN, TOKEN_SHARD_BASE + i as u64),
            )
            .map_err(|e| err("shard register", e))?;
        shards.push(ShardState::new(server, socket));
    }
    let (tx, rx) = channel::unbounded();
    let shared = Arc::new(ReactorShared {
        sleeping: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        deferrals: AtomicU64::new(0),
    });
    let reactor = Reactor {
        core,
        epoll,
        wake_rx,
        rx,
        shared: Arc::clone(&shared),
        shards,
        wheel: DeadlineWheel::new(),
        tcp_ops: HashMap::new(),
        next_tcp_token: TOKEN_TCP_BASE,
        next_seq: 0,
        recv_slots: (0..BATCH).map(|_| RecvSlot::new(RECV_BUF)).collect(),
    };
    let join = std::thread::Builder::new()
        .name("wire-reactor".into())
        .spawn(move || reactor.run())
        .map_err(|e| err("spawn", e))?;
    Ok(ReactorHandle {
        tx,
        wake_tx,
        wake_addr,
        shared,
        join: Mutex::new(Some(join)),
    })
}

/// Whether an in-flight query is waiting on UDP or on a TCP fallback.
enum FlightState {
    Udp,
    Tcp(u64),
}

/// One query owned by the reactor, keyed by DNS message id within its
/// shard.
struct Inflight {
    q: Question,
    /// The encoded query datagram, kept for retries.
    bytes: Vec<u8>,
    /// UDP attempts remaining after the one currently in flight.
    attempts_left: u32,
    /// Monotonic stamp validating deadline-wheel entries: every re-arm
    /// bumps it, so stale wheel entries from earlier attempts are inert.
    seq: u64,
    state: FlightState,
}

/// Per-shard reactor state: one nonblocking socket, the in-flight table,
/// the message-id allocator and the backpressure queue.
struct ShardState {
    server: SocketAddrV4,
    socket: UdpSocket,
    inflight: HashMap<u16, Inflight>,
    /// Ids returned by completed queries, reused FIFO so a freed id rests
    /// as long as possible before reuse (late duplicate replies for it
    /// go stale in the meantime).
    free_ids: VecDeque<u16>,
    /// Next never-used id (1..=0xFFFF); the free list takes over once
    /// the space has been toured.
    next_fresh: u32,
    /// Submissions waiting for capacity or an id.
    pending: VecDeque<Submission>,
    /// Encoded datagrams awaiting the next `sendmmsg` flush.
    sendq: VecDeque<(u16, Vec<u8>)>,
    /// True while EPOLLOUT interest is registered (kernel buffer was
    /// full at the last flush).
    wants_writable: bool,
}

impl ShardState {
    fn new(server: SocketAddrV4, socket: UdpSocket) -> Self {
        ShardState {
            server,
            socket,
            inflight: HashMap::new(),
            free_ids: VecDeque::new(),
            next_fresh: 1,
            pending: VecDeque::new(),
            sendq: VecDeque::new(),
            wants_writable: false,
        }
    }

    fn alloc_id(&mut self) -> Option<u16> {
        if self.next_fresh <= 0xFFFF {
            let id = self.next_fresh as u16;
            self.next_fresh += 1;
            return Some(id);
        }
        self.free_ids.pop_front()
    }
}

/// A TCP fallback in progress: write the length-prefixed query, read the
/// length-prefixed response, all nonblocking on the reactor's epoll.
struct TcpOp {
    shard: usize,
    id: u16,
    stream: TcpStream,
    state: TcpState,
}

enum TcpState {
    Writing { buf: Vec<u8>, off: usize },
    ReadingLen { buf: [u8; 2], off: usize },
    ReadingBody { buf: Vec<u8>, off: usize },
}

/// What a TCP state-machine step decided.
enum TcpStep {
    /// Would block; wait for the next readiness event.
    Pending,
    /// Writing finished; switch epoll interest to EPOLLIN.
    SwitchToRead,
    /// The fallback produced the query's final outcome.
    Done(Result<Vec<ResourceRecord>, DnsError>),
}

struct Reactor {
    core: Arc<WireCore>,
    epoll: Epoll,
    wake_rx: UdpSocket,
    rx: Receiver<Submission>,
    shared: Arc<ReactorShared>,
    shards: Vec<ShardState>,
    wheel: DeadlineWheel,
    tcp_ops: HashMap<u64, TcpOp>,
    next_tcp_token: u64,
    next_seq: u64,
    recv_slots: Vec<RecvSlot>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = [EpollEvent::empty(); BATCH];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_shutdown();
                return;
            }
            let mut admitted = false;
            while let Ok(sub) = self.rx.try_recv() {
                self.admit(sub);
                admitted = true;
            }
            let now = Instant::now();
            for entry in self.wheel.expire(now) {
                self.on_deadline(entry);
            }
            for i in 0..self.shards.len() {
                self.flush_shard(i);
            }
            let timeout = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(MAX_PARK)
                .min(MAX_PARK);
            // Wake-race closure: declare we are going to sleep, then
            // re-drain the channel. A submitter that enqueued before this
            // drain is picked up here; one that enqueues after it reads
            // `sleeping == true` and sends a wake datagram epoll will see.
            self.shared.sleeping.store(true, Ordering::SeqCst);
            let mut late = false;
            while let Ok(sub) = self.rx.try_recv() {
                self.admit(sub);
                late = true;
            }
            let timeout_ms = if late || admitted {
                0
            } else {
                timeout.as_millis() as i32
            };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
                Err(_) => 0,
            };
            self.shared.sleeping.store(false, Ordering::SeqCst);
            for ev in events.iter().take(n) {
                match ev.data() {
                    TOKEN_WAKE => self.drain_wake(),
                    t if t >= TOKEN_TCP_BASE => self.on_tcp_event(t),
                    t => self.on_udp_readable((t - TOKEN_SHARD_BASE) as usize),
                }
            }
        }
    }

    /// Launch `sub` now, or queue it when the shard is at its in-flight
    /// cap or out of message ids.
    fn admit(&mut self, sub: Submission) {
        let shard = sub.shard;
        let state = &mut self.shards[shard];
        if state.inflight.len() >= self.core.config.max_inflight_per_shard {
            self.shared.deferrals.fetch_add(1, Ordering::Relaxed);
            state.pending.push_back(sub);
            return;
        }
        match state.alloc_id() {
            Some(id) => self.launch(shard, id, sub),
            None => {
                self.shared.deferrals.fetch_add(1, Ordering::Relaxed);
                state.pending.push_back(sub);
            }
        }
    }

    fn launch(&mut self, shard: usize, id: u16, sub: Submission) {
        let msg = Message::query(id, sub.q.clone());
        let bytes = match wire::encode(&msg) {
            Ok(b) => b,
            Err(e) => {
                self.shards[shard].free_ids.push_back(id);
                let _ = self
                    .core
                    .finish(&sub.q, Err(DnsError::Network(e.to_string())));
                return;
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let attempts = self.core.config.attempts.max(1) as u32;
        self.shards[shard].inflight.insert(
            id,
            Inflight {
                q: sub.q,
                bytes: bytes.clone(),
                attempts_left: attempts - 1,
                seq,
                state: FlightState::Udp,
            },
        );
        self.core
            .counters
            .wire_queries
            .fetch_add(1, Ordering::Relaxed);
        self.shards[shard].sendq.push_back((id, bytes));
        self.wheel
            .insert(Instant::now() + self.core.config.timeout, shard, id, seq);
    }

    /// Push the shard's queued datagrams to the kernel in `sendmmsg`
    /// batches, keeping EPOLLOUT interest only while the buffer is full.
    fn flush_shard(&mut self, shard: usize) {
        let state = &mut self.shards[shard];
        while !state.sendq.is_empty() {
            let batch: Vec<&(u16, Vec<u8>)> = state.sendq.iter().take(BATCH).collect();
            let pkts: Vec<SendPacket<'_>> = batch
                .iter()
                .map(|(_, bytes)| SendPacket {
                    data: bytes,
                    to: state.server,
                })
                .collect();
            match send_to_batch(&state.socket, &pkts, true) {
                Ok(sent) => {
                    drop(pkts);
                    drop(batch);
                    for _ in 0..sent {
                        state.sendq.pop_front();
                    }
                    if sent == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    drop(pkts);
                    drop(batch);
                    if !state.wants_writable {
                        state.wants_writable = true;
                        let _ = self.epoll.modify(
                            &state.socket,
                            EpollEvent::new(
                                EpollFlags::EPOLLIN | EpollFlags::EPOLLOUT,
                                TOKEN_SHARD_BASE + shard as u64,
                            ),
                        );
                    }
                    return;
                }
                Err(_) => {
                    // Socket-level send failure: drop the datagram; the
                    // deadline wheel will retry or time the query out,
                    // the same surface a lost packet presents.
                    drop(pkts);
                    drop(batch);
                    state.sendq.pop_front();
                }
            }
        }
        if state.wants_writable {
            state.wants_writable = false;
            let _ = self.epoll.modify(
                &state.socket,
                EpollEvent::new(EpollFlags::EPOLLIN, TOKEN_SHARD_BASE + shard as u64),
            );
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while let Ok((_, _)) = self.wake_rx.recv_from(&mut buf) {}
    }

    /// Drain the shard socket in `recvmmsg` batches and route each
    /// datagram to its in-flight query by message id. Strays, garbled
    /// packets, and duplicate or late replies are discarded — same rules
    /// as the blocking engine's receive loop.
    fn on_udp_readable(&mut self, shard: usize) {
        loop {
            let state = &mut self.shards[shard];
            let n = match recv_from_batch(&state.socket, &mut self.recv_slots, true) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) => break, // WouldBlock or transient socket error
            };
            let server = state.server;
            for i in 0..n {
                if self.recv_slots[i].peer != Some(server) {
                    continue; // stray packet
                }
                let resp = match wire::decode(self.recv_slots[i].payload()) {
                    Ok(m) => m,
                    Err(_) => continue, // garbled
                };
                if !resp.header.is_response {
                    continue;
                }
                let id = resp.header.id;
                let entry = match self.shards[shard].inflight.get(&id) {
                    Some(e) => e,
                    None => continue, // late or duplicate reply
                };
                if matches!(entry.state, FlightState::Tcp(_)) {
                    continue; // duplicate UDP reply after TCP fallback began
                }
                if resp.header.truncated {
                    self.core
                        .counters
                        .tcp_fallbacks
                        .fetch_add(1, Ordering::Relaxed);
                    self.start_tcp(shard, id);
                } else {
                    let outcome = match resp.header.rcode {
                        Rcode::NoError => Ok(resp.answers),
                        Rcode::NxDomain => Err(DnsError::NxDomain),
                        Rcode::ServFail => Err(DnsError::ServFail),
                        Rcode::Refused => Err(DnsError::Refused),
                        other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
                    };
                    self.complete(shard, id, outcome);
                }
            }
            if n < self.recv_slots.len() {
                break; // drained the queue
            }
        }
    }

    /// Begin a nonblocking TCP fallback for the truncated query
    /// `(shard, id)`. The message id stays reserved until the fallback
    /// completes, so a late duplicate UDP reply cannot be misattributed.
    fn start_tcp(&mut self, shard: usize, id: u16) {
        let server = SocketAddr::V4(self.shards[shard].server);
        // Loopback connects complete synchronously in-kernel; the
        // nonblocking part that matters is the write/read exchange.
        let stream = match TcpStream::connect(server).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        }) {
            Ok(s) => s,
            Err(e) => {
                self.complete(shard, id, Err(DnsError::Network(format!("tcp: {e}"))));
                return;
            }
        };
        let entry = self.shards[shard]
            .inflight
            .get_mut(&id)
            .expect("truncated reply matched in-flight entry");
        let mut buf = Vec::with_capacity(entry.bytes.len() + 2);
        buf.extend_from_slice(&(entry.bytes.len() as u16).to_be_bytes());
        buf.extend_from_slice(&entry.bytes);
        let token = self.next_tcp_token;
        self.next_tcp_token += 1;
        if let Err(e) = self
            .epoll
            .add(&stream, EpollEvent::new(EpollFlags::EPOLLOUT, token))
        {
            self.complete(shard, id, Err(DnsError::Network(format!("tcp: {e}"))));
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.state = FlightState::Tcp(token);
        entry.seq = seq;
        // Mirror the blocking tcp_query's read-timeout floor.
        let deadline = Instant::now() + self.core.config.timeout.max(Duration::from_millis(250));
        self.wheel.insert(deadline, shard, id, seq);
        self.tcp_ops.insert(
            token,
            TcpOp {
                shard,
                id,
                stream,
                state: TcpState::Writing { buf, off: 0 },
            },
        );
    }

    fn on_tcp_event(&mut self, token: u64) {
        let op = match self.tcp_ops.get_mut(&token) {
            Some(op) => op,
            None => return, // already retired (e.g. by a deadline)
        };
        match step_tcp(op) {
            TcpStep::Pending => {}
            TcpStep::SwitchToRead => {
                let _ = self
                    .epoll
                    .modify(&op.stream, EpollEvent::new(EpollFlags::EPOLLIN, token));
                // The response may already be readable; poll once more.
                self.on_tcp_event(token);
            }
            TcpStep::Done(outcome) => {
                let op = self.tcp_ops.remove(&token).expect("op present");
                // Dropping the stream closes the fd, which also removes
                // it from the epoll interest set.
                let (shard, id) = (op.shard, op.id);
                drop(op);
                self.complete(shard, id, outcome);
            }
        }
    }

    /// A deadline fired. Stale entries (the query completed or re-armed
    /// since) are recognized by their `seq` stamp and ignored.
    fn on_deadline(&mut self, entry: WheelEntry) {
        let shard = entry.shard;
        let state = match self.shards[shard].inflight.get_mut(&entry.id) {
            Some(e) if e.seq == entry.seq => e,
            _ => return,
        };
        match state.state {
            FlightState::Udp => {
                if state.attempts_left > 0 {
                    state.attempts_left -= 1;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    state.seq = seq;
                    let bytes = state.bytes.clone();
                    self.core.counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.core
                        .counters
                        .wire_queries
                        .fetch_add(1, Ordering::Relaxed);
                    self.shards[shard].sendq.push_back((entry.id, bytes));
                    self.wheel.insert(
                        Instant::now() + self.core.config.timeout,
                        shard,
                        entry.id,
                        seq,
                    );
                } else {
                    self.core
                        .counters
                        .temp_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.complete(shard, entry.id, Err(DnsError::Timeout));
                }
            }
            FlightState::Tcp(token) => {
                self.tcp_ops.remove(&token);
                self.core
                    .counters
                    .temp_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.complete(shard, entry.id, Err(DnsError::Timeout));
            }
        }
    }

    /// Publish a query's outcome through the shared core, recycle its
    /// message id, and pull queued submissions into the freed capacity.
    fn complete(&mut self, shard: usize, id: u16, outcome: Result<Vec<ResourceRecord>, DnsError>) {
        let entry = match self.shards[shard].inflight.remove(&id) {
            Some(e) => e,
            None => return,
        };
        self.shards[shard].free_ids.push_back(id);
        let _ = self.core.finish(&entry.q, outcome);
        // Promote deferred submissions into the freed slot.
        while self.shards[shard].inflight.len() < self.core.config.max_inflight_per_shard {
            let sub = match self.shards[shard].pending.pop_front() {
                Some(s) => s,
                None => break,
            };
            match self.shards[shard].alloc_id() {
                Some(id) => self.launch(shard, id, sub),
                None => {
                    self.shards[shard].pending.push_front(sub);
                    break;
                }
            }
        }
    }

    /// Complete everything still owed before the reactor thread exits,
    /// so no worker is left parked on a flight.
    fn drain_shutdown(&mut self) {
        let err = || Err(DnsError::Network("wire reactor shut down".into()));
        for shard in &mut self.shards {
            for (_, entry) in shard.inflight.drain() {
                let _ = self.core.finish(&entry.q, err());
            }
            for sub in shard.pending.drain(..) {
                let _ = self.core.finish(&sub.q, err());
            }
        }
        while let Ok(sub) = self.rx.try_recv() {
            let _ = self.core.finish(&sub.q, err());
        }
    }
}

/// Drive a TCP fallback as far as the socket allows without blocking.
fn step_tcp(op: &mut TcpOp) -> TcpStep {
    let fail = |e: std::io::Error| TcpStep::Done(Err(DnsError::Network(format!("tcp: {e}"))));
    loop {
        match &mut op.state {
            TcpState::Writing { buf, off } => {
                while *off < buf.len() {
                    match op.stream.write(&buf[*off..]) {
                        Ok(0) => {
                            return TcpStep::Done(Err(DnsError::Network(
                                "tcp: connection closed".into(),
                            )))
                        }
                        Ok(n) => *off += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return TcpStep::Pending
                        }
                        Err(e) => return fail(e),
                    }
                }
                let _ = op.stream.flush();
                op.state = TcpState::ReadingLen {
                    buf: [0u8; 2],
                    off: 0,
                };
                return TcpStep::SwitchToRead;
            }
            TcpState::ReadingLen { buf, off } => {
                while *off < 2 {
                    match op.stream.read(&mut buf[*off..]) {
                        Ok(0) => {
                            return TcpStep::Done(Err(DnsError::Network(
                                "tcp: connection closed".into(),
                            )))
                        }
                        Ok(n) => *off += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return TcpStep::Pending
                        }
                        Err(e) => return fail(e),
                    }
                }
                let len = u16::from_be_bytes(*buf) as usize;
                op.state = TcpState::ReadingBody {
                    buf: vec![0u8; len],
                    off: 0,
                };
            }
            TcpState::ReadingBody { buf, off } => {
                while *off < buf.len() {
                    match op.stream.read(&mut buf[*off..]) {
                        Ok(0) => {
                            return TcpStep::Done(Err(DnsError::Network(
                                "tcp: connection closed".into(),
                            )))
                        }
                        Ok(n) => *off += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return TcpStep::Pending
                        }
                        Err(e) => return fail(e),
                    }
                }
                let resp = match wire::decode(buf) {
                    Ok(m) => m,
                    Err(e) => return TcpStep::Done(Err(DnsError::Network(e.to_string()))),
                };
                if resp.header.id != op.id || !resp.header.is_response {
                    return TcpStep::Done(Err(DnsError::Network("mismatched TCP response".into())));
                }
                return TcpStep::Done(match resp.header.rcode {
                    Rcode::NoError => Ok(resp.answers),
                    Rcode::NxDomain => Err(DnsError::NxDomain),
                    Rcode::ServFail => Err(DnsError::ServFail),
                    Rcode::Refused => Err(DnsError::Refused),
                    other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
                });
            }
        }
    }
}

/// One armed deadline: `(shard, id)` addresses the in-flight query, `seq`
/// validates that the query has not completed or re-armed since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WheelEntry {
    pub(crate) deadline: Instant,
    pub(crate) shard: usize,
    pub(crate) id: u16,
    pub(crate) seq: u64,
}

/// A hashed timer wheel: 256 slots of [`WheelEntry`]s, 4ms per slot.
///
/// Insertion hashes the deadline into a slot; expiry sweeps only the
/// slots the cursor passed since the last sweep and extracts entries
/// whose deadline has arrived, leaving wrapped-around (not yet due)
/// entries in place for a later tour. Entries are never lost: every
/// inserted entry is returned by exactly one [`DeadlineWheel::expire`]
/// call whose `now` is at or past its deadline.
pub(crate) struct DeadlineWheel {
    slots: Vec<Vec<WheelEntry>>,
    created: Instant,
    /// Absolute tick (created-relative) up to which slots are swept.
    swept_tick: u64,
    len: usize,
}

/// Wheel tick width.
const WHEEL_TICK: Duration = Duration::from_millis(4);
/// Number of wheel slots; `slots × tick = 1.024s` per tour.
const WHEEL_SLOTS: usize = 256;

impl DeadlineWheel {
    pub(crate) fn new() -> Self {
        DeadlineWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            created: Instant::now(),
            swept_tick: 0,
            len: 0,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.created).as_micros() / WHEEL_TICK.as_micros()) as u64
    }

    /// Arm a deadline for `(shard, id, seq)`.
    pub(crate) fn insert(&mut self, deadline: Instant, shard: usize, id: u16, seq: u64) {
        let slot = (self.tick_of(deadline) % WHEEL_SLOTS as u64) as usize;
        self.slots[slot].push(WheelEntry {
            deadline,
            shard,
            id,
            seq,
        });
        self.len += 1;
    }

    /// Number of armed entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Extract every entry whose deadline is at or before `now`.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<WheelEntry> {
        let mut due = Vec::new();
        if self.len == 0 {
            self.swept_tick = self.tick_of(now);
            return due;
        }
        let target = self.tick_of(now);
        // Sweep at most one full tour; beyond that the slots repeat.
        let span = (target.saturating_sub(self.swept_tick)).min(WHEEL_SLOTS as u64 - 1);
        for tick in self.swept_tick..=self.swept_tick + span {
            let slot = (tick % WHEEL_SLOTS as u64) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline <= now {
                    due.push(entries.swap_remove(i));
                } else {
                    i += 1; // wrapped entry from a later tour
                }
            }
        }
        self.swept_tick = target;
        self.len -= due.len();
        due
    }

    /// The earliest armed deadline, if any (a full scan — the entry count
    /// is bounded by the in-flight caps).
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordData;
    use crate::udp::ServerConfig;
    use crate::zone::{ZoneFault, ZoneStore};
    use crate::WireFleet;

    use proptest::prelude::*;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn fast_config() -> WireClientConfig {
        WireClientConfig {
            timeout: Duration::from_millis(50),
            attempts: 2,
            ..WireClientConfig::default()
        }
    }

    fn seeded_store(n: usize) -> ZoneStore {
        let store = ZoneStore::new();
        for i in 0..n {
            store.add_txt(
                &dom(&format!("d{i}.example")),
                &format!("v=spf1 ip4:10.0.0.{} -all", i % 250),
            );
        }
        store
    }

    #[test]
    fn resolves_across_shards_with_matching_counters() {
        let store = seeded_store(40);
        let fleet = WireFleet::spawn(&store, 4, ServerConfig::default()).unwrap();
        let resolver = fleet.async_resolver(fast_config());
        for i in 0..40 {
            let name = dom(&format!("d{i}.example"));
            let rrs = resolver.query(&name, RecordType::Txt).unwrap();
            assert_eq!(rrs.len(), 1, "{name}");
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.queries, 40);
        assert_eq!(snap.wire_queries, 40);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(fleet.answered(), 40);
        // Cached repeats stay off the wire.
        for i in 0..40 {
            resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.cache_hits, 40);
        assert_eq!(snap.wire_queries, 40);
    }

    #[test]
    fn nxdomain_and_empty_flow_through() {
        let store = ZoneStore::new();
        store.add_a(
            &dom("a-only.example"),
            std::net::Ipv4Addr::new(192, 0, 2, 1),
        );
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        let resolver = fleet.async_resolver(fast_config());
        assert_eq!(
            resolver.query(&dom("missing.example"), RecordType::Txt),
            Err(DnsError::NxDomain)
        );
        assert_eq!(
            resolver.query(&dom("a-only.example"), RecordType::Txt),
            Ok(vec![])
        );
    }

    #[test]
    fn timeout_budget_degrades_with_blocking_engine_counters() {
        let store = ZoneStore::new();
        store.add_txt(&dom("dead.example"), "v=spf1 -all");
        store.set_fault(&dom("dead.example"), ZoneFault::Timeout);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet.async_resolver(WireClientConfig {
            timeout: Duration::from_millis(30),
            attempts: 3,
            ..WireClientConfig::default()
        });
        assert_eq!(
            resolver.query(&dom("dead.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
        let snap = resolver.snapshot();
        assert_eq!(snap.wire_queries, 3, "all attempts spent: {snap:?}");
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.temp_errors, 1);
        // Transient outcomes are never cached.
        assert_eq!(
            resolver.query(&dom("dead.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
        assert_eq!(resolver.snapshot().wire_queries, 6);
    }

    #[test]
    fn truncated_responses_fall_back_to_nonblocking_tcp() {
        let store = ZoneStore::new();
        let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(40) + "-all";
        store.add_txt(&dom("huge.example"), &long);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig { max_payload: 512 }).unwrap();
        let resolver = fleet.async_resolver(fast_config());
        let answers = resolver
            .query(&dom("huge.example"), RecordType::Txt)
            .unwrap();
        match &answers[0].data {
            RecordData::Txt(t) => assert_eq!(t.joined(), long),
            other => panic!("unexpected {other:?}"),
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.tcp_fallbacks, 1);
        assert_eq!(fleet.tcp_answered(), 1);
        // The fallback answer is cached like any positive answer.
        resolver
            .query(&dom("huge.example"), RecordType::Txt)
            .unwrap();
        assert_eq!(resolver.snapshot().cache_hits, 1);
        assert_eq!(fleet.tcp_answered(), 1);
    }

    #[test]
    fn concurrent_burst_coalesces_and_batches() {
        let store = seeded_store(64);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        let resolver = Arc::new(fleet.async_resolver(fast_config()));
        std::thread::scope(|scope| {
            for w in 0..8 {
                let resolver = Arc::clone(&resolver);
                scope.spawn(move || {
                    for i in 0..64 {
                        let name = dom(&format!("d{}.example", (i + w) % 64));
                        let rrs = resolver.query(&name, RecordType::Txt).unwrap();
                        assert_eq!(rrs.len(), 1);
                    }
                });
            }
        });
        let snap = resolver.snapshot();
        assert_eq!(snap.queries, 8 * 64);
        // Every query was served by cache, coalescing, or the wire.
        assert_eq!(
            snap.cache_hits + snap.coalesced + snap.wire_queries,
            8 * 64,
            "{snap:?}"
        );
        assert!(snap.wire_queries < 8 * 64, "bursts must collapse: {snap:?}");
    }

    #[test]
    fn tiny_inflight_cap_defers_but_completes_everything() {
        let store = seeded_store(48);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = Arc::new(fleet.async_resolver(WireClientConfig {
            max_inflight_per_shard: 2,
            ..fast_config()
        }));
        std::thread::scope(|scope| {
            for w in 0..16 {
                let resolver = Arc::clone(&resolver);
                scope.spawn(move || {
                    for i in 0..3 {
                        let name = dom(&format!("d{}.example", w * 3 + i));
                        let rrs = resolver.query(&name, RecordType::Txt).unwrap();
                        assert_eq!(rrs.len(), 1, "{name}");
                    }
                });
            }
        });
        let snap = resolver.snapshot();
        assert_eq!(snap.queries, 48);
        assert_eq!(snap.temp_errors, 0, "{snap:?}");
        assert!(
            resolver.deferrals() > 0,
            "a 2-deep cap under a 16-thread burst must defer submissions"
        );
    }

    #[test]
    fn injected_faults_and_clear_cache_match_blocking_semantics() {
        let store = seeded_store(8);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet
            .async_resolver(fast_config())
            .with_behaviors(vec![ShardBehavior::none()], 7);
        for i in 0..8 {
            resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
        }
        for i in 0..8 {
            resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
        }
        let snap = resolver.snapshot();
        assert_eq!((snap.queries, snap.cache_hits), (16, 8));
        resolver.clear_cache();
        let snap = resolver.snapshot();
        assert_eq!((snap.queries, snap.cache_hits), (0, 0));
        assert_eq!(snap.wire_queries, 8, "lifetime counters survive the clear");
    }

    #[test]
    fn wheel_expires_in_deadline_order_within_resolution() {
        let mut wheel = DeadlineWheel::new();
        let base = Instant::now();
        for i in 0..10u64 {
            wheel.insert(base + Duration::from_millis(10 * (i + 1)), 0, i as u16, i);
        }
        assert_eq!(wheel.len(), 10);
        // Nothing due yet.
        assert!(wheel.expire(base).is_empty());
        // Half due.
        let due = wheel.expire(base + Duration::from_millis(50));
        let mut ids: Vec<u16> = due.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // The rest.
        let due = wheel.expire(base + Duration::from_millis(100));
        assert_eq!(due.len(), 5);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn wheel_handles_wrap_around_deadlines() {
        let mut wheel = DeadlineWheel::new();
        let base = Instant::now();
        // Far beyond one tour (256 slots × 4ms ≈ 1.02s).
        wheel.insert(base + Duration::from_millis(2500), 3, 42, 7);
        // Sweeping a full tour early must not surface it.
        assert!(wheel.expire(base + Duration::from_millis(1200)).is_empty());
        assert_eq!(wheel.len(), 1);
        let due = wheel.expire(base + Duration::from_millis(2600));
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].shard, due[0].id, due[0].seq), (3, 42, 7));
    }

    proptest! {
        /// No entry is lost, none fires early, and every entry fires by
        /// the first sweep at or past its deadline — under arbitrary
        /// interleavings of inserts and sweeps.
        #[test]
        fn wheel_never_loses_or_rushes_entries(
            ops in proptest::collection::vec((0u64..3000, 0u64..3000), 1..60)
        ) {
            let mut wheel = DeadlineWheel::new();
            let base = Instant::now();
            let mut now_ms = 0u64;
            let mut armed: Vec<(u64, u64)> = Vec::new(); // (deadline_ms, seq)
            let mut fired: Vec<u64> = Vec::new();
            for (seq, (deadline_ms, advance_ms)) in ops.iter().enumerate() {
                let deadline_ms = now_ms + deadline_ms;
                wheel.insert(base + Duration::from_millis(deadline_ms), 0, 0, seq as u64);
                armed.push((deadline_ms, seq as u64));
                now_ms += advance_ms;
                for e in wheel.expire(base + Duration::from_millis(now_ms)) {
                    let (dl, _) = armed.iter().find(|(_, s)| *s == e.seq)
                        .expect("fired entry was armed");
                    prop_assert!(*dl <= now_ms, "fired {}ms before its deadline", dl - now_ms);
                    prop_assert!(!fired.contains(&e.seq), "entry fired twice");
                    fired.push(e.seq);
                }
            }
            // Final sweep far past every deadline drains the wheel.
            now_ms += 10_000;
            for e in wheel.expire(base + Duration::from_millis(now_ms)) {
                prop_assert!(!fired.contains(&e.seq));
                fired.push(e.seq);
            }
            prop_assert_eq!(fired.len(), armed.len(), "every armed entry fired exactly once");
            prop_assert_eq!(wheel.len(), 0);
        }
    }
}
