//! The verdict service's load generator: one thread, one UDP socket.
//!
//! Open loop: query `i` is due at `start + i / rate` whatever the service
//! does, and its latency is measured from that due time, so a stall
//! also charges the queries queued behind it. Closed loop: at most
//! `window` queries are outstanding; the next is sent when one returns.
//! Between sends the thread sleeps in `ppoll` on the socket, which wakes
//! it when a response arrives or the next query is due; it never spins.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

use spf_service::proto::{decode_datagram, encode_frame};
use spf_service::{Frame, QueryFrame, QuerySpec, ResponseFrame, Status};

/// How long after the last send an unanswered query counts as lost.
const LOSS_TIMEOUT: Duration = Duration::from_millis(200);
/// Open-loop sends start this long after the schedule is built.
const LEAD_IN: Duration = Duration::from_millis(2);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Sleep until `socket` is readable or `timeout` passes.
fn wait_readable(socket: &UdpSocket, timeout: Duration) {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec`; nfds is 1,
    // and a null sigmask leaves the signal mask unchanged. An error
    // return (EINTR) only ends this wait early, which the callers
    // tolerate by re-checking the clock.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Shrink this thread's timer slack to 1 ns so timed wake-ups are not
/// deferred by the kernel's default 50 µs, which would show up as
/// generator lateness.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack; the call has no memory
    // effects. Failure leaves the default slack, which the measured
    // lateness would then show.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Queries sent.
    pub sent: u64,
    /// Answered with status ok.
    pub ok: u64,
    /// Answered `Overloaded`.
    pub overloaded: u64,
    /// Failed sends, other non-ok statuses, undecodable or unmatched
    /// responses.
    pub errors: u64,
    /// Never answered within the loss timeout.
    pub lost: u64,
    /// Per-query latency of ok answers, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Open loop: how late each send left against its schedule.
    pub late_ns: Vec<u64>,
    /// Time spent in `encode_frame` and `decode_datagram`.
    pub codec_ns: u64,
    /// First send to last answer (or loss timeout).
    pub elapsed: Duration,
    /// Responses kept for the correctness sample, by plan index.
    pub kept: HashMap<usize, ResponseFrame>,
}

impl Phase {
    /// Queries that did not come back ok.
    pub fn failed(&self) -> u64 {
        self.lost + self.overloaded + self.errors
    }
}

struct Exchange<'a> {
    socket: UdpSocket,
    frames: Vec<Vec<u8>>,
    answered: Vec<bool>,
    keep: &'a dyn Fn(usize) -> bool,
    phase: Phase,
    received: u64,
}

impl<'a> Exchange<'a> {
    fn new(
        addr: SocketAddr,
        plan: &[QuerySpec],
        keep: &'a dyn Fn(usize) -> bool,
    ) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(addr)?;
        socket.set_nonblocking(true)?;
        let mut phase = Phase::default();
        let encode_started = Instant::now();
        let frames = plan
            .iter()
            .enumerate()
            .map(|(i, q)| {
                encode_frame(&Frame::Query(QueryFrame {
                    id: i as u64,
                    ip: q.ip,
                    domain: q.domain.clone(),
                    sender_local: q.sender_local.clone(),
                    stack: q.stack,
                }))
            })
            .collect();
        phase.codec_ns = encode_started.elapsed().as_nanos() as u64;
        Ok(Exchange {
            socket,
            frames,
            answered: vec![false; plan.len()],
            keep,
            phase,
            received: 0,
        })
    }

    fn send(&mut self, i: usize) {
        self.phase.sent += 1;
        if self.socket.send(&self.frames[i]).is_err() {
            self.phase.errors += 1;
            self.answered[i] = true;
            self.received += 1;
        }
    }

    /// Read every waiting datagram; `sent_at(i)` is query `i`'s latency
    /// origin. Returns how many plan queries were answered.
    fn drain(&mut self, sent_at: &dyn Fn(usize) -> Instant) -> usize {
        let mut buf = [0u8; 1 << 16];
        let mut answered = 0;
        loop {
            let len = match self.socket.recv(&mut buf) {
                Ok(len) => len,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return answered,
                Err(_) => {
                    self.phase.errors += 1;
                    return answered;
                }
            };
            let arrived = Instant::now();
            let decoded = decode_datagram(&buf[..len]);
            self.phase.codec_ns += arrived.elapsed().as_nanos() as u64;
            let Ok(Frame::Response(response)) = decoded else {
                self.phase.errors += 1;
                continue;
            };
            let Some(i) = usize::try_from(response.id)
                .ok()
                .filter(|&i| i < self.answered.len() && !self.answered[i])
            else {
                self.phase.errors += 1;
                continue;
            };
            self.answered[i] = true;
            self.received += 1;
            answered += 1;
            match response.status {
                Status::Ok => {
                    self.phase.ok += 1;
                    let latency = arrived.saturating_duration_since(sent_at(i));
                    self.phase.latencies_ns.push(latency.as_nanos() as u64);
                }
                Status::Overloaded => self.phase.overloaded += 1,
                _ => self.phase.errors += 1,
            }
            if (self.keep)(i) {
                self.phase.kept.insert(i, response);
            }
        }
    }

    fn finish(mut self, started: Instant) -> Phase {
        self.phase.lost = self.phase.sent - self.received;
        self.phase.elapsed = started.elapsed();
        self.phase
    }
}

/// Send `plan` open-loop at `rate` queries per second.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[QuerySpec],
    rate: f64,
    keep: &dyn Fn(usize) -> bool,
) -> std::io::Result<Phase> {
    tighten_timer_slack();
    let mut exchange = Exchange::new(addr, plan, keep)?;
    let start = Instant::now() + LEAD_IN;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let due = |i: usize| start + interval.mul_f64(i as f64);
    let mut next = 0usize;
    let last_due = due(plan.len().saturating_sub(1));
    loop {
        let now = Instant::now();
        while next < plan.len() && due(next) <= now {
            let sent = Instant::now();
            exchange.send(next);
            exchange
                .phase
                .late_ns
                .push(sent.saturating_duration_since(due(next)).as_nanos() as u64);
            next += 1;
        }
        exchange.drain(&due);
        let now = Instant::now();
        if next == plan.len()
            && (exchange.received == exchange.phase.sent || now >= last_due + LOSS_TIMEOUT)
        {
            break;
        }
        let wake = if next < plan.len() {
            due(next)
        } else {
            last_due + LOSS_TIMEOUT
        };
        wait_readable(&exchange.socket, wake.saturating_duration_since(now));
    }
    Ok(exchange.finish(start))
}

/// Send `plan` closed-loop with at most `window` queries outstanding.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &[QuerySpec],
    window: usize,
    keep: &dyn Fn(usize) -> bool,
) -> std::io::Result<Phase> {
    let mut exchange = Exchange::new(addr, plan, keep)?;
    let mut sent_at = vec![Instant::now(); plan.len()];
    let started = Instant::now();
    let (mut next, mut abandoned) = (0usize, 0u64);
    let mut last_progress = started;
    loop {
        while next < plan.len()
            && exchange.phase.sent - exchange.received - abandoned < window as u64
        {
            sent_at[next] = Instant::now();
            exchange.send(next);
            next += 1;
        }
        if exchange.drain(&|i| sent_at[i]) > 0 {
            last_progress = Instant::now();
        }
        if exchange.phase.sent - exchange.received - abandoned == 0 {
            if next == plan.len() {
                break;
            }
            continue;
        }
        if last_progress.elapsed() >= LOSS_TIMEOUT {
            // Give up on what is outstanding; it counts as lost, and a
            // straggler arriving later counts as an unmatched response.
            for answered in &mut exchange.answered[..next] {
                if !*answered {
                    *answered = true;
                    abandoned += 1;
                }
            }
            last_progress = Instant::now();
            continue;
        }
        wait_readable(&exchange.socket, LOSS_TIMEOUT);
    }
    Ok(exchange.finish(started))
}
