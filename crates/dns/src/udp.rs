//! An authoritative name server (UDP + TCP) and a matching stub resolver.
//!
//! These put the RFC 1035 codec on real sockets: integration tests run the
//! complete crawl→parse→analyze pipeline against a [`UdpNameServer`] bound
//! to 127.0.0.1, demonstrating that the substrate is wire-compatible and
//! not a shortcut around the network. The server also listens on TCP
//! (RFC 7766, 2-byte length-prefixed messages) on the same port, and the
//! client falls back to TCP when a UDP response arrives truncated — the
//! path big provider records (websitewelcome-scale, dozens of blocks)
//! need under classic 512-byte payloads.

use std::io::{Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nix::sys::socket::{recv_from_batch, send_to_batch, RecvSlot, SendPacket};
use parking_lot::Mutex;
use spf_types::{AcceptLoop, DomainName};

use crate::record::{Question, RecordType, ResourceRecord};
use crate::resolver::{DnsError, Resolver};
use crate::wire::{self, Message, Rcode};
use crate::zone::{LookupOutcome, ZoneFault, ZoneStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest response payload before the server truncates (sets TC and
    /// empties the answer section). 1232 is the EDNS-era conventional safe
    /// size; set 512 to exercise classic truncation.
    pub max_payload: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_payload: 1232 }
    }
}

/// A running authoritative name server on a background thread.
///
/// The server answers from a shared [`ZoneStore`]; names with a
/// [`ZoneFault::Timeout`] fault are silently dropped so clients observe a
/// real timeout.
pub struct UdpNameServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Stopped (after the UDP thread) when the server drops.
    _tcp: AcceptLoop,
    answered: Arc<AtomicU64>,
    tcp_answered: Arc<AtomicU64>,
}

impl UdpNameServer {
    /// Bind to 127.0.0.1 on an ephemeral port and start serving.
    pub fn spawn(store: Arc<ZoneStore>, config: ServerConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(25)))?;
        let addr = socket.local_addr()?;
        // RFC 7766 companion listener on the same port, bound before the
        // UDP thread starts so a failed bind leaves no thread behind.
        let tcp_listener = TcpListener::bind(addr)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let thread_shutdown = Arc::clone(&shutdown);
        let thread_answered = Arc::clone(&answered);
        let udp_store = Arc::clone(&store);
        let udp_config = config.clone();
        let handle = std::thread::Builder::new()
            .name("udp-nameserver".into())
            .spawn(move || {
                serve_loop(
                    socket,
                    udp_store,
                    udp_config,
                    thread_shutdown,
                    thread_answered,
                );
            })?;
        // TCP responses are never truncated; connections are served
        // inline, one at a time.
        let tcp_answered = Arc::new(AtomicU64::new(0));
        let tcp_counter = Arc::clone(&tcp_answered);
        let tcp = AcceptLoop::spawn("tcp-nameserver", tcp_listener, move |stream, _| {
            let _ = serve_tcp_connection(stream, &store, &tcp_counter);
            None
        })?;
        Ok(UdpNameServer {
            addr,
            shutdown,
            handle: Some(handle),
            _tcp: tcp,
            answered,
            tcp_answered,
        })
    }

    /// The bound address to point clients at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of UDP responses sent.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::Relaxed)
    }

    /// Number of TCP responses sent (truncation fallbacks).
    pub fn tcp_answered(&self) -> u64 {
        self.tcp_answered.load(Ordering::Relaxed)
    }
}

impl Drop for UdpNameServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_tcp_connection(
    mut stream: TcpStream,
    store: &Arc<ZoneStore>,
    answered: &Arc<AtomicU64>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // connection closed or idle
        }
        let len = u16::from_be_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        stream.read_exact(&mut buf)?;
        let query = match wire::decode(&buf) {
            Ok(m) if !m.header.is_response && !m.questions.is_empty() => m,
            _ => return Ok(()),
        };
        let question = &query.questions[0];
        let (rcode, answers) = match store.lookup_question(question) {
            LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
            LookupOutcome::NoRecords => (Rcode::NoError, Vec::new()),
            LookupOutcome::NxDomain => (Rcode::NxDomain, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Timeout) => return Ok(()), // silence
            LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, Vec::new()),
        };
        let response = Message::response(&query, rcode, answers);
        let encoded = match wire::encode(&response) {
            Ok(b) => b,
            Err(_) => return Ok(()),
        };
        let framed = length_prefixed(&encoded)?;
        // Count before the reply leaves: otherwise a client that has
        // already received the response can observe a stale counter.
        answered.fetch_add(1, Ordering::Relaxed);
        stream.write_all(&framed)?;
    }
}

/// Datagrams handled per `recvmmsg`/`sendmmsg` batch in [`serve_loop`].
const SERVE_BATCH: usize = 64;

/// Build the reply for one received datagram, or `None` when the server
/// stays silent (malformed query, timeout fault, unencodable response).
fn reply_for(store: &ZoneStore, config: &ServerConfig, payload: &[u8]) -> Option<Vec<u8>> {
    let query = match wire::decode(payload) {
        Ok(m) if !m.header.is_response && !m.questions.is_empty() => m,
        // Malformed packets are dropped like a hardened server would.
        _ => return None,
    };
    let question = &query.questions[0];
    let (rcode, answers) = match store.lookup_question(question) {
        LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
        LookupOutcome::NoRecords => (Rcode::NoError, Vec::new()),
        LookupOutcome::NxDomain => (Rcode::NxDomain, Vec::new()),
        LookupOutcome::Fault(ZoneFault::Timeout) => return None, // silence = timeout
        LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, Vec::new()),
        LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, Vec::new()),
    };
    let mut response = Message::response(&query, rcode, answers);
    let mut encoded = wire::encode(&response).ok()?;
    if encoded.len() > config.max_payload {
        response.header.truncated = true;
        response.answers.clear();
        encoded = wire::encode(&response).ok()?;
    }
    Some(encoded)
}

fn serve_loop(
    socket: UdpSocket,
    store: Arc<ZoneStore>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
) {
    // One `recvmmsg` blocks (bounded by the 25ms read timeout) for the
    // first datagram of a batch, then drains whatever else is queued; one
    // `sendmmsg` pushes all the replies back. Under a reactor client
    // bursting hundreds of queries this collapses 2×N syscalls per batch
    // into 2.
    let mut slots: Vec<RecvSlot> = (0..SERVE_BATCH).map(|_| RecvSlot::new(4096)).collect();
    let mut replies: Vec<(Vec<u8>, SocketAddrV4)> = Vec::with_capacity(SERVE_BATCH);
    while !shutdown.load(Ordering::Relaxed) {
        let n = match recv_from_batch(&socket, &mut slots, false) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        replies.clear();
        for slot in slots.iter().take(n) {
            let peer = match slot.peer {
                Some(p) => p,
                None => continue,
            };
            if let Some(encoded) = reply_for(&store, &config, slot.payload()) {
                replies.push((encoded, peer));
            }
        }
        if replies.is_empty() {
            continue;
        }
        // Count before the replies leave: otherwise a client that has
        // already received a response can observe a stale counter.
        answered.fetch_add(replies.len() as u64, Ordering::Relaxed);
        let pkts: Vec<SendPacket<'_>> = replies
            .iter()
            .map(|(bytes, peer)| SendPacket {
                data: bytes,
                to: *peer,
            })
            .collect();
        let mut off = 0;
        while off < pkts.len() {
            match send_to_batch(&socket, &pkts[off..], false) {
                Ok(0) => break,
                Ok(sent) => off += sent,
                Err(_) => break,
            }
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt receive timeout.
    pub timeout: Duration,
    /// Number of attempts before reporting [`DnsError::Timeout`].
    pub retries: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Duration::from_millis(120),
            retries: 2,
        }
    }
}

/// A stub resolver speaking RFC 1035 over UDP.
///
/// Queries are serialized through an internal lock so concurrent callers
/// cannot steal each other's responses; the crawler achieves parallelism
/// by cloning one resolver per worker instead.
pub struct UdpResolver {
    server: SocketAddr,
    config: ClientConfig,
    socket: Mutex<UdpSocket>,
    next_id: AtomicU64,
}

impl UdpResolver {
    /// Connect (logically) to a server address.
    pub fn new(server: SocketAddr, config: ClientConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(config.timeout))?;
        Ok(UdpResolver {
            server,
            config,
            socket: Mutex::new(socket),
            next_id: AtomicU64::new(1),
        })
    }

    fn query_once(
        &self,
        socket: &UdpSocket,
        id: u16,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<Message, DnsError> {
        let msg = Message::query(id, Question::new(name.clone(), rtype));
        let bytes = wire::encode(&msg).map_err(|e| DnsError::Network(e.to_string()))?;
        socket
            .send_to(&bytes, self.server)
            .map_err(|e| DnsError::Network(e.to_string()))?;
        let mut buf = [0u8; 4096];
        loop {
            let (len, peer) = socket.recv_from(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                {
                    DnsError::Timeout
                } else {
                    DnsError::Network(e.to_string())
                }
            })?;
            if peer != self.server {
                continue; // stray packet
            }
            let resp = match wire::decode(&buf[..len]) {
                Ok(m) => m,
                Err(_) => continue, // garbled; keep waiting until timeout
            };
            if resp.header.id != id || !resp.header.is_response {
                continue;
            }
            return Ok(resp);
        }
    }
}

/// An RFC 7766 message with its 2-byte length prefix, as one buffer: a
/// separate write for the prefix would wait out Nagle plus the peer's
/// delayed ACK.
fn length_prefixed(message: &[u8]) -> std::io::Result<Vec<u8>> {
    let len = u16::try_from(message.len())
        .map_err(|_| std::io::Error::other("message exceeds TCP message size"))?;
    let mut buf = Vec::with_capacity(message.len() + 2);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(message);
    Ok(buf)
}

/// One length-prefixed RFC 7766 query over TCP — the truncation fallback
/// path shared by [`UdpResolver`] and [`crate::fleet::WireResolver`].
pub(crate) fn tcp_query(
    server: SocketAddr,
    timeout: Duration,
    id: u16,
    name: &DomainName,
    rtype: RecordType,
) -> Result<Vec<ResourceRecord>, DnsError> {
    let to_net = |e: std::io::Error| DnsError::Network(format!("tcp: {e}"));
    let mut stream = TcpStream::connect(server).map_err(to_net)?;
    stream.set_nodelay(true).map_err(to_net)?;
    stream
        .set_read_timeout(Some(timeout.max(Duration::from_millis(250))))
        .map_err(to_net)?;
    let msg = Message::query(id, Question::new(name.clone(), rtype));
    let bytes = wire::encode(&msg).map_err(|e| DnsError::Network(e.to_string()))?;
    let framed = length_prefixed(&bytes).map_err(to_net)?;
    stream.write_all(&framed).map_err(to_net)?;
    let mut len_buf = [0u8; 2];
    stream.read_exact(&mut len_buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut {
            DnsError::Timeout
        } else {
            to_net(e)
        }
    })?;
    let resp_len = u16::from_be_bytes(len_buf) as usize;
    let mut buf = vec![0u8; resp_len];
    stream.read_exact(&mut buf).map_err(to_net)?;
    let resp = wire::decode(&buf).map_err(|e| DnsError::Network(e.to_string()))?;
    if resp.header.id != id || !resp.header.is_response {
        return Err(DnsError::Network("mismatched TCP response".into()));
    }
    match resp.header.rcode {
        Rcode::NoError => Ok(resp.answers),
        Rcode::NxDomain => Err(DnsError::NxDomain),
        Rcode::ServFail => Err(DnsError::ServFail),
        Rcode::Refused => Err(DnsError::Refused),
        other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
    }
}

impl UdpResolver {
    /// Length-prefixed query over TCP (the truncation fallback path).
    fn query_tcp(
        &self,
        id: u16,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<Vec<ResourceRecord>, DnsError> {
        tcp_query(self.server, self.config.timeout, id, name, rtype)
    }
}

impl Resolver for UdpResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let socket = self.socket.lock();
        let id = (self.next_id.fetch_add(1, Ordering::Relaxed) % 0xFFFF) as u16 + 1;
        let mut last_err = DnsError::Timeout;
        for _ in 0..self.config.retries.max(1) {
            match self.query_once(&socket, id, name, rtype) {
                Ok(resp) => {
                    if resp.header.truncated {
                        // RFC 7766: retry the query over TCP.
                        return self.query_tcp(id, name, rtype);
                    }
                    return match resp.header.rcode {
                        Rcode::NoError => Ok(resp.answers),
                        Rcode::NxDomain => Err(DnsError::NxDomain),
                        Rcode::ServFail => Err(DnsError::ServFail),
                        Rcode::Refused => Err(DnsError::Refused),
                        other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
                    };
                }
                Err(DnsError::Timeout) => {
                    last_err = DnsError::Timeout;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordData;
    use std::net::Ipv4Addr;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn server_with(store: &Arc<ZoneStore>) -> UdpNameServer {
        UdpNameServer::spawn(Arc::clone(store), ServerConfig::default()).unwrap()
    }

    #[test]
    fn resolves_txt_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 ip4:192.0.2.0/24 -all");
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        let answers = resolver
            .query(&dom("example.com"), RecordType::Txt)
            .unwrap();
        assert_eq!(answers.len(), 1);
        match &answers[0].data {
            RecordData::Txt(t) => assert_eq!(t.joined(), "v=spf1 ip4:192.0.2.0/24 -all"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(server.answered() >= 1);
    }

    #[test]
    fn nxdomain_over_udp() {
        let store = Arc::new(ZoneStore::new());
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        assert_eq!(
            resolver.query(&dom("missing.example"), RecordType::A),
            Err(DnsError::NxDomain)
        );
    }

    #[test]
    fn empty_answer_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_a(&dom("example.com"), Ipv4Addr::new(192, 0, 2, 1));
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        assert_eq!(
            resolver.query(&dom("example.com"), RecordType::Txt),
            Ok(vec![])
        );
    }

    #[test]
    fn timeout_fault_times_out() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("slow.example"), "v=spf1 -all");
        store.set_fault(&dom("slow.example"), ZoneFault::Timeout);
        let server = server_with(&store);
        let resolver = UdpResolver::new(
            server.addr(),
            ClientConfig {
                timeout: Duration::from_millis(60),
                retries: 2,
            },
        )
        .unwrap();
        assert_eq!(
            resolver.query(&dom("slow.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
    }

    #[test]
    fn servfail_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.set_fault(&dom("bad.example"), ZoneFault::ServFail);
        // set_fault alone is enough; lookup checks faults before existence.
        store.add_txt(&dom("bad.example"), "v=spf1 -all");
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        assert_eq!(
            resolver.query(&dom("bad.example"), RecordType::Txt),
            Err(DnsError::ServFail)
        );
    }

    #[test]
    fn truncated_udp_response_falls_back_to_tcp() {
        let store = Arc::new(ZoneStore::new());
        let name = dom("huge.example");
        // Enough TXT data to exceed a 512-byte payload.
        let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(40) + "-all";
        store.add_txt(&name, &long);
        let server =
            UdpNameServer::spawn(Arc::clone(&store), ServerConfig { max_payload: 512 }).unwrap();
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        // The UDP answer is truncated; RFC 7766 fallback fetches it whole.
        let answers = resolver.query(&name, RecordType::Txt).unwrap();
        match &answers[0].data {
            crate::record::RecordData::Txt(t) => assert_eq!(t.joined(), long),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            server.tcp_answered() >= 1,
            "TCP path must have served the retry"
        );
    }

    #[test]
    fn tcp_fallback_preserves_rcode_semantics() {
        // NXDOMAIN over TCP after truncation is impossible (empty answers
        // never truncate), so probe the TCP path directly with a normal
        // record and confirm multiple sequential fallbacks work.
        let store = Arc::new(ZoneStore::new());
        for i in 0..5 {
            let long = "v=spf1 ".to_string() + &"ip4:203.0.113.0/24 ".repeat(40) + "-all";
            store.add_txt(&dom(&format!("big{i}.example")), &long);
        }
        let server =
            UdpNameServer::spawn(Arc::clone(&store), ServerConfig { max_payload: 512 }).unwrap();
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        for i in 0..5 {
            let answers = resolver
                .query(&dom(&format!("big{i}.example")), RecordType::Txt)
                .unwrap();
            assert_eq!(answers.len(), 1);
        }
        assert_eq!(server.tcp_answered(), 5);
    }

    #[test]
    fn many_sequential_queries() {
        let store = Arc::new(ZoneStore::new());
        for i in 0..50 {
            store.add_txt(
                &dom(&format!("d{i}.example")),
                &format!("v=spf1 ip4:10.0.0.{i} -all"),
            );
        }
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        for i in 0..50 {
            let rrs = resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
            assert_eq!(rrs.len(), 1);
        }
        assert_eq!(server.answered(), 50);
    }

    #[test]
    fn deprecated_spf_rr_type_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_spf_type99(&dom("legacy.example"), "v=spf1 mx -all");
        let server = server_with(&store);
        let resolver = UdpResolver::new(server.addr(), ClientConfig::default()).unwrap();
        let rrs = resolver
            .query(&dom("legacy.example"), RecordType::Spf)
            .unwrap();
        match &rrs[0].data {
            RecordData::Spf(t) => assert_eq!(t.joined(), "v=spf1 mx -all"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
