//! The workspace's one TCP accept loop (DESIGN.md §3, "TCP sockets").
//!
//! Every TCP server in the workspace — the receiving MTA, the DNS
//! fleet's RFC 7766 listener and the verdict service — runs its listener
//! through [`AcceptLoop`]: a background thread blocked in `accept`, so a
//! new connection is served at once and an idle listener does no
//! wakeups. Dropping the loop sets its stop flag and wakes the blocked
//! `accept` with a loopback connect; the flag is checked after `accept`
//! returns, so that wake connection is never handed to the server.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A blocking accept loop on a named background thread, stopped and
/// joined on drop.
///
/// Each accepted stream has `TCP_NODELAY` set and is passed, with its
/// peer address, to the caller's closure. A closure that serves the
/// connection inline returns `None`; one that spawns a thread for it
/// returns that thread's handle, and the loop joins every such thread
/// when it stops.
///
/// ```
/// use std::io::{Read, Write};
/// use std::net::{TcpListener, TcpStream};
/// use spf_types::AcceptLoop;
///
/// let listener = TcpListener::bind("127.0.0.1:0")?;
/// let addr = listener.local_addr()?;
/// let echo = AcceptLoop::spawn("echo", listener, |mut stream, _peer| {
///     Some(std::thread::spawn(move || {
///         let mut buf = [0u8; 5];
///         if stream.read_exact(&mut buf).is_ok() {
///             let _ = stream.write_all(&buf);
///         }
///     }))
/// })?;
/// let mut client = TcpStream::connect(addr)?;
/// client.write_all(b"hello")?;
/// let mut reply = [0u8; 5];
/// client.read_exact(&mut reply)?;
/// assert_eq!(&reply, b"hello");
/// drop(echo); // stops accepting and joins the connection thread
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Serve `listener` on a thread named `name`, handing each accepted
    /// connection to `on_conn`. The listener must accept connections at
    /// its own local address (a loopback or specific-interface bind), since
    /// that is where the drop-time wake connect goes.
    pub fn spawn<F>(name: &str, listener: TcpListener, mut on_conn: F) -> io::Result<AcceptLoop>
    where
        F: FnMut(TcpStream, SocketAddr) -> Option<JoinHandle<()>> + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut connections = Vec::new();
                loop {
                    let accepted = listener.accept();
                    // SeqCst pairs with the store in `drop`, which happens
                    // before the wake connect this `accept` returns for.
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match accepted {
                        Ok((stream, peer)) => {
                            let _ = stream.set_nodelay(true);
                            connections.extend(on_conn(stream, peer));
                        }
                        // The peer reset before we accepted, or a signal
                        // interrupted the call: the listener is fine.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                            ) => {}
                        Err(_) => break,
                    }
                }
                for connection in connections {
                    let _ = connection.join();
                }
            })?;
        Ok(AcceptLoop {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Fails only when the loop already exited on a listener error.
        let wake = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // Closed only now, after the loop has closed its end: the side
        // that closes first keeps the port in TIME_WAIT, and on the
        // loop's side that is the listener's port, which allows rebinding
        // (std sets SO_REUSEADDR on listeners). Closing here first would
        // park an ephemeral port without it, where a later listener bound
        // to a UDP socket's ephemeral port would fail with EADDRINUSE.
        drop(wake);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    fn bind() -> TcpListener {
        TcpListener::bind(("127.0.0.1", 0)).unwrap()
    }

    #[test]
    fn serves_inline_and_never_serves_the_wake_connection() {
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        let server = AcceptLoop::spawn("test-inline", bind(), move |mut stream, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = stream.write_all(b"hi");
            None
        })
        .unwrap();
        for _ in 0..3 {
            let mut client = TcpStream::connect(server.addr()).unwrap();
            let mut buf = [0u8; 2];
            client.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");
        }
        drop(server);
        assert_eq!(served.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn drop_joins_connection_threads() {
        let (accepted_tx, accepted_rx) = std::sync::mpsc::channel();
        let finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&finished);
        let server = AcceptLoop::spawn("test-threads", bind(), move |_stream, _| {
            let _ = accepted_tx.send(());
            let flag = Arc::clone(&flag);
            Some(std::thread::spawn(move || {
                // Long enough that a drop which skipped the join would
                // return first.
                std::thread::sleep(Duration::from_millis(100));
                flag.store(true, Ordering::SeqCst);
            }))
        })
        .unwrap();
        let _client = TcpStream::connect(server.addr()).unwrap();
        accepted_rx.recv().unwrap();
        drop(server);
        assert!(finished.load(Ordering::SeqCst));
    }

    #[test]
    fn idle_listener_stops_promptly_and_accepted_streams_are_nodelay() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = AcceptLoop::spawn("test-nodelay", bind(), move |stream, _| {
            let _ = tx.send(stream.nodelay().unwrap_or(false));
            None
        })
        .unwrap();
        let _client = TcpStream::connect(server.addr()).unwrap();
        assert!(rx.recv().unwrap());
        let start = Instant::now();
        drop(server);
        assert!(start.elapsed() < Duration::from_secs(1));
        // The loop dropped its closure (and sender) on exit.
        assert!(rx.recv().is_err());
    }
}
