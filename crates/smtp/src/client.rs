//! A minimal SMTP client — the sending side of the case study (both the
//! direct-SMTP-from-web-space method and the provider-MTA relay are
//! client sessions against the receiving MTA).

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::time::Duration;

use crate::codec::Reply;

/// Errors from a client session.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's reply could not be parsed.
    BadReply {
        /// The raw line.
        line: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::BadReply { line } => write!(f, "unparsable reply {line:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected SMTP client.
pub struct SmtpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The server banner received on connect.
    pub banner: Reply,
}

impl SmtpClient {
    /// Connect and read the banner.
    pub fn connect(addr: SocketAddr) -> Result<SmtpClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let banner = read_reply(&mut reader)?;
        Ok(SmtpClient {
            writer,
            reader,
            banner,
        })
    }

    /// Send one protocol unit (CRLF included) in a single write and read
    /// the reply: split writes would wait out Nagle plus the peer's
    /// delayed ACK.
    fn command(&mut self, unit: &str) -> Result<Reply, ClientError> {
        self.writer.write_all(unit.as_bytes())?;
        read_reply(&mut self.reader)
    }

    /// Send `EHLO`.
    pub fn ehlo(&mut self, domain: &str) -> Result<Reply, ClientError> {
        self.command(&format!("EHLO {domain}\r\n"))
    }

    /// Declare the simulated client address (server must trust XCLIENT).
    pub fn xclient(&mut self, addr: IpAddr) -> Result<Reply, ClientError> {
        self.command(&format!("XCLIENT ADDR={addr}\r\n"))
    }

    /// Send `MAIL FROM`.
    pub fn mail_from(&mut self, path: &str) -> Result<Reply, ClientError> {
        self.command(&format!("MAIL FROM:<{path}>\r\n"))
    }

    /// Send `RCPT TO`.
    pub fn rcpt_to(&mut self, path: &str) -> Result<Reply, ClientError> {
        self.command(&format!("RCPT TO:<{path}>\r\n"))
    }

    /// Send the message body via `DATA`, dot-stuffing as required.
    pub fn data(&mut self, body: &str) -> Result<Reply, ClientError> {
        let reply = self.command("DATA\r\n")?;
        if reply.code != 354 {
            return Ok(reply);
        }
        let mut payload = String::with_capacity(body.len());
        for line in body.lines() {
            if line.starts_with('.') {
                payload.push('.');
            }
            payload.push_str(line);
            payload.push_str("\r\n");
        }
        payload.push_str(".\r\n");
        self.command(&payload)
    }

    /// Send `QUIT`.
    pub fn quit(&mut self) -> Result<Reply, ClientError> {
        self.command("QUIT\r\n")
    }
}

/// Read one reply, multi-line or not (RFC 5321 §4.2.1): `250-` lines
/// continue it and the first line without a hyphen after the code ends
/// it. The lines' texts are joined with `\n`.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Reply, ClientError> {
    let (mut reply, mut more) = read_reply_line(reader)?;
    while more {
        let (part, next) = read_reply_line(reader)?;
        if part.code != reply.code {
            return Err(ClientError::BadReply {
                line: part.to_string(),
            });
        }
        reply.text.push('\n');
        reply.text.push_str(&part.text);
        more = next;
    }
    Ok(reply)
}

/// One reply line, and whether a continuation line follows it.
fn read_reply_line(reader: &mut BufReader<TcpStream>) -> Result<(Reply, bool), ClientError> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let more = line.as_bytes().get(3) == Some(&b'-');
    let reply = Reply::parse(&line).ok_or(ClientError::BadReply { line })?;
    Ok((reply, more))
}

#[cfg(test)]
mod tests {
    // The client is exercised end-to-end against the real server in
    // `server.rs` and `spoof.rs` tests; here against scripted peers.
    use super::*;
    use crate::codec::Reply;
    use std::net::TcpListener;

    #[test]
    fn reply_parse_handles_multiline_markers() {
        let r = Reply::parse("250-mx.receiver.example greets you").unwrap();
        assert_eq!(r.code, 250);
        assert_eq!(r.text, "mx.receiver.example greets you");
    }

    #[test]
    fn multi_line_reply_is_read_to_its_final_line() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            stream.write_all(b"220 mx.example ESMTP\r\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "EHLO h.example\r\n");
            stream
                .write_all(b"250-mx.example greets you\r\n250-PIPELINING\r\n250 8BITMIME\r\n")
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "MAIL FROM:<ceo@good.example>\r\n");
            stream.write_all(b"250 OK sender\r\n").unwrap();
        });
        let mut client = SmtpClient::connect(addr).unwrap();
        let ehlo = client.ehlo("h.example").unwrap();
        assert_eq!(ehlo.code, 250);
        assert_eq!(ehlo.text, "mx.example greets you\nPIPELINING\n8BITMIME");
        let reply = client.mail_from("ceo@good.example").unwrap();
        assert_eq!(reply, Reply::new(250, "OK sender"));
        peer.join().unwrap();
    }
}
