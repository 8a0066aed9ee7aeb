//! A minimal HTTP/1.1 loopback client: one request per connection, the
//! way the daemon serves them (`Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The raw bytes of one request, as sent on the wire.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole response.
pub fn send(addr: SocketAddr, request: &[u8]) -> std::io::Result<Response> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("response head not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| bad("body not UTF-8"))?;
    Ok(Response { status, body })
}
