//! A minimal blocking HTTP/1.1 client over one keep-alive connection,
//! for the pipeline's `/healthz` and first `/v1/thermo` round trips.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Header lines, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// A header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Serialize one request with an explicit `Content-Length`.
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Split a complete response off the front of `buf`: `Ok(None)` while
/// only a prefix has arrived, `Ok(Some((reply, consumed)))` once the
/// head and the `content-length` body are present.
///
/// # Errors
/// A description of malformed framing.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut headers = Vec::new();
    let mut len = 0usize;
    for line in lines {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
        if k == "content-length" {
            len = v.parse().map_err(|_| format!("bad content-length {v:?}"))?;
        }
        headers.push((k, v));
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Some((
        Reply {
            status,
            headers,
            body,
        },
        total,
    )))
}

/// A blocking keep-alive connection.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect with a read timeout.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Send one request and read its reply.
    ///
    /// # Errors
    /// Transport failures and malformed replies.
    pub fn call(&mut self, method: &str, target: &str, body: &str) -> Result<Reply, String> {
        self.stream
            .get_mut()
            .write_all(&request_bytes(method, target, body))
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        loop {
            let chunk = self.stream.fill_buf().map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                return Err("connection closed mid-reply".into());
            }
            let n = chunk.len();
            buf.extend_from_slice(chunk);
            self.stream.consume(n);
            if let Some((reply, used)) = parse_reply(&buf)? {
                if used != buf.len() {
                    return Err("unexpected bytes after the reply".into());
                }
                return Ok(reply);
            }
        }
    }
}

/// Read everything a stream holds (for tests of scripted servers).
#[cfg(test)]
pub fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_frame_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nx-cache: hit\r\n\r\nhelloHTTP/1.1";
        let (reply, used) = parse_reply(raw).unwrap().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"hello");
        assert_eq!(reply.header("x-cache"), Some("hit"));
        assert_eq!(used, raw.len() - "HTTP/1.1".len());
        assert!(parse_reply(&raw[..20]).unwrap().is_none());
        assert!(
            parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nabc")
                .unwrap()
                .is_none()
        );
    }
}
