//! A minimal keep-alive HTTP/1.1 client for the in-process explorerd:
//! one request at a time per connection, fixed-length and chunked
//! bodies, time to first byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response.
#[derive(Debug, Default)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// De-chunked body.
    pub body: Vec<u8>,
    /// The `ETag` header, if any.
    pub etag: Option<String>,
    /// Milliseconds from sending the request to the first response byte.
    pub ttfb_ms: f64,
}

/// A keep-alive connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the end of the previous response (none in
    /// practice: one request is in flight at a time).
    raw: Vec<u8>,
}

impl Client {
    /// Connect with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            raw: Vec::new(),
        })
    }

    /// `GET path`, optionally conditional on `if_none_match`.
    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> std::io::Result<Reply> {
        let mut request = format!("GET {path} HTTP/1.1\r\nHost: perf\r\n");
        if let Some(tag) = if_none_match {
            request.push_str("If-None-Match: ");
            request.push_str(tag);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        let sent = Instant::now();
        self.stream.write_all(request.as_bytes())?;
        self.read_reply(sent)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        let n = self.stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.raw.extend_from_slice(&buf[..n]);
        Ok(())
    }

    fn read_reply(&mut self, sent: Instant) -> std::io::Result<Reply> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut reply = Reply::default();
        let mut first_byte = !self.raw.is_empty();
        let head_len = loop {
            if let Some(split) = self.raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break split + 4;
            }
            self.fill()?;
            if !first_byte {
                first_byte = true;
                reply.ttfb_ms = sent.elapsed().as_secs_f64() * 1e3;
            }
        };
        let head = String::from_utf8_lossy(&self.raw[..head_len - 4]).into_owned();
        self.raw.drain(..head_len);
        let mut lines = head.split("\r\n");
        reply.status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut chunked = false;
        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "content-length" => {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                "etag" => reply.etag = Some(value.to_owned()),
                _ => {}
            }
        }
        // A 304 carries the validator's headers and no body.
        if reply.status == 304 {
            return Ok(reply);
        }
        if chunked {
            loop {
                let Some(line_end) = self.raw.windows(2).position(|w| w == b"\r\n") else {
                    self.fill()?;
                    continue;
                };
                let size = std::str::from_utf8(&self.raw[..line_end])
                    .ok()
                    .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                    .ok_or_else(|| bad("bad chunk size"))?;
                let frame = line_end + 2 + size + 2;
                while self.raw.len() < frame {
                    self.fill()?;
                }
                reply
                    .body
                    .extend_from_slice(&self.raw[line_end + 2..line_end + 2 + size]);
                self.raw.drain(..frame);
                if size == 0 {
                    return Ok(reply);
                }
            }
        }
        while self.raw.len() < content_length {
            self.fill()?;
        }
        reply.body = self.raw.drain(..content_length).collect();
        Ok(reply)
    }
}
