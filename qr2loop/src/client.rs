//! A minimal raw HTTP/1.1 client: one request per connection, as the
//! server closes every connection after its response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One completed HTTP exchange, timed from the client's side.
pub struct Reply {
    pub status: u16,
    /// The body, de-chunked when the response was chunked.
    pub body: Vec<u8>,
    /// Bytes received on the wire (status line, headers and framing).
    pub wire_bytes: usize,
    /// `connect()` time, microseconds.
    pub connect_us: f64,
    /// Connect to last byte, microseconds.
    pub wall_us: f64,
}

impl Reply {
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))
    }
}

/// Send one request and read the whole response (the server closes the
/// connection after it). `request_id` becomes the `x-request-id` header,
/// which makes the server trace the request in full.
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    request_id: Option<&str>,
) -> Result<Reply, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_us = start.elapsed().as_secs_f64() * 1e6;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(id) = request_id {
        raw.push_str(&format!("x-request-id: {id}\r\n"));
    }
    match body {
        Some(b) => raw.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        )),
        None => raw.push_str("\r\n"),
    }
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::with_capacity(4096);
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let (status, body) = parse_response(&buf)?;
    Ok(Reply {
        status,
        body,
        wire_bytes: buf.len(),
        connect_us,
        wall_us,
    })
}

fn parse_response(buf: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "header is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let rest = &buf[head_end + 4..];
    let chunked = headers.iter().any(|(k, v)| {
        k.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
    });
    let body = if chunked {
        dechunk(rest)?
    } else {
        if let Some((_, len)) = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        {
            let len: usize = len.parse().map_err(|_| "bad Content-Length")?;
            if len != rest.len() {
                return Err(format!(
                    "Content-Length {len} but {} body bytes",
                    rest.len()
                ));
            }
        }
        rest.to_vec()
    };
    Ok((status, body))
}

/// Decode a chunked body; it must end with the zero-length chunk.
fn dechunk(mut rest: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(rest.len());
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk header")?;
        let size_hex = std::str::from_utf8(&rest[..line_end]).map_err(|_| "bad chunk size")?;
        let size = usize::from_str_radix(size_hex.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_hex:?}"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if rest.len() < size + 2 || &rest[size..size + 2] != b"\r\n" {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_chunked_and_fixed_bodies() {
        let fixed = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}";
        let (status, body) = parse_response(fixed).unwrap();
        assert_eq!((status, body.as_slice()), (201, &b"{}"[..]));
        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\nc\n\r\n0\r\n\r\n";
        let (_, body) = parse_response(chunked).unwrap();
        assert_eq!(body, b"ab\nc\n");
        let truncated = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n";
        assert!(parse_response(truncated).is_err());
    }
}
