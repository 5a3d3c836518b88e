//! Wire protocol: a line-oriented request/response framing shared by
//! the server and the bench client.
//!
//! ```text
//! S: SHADOOP 1 READY\n                      (banner, once per connection)
//! C: <one line of Pigeon source>\n          (a request; ';'-separated stmts)
//! S: DATA <nbytes>\n<nbytes of payload>     (zero or more bounded frames)
//! S: OK <rows>\n                            (success terminator)
//!    | ERR <nbytes>\n<nbytes of message>    (failure terminator)
//!    | 429 BUSY <retry_ms>\n                (admission rejection; retry)
//! C: QUIT\n                                 (optional; server answers BYE)
//! ```
//!
//! Frame payloads are result lines, each newline-terminated. A result
//! set is cut into frames of whole lines no larger than the configured
//! chunk size, each flushed as it is written, so the client reads a
//! long answer in bounded pieces; a single line longer than the chunk
//! size travels alone in one oversized frame. Everything is printable
//! text — the protocol is debuggable with netcat.

use std::io::{self, BufRead, IoSlice, Read, Write};

use sh_mapreduce::Rows;

/// Protocol revision, bumped on incompatible framing changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Greeting line sent once per connection.
pub const BANNER: &str = "SHADOOP 1 READY";

/// Reply sent in response to `QUIT` before the server closes.
pub const BYE: &str = "BYE";

/// Default frame payload bound, in bytes.
pub const DEFAULT_CHUNK_BYTES: usize = 8192;

/// Longest request line the server reads, newline excluded. A longer
/// line is answered with `ERR` and ends the connection; a line that is
/// not UTF-8 is answered with `ERR` and the connection goes on.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A parsed response header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// `DATA <nbytes>`: a payload frame follows.
    Data(usize),
    /// `OK <rows>`: request finished; total result rows streamed.
    Ok(u64),
    /// `ERR <nbytes>`: request failed; message payload follows.
    Err(usize),
    /// `429 BUSY <retry_ms>`: admission control rejected the request.
    Busy(u64),
    /// `BYE`: the server acknowledged `QUIT` and is closing.
    Bye,
}

/// Parses one response header line.
pub fn parse_header(line: &str) -> Result<Header, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split_whitespace();
    let word = parts.next().unwrap_or("");
    let arg = |p: &mut std::str::SplitWhitespace<'_>| {
        p.next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed header: {line:?}"))
    };
    match word {
        "DATA" => Ok(Header::Data(arg(&mut parts)? as usize)),
        "OK" => Ok(Header::Ok(arg(&mut parts)?)),
        "ERR" => Ok(Header::Err(arg(&mut parts)? as usize)),
        "429" => {
            if parts.next() != Some("BUSY") {
                return Err(format!("malformed header: {line:?}"));
            }
            Ok(Header::Busy(arg(&mut parts)?))
        }
        "BYE" => Ok(Header::Bye),
        _ => Err(format!("unrecognized header: {line:?}")),
    }
}

/// Writes a result set as bounded `DATA` frames and returns how many.
/// Every frame is a slice of `rows.text()`: as many whole rows as fit
/// in `chunk_bytes`, and at least one — a row longer than the bound
/// travels alone. Each frame is flushed as it is written.
pub fn write_rows_frames(w: &mut impl Write, rows: &Rows, chunk_bytes: usize) -> io::Result<usize> {
    let chunk = chunk_bytes.max(1);
    let mut frames = 0usize;
    let mut rest = rows.text();
    while !rest.is_empty() {
        let end = if rest.len() <= chunk {
            rest.len()
        } else {
            let bytes = rest.as_bytes();
            match bytes[..chunk].iter().rposition(|&b| b == b'\n') {
                Some(last) => last + 1,
                // First row is over the bound: cut after its newline.
                None => bytes[chunk..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |p| chunk + p + 1),
            }
        };
        // `end` follows a newline (or is the end), so it is a char boundary.
        let (frame, tail) = rest.split_at(end);
        write_frame(w, "DATA", frame)?;
        frames += 1;
        rest = tail;
    }
    Ok(frames)
}

/// Writes the success terminator.
pub fn write_ok(w: &mut impl Write, rows: u64) -> io::Result<()> {
    w.write_all(format!("OK {rows}\n").as_bytes())?;
    w.flush()
}

/// Writes the failure terminator with its message payload.
pub fn write_err(w: &mut impl Write, message: &str) -> io::Result<()> {
    write_frame(w, "ERR", message)
}

/// Writes the admission-rejection terminator.
pub fn write_busy(w: &mut impl Write, retry_ms: u64) -> io::Result<()> {
    w.write_all(format!("429 BUSY {retry_ms}\n").as_bytes())?;
    w.flush()
}

/// Header and payload leave in one write: on a `TCP_NODELAY` socket two
/// writes are two syscalls and two segments a frame.
fn write_frame(w: &mut impl Write, kind: &str, payload: &str) -> io::Result<()> {
    let header = format!("{kind} {}\n", payload.len());
    let (header, payload) = (header.as_bytes(), payload.as_bytes());
    let sent = match w.write_vectored(&[IoSlice::new(header), IoSlice::new(payload)]) {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    // A short vectored write is finished piecewise.
    if sent < header.len() {
        w.write_all(&header[sent..])?;
        w.write_all(payload)?;
    } else {
        w.write_all(&payload[sent - header.len()..])?;
    }
    w.flush()
}

/// Reads exactly `n` payload bytes following a `DATA`/`ERR` header.
pub fn read_payload(r: &mut impl BufRead, n: usize) -> io::Result<String> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload not UTF-8: {e}"),
        )
    })
}

/// Reads one header line (without trailing newline). `Ok(None)` on a
/// cleanly closed stream.
pub fn read_header_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    if r.by_ref().take(256).read_line(&mut line)? == 0 {
        return Ok(None);
    }
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_round_trip() {
        assert_eq!(parse_header("DATA 42"), Ok(Header::Data(42)));
        assert_eq!(parse_header("OK 7\n"), Ok(Header::Ok(7)));
        assert_eq!(parse_header("ERR 13"), Ok(Header::Err(13)));
        assert_eq!(parse_header("429 BUSY 100"), Ok(Header::Busy(100)));
        assert_eq!(parse_header("BYE"), Ok(Header::Bye));
        assert!(parse_header("NOPE 1").is_err());
        assert!(parse_header("DATA lots").is_err());
        assert!(parse_header("429 FULL 5").is_err());
    }

    /// Re-parses a frame stream into its payloads.
    fn payloads(wire: &[u8]) -> Vec<String> {
        let mut r = io::BufReader::new(wire);
        let mut got = Vec::new();
        while let Some(h) = read_header_line(&mut r).unwrap() {
            match parse_header(&h).unwrap() {
                Header::Data(n) => got.push(read_payload(&mut r, n).unwrap()),
                other => panic!("unexpected header {other:?}"),
            }
        }
        got
    }

    /// The framing rule, stated over separate lines: a frame takes lines
    /// until the next one would push it over the bound.
    fn frames_by_line(lines: &[String], chunk: usize) -> Vec<String> {
        let mut frames = Vec::new();
        let mut buf = String::new();
        for line in lines {
            if !buf.is_empty() && buf.len() + line.len() + 1 > chunk {
                frames.push(std::mem::take(&mut buf));
            }
            buf.push_str(line);
            buf.push('\n');
        }
        if !buf.is_empty() {
            frames.push(buf);
        }
        frames
    }

    #[test]
    fn frames_are_bounded_and_cover_all_lines() {
        let lines: Vec<String> = (0..100).map(|i| format!("row-{i:04}")).collect();
        let mut out = Vec::new();
        let frames = write_rows_frames(&mut out, &Rows::from_lines(&lines), 64).unwrap();
        assert!(frames > 1, "small chunk must split the stream");
        // Re-parse every frame and reassemble.
        let got = payloads(&out);
        assert_eq!(got.len(), frames);
        for payload in &got {
            let n = payload.len();
            assert!(n <= 64, "frame payload over the chunk bound: {n}");
        }
        let rows: Vec<&str> = got.iter().flat_map(|p| p.lines()).collect();
        assert_eq!(rows, lines);
    }

    #[test]
    fn oversized_single_line_travels_alone() {
        let rows = Rows::from_lines(["x".repeat(100)]);
        let mut out = Vec::new();
        let frames = write_rows_frames(&mut out, &rows, 16).unwrap();
        assert_eq!(frames, 1);
        let mut r = io::BufReader::new(&out[..]);
        let h = read_header_line(&mut r).unwrap().unwrap();
        assert_eq!(parse_header(&h), Ok(Header::Data(101)));
    }

    #[test]
    fn empty_result_writes_no_frames() {
        let mut out = Vec::new();
        assert_eq!(
            write_rows_frames(&mut out, &Rows::default(), 64).unwrap(),
            0
        );
        assert!(out.is_empty());
    }

    /// A writer that accepts a few bytes per call, as a socket with a
    /// full send buffer would.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_lose_nothing() {
        let rows = Rows::from_lines((0..40).map(|i| format!("row-{i}")));
        let mut whole = Vec::new();
        write_rows_frames(&mut whole, &rows, 64).unwrap();
        let mut trickled = Trickle(Vec::new());
        write_rows_frames(&mut trickled, &rows, 64).unwrap();
        assert_eq!(trickled.0, whole);
    }

    sh_rand::properties! {
        /// The slicing framer emits, byte for byte, the frames the
        /// line-by-line rule specifies.
        fn rows_framer_matches_the_line_rule(rng, 64) {
            let lens: Vec<usize> = (0..rng.below(60)).map(|_| rng.below(40)).collect();
            let (long_at, chunk_ix) = (rng.below(80), rng.below(4));
            let chunk = [1usize, 16, 64, 8192][chunk_ix];
            let mut lines: Vec<String> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| "é7 ".chars().cycle().skip(i).take(n).collect())
                .collect();
            // Sometimes one line far longer than any chunk but the largest.
            if long_at < lines.len() {
                lines[long_at] = "L".repeat(300);
            }
            let rows = Rows::from_lines(&lines);
            let mut wire = Vec::new();
            let frames = write_rows_frames(&mut wire, &rows, chunk).unwrap();
            let got = payloads(&wire);
            assert_eq!(got.len(), frames);
            assert_eq!(got.concat(), rows.text());
            for payload in &got {
                assert!(payload.len() <= chunk || payload.matches('\n').count() == 1);
            }
            assert_eq!(got, frames_by_line(&lines, chunk));
        }
    }
}
