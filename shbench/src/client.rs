//! The benchmark's client for the `sh-server` line protocol: one
//! [`ShClient`] is one persistent connection (one server session), reused
//! for every request a generator thread sends, and it records the instant
//! the first `DATA` header arrives so time to first byte can be reported.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sh_server::protocol::{parse_header, read_payload, Header};

/// `429 BUSY` answers a request is resent after before it counts as
/// refused.
pub const RETRY_BUDGET: usize = 5;

/// How the server closed a request.
#[derive(Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// `ERR` with its message.
    Err(String),
    /// `429 BUSY` left after the retry budget.
    Busy,
}

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    pub status: Status,
    /// Every `DATA` payload in order: newline-terminated result rows.
    pub payload: String,
    /// When the first `DATA` header line had been read.
    pub first_data: Option<Instant>,
    /// When the terminator line had been read.
    pub done: Instant,
    /// `429 BUSY` answers this request was resent after.
    pub retries: usize,
}

pub struct ShClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Connect → banner read: what a client that did not keep its
    /// connection would pay on every request.
    pub setup: Duration,
}

impl ShClient {
    pub fn connect(addr: &SocketAddr) -> io::Result<ShClient> {
        let t0 = Instant::now();
        let stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the
        // driver's limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut banner = String::new();
        reader.read_line(&mut banner)?;
        if !banner.starts_with("SHADOOP ") {
            return Err(invalid(format!("unexpected banner: {banner:?}")));
        }
        Ok(ShClient {
            reader,
            writer,
            setup: t0.elapsed(),
        })
    }

    /// Sends one request line and reads its whole response, resending
    /// after a `429 BUSY` up to [`RETRY_BUDGET`] times. The wait between
    /// tries is the server's hint and the caller's clock keeps running,
    /// so a refusal costs latency.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        debug_assert!(!line.contains('\n'), "a request is a single line");
        let mut retries = 0;
        let mut payload = String::new();
        let mut first_data = None;
        let mut header = String::new();
        self.send(line)?;
        loop {
            header.clear();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let status = match parse_header(&header).map_err(invalid)? {
                Header::Data(n) => {
                    first_data.get_or_insert_with(Instant::now);
                    payload.push_str(&read_payload(&mut self.reader, n)?);
                    continue;
                }
                Header::Busy(retry_ms) if retries < RETRY_BUDGET => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_ms.clamp(1, 1000)));
                    // The resent line runs from its first statement again.
                    payload.clear();
                    first_data = None;
                    self.send(line)?;
                    continue;
                }
                Header::Busy(_) => Status::Busy,
                Header::Ok(_) => Status::Ok,
                Header::Err(n) => Status::Err(read_payload(&mut self.reader, n)?),
                Header::Bye => return Err(invalid("unexpected BYE mid-request".into())),
            };
            return Ok(Reply {
                status,
                payload,
                first_data,
                done: Instant::now(),
                retries,
            });
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        // One write, so the line and its newline leave in one segment.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A scripted in-process stand-in for the server, for the unit tests of
/// the client and of the load generator.
#[cfg(test)]
pub mod fake {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// What the fake does on receiving its n-th request line.
    #[derive(Clone)]
    pub enum Step {
        Send(&'static str),
        Stall(Duration),
    }

    /// Serves one connection: the banner, then `script(n)` for request
    /// `n` until the client hangs up. Returns the request lines it read.
    pub fn serve(
        script: impl Fn(usize) -> Vec<Step> + Send + 'static,
    ) -> (SocketAddr, JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("one connection");
            stream.write_all(b"SHADOOP 1 READY\n").expect("banner");
            let mut seen = Vec::new();
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            for (n, line) in reader.lines().enumerate() {
                let Ok(line) = line else { break };
                seen.push(line);
                for step in script(n) {
                    match step {
                        Step::Send(text) => stream.write_all(text.as_bytes()).expect("send"),
                        Step::Stall(d) => std::thread::sleep(d),
                    }
                }
            }
            seen
        });
        (addr, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::fake::{serve, Step};
    use super::*;

    #[test]
    fn one_connection_serves_many_requests_and_stamps_the_first_data_header() {
        let (addr, server) = serve(|n| match n {
            0 => vec![
                Step::Send("DATA 4\n1 2\n"),
                Step::Stall(Duration::from_millis(60)),
                Step::Send("DATA 4\n3 4\nOK 2\n"),
            ],
            _ => vec![Step::Send("OK 0\n")],
        });
        let mut client = ShClient::connect(&addr).unwrap();
        let sent = Instant::now();
        let first = client.request("q = FILTER p; DUMP q;").unwrap();
        assert_eq!(first.status, Status::Ok);
        assert_eq!(first.payload, "1 2\n3 4\n");
        let ttfb = first.first_data.expect("rows were streamed") - sent;
        let total = first.done - sent;
        assert!(
            total - ttfb >= Duration::from_millis(50),
            "first byte at {ttfb:?} must precede the stalled rest ({total:?})"
        );
        let second = client.request("DUMP nothing;").unwrap();
        assert_eq!(second.status, Status::Ok);
        assert_eq!((second.payload.as_str(), second.first_data), ("", None));
        drop(client);
        assert_eq!(
            server.join().unwrap(),
            ["q = FILTER p; DUMP q;", "DUMP nothing;"]
        );
    }

    #[test]
    fn a_refusal_is_retried_and_costs_latency() {
        let (addr, server) = serve(|n| match n {
            0 => vec![Step::Send("429 BUSY 30\n")],
            _ => vec![Step::Send("DATA 4\n1 2\nOK 1\n")],
        });
        let mut client = ShClient::connect(&addr).unwrap();
        let sent = Instant::now();
        let reply = client.request("q").unwrap();
        assert_eq!((reply.status, reply.retries), (Status::Ok, 1));
        assert_eq!(reply.payload, "1 2\n");
        assert!(reply.done - sent >= Duration::from_millis(30));
        drop(client);
        assert_eq!(server.join().unwrap(), ["q", "q"], "the line was resent");
    }

    #[test]
    fn refusals_beyond_the_budget_and_errors_are_reported() {
        let (addr, server) = serve(|n| match n {
            0..=RETRY_BUDGET => vec![Step::Send("429 BUSY 1\n")],
            _ => vec![Step::Send("ERR 4\nnope")],
        });
        let mut client = ShClient::connect(&addr).unwrap();
        let refused = client.request("q").unwrap();
        assert_eq!(
            (refused.status, refused.retries),
            (Status::Busy, RETRY_BUDGET)
        );
        let failed = client.request("r").unwrap();
        assert_eq!(failed.status, Status::Err("nope".to_string()));
        drop(client);
        assert_eq!(server.join().unwrap().len(), RETRY_BUDGET + 2);
    }
}
