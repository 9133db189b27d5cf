//! The load generator: one TCP connection to the reactor, requests
//! multiplexed by `id`, closed- and open-loop drivers, and the reply parser.
//!
//! Pacing is sleep-based only: a spinning generator would steal the core the
//! pool worker runs on (the host has two).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use einet_trace::json::{self, JsonValue};

use crate::workload::Request;

/// A request without a reply after this long is failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// A parsed response line (see the status table in `server/src/wire.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed request id.
    pub id: u64,
    /// HTTP-style code.
    pub code: u64,
    /// Status string.
    pub status: String,
    /// `reason` of a 429.
    pub reason: Option<String>,
    /// Predicted class of a 200.
    pub prediction: Option<usize>,
    /// Exit that produced the answer of a 200.
    pub exit: Option<usize>,
}

/// Parses one response line.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = json::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
    let num = |key: &str| v.get(key).and_then(JsonValue::as_u64);
    let text = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
    Ok(Reply {
        id: num("id").ok_or("reply without \"id\"")?,
        code: num("code").ok_or("reply without \"code\"")?,
        status: text("status").ok_or("reply without \"status\"")?,
        reason: text("reason"),
        prediction: num("prediction").map(|p| p as usize),
        exit: num("exit").map(|e| e as usize),
    })
}

/// What happened to one sent request.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request as generated.
    pub request: Request,
    /// Reply and latency in ms — from the write (closed loop) or from the
    /// due time (open loop). `None`: no reply before [`REPLY_TIMEOUT`].
    pub reply: Option<(Reply, f64)>,
}

/// One measured round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Every request sent, in send order.
    pub exchanges: Vec<Exchange>,
    /// Length of the timed window in seconds.
    pub window_s: f64,
    /// Replies that matched no outstanding id (duplicate or unknown).
    pub stray_replies: usize,
    /// Open loop: how late each request left, in ms after its due time.
    pub send_late_ms: Vec<f64>,
    /// Open loop: requests still unanswered when the last one was sent.
    pub backlog_end: usize,
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off (latency is the product) and the reply
    /// timeout armed on reads.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes one request line and blocks for one reply line: the
    /// concurrency-1 round trip the ladder's top rung times.
    ///
    /// # Errors
    ///
    /// Write, read, timeout and parse failures, as text.
    pub fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = String::new();
        read_reply(&mut self.reader, &mut buf)?.ok_or_else(|| "connection closed".to_string())
    }

    /// Closed loop: keeps `window` requests in flight, sending the next when
    /// a reply arrives, until `duration` has passed or `max_requests` were
    /// sent; then drains. The window ends with the last reply.
    pub fn closed_loop(
        &mut self,
        requests: &mut impl Iterator<Item = Request>,
        window: usize,
        duration: Duration,
        max_requests: usize,
    ) -> Round {
        let mut round = Round::default();
        let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
        let mut buf = String::new();
        let started = Instant::now();
        let mut broken = false;
        loop {
            while !broken
                && inflight.len() < window
                && round.exchanges.len() < max_requests
                && started.elapsed() < duration
            {
                let request = requests.next().expect("request streams are endless");
                let sent_at = Instant::now();
                broken = self.writer.write_all(request.line.as_bytes()).is_err();
                inflight.insert(request.id, (round.exchanges.len(), sent_at));
                round.exchanges.push(Exchange {
                    request,
                    reply: None,
                });
            }
            if inflight.is_empty() {
                break;
            }
            match read_reply(&mut self.reader, &mut buf) {
                Ok(Some(reply)) => match inflight.remove(&reply.id) {
                    Some((index, sent_at)) => {
                        let ms = sent_at.elapsed().as_secs_f64() * 1e3;
                        round.exchanges[index].reply = Some((reply, ms));
                    }
                    None => round.stray_replies += 1,
                },
                // Timeout, EOF or garbage: whatever is in flight stays
                // unanswered and counts as failed.
                Ok(None) | Err(_) => break,
            }
        }
        round.window_s = started.elapsed().as_secs_f64();
        round
    }

    /// Open loop: sends `requests[i]` at `due[i]` after the start whatever
    /// the replies do, sleeping between sends; a second thread reads. Latency
    /// runs from the due time, so a generator stall is charged to the
    /// requests it delayed. The window is the schedule's length.
    pub fn open_loop(
        &mut self,
        requests: &mut impl Iterator<Item = Request>,
        due: &[Duration],
        window: Duration,
    ) -> Round {
        let mut round = Round {
            window_s: window.as_secs_f64(),
            ..Round::default()
        };
        let Conn { writer, reader } = self;
        let expected = due.len();
        let started = Instant::now();
        let (received, last_sent_at) = std::thread::scope(|scope| {
            let reading = scope.spawn(move || {
                let mut received: Vec<(Reply, Instant)> = Vec::with_capacity(expected);
                let mut buf = String::new();
                while received.len() < expected {
                    match read_reply(reader, &mut buf) {
                        Ok(Some(reply)) => received.push((reply, Instant::now())),
                        Ok(None) | Err(_) => break,
                    }
                }
                received
            });
            let mut last_sent_at = started;
            for &offset in due {
                let request = requests.next().expect("request streams are endless");
                if let Some(wait) = offset.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
                last_sent_at = Instant::now();
                round.send_late_ms.push(
                    (last_sent_at - started)
                        .saturating_sub(offset)
                        .as_secs_f64()
                        * 1e3,
                );
                // A failed write leaves the request unanswered: it fails by
                // timeout like any other lost request.
                let _ = writer.write_all(request.line.as_bytes());
                round.exchanges.push(Exchange {
                    request,
                    reply: None,
                });
            }
            (reading.join().expect("reader thread"), last_sent_at)
        });
        let index_of: HashMap<u64, usize> = round
            .exchanges
            .iter()
            .enumerate()
            .map(|(i, e)| (e.request.id, i))
            .collect();
        let mut answered_by_last_send = 0;
        for (reply, at) in received {
            match index_of.get(&reply.id) {
                Some(&i) if round.exchanges[i].reply.is_none() => {
                    if at <= last_sent_at {
                        answered_by_last_send += 1;
                    }
                    let ms = (at - started).saturating_sub(due[i]).as_secs_f64() * 1e3;
                    round.exchanges[i].reply = Some((reply, ms));
                }
                _ => round.stray_replies += 1,
            }
        }
        round.backlog_end = expected.saturating_sub(1 + answered_by_last_send);
        round
    }
}

/// Reads one reply line. `Ok(None)` on EOF or read timeout.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
) -> Result<Option<Reply>, String> {
    buf.clear();
    match reader.read_line(buf) {
        Ok(0) => Ok(None),
        Ok(_) => parse_reply(buf.trim_end()).map(Some),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the status table in `server/src/wire.rs`, rendered by
    /// the server's own functions where they are public.
    #[test]
    fn reply_parser_accepts_every_row_of_the_status_table() {
        use einet_edge::{TaskOutcome, TaskStatus};
        use einet_models::ExitOutput;
        use einet_server::wire;
        use einet_server::RouteError;

        let answer = vec![ExitOutput {
            exit: 4,
            predicted: 7,
            confidence: 0.5,
        }];
        let outcome = |outputs: &[ExitOutput], status| TaskOutcome {
            outputs: outputs.to_vec(),
            status,
            blocks_run: 5,
            correct: Some(true),
        };
        let rows = [
            (
                wire::render_outcome(1, &outcome(&answer, TaskStatus::Completed), 9),
                (200, "completed", None, true),
            ),
            (
                wire::render_outcome(1, &outcome(&answer, TaskStatus::Preempted), 9),
                (200, "preempted", None, true),
            ),
            (
                wire::render_outcome(1, &outcome(&answer, TaskStatus::DeadlineExpired), 0),
                (200, "deadline_expired", None, true),
            ),
            (
                wire::render_bad_request(1, "nope", 0),
                (400, "bad_request", None, false),
            ),
            (
                wire::render_route_error(1, RouteError::UnknownModel, 0),
                (404, "unknown_model", None, false),
            ),
            (
                wire::render_route_error(1, RouteError::Shed, 0),
                (429, "shed", Some("queue_full"), false),
            ),
            (
                wire::render_outcome(1, &outcome(&[], TaskStatus::ShedExpiredInQueue), 0),
                (429, "shed", Some("expired_in_queue"), false),
            ),
            (
                wire::render_worker_crashed(1, 0),
                (500, "worker_crashed", None, false),
            ),
            (
                wire::render_route_error(1, RouteError::Closed, 0),
                (503, "closed", None, false),
            ),
            (
                wire::render_outcome(1, &outcome(&[], TaskStatus::Preempted), 0),
                (503, "preempted", None, false),
            ),
            (
                wire::render_outcome(1, &outcome(&[], TaskStatus::DeadlineExpired), 0),
                (504, "deadline_expired", None, false),
            ),
        ];
        for (line, (code, status, reason, answered)) in rows {
            let reply = parse_reply(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(reply.id, 1, "{line}");
            assert_eq!(
                (reply.code, reply.status.as_str()),
                (code, status),
                "{line}"
            );
            assert_eq!(reply.reason.as_deref(), reason, "{line}");
            let answer = answered.then_some((7, 4));
            assert_eq!(reply.prediction.zip(reply.exit), answer, "{line}");
        }
        assert!(parse_reply("not json").is_err());
        assert!(parse_reply(r#"{"code": 200, "status": "completed"}"#).is_err());
    }
}
