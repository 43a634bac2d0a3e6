//! The orchestrator ↔ worker control protocol.
//!
//! One JSON object per line over a loopback TCP connection. The worker
//! connects, authenticates with its launch token, and then the
//! orchestrator drives it job by job:
//!
//! ```text
//! worker → orchestrator   {"type":"hello","token":"…","pid":1234}
//! orchestrator → worker   {"type":"job","id":"…","attempt":1,…}
//! worker → orchestrator   {"type":"heartbeat","busy":true}
//! worker → orchestrator   {"type":"result","id":"…","status":"passed",…}
//! worker → orchestrator   {"type":"error","id":"…","transient":true,…}
//! orchestrator → worker   {"type":"shutdown"}
//! ```
//!
//! Frames are deliberately flat and self-describing; unknown fields are
//! ignored so the two ends can evolve independently within a release.
//!
//! This module also owns the connection itself. Both ends take their
//! stream through [`open`], write through [`send`] or [`send_line`] and
//! read through [`Frames`]. [`open`] sets `TCP_NODELAY`: every frame is
//! small, and with Nagle's algorithm on, a frame written while the
//! previous one is still unacknowledged waits in the kernel for that ACK.
//! The peer delays the ACK of a lone segment by 40 ms or more, so a
//! worker's `result` written just after a `heartbeat` reached the
//! orchestrator about 40 ms late, longer than most jobs take to run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use diag::json;
use fdrlite::supervisor::{JobReport, JobStatus};

use crate::{ChaosCfg, ResolvedJob};

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker greeting: launch token + worker pid.
    Hello {
        /// The token the worker was launched with; identifies its slot.
        token: String,
        /// The worker's OS process id (SIGKILL target for dead workers).
        pid: u32,
    },
    /// Dispatch one job to the worker.
    Job {
        /// The job's content key.
        id: u64,
        /// 1-based dispatch attempt (grows across retries and handoffs).
        attempt: u32,
        /// The fully resolved job.
        job: ResolvedJob,
    },
    /// Periodic liveness beat from the worker.
    Heartbeat {
        /// Whether a job is currently executing.
        busy: bool,
    },
    /// Terminal verdict for a dispatched job.
    Result {
        /// The job's content key.
        id: u64,
        /// The verdict.
        outcome: JobReport,
    },
    /// The job could not produce a verdict this attempt.
    Error {
        /// The job's content key.
        id: u64,
        /// Whether the failure is worth retrying.
        transient: bool,
        /// What went wrong.
        message: String,
    },
    /// Orchestrator request: finish (or checkpoint) the current job and
    /// exit.
    Shutdown,
}

/// Encode a frame as one newline-terminated JSON line.
pub fn encode(frame: &Frame) -> String {
    let mut line = json::object(|w| match frame {
        Frame::Hello { token, pid } => {
            w.key("type").string("hello");
            w.key("token").string(token);
            w.key("pid").number(pid);
        }
        Frame::Job { id, attempt, job } => {
            w.key("type").string("job");
            w.key("id").string(&crate::format_job_id(*id));
            w.key("attempt").number(attempt);
            w.key("name").string(&job.name);
            w.key("kind").string(job.kind.label());
            w.key("script").string(&job.script.display().to_string());
            if let Some(spec) = &job.spec {
                w.key("spec").string(spec);
            }
            if let Some(corpus) = &job.corpus {
                w.key("corpus").string(&corpus.display().to_string());
            }
            if let Some(assertion) = &job.assertion {
                w.key("assertion").string(assertion);
            }
            // Numbers a manifest may set past 2^53 travel as decimal
            // strings, which JSON numbers would round.
            w.key("threads").string(&job.threads.to_string());
            if let Some(max_states) = job.max_states {
                w.key("max_states").string(&max_states.to_string());
            }
            if let Some(timeout_ms) = job.timeout_ms {
                w.key("timeout_ms").string(&timeout_ms.to_string());
            }
            if let Some(c) = &job.chaos {
                w.key("chaos").object(|w| {
                    w.key("seed").string(&c.seed.to_string());
                    w.key("transient_attempts").number(c.transient_attempts);
                    w.key("every_nth").string(&c.every_nth.to_string());
                });
            }
        }
        Frame::Heartbeat { busy } => {
            w.key("type").string("heartbeat");
            w.key("busy").bool(*busy);
        }
        Frame::Result { id, outcome } => {
            w.key("type").string("result");
            w.key("id").string(&crate::format_job_id(*id));
            w.key("status").string(outcome.status.label());
            w.key("lines").array(|w| {
                for line in &outcome.lines {
                    w.string(line);
                }
            });
            w.key("interrupted").bool(outcome.interrupted);
        }
        Frame::Error {
            id,
            transient,
            message,
        } => {
            w.key("type").string("error");
            w.key("id").string(&crate::format_job_id(*id));
            w.key("transient").bool(*transient);
            w.key("message").string(message);
        }
        Frame::Shutdown => {
            w.key("type").string("shutdown");
        }
    });
    line.push('\n');
    line
}

fn need_str(v: &json::Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(json::Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("frame is missing string field `{key}`"))
}

fn need_u64(v: &json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(json::Value::as_u64)
        .ok_or_else(|| format!("frame is missing numeric field `{key}`"))
}

fn opt_str(v: &json::Value, key: &str) -> Option<String> {
    v.get(key).and_then(json::Value::as_str).map(str::to_owned)
}

/// An integer field the encoder writes as a decimal string, if present.
fn opt_decimal<T: std::str::FromStr>(v: &json::Value, key: &str) -> Result<Option<T>, String> {
    opt_str(v, key)
        .map(|text| {
            text.parse()
                .map_err(|_| format!("field `{key}` is not a decimal in range: `{text}`"))
        })
        .transpose()
}

fn need_decimal<T: std::str::FromStr>(v: &json::Value, key: &str) -> Result<T, String> {
    opt_decimal(v, key)?.ok_or_else(|| format!("frame is missing decimal field `{key}`"))
}

fn need_job_id(v: &json::Value) -> Result<u64, String> {
    let token = need_str(v, "id")?;
    crate::parse_job_id(&token).ok_or_else(|| format!("malformed job id `{token}`"))
}

/// Decode one frame line.
///
/// # Errors
///
/// A human-readable description of the malformation (surfaced under
/// [`crate::codes::PROTOCOL_ERROR`]).
pub fn decode(line: &str) -> Result<Frame, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let kind = need_str(&value, "type")?;
    match kind.as_str() {
        "hello" => Ok(Frame::Hello {
            token: need_str(&value, "token")?,
            pid: u32::try_from(need_u64(&value, "pid")?)
                .map_err(|_| "pid out of range".to_string())?,
        }),
        "job" => {
            let kind_label = need_str(&value, "kind")?;
            let kind = match kind_label.as_str() {
                "check" => cspm::manifest::JobKind::Check,
                "conform" => cspm::manifest::JobKind::Conform,
                "analyze" => cspm::manifest::JobKind::Analyze,
                other => return Err(format!("unknown job kind `{other}`")),
            };
            let chaos = match value.get("chaos") {
                Some(c) => Some(ChaosCfg {
                    seed: need_decimal(c, "seed")?,
                    transient_attempts: u32::try_from(need_u64(c, "transient_attempts")?)
                        .map_err(|_| "transient_attempts out of range".to_string())?,
                    every_nth: need_decimal(c, "every_nth")?,
                }),
                None => None,
            };
            Ok(Frame::Job {
                id: need_job_id(&value)?,
                attempt: u32::try_from(need_u64(&value, "attempt")?)
                    .map_err(|_| "attempt out of range".to_string())?,
                job: ResolvedJob {
                    name: need_str(&value, "name")?,
                    kind,
                    script: need_str(&value, "script")?.into(),
                    spec: opt_str(&value, "spec"),
                    corpus: opt_str(&value, "corpus").map(Into::into),
                    assertion: opt_str(&value, "assertion"),
                    threads: need_decimal(&value, "threads")?,
                    max_states: opt_decimal(&value, "max_states")?,
                    timeout_ms: opt_decimal(&value, "timeout_ms")?,
                    chaos,
                },
            })
        }
        "heartbeat" => Ok(Frame::Heartbeat {
            busy: value
                .get("busy")
                .and_then(json::Value::as_bool)
                .ok_or("heartbeat is missing `busy`")?,
        }),
        "result" => {
            let status_label = need_str(&value, "status")?;
            let status = JobStatus::from_label(&status_label)
                .ok_or_else(|| format!("unknown status `{status_label}`"))?;
            let lines = value
                .get("lines")
                .and_then(json::Value::as_array)
                .ok_or("result is missing `lines`")?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "non-string verdict line".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Frame::Result {
                id: need_job_id(&value)?,
                outcome: JobReport {
                    status,
                    lines,
                    interrupted: value
                        .get("interrupted")
                        .and_then(json::Value::as_bool)
                        .unwrap_or(false),
                },
            })
        }
        "error" => Ok(Frame::Error {
            id: need_job_id(&value)?,
            transient: value
                .get("transient")
                .and_then(json::Value::as_bool)
                .unwrap_or(false),
            message: need_str(&value, "message")?,
        }),
        "shutdown" => Ok(Frame::Shutdown),
        other => Err(format!("unknown frame type `{other}`")),
    }
}

/// Take one end of a worker connection, the worker's or the
/// orchestrator's: turn Nagle's algorithm off and split the stream into
/// a writer and the frames it receives. The writer's `try_clone`s share
/// its socket, and with it the option.
///
/// # Errors
///
/// The socket's `set_nodelay` or `try_clone` failure.
pub fn open(stream: TcpStream) -> std::io::Result<(TcpStream, Frames)> {
    stream.set_nodelay(true)?;
    let frames = Frames {
        lines: BufReader::new(stream.try_clone()?),
        line: String::new(),
    };
    Ok((stream, frames))
}

/// Write one frame to a connection set up by [`open`].
///
/// # Errors
///
/// The socket's write failure.
pub fn send(stream: &TcpStream, frame: &Frame) -> std::io::Result<()> {
    send_line(stream, &encode(frame))
}

/// Write one frame that [`encode`] has already turned into a line.
///
/// # Errors
///
/// The socket's write failure.
pub fn send_line(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// The frames arriving on one connection, one per line, until the peer
/// closes it or a read fails. A line that does not decode is an `Err`
/// item; the next line is still read.
pub struct Frames {
    lines: BufReader<TcpStream>,
    line: String,
}

impl Iterator for Frames {
    type Item = Result<Frame, String>;

    fn next(&mut self) -> Option<Self::Item> {
        self.line.clear();
        match self.lines.read_line(&mut self.line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(decode(self.line.trim_end())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> ResolvedJob {
        ResolvedJob {
            name: "ota-sp02".into(),
            kind: cspm::manifest::JobKind::Check,
            script: "examples/ota_x1373.csp".into(),
            spec: None,
            corpus: None,
            assertion: Some("SP02".into()),
            threads: 2,
            max_states: Some(10_000),
            timeout_ms: None,
            chaos: Some(ChaosCfg {
                seed: 99,
                transient_attempts: 2,
                every_nth: 3,
            }),
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Hello {
                token: "w-0-1".into(),
                pid: 4321,
            },
            Frame::Job {
                id: 0xfeed_beef,
                attempt: 3,
                job: sample_job(),
            },
            Frame::Heartbeat { busy: true },
            Frame::Result {
                id: 7,
                outcome: JobReport {
                    status: JobStatus::Refuted,
                    lines: vec!["assert X  ...  FAIL".into(), "  <tr>".into()],
                    interrupted: false,
                },
            },
            Frame::Error {
                id: 7,
                transient: true,
                message: "storage fault \"injected\"".into(),
            },
            Frame::Shutdown,
        ];
        for frame in frames {
            let line = encode(&frame);
            assert!(line.ends_with('\n'));
            assert_eq!(decode(line.trim_end()).unwrap(), frame, "line: {line}");
        }
    }

    #[test]
    fn conform_job_round_trips_paths() {
        let mut job = sample_job();
        job.kind = cspm::manifest::JobKind::Conform;
        job.spec = Some("SYSTEM".into());
        job.corpus = Some("examples/faults/traces".into());
        job.chaos = None;
        let frame = Frame::Job {
            id: 1,
            attempt: 1,
            job,
        };
        assert_eq!(decode(encode(&frame).trim_end()).unwrap(), frame);
    }

    #[test]
    fn both_ends_turn_nagle_off_and_frames_cross_the_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialled = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (worker, mut from_orchestrator) = open(dialled).unwrap();
        let (orchestrator, mut from_worker) = open(accepted).unwrap();
        assert!(worker.nodelay().unwrap());
        assert!(orchestrator.nodelay().unwrap());

        let beat = Frame::Heartbeat { busy: true };
        send(&worker, &beat).unwrap();
        assert_eq!(from_worker.next(), Some(Ok(beat)));
        send_line(&orchestrator, &encode(&Frame::Shutdown)).unwrap();
        assert_eq!(from_orchestrator.next(), Some(Ok(Frame::Shutdown)));
        send_line(&worker, "not json\n").unwrap();
        assert!(matches!(from_worker.next(), Some(Err(_))));
        worker.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(from_worker.next(), None);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode("not json").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"type\":\"warp\"}").is_err());
        assert!(decode("{\"type\":\"job\",\"id\":\"zz\"}").is_err());
        assert!(decode(
            "{\"type\":\"result\",\"id\":\"0000000000000007\",\"status\":\"maybe\",\"lines\":[]}"
        )
        .is_err());
        let job = Frame::Job {
            id: 1,
            attempt: 1,
            job: sample_job(),
        };
        let past_u64 =
            encode(&job).replace("\"threads\":\"2\"", "\"threads\":\"18446744073709551616\"");
        assert!(decode(past_u64.trim_end())
            .unwrap_err()
            .contains("`threads`"));
    }
}
