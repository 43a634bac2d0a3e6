//! The worker side of the farm: `autocsp worker` and the in-process
//! worker used by tests and benches.
//!
//! A worker dials the orchestrator's loopback worker port, authenticates
//! with its launch token, and then executes one job at a time. Three
//! threads cooperate:
//!
//! - the **main** thread owns the [`crate::exec::Executor`] and runs
//!   jobs to verdicts;
//! - a **reader** thread parses incoming frames, so a `shutdown` frame
//!   arriving mid-exploration can raise the engine's interrupt flag
//!   ([`fdrlite::request_interrupt`]) — the engine checkpoints and
//!   returns an interrupted verdict instead of running to completion;
//! - a **heartbeat** thread beats on a fixed interval, which is how the
//!   orchestrator distinguishes a *wedged* worker from a slow one (a
//!   *dead* worker is cheaper to detect: its socket reports EOF).
//!
//! The connection is opened, written and read through [`crate::wire`],
//! which turns Nagle's algorithm off: a `result` written right after a
//! heartbeat leaves at once instead of waiting out the orchestrator's
//! delayed ACK.
//!
//! A panicking job does not kill the worker: the panic is caught, an
//! `error` frame is reported, and the executor is rebuilt fresh so no
//! poisoned state leaks into the next job.

use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fdrlite::supervisor::JobError;

use crate::exec::{ExecConfig, Executor};
use crate::wire::{self, Frame};

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The orchestrator's worker port, `host:port`.
    pub connect: String,
    /// Launch token identifying this worker's slot.
    pub token: String,
    /// Storage attachment (shared cache dir + checkpoint cadence).
    pub exec: ExecConfig,
    /// Heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Test-only sabotage: run the first dispatched job with this state
    /// budget (forcing a checkpoint) and then drop dead — close the
    /// connection without reporting, exactly like a SIGKILL landing
    /// right after the checkpoint write.
    pub die_after_states: Option<u64>,
}

#[allow(clippy::large_enum_variant)] // one short-lived event at a time
enum Event {
    Job {
        id: u64,
        attempt: u32,
        job: crate::ResolvedJob,
    },
    Shutdown,
    Disconnected,
}

fn send_frame(writer: &Mutex<TcpStream>, frame: &Frame) -> Result<(), String> {
    wire::send(&writer.lock().expect("writer lock poisoned"), frame)
        .map_err(|e| format!("cannot send frame: {e}"))
}

/// Run one worker until the orchestrator shuts it down or the
/// connection drops.
///
/// # Errors
///
/// Connection or executor setup failures, as a human-readable string.
pub fn run_worker(config: &WorkerConfig) -> Result<(), String> {
    let (stream, frames) = TcpStream::connect(&config.connect)
        .and_then(wire::open)
        .map_err(|e| format!("cannot reach orchestrator at {}: {e}", config.connect))?;
    let writer = Arc::new(Mutex::new(stream));
    send_frame(
        &writer,
        &Frame::Hello {
            token: config.token.clone(),
            pid: std::process::id(),
        },
    )?;

    let running = Arc::new(AtomicBool::new(true));
    let busy = Arc::new(AtomicBool::new(false));

    let (events_tx, events) = mpsc::channel::<Event>();
    let reader = {
        let tx = events_tx;
        std::thread::spawn(move || {
            for frame in frames {
                match frame {
                    Ok(Frame::Job { id, attempt, job }) => {
                        let _ = tx.send(Event::Job { id, attempt, job });
                    }
                    Ok(Frame::Shutdown) => {
                        // Raise the interrupt first so an in-flight
                        // exploration checkpoints promptly; the main
                        // thread drains the channel after the job ends.
                        fdrlite::request_interrupt();
                        let _ = tx.send(Event::Shutdown);
                    }
                    Ok(_) | Err(_) => {} // worker only expects job/shutdown
                }
            }
            let _ = tx.send(Event::Disconnected);
        })
    };

    let heartbeat = {
        let writer = Arc::clone(&writer);
        let running = Arc::clone(&running);
        let busy = Arc::clone(&busy);
        let interval = Duration::from_millis(config.heartbeat_ms.max(10));
        std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if !running.load(Ordering::Relaxed) {
                    break;
                }
                let frame = Frame::Heartbeat {
                    busy: busy.load(Ordering::Relaxed),
                };
                if send_frame(&writer, &frame).is_err() {
                    break;
                }
            }
        })
    };

    let result = work_loop(config, &writer, &events, &busy);

    running.store(false, Ordering::Relaxed);
    // Drop the writer so the blocked reader unblocks on EOF promptly.
    {
        let stream = writer.lock().expect("writer lock poisoned");
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    let _ = heartbeat.join();
    let _ = reader.join();
    result
}

fn work_loop(
    config: &WorkerConfig,
    writer: &Mutex<TcpStream>,
    events: &mpsc::Receiver<Event>,
    busy: &AtomicBool,
) -> Result<(), String> {
    let mut executor = Some(Executor::new(&config.exec)?);
    let mut sabotage = config.die_after_states;
    loop {
        let Ok(event) = events.recv() else {
            return Ok(());
        };
        match event {
            Event::Disconnected => return Ok(()),
            Event::Shutdown => return Ok(()),
            Event::Job {
                id,
                attempt,
                mut job,
            } => {
                busy.store(true, Ordering::Relaxed);
                let dying = sabotage.take();
                if let Some(budget) = dying {
                    // Sabotage: a tight budget forces a checkpoint, after
                    // which this worker "dies" without reporting.
                    job.max_states = Some(match job.max_states {
                        Some(m) => m.min(budget),
                        None => budget,
                    });
                }
                let mut exec = executor
                    .take()
                    .map_or_else(|| Executor::new(&config.exec), Ok)?;
                let outcome = catch_unwind(AssertUnwindSafe(|| exec.run(&job, attempt)));
                busy.store(false, Ordering::Relaxed);
                if dying.is_some() {
                    // Simulated SIGKILL right after the checkpoint write:
                    // no result frame, just a dropped connection.
                    return Ok(());
                }
                let frame = match outcome {
                    Ok(Ok(outcome)) => {
                        executor = Some(exec); // healthy run: keep warm caches
                        Frame::Result { id, outcome }
                    }
                    Ok(Err(JobError::Transient(message))) => {
                        executor = Some(exec);
                        Frame::Error {
                            id,
                            transient: true,
                            message,
                        }
                    }
                    Ok(Err(JobError::Permanent(message))) => {
                        executor = Some(exec);
                        Frame::Error {
                            id,
                            transient: false,
                            message,
                        }
                    }
                    Err(panic) => {
                        // The executor may hold poisoned state — rebuild
                        // it before the next job.
                        drop(exec);
                        let message = panic
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "job panicked".to_string());
                        Frame::Error {
                            id,
                            transient: false,
                            message: format!("job panicked: {message}"),
                        }
                    }
                };
                send_frame(writer, &frame)?;
            }
        }
    }
}
