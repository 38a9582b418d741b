//! The worker side of the fabric: connect, pull leases, push results,
//! heartbeat from a side thread, hand over telemetry at the end.
//!
//! A worker process walks the run's sweep sequence exactly like a
//! direct run would — same experiment order, same workload
//! construction — but instead of sweeping `[0, size())` it loops
//! "request a lease, execute it through `Runner::sweep_range`, submit
//! the fold" until the coordinator says the sweep is complete. All
//! socket writes (requests, results, heartbeats) go through one mutex'd
//! stream so frames never interleave.

use crate::error::{FabricError, WireError};
use crate::protocol::{Message, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame};
use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_telemetry::TelemetrySnapshot;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Heartbeat cadence — an order of magnitude inside the coordinator's
/// default 5 s lease timeout, so only a truly wedged or dead worker
/// expires.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// How long to sleep after a `Wait` reply before polling again.
const WAIT_POLL: Duration = Duration::from_millis(25);

/// If the coordinator goes silent this long after a request, give up —
/// the worker must never hang on a dead coordinator.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A connected fabric worker.
///
/// The heartbeat thread starts at [`connect`](Self::connect) and runs
/// until [`finish`](Self::finish) (or drop); it shares the write half
/// of the socket behind a mutex with the request/result traffic.
pub struct WorkerClient {
    writer: Arc<Mutex<TcpStream>>,
    reader: TcpStream,
    stop: Arc<AtomicBool>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl WorkerClient {
    /// Connects to the coordinator at `addr`, introduces itself as
    /// `worker`, and starts the heartbeat thread.
    ///
    /// # Errors
    ///
    /// Connection or handshake-write failures.
    pub fn connect(addr: &str, worker: u64) -> Result<WorkerClient, FabricError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = Arc::new(Mutex::new(stream));
        write_frame(
            &mut *writer.lock().expect("fabric writer lock"),
            &Message::Hello {
                version: PROTOCOL_VERSION,
                worker,
            },
        )?;
        let stop = Arc::new(AtomicBool::new(false));
        let beat_writer = Arc::clone(&writer);
        let beat_stop = Arc::clone(&stop);
        // analyze: allow(d5) — liveness side channel; carries no sweep data
        let heartbeat = std::thread::spawn(move || {
            while !beat_stop.load(Ordering::SeqCst) {
                // Woken early by `stop_heartbeat`; a spurious wake-up
                // only sends one beat early.
                std::thread::park_timeout(HEARTBEAT_EVERY);
                if beat_stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut w = beat_writer.lock().expect("fabric writer lock");
                if write_frame(&mut *w, &Message::Heartbeat).is_err() {
                    // Coordinator gone: the main thread will hit the
                    // same wall on its next request; just go quiet.
                    break;
                }
            }
        });
        Ok(WorkerClient {
            writer,
            reader,
            stop,
            heartbeat: Some(heartbeat),
        })
    }

    /// Requests the next lease of sweep `sweep` (fingerprint `meta`),
    /// polling through `Wait` replies. `Ok(Some((lo, hi)))` is a range
    /// to execute; `Ok(None)` means the sweep is complete.
    ///
    /// # Errors
    ///
    /// Wire failures, [`FabricError::Refused`] on a coordinator fault, or
    /// out-of-protocol replies.
    pub fn next_lease(
        &mut self,
        sweep: usize,
        meta: WorkloadMeta,
    ) -> Result<Option<(usize, usize)>, FabricError> {
        loop {
            write_frame(
                &mut *self.writer.lock().expect("fabric writer lock"),
                &Message::Request { sweep, meta },
            )?;
            match self.read_reply()? {
                Message::Lease { sweep: s, lo, hi } if s == sweep => return Ok(Some((lo, hi))),
                Message::SweepComplete { sweep: s } if s == sweep => return Ok(None),
                Message::Wait => std::thread::sleep(WAIT_POLL),
                Message::Fault { message } => return Err(FabricError::Refused(message)),
                other => {
                    return Err(FabricError::Protocol(format!(
                        "unexpected reply to Request: {}",
                        other.tag()
                    )))
                }
            }
        }
    }

    /// Submits the fold of leased range `[lo, hi)` of `sweep`.
    ///
    /// # Errors
    ///
    /// Wire failures.
    pub fn submit(
        &mut self,
        sweep: usize,
        lo: usize,
        hi: usize,
        report: SweepReport,
    ) -> Result<(), FabricError> {
        write_frame(
            &mut *self.writer.lock().expect("fabric writer lock"),
            &Message::Result {
                sweep,
                lo,
                hi,
                report,
            },
        )?;
        Ok(())
    }

    /// Ends the conversation: stops the heartbeat, sends the worker's
    /// telemetry snapshot, and half-closes the socket.
    ///
    /// # Errors
    ///
    /// Wire failures on the final frame.
    pub fn finish(mut self, telemetry: TelemetrySnapshot) -> Result<(), FabricError> {
        self.stop_heartbeat();
        {
            let mut w = self.writer.lock().expect("fabric writer lock");
            write_frame(&mut *w, &Message::Finished { telemetry })?;
            let _ = w.shutdown(std::net::Shutdown::Write);
        }
        Ok(())
    }

    /// Reads one coordinator reply off the socket.
    fn read_reply(&mut self) -> Result<Message, FabricError> {
        match read_frame(&mut self.reader) {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(FabricError::Wire(WireError::Truncated {
                expected: 4,
                got: 0,
            })),
            Err(e) => Err(FabricError::Wire(e)),
        }
    }

    /// Stops the heartbeat thread: wakes it from its wait and joins it,
    /// so a worker exits without waiting out a heartbeat period.
    fn stop_heartbeat(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.heartbeat.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for WorkerClient {
    fn drop(&mut self) {
        self.stop_heartbeat();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Dropping or finishing a connected client wakes its heartbeat
    /// thread instead of waiting out the period the thread sleeps.
    #[test]
    fn stopping_a_client_does_not_wait_out_a_heartbeat() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let dropped = WorkerClient::connect(&addr, 1).unwrap();
        let finished = WorkerClient::connect(&addr, 2).unwrap();
        // Let both heartbeat threads reach their wait: a thread stopped
        // before it first checks the flag never waits at all.
        std::thread::sleep(HEARTBEAT_EVERY / 10);
        let started = Instant::now();
        drop(dropped);
        assert!(
            started.elapsed() < HEARTBEAT_EVERY / 2,
            "drop waited {:?}",
            started.elapsed()
        );
        let started = Instant::now();
        finished.finish(TelemetrySnapshot::default()).unwrap();
        assert!(
            started.elapsed() < HEARTBEAT_EVERY / 2,
            "finish waited {:?}",
            started.elapsed()
        );
    }
}
