//! The coordinator's socket front end: a loopback TCP listener, one
//! handler thread per worker connection, and the supervisor that ties
//! their lifetimes together.
//!
//! All dispatch *decisions* live in the pure [`Coordinator`]; this
//! module only moves frames, ticks the liveness clock, and appends
//! checkpoint records. Time comes exclusively from one
//! [`rendezvous_telemetry::Stopwatch`] started at server launch — the
//! telemetry crate's sanctioned wall-clock wrapper — so the fabric adds
//! no new raw clock reads to the workspace (the analyze linter's D4
//! rule stays tight).

use crate::checkpoint::{CheckpointRecord, CheckpointWriter};
use crate::coordinator::{Coordinator, CoordinatorConfig, FabricStats, LeaseReply, WorkerId};
use crate::error::FabricError;
use crate::protocol::{Message, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame};
use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_telemetry::{ProgressCounts, Stopwatch, TelemetrySnapshot};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a handler blocks on its socket before ticking the expiry
/// check and the stop flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Supervisor accept-poll cadence.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Everything the server needs beyond [`CoordinatorConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dispatch tuning, passed through to the [`Coordinator`].
    pub coordinator: CoordinatorConfig,
    /// Where to append completed-range records (`None`: no checkpoint).
    pub checkpoint: Option<PathBuf>,
    /// Completed ranges loaded from a prior run's checkpoint.
    pub resume: Vec<CheckpointRecord>,
}

/// What a completed fabric run hands the driver.
#[derive(Debug)]
pub struct FabricOutcome {
    /// Per-sweep `(fingerprint, merged fold)` in sweep-sequence order —
    /// what the driver replays.
    pub sweeps: Vec<(WorkloadMeta, SweepReport)>,
    /// The merge of every finished worker's telemetry snapshot.
    pub telemetry: TelemetrySnapshot,
    /// Dispatch counters (reassignments, duplicates, resumed ranges).
    pub stats: FabricStats,
}

struct Shared {
    coordinator: Mutex<Coordinator>,
    checkpoint: Mutex<Option<CheckpointWriter>>,
    telemetry: Mutex<TelemetrySnapshot>,
    /// First refusal (protocol, fingerprint or checkpoint error): it
    /// fails the run even when the merge completes.
    refusal: Mutex<Option<FabricError>>,
    /// First wire death: absorbed when the survivors finish the run.
    lost: Mutex<Option<FabricError>>,
    stop: AtomicBool,
    /// The run's single clock: milliseconds since server launch.
    clock: Stopwatch,
}

impl Shared {
    /// Keeps the first error of its class: a broken connection only
    /// loses its worker, whose leases requeue; anything else is the
    /// coordinator refusing the run.
    fn record_error(&self, e: FabricError) {
        let slot = if matches!(e, FabricError::Wire(_)) {
            &self.lost
        } else {
            &self.refusal
        };
        let mut slot = slot.lock().expect("fabric error lock");
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

/// A running coordinator endpoint. Workers connect to [`addr`](Self::addr);
/// the driver calls [`join`](Self::join) once every worker process has
/// exited.
pub struct FabricServer {
    shared: Arc<Shared>,
    addr: String,
    supervisor: std::thread::JoinHandle<()>,
}

impl FabricServer {
    /// Binds a loopback listener on an ephemeral port and starts serving.
    ///
    /// # Errors
    ///
    /// [`FabricError::Checkpoint`] if the checkpoint file cannot be
    /// opened for append; [`FabricError::Wire`] if the listener cannot
    /// bind.
    pub fn start(cfg: ServerConfig) -> Result<FabricServer, FabricError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let writer = match &cfg.checkpoint {
            Some(path) => Some(CheckpointWriter::append_to(path)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            coordinator: Mutex::new(Coordinator::new(cfg.coordinator, cfg.resume)),
            checkpoint: Mutex::new(writer),
            telemetry: Mutex::new(TelemetrySnapshot::empty()),
            refusal: Mutex::new(None),
            lost: Mutex::new(None),
            stop: AtomicBool::new(false),
            clock: Stopwatch::start(),
        });
        let sup_shared = Arc::clone(&shared);
        // analyze: allow(d5) — connection supervisor, not a fold: sweep order lives in global indices
        let supervisor = std::thread::spawn(move || supervise(&listener, &sup_shared));
        Ok(FabricServer {
            shared,
            addr,
            supervisor,
        })
    }

    /// The `host:port` workers should connect to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A `'static` reader of the coordinator's
    /// [`progress`](Coordinator::progress), for a sampler thread that
    /// outlives this borrow.
    pub fn progress(&self) -> impl Fn() -> ProgressCounts + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || {
            shared
                .coordinator
                .lock()
                .expect("fabric coordinator lock")
                .progress()
        }
    }

    /// Stops serving and evaluates the run: every worker process should
    /// already have exited.
    ///
    /// # Errors
    ///
    /// The first refusal any handler recorded (a protocol, fingerprint
    /// or checkpoint error), even when every range finished; otherwise
    /// [`FabricError::Incomplete`] if ranges remain unfinished (all
    /// workers died), with priority to the first recorded wire death —
    /// it is the cause, incompleteness the symptom.
    pub fn join(self) -> Result<FabricOutcome, FabricError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.supervisor.join().expect("fabric supervisor panicked");
        let coordinator = self
            .shared
            .coordinator
            .lock()
            .expect("fabric coordinator lock");
        let merged = coordinator.merged();
        let stats = coordinator.stats();
        drop(coordinator);
        if let Some(refusal) = self
            .shared
            .refusal
            .lock()
            .expect("fabric error lock")
            .take()
        {
            return Err(refusal);
        }
        let lost = self.shared.lost.lock().expect("fabric error lock").take();
        match merged {
            Ok(sweeps) => {
                let telemetry = self
                    .shared
                    .telemetry
                    .lock()
                    .expect("fabric telemetry lock")
                    .clone();
                Ok(FabricOutcome {
                    sweeps,
                    telemetry,
                    stats,
                })
            }
            Err(incomplete) => Err(lost.unwrap_or(incomplete)),
        }
    }
}

/// Accept loop: spawns one handler per connection, ticks lease expiry,
/// and drains handlers when the stop flag rises.
fn supervise(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                // analyze: allow(d5) — per-connection frame pump; folds happen index-keyed in the coordinator
                handlers.push(std::thread::spawn(move || handle(stream, &conn_shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let now = shared.clock.elapsed_ms();
                shared
                    .coordinator
                    .lock()
                    .expect("fabric coordinator lock")
                    .expire(now);
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) => {
                shared.record_error(FabricError::from(e));
                break;
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// One worker's connection: reads frames until EOF, error, or stop;
/// every decision is delegated to the [`Coordinator`].
fn handle(mut stream: TcpStream, shared: &Arc<Shared>) {
    if let Err(e) = stream.set_read_timeout(Some(READ_TICK)) {
        shared.record_error(FabricError::from(e));
        return;
    }
    let mut worker: Option<WorkerId> = None;
    let mut finished = false;
    loop {
        match read_frame(&mut stream) {
            Ok(Some(msg)) => match dispatch(msg, &mut stream, shared, &mut worker, &mut finished) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    let refusal = Message::Fault {
                        message: e.to_string(),
                    };
                    let _ = write_frame(&mut stream, &refusal);
                    shared.record_error(e);
                    break;
                }
            },
            Ok(None) => break,
            Err(e) if e.is_timeout() => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let now = shared.clock.elapsed_ms();
                shared
                    .coordinator
                    .lock()
                    .expect("fabric coordinator lock")
                    .expire(now);
            }
            Err(e) => {
                // A worker that died mid-frame: surface the wire error
                // only if the run cannot absorb the loss — the lease
                // requeue below is the normal recovery.
                if !finished {
                    shared.record_error(FabricError::Wire(e));
                }
                break;
            }
        }
    }
    if let Some(id) = worker {
        if !finished {
            let now = shared.clock.elapsed_ms();
            let mut coordinator = shared.coordinator.lock().expect("fabric coordinator lock");
            coordinator.touch(id, now);
            coordinator.worker_lost(id);
        }
    }
}

/// Processes one frame. Returns `Ok(true)` to keep reading, `Ok(false)`
/// for an orderly end of conversation.
fn dispatch(
    msg: Message,
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    worker: &mut Option<WorkerId>,
    finished: &mut bool,
) -> Result<bool, FabricError> {
    let now = shared.clock.elapsed_ms();
    match msg {
        Message::Hello {
            version,
            worker: id,
        } => {
            if version != PROTOCOL_VERSION {
                return Err(FabricError::Protocol(format!(
                    "worker {id} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
                )));
            }
            *worker = Some(id);
            shared
                .coordinator
                .lock()
                .expect("fabric coordinator lock")
                .touch(id, now);
            Ok(true)
        }
        Message::Request { sweep, meta } => {
            let id =
                worker.ok_or_else(|| FabricError::Protocol("Request before Hello".to_string()))?;
            let reply = shared
                .coordinator
                .lock()
                .expect("fabric coordinator lock")
                .request(id, sweep, meta, now)?;
            let frame = match reply {
                LeaseReply::Range { lo, hi } => Message::Lease { sweep, lo, hi },
                LeaseReply::Wait => Message::Wait,
                LeaseReply::Complete => Message::SweepComplete { sweep },
            };
            write_frame(stream, &frame)?;
            Ok(true)
        }
        Message::Result {
            sweep,
            lo,
            hi,
            report,
        } => {
            let record = shared
                .coordinator
                .lock()
                .expect("fabric coordinator lock")
                .result(sweep, lo, hi, report)?;
            if let Some(record) = record {
                let mut writer = shared.checkpoint.lock().expect("fabric checkpoint lock");
                if let Some(writer) = writer.as_mut() {
                    writer.append(&record)?;
                }
            }
            Ok(true)
        }
        Message::Heartbeat => {
            if let Some(id) = *worker {
                shared
                    .coordinator
                    .lock()
                    .expect("fabric coordinator lock")
                    .touch(id, now);
            }
            Ok(true)
        }
        Message::Finished { telemetry } => {
            let id =
                worker.ok_or_else(|| FabricError::Protocol("Finished before Hello".to_string()))?;
            shared
                .coordinator
                .lock()
                .expect("fabric coordinator lock")
                .worker_finished(id);
            let mut merged = shared.telemetry.lock().expect("fabric telemetry lock");
            *merged = merged.merge(&telemetry);
            *finished = true;
            Ok(true)
        }
        Message::Fault { message } => {
            Err(FabricError::Protocol(format!("worker reported: {message}")))
        }
        other => Err(FabricError::Protocol(format!(
            "coordinator received a coordinator-only frame: {}",
            other.tag()
        ))),
    }
}
