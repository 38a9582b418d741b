//! `experiments serve` — the sweep query service over a result store.
//!
//! The server binds a loopback TCP socket and answers length-framed
//! JSON queries (the same wire discipline as the fabric:
//! [`rendezvous_fabric::wire`]) against a content-addressed store
//! directory. A query names a sweep either by its exact store token or
//! by its defining parameters (algorithm + [`GraphSpec`] + grid
//! shape); the answer is the full [`SweepReport`] — served from the
//! store when the entry exists, computed (and recorded) through the
//! ordinary sweep path on a miss. Schema or fingerprint drift in a
//! stored entry produces a *typed refusal*, never a wrong answer: the
//! store's read path treats every inconsistency as a miss, and the
//! token path surfaces the miss kind verbatim.
//!
//! Byte-identity discipline: `experiments query --direct` answers
//! through the same [`answer`] in its own process — same validation,
//! same compute path as
//! [`sweep_single_spec`](crate::x10_topologies::sweep_single_spec) — so
//! a served reply and a direct one print identical bytes, refusals
//! included (CI diffs them on every push).

use crate::session::Session;
use crate::x10_topologies::answer_spec_query;
use rendezvous_fabric::wire::{read_json_frame, write_json_frame};
use rendezvous_graph::GraphSpec;
use rendezvous_runner::{Runner, SweepReport};
use rendezvous_store::{Miss, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// How long a connection may stay silent before the server drops it.
/// Connections are served one at a time, so without this bound one
/// client that connects and sends nothing would stall every other.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// One question to the sweep service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Query {
    /// Fetch a stored entry by its exact store token. Never computes:
    /// a token alone does not describe the workload, so anything but a
    /// clean hit is a refusal.
    Token {
        /// The entry's file name under the store root.
        token: String,
    },
    /// One algorithm's sweep of one seeded topology —
    /// cached-or-computed.
    Grid {
        /// `cheap` or `fast`.
        algorithm: String,
        /// The topology to sweep.
        spec: GraphSpec,
        /// Label-space size (`>= 2`).
        l: u64,
        /// Per-spec scenario sample cap (`>= 1`).
        cap: usize,
    },
    /// Stop the server after a `Bye` reply.
    Shutdown,
}

/// The service's answer to one [`Query`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// The sweep's full report.
    Report {
        /// `true` when the store already held the entry; `false` when
        /// this query computed (and recorded) it.
        cached: bool,
        /// The store token addressing the entry.
        token: String,
        /// The report — byte-identical to a direct run's.
        report: SweepReport,
    },
    /// Token query for an entry the store does not cleanly hold
    /// (absent or unreadable).
    NotCached {
        /// The miss, verbatim.
        reason: String,
    },
    /// Typed refusal: the entry was written under a different store
    /// schema version.
    SchemaMismatch {
        /// The entry's schema version.
        found: u32,
        /// The version this server speaks.
        expected: u32,
    },
    /// Typed refusal: the entry's recorded fingerprint disagrees with
    /// the one its address demands.
    FingerprintMismatch {
        /// Fingerprint in the entry header.
        found: String,
        /// Fingerprint the token derivation expects.
        expected: String,
    },
    /// The query itself is malformed (unknown algorithm, degenerate
    /// grid, a spec that does not build).
    BadQuery {
        /// What was wrong with it.
        reason: String,
    },
    /// Acknowledges [`Query::Shutdown`].
    Bye,
}

/// Runs the sweep service until a [`Query::Shutdown`] arrives: installs
/// `session` (whose store the compute path reads through and writes
/// back to, and the token path reads), binds a loopback socket,
/// publishes its address to `addr_file` (atomically, for pollers), and
/// answers queries one connection at a time. A connection that sends
/// nothing for `READ_TIMEOUT` is dropped.
///
/// # Errors
///
/// Returns a message when the socket or the address file cannot be set
/// up, or when `accept` itself fails; a *per-connection* failure
/// (malformed frame, peer gone, read timeout) is logged to stderr and
/// the server keeps serving.
pub fn serve(session: Session, addr_file: Option<&Path>, runner: &Runner) -> Result<(), String> {
    crate::session::install(session);
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("socket has no local address: {e}"))?
        .to_string();
    if let Some(path) = addr_file {
        publish_addr(path, &addr)?;
    }
    eprintln!("serve: answering sweep queries on {addr}");
    loop {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accept failed: {e}"))?;
        let served = stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("cannot set a read timeout: {e}"))
            .and_then(|()| converse(stream, runner));
        match served {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("serve: connection from {peer} failed: {e}"),
        }
    }
}

/// Writes the address file atomically (temp + rename), so a poller
/// never reads a half-written address.
fn publish_addr(path: &Path, addr: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
    Ok(())
}

/// Answers every query on one connection. `Ok(true)` means a
/// `Shutdown` was served and the whole server should exit; `Ok(false)`
/// is the client closing cleanly.
fn converse(mut stream: TcpStream, runner: &Runner) -> Result<bool, String> {
    loop {
        let query: Option<Query> =
            read_json_frame(&mut stream, "a query").map_err(|e| e.to_string())?;
        let Some(query) = query else {
            return Ok(false);
        };
        let shutdown = matches!(query, Query::Shutdown);
        let reply = answer(query, runner);
        write_json_frame(&mut stream, &reply, "a reply").map_err(|e| e.to_string())?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Answers one query against the installed session's store: the
/// server's reply, and `query --direct`'s in its own process.
#[must_use]
pub fn answer(query: Query, runner: &Runner) -> Reply {
    match query {
        Query::Shutdown => Reply::Bye,
        Query::Token { token } => {
            let session = crate::session::current();
            let Some(store) = &session.store else {
                return Reply::NotCached {
                    reason: "no result store to read".into(),
                };
            };
            match store.load_token(&token) {
                Ok(entry) => Reply::Report {
                    cached: true,
                    token,
                    report: entry.report,
                },
                Err(miss) => refuse(miss),
            }
        }
        Query::Grid {
            algorithm,
            spec,
            l,
            cap,
        } => grid_reply(&algorithm, spec, l, cap, runner),
    }
}

/// Maps a typed store miss onto the wire refusal of the same shape.
fn refuse(miss: Miss) -> Reply {
    match miss {
        Miss::SchemaMismatch { found } => Reply::SchemaMismatch {
            found,
            expected: SCHEMA_VERSION,
        },
        Miss::FingerprintMismatch { found, expected } => {
            Reply::FingerprintMismatch { found, expected }
        }
        other => Reply::NotCached {
            reason: other.to_string(),
        },
    }
}

/// The cached-or-computed path ([`answer_spec_query`]): validates the
/// query, builds its grid once and sweeps it through the recorded path,
/// which serves from / records into the session's store. That one store
/// lookup is also the reply's `cached` flag.
fn grid_reply(algorithm: &str, spec: GraphSpec, l: u64, cap: usize, runner: &Runner) -> Reply {
    match answer_spec_query(algorithm, spec, l, cap, runner) {
        Ok((report, cached, key)) => Reply::Report {
            cached,
            token: key.token().to_string(),
            report,
        },
        Err(reason) => Reply::BadQuery { reason },
    }
}

/// Client side: one query round-trip against a running server.
///
/// # Errors
///
/// Returns a message when the connection, the send, or the receive
/// fails, or when the server closes without replying.
pub fn ask(addr: &str, query: &Query) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_json_frame(&mut stream, query, "a query").map_err(|e| e.to_string())?;
    match read_json_frame(&mut stream, "a reply").map_err(|e| e.to_string())? {
        Some(reply) => Ok(reply),
        None => Err(format!("{addr} closed the connection without replying")),
    }
}
