//! Socket serving: a `NetServer` in this process serves a 2-shard
//! `ShardedServer` (2PC coordinators, one `FileSink` WAL per shard) over
//! a Unix-domain socket to closed-loop `NetClient` threads, each with one
//! connection and one request in flight.

use crate::apps::{App, Kind, Program};
use crate::stats::{self, Samples};
use crate::trace::{Clock, Layer, SpanLog};
use pyx_db::{Engine, FileSink};
use pyx_server::net::{
    Listener, NetAddr, NetClient, NetClientCfg, NetServer, NetServerCfg, NetServerHandle, SocketEnv,
};
use pyx_server::{ShardedConfig, ShardedReport, ShardedServer, Workload};
use pyx_workloads::tpcc;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub const SHARDS: usize = 2;
pub const COORDINATORS: usize = 2;
pub const CLIENTS: usize = 2;
/// Commits per WAL flush; workers also flush at every acknowledgement.
pub const GROUP_COMMIT: usize = 16;

/// A running server and its connected clients.
pub struct Served {
    pub handle: NetServerHandle,
    pub addr: NetAddr,
    pub clients: Vec<NetClient>,
    pub wal_paths: Vec<PathBuf>,
    sock_path: PathBuf,
}

fn sharded_engines(program: &Program) -> Vec<Engine> {
    let Kind::RemoteMix { scale, .. } = program.kind else {
        unreachable!("the socket workload serves the remote mix")
    };
    let mut engines: Vec<Engine> = (0..SHARDS)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale, crate::apps::LOAD_SEED);
    engines
}

/// Load the shards, attach their logs, start serving on a fresh socket
/// under `dir`, and connect the clients. Returns the time spent loading
/// (part of `db.load_ms`) in milliseconds.
pub fn start(app: &App, program: &Program, dir: &Path, idx: usize) -> (Served, f64) {
    let clock = Clock::new();
    let mut engines = sharded_engines(program);
    let load_ms = clock.ns() as f64 / 1e6;
    let wal_paths: Vec<PathBuf> = (0..SHARDS)
        .map(|s| dir.join(format!("setup{idx}-shard{s}.wal")))
        .collect();
    {
        let paths = &wal_paths;
        ShardedServer::attach_shard_wals(&mut engines, GROUP_COMMIT, |i| {
            Box::new(FileSink::create(&paths[i]).expect("create WAL file"))
        });
    }
    let sock_path = dir.join(format!("setup{idx}.sock"));
    let _ = std::fs::remove_file(&sock_path);
    let listener = Listener::bind(&NetAddr::Uds(sock_path.clone())).expect("bind UDS listener");
    let part = Arc::clone(&app.part);
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part,
                engines,
                ShardedConfig {
                    shards: SHARDS,
                    coordinators: COORDINATORS,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let addr = handle.addr().clone();
    let clients = (0..CLIENTS)
        .map(|c| {
            let cfg = NetClientCfg {
                client_id: 1 + c as u64,
                ..NetClientCfg::default()
            };
            NetClient::connect(&addr, cfg).expect("client connects")
        })
        .collect();
    (
        Served {
            handle,
            addr,
            clients,
            wal_paths,
            sock_path,
        },
        load_ms,
    )
}

impl Served {
    /// Close the clients, stop the server and return its report.
    pub fn shutdown(self) -> (ShardedReport, Vec<PathBuf>) {
        for c in self.clients {
            c.close();
        }
        let report = self.handle.shutdown();
        let _ = std::fs::remove_file(&self.sock_path);
        (report, self.wal_paths)
    }
}

/// One client's closed loop.
pub struct ClientLoop {
    pub client: NetClient,
    pub gen: Box<dyn Workload + Send>,
    pub next_tag: u64,
}

/// What one client saw in one phase.
#[derive(Debug, Default)]
pub struct ClientPhase {
    pub samples: Samples,
    pub home: Samples,
    pub remote: Samples,
    pub submitted: u64,
    pub rolled_back: u64,
    pub new_orders: u64,
    pub errors: u64,
    pub unknown: u64,
    pub first_error: Option<String>,
    /// Retirements whose tag was not the one request in flight, or that
    /// arrived more than once.
    pub misrouted: u64,
    pub busy_ns: u64,
    pub log: Option<SpanLog>,
}

fn is_remote(label: &str) -> bool {
    label.ends_with("-remote")
}

/// Retirements of all clients of a phase, and the peak resident set read
/// when their count first reached `rss_at`.
struct Progress {
    retired: AtomicU64,
    rss_at: u64,
    peak_rss_mb: OnceLock<f64>,
}

/// Drive one client until `stop_ns` on `clock`, and on past it until the
/// phase has retired `progress.rss_at` requests. Submission and retirement
/// are timed per request; with `traced` they are also recorded as spans.
fn client_phase(
    c: &mut ClientLoop,
    clock: Clock,
    stop_ns: u64,
    traced: bool,
    progress: &Progress,
) -> ClientPhase {
    let mut ph = ClientPhase {
        log: traced.then(|| SpanLog::new(clock)),
        ..ClientPhase::default()
    };
    let t_begin = clock.ns();
    loop {
        let tag = c.next_tag;
        let g0 = clock.ns();
        let req = c.gen.next_txn(tag as usize);
        let ts = clock.ns();
        c.client.submit(req, tag);
        let tsub = if traced { clock.ns() } else { ts };
        c.next_tag += 1;
        ph.submitted += 1;
        let d = c.client.recv_done();
        let tf = clock.ns();
        if let Some(log) = &mut ph.log {
            let id = log.reserve();
            log.record(id, Layer::Gen, g0, ts, 0, tag);
            let id = log.reserve();
            log.record(id, Layer::NetSubmit, ts, tsub, 0, tag);
            let id = log.reserve();
            log.record(id, Layer::NetRecv, tsub, tf, 0, tag);
        }
        let Some(d) = d else {
            ph.misrouted += 1;
            break;
        };
        if d.tag != tag || c.client.in_flight() != 0 {
            ph.misrouted += 1;
        }
        ph.samples.push(tf, tf - ts);
        if traced {
            let s = if is_remote(d.label) {
                &mut ph.remote
            } else {
                &mut ph.home
            };
            s.push(tf, tf - ts);
        }
        match d.error {
            Some(e) if e.contains("outcome unknown") => {
                ph.unknown += 1;
                ph.first_error.get_or_insert(format!("txn {tag}: {e}"));
            }
            Some(e) => {
                ph.errors += 1;
                ph.first_error
                    .get_or_insert(format!("txn {tag} ({}): {e}", d.label));
            }
            None if d.rolled_back => ph.rolled_back += 1,
            None if d.label.starts_with("new-order") => ph.new_orders += 1,
            None => {}
        }
        let retired = progress.retired.fetch_add(1, Ordering::Relaxed) + 1;
        if retired == progress.rss_at {
            let _ = progress.peak_rss_mb.set(stats::peak_rss_mb());
        }
        if tf >= stop_ns && retired >= progress.rss_at {
            break;
        }
    }
    ph.busy_ns = clock.ns() - t_begin;
    ph
}

/// What all clients saw in one phase.
pub struct PhaseRun {
    pub clients: Vec<ClientPhase>,
    pub wall_ns: u64,
    /// Socket echo round trips sampled during a traced phase.
    pub echo_ns: Vec<u64>,
    /// Peak resident set once the phase had retired `rss_at` requests.
    pub peak_rss_mb: Option<f64>,
}

/// Run every client for `dur_ns` on its own thread. With `rss_at` > 0
/// the peak resident set is read when the clients together have retired
/// `rss_at` requests, and the phase runs until they have: the database
/// grows with every commit, so memory is compared at a fixed amount of
/// work, not at a fixed time. With `traced`, this thread meanwhile
/// samples the socket echo round trip (`SocketEnv::round_trip_ns(128,
/// 128)`) every 10 ms on a connection of its own.
pub fn run_phase(
    loops: &mut [ClientLoop],
    addr: &NetAddr,
    dur_ns: u64,
    rss_at: u64,
    traced: bool,
) -> PhaseRun {
    let clock = Clock::new();
    let progress = Progress {
        retired: AtomicU64::new(0),
        rss_at,
        peak_rss_mb: OnceLock::new(),
    };
    let mut echo_ns = Vec::new();
    let clients = std::thread::scope(|s| {
        let progress = &progress;
        let joins: Vec<_> = loops
            .iter_mut()
            .map(|c| s.spawn(move || client_phase(c, clock, dur_ns, traced, progress)))
            .collect();
        if traced {
            let mut env =
                SocketEnv::connect(addr, Duration::from_secs(2)).expect("echo connection");
            while clock.ns() < dur_ns {
                echo_ns.push(env.round_trip_ns(128, 128));
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    PhaseRun {
        clients,
        wall_ns: clock.ns(),
        echo_ns,
        peak_rss_mb: progress.peak_rss_mb.get().copied(),
    }
}

/// Replay each shard's WAL file into a freshly loaded engine and compare
/// it with the live shard: same commit horizon, same row count in every
/// table.
pub fn check_wal_replay(
    program: &Program,
    report: &ShardedReport,
    wal_paths: &[PathBuf],
) -> Result<(), String> {
    let mut fresh = sharded_engines(program);
    for (s, live) in report.engines.iter().enumerate() {
        let log =
            FileSink::read_log(&wal_paths[s]).map_err(|e| format!("shard {s}: read WAL: {e}"))?;
        let oracle = &mut fresh[s];
        oracle
            .recover(&log)
            .map_err(|e| format!("shard {s}: WAL replay failed: {e}"))?;
        if oracle.current_commit_ts() != live.current_commit_ts() {
            return Err(format!(
                "shard {s}: replayed commit horizon {} != live {}",
                oracle.current_commit_ts(),
                live.current_commit_ts()
            ));
        }
        for t in live.table_names() {
            let (a, b) = (oracle.table_len(&t), live.table_len(&t));
            if a != b {
                return Err(format!("shard {s} table {t}: replayed {a} rows, live {b}"));
            }
        }
    }
    Ok(())
}
