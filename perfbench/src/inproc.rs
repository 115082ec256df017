//! In-process serving: a closed loop of client sessions driven through
//! one `Dispatcher` with `InstantEnv`, on one thread.

use crate::stats::Samples;
use crate::trace::{Clock, CountingEnv, EnvCounts, Layer, SpanLog, TracedDb};
use pyx_db::{Engine, EngineStats};
use pyx_server::{Admit, Dispatcher, Env, InstantEnv, Polled, Workload};
use std::collections::BTreeMap;

/// Everything one phase of the closed loop observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Samples,
    /// Wall time until the last in-flight transaction retired.
    pub wall_ns: u64,
    /// Wall time until the last request was submitted; the drain after
    /// it runs with fewer sessions than the loop has.
    pub full_ns: u64,
    pub submitted: u64,
    pub completed: u64,
    pub rolled_back: u64,
    pub errors: u64,
    pub first_error: Option<String>,
    pub rejected: u64,
    /// Retired without error and not rolled back, by request label.
    pub committed: BTreeMap<&'static str, u64>,
    pub polls: u64,
    /// Wait-die restarts (`DispatcherStats::deadlock_restarts`).
    pub restarts: u64,
    pub read_only_restarts: u64,
    /// VM instructions executed (`DispatcherStats::vm_instrs`).
    pub vm_instrs: u64,
    pub engine: EngineStats,
    pub env: EnvCounts,
    pub log: Option<SpanLog>,
}

impl Phase {
    /// Add another phase's counts, samples and spans to this one.
    pub fn absorb(&mut self, o: Phase) {
        self.samples.extend(&o.samples);
        self.wall_ns += o.wall_ns;
        self.full_ns += o.full_ns;
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.rolled_back += o.rolled_back;
        self.errors += o.errors;
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        self.rejected += o.rejected;
        for (k, v) in o.committed {
            *self.committed.entry(k).or_default() += v;
        }
        self.polls += o.polls;
        self.restarts += o.restarts;
        self.read_only_restarts += o.read_only_restarts;
        self.vm_instrs += o.vm_instrs;
        self.engine.merge(&o.engine);
        let (a, b) = (&mut self.env, &o.env);
        a.transfers += b.transfers;
        a.transfer_bytes += b.transfer_bytes;
        a.app_db_ops += b.app_db_ops;
        match (&mut self.log, o.log) {
            (Some(a), Some(b)) => a.absorb(&b),
            (a @ None, b) => *a = b,
            (Some(_), None) => {}
        }
    }
}

enum Db<'e> {
    Plain(&'e mut Engine),
    Traced(TracedDb<'e>),
}

/// Engine counters of `after` minus `before` for the fields the benchmark
/// reads.
pub fn engine_delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        statements: after.statements - before.statements,
        commits: after.commits - before.commits,
        aborts: after.aborts - before.aborts,
        would_blocks: after.would_blocks - before.would_blocks,
        deadlocks: after.deadlocks - before.deadlocks,
        rows_examined: after.rows_examined - before.rows_examined,
        snapshot_reads: after.snapshot_reads - before.snapshot_reads,
        versions_created: after.versions_created - before.versions_created,
        versions_gced: after.versions_gced - before.versions_gced,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
        prepares: after.prepares - before.prepares,
        ..EngineStats::default()
    }
}

/// Virtual time between the arrival batches of [`arrival_ns`]: 1 ms, the
/// dispatcher's default restart delay. It is the benchmark's own constant,
/// not read from `DispatcherConfig::restart_delay_ns`, so that a change to
/// the restart policy changes the order of events and shows in the
/// figures.
pub const ARRIVAL_STEP_NS: u64 = 1_000_000;

/// The virtual time at which the `tag`-th request of a loop of
/// `sessions` clients arrives: one [`ARRIVAL_STEP_NS`] later per
/// `sessions` arrivals. The dispatcher orders its events by virtual time
/// and `InstantEnv` prices all work at zero, so arrivals must be what
/// advances it. Requests arriving at one instant interleave step by step
/// and contend for locks; a wait-die victim, rescheduled one restart
/// delay later, runs once the requests that arrived before it have
/// drained. (Were every request to arrive at one instant, new arrivals
/// would always sort ahead of it and it would starve until the loop
/// stopped submitting.) The schedule is a function of the inputs alone.
pub fn arrival_ns(tag: u64, sessions: usize) -> u64 {
    tag / sessions as u64 * ARRIVAL_STEP_NS
}

/// Run one phase of a closed loop of `sessions` clients that submits
/// `txns` requests and waits for all of them to retire. With `traced`
/// the engine and environment are wrapped and every dispatcher call is
/// recorded as a span; without it they are passed through untouched.
pub fn run_phase(
    disp: &mut Dispatcher<'_>,
    engine: &mut Engine,
    gen: &mut dyn Workload,
    sessions: usize,
    txns: u64,
    traced: bool,
) -> Phase {
    let clock = Clock::new();
    let disp_before = disp.stats();
    let eng_before = engine.stats.clone();
    let mut db = if traced {
        Db::Traced(TracedDb::new(engine, SpanLog::new(clock)))
    } else {
        Db::Plain(engine)
    };
    let mut plain_env = InstantEnv;
    let mut counting_env = CountingEnv::new(InstantEnv);
    let env: &mut dyn Env = if traced {
        &mut counting_env
    } else {
        &mut plain_env
    };

    let mut ph = Phase::default();
    let mut submit_ns: Vec<u64> = Vec::new();
    let mut stopping = false;
    loop {
        while !stopping && disp.active_sessions() + disp.queue_len() < sessions {
            if ph.submitted == txns {
                stopping = true;
                ph.full_ns = clock.ns();
                break;
            }
            let tag = ph.submitted;
            let req = match &mut db {
                Db::Traced(t) => {
                    let g0 = t.log.now();
                    let r = gen.next_txn(tag as usize);
                    let g1 = t.log.now();
                    let id = t.log.reserve();
                    t.log.record(id, Layer::Gen, g0, g1, 0, tag);
                    r
                }
                Db::Plain(_) => gen.next_txn(tag as usize),
            };
            let ts = clock.ns();
            let now = arrival_ns(tag, sessions);
            let admit = disp.submit(now, req, tag);
            if let Db::Traced(t) = &mut db {
                let te = t.log.now();
                let id = t.log.reserve();
                t.log.record(id, Layer::Submit, ts, te, 0, tag);
            }
            match admit {
                Admit::Started | Admit::Queued { .. } => {
                    submit_ns.push(ts);
                    ph.submitted += 1;
                }
                Admit::Rejected => {
                    ph.rejected += 1;
                    break;
                }
                Admit::Unavailable => unreachable!("a single dispatcher has no workers to lose"),
            }
        }

        ph.polls += 1;
        let polled = match &mut db {
            Db::Plain(e) => disp.poll(&mut **e, env),
            Db::Traced(t) => {
                let id = t.log.reserve();
                t.parent = id;
                let p0 = t.log.now();
                let r = disp.poll(t, env);
                let p1 = t.log.now();
                let req = match &r {
                    Polled::Done(d) => d.tag,
                    _ => 0,
                };
                t.log.record(id, Layer::Poll, p0, p1, 0, req);
                r
            }
        };
        match polled {
            Polled::Done(d) => {
                let tf = clock.ns();
                let lat = tf - submit_ns[d.tag as usize];
                ph.samples.push(tf, lat);
                ph.completed += 1;
                match d.error {
                    Some(e) => {
                        ph.errors += 1;
                        ph.first_error
                            .get_or_insert(format!("txn {} ({}): {e}", d.tag, d.label));
                    }
                    None if d.rolled_back => ph.rolled_back += 1,
                    None => *ph.committed.entry(d.label).or_default() += 1,
                }
                if stopping && ph.completed == ph.submitted {
                    break;
                }
            }
            Polled::Progress => {}
            Polled::Idle => {
                // The fill loop only stops short of `sessions` once it is
                // stopping, so an idle dispatcher must have nothing left.
                assert_eq!(
                    ph.completed, ph.submitted,
                    "dispatcher idle with transactions in flight"
                );
                break;
            }
        }
    }
    ph.wall_ns = clock.ns();
    let d = disp.stats();
    ph.restarts = d.deadlock_restarts - disp_before.deadlock_restarts;
    ph.read_only_restarts = d.read_only_restarts - disp_before.read_only_restarts;
    ph.vm_instrs = d.vm_instrs - disp_before.vm_instrs;
    ph.env = counting_env.counts;
    let engine = match db {
        Db::Plain(e) => e,
        Db::Traced(t) => {
            ph.log = Some(t.log);
            t.inner
        }
    };
    ph.engine = engine_delta(&engine.stats, &eng_before);
    ph
}
