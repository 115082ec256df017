//! Multi-partition fraction vs throughput through the 2PC coordinator
//! pool (EXPERIMENTS.md table).
//!
//! Sweeps the fraction of cross-shard transactions in a TPC-C
//! remote-warehouse mix (remote-supplier new-orders + remote-customer
//! payments) over {0, 5, 10, 15, 25}% and runs the request stream
//! through a 4-shard [`ShardedServer`] with concurrent submission (a full
//! admission window, refilled as transactions retire), so 2PC stalls
//! only each transaction's participants.
//!
//! Each point is checked against one [`Dispatcher`] over one unsharded
//! engine running the same stream serialized: the concurrent run must
//! retire every transaction without error, count exactly the stream's
//! cross-shard transactions, and leave the same per-table row counts
//! (the counts do not depend on interleaving); a serialized pass through
//! the sharded server must then match the single engine result for
//! result and row for row. Any divergence exits nonzero.
//!
//! ```sh
//! cargo run --release -p pyx-bench --bin multipart [txns]
//! ```

use pyx_db::{Engine, Scalar};
use pyx_pyxil::CompiledPartition;
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, InstantEnv, ShardedConfig, ShardedServer,
    TxnDone, TxnRequest, Workload,
};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const SEED: u64 = 5;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    }
}

fn fresh_shards(seed: u64) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..SHARDS)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale(), seed);
    engines
}

/// Every table's rows, merged over `engines`: shard-keyed tables as the
/// sorted union of all shards, replicated tables as shard 0's copy.
fn state(engines: &[Engine]) -> Vec<(String, Vec<Vec<Scalar>>)> {
    engines[0]
        .table_names()
        .into_iter()
        .map(|t| {
            let sharded = engines[0].table_def(&t).expect("table").shard_key.is_some();
            let from = if sharded { engines } else { &engines[..1] };
            let mut rows: Vec<Vec<Scalar>> = from.iter().flat_map(|e| e.dump_table(&t)).collect();
            rows.sort_by(|a, b| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            (t, rows)
        })
        .collect()
}

/// The reference: the stream serialized through one dispatcher over one
/// unsharded engine.
fn run_single(part: &CompiledPartition, reqs: &[TxnRequest]) -> (Vec<TxnDone>, Engine) {
    let mut engine = Engine::new();
    tpcc::create_schema(&mut engine);
    tpcc::load(&mut engine, scale(), SEED);
    let mut disp = Dispatcher::new(
        Deployment::Fixed(part),
        &mut engine,
        DispatcherConfig::default(),
    );
    let mut done = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        assert_eq!(disp.submit(0, req.clone(), i as u64), Admit::Started);
        done.extend(disp.run_until_idle(&mut engine, &mut InstantEnv));
    }
    (done, engine)
}

struct RunStats {
    secs: f64,
    multi: u64,
    mean_participants: f64,
    prepares: u64,
    errors: u64,
    done: Vec<TxnDone>,
    engines: Vec<Engine>,
}

/// Run the stream through a fresh 4-shard server: all at once
/// (concurrent) or one transaction at a time (`serial`).
fn run(part: &Arc<CompiledPartition>, reqs: &[TxnRequest], serial: bool) -> RunStats {
    let engines = fresh_shards(SEED);
    let mut srv = ShardedServer::new(
        Arc::clone(part),
        engines,
        ShardedConfig {
            shards: SHARDS,
            ..ShardedConfig::default()
        },
    );
    let mut done = Vec::with_capacity(reqs.len());
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        loop {
            match srv.submit(req.clone(), i as u64) {
                Admit::Started | Admit::Queued { .. } => break,
                // Window full: retire one transaction, then retry.
                Admit::Rejected => done.extend(srv.recv_done()),
                // A worker death surfaces here; the bounded-retry
                // path reaps the corpse and, when healing is
                // configured, rides out the failover window.
                Admit::Unavailable => match srv.submit_with_retry(req.clone(), i as u64, 8) {
                    Admit::Started | Admit::Queued { .. } => break,
                    other => panic!("shard stayed unavailable after retries: {other:?}"),
                },
            }
        }
        if serial {
            done.extend(srv.recv_done());
        }
    }
    done.extend(srv.drain());
    let secs = start.elapsed().as_secs_f64();
    let (_, report) = srv.shutdown();
    let merged = report.merged_engine_stats();
    done.sort_by_key(|d| d.tag);
    RunStats {
        secs,
        multi: report.multi_txns,
        mean_participants: if report.multi_txns > 0 {
            report.multi_participants as f64 / report.multi_txns as f64
        } else {
            0.0
        },
        prepares: merged.prepares,
        errors: done.iter().filter(|d| d.error.is_some()).count() as u64,
        done,
        engines: report.engines,
    }
}

fn main() {
    let txns: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let pyxis = pyx_core::Pyxis::compile(tpcc::REMOTE_SRC, pyx_core::PyxisConfig::default())
        .expect("remote TPC-C compiles");
    let part = Arc::new(pyxis.deploy_jdbc());
    let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
    let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");

    println!("# multi-partition fraction sweep: {txns} txns, {SHARDS} shards, 2PC");
    println!("remote%\ttxn/s\tmulti\tmean_parts\tprepares\terrors");
    for pct in [0.0, 0.05, 0.10, 0.15, 0.25] {
        let mut g = tpcc::RemoteMixGen::new(order, pay, scale(), 17)
            .with_remote_pct(pct)
            .with_lines(2, 5);
        let reqs: Vec<TxnRequest> = (0..txns).map(|i| g.next_txn(i)).collect();
        let remote = reqs.iter().filter(|r| r.route.is_none()).count() as u64;
        let (single, single_engine) = run_single(&part, &reqs);
        let single_state = state(std::slice::from_ref(&single_engine));

        let s = run(&part, &reqs, false);
        println!(
            "{:.0}\t{:.0}\t{}\t{:.2}\t{}\t{}",
            pct * 100.0,
            txns as f64 / s.secs,
            s.multi,
            s.mean_participants,
            s.prepares,
            s.errors,
        );
        assert_eq!(s.errors, 0, "healthy sweep");
        assert_eq!(s.multi, remote, "every cross-shard request ran through 2PC");
        let counts = |st: &[(String, Vec<Vec<Scalar>>)]| {
            st.iter()
                .map(|(t, rows)| (t.clone(), rows.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counts(&state(&s.engines)),
            counts(&single_state),
            "per-table row counts match the single engine"
        );

        let serial = run(&part, &reqs, true);
        assert_eq!(serial.errors, 0, "healthy serialized pass");
        for (a, b) in single.iter().zip(&serial.done) {
            assert_eq!(
                (a.tag, &a.result, a.rolled_back),
                (b.tag, &b.result, b.rolled_back),
                "serialized result matches the single engine ({})",
                a.label
            );
        }
        assert_eq!(
            state(&serial.engines),
            single_state,
            "serialized final state matches the single engine"
        );
    }
}
