//! The three application programs the workloads serve, and the Pyxis
//! pipeline that partitions them, timed stage by stage.

use crate::trace::Clock;
use pyx_core::{Pyxis, PyxisConfig};
use pyx_db::Engine;
use pyx_partition::Placement;
use pyx_pyxil::CompiledPartition;
use pyx_server::Workload;
use pyx_workloads::{tpcc, tpcw};
use std::sync::Arc;

/// Pyxis CPU budget of every workload, as a fraction of the profiled
/// load allowed on the DB host, as in the paper's TPC-C scenario
/// (`scenarios::TpccEnv::build(2.0)`).
pub const BUDGET: f64 = 2.0;

/// Seed of every workload's base data.
pub const LOAD_SEED: u64 = 7;
/// Seed of the requests every workload's profiling run replays.
pub const PROFILE_SEED: u64 = 11;

/// An application program with its data, request mix and profiling plan.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    pub kind: Kind,
    /// Requests the profiling run replays.
    pub profile_txns: usize,
}

/// Which program, and the knobs its request generator takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// TPC-C new-order with `lines` order lines per order.
    NewOrder {
        scale: tpcc::TpccScale,
        lines: (usize, usize),
    },
    /// TPC-W browsing interactions plus `write_pct`% admin writes on hot
    /// items.
    ReadMostly {
        scale: tpcw::TpcwScale,
        write_pct: u32,
    },
    /// TPC-C remote-warehouse mix: new-orders whose lines may name a
    /// remote supply warehouse, and payments that may settle a remote
    /// customer.
    RemoteMix {
        scale: tpcc::TpccScale,
        lines: (usize, usize),
    },
}

impl Program {
    pub fn src(&self) -> &'static str {
        match self.kind {
            Kind::NewOrder { .. } => tpcc::SRC,
            Kind::ReadMostly { .. } => tpcw::SRC_READ_MOSTLY,
            Kind::RemoteMix { .. } => tpcc::REMOTE_SRC,
        }
    }

    /// Create the schema and bulk-load the base data into `e`.
    pub fn load(&self, e: &mut Engine) {
        match self.kind {
            Kind::NewOrder { scale, .. } | Kind::RemoteMix { scale, .. } => {
                tpcc::create_schema(e);
                tpcc::load(e, scale, LOAD_SEED);
            }
            Kind::ReadMostly { scale, .. } => {
                tpcw::create_schema(e);
                tpcw::load(e, scale, LOAD_SEED);
            }
        }
    }

    pub fn fresh_engine(&self) -> Engine {
        let mut e = Engine::new();
        self.load(&mut e);
        e
    }

    /// The request generator for `seed`. The program only ever sees the
    /// requests it produces.
    pub fn generator(&self, pyxis: &Pyxis, seed: u64) -> Box<dyn Workload + Send> {
        match self.kind {
            Kind::NewOrder { scale, lines } => {
                let entry = pyxis.entry("NewOrder", "run").expect("new-order entry");
                Box::new(tpcc::NewOrderGen::new(entry, scale, seed).with_lines(lines.0, lines.1))
            }
            Kind::ReadMostly { scale, write_pct } => {
                let entries = tpcw::ReadMostlyEntries::find(&pyxis.prog);
                Box::new(tpcw::ReadMostlyMix::new(entries, scale, write_pct, seed))
            }
            Kind::RemoteMix { scale, lines } => {
                let order = pyxis
                    .entry("RemoteOrder", "remoteOrder")
                    .expect("order entry");
                let pay = pyxis.entry("RemoteOrder", "pay").expect("pay entry");
                Box::new(
                    tpcc::RemoteMixGen::new(order, pay, scale, seed)
                        .with_remote_pct(0.10)
                        .with_payment_pct(0.30)
                        .with_lines(lines.0, lines.1),
                )
            }
        }
    }
}

/// Milliseconds spent in each pipeline stage of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub compile_ms: f64,
    pub analyze_ms: f64,
    pub profile_ms: f64,
    pub graph_ms: f64,
    pub solve_ms: f64,
    pub deploy_ms: f64,
    /// Schema creation and bulk load of every database the set-up
    /// builds: the profiling database and the serving database(s).
    pub load_ms: f64,
}

/// A compiled, profiled and partitioned application.
pub struct App {
    pub pyxis: Pyxis,
    pub placement: Placement,
    /// Shared with the socket server's worker threads.
    pub part: Arc<CompiledPartition>,
}

fn ms_since(clock: &Clock, t0: u64) -> f64 {
    (clock.ns() - t0) as f64 / 1e6
}

/// Run the Pyxis pipeline on `program` and solve for [`BUDGET`]. Each stage is timed by
/// calling it directly: `pyx_lang::compile`, `pyx_analysis::analyze`,
/// `Pyxis::profile`, `Pyxis::graph`, `Pyxis::partition`, `Pyxis::deploy`.
pub fn build(program: &Program, stages: &mut Stages) -> App {
    let clock = Clock::new();
    let config = PyxisConfig::default();

    let t = clock.ns();
    let prog = pyx_lang::compile(program.src()).expect("benchmark program compiles");
    stages.compile_ms += ms_since(&clock, t);

    let t = clock.ns();
    let analysis = pyx_analysis::analyze(&prog, config.analysis);
    stages.analyze_ms += ms_since(&clock, t);
    let pyxis = Pyxis {
        prog,
        analysis,
        config,
    };

    let t = clock.ns();
    let mut scratch = program.fresh_engine();
    stages.load_ms += ms_since(&clock, t);

    let mut gen = program.generator(&pyxis, PROFILE_SEED);
    let t = clock.ns();
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..program.profile_txns).map(|i| {
                let r = gen.next_txn(i);
                (r.entry, r.args)
            }),
        )
        .expect("profiling run");
    stages.profile_ms += ms_since(&clock, t);

    let t = clock.ns();
    let graph = pyxis.graph(&profile);
    stages.graph_ms += ms_since(&clock, t);

    let t = clock.ns();
    let placement = pyxis.partition(&graph, BUDGET);
    stages.solve_ms += ms_since(&clock, t);

    let t = clock.ns();
    let part = Arc::new(pyxis.deploy(placement.clone()));
    stages.deploy_ms += ms_since(&clock, t);

    App {
        pyxis,
        placement,
        part,
    }
}
