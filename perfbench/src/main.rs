//! The repository's benchmark: serves TPC-C and TPC-W through the Pyxis
//! stack and reports end-to-end metrics (untraced runs) or per-layer
//! metrics (traced runs). See `perfbench/README.md` for the workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--workdir <dir>] [--outdir <dir>] [--revision <id>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it holds the run's details (host, revision, sample
//! counts, checks). A failed output check prints `"correct": false` and
//! exits with status 1.

mod apps;
mod inproc;
mod model;
mod out;
mod socket;
mod stats;
mod trace;

use apps::{App, Kind, Program, Stages};
use inproc::Phase;
use out::Obj;
use pyx_db::Engine;
use pyx_server::{Deployment, Dispatcher, DispatcherConfig};
use pyx_sim::SimResult;
use pyx_workloads::{tpcc, tpcw};
use stats::{median, peak_rss_mb, ratio, Samples, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::{Layer, SpanLog};

/// Set-ups before the measured phase; the socket workload repeats them
/// after it. `setup_s` is the median of all set-ups of a run.
const SETUPS: usize = 9;
/// Serving time between the set-ups the in-process workloads interleave
/// with their rounds, so that `setup_s` samples the host's speed across
/// the whole run and not at its ends alone.
const SETUP_EVERY_NS: u64 = 1_000_000_000;
/// Retirements after which a run reads its peak resident set, so that
/// memory is compared at a fixed amount of work: the socket workload's
/// shards grow with every commit, and in process the allocator's heap
/// grows with the rounds served.
const RSS_AT_TXNS: u64 = 8_000;
/// Windows the socket workload's measured phase is split into; its
/// figures are read from the fastest of them (`stats::FAST_Q`). At
/// ~1,500 retirements a second, a 30 s run gives each ~1,500 samples, so
/// a window's p99 has ten or more beyond it.
const WINDOWS: usize = 30;
/// Requests in one in-process round.
const ROUND_TXNS: u64 = 4_000;
/// Length of the windows an in-process round is split into; a run's
/// figures are read from the fastest of them (`stats::FAST_Q`). Those
/// retire 1,100–2,000 requests each, so a window's p99 has at least ten
/// beyond it.
const WINDOW_NS: u64 = 100_000_000;
/// Requests the traced run of the socket workload replays in process to
/// count control transfers of its partition.
const PROBE_TXNS: u64 = 2_000;

#[derive(Debug, Clone, Copy)]
enum Serving {
    /// One `Dispatcher` with `InstantEnv`, `sessions` closed-loop client
    /// sessions on one thread, in rounds of [`ROUND_TXNS`] requests.
    Inproc { sessions: usize },
    /// `NetServer` over UDS to `socket::CLIENTS` `NetClient` threads.
    Socket,
}

#[derive(Debug, Clone, Copy)]
struct Def {
    name: &'static str,
    program: Program,
    serving: Serving,
    /// Also model the JDBC partition and check Pyxis is faster.
    jdbc_reference: bool,
}

fn defs() -> Vec<Def> {
    vec![
        Def {
            name: "tpcc-inproc",
            program: Program {
                kind: Kind::NewOrder {
                    scale: tpcc::TpccScale::default(),
                    lines: (3, 8),
                },
                profile_txns: 200,
            },
            serving: Serving::Inproc { sessions: 32 },
            jdbc_reference: true,
        },
        Def {
            name: "tpcw-readmostly-inproc",
            program: Program {
                kind: Kind::ReadMostly {
                    scale: tpcw::TpcwScale::default(),
                    write_pct: 10,
                },
                profile_txns: 400,
            },
            serving: Serving::Inproc { sessions: 32 },
            jdbc_reference: false,
        },
        Def {
            name: "tpcc-socket-2pc",
            program: Program {
                kind: Kind::RemoteMix {
                    scale: tpcc::TpccScale::default(),
                    lines: (2, 5),
                },
                profile_txns: 200,
            },
            serving: Serving::Socket,
            jdbc_reference: false,
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: PathBuf,
    outdir: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--workdir",
            "--outdir",
            "--revision",
        ];
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown argument `{k}`"));
        }
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let req = |k: &str| kv.get(k).cloned().ok_or(format!("missing {k}"));
    let seconds: u64 = req("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a whole number".to_string())?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload: req("--workload")?,
        seed: req("--seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number".to_string())?,
        seconds,
        trace: match req("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        workdir: kv.get("--workdir").map_or_else(
            || PathBuf::from(".bench_build/perfbench-run"),
            PathBuf::from,
        ),
        outdir: kv.get("--outdir").map_or_else(
            || PathBuf::from(".bench_build/perfbench-out"),
            PathBuf::from,
        ),
        revision: kv
            .get("--revision")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

/// One named output check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// The served database a set-up leaves ready.
enum Backend {
    Inproc(Box<Engine>),
    Socket(socket::Served),
}

/// The program-level witness of committed work: rows in `orders` for the
/// TPC-C programs, the sum of `i_total_sold` for TPC-W.
fn witness(program: &Program, engines: &mut [&mut Engine]) -> i64 {
    engines
        .iter_mut()
        .map(|e| match program.kind {
            Kind::NewOrder { .. } | Kind::RemoteMix { .. } => e.table_len("orders") as i64,
            Kind::ReadMostly { .. } => {
                let r = e
                    .exec_auto("SELECT SUM(i_total_sold) FROM item", &[])
                    .expect("sum of i_total_sold");
                match r.rows.first().and_then(|row| row.first()) {
                    Some(pyx_db::Scalar::Int(v)) => *v,
                    other => panic!("SUM(i_total_sold) returned {other:?}"),
                }
            }
        })
        .sum()
}

/// How much the witness must grow for the committed requests, by label.
fn expected_witness(program: &Program, committed: &BTreeMap<&'static str, u64>) -> i64 {
    committed
        .iter()
        .map(|(label, n)| match program.kind {
            // Every committed new-order inserts one `orders` row.
            Kind::NewOrder { .. } | Kind::RemoteMix { .. } if label.starts_with("new-order") => {
                *n as i64
            }
            // Every committed admin update adds 1 to 4 distinct items.
            Kind::ReadMostly { .. } if *label == "admin-update" => 4 * *n as i64,
            _ => 0,
        })
        .sum()
}

fn phase_obj(traced: bool, seconds: f64, s: &Summary) -> Obj {
    Obj::new()
        .bool("traced", traced)
        .num("seconds", seconds)
        .num("txn_per_s", s.txn_per_s)
        .num("lat_p50_us", s.lat_p50_us)
        .num("lat_p99_us", s.lat_p99_us)
        .int("samples", s.samples() as u64)
        .int("windows", s.windows.len() as u64)
        .int("min_window_samples", s.min_window_samples() as u64)
        .raw(
            "window_txn_per_s",
            out::array(s.windows.iter().map(|w| out::num(w.txn_per_s))),
        )
        .raw(
            "window_p50_us",
            out::array(s.windows.iter().map(|w| out::num(w.p50_us))),
        )
        .raw(
            "window_p99_us",
            out::array(s.windows.iter().map(|w| out::num(w.p99_us))),
        )
}

/// Per-layer metrics of a traced run, with units, in `BENCHMARK.json`
/// order.
const PER_LAYER: [(&str, &str); 38] = [
    ("lang.compile_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("profile.profile_ms", "ms"),
    ("partition.graph_ms", "ms"),
    ("ilp.solve_ms", "ms"),
    ("pyxil.deploy_ms", "ms"),
    ("db.load_ms", "ms"),
    ("partition.db_stmt_frac", "frac"),
    ("runtime.transfers_per_txn", "count"),
    ("runtime.transfer_bytes", "B"),
    ("runtime.app_db_ops_per_txn", "count"),
    ("runtime.vm_self_ns_per_txn", "ns"),
    ("runtime.vm_instrs_per_txn", "count"),
    ("server.submit_ns_per_txn", "ns"),
    ("server.poll_ns_per_txn", "ns"),
    ("server.polls_per_txn", "count"),
    ("server.restart_frac", "frac"),
    ("server.home_lat_p50_us", "us"),
    ("server.remote_lat_p50_us", "us"),
    ("server.multi_frac", "frac"),
    ("server.participants_per_multi", "count"),
    ("db.stmt_ns", "ns"),
    ("db.stmts_per_txn", "count"),
    ("db.commit_ns", "ns"),
    ("db.rows_examined_per_stmt", "count"),
    ("db.snapshot_read_frac", "frac"),
    ("db.versions_gced_per_created", "frac"),
    ("db.would_block_per_txn", "count"),
    ("db.prepares_per_multi", "count"),
    ("db.wal_fsyncs_per_commit", "count"),
    ("db.wal_bytes_per_commit", "B"),
    ("net.echo_rtt_p50_us", "us"),
    ("sim.db_cpu_pct", "%"),
    ("sim.db_net_kbs", "KB/s"),
    ("sim.jdbc_lat_mean_ms", "ms"),
    ("workload.gen_ns_per_txn", "ns"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Everything a run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// (name, value, unit) in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Obj,
}

/// Figures of the served part that the metric tables read.
#[derive(Default)]
struct ServedFigures {
    untraced: Option<Summary>,
    traced: Option<Summary>,
    attempted: u64,
    failed: u64,
    /// Peak resident set once [`RSS_AT_TXNS`] requests had retired; every
    /// untraced run reads it.
    peak_rss_mb: Option<f64>,
    layers: BTreeMap<&'static str, f64>,
    detail: Obj,
}

/// One timed set-up; its wall time and stage times are appended.
fn set_up(
    def: &Def,
    args: &Args,
    k: usize,
    setup_s: &mut Vec<f64>,
    stages: &mut Vec<Stages>,
) -> (App, Backend) {
    let t = std::time::Instant::now();
    let mut st = Stages::default();
    let app = apps::build(&def.program, &mut st);
    let backend = match def.serving {
        Serving::Inproc { .. } => {
            let t = std::time::Instant::now();
            let e = def.program.fresh_engine();
            st.load_ms += t.elapsed().as_secs_f64() * 1e3;
            Backend::Inproc(Box::new(e))
        }
        Serving::Socket => {
            let (served, load_ms) = socket::start(&app, &def.program, &args.workdir, k);
            st.load_ms += load_ms;
            Backend::Socket(served)
        }
    };
    setup_s.push(t.elapsed().as_secs_f64());
    stages.push(st);
    (app, backend)
}

/// Stop a set-up that serves nothing.
fn tear_down(backend: Backend) {
    if let Backend::Socket(served) = backend {
        let (_, wals) = served.shutdown();
        for p in wals {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn run(def: &Def, args: &Args) -> Outcome {
    let mut checks = Vec::new();

    // Set-up, repeated: pipeline, load, and (socket) server start and
    // client connect. The last set-up before the measured phase serves it.
    let mut setup_s = Vec::with_capacity(2 * SETUPS);
    let mut stages: Vec<Stages> = Vec::with_capacity(2 * SETUPS);
    let mut kept: Option<(App, Backend)> = None;
    for k in 0..SETUPS {
        let (app, backend) = set_up(def, args, k, &mut setup_s, &mut stages);
        if k + 1 == SETUPS {
            kept = Some((app, backend));
        } else {
            tear_down(backend);
        }
    }
    let (app, backend) = kept.expect("at least one set-up");

    // The modelled testbed.
    let cfg = model::testbed();
    let pyx = model::simulate(&def.program, &app, &app.part, args.seed, &cfg);
    let mut jdbc: Option<SimResult> = None;
    if def.jdbc_reference {
        let again = model::simulate(&def.program, &app, &app.part, args.seed, &cfg);
        check(
            &mut checks,
            "model_repeats_exactly",
            model::same(&pyx, &again),
            format!(
                "two runs: {} / {} ms mean",
                pyx.avg_latency_ms, again.avg_latency_ms
            ),
        );
        let j = model::simulate(
            &def.program,
            &app,
            &app.pyxis.deploy_jdbc(),
            args.seed,
            &cfg,
        );
        check(
            &mut checks,
            "model_pyxis_below_jdbc",
            pyx.avg_latency_ms < j.avg_latency_ms,
            format!(
                "mean latency at {} tps offered: pyxis {} ms, jdbc {} ms",
                model::OFFERED_TPS,
                pyx.avg_latency_ms,
                j.avg_latency_ms
            ),
        );
        jdbc = Some(j);
    }
    check(
        &mut checks,
        "model_completes",
        pyx.completed > 0,
        format!("{} transactions modelled", pyx.completed),
    );

    let secs_ns = args.seconds * 1_000_000_000;
    let mut k = SETUPS;
    let mut another_set_up = || {
        tear_down(set_up(def, args, k, &mut setup_s, &mut stages).1);
        k += 1;
    };
    let served = match backend {
        Backend::Inproc(engine) => serve_inproc(
            def,
            args,
            &app,
            *engine,
            secs_ns,
            &mut another_set_up,
            &mut checks,
        ),
        Backend::Socket(s) => {
            let served = serve_socket(def, args, &app, s, secs_ns, &mut checks);
            for _ in 0..SETUPS {
                another_set_up();
            }
            served
        }
    };

    let stage = |f: fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let metrics = if !args.trace {
        let u = served.untraced.as_ref().expect("untraced phase");
        vec![
            ("txn_per_s", u.txn_per_s, "1/s"),
            ("lat_p50_us", u.lat_p50_us, "us"),
            ("lat_p99_us", u.lat_p99_us, "us"),
            ("setup_s", median(&setup_s), "s"),
            (
                "peak_rss_mb",
                served.peak_rss_mb.expect("untraced runs read memory"),
                "MiB",
            ),
            ("model_lat_mean_ms", pyx.avg_latency_ms, "ms"),
            ("model_lat_p95_ms", pyx.p95_latency_ms, "ms"),
            ("model_txn_per_s", pyx.throughput_tps, "1/s"),
        ]
    } else {
        let mut layers = served.layers.clone();
        for (k, v) in [
            ("lang.compile_ms", stage(|s| s.compile_ms)),
            ("analysis.analyze_ms", stage(|s| s.analyze_ms)),
            ("profile.profile_ms", stage(|s| s.profile_ms)),
            ("partition.graph_ms", stage(|s| s.graph_ms)),
            ("ilp.solve_ms", stage(|s| s.solve_ms)),
            ("pyxil.deploy_ms", stage(|s| s.deploy_ms)),
            ("db.load_ms", stage(|s| s.load_ms)),
            ("partition.db_stmt_frac", app.placement.db_fraction()),
            ("sim.db_cpu_pct", pyx.db_cpu_pct),
            ("sim.db_net_kbs", pyx.db_recv_kbs + pyx.db_sent_kbs),
            (
                "sim.jdbc_lat_mean_ms",
                jdbc.as_ref().map_or(0.0, |j| j.avg_latency_ms),
            ),
        ] {
            layers.insert(k, v);
        }
        if let (Some(u), Some(t)) = (&served.untraced, &served.traced) {
            layers.insert(
                "bench.trace_overhead_frac",
                ratio(u.txn_per_s - t.txn_per_s, u.txn_per_s),
            );
        }
        // A layer the workload does not exercise reports 0.
        PER_LAYER
            .iter()
            .map(|&(k, unit)| (k, layers.get(k).copied().unwrap_or(0.0), unit))
            .collect()
    };

    let mut model_obj = Obj::new()
        .int("pyxis_completed", pyx.completed)
        .num("pyxis_lat_mean_ms", pyx.avg_latency_ms)
        .num("pyxis_lat_p95_ms", pyx.p95_latency_ms)
        .num("offered_tps", model::OFFERED_TPS)
        .num("virtual_s", cfg.duration_s - cfg.warmup_s);
    if let Some(j) = &jdbc {
        model_obj = model_obj
            .int("jdbc_completed", j.completed)
            .num("jdbc_lat_mean_ms", j.avg_latency_ms)
            .num("jdbc_lat_p95_ms", j.p95_latency_ms);
    }
    let detail = served
        .detail
        .clone()
        .raw(
            "setup_s_each",
            out::array(setup_s.iter().map(|&s| out::num(s))),
        )
        .obj("model", model_obj);
    Outcome {
        attempted: served.attempted,
        failed: served.failed,
        checks,
        metrics,
        detail,
    }
}

/// Serve closed-loop rounds of [`ROUND_TXNS`] requests, each on a freshly
/// loaded database, until `secs_ns` of wall time has been spent serving;
/// `another_set_up` runs after each [`SETUP_EVERY_NS`] of it. A fresh
/// database per round keeps every round on the same data size; without
/// it throughput falls as `orders` and `order_line` grow, and a run's
/// figure would depend on how far it got. Traced runs alternate untraced
/// and traced rounds, so the two sides see the same conditions.
fn serve_inproc(
    def: &Def,
    args: &Args,
    app: &App,
    engine: Engine,
    secs_ns: u64,
    another_set_up: &mut dyn FnMut(),
    checks: &mut Vec<Check>,
) -> ServedFigures {
    let Serving::Inproc { sessions } = def.serving else {
        unreachable!("in-process serving")
    };
    let clock = trace::Clock::new();
    let mut gen = def.program.generator(&app.pyxis, args.seed);
    let mut next = Some(engine);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut total, mut traced_total) = (Phase::default(), Phase::default());
    let mut witness_errors = Vec::new();
    let (mut setting_up_ns, mut next_set_up_ns) = (0, SETUP_EVERY_NS);
    let mut peak_rss = None;
    let mut round = 0;
    loop {
        // Between rounds, with no round's database alive, so that the
        // set-ups leave the peak resident set as it was.
        if clock.ns() - setting_up_ns >= next_set_up_ns {
            let t = clock.ns();
            another_set_up();
            setting_up_ns += clock.ns() - t;
            next_set_up_ns += SETUP_EVERY_NS;
        }
        let is_traced = args.trace && round % 2 == 1;
        let mut engine = next.take().unwrap_or_else(|| def.program.fresh_engine());
        let before = witness(&def.program, &mut [&mut engine]);
        let mut disp = Dispatcher::new(
            Deployment::Fixed(&app.part),
            &mut engine,
            DispatcherConfig {
                max_sessions: sessions,
                queue_cap: sessions * 4,
                snapshot_reads: true,
                ..DispatcherConfig::default()
            },
        );
        let p = inproc::run_phase(
            &mut disp,
            &mut engine,
            &mut *gen,
            sessions,
            ROUND_TXNS,
            is_traced,
        );
        let grew = witness(&def.program, &mut [&mut engine]) - before;
        let want = expected_witness(&def.program, &p.committed);
        if grew != want {
            witness_errors.push(format!("round {round}: grew by {grew}, expected {want}"));
        }
        // Windows of about `WINDOW_NS` over the part of the round in
        // which every session was busy.
        let n = (p.full_ns as f64 / WINDOW_NS as f64).round().max(1.0) as usize;
        let w = p.samples.windows(p.full_ns, n);
        if is_traced {
            traced.extend(w);
            traced_total.absorb(p);
        } else {
            untraced.extend(w);
            total.absorb(p);
        }
        if peak_rss.is_none() && total.completed + traced_total.completed >= RSS_AT_TXNS {
            peak_rss = Some(peak_rss_mb());
        }
        let serving_ns = clock.ns() - setting_up_ns;
        let enough =
            !untraced.is_empty() && (!args.trace || !traced.is_empty()) && peak_rss.is_some();
        round += 1;
        if enough && serving_ns >= secs_ns {
            break;
        }
    }
    let rounds = round;
    let mut all = Phase::default();
    let traced_summary = (!traced.is_empty()).then(|| Summary::of(traced));
    let untraced_summary = Summary::of(untraced);
    let layers = traced_summary
        .as_ref()
        .map(|_| inproc_layers(&traced_total));
    let spans = traced_total.log.as_ref().map(|log| write_spans(args, log));
    let mut phase_objs = vec![phase_obj(
        false,
        total.wall_ns as f64 / 1e9,
        &untraced_summary,
    )];
    if let Some(t) = &traced_summary {
        phase_objs.push(phase_obj(true, traced_total.wall_ns as f64 / 1e9, t));
    }
    all.absorb(total);
    all.absorb(traced_total);

    check(
        checks,
        "committed_work_visible",
        witness_errors.is_empty(),
        if witness_errors.is_empty() {
            format!("{rounds} rounds")
        } else {
            witness_errors.join("; ")
        },
    );
    check(
        checks,
        "no_failed_transactions",
        all.errors == 0 && all.rejected == 0,
        format!(
            "{} errors, {} rejected; first: {:?}",
            all.errors, all.rejected, all.first_error
        ),
    );
    check(
        checks,
        "snapshot_reads_never_restart",
        all.read_only_restarts == 0,
        format!("{} read-only restarts", all.read_only_restarts),
    );

    let failed = all.errors + all.rejected;
    let mut detail = base_detail(def, args, all.submitted, failed)
        .int("sessions", sessions as u64)
        .int("round_txns", ROUND_TXNS)
        .int("peak_rss_at_txns", RSS_AT_TXNS)
        .int("rounds", rounds as u64)
        .int("load_threads", 1)
        .int("connections", 0)
        .str("flush_policy", "none: in-memory engine, no WAL")
        .int("completed", all.completed)
        .int("rolled_back", all.rolled_back)
        .int("restarts", all.restarts)
        .int("vm_instrs", all.vm_instrs)
        .int("engine_statements", all.engine.statements)
        .raw("phases", out::array(phase_objs.iter().map(Obj::render)));
    if let Some(sp) = spans {
        detail = detail.obj("spans", sp);
    }
    ServedFigures {
        attempted: all.submitted,
        failed,
        detail,
        untraced: Some(untraced_summary),
        traced: traced_summary,
        peak_rss_mb: peak_rss,
        layers: layers.unwrap_or_default(),
    }
}

/// Per-layer figures of a traced in-process phase.
fn inproc_layers(p: &Phase) -> BTreeMap<&'static str, f64> {
    let log = p.log.as_ref().expect("traced phase has spans");
    let n = p.completed as f64;
    let ns = |l: Layer| log.agg(l).total_ns as f64;
    let db_ns = ns(Layer::DbStmt) + ns(Layer::DbCommit) + ns(Layer::DbOther);
    let top = ns(Layer::Gen) + ns(Layer::Submit) + ns(Layer::Poll);
    let e = &p.engine;
    let restarts = p.restarts as f64;
    BTreeMap::from([
        (
            "runtime.transfers_per_txn",
            ratio(p.env.transfers as f64, n),
        ),
        (
            "runtime.transfer_bytes",
            ratio(p.env.transfer_bytes as f64, p.env.transfers as f64),
        ),
        (
            "runtime.app_db_ops_per_txn",
            ratio(p.env.app_db_ops as f64, n),
        ),
        (
            "runtime.vm_self_ns_per_txn",
            ratio(ns(Layer::Poll) - db_ns, n),
        ),
        ("runtime.vm_instrs_per_txn", ratio(p.vm_instrs as f64, n)),
        ("server.submit_ns_per_txn", ratio(ns(Layer::Submit), n)),
        ("server.poll_ns_per_txn", ratio(ns(Layer::Poll), n)),
        ("server.polls_per_txn", ratio(p.polls as f64, n)),
        ("server.restart_frac", ratio(restarts, n + restarts)),
        (
            "db.stmt_ns",
            ratio(ns(Layer::DbStmt), log.agg(Layer::DbStmt).count as f64),
        ),
        ("db.stmts_per_txn", ratio(e.statements as f64, n)),
        (
            "db.commit_ns",
            ratio(ns(Layer::DbCommit), log.agg(Layer::DbCommit).count as f64),
        ),
        (
            "db.rows_examined_per_stmt",
            ratio(e.rows_examined as f64, e.statements as f64),
        ),
        (
            "db.snapshot_read_frac",
            ratio(e.snapshot_reads as f64, e.statements as f64),
        ),
        (
            "db.versions_gced_per_created",
            ratio(e.versions_gced as f64, e.versions_created as f64),
        ),
        ("db.would_block_per_txn", ratio(e.would_blocks as f64, n)),
        ("workload.gen_ns_per_txn", ratio(ns(Layer::Gen), n)),
        (
            "bench.unattributed_frac",
            ratio(p.wall_ns as f64 - top, p.wall_ns as f64),
        ),
    ])
}

fn serve_socket(
    def: &Def,
    args: &Args,
    app: &App,
    mut served: socket::Served,
    secs_ns: u64,
    checks: &mut Vec<Check>,
) -> ServedFigures {
    let addr = served.addr.clone();
    let mut loops: Vec<socket::ClientLoop> = std::mem::take(&mut served.clients)
        .into_iter()
        .enumerate()
        .map(|(c, client)| socket::ClientLoop {
            client,
            // Each client draws its own request stream from the run seed.
            gen: def.program.generator(
                &app.pyxis,
                args.seed.wrapping_mul(1_000).wrapping_add(c as u64),
            ),
            next_tag: 0,
        })
        .collect();
    let (phase_ns, modes) = if args.trace {
        (secs_ns / 2, vec![false, true])
    } else {
        (secs_ns, vec![false])
    };
    let phases: Vec<(bool, socket::PhaseRun)> = modes
        .into_iter()
        .map(|traced| {
            // Only untraced runs report memory.
            let rss_at = if args.trace { 0 } else { RSS_AT_TXNS };
            let run = socket::run_phase(&mut loops, &addr, phase_ns, rss_at, traced);
            (traced, run)
        })
        .collect();
    served.clients = loops.into_iter().map(|l| l.client).collect();
    let (mut report, wal_paths) = served.shutdown();

    let (mut attempted, mut errors, mut unknown, mut misrouted, mut new_orders) = (0, 0, 0, 0, 0);
    let mut first_error = None;
    for (_, run) in &phases {
        for p in &run.clients {
            attempted += p.submitted;
            errors += p.errors;
            unknown += p.unknown;
            misrouted += p.misrouted;
            new_orders += p.new_orders;
            if first_error.is_none() {
                first_error.clone_from(&p.first_error);
            }
        }
    }
    check(
        checks,
        "every_tag_retires_once",
        misrouted == 0 && unknown == 0,
        format!("{misrouted} misrouted or lost, {unknown} outcome unknown"),
    );
    check(
        checks,
        "no_failed_transactions",
        errors == 0,
        format!("{errors} errors; first: {first_error:?}"),
    );
    let orders = {
        let mut engines: Vec<&mut Engine> = report.engines.iter_mut().collect();
        witness(&def.program, &mut engines)
    };
    check(
        checks,
        "committed_work_visible",
        orders == new_orders as i64,
        format!("{orders} orders rows for {new_orders} committed new-orders"),
    );
    let replay = socket::check_wal_replay(&def.program, &report, &wal_paths);
    check(
        checks,
        "wal_replay_matches_live_shards",
        replay.is_ok(),
        replay
            .err()
            .unwrap_or_else(|| format!("{} shards replayed", report.engines.len())),
    );
    for p in &wal_paths {
        let _ = std::fs::remove_file(p);
    }

    let mut fig = ServedFigures {
        attempted,
        failed: errors + unknown + misrouted,
        peak_rss_mb: phases.iter().find_map(|(_, run)| run.peak_rss_mb),
        ..ServedFigures::default()
    };
    let mut phase_objs = Vec::new();
    let mut spans = None;
    for (traced, run) in &phases {
        let ps = &run.clients;
        let mut all = Samples::default();
        for p in ps {
            all.extend(&p.samples);
        }
        let s = Summary::of(all.windows(phase_ns, WINDOWS));
        phase_objs.push(
            phase_obj(*traced, run.wall_ns as f64 / 1e9, &s)
                .int("submitted", ps.iter().map(|p| p.submitted).sum())
                .int("rolled_back", ps.iter().map(|p| p.rolled_back).sum())
                .int("echo_samples", run.echo_ns.len() as u64)
                .render(),
        );
        if *traced {
            fig.traced = Some(s);
            let mut log = SpanLog::new(trace::Clock::new());
            let (mut home, mut remote) = (Samples::default(), Samples::default());
            let mut busy = 0.0;
            for p in ps {
                if let Some(l) = &p.log {
                    log.absorb(l);
                }
                home.extend(&p.home);
                remote.extend(&p.remote);
                busy += p.busy_ns as f64;
            }
            spans = Some(write_spans(args, &log));
            let top = [Layer::Gen, Layer::NetSubmit, Layer::NetRecv]
                .iter()
                .map(|&l| log.agg(l).total_ns as f64)
                .sum::<f64>();
            let echo_f: Vec<f64> = run.echo_ns.iter().map(|&e| e as f64).collect();
            fig.layers.insert("server.home_lat_p50_us", home.p50_us());
            fig.layers
                .insert("server.remote_lat_p50_us", remote.p50_us());
            fig.layers
                .insert("net.echo_rtt_p50_us", median(&echo_f) / 1e3);
            fig.layers
                .insert("bench.unattributed_frac", ratio(busy - top, busy));
            fig.layers.insert(
                "workload.gen_ns_per_txn",
                ratio(
                    log.agg(Layer::Gen).total_ns as f64,
                    log.agg(Layer::Gen).count as f64,
                ),
            );
        } else {
            fig.untraced = Some(s);
        }
    }
    if args.trace {
        let retired = attempted as f64;
        let m = report.merged_engine_stats();
        let multi = report.multi_txns as f64;
        let (completed, restarts) = report.dispatchers.iter().fold((0.0, 0.0), |(c, r), d| {
            (c + d.completed as f64, r + d.deadlock_restarts as f64)
        });
        for (k, v) in [
            ("server.multi_frac", ratio(multi, retired)),
            (
                "server.participants_per_multi",
                ratio(report.multi_participants as f64, multi),
            ),
            ("server.restart_frac", ratio(restarts, completed + restarts)),
            ("db.prepares_per_multi", ratio(m.prepares as f64, multi)),
            (
                "db.wal_fsyncs_per_commit",
                ratio(m.wal_fsyncs as f64, m.commits as f64),
            ),
            (
                "db.wal_bytes_per_commit",
                ratio(m.wal_bytes as f64, m.commits as f64),
            ),
            ("db.stmts_per_txn", ratio(m.statements as f64, retired)),
            (
                "db.rows_examined_per_stmt",
                ratio(m.rows_examined as f64, m.statements as f64),
            ),
            (
                "db.snapshot_read_frac",
                ratio(m.snapshot_reads as f64, m.statements as f64),
            ),
            (
                "db.versions_gced_per_created",
                ratio(m.versions_gced as f64, m.versions_created as f64),
            ),
            (
                "db.would_block_per_txn",
                ratio(m.would_blocks as f64, retired),
            ),
        ] {
            fig.layers.insert(k, v);
        }
        // The server's sessions run behind the socket, out of reach of the
        // wrappers; replay the same partition and request stream in
        // process to count its control transfers.
        let mut engine = def.program.fresh_engine();
        let mut disp = Dispatcher::new(
            Deployment::Fixed(&app.part),
            &mut engine,
            DispatcherConfig::default(),
        );
        let mut gen = def.program.generator(&app.pyxis, args.seed);
        let probe = inproc::run_phase(&mut disp, &mut engine, &mut *gen, 1, PROBE_TXNS, true);
        let probe = inproc_layers(&probe);
        for k in [
            "runtime.transfers_per_txn",
            "runtime.transfer_bytes",
            "runtime.app_db_ops_per_txn",
            "runtime.vm_instrs_per_txn",
        ] {
            fig.layers.insert(k, probe[k]);
        }
    }
    fig.detail = base_detail(def, args, attempted, fig.failed)
        .int("client_threads", socket::CLIENTS as u64)
        .int("connections", socket::CLIENTS as u64)
        .int("in_flight_per_connection", 1)
        .int("shards", socket::SHARDS as u64)
        .int("coordinators", socket::COORDINATORS as u64)
        .str(
            "flush_policy",
            &format!(
                "FileSink per shard, sync_data at the ack point, group commit {}",
                socket::GROUP_COMMIT
            ),
        )
        .int("multi_txns", report.multi_txns)
        .int("peak_rss_at_txns", RSS_AT_TXNS)
        .raw("phases", out::array(phase_objs));
    if let Some(sp) = spans {
        fig.detail = fig.detail.obj("spans", sp);
    }
    fig
}

fn base_detail(def: &Def, args: &Args, attempted: u64, failed: u64) -> Obj {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Obj::new()
        .str("workload", def.name)
        .int("seed", args.seed)
        .int("load_seed", apps::LOAD_SEED)
        .int("profile_seed", apps::PROFILE_SEED)
        .bool("traced", args.trace)
        .int("run_seconds", args.seconds)
        .int("nproc", nproc)
        .str("revision", &args.revision)
        .num("budget", apps::BUDGET)
        .num("failed_frac", ratio(failed as f64, attempted as f64))
}

/// Write a traced run's spans and describe where they went.
fn write_spans(args: &Args, log: &SpanLog) -> Obj {
    let path = args
        .outdir
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.outdir).and_then(|_| log.write_tsv(&path));
    if let Err(e) = &written {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    Obj::new()
        .str("file", &path.display().to_string())
        .bool("written", written.is_ok())
        .int("kept", log.kept() as u64)
        .int("dropped", log.dropped)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] [--outdir <dir>] [--revision <id>]");
            std::process::exit(2);
        }
    };
    let Some(def) = defs().into_iter().find(|d| d.name == args.workload) else {
        let names: Vec<&str> = defs().iter().map(|d| d.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let workdir = args.workdir.join(format!("{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        std::process::exit(2);
    }
    let args = Args { workdir, ..args };

    let o = run(&def, &args);
    let _ = std::fs::remove_dir_all(&args.workdir);

    let correct = o.checks.iter().all(|c| c.ok);
    let checks = out::array(o.checks.iter().map(|c| {
        Obj::new()
            .str("name", c.name)
            .bool("ok", c.ok)
            .str("detail", &c.detail)
            .render()
    }));
    let detail = o.detail.raw("checks", checks);
    println!("{}", Obj::new().obj("detail", detail).render());
    let mut metrics = Obj::new();
    for (name, value, unit) in &o.metrics {
        metrics = metrics.obj(name, Obj::new().num("value", *value).str("unit", unit));
    }
    let result = Obj::new()
        .bool("correct", correct)
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .obj("metrics", metrics);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
