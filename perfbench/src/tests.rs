use super::*;

fn def(name: &str) -> Def {
    defs()
        .into_iter()
        .find(|d| d.name == name)
        .expect("workload")
}

type Counts = (u64, u64, u64, u64, u64, BTreeMap<&'static str, u64>);

/// Serve `n` requests of `def` on a fresh set-up, traced or not, and
/// return the counts the run retired.
fn counts(def: &Def, n: u64, traced: bool) -> Counts {
    counts_with(def, n, traced, DispatcherConfig::default().restart_delay_ns)
}

fn counts_with(def: &Def, n: u64, traced: bool, restart_delay_ns: u64) -> Counts {
    let Serving::Inproc { sessions, .. } = def.serving else {
        panic!("in-process workload")
    };
    let app = apps::build(&def.program, &mut Stages::default());
    let mut engine = def.program.fresh_engine();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&app.part),
        &mut engine,
        DispatcherConfig {
            max_sessions: sessions,
            queue_cap: sessions * 4,
            restart_delay_ns,
            ..DispatcherConfig::default()
        },
    );
    let mut gen = def.program.generator(&app.pyxis, 5);
    let p = inproc::run_phase(&mut disp, &mut engine, &mut *gen, sessions, n, traced);
    assert_eq!(p.errors, 0, "{:?}", p.first_error);
    (
        p.completed,
        p.rolled_back,
        p.restarts,
        p.vm_instrs,
        p.engine.statements,
        p.committed,
    )
}

/// The wrappers change nothing the program does: for the same seed the
/// traced and untraced runs of every in-process workload retire the same
/// transactions, restarts, VM instructions and engine statements. A
/// `Database` wrapper that fell back to the trait's default `begin_aged`
/// would lose wait-die aging and change the restart count.
#[test]
fn traced_and_untraced_runs_retire_identical_counts() {
    for d in defs() {
        if !matches!(d.serving, Serving::Inproc { .. }) {
            continue;
        }
        let plain = counts(&d, 3_000, false);
        let traced = counts(&d, 3_000, true);
        assert_eq!(plain, traced, "{}", d.name);
        assert_eq!(plain.0, 3_000, "{}", d.name);
    }
}

/// The contended TPC-C workload does restart transactions, so the test
/// above compares restart counts that are not trivially zero.
#[test]
fn tpcc_inproc_exercises_wait_die() {
    let (_, _, restarts, ..) = counts(&def("tpcc-inproc"), 20_000, false);
    assert!(restarts > 0, "no wait-die restarts in 20k transactions");
}

/// Arrivals are spaced by the benchmark's own step, not by the restart
/// delay, so a change to the dispatcher's restart policy changes what the
/// contended workload does.
#[test]
fn restart_delay_moves_tpcc_inproc() {
    let d = def("tpcc-inproc");
    let default = counts(&d, 3_000, false);
    let slower = counts_with(&d, 3_000, false, 4 * inproc::ARRIVAL_STEP_NS);
    assert_ne!(default.2, slower.2, "restart count unchanged");
}

/// The modelled testbed is the paper's: `scenarios::TpccEnv::cfg(16)`.
#[test]
fn modeled_testbed_is_the_tpcc_env_configuration() {
    let env = pyx_bench::scenarios::TpccEnv::build(2.0);
    let ours = model::testbed();
    let theirs = env.cfg(16);
    assert_eq!(ours.duration_s, theirs.duration_s);
    assert_eq!(ours.warmup_s, theirs.warmup_s);
    assert_eq!(ours.clients, theirs.clients);
    assert_eq!(
        (ours.app_cores, ours.db_cores),
        (theirs.app_cores, theirs.db_cores)
    );
    assert_eq!((ours.app_ips, ours.db_ips), (theirs.app_ips, theirs.db_ips));
    assert_eq!(ours.net.rtt_ns, theirs.net.rtt_ns);
    assert_eq!(ours.net.bw_bytes_per_s, theirs.net.bw_bytes_per_s);
}
