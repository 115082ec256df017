//! The paper's testbed as `pyx-sim` models it: the `scenarios::TpccEnv`
//! configuration of a 16-core DB host, 1 ms RTT and 20 clients, paced in
//! virtual time. Its figures repeat exactly for a given seed.

use crate::apps::{App, Program};
use pyx_bench::scenarios::{APP_IPS, DB_IPS, NET, POINT_DURATION_S, WARMUP_S};
use pyx_pyxil::CompiledPartition;
use pyx_sim::{Deployment, SimConfig, SimResult};

/// Offered load on the modelled testbed, transactions per virtual second.
pub const OFFERED_TPS: f64 = 600.0;

/// `TpccEnv::cfg(16)` at [`OFFERED_TPS`], for a full scenario point.
pub fn testbed() -> SimConfig {
    SimConfig {
        duration_s: POINT_DURATION_S,
        warmup_s: WARMUP_S,
        target_tps: OFFERED_TPS,
        clients: 20,
        app_cores: 8,
        db_cores: 16,
        app_ips: APP_IPS,
        db_ips: DB_IPS,
        net: NET,
        ..SimConfig::default()
    }
}

/// Simulate `part` serving `program`'s requests for `seed` on a freshly
/// loaded database.
pub fn simulate(
    program: &Program,
    app: &App,
    part: &CompiledPartition,
    seed: u64,
    cfg: &SimConfig,
) -> SimResult {
    let mut engine = program.fresh_engine();
    let mut gen = program.generator(&app.pyxis, seed);
    pyx_sim::run_sim(Deployment::Fixed(part), &mut engine, &mut *gen, cfg)
}

/// Whether two runs produced bit-identical figures.
pub fn same(a: &SimResult, b: &SimResult) -> bool {
    a.completed == b.completed
        && a.avg_latency_ms.to_bits() == b.avg_latency_ms.to_bits()
        && a.p95_latency_ms.to_bits() == b.p95_latency_ms.to_bits()
        && a.throughput_tps.to_bits() == b.throughput_tps.to_bits()
        && a.db_cpu_pct.to_bits() == b.db_cpu_pct.to_bits()
        && a.db_recv_kbs.to_bits() == b.db_recv_kbs.to_bits()
        && a.db_sent_kbs.to_bits() == b.db_sent_kbs.to_bits()
}
