//! Spans recorded from outside the program: around calls into the
//! dispatcher, and inside wrappers of the two traits the dispatcher takes
//! as `&mut dyn` (`pyx_db::Database` and `pyx_server::Env`).
//!
//! Every span adds to a per-layer aggregate (count and total time); the
//! first [`SPAN_CAP`] spans are also kept whole (name, start, end, the span
//! that caused it, and the request it belongs to) and written out when
//! the run ends.

use pyx_db::{Database, DbError, Engine, EngineStats, PreparedId, QueryResult, Scalar, TxnId};
use pyx_partition::Side;
use pyx_server::Env;
use std::io::Write;
use std::time::Instant;

/// Whole spans kept per run; beyond this only the aggregates grow, which
/// keeps a long traced run's memory flat.
pub const SPAN_CAP: usize = 50_000;

/// Nanoseconds since a fixed base.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The layer boundaries the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::next_txn` — the generator producing the next request.
    Gen,
    /// `Dispatcher::submit`.
    Submit,
    /// `Dispatcher::poll` — VM, heap sync and wire encoding, plus the
    /// `Database` calls below it.
    Poll,
    /// `Database::execute` / `execute_prepared`.
    DbStmt,
    /// `Database::commit`.
    DbCommit,
    /// Every other `Database` call (begin, abort, prepare, wal_sync).
    DbOther,
    /// `NetClient::submit`.
    NetSubmit,
    /// `NetClient::recv_done`.
    NetRecv,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Gen,
    Layer::Submit,
    Layer::Poll,
    Layer::DbStmt,
    Layer::DbCommit,
    Layer::DbOther,
    Layer::NetSubmit,
    Layer::NetRecv,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "workload.next_txn",
            Layer::Submit => "server.submit",
            Layer::Poll => "server.poll",
            Layer::DbStmt => "db.stmt",
            Layer::DbCommit => "db.commit",
            Layer::DbOther => "db.other",
            Layer::NetSubmit => "net.submit",
            Layer::NetRecv => "net.recv_done",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Request the span belongs to: the submit tag for dispatcher and
    /// client spans, the engine transaction id for `Database` spans
    /// (0 when the call has none).
    pub req: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. Ids start at 1; parent 0 means "top level".
#[derive(Debug, Clone)]
pub struct SpanLog {
    pub clock: Clock,
    agg: [Agg; LAYERS.len()],
    spans: Vec<Span>,
    next_id: u64,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(clock: Clock) -> SpanLog {
        SpanLog {
            clock,
            agg: [Agg::default(); LAYERS.len()],
            spans: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.ns()
    }

    /// A fresh span id, for a span whose children are recorded before it.
    #[inline]
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    #[inline]
    pub fn record(
        &mut self,
        id: u64,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
    ) {
        let a = &mut self.agg[layer as usize];
        a.count += 1;
        a.total_ns += end_ns.saturating_sub(start_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                req,
                layer,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer as usize]
    }

    /// Fold another log's aggregates and spans into this one (client
    /// threads keep their own logs).
    pub fn absorb(&mut self, o: &SpanLog) {
        for (a, b) in self.agg.iter_mut().zip(&o.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(o.spans.iter().take(room).copied());
        self.dropped += o.dropped + o.spans.len().saturating_sub(room) as u64;
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.req,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

/// A `Database` that times every call into the engine it wraps. Every
/// trait method is forwarded, including the two with default bodies
/// (`begin_aged`, `wal_sync`): the defaults would drop wait-die aging and
/// the acknowledgement-point flush.
pub struct TracedDb<'a> {
    pub inner: &'a mut Engine,
    pub log: SpanLog,
    /// Span id of the dispatcher call currently running, set by the
    /// serving loop before each `poll`.
    pub parent: u64,
}

impl<'a> TracedDb<'a> {
    pub fn new(inner: &'a mut Engine, log: SpanLog) -> TracedDb<'a> {
        TracedDb {
            inner,
            log,
            parent: 0,
        }
    }

    #[inline]
    fn timed<R>(&mut self, layer: Layer, req: u64, f: impl FnOnce(&mut Engine) -> R) -> R {
        let t0 = self.log.now();
        let r = f(self.inner);
        let t1 = self.log.now();
        let id = self.log.reserve();
        self.log.record(id, layer, t0, t1, self.parent, req);
        r
    }
}

impl Database for TracedDb<'_> {
    fn begin(&mut self) -> TxnId {
        self.timed(Layer::DbOther, 0, <Engine as Database>::begin)
    }

    fn begin_aged(&mut self, age: u64) -> TxnId {
        self.timed(Layer::DbOther, 0, |e| {
            <Engine as Database>::begin_aged(e, age)
        })
    }

    fn begin_read_only(&mut self) -> TxnId {
        self.timed(Layer::DbOther, 0, |e| {
            <Engine as Database>::begin_read_only(e)
        })
    }

    fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        self.timed(Layer::DbCommit, txn.0, |e| {
            <Engine as Database>::commit(e, txn)
        })
    }

    fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        self.timed(Layer::DbOther, txn.0, |e| {
            <Engine as Database>::abort(e, txn)
        })
    }

    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        self.timed(Layer::DbOther, 0, |e| <Engine as Database>::prepare(e, sql))
    }

    fn execute(
        &mut self,
        txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        self.timed(Layer::DbStmt, txn.0, |e| {
            <Engine as Database>::execute(e, txn, sql, params)
        })
    }

    fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        self.timed(Layer::DbStmt, txn.0, |e| {
            <Engine as Database>::execute_prepared(e, txn, id, params)
        })
    }

    fn db_stats(&self) -> EngineStats {
        <Engine as Database>::db_stats(self.inner)
    }

    fn wal_sync(&mut self) -> Result<(), DbError> {
        self.timed(Layer::DbOther, 0, <Engine as Database>::wal_sync)
    }
}

/// Control-transfer and statement counts by side, taken at the `Env`
/// boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvCounts {
    /// `Env::net` calls: control transfers between the two hosts.
    pub transfers: u64,
    pub transfer_bytes: u64,
    /// `Env::db_op` calls issued from the APP host (JDBC-style round
    /// trips).
    pub app_db_ops: u64,
}

/// An `Env` that counts what it is asked to price and forwards every
/// method, `db_load_pct` included, to the `Env` it wraps.
pub struct CountingEnv<E: Env> {
    pub inner: E,
    pub counts: EnvCounts,
}

impl<E: Env> CountingEnv<E> {
    pub fn new(inner: E) -> CountingEnv<E> {
        CountingEnv {
            inner,
            counts: EnvCounts::default(),
        }
    }
}

impl<E: Env> Env for CountingEnv<E> {
    fn cpu(&mut self, now: u64, host: Side, cost: u64) -> u64 {
        self.inner.cpu(now, host, cost)
    }

    fn net(&mut self, now: u64, from: Side, to: Side, bytes: u64) -> u64 {
        self.counts.transfers += 1;
        self.counts.transfer_bytes += bytes;
        self.inner.net(now, from, to, bytes)
    }

    fn db_op(
        &mut self,
        now: u64,
        issued_from: Side,
        db_cpu: u64,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> u64 {
        if issued_from == Side::App {
            self.counts.app_db_ops += 1;
        }
        self.inner
            .db_op(now, issued_from, db_cpu, req_bytes, resp_bytes)
    }

    fn db_load_pct(&mut self, now: u64) -> f64 {
        self.inner.db_load_pct(now)
    }
}
