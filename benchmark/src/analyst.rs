//! `analyst_sessions`: the exploratory loop of several analysts. One
//! `CoordService` serves a shared two-worker fleet over loopback TCP with
//! lineage reuse on. Two tenant sessions run a closed loop, one client
//! thread each and no think time, issuing a seeded stream of small
//! queries over their own federated table and one shared table. A fixed
//! share of the queries repeats an earlier lineage and so hits the plan
//! cache; the rest miss and insert; every `PUT_EVERY` queries a session
//! PUTs a new table and drops the old one (`rmvar`). Fixed per-call costs
//! set the latency here.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use exdra_api::{Lazy, Session};
use exdra_coord::{CoordConfig, CoordService, FleetSource, Tenant};
use exdra_core::coordinator::WorkerEndpoint;
use exdra_core::worker::{Worker, WorkerConfig};
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_matrix::rng::rand_matrix;
use exdra_matrix::DenseMatrix;
use exdra_net::stats::NetStatsSnapshot;

use crate::trace::Tracer;
use crate::util::*;
use crate::{Args, SETUP_REPS_BEFORE, SITES};

/// Concurrent analyst sessions, one client thread each.
const CLIENTS: usize = 2;
/// Share of queries that repeat an earlier lineage of the same table.
const REPEAT_SHARE: f64 = 0.25;
/// Queries between two PUTs of a fresh table.
const PUT_EVERY: usize = 250;
/// Distinct scale factors of shared-table queries: both sessions draw
/// from this grid, so they also hit each other's cache entries.
const SHARED_GRID: u64 = 8;
/// Warm-up queries per session during set-up (a stream of their own).
const WARMUP_QUERIES: usize = 40;
/// Operations per client per second of `--seconds`: the window's fixed
/// size, about what each of two clients completes per second on a 2-vCPU
/// host.
const OPS_PER_CLIENT_SECOND: f64 = 1000.0;
/// Operations per client in one round of the window. The clients start
/// each round together; `wall_s` is the median round, so a slow stretch
/// of the host moves a few rounds rather than the whole figure.
const ROUND_OPS: u64 = 1000;
/// Lineage-reuse budget of each worker: small, so it fills early in the
/// window and the memory its entries pin (spread over many allocator
/// arenas by the per-call RPC threads) stays a small, steady share of the
/// peak. Repeated queries are answered by the coordinator's plan cache.
const WORKER_CACHE_BYTES: usize = 4 << 20;
/// Stream salt separating the warm-up stream from the timed ones.
const WARMUP_SALT: u64 = 1 << 32;

#[derive(Clone, Copy)]
enum Kind {
    ColSums,
    ColMeans,
    ColSds,
    Filtered,
    Tsmm,
    Chain,
    Shared,
}

const KINDS: [Kind; 7] = [
    Kind::ColSums,
    Kind::ColMeans,
    Kind::ColSds,
    Kind::Filtered,
    Kind::Tsmm,
    Kind::Chain,
    Kind::Shared,
];

#[derive(Clone, Copy)]
struct Query {
    kind: Kind,
    a: f64,
    b: f64,
}

impl Query {
    fn plan(&self, table: &Lazy, shared: &Lazy) -> exdra_core::Result<Lazy> {
        let t = table;
        match self.kind {
            Kind::ColSums => t.scalar(BinaryOp::Mul, self.a, false).col_sums(),
            Kind::ColMeans => t.scalar(BinaryOp::Add, self.a, false).col_means(),
            Kind::ColSds => t.scalar(BinaryOp::Mul, self.a, false).col_sds(),
            Kind::Filtered => {
                let mask = t.scalar(BinaryOp::Gt, self.a - 1.5, false);
                t.mul(&mask)?.col_sums()
            }
            Kind::Tsmm => t.scalar(BinaryOp::Mul, self.a, false).tsmm(),
            Kind::Chain => Ok(t
                .scalar(BinaryOp::Mul, self.a, false)
                .scalar(BinaryOp::Add, self.b, false)
                .scalar(BinaryOp::Max, 0.0, false)
                .sum()),
            Kind::Shared => shared.scalar(BinaryOp::Mul, self.a, false).col_sums(),
        }
    }
}

/// One operation of a session's stream.
enum Op {
    /// PUT table version `v` (dropping the previous one).
    Put(u64),
    Query {
        q: Query,
        repeat: bool,
    },
}

/// A session's seeded operation stream. It depends only on the seed and
/// the session index, never on timing, so a serial replay of its prefix
/// is the oracle of a concurrent run.
struct Stream {
    rng: SplitMix,
    history: Vec<Query>,
    since_put: usize,
    version: u64,
}

impl Stream {
    fn new(seed: u64, salt: u64) -> Self {
        Stream {
            rng: SplitMix::new(seed, salt),
            history: Vec::new(),
            since_put: 0,
            version: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        if self.since_put == PUT_EVERY {
            self.since_put = 0;
            self.version += 1;
            self.history.clear();
            return Op::Put(self.version);
        }
        self.since_put += 1;
        if !self.history.is_empty() && self.rng.unit() < REPEAT_SHARE {
            let q = self.history[self.rng.below(self.history.len())];
            return Op::Query { q, repeat: true };
        }
        let kind = KINDS[self.rng.below(KINDS.len())];
        let a = match kind {
            Kind::Shared => (1 + self.rng.next_u64() % SHARED_GRID) as f64,
            _ => 0.5 + self.rng.unit(),
        };
        let q = Query {
            kind,
            a,
            b: self.rng.unit() - 0.5,
        };
        self.history.push(q);
        Op::Query { q, repeat: false }
    }
}

struct Scale {
    rows: usize,
    cols: usize,
    shared_rows: usize,
}

fn table_data(scale: &Scale, seed: u64, client: usize, version: u64) -> DenseMatrix {
    let s = SplitMix::new(seed, 1000 + client as u64 * 1_000_003 + version).next_u64();
    rand_matrix(scale.rows, scale.cols, -1.0, 1.0, s)
}

/// One client's view of its session while it replays its stream.
struct Client {
    session: Session,
    stream: Stream,
    table: Lazy,
    index: usize,
}

/// What one client observed in a window.
#[derive(Default)]
struct Observed {
    latencies_ms: Vec<f64>,
    /// `(stream position, bit hash)` of every query result.
    results: Vec<(usize, u64)>,
    ops: u64,
    failed: Vec<String>,
}

impl Client {
    fn step(&mut self, scale: &Scale, seed: u64, shared: &Lazy, tr: &Tracer, obs: &mut Observed) {
        let pos = obs.ops as usize;
        obs.ops += 1;
        match self.stream.next_op() {
            Op::Put(v) => {
                let m = table_data(scale, seed, self.index, v);
                match tr.span("api", "put", || self.session.federated(&m)) {
                    // Dropping the old handle queues its `rmvar`.
                    Ok(t) => self.table = t,
                    Err(e) => obs.failed.push(format!("PUT: {e}")),
                }
            }
            Op::Query { q, .. } => {
                let t0 = Instant::now();
                let r = q
                    .plan(&self.table, shared)
                    .and_then(|p| tr.span("api", "compute", || self.session.compute(&p)));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match r {
                    Ok(m) => {
                        obs.latencies_ms.push(ms);
                        obs.results.push((pos, bit_hash(&m)));
                    }
                    Err(e) => obs.failed.push(format!("query {pos}: {e}")),
                }
            }
        }
    }
}

struct Fleet {
    workers: Vec<Arc<Worker>>,
    service: Arc<CoordService>,
    clients: Vec<Client>,
    admit_ms: Vec<f64>,
}

impl Fleet {
    fn start(
        scale: &Scale,
        seed: u64,
        dir: &std::path::Path,
        shared_warm: &Lazy,
    ) -> Result<Self, String> {
        let mut workers = Vec::new();
        let mut endpoints = Vec::new();
        for _ in 0..SITES {
            let w = Worker::new(WorkerConfig {
                data_dir: dir.to_path_buf(),
                cache_bytes: WORKER_CACHE_BYTES,
                ..WorkerConfig::default()
            });
            let addr = w
                .serve_tcp("127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))?;
            endpoints.push(WorkerEndpoint::tcp(addr.to_string()));
            workers.push(w);
        }
        let service = CoordService::start(FleetSource::Tcp(endpoints), CoordConfig::default())
            .map_err(|e| format!("coordinator service: {e}"))?;
        let mut clients = Vec::new();
        let mut admit_ms = Vec::new();
        for c in 0..CLIENTS {
            let (tenant, t) = timed(|| service.open_session());
            admit_ms.push(t * 1e3);
            let tenant: Arc<Tenant> = tenant.map_err(|e| format!("admit: {e}"))?;
            let session = Session::from_tenant(tenant).map_err(|e| format!("session: {e}"))?;
            let table = session
                .federated(&table_data(scale, seed, c, 0))
                .map_err(|e| format!("initial PUT: {e}"))?;
            // Warm-up: a stream of its own over a table of its own, so it
            // answers none of the timed queries ahead of time.
            let warm_table = session
                .federated(&table_data(scale, seed ^ WARMUP_SALT, c, 0))
                .map_err(|e| format!("warm-up PUT: {e}"))?;
            let mut warm = Stream::new(seed, WARMUP_SALT + c as u64);
            for _ in 0..WARMUP_QUERIES {
                if let Op::Query { q, .. } = warm.next_op() {
                    let plan = q
                        .plan(&warm_table, shared_warm)
                        .map_err(|e| format!("warm-up: {e}"))?;
                    session
                        .compute(&plan)
                        .map_err(|e| format!("warm-up: {e}"))?;
                }
            }
            clients.push(Client {
                session,
                stream: Stream::new(seed, c as u64),
                table,
                index: c,
            });
        }
        Ok(Fleet {
            workers,
            service,
            clients,
            admit_ms,
        })
    }

    /// Tears the fleet down. The in-process workers outlive their
    /// listeners, so their state is cleared first, as a site process's
    /// exit would release it.
    fn stop(self) {
        drop(self.clients);
        let _ = self.service.context().clear_all();
        self.service.stop();
        for w in &self.workers {
            w.shutdown();
        }
    }

    /// Plan-cache `(hits, misses)` attributed to the sessions so far.
    fn probes(&self) -> (u64, u64) {
        self.clients.iter().fold((0, 0), |(h, m), c| {
            let s = c.session.tenant().expect("tenant session").stats();
            (
                h + s.cache_hits.load(Ordering::Relaxed),
                m + s.cache_misses.load(Ordering::Relaxed),
            )
        })
    }

    /// NetStats of every session, then of the service context.
    fn net_snapshot(&self) -> Vec<NetStatsSnapshot> {
        let mut v: Vec<NetStatsSnapshot> = self
            .clients
            .iter()
            .map(|c| {
                c.session
                    .ctx()
                    .expect("tenant sessions are connected")
                    .stats()
                    .snapshot()
            })
            .collect();
        v.push(self.service.context().stats().snapshot());
        v
    }
}

/// Sums the per-context NetStats deltas since `before`.
fn net_delta(now: &[NetStatsSnapshot], before: &[NetStatsSnapshot]) -> NetStatsSnapshot {
    let mut it = now.iter().zip(before).map(|(n, b)| n.delta(b));
    let first = it.next().expect("at least one context");
    it.fold(first, |mut acc, d| {
        acc.bytes_sent += d.bytes_sent;
        acc.bytes_received += d.bytes_received;
        acc.messages_sent += d.messages_sent;
        acc.messages_received += d.messages_received;
        acc.network_seconds += d.network_seconds;
        acc.network_nanos += d.network_nanos;
        acc.retries += d.retries;
        acc.heartbeats += d.heartbeats;
        acc.recoveries += d.recoveries;
        acc.pipelined_messages += d.pipelined_messages;
        acc.max_inflight = acc.max_inflight.max(d.max_inflight);
        acc
    })
}

/// What one closed-loop window observed.
struct Window {
    obs: Vec<Observed>,
    tracers: Vec<Tracer>,
    secs: f64,
    /// Wall seconds of each round.
    round_secs: Vec<f64>,
    /// NetStats of the sessions and of the service's own supervision
    /// traffic (heartbeats and checkpoints, which the clock drives).
    net: NetStatsSnapshot,
    /// NetStats of the sessions alone: the traffic the queries cause.
    session_net: NetStatsSnapshot,
    /// Plan-cache `(hits, misses)` of the sessions.
    probes: (u64, u64),
}

impl Window {
    fn latencies_ms(&self) -> Vec<f64> {
        let lat = self.obs.iter().flat_map(|o| o.latencies_ms.iter());
        lat.copied().collect()
    }
}

/// One closed-loop window of `rounds` rounds: in each, every client runs
/// the next `round_ops` operations of its stream.
fn window(
    fleet: &mut Fleet,
    scale: &Scale,
    seed: u64,
    shared: &Lazy,
    (round_ops, rounds): (u64, u64),
    traced: bool,
) -> Window {
    let net0 = fleet.net_snapshot();
    let probes0 = fleet.probes();
    let barrier = Barrier::new(fleet.clients.len() + 1);
    let (out, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || {
                    let tr = Tracer::new(traced);
                    let mut obs = Observed::default();
                    for r in 1..=rounds {
                        barrier.wait();
                        tr.span("bench", "round", || {
                            while obs.ops < r * round_ops {
                                client.step(scale, seed, shared, &tr, &mut obs);
                            }
                        });
                    }
                    barrier.wait();
                    (obs, tr)
                })
            })
            .collect();
        // One mark as each round starts, and one as the last ends.
        let marks: Vec<Instant> = (0..=rounds)
            .map(|_| {
                barrier.wait();
                Instant::now()
            })
            .collect();
        let out: Vec<(Observed, Tracer)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (out, marks)
    });
    let secs = |a: &Instant, b: &Instant| b.duration_since(*a).as_secs_f64();
    let round_secs = marks.windows(2).map(|w| secs(&w[0], &w[1])).collect();
    let secs = secs(&marks[0], &marks[marks.len() - 1]);
    let net1 = fleet.net_snapshot();
    let probes1 = fleet.probes();
    let (obs, tracers) = out.into_iter().unzip();
    Window {
        obs,
        tracers,
        secs,
        round_secs,
        net: net_delta(&net1, &net0),
        session_net: net_delta(&net1[..CLIENTS], &net0[..CLIENTS]),
        probes: (probes1.0 - probes0.0, probes1.1 - probes0.1),
    }
}

/// Replays each client's stream prefix serially in an isolated session
/// (its own fleet, its own plan cache) and compares every result
/// bitwise. Returns one reason per mismatch.
fn verify(
    windows: &[&[Observed]],
    scale: &Scale,
    seed: u64,
    shared: &Lazy,
    perturb: bool,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for c in 0..CLIENTS {
        let (ctx, _workers) = exdra_core::testutil::mem_federation_with(SITES, || WorkerConfig {
            reuse_enabled: false,
            ..WorkerConfig::default()
        });
        let session = Session::builder()
            .context(ctx)
            .no_supervision()
            .plan_cache_bytes(256 << 20)
            .build()
            .map_err(|e| format!("oracle session: {e}"))?;
        let mut stream = Stream::new(seed, c as u64);
        let mut tbl = session
            .federated(&table_data(scale, seed, c, 0))
            .map_err(|e| format!("oracle PUT: {e}"))?;
        let total: u64 = windows.iter().map(|w| w[c].ops).sum();
        let mut want = Vec::new();
        for pos in 0..total as usize {
            match stream.next_op() {
                Op::Put(v) => {
                    tbl = session
                        .federated(&table_data(scale, seed, c, v))
                        .map_err(|e| format!("oracle PUT: {e}"))?;
                }
                Op::Query { q, .. } => {
                    let plan = q
                        .plan(&tbl, shared)
                        .map_err(|e| format!("oracle plan: {e}"))?;
                    let m = session
                        .compute(&plan)
                        .map_err(|e| format!("oracle query: {e}"))?;
                    let h = bit_hash(&m);
                    want.push((pos, if perturb { h ^ 1 } else { h }));
                }
            }
        }
        let mut got: Vec<(usize, u64)> = Vec::new();
        let mut offset = 0;
        for w in windows {
            got.extend(w[c].results.iter().map(|&(p, h)| (p + offset, h)));
            offset += w[c].ops as usize;
        }
        let want: std::collections::HashMap<usize, u64> = want.into_iter().collect();
        for (pos, h) in got {
            if want.get(&pos) != Some(&h) {
                failures.push(format!(
                    "session {c} query {pos} differs from its serial replay"
                ));
            }
        }
    }
    Ok(failures)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.tiny {
        Scale {
            rows: 200,
            cols: 4,
            shared_rows: 100,
        }
    } else {
        Scale {
            rows: 2_000,
            cols: 16,
            shared_rows: 1_000,
        }
    };
    let seed = args.seed;
    let scratch =
        ScratchDir::create("analyst_sessions").map_err(|e| format!("scratch dir: {e}"))?;
    let shared_m = rand_matrix(
        scale.shared_rows,
        scale.cols,
        -1.0,
        1.0,
        SplitMix::new(seed, 77).next_u64(),
    );
    let shared = Lazy::from_local(shared_m);
    let shared_warm = Lazy::from_local(rand_matrix(
        scale.shared_rows,
        scale.cols,
        -1.0,
        1.0,
        SplitMix::new(seed ^ WARMUP_SALT, 77).next_u64(),
    ));

    let mut out = Outcome::default();
    out.setup("rows_per_table", scale.rows.to_string());
    out.setup("cols", scale.cols.to_string());
    out.setup("shared_rows", scale.shared_rows.to_string());
    out.setup("link", "\"loopback TCP, unshaped, plaintext, reuse on\"");
    out.setup("clients", CLIENTS.to_string());
    out.setup("loop", "\"closed, no think time\"");
    out.setup("repeat_share", REPEAT_SHARE.to_string());
    out.setup("put_every", PUT_EVERY.to_string());

    let mut admit_ms = Vec::new();
    let mut start = || {
        let f = Fleet::start(&scale, seed, scratch.path(), &shared_warm)?;
        admit_ms.extend_from_slice(&f.admit_ms);
        Ok(f)
    };
    let (mut fleet, mut setup_s) = start_fleets(SETUP_REPS_BEFORE, &mut start, Fleet::stop)?;

    // The window is a fixed amount of work sized to last about
    // `--seconds` here, so that its wall time and wire bytes measure the
    // program rather than the clock.
    // A traced run splits it: half untraced, half traced.
    let ops = ((args.seconds * OPS_PER_CLIENT_SECOND) as u64).max(1);
    let round_ops = ops.min(ROUND_OPS);
    let rounds = ops / round_ops;
    let half = (rounds / 2).max(1);
    let plain_rounds = if args.trace { half } else { rounds };
    let plain = window(
        &mut fleet,
        &scale,
        seed,
        &shared,
        (round_ops, plain_rounds),
        false,
    );
    let traced = args.trace.then(|| {
        exdra_obs::set_enabled(true);
        let w = window(&mut fleet, &scale, seed, &shared, (round_ops, half), true);
        exdra_obs::set_enabled(false);
        w
    });

    // Correctness: every result of every window against a serial replay.
    let mut windows: Vec<&[Observed]> = vec![&plain.obs];
    if let Some(t) = &traced {
        windows.push(&t.obs);
    }
    for w in &windows {
        for o in w.iter() {
            out.attempted += o.ops;
            for f in &o.failed {
                out.fail(f.clone());
            }
        }
    }
    for f in verify(&windows, &scale, seed, &shared, args.perturb_oracle)? {
        out.fail(f);
    }

    let plain_lat = plain.latencies_ms();
    if plain_lat.is_empty() {
        return Err("no query completed".into());
    }
    let plain_qps = plain_lat.len() as f64 / plain.secs;
    out.setup("round_ops_per_client", round_ops.to_string());
    out.setup("timed_rounds", plain.round_secs.len().to_string());
    let round_ms: Vec<String> = plain
        .round_secs
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    out.setup("round_wall_ms", format!("[{}]", round_ms.join(", ")));
    out.setup("query_samples", plain_lat.len().to_string());
    out.setup("samples_beyond_p99", (plain_lat.len() / 100).to_string());
    let (hits, misses) = plain.probes;
    out.setup(
        "plan_cache_probes",
        format!("{{\"hits\": {hits}, \"misses\": {misses}}}"),
    );

    match traced {
        None => {
            fleet.stop();
            setup_s.extend(trailing_setups(&mut start, Fleet::stop)?);
            let m = &mut out.metrics;
            m.put("setup_s", median(&setup_s), "s");
            m.put("wall_s", median(&plain.round_secs), "s");
            m.put("wire_mb", wire_mb(&plain.session_net), "MB");
            m.put("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(t) => {
            let t_qps = t.latencies_ms().len() as f64 / t.secs;
            let (hits, misses) = t.probes;
            let tracers: Vec<&Tracer> = t.tracers.iter().collect();
            let roll = Tracer::rollup(&tracers);
            let hist = exdra_obs::global().snapshot().histograms;
            // Histograms without samples (no acquisition blocked) read 0.
            let p99_ms = |name: &str| hist.get(name).map_or(0.0, |h| h.p99 / 1e6);
            let samples = |name: &str| hist.get(name).map_or(0, |h| h.count);
            let queue_names: Vec<String> = fleet
                .clients
                .iter()
                .map(|c| {
                    let ns = c.session.tenant().expect("tenant session").namespace();
                    format!("tenant.{ns}.queue_wait_nanos")
                })
                .collect();
            let queue_p99 = queue_names.iter().map(|n| p99_ms(n)).fold(0.0, f64::max);
            let queue_samples: u64 = queue_names.iter().map(|n| samples(n)).sum();
            out.setup(
                "traced_wait_samples",
                format!(
                    "{{\"queue\": {queue_samples}, \"gate\": {}}}",
                    samples("rpc.gate_wait")
                ),
            );
            out.setup(
                "traced_plan_cache_probes",
                format!("{{\"hits\": {hits}, \"misses\": {misses}}}"),
            );
            let n_explain = if args.tiny { 10 } else { 200 };
            let explain_us = explain_us(&fleet.clients[0], &shared, seed, n_explain);
            let m = &mut out.metrics;
            m.put("api.compute_s", roll.sum("api.compute"), "s");
            m.put("api.explain_us", explain_us, "us");
            m.put(
                "api.plan_cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            );
            m.put("coord.admit_ms", median(&admit_ms), "ms");
            m.put("coord.queue_wait_p99_ms", queue_p99, "ms");
            m.put("coord.gate_wait_p99_ms", p99_ms("rpc.gate_wait"), "ms");
            put_net(m, &t.net);
            let ctx = fleet.clients[0]
                .session
                .ctx()
                .expect("tenant sessions are connected");
            put_fanout_and_rtt(m, ctx, if args.tiny { 3 } else { 200 })?;
            roll.put_self_times(m);
            // Query latency and throughput come from the untraced half.
            m.put("query_p50_ms", quantile(&plain_lat, 0.50), "ms");
            m.put("query_p99_ms", quantile(&plain_lat, 0.99), "ms");
            m.put("queries_per_s", plain_qps, "1/s");
            m.put("trace.coverage", roll.coverage(), "ratio");
            m.put("trace.overhead_frac", plain_qps / t_qps - 1.0, "ratio");
            fleet.stop();
        }
    }
    Ok(out)
}

/// `api.explain_us`: median `Session::explain` time over the first `n`
/// distinct plans of a fresh copy of the client's stream.
fn explain_us(client: &Client, shared: &Lazy, seed: u64, n: usize) -> f64 {
    let mut stream = Stream::new(seed, client.index as u64);
    let mut us = Vec::new();
    while us.len() < n {
        if let Op::Query { q, repeat: false } = stream.next_op() {
            let Ok(plan) = q.plan(&client.table, shared) else {
                continue;
            };
            let (_, t) = timed(|| std::hint::black_box(client.session.explain(&plan)));
            us.push(t * 1e6);
        }
    }
    median(&us)
}
