//! Measurement plumbing shared by the workloads: statistics, the process
//! peak-memory probe, result hashing, the per-run scratch directory, and
//! the metric/result records the workloads hand back to `main`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use exdra_core::protocol::Request;
use exdra_core::FedContext;
use exdra_matrix::DenseMatrix;
use exdra_net::stats::NetStatsSnapshot;
use exdra_paramserv::{AggregationMode, PsConfig, UpdateFreq, UpdateType};

use crate::trace::Tracer;
use crate::{Args, SETUP_REPS, SETUP_REPS_BEFORE};

/// Median of a sample (the mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB, from `getrusage`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s (2 x 16 bytes) followed by
    // 14 `long` fields, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable, properly aligned buffer of the size
    // of the C `struct rusage` on 64-bit Linux, which `getrusage` fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.fields[4] as f64 / 1024.0
}

/// FNV-1a over a matrix's shape and the exact bit patterns of its cells:
/// two results hash equal only if they are (up to 2^-64) bitwise equal.
pub fn bit_hash(m: &DenseMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for v in m.values() {
        eat(v.to_bits());
    }
    h
}

/// The splitmix64 generator: derives every input of a run from its seed.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `salt` of run seed `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A run-private scratch directory inside the working directory, named
/// by pid and a clock nonce, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.bench_tmp/<tag>-<pid>-<nonce>` under the working directory.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(".bench_tmp").join(format!("{tag}-{}-{nonce}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir.canonicalize()?))
    }

    /// The directory's absolute path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (ignored while other runs
        // still own sibling directories).
        let _ = std::fs::remove_dir(Path::new(".bench_tmp"));
    }
}

/// Times `f`, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `pass` until `budget` has elapsed (at least once), returning
/// every pass's output.
pub fn repeat_for<T>(budget: Duration, mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![pass()];
    while t0.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (passes, steps or queries).
    pub attempted: u64,
    /// Operations that failed, plus every correctness-gate mismatch.
    pub failed: u64,
    /// Human-readable reasons for each failure.
    pub failures: Vec<String>,
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Workload scale and link facts for the setup record, as JSON pairs.
    pub setup: Vec<(String, String)>,
}

impl Outcome {
    /// Records a correctness-gate failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Keeps the passes that ran, counting each one that failed.
    pub fn keep_ok<T>(&mut self, results: Vec<Result<T, String>>) -> Vec<T> {
        let mut ok = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(v) => ok.push(v),
                Err(e) => self.fail(e),
            }
        }
        ok
    }

    /// Records a setup fact (value is JSON).
    pub fn setup(&mut self, key: &str, json_value: impl Into<String>) {
        self.setup.push((key.to_string(), json_value.into()));
    }
}

/// Maps a program error to this run's error text.
pub fn fed_err(what: &'static str) -> impl Fn(exdra_core::FedError) -> String {
    move |err| format!("{what}: {err}")
}

/// A BSP parameter-server configuration with epoch-wise pushes.
pub fn bsp_config(epochs: usize, batch_size: usize, seed: u64) -> PsConfig {
    PsConfig {
        update_type: UpdateType::Bsp,
        freq: UpdateFreq::Epoch,
        epochs,
        batch_size,
        lr: 0.05,
        momentum: 0.9,
        nesterov: true,
        seed,
        aggregation: AggregationMode::Strict,
        max_staleness: None,
    }
}

/// Starts `n` fleets one after another, stopping each but the last;
/// returns the last and the seconds of every start.
pub fn start_fleets<F>(
    n: usize,
    start: &mut impl FnMut() -> Result<F, String>,
    stop: impl Fn(F),
) -> Result<(F, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let (fleet, t) = timed(&mut *start);
        secs.push(t);
        if let Some(previous) = last.replace(fleet?) {
            stop(previous);
        }
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// Starts and stops the set-ups that follow the timed phase, returning
/// their seconds.
pub fn trailing_setups<F>(
    start: &mut impl FnMut() -> Result<F, String>,
    stop: impl Fn(F),
) -> Result<Vec<f64>, String> {
    let (last, secs) = start_fleets(SETUP_REPS - SETUP_REPS_BEFORE, start, &stop)?;
    stop(last);
    Ok(secs)
}

/// The passes of a traced run's second half, with their spans.
pub type Traced<P> = Option<(Vec<P>, Tracer)>;

/// The timed passes of a training workload: the whole budget untraced,
/// or, for a traced run, half untraced (the overhead reference) and half
/// with the benchmark's spans and the program's telemetry on. Each pass
/// counts as `steps` attempted operations; a failed pass as one failure.
pub fn timed_passes<P>(
    args: &Args,
    out: &mut Outcome,
    steps: u64,
    mut pass: impl FnMut(&Tracer) -> Result<P, String>,
) -> Result<(Vec<P>, Traced<P>), String> {
    let untraced = Tracer::new(false);
    let budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let plain = repeat_for(budget, || pass(&untraced));
    let traced = args.trace.then(|| {
        exdra_obs::set_enabled(true);
        let tr = Tracer::new(true);
        let passes = repeat_for(budget, || pass(&tr));
        exdra_obs::set_enabled(false);
        (passes, tr)
    });
    let mut keep = |passes: Vec<Result<P, String>>| {
        out.attempted += steps * passes.len() as u64;
        let ok = out.keep_ok(passes);
        if ok.is_empty() {
            return Err(format!("every pass failed: {:?}", out.failures));
        }
        Ok(ok)
    };
    let plain = keep(plain)?;
    let traced = match traced {
        Some((passes, tr)) => Some((keep(passes)?, tr)),
        None => None,
    };
    Ok((plain, traced))
}

/// Tolerance of federated models against their local oracle, relative to
/// the largest oracle cell: federated partial sums add in another order
/// than the local kernels, so equality holds only to rounding.
pub const MODEL_TOL: f64 = 1e-9;

/// Fails `out` unless `got` is within [`MODEL_TOL`] of `want`.
pub fn check_close(out: &mut Outcome, what: &str, got: &DenseMatrix, want: &DenseMatrix) {
    let d = rel_diff(got, want);
    if d.is_nan() || d > MODEL_TOL {
        out.fail(format!("{what} differs from the local oracle by {d:e}"));
    }
}

/// [`check_close`] for a model made of several matrices: one failure at
/// most, for the worst matrix or a differing count.
pub fn check_close_all(out: &mut Outcome, what: &str, got: &[DenseMatrix], want: &[DenseMatrix]) {
    if got.len() != want.len() {
        out.fail(format!("{what} has another shape than the local oracle"));
        return;
    }
    let worst = got
        .iter()
        .zip(want)
        .max_by(|a, b| rel_diff(a.0, a.1).total_cmp(&rel_diff(b.0, b.1)));
    if let Some((g, w)) = worst {
        check_close(out, what, g, w);
    }
}

/// Fails `out` unless two passes moved exactly the same bytes.
pub fn check_same_wire(out: &mut Outcome, a: &NetStatsSnapshot, b: &NetStatsSnapshot) {
    if (a.bytes_sent, a.bytes_received) != (b.bytes_sent, b.bytes_received) {
        out.fail(format!(
            "wire bytes differ between passes: {} vs {} MB",
            wire_mb(a),
            wire_mb(b)
        ));
    }
}

/// Sends any queued `rmvar`s, so the next pass starts with an empty
/// garbage queue and its wire bytes repeat exactly.
pub fn flush_garbage(ctx: &FedContext) -> Result<(), String> {
    for w in 0..ctx.num_workers() {
        ctx.call(w, &[]).map_err(|e| format!("flush: {e}"))?;
    }
    Ok(())
}

/// One recorded step of a pass: a span around one call into a layer.
pub struct Step {
    /// `layer.name`, the stem of the step's per-layer metrics.
    pub key: String,
    pub secs: f64,
    /// The NetStats delta around the call, for federated steps.
    pub net: Option<NetStatsSnapshot>,
}

/// Times, traces and (for federated runs) meters the steps of a pass.
pub struct Steps<'a> {
    ctx: Option<&'a FedContext>,
    tr: &'a Tracer,
    pub done: Vec<Step>,
}

impl<'a> Steps<'a> {
    /// A recorder metering `ctx`'s NetStats when given.
    pub fn new(ctx: Option<&'a FedContext>, tr: &'a Tracer) -> Self {
        Steps {
            ctx,
            tr,
            done: Vec::new(),
        }
    }

    /// Runs one step inside a span of `layer` named `name`.
    pub fn run<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let before = self.ctx.map(|c| c.stats().snapshot());
        let (r, secs) = timed(|| self.tr.span(layer, name, f));
        let net = self
            .ctx
            .zip(before)
            .map(|(c, b)| c.stats().snapshot().delta(&b));
        self.done.push(Step {
            key: format!("{layer}.{name}"),
            secs,
            net,
        });
        r
    }
}

/// Adds `<key>_s` (median over passes) for every step, plus `<key>_msgs`
/// and `<key>_kb` of the first pass for the keys in `metered`.
pub fn put_steps(m: &mut Metrics, passes: &[&[Step]], metered: &[&str]) {
    for (i, step) in passes[0].iter().enumerate() {
        let secs: Vec<f64> = passes.iter().map(|p| p[i].secs).collect();
        m.put(format!("{}_s", step.key), median(&secs), "s");
        if let (true, Some(d)) = (metered.contains(&step.key.as_str()), &step.net) {
            let msgs = d.messages_sent + d.messages_received;
            m.put(format!("{}_msgs", step.key), msgs as f64, "count");
            let kb = (d.bytes_sent + d.bytes_received) as f64 / 1e3;
            m.put(format!("{}_kb", step.key), kb, "kB");
        }
    }
}

/// Adds the `net.*` per-layer metrics of one NetStats delta.
pub fn put_net(m: &mut Metrics, d: &NetStatsSnapshot) {
    m.put(
        "net.msgs",
        (d.messages_sent + d.messages_received) as f64,
        "count",
    );
    m.put("net.bytes_sent", d.bytes_sent as f64, "B");
    m.put("net.bytes_recv", d.bytes_received as f64, "B");
    m.put("net.blocked_s", d.network_seconds, "s");
    m.put("net.retries", d.retries as f64, "count");
    m.put("net.heartbeats", d.heartbeats as f64, "count");
    m.put("net.max_inflight", d.max_inflight as f64, "count");
}

/// Bytes sent plus received in a NetStats delta, in MB.
pub fn wire_mb(d: &NetStatsSnapshot) -> f64 {
    (d.bytes_sent + d.bytes_received) as f64 / 1e6
}

/// `core.fanout_us` and `net.tcp_rtt_us`: the median of `n` minimal
/// `call_all` fan-outs (one heartbeat request per site) and of `n`
/// single-site heartbeat round trips on the workload's own fleet.
pub fn put_fanout_and_rtt(m: &mut Metrics, ctx: &FedContext, n: usize) -> Result<(), String> {
    let mut fan = Vec::with_capacity(n);
    let mut rtt = Vec::with_capacity(n);
    for _ in 0..n {
        let batches = vec![vec![Request::Heartbeat]; ctx.num_workers()];
        let (r, t) = timed(|| ctx.call_all(batches));
        r.map_err(|e| format!("fan-out probe: {e}"))?;
        fan.push(t * 1e6);
        let (r, t) = timed(|| ctx.heartbeat(0));
        r.map_err(|e| format!("heartbeat probe: {e}"))?;
        rtt.push(t * 1e6);
    }
    m.put("core.fanout_us", median(&fan), "us");
    m.put("net.tcp_rtt_us", median(&rtt), "us");
    Ok(())
}

/// Largest absolute cell difference relative to the reference's scale.
pub fn rel_diff(got: &DenseMatrix, want: &DenseMatrix) -> f64 {
    if got.shape() != want.shape() {
        return f64::INFINITY;
    }
    let scale = want.values().iter().fold(1.0f64, |m, v| m.max(v.abs()));
    got.max_abs_diff(want) / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn bit_hash_separates_signed_zero() {
        let a = DenseMatrix::new(1, 1, vec![0.0]).unwrap();
        let b = DenseMatrix::new(1, 1, vec![-0.0]).unwrap();
        assert_ne!(bit_hash(&a), bit_hash(&b));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
