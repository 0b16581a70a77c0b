//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <wan_train|lan_raw_pipeline|analyst_sessions> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale tiny] [--perturb-oracle]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer split of a separately traced run. Every input derives from
//! `--seed`; every output is checked against an oracle built outside the
//! timed phase. The last stdout line is the JSON result; the process
//! exits non-zero if any operation failed or any check mismatched.
//! `BENCHMARK.json` at the repository root documents the workloads and
//! metrics. `--scale tiny` and `--perturb-oracle` exist for the
//! benchmark's own tests.

mod analyst;
mod lan;
mod trace;
mod util;
mod wan;

use std::time::Duration;

use util::Outcome;

/// The compute-pool width every workload runs at, set here rather than
/// inherited from the host so results compare across machines.
pub const PAR_WIDTH: usize = 2;

/// Federated sites in every workload.
pub const SITES: usize = 2;

/// How often set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 21;

/// Set-ups before the timed phase; the rest follow it, so `setup_s`
/// samples the host across the whole run rather than one moment of it.
pub const SETUP_REPS_BEFORE: usize = 11;

/// The end-to-end metrics `BENCHMARK.json` declares, `(name, unit)` in
/// its order. Every workload reports each of them with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wire_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` declares, `(name, unit)` in its
/// order. Every workload prints each of them with `--trace 1`; a metric
/// of a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("api.compute_s", "s"),
    ("api.explain_us", "us"),
    ("api.plan_cache_hit_ratio", "ratio"),
    ("api.self_s", "s"),
    ("coord.admit_ms", "ms"),
    ("coord.queue_wait_p99_ms", "ms"),
    ("coord.gate_wait_p99_ms", "ms"),
    ("core.fanout_us", "us"),
    ("core.read_s", "s"),
    ("core.prep_s", "s"),
    ("core.score_s", "s"),
    ("core.self_s", "s"),
    ("transform.encode_s", "s"),
    ("transform.self_s", "s"),
    ("ml.lm_s", "s"),
    ("ml.lm_msgs", "count"),
    ("ml.lm_kb", "kB"),
    ("ml.l2svm_s", "s"),
    ("ml.l2svm_msgs", "count"),
    ("ml.l2svm_kb", "kB"),
    ("ml.mlogreg_s", "s"),
    ("ml.mlogreg_msgs", "count"),
    ("ml.mlogreg_kb", "kB"),
    ("ml.kmeans_s", "s"),
    ("ml.kmeans_msgs", "count"),
    ("ml.kmeans_kb", "kB"),
    ("ml.pca_s", "s"),
    ("ml.pca_msgs", "count"),
    ("ml.pca_kb", "kB"),
    ("ml.self_s", "s"),
    ("paramserv.ffn_s", "s"),
    ("paramserv.ffn_msgs", "count"),
    ("paramserv.ffn_kb", "kB"),
    ("paramserv.self_s", "s"),
    ("net.msgs", "count"),
    ("net.bytes_sent", "B"),
    ("net.bytes_recv", "B"),
    ("net.blocked_s", "s"),
    ("net.retries", "count"),
    ("net.heartbeats", "count"),
    ("net.max_inflight", "count"),
    ("net.codec_encode_gbps", "GB/s"),
    ("net.codec_decode_gbps", "GB/s"),
    ("net.crypto_seal_gbps", "GB/s"),
    ("net.tcp_rtt_us", "us"),
    ("matrix.tsmm_gflops", "GFLOP/s"),
    ("matrix.csv_mbps", "MB/s"),
    ("par.threads_engaged_avg", "threads"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("baseline.local_train_s", "s"),
    ("failed_frac", "ratio"),
];

/// Command-line configuration of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input (the benchmark's own tests).
    pub tiny: bool,
    /// Perturbs every oracle so the correctness gate must trip.
    pub perturb_oracle: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            perturb_oracle: false,
        };
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                "--scale" => {
                    args.tiny = match value()?.as_str() {
                        "tiny" => true,
                        "full" => false,
                        other => return Err(format!("--scale must be tiny or full, got {other}")),
                    }
                }
                "--perturb-oracle" => args.perturb_oracle = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// The timed budget of one run.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    format!(
        "{{\"nproc\": {nproc}, \"arch\": \"{}\", \"avx2\": {avx2}, \"avx512f\": {avx512f}}}",
        std::env::consts::ARCH
    )
}

/// Puts the metrics in the order `BENCHMARK.json` declares them. A
/// per-layer metric the workload did not report belongs to a layer it
/// bypasses and reads 0; those names are returned. A missing end-to-end
/// metric, an undeclared metric or a wrong unit counts as a failure.
fn conform(out: &mut Outcome, trace: bool) -> Vec<&'static str> {
    let declared: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut reported = std::mem::take(&mut out.metrics.0);
    let mut bypassed = Vec::new();
    for &(name, unit) in declared {
        match reported.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = reported.remove(i);
                if m.unit != unit {
                    out.fail(format!(
                        "metric {name} is in {}, declared in {unit}",
                        m.unit
                    ));
                }
                out.metrics.0.push(m);
            }
            None if trace => {
                out.metrics.put(name, 0.0, unit);
                bypassed.push(name);
            }
            None => out.fail(format!("end-to-end metric {name} was not measured")),
        }
    }
    for m in reported {
        out.fail(format!("metric {} is not declared", m.name));
    }
    bypassed
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    exdra_par::set_threads(PAR_WIDTH);
    let run = match args.workload.as_str() {
        "wan_train" => wan::run,
        "lan_raw_pipeline" => lan::run,
        "analyst_sessions" => analyst::run,
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: workload {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    // Non-finite figures are not measurements; count them as failures.
    for m in &mut out.metrics.0 {
        if !m.value.is_finite() {
            out.failed += 1;
            out.failures
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }

    if args.trace {
        out.metrics.put("failed_frac", 0.0, "ratio");
    }
    let bypassed = conform(&mut out, args.trace);
    if let Some(m) = out.metrics.0.iter_mut().find(|m| m.name == "failed_frac") {
        m.value = out.failed as f64 / out.attempted.max(1) as f64;
    }

    let mut setup = format!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"par_width\": {}, \"sites\": {SITES}, \"setup_reps\": {SETUP_REPS}",
        host_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        exdra_par::threads(),
    );
    for (k, v) in &out.setup {
        setup.push_str(&format!(", \"{k}\": {v}"));
    }
    setup.push('}');
    println!("setup {setup}");
    for m in &out.metrics.0 {
        let note = if bypassed.contains(&m.name.as_str()) {
            " (layer bypassed by this workload)"
        } else {
            ""
        };
        println!("metric {} = {} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {}/{} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
