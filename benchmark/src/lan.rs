//! `lan_raw_pipeline`: paper pipeline P2 (Fig. 8) on raw data over
//! unshaped loopback TCP. Each site holds a seeded paper-production CSV
//! file (sensor columns, categorical recipe columns, 1 % missing cells) in
//! its own data dir; one timed pass READs the raw frames, runs the
//! two-pass federated `transform_encode`, imputes, clips to ±1.5σ and
//! z-normalizes, splits 70/30 per partition, trains LM-CG, K-Means and a
//! BSP FFN, and scores the test split. CSV parsing, encoding, kernels and
//! codec throughput set its time.

use std::path::PathBuf;
use std::sync::Arc;

use exdra_api::Session;
use exdra_core::coordinator::WorkerEndpoint;
use exdra_core::fed::prep::{impute_mean, split_rows_per_partition, FedFrame};
use exdra_core::fed::{FedMatrix, FedPartition};
use exdra_core::protocol::ReadFormat;
use exdra_core::testutil::tcp_federation_with;
use exdra_core::worker::{Worker, WorkerConfig};
use exdra_core::{FedContext, PrivacyLevel, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_matrix::kernels::reorg::{cbind, index, rbind};
use exdra_matrix::{DenseMatrix, Frame, ValueType};
use exdra_ml::nn::Network;
use exdra_ml::{kmeans, lm, scoring, synth};
use exdra_net::stats::NetStatsSnapshot;
use exdra_net::Wire;
use exdra_paramserv::balance::BalanceStrategy;
use exdra_paramserv::{fed as psfed, local as pslocal};
use exdra_transform::TransformSpec;

use crate::trace::Tracer;
use crate::util::*;
use crate::{Args, SETUP_REPS_BEFORE, SITES};

const CAT_COLS: usize = 2;
const CAT_DOMAIN: usize = 8;
const MISSING: f64 = 0.01;
const LM_ITERS: usize = 10;
const KMEANS_K: usize = 8;
const KMEANS_ITERS: usize = 5;
const FFN_HIDDEN: usize = 16;
const FFN_EPOCHS: usize = 1;
const FFN_BATCH: usize = 512;
const TRAIN_FRAC: f64 = 0.7;
/// Operations of one pass: read, encode, prep, three trainings, score.
const STEPS: u64 = 7;
const FILE: &str = "raw.csv";
const WARM_FILE: &str = "warmup.csv";
/// The warm-up file holds this fraction of a site file's rows.
const WARM_DIVISOR: usize = 20;

struct Sites {
    dirs: Vec<PathBuf>,
    schema: Vec<ValueType>,
    names: Vec<String>,
    /// Rows of each site file.
    rows: usize,
    warm_rows: usize,
    spec: TransformSpec,
    y: DenseMatrix,
}

fn write_sites(
    root: &std::path::Path,
    rows: usize,
    cont: usize,
    seed: u64,
) -> Result<Sites, String> {
    let mut dirs = Vec::new();
    let mut ys = Vec::new();
    let mut first: Option<Frame> = None;
    for s in 0..SITES {
        let (frame, y) = synth::paper_production_frame(
            rows,
            CAT_COLS,
            CAT_DOMAIN,
            cont,
            MISSING,
            seed.wrapping_mul(31).wrapping_add(s as u64),
        );
        let dir = root.join(format!("site{s}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("site dir: {e}"))?;
        exdra_matrix::io::write_frame_csv(&frame, &dir.join(FILE))
            .map_err(|e| format!("write site csv: {e}"))?;
        // A smaller file of other rows for the set-up warm-up, which so
        // answers nothing the timed passes compute.
        let (warm, _) = synth::paper_production_frame(
            (rows / WARM_DIVISOR).max(1),
            CAT_COLS,
            CAT_DOMAIN,
            cont,
            MISSING,
            seed.wrapping_mul(31).wrapping_add(1000 + s as u64),
        );
        exdra_matrix::io::write_frame_csv(&warm, &dir.join(WARM_FILE))
            .map_err(|e| format!("write warm-up csv: {e}"))?;
        dirs.push(dir);
        ys.push(y);
        first.get_or_insert(frame);
    }
    let frame = first.expect("at least one site");
    let y = ys[1..]
        .iter()
        .try_fold(ys[0].clone(), |acc, t| rbind(&acc, t))
        .map_err(|e| format!("labels: {e}"))?;
    Ok(Sites {
        schema: frame.schema().into_iter().map(|(_, t)| t).collect(),
        names: frame.names().to_vec(),
        rows,
        warm_rows: (rows / WARM_DIVISOR).max(1),
        spec: TransformSpec::auto(&frame),
        dirs,
        y,
    })
}

impl Sites {
    /// READ specs of file `name` (`rows` rows) at every site.
    fn files(&self, name: &str, rows: usize) -> Vec<(String, ReadFormat, usize)> {
        let format = ReadFormat::FrameCsv {
            schema: self.schema.clone(),
        };
        vec![(name.to_string(), format, rows); SITES]
    }
}

struct Fleet {
    ctx: Arc<FedContext>,
    workers: Vec<Arc<Worker>>,
}

impl Fleet {
    fn start(sites: &Sites) -> Result<Self, String> {
        let mut dirs = sites.dirs.clone().into_iter();
        let (ctx, workers) = tcp_federation_with(
            SITES,
            move || WorkerConfig {
                data_dir: dirs.next().expect("one data dir per site"),
                // Every pass must redo its work rather than replay it.
                reuse_enabled: false,
                ..WorkerConfig::default()
            },
            WorkerEndpoint::tcp,
        );
        // Warm-up: READ and encode the small warm-up files.
        let files = sites.files(WARM_FILE, sites.warm_rows);
        let frame =
            FedFrame::read_row_partitioned(&ctx, &files, sites.names.clone(), PrivacyLevel::Public)
                .map_err(fed_err("warm-up read"))?;
        frame
            .transform_encode(&sites.spec)
            .map_err(fed_err("warm-up encode"))?;
        drop(frame);
        flush_garbage(&ctx)?;
        Ok(Fleet { ctx, workers })
    }

    /// Tears the fleet down. The in-process workers outlive their
    /// listeners, so their state is cleared first, as a site process's
    /// exit would release it.
    fn stop(self) {
        let _ = self.ctx.clear_all();
        for w in &self.workers {
            w.shutdown();
        }
    }
}

/// Impute, clip to ±1.5σ and z-normalize: P2's preprocessing, identical
/// for any tensor locality.
fn preprocess(x: &Tensor) -> exdra_core::Result<Tensor> {
    let x = impute_mean(x)?;
    let mu = x.agg(AggOp::Mean, AggDir::Col)?.to_local()?;
    let sd = x
        .agg(AggOp::Sd, AggDir::Col)?
        .to_local()?
        .map(|v| if v > 1e-12 { v } else { 1.0 });
    let lower = mu.zip(&sd, "clip", |m, s| m - 1.5 * s)?;
    let upper = mu.zip(&sd, "clip", |m, s| m + 1.5 * s)?;
    let x = x.binary(BinaryOp::Max, &Tensor::Local(lower))?;
    let x = x.binary(BinaryOp::Min, &Tensor::Local(upper))?;
    let x = x.binary(BinaryOp::Sub, &Tensor::Local(mu))?;
    x.binary(BinaryOp::Div, &Tensor::Local(sd))
}

/// Two-class one-hot FFN labels from the regression target's sign.
fn ffn_labels(y: &DenseMatrix) -> DenseMatrix {
    let pos = y.map(|v| if v >= 0.0 { 1.0 } else { 0.0 });
    cbind(&pos, &pos.map(|v| 1.0 - v)).expect("aligned rows")
}

/// What one pass trains and scores.
struct Models {
    lm: DenseMatrix,
    kmeans: DenseMatrix,
    ffn: Vec<DenseMatrix>,
    rmse: f64,
}

impl Models {
    fn hashes(&self) -> Vec<u64> {
        let mut h = vec![
            bit_hash(&self.lm),
            bit_hash(&self.kmeans),
            self.rmse.to_bits(),
        ];
        h.extend(self.ffn.iter().map(bit_hash));
        h
    }
}

struct Pass {
    wall: f64,
    wire: NetStatsSnapshot,
    models: Models,
    steps: Vec<Step>,
    /// The federated train split and its labels, kept for the oracle.
    split: Option<(FedMatrix, DenseMatrix)>,
}

fn lm_params() -> lm::LmParams {
    lm::LmParams {
        lambda: 1e-3,
        max_iter: LM_ITERS,
        tol: 0.0,
        cg_threshold: 0,
    }
}

fn kmeans_params(seed: u64) -> kmeans::KMeansParams {
    kmeans::KMeansParams {
        k: KMEANS_K,
        max_iter: KMEANS_ITERS,
        runs: 1,
        tol: 0.0,
        seed,
    }
}

fn pass(fleet: &Fleet, sites: &Sites, seed: u64, tr: &Tracer, keep: bool) -> Result<Pass, String> {
    let ctx = &fleet.ctx;
    let before = ctx.stats().snapshot();
    let mut steps = Steps::new(Some(ctx.as_ref()), tr);
    let (res, wall) = timed(|| {
        tr.span("bench", "pass", || -> Result<_, String> {
            let files = sites.files(FILE, sites.rows);
            let frame = steps.run("core", "read", || {
                FedFrame::read_row_partitioned(
                    ctx,
                    &files,
                    sites.names.clone(),
                    PrivacyLevel::Public,
                )
                .map_err(fed_err("read"))
            })?;
            let encoded = steps.run("transform", "encode", || {
                Ok(frame
                    .transform_encode(&sites.spec)
                    .map_err(fed_err("encode"))?
                    .0)
            })?;
            drop(frame);
            let split = steps.run("core", "prep", || {
                let x = preprocess(&Tensor::Fed(encoded)).map_err(fed_err("preprocess"))?;
                let Tensor::Fed(x) = x else {
                    return Err("preprocessing left the federation".into());
                };
                split_rows_per_partition(&x, Some(&sites.y), TRAIN_FRAC, seed)
                    .map_err(fed_err("split"))
            })?;
            let y_train = split.y_train.expect("labels were supplied");
            let y_test = split.y_test.expect("labels were supplied");
            let x_train = Tensor::Fed(split.x_train.clone());
            let lm_model = steps.run("ml", "lm", || {
                lm::lm_cg(&x_train, &y_train, &lm_params()).map_err(fed_err("lm"))
            })?;
            let centroids = steps.run("ml", "kmeans", || {
                Ok(kmeans::kmeans(&x_train, &kmeans_params(seed))
                    .map_err(fed_err("kmeans"))?
                    .centroids)
            })?;
            let net = Network::ffn(split.x_train.cols(), &[FFN_HIDDEN], 2, seed);
            let ffn = steps.run("paramserv", "ffn", || {
                let run = psfed::train_federated(
                    &split.x_train,
                    &ffn_labels(&y_train),
                    &fleet.workers,
                    &net,
                    &bsp_config(FFN_EPOCHS, FFN_BATCH, seed),
                    BalanceStrategy::None,
                )
                .map_err(fed_err("ffn"))?;
                Ok(run.params)
            })?;
            let rmse = steps.run("core", "score", || {
                let pred = lm::predict(&Tensor::Fed(split.x_test.clone()), &lm_model)
                    .and_then(|p| p.to_local())
                    .map_err(fed_err("score"))?;
                scoring::rmse(&pred, &y_test).map_err(|err| format!("rmse: {err}"))
            })?;
            let models = Models {
                lm: lm_model.weights,
                kmeans: centroids,
                ffn,
                rmse,
            };
            Ok((models, split.x_train, y_train))
        })
    });
    let wire = ctx.stats().snapshot().delta(&before);
    let (models, x_train, y_train) = res?;
    let split = keep.then_some((x_train, y_train));
    flush_garbage(ctx)?;
    Ok(Pass {
        wall,
        wire,
        models,
        steps: steps.done,
        split,
    })
}

/// The oracle: LM, K-Means and the FFN trained on `x`, the consolidated
/// federated train split, with the FFN's partitions those of `parts`.
fn local_oracle(
    x: &DenseMatrix,
    parts: &[FedPartition],
    y: &DenseMatrix,
    seed: u64,
) -> Result<Models, String> {
    let xl = Tensor::Local(x.clone());
    let lm = lm::lm_cg(&xl, y, &lm_params())
        .map_err(fed_err("local lm"))?
        .weights;
    let kmeans = kmeans::kmeans(&xl, &kmeans_params(seed))
        .map_err(fed_err("local kmeans"))?
        .centroids;
    let y1h = ffn_labels(y);
    let parts: Vec<(DenseMatrix, DenseMatrix)> = parts
        .iter()
        .map(|p| {
            (
                index(x, p.lo, p.hi, 0, x.cols()).expect("partition rows"),
                index(&y1h, p.lo, p.hi, 0, 2).expect("partition rows"),
            )
        })
        .collect();
    let net = Network::ffn(x.cols(), &[FFN_HIDDEN], 2, seed);
    let ffn = pslocal::train(&net, &parts, &bsp_config(FFN_EPOCHS, FFN_BATCH, seed))
        .map_err(|err| format!("local ffn: {err}"))?
        .params;
    Ok(Models {
        lm,
        kmeans,
        ffn,
        rmse: 0.0,
    })
}

fn check_oracle(out: &mut Outcome, got: &Models, want: &Models) {
    check_close(out, "lm model", &got.lm, &want.lm);
    check_close(out, "kmeans model", &got.kmeans, &want.kmeans);
    check_close_all(out, "ffn model", &got.ffn, &want.ffn);
}

/// Every pass must repeat the reference pass's models bit for bit, and
/// the wire bytes of the first pass of its mode (traced runs carry trace
/// context on the wire, so they differ from untraced ones).
fn check_repeat(out: &mut Outcome, p: &Pass, models: &Models, first: &Pass) {
    if p.models.hashes() != models.hashes() {
        out.fail("a repeated pass produced different models or scores");
    }
    check_same_wire(out, &p.wire, &first.wire);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (rows, cont) = if args.tiny { (1_000, 6) } else { (50_000, 20) };
    let seed = args.seed;
    let scratch =
        ScratchDir::create("lan_raw_pipeline").map_err(|e| format!("scratch dir: {e}"))?;
    let sites = write_sites(scratch.path(), rows, cont, seed)?;

    let mut out = Outcome::default();
    out.setup("rows", (rows * SITES).to_string());
    out.setup("raw_cols", sites.names.len().to_string());
    out.setup("link", "\"loopback TCP, unshaped, plaintext, reuse off\"");
    out.setup("clients", "1");
    out.setup("missing_rate", MISSING.to_string());
    out.setup("model_tolerance", format!("{MODEL_TOL:e}"));

    let mut start = || Fleet::start(&sites);
    let (fleet, mut setup_s) = start_fleets(SETUP_REPS_BEFORE, &mut start, Fleet::stop)?;

    // Untimed reference pass: its models are checked against the local
    // oracle, and every timed pass must repeat it bit for bit.
    let mut first = pass(&fleet, &sites, seed, &Tracer::new(false), true)?;
    let (x_train, y_train) = first.split.take().expect("reference pass keeps its split");
    out.setup("cols", x_train.cols().to_string());
    let x_local = x_train.consolidate().map_err(fed_err("consolidate"))?;
    let (oracle, local_s) = timed(|| local_oracle(&x_local, x_train.parts(), &y_train, seed));
    let mut oracle = oracle?;
    if args.perturb_oracle {
        oracle.lm.map_inplace(|v| v + 1e-3);
    }
    check_oracle(&mut out, &first.models, &oracle);
    let part = &x_train.parts()[0];
    let part0 = index(&x_local, part.lo, part.hi, 0, x_local.cols()).expect("partition rows");
    drop((x_train, x_local));
    flush_garbage(&fleet.ctx)?;

    out.attempted = STEPS;
    let (passes, traced) = timed_passes(args, &mut out, STEPS, |tr| {
        pass(&fleet, &sites, seed, tr, false)
    })?;
    for p in &passes {
        check_repeat(&mut out, p, &first.models, &passes[0]);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    out.setup("timed_passes", passes.len().to_string());
    let pass_ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    out.setup("pass_wall_ms", format!("[{}]", pass_ms.join(", ")));

    match traced {
        None => {
            fleet.stop();
            setup_s.extend(trailing_setups(&mut start, Fleet::stop)?);
            let m = &mut out.metrics;
            m.put("setup_s", median(&setup_s), "s");
            m.put("wall_s", median(&walls), "s");
            m.put("wire_mb", wire_mb(&passes[0].wire), "MB");
            m.put("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some((traced, tr)) => {
            for p in &traced {
                check_repeat(&mut out, p, &first.models, &traced[0]);
            }
            let t_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
            let session = Session::builder()
                .context(std::sync::Arc::clone(&fleet.ctx))
                .no_supervision()
                .build()
                .map_err(fed_err("profile session"))?;
            let report = session.profile();
            let roll = Tracer::rollup(&[&tr]);
            let m = &mut out.metrics;
            let steps: Vec<&[Step]> = traced.iter().map(|p| p.steps.as_slice()).collect();
            put_steps(m, &steps, &["paramserv.ffn"]);
            put_net(m, &traced[0].wire);
            put_fanout_and_rtt(m, &fleet.ctx, if args.tiny { 3 } else { 50 })?;
            put_kernel_probes(m, &part0, &sites)?;
            let engaged = report.parallelism.map_or(1.0, |p| p.threads_used_mean);
            m.put("par.threads_engaged_avg", engaged, "threads");
            roll.put_self_times(m);
            m.put("trace.coverage", roll.coverage(), "ratio");
            m.put(
                "trace.overhead_frac",
                median(&t_walls) / median(&walls) - 1.0,
                "ratio",
            );
            m.put("baseline.local_train_s", local_s, "s");
            fleet.stop();
        }
    }
    Ok(out)
}

/// Single-layer throughput probes on this run's own data: the wire codec
/// and `tsmm` on one encoded site partition, and the CSV reader on one
/// site file. Each is the median of five runs.
fn put_kernel_probes(m: &mut Metrics, part: &DenseMatrix, sites: &Sites) -> Result<(), String> {
    fn med(mut f: impl FnMut() -> f64) -> f64 {
        median(&(0..5).map(|_| f()).collect::<Vec<_>>())
    }
    let value = exdra_core::value::DataValue::from(part.clone());
    let bytes = value.to_bytes();
    let n = bytes.len() as f64;
    m.put(
        "net.codec_encode_gbps",
        n / med(|| timed(|| value.to_bytes()).1) / 1e9,
        "GB/s",
    );
    let decode = || {
        timed(|| exdra_core::value::DataValue::from_bytes(&bytes).expect("own encoding decodes")).1
    };
    m.put("net.codec_decode_gbps", n / med(decode) / 1e9, "GB/s");
    let (r, c) = part.shape();
    let tsmm = || timed(|| exdra_matrix::kernels::matmul::tsmm(part, true).expect("tsmm")).1;
    m.put(
        "matrix.tsmm_gflops",
        (r * c * c) as f64 / med(tsmm) / 1e9,
        "GFLOP/s",
    );
    let file = sites.dirs[0].join(FILE);
    let size = std::fs::metadata(&file)
        .map_err(|e| format!("site file: {e}"))?
        .len() as f64;
    let read = || {
        timed(|| exdra_matrix::io::read_frame_csv(&file, &sites.schema).expect("site file parses"))
            .1
    };
    m.put("matrix.csv_mbps", size / med(read) / 1e6, "MB/s");
    Ok(())
}
