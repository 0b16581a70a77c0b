//! `wan_train`: the paper's cross-organisation deployment. Row partitions
//! sit pre-installed at two sites behind a shaped 40 ms RTT / 1.7 MB/s
//! link with ChaCha20 channel encryption and lineage reuse off; one timed
//! pass trains LM-CG, L2SVM, MLogReg, K-Means, PCA (with projection) and a
//! BSP FFN for fixed iteration counts. Round trips and bytes on the link
//! set its time.

use std::sync::Arc;

use exdra_bench::{federation, paper_binary_labels, paper_class_labels, paper_labels};
use exdra_bench::{paper_matrix, scatter, NetSetting};
use exdra_core::fed::FedMatrix;
use exdra_core::worker::Worker;
use exdra_core::{FedContext, Tensor};
use exdra_matrix::DenseMatrix;
use exdra_ml::nn::Network;
use exdra_ml::{kmeans, l2svm, lm, mlogreg, pca, synth};
use exdra_net::crypto::{ChannelKey, CipherState};
use exdra_net::stats::NetStatsSnapshot;
use exdra_net::{NetProfile, Wire};
use exdra_paramserv::balance::BalanceStrategy;
use exdra_paramserv::{fed as psfed, local as pslocal};

use crate::trace::Tracer;
use crate::util::*;
use crate::{Args, SETUP_REPS_BEFORE, SITES};

const RTT_MS: f64 = 40.0;
const LINK_MBPS: f64 = 1.7;
const LM_ITERS: usize = 10;
const SVM_ITERS: usize = 3;
const MLR_OUTER: usize = 2;
const KMEANS_K: usize = 8;
const KMEANS_ITERS: usize = 6;
const PCA_K: usize = 4;
const CLASSES: usize = 3;
const FFN_EPOCHS: usize = 2;
const FFN_HIDDEN: usize = 16;
const FFN_BATCH: usize = 256;

/// Operations of one pass: the six trainings.
const STEPS: u64 = 6;

/// Steps whose message and byte counts are reported (all of them: round
/// trips and bytes set this workload's time).
const METERED: [&str; 6] = [
    "ml.lm",
    "ml.l2svm",
    "ml.mlogreg",
    "ml.kmeans",
    "ml.pca",
    "paramserv.ffn",
];

struct Data {
    x: DenseMatrix,
    y_reg: DenseMatrix,
    y_bin: DenseMatrix,
    y_cls: DenseMatrix,
    y_1h: DenseMatrix,
    net: Network,
}

struct Fleet {
    ctx: Arc<FedContext>,
    workers: Vec<Arc<Worker>>,
    fed: FedMatrix,
}

impl Fleet {
    fn start(data: &Data) -> Result<Self, String> {
        let (ctx, workers) = federation(
            SITES,
            NetSetting::WanEncrypted,
            NetProfile::custom(RTT_MS, LINK_MBPS),
        );
        let fed = scatter(&ctx, &workers, &data.x);
        // Warm-up: one fan-out over the link touching both partitions.
        Tensor::Fed(fed.clone())
            .col_sums()
            .and_then(|t| t.to_local())
            .map_err(|e| format!("warm-up: {e}"))?;
        flush_garbage(&ctx)?;
        Ok(Fleet { ctx, workers, fed })
    }

    /// Tears the fleet down. The in-process workers outlive their
    /// listeners, so their state is cleared first, as a site process's
    /// exit would release it.
    fn stop(self) {
        drop(self.fed);
        let _ = self.ctx.clear_all();
        for w in &self.workers {
            w.shutdown();
        }
    }
}

/// Every model of one pass (federated or local).
struct Models {
    lm: DenseMatrix,
    l2svm: DenseMatrix,
    mlogreg: DenseMatrix,
    kmeans: DenseMatrix,
    pca: DenseMatrix,
    ffn: Vec<DenseMatrix>,
}

impl Models {
    fn hashes(&self) -> Vec<u64> {
        let mut h: Vec<u64> = [
            &self.lm,
            &self.l2svm,
            &self.mlogreg,
            &self.kmeans,
            &self.pca,
        ]
        .iter()
        .map(|m| bit_hash(m))
        .collect();
        h.extend(self.ffn.iter().map(bit_hash));
        h
    }
}

struct Pass {
    wall: f64,
    wire: NetStatsSnapshot,
    models: Models,
    steps: Vec<Step>,
}

/// Trains all six algorithms on `x`; `fed` is set for the federated
/// pass, whose steps are metered.
fn train_all(
    x: &Tensor,
    data: &Data,
    seed: u64,
    fed: Option<(&FedContext, &FedMatrix, &[Arc<Worker>])>,
    tr: &Tracer,
) -> Result<(Models, Vec<Step>), String> {
    let mut steps = Steps::new(fed.map(|(ctx, _, _)| ctx), tr);
    let lm_p = lm::LmParams {
        lambda: 1e-3,
        max_iter: LM_ITERS,
        tol: 0.0,
        cg_threshold: 0,
    };
    let lm = steps.run("ml", "lm", || {
        Ok(lm::lm_cg(x, &data.y_reg, &lm_p)
            .map_err(fed_err("lm"))?
            .weights)
    })?;
    let svm_p = l2svm::L2SvmParams {
        max_iter: SVM_ITERS,
        tol: 0.0,
        ..l2svm::L2SvmParams::default()
    };
    let l2svm = steps.run("ml", "l2svm", || {
        Ok(l2svm::l2svm(x, &data.y_bin, &svm_p)
            .map_err(fed_err("l2svm"))?
            .weights)
    })?;
    let mlr_p = mlogreg::MLogRegParams {
        max_outer: MLR_OUTER,
        tol: 0.0,
        ..mlogreg::MLogRegParams::default()
    };
    let mlogreg = steps.run("ml", "mlogreg", || {
        let m = mlogreg::mlogreg(x, &data.y_cls, CLASSES, &mlr_p).map_err(fed_err("mlogreg"))?;
        Ok(m.weights)
    })?;
    let km_p = kmeans::KMeansParams {
        k: KMEANS_K,
        max_iter: KMEANS_ITERS,
        runs: 1,
        tol: 0.0,
        seed,
    };
    let kmeans = steps.run("ml", "kmeans", || {
        Ok(kmeans::kmeans(x, &km_p)
            .map_err(fed_err("kmeans"))?
            .centroids)
    })?;
    let pca = steps.run("ml", "pca", || {
        let model = pca::pca(x, PCA_K).map_err(fed_err("pca"))?;
        // Projection is part of the measured algorithm; its column sums
        // are the checked output.
        let proj = pca::transform(x, &model).map_err(fed_err("pca projection"))?;
        proj.col_sums()
            .and_then(|t| t.to_local())
            .map_err(fed_err("pca sums"))
    })?;
    let cfg = bsp_config(FFN_EPOCHS, FFN_BATCH, seed);
    let ffn = steps.run("paramserv", "ffn", || {
        let run = match fed {
            Some((_, f, workers)) => psfed::train_federated(
                f,
                &data.y_1h,
                workers,
                &data.net,
                &cfg,
                BalanceStrategy::None,
            )
            .map_err(fed_err("ffn"))?,
            None => {
                let parts = local_parts(&data.x, &data.y_1h);
                pslocal::train(&data.net, &parts, &cfg)
                    .map_err(|err| format!("local ffn: {err}"))?
            }
        };
        Ok(run.params)
    })?;
    let models = Models {
        lm,
        l2svm,
        mlogreg,
        kmeans,
        pca,
        ffn,
    };
    Ok((models, steps.done))
}

/// The local parameter-server partitions matching `scatter`'s row split.
fn local_parts(x: &DenseMatrix, y: &DenseMatrix) -> Vec<(DenseMatrix, DenseMatrix)> {
    use exdra_matrix::kernels::reorg::index;
    let base = x.rows() / SITES;
    let extra = x.rows() % SITES;
    let mut lo = 0;
    (0..SITES)
        .map(|w| {
            let hi = lo + base + usize::from(w < extra);
            let part = (
                index(x, lo, hi, 0, x.cols()).expect("row slice"),
                index(y, lo, hi, 0, y.cols()).expect("row slice"),
            );
            lo = hi;
            part
        })
        .collect()
}

fn fed_pass(fleet: &Fleet, data: &Data, seed: u64, tr: &Tracer) -> Result<Pass, String> {
    let before = fleet.ctx.stats().snapshot();
    let x = Tensor::Fed(fleet.fed.clone());
    let ((models, steps), wall) = {
        let (r, wall) = timed(|| {
            tr.span("bench", "pass", || {
                train_all(
                    &x,
                    data,
                    seed,
                    Some((&fleet.ctx, &fleet.fed, &fleet.workers)),
                    tr,
                )
            })
        });
        (r?, wall)
    };
    let wire = fleet.ctx.stats().snapshot().delta(&before);
    drop(x);
    flush_garbage(&fleet.ctx)?;
    Ok(Pass {
        wall,
        wire,
        models,
        steps,
    })
}

/// Checks a pass against the local oracle and, bit for bit, against the
/// first pass of its mode (traced runs carry trace context on the wire).
fn check(out: &mut Outcome, pass: &Pass, oracle: &Models, first: &Pass) {
    check_close(out, "lm model", &pass.models.lm, &oracle.lm);
    check_close(out, "kmeans model", &pass.models.kmeans, &oracle.kmeans);
    check_close_all(out, "ffn model", &pass.models.ffn, &oracle.ffn);
    if pass.models.hashes() != first.models.hashes() {
        out.fail("a repeated pass produced different models");
    }
    check_same_wire(out, &pass.wire, &first.wire);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (rows, cols) = if args.tiny { (1_000, 10) } else { (20_000, 40) };
    let seed = args.seed;
    let x = paper_matrix(rows, cols, seed.wrapping_mul(7).wrapping_add(1));
    let y_reg = paper_labels(&x, seed.wrapping_add(2));
    let y_bin = paper_binary_labels(&x, seed.wrapping_add(3));
    let y_cls = paper_class_labels(&x, CLASSES, seed.wrapping_add(4));
    let y_1h = synth::one_hot(&y_cls, CLASSES);
    let net = Network::ffn(cols, &[FFN_HIDDEN], CLASSES, seed.wrapping_add(5));
    let data = Data {
        x,
        y_reg,
        y_bin,
        y_cls,
        y_1h,
        net,
    };

    let mut out = Outcome::default();
    out.setup("rows", rows.to_string());
    out.setup("cols", cols.to_string());
    out.setup(
        "link",
        format!("\"shaped TCP {RTT_MS} ms RTT / {LINK_MBPS} MB/s, ChaCha20, reuse off\""),
    );
    out.setup("clients", "1");
    out.setup(
        "iterations",
        format!(
            "{{\"lm\": {LM_ITERS}, \"l2svm\": {SVM_ITERS}, \"mlogreg_outer\": {MLR_OUTER}, \
             \"kmeans\": {KMEANS_ITERS}, \"kmeans_k\": {KMEANS_K}, \"pca_k\": {PCA_K}, \
             \"ffn_epochs\": {FFN_EPOCHS}}}"
        ),
    );
    out.setup("model_tolerance", format!("{MODEL_TOL:e}"));

    // The oracle: the same training on Tensor::Local, outside the timed
    // phase (also the paper's Local column, `baseline.local_train_s`).
    let local = Tensor::Local(data.x.clone());
    let (oracle, local_s) = timed(|| train_all(&local, &data, seed, None, &Tracer::new(false)));
    let mut oracle = oracle?.0;
    if args.perturb_oracle {
        for m in [&mut oracle.lm, &mut oracle.kmeans] {
            m.map_inplace(|v| v + 1e-3);
        }
    }

    let mut start = || Fleet::start(&data);
    let (fleet, mut setup_s) = start_fleets(SETUP_REPS_BEFORE, &mut start, Fleet::stop)?;
    let (passes, traced) = timed_passes(args, &mut out, STEPS, |tr| {
        fed_pass(&fleet, &data, seed, tr)
    })?;
    for p in &passes {
        check(&mut out, p, &oracle, &passes[0]);
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
                check(&mut out, p, &oracle, &traced[0]);
            }
            let t_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
            let roll = Tracer::rollup(&[&tr]);
            let m = &mut out.metrics;
            let steps: Vec<&[Step]> = traced.iter().map(|p| p.steps.as_slice()).collect();
            put_steps(m, &steps, &METERED);
            put_net(m, &traced[0].wire);
            put_fanout_and_rtt(m, &fleet.ctx, if args.tiny { 3 } else { 10 })?;
            m.put("net.crypto_seal_gbps", seal_gbps(&fleet, &data.x), "GB/s");
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

/// `net.crypto_seal_gbps`: ChaCha20 sealing of one site partition's wire
/// encoding (the channel cipher the WAN link runs).
fn seal_gbps(fleet: &Fleet, x: &DenseMatrix) -> f64 {
    let part = &fleet.fed.parts()[0];
    let slice = exdra_matrix::kernels::reorg::index(x, part.lo, part.hi, 0, x.cols())
        .expect("partition rows");
    let bytes = exdra_core::value::DataValue::from(slice).to_bytes();
    let mut cipher = CipherState::new(ChannelKey::from_passphrase("exdra-bench"), 0);
    let mut secs = Vec::new();
    for _ in 0..5 {
        let (sealed, t) = timed(|| cipher.seal(&bytes));
        std::hint::black_box(sealed);
        secs.push(t);
    }
    bytes.len() as f64 / median(&secs) / 1e9
}
