//! End-to-end algorithm equivalence over real TCP federations: every ML
//! algorithm of the evaluation produces (numerically) identical models on
//! federated and local data — the correctness claim behind Figure 5.

use exdra::core::fed::FedMatrix;
use exdra::core::testutil::tcp_federation;
use exdra::core::{PrivacyLevel, Tensor};
use exdra::ml::{gmm, kmeans, l2svm, lm, mlogreg, pca, synth};
use exdra::paramserv::balance::BalanceStrategy;
use exdra::paramserv::{fed as psfed, local as pslocal, PsConfig};

fn tcp_fed_of(
    n: usize,
    x: &exdra::DenseMatrix,
) -> (
    std::sync::Arc<exdra::FedContext>,
    Vec<std::sync::Arc<exdra::core::worker::Worker>>,
    FedMatrix,
) {
    let (ctx, workers) = tcp_federation(n);
    let fed = FedMatrix::scatter_rows(&ctx, x, PrivacyLevel::Public).unwrap();
    (ctx, workers, fed)
}

#[test]
fn lm_over_tcp_matches_local() {
    let (x, y, _) = synth::regression(500, 10, 0.1, 1);
    let params = lm::LmParams {
        lambda: 1e-3,
        max_iter: 30,
        tol: 1e-12,
        cg_threshold: 0,
    };
    let local = lm::lm(&Tensor::Local(x.clone()), &y, &params).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(3, &x);
    let fedm = lm::lm(&Tensor::Fed(fed), &y, &params).unwrap();
    assert!(fedm.weights.max_abs_diff(&local.weights) < 1e-9);
}

#[test]
fn l2svm_over_tcp_matches_local() {
    let (x, y) = synth::two_class(400, 8, 0.05, 2);
    let params = l2svm::L2SvmParams::default();
    let local = l2svm::l2svm(&Tensor::Local(x.clone()), &y, &params).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(2, &x);
    let fedm = l2svm::l2svm(&Tensor::Fed(fed), &y, &params).unwrap();
    assert!(fedm.weights.max_abs_diff(&local.weights) < 1e-8);
    assert_eq!(fedm.iterations, local.iterations);
}

#[test]
fn mlogreg_over_tcp_matches_local() {
    let (x, y) = synth::multi_class(300, 6, 3, 0.5, 3);
    let params = mlogreg::MLogRegParams {
        max_outer: 3,
        ..mlogreg::MLogRegParams::default()
    };
    let local = mlogreg::mlogreg(&Tensor::Local(x.clone()), &y, 3, &params).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(3, &x);
    let fedm = mlogreg::mlogreg(&Tensor::Fed(fed), &y, 3, &params).unwrap();
    assert!(fedm.weights.max_abs_diff(&local.weights) < 1e-7);
}

#[test]
fn kmeans_over_tcp_matches_local() {
    let (x, _) = synth::blobs(300, 4, 4, 0.5, 4);
    let params = kmeans::KMeansParams {
        k: 4,
        max_iter: 8,
        runs: 1,
        tol: 0.0,
        seed: 5,
    };
    let local = kmeans::kmeans(&Tensor::Local(x.clone()), &params).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(2, &x);
    let fedm = kmeans::kmeans(&Tensor::Fed(fed), &params).unwrap();
    assert!(fedm.centroids.max_abs_diff(&local.centroids) < 1e-8);
}

#[test]
fn pca_over_tcp_matches_local() {
    let (x, _) = synth::blobs(250, 6, 3, 0.6, 5);
    let local = pca::pca(&Tensor::Local(x.clone()), 3).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(3, &x);
    let fedm = pca::pca(&Tensor::Fed(fed), 3).unwrap();
    assert!(
        local
            .components
            .map(f64::abs)
            .max_abs_diff(&fedm.components.map(f64::abs))
            < 1e-7
    );
    for (a, b) in local.eigenvalues.iter().zip(&fedm.eigenvalues) {
        assert!((a - b).abs() < 1e-7);
    }
}

#[test]
fn gmm_over_tcp_matches_local() {
    let (x, _) = synth::blobs(240, 3, 2, 0.4, 6);
    let params = gmm::GmmParams {
        k: 2,
        max_iter: 5,
        tol: 0.0,
        ..gmm::GmmParams::default()
    };
    let local = gmm::gmm(&Tensor::Local(x.clone()), &params).unwrap();
    let (_ctx, _w, fed) = tcp_fed_of(2, &x);
    let fedm = gmm::gmm(&Tensor::Fed(fed), &params).unwrap();
    assert!(fedm.means.max_abs_diff(&local.means) < 1e-7);
    assert!((fedm.log_likelihood - local.log_likelihood).abs() < 1e-8);
}

#[test]
fn federated_ps_over_tcp_matches_local_ps() {
    let (x, y) = synth::multi_class(240, 5, 3, 0.4, 7);
    let y1h = synth::one_hot(&y, 3);
    let net = exdra::ml::nn::Network::ffn(5, &[8], 3, 8);
    let cfg = PsConfig {
        epochs: 2,
        seed: 3,
        ..PsConfig::default()
    };
    let parts = pslocal::partition(&x, &y1h, 3, None).unwrap();
    let local_run = pslocal::train(&net, &parts, &cfg).unwrap();
    let (_ctx, workers, fed) = tcp_fed_of(3, &x);
    let fed_run =
        psfed::train_federated(&fed, &y1h, &workers, &net, &cfg, BalanceStrategy::None).unwrap();
    for (a, b) in fed_run.params.iter().zip(&local_run.params) {
        assert!(a.max_abs_diff(b) < 1e-10);
    }
}

#[test]
fn many_workers_partition_fairly() {
    let (x, _) = synth::blobs(701, 3, 2, 0.5, 9);
    let (_ctx, _w, fed) = tcp_fed_of(7, &x);
    assert_eq!(fed.parts().len(), 7);
    let sizes: Vec<usize> = fed.parts().iter().map(|p| p.len()).collect();
    assert_eq!(sizes.iter().sum::<usize>(), 701);
    assert!(sizes.iter().all(|&s| s == 100 || s == 101));
    let back = fed.consolidate().unwrap();
    assert!(back.max_abs_diff(&x) < 1e-15);
}

/// Messages `train` sends on `ctx`: every lock-step call sends exactly
/// one message to its worker.
fn messages_sent(ctx: &exdra::FedContext, train: impl FnOnce()) -> u64 {
    let before = ctx.stats().snapshot();
    train();
    ctx.stats().snapshot().delta(&before).messages_sent
}

#[test]
fn deferred_dispatch_round_counts_per_iteration() {
    // Ops whose output stays at the sites ride the next round that returns
    // data, so an iteration costs exactly its data-returning rounds, each
    // one message to each of the two workers.
    let (ctx, _workers) = exdra::core::testutil::mem_federation(2);
    let (x, _) = synth::blobs(120, 3, 4, 0.5, 71);
    let fed = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let kmeans_messages = |max_iter| {
        let params = kmeans::KMeansParams {
            k: 3,
            max_iter,
            runs: 1,
            tol: 0.0,
            seed: 5,
        };
        messages_sent(&ctx, || {
            kmeans::kmeans(&fed, &params).unwrap();
        })
    };
    let init = kmeans_messages(0);
    // K-Means: sum(P ⊙ D), colSums(P) and t(P) %*% X per Lloyd step.
    assert_eq!(kmeans_messages(1), init + 3 * 2);

    let (x, y) = synth::two_class(100, 4, 0.05, 72);
    let fed = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let l2svm_messages = |max_iter| {
        let params = l2svm::L2SvmParams {
            max_iter,
            ..l2svm::L2SvmParams::default()
        };
        messages_sent(&ctx, || {
            l2svm::l2svm(&fed, &y, &params).unwrap();
        })
    };
    let init = l2svm_messages(0);
    // L2SVM: X %*% s and t(X) %*% out per outer iteration.
    assert_eq!(l2svm_messages(1), init + 2 * 2);
}
