//! Engine-level contracts of the clustered fallout models:
//!
//! * bit-identical estimates at 1/2/4 workers, tracing on or off;
//! * bit-identical resume after a mid-run interrupt;
//! * NB(α → large) converges to Poisson across a seed sweep;
//! * Monte-Carlo fallout agrees with each model's analytic yield/DL.
//! * the Poisson instance is bit-identical to the unit-mix engine, takes
//!   its lane kernel, and checkpoint keys bind the distribution — a
//!   clustered checkpoint file never resumes a Poisson run.

use dlp_core::budget::RunBudget;
use dlp_core::ckpt::{Checkpoint, CkptError};
use dlp_core::montecarlo::{
    simulate_fallout_mixed_resumable, DieMix, FalloutEstimate, McCheckpoint, MonteCarloConfig,
    UnitMix,
};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::ModelError;
use dlp_yield::dist::{Fallout, FalloutDistribution, Poisson};

/// Unbudgeted, untraced run under `mix` at the `DLP_THREADS` worker count.
fn mc_run(
    w: &FaultWeights,
    d: &[bool],
    cfg: &MonteCarloConfig,
    mix: &dyn DieMix,
) -> FalloutEstimate {
    let threads = ThreadCount::from_env().unwrap();
    let unlimited = &RunBudget::unlimited();
    simulate_fallout_mixed_resumable(w, d, cfg, mix, threads, Recorder::noop(), unlimited, None)
        .unwrap()
}

/// `n` equal faults summing to the exact λ this distribution needs for
/// a 75 % analytic yield.
fn calibrated_weights(dist: &dyn FalloutDistribution, n: usize) -> FaultWeights {
    let lambda = dist.lambda_for_yield(0.75).unwrap();
    FaultWeights::new(vec![lambda / n as f64; n]).unwrap()
}

fn mask(n: usize, detected: usize) -> Vec<bool> {
    (0..n).map(|j| j < detected).collect()
}

/// Both clustered models, with grouping small enough that a test-sized
/// die population spans many lots.
fn clustered_models() -> Vec<Fallout> {
    vec![
        Fallout::negative_binomial(0.5).unwrap(),
        Fallout::negative_binomial(2.0).unwrap(),
        Fallout::hierarchical(2.0, 8.0, 20.0, 64, 4).unwrap(),
    ]
}

#[test]
fn clustered_fallout_is_bit_identical_across_threads_and_tracing() {
    for fallout in clustered_models() {
        let dist = fallout.dist();
        let n = 10;
        let w = calibrated_weights(dist, n);
        let d = mask(n, 7);
        let cfg = MonteCarloConfig {
            dies: 3 * 4096 + 57, // 4 shards, ragged tail
            seed: 0xBEEF,
        };
        let reference = mc_run(&w, &d, &cfg, dist);
        for threads in [1usize, 2, 4] {
            for traced in [false, true] {
                let obs = Recorder::enabled();
                let got = simulate_fallout_mixed_resumable(
                    &w,
                    &d,
                    &cfg,
                    dist,
                    ThreadCount::fixed(threads).unwrap(),
                    if traced { &obs } else { Recorder::noop() },
                    &RunBudget::unlimited(),
                    None,
                )
                .unwrap();
                assert_eq!(
                    got,
                    reference,
                    "{}: threads={threads} traced={traced}",
                    fallout.label()
                );
            }
        }
    }
}

#[test]
fn clustered_fallout_resumes_bit_identically() {
    for fallout in clustered_models() {
        let dist = fallout.dist();
        let n = 8;
        let w = calibrated_weights(dist, n);
        let d = mask(n, 6);
        let cfg = MonteCarloConfig {
            dies: 3 * 4096 + 11,
            seed: 0xAB1E,
        };
        let reference = mc_run(&w, &d, &cfg, dist);
        for kill in [1u64, 2, 3] {
            let err = simulate_fallout_mixed_resumable(
                &w,
                &d,
                &cfg,
                dist,
                ThreadCount::fixed(2).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited().cancel_after_checks(kill),
                None,
            )
            .expect_err("fuse below shard count must interrupt");
            let checkpoint = match err {
                ModelError::Interrupted { checkpoint, .. } => checkpoint,
                other => panic!("{}: expected Interrupted, got {other:?}", fallout.label()),
            };
            let resumed = simulate_fallout_mixed_resumable(
                &w,
                &d,
                &cfg,
                dist,
                ThreadCount::fixed(4).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(&checkpoint),
            )
            .unwrap();
            assert_eq!(resumed, reference, "{}: kill={kill}", fallout.label());
        }
    }
}

#[test]
fn nb_large_alpha_converges_to_poisson_across_seeds() {
    // Analytically the NB yield/DL converge to the Poisson closed forms;
    // statistically the simulated estimates must agree within Monte-Carlo
    // noise for every seed (the draws differ — NB consumes gamma
    // variates — so this is a tolerance check, not bit-identity).
    let alpha = 1e7;
    let nb = Fallout::negative_binomial(alpha).unwrap();
    let poisson = Fallout::poisson();
    let dl_nb = nb
        .dist()
        .defect_level(nb.dist().lambda_for_yield(0.75).unwrap(), 0.7)
        .unwrap();
    let dl_p = poisson
        .dist()
        .defect_level(poisson.dist().lambda_for_yield(0.75).unwrap(), 0.7)
        .unwrap();
    assert!((dl_nb - dl_p).abs() < 1e-6, "analytic: {dl_nb} vs {dl_p}");

    let n = 10;
    let w = calibrated_weights(poisson.dist(), n);
    let d = mask(n, 7);
    for seed in [1u64, 17, 4242, 0xDEAD, 0x5EED5] {
        let cfg = MonteCarloConfig { dies: 60_000, seed };
        let est_p = mc_run(&w, &d, &cfg, &UnitMix);
        let est_nb = mc_run(&w, &d, &cfg, nb.dist());
        assert!(
            (est_p.yield_estimate() - est_nb.yield_estimate()).abs() < 0.01,
            "seed {seed}: yields {} vs {}",
            est_p.yield_estimate(),
            est_nb.yield_estimate()
        );
        assert!(
            (est_p.defect_level() - est_nb.defect_level()).abs() < 0.01,
            "seed {seed}: DLs {} vs {}",
            est_p.defect_level(),
            est_nb.defect_level()
        );
    }
}

#[test]
fn simulated_fallout_matches_analytic_yield_and_dl() {
    // The two faces of every distribution must agree: simulate 200k dies
    // at the λ calibrated for Y = 0.75 and compare against the analytic
    // yield and DL. θ comes from the weight mask exactly as the
    // pipeline computes it.
    let mut models = clustered_models();
    models.push(Fallout::poisson());
    for fallout in models {
        let dist = fallout.dist();
        let n = 10;
        let w = calibrated_weights(dist, n);
        let d = mask(n, 7);
        let theta = w.theta(&d).unwrap();
        let lambda = dist.lambda_for_yield(0.75).unwrap();
        let cfg = MonteCarloConfig {
            dies: 200_000,
            seed: 99,
        };
        let est = mc_run(&w, &d, &cfg, dist);
        let y = dist.expected_yield(lambda).unwrap();
        let dl = dist.defect_level(lambda, theta).unwrap();
        assert!((y - 0.75).abs() < 1e-9, "{}: calibration", fallout.label());
        assert!(
            (est.yield_estimate() - y).abs() < 0.012,
            "{}: simulated yield {} vs analytic {y}",
            fallout.label(),
            est.yield_estimate()
        );
        assert!(
            (est.defect_level() - dl).abs() < 0.012,
            "{}: simulated DL {} vs analytic {dl}",
            fallout.label(),
            est.defect_level()
        );
    }
}

#[test]
fn clustering_lowers_simulated_dl_at_fixed_yield() {
    // The headline effect, measured rather than derived: at the same
    // analytic yield and the same test, the clustered lines ship fewer
    // defective parts.
    let n = 10;
    let cfg = MonteCarloConfig {
        dies: 200_000,
        seed: 7,
    };
    let poisson = Fallout::poisson();
    let wp = calibrated_weights(poisson.dist(), n);
    let d = mask(n, 7);
    let dl_p = mc_run(&wp, &d, &cfg, &UnitMix).defect_level();
    let nb = Fallout::negative_binomial(0.5).unwrap();
    let wn = calibrated_weights(nb.dist(), n);
    let dl_nb = mc_run(&wn, &d, &cfg, nb.dist()).defect_level();
    assert!(dl_nb < dl_p, "clustered {dl_nb} !< poisson {dl_p}");
}

#[test]
fn poisson_instance_is_bit_identical_to_legacy_engine() {
    let w = FaultWeights::new(vec![1.0; 12])
        .unwrap()
        .scaled_to_yield(0.75)
        .unwrap();
    let detected: Vec<bool> = (0..12).map(|j| j % 4 != 0).collect();
    let cfg = MonteCarloConfig {
        dies: 30_000,
        seed: 0xFEED,
    };
    let legacy = mc_run(&w, &detected, &cfg, &UnitMix);
    let dist = mc_run(&w, &detected, &cfg, &Poisson);
    assert_eq!(legacy, dist);
    assert_eq!(
        McCheckpoint::key(&w, &detected, &cfg, &UnitMix),
        McCheckpoint::key(&w, &detected, &cfg, &Poisson),
    );
}

#[test]
fn only_poisson_takes_the_lane_kernel() {
    // The gamma mixes draw per die, so they must stay on the serial loop.
    assert!(Fallout::poisson().dist().is_unit());
    assert!(!Fallout::negative_binomial(2.0).unwrap().dist().is_unit());
    assert!(!Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25)
        .unwrap()
        .dist()
        .is_unit());
}

#[test]
fn checkpoint_keys_bind_the_distribution() {
    let w = FaultWeights::new(vec![1.0; 4])
        .unwrap()
        .scaled_to_yield(0.8)
        .unwrap();
    let d = vec![true; 4];
    let cfg = MonteCarloConfig::default();
    let nb = Fallout::negative_binomial(2.0).unwrap();
    let hier = Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25).unwrap();
    let kp = McCheckpoint::key(&w, &d, &cfg, Fallout::poisson().dist());
    let kn = McCheckpoint::key(&w, &d, &cfg, nb.dist());
    let kh = McCheckpoint::key(&w, &d, &cfg, hier.dist());
    assert_ne!(kp, kn);
    assert_ne!(kp, kh);
    assert_ne!(kn, kh);
}

#[test]
fn clustered_checkpoint_files_resume_only_under_their_mix() {
    // A negative-binomial run cut mid-way, sealed on disk under its own
    // key: a Poisson run of the same inputs must refuse the file, and the
    // NB run must resume from it bit-identically at any worker count.
    let nb = Fallout::negative_binomial(2.0).unwrap();
    let n = 8;
    let w = calibrated_weights(nb.dist(), n);
    let d = mask(n, 6);
    let cfg = MonteCarloConfig {
        dies: 3 * 4096 + 11,
        seed: 0xAB1E,
    };
    let reference = mc_run(&w, &d, &cfg, nb.dist());
    let err = simulate_fallout_mixed_resumable(
        &w,
        &d,
        &cfg,
        nb.dist(),
        ThreadCount::fixed(2).unwrap(),
        Recorder::noop(),
        &RunBudget::unlimited().cancel_after_checks(2),
        None,
    )
    .expect_err("fuse below shard count must interrupt");
    let ModelError::Interrupted { checkpoint, .. } = err else {
        panic!("expected Interrupted, got {err:?}");
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp")
        .join(format!("yield_mix_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mc.fallout.ckpt.json");
    let path = path.to_str().unwrap();
    let nb_key = McCheckpoint::key(&w, &d, &cfg, nb.dist());
    checkpoint.save(path, nb_key).unwrap();

    let poisson_key = McCheckpoint::key(&w, &d, &cfg, &UnitMix);
    assert!(matches!(
        McCheckpoint::load(path, poisson_key),
        Err(CkptError::KeyMismatch { .. })
    ));
    let restored = McCheckpoint::load(path, nb_key).unwrap();
    for threads in [1usize, 2, 4] {
        let resumed = simulate_fallout_mixed_resumable(
            &w,
            &d,
            &cfg,
            nb.dist(),
            ThreadCount::fixed(threads).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited(),
            Some(&restored),
        )
        .unwrap();
        assert_eq!(resumed, reference, "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
