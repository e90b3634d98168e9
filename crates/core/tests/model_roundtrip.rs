//! Property-style round-trip tests for the model inversions:
//!
//! * `defect_level ∘ required_coverage ≈ id` for the Sousa model and
//!   its Williams–Brown special case — with the sufficiency guarantee
//!   `defect_level(required_coverage(dl)) <= dl` holding *exactly*;
//! * `at(vectors_for(c)) >= c` for the coverage growth laws;
//! * the typed error paths those inversions were given for unreachable
//!   targets and `u64`-overflowing vector counts.
//!
//! The parameter grid is seeded (xorshift64*), so failures reproduce.

use dlp_core::coverage::CoverageGrowth;
use dlp_core::rng::Xorshift64Star;
use dlp_core::sousa::SousaModel;
use dlp_core::{williams_brown, ModelError};

/// Seeded `(y, r, theta_max, tau)` grid spanning the models' domains.
fn param_grid(seed: u64, count: usize) -> Vec<(f64, f64, f64, f64)> {
    let mut rng = Xorshift64Star::new(seed);
    (0..count)
        .map(|_| {
            (
                0.05 + rng.next_f64() * 0.9,        // yield in (0, 1)
                0.25 + rng.next_f64() * 4.0,        // susceptibility ratio R
                0.5 + rng.next_f64() * 0.5,         // theta_max in (0.5, 1]
                (1.0 + rng.next_f64() * 9.0).exp(), // tau = e^(1..10)
            )
        })
        .collect()
}

#[test]
fn sousa_inversion_is_identity_and_sufficient() {
    for (i, (y, r, theta_max, _)) in param_grid(101, 250).into_iter().enumerate() {
        let m = SousaModel::new(y, r, theta_max).expect("grid parameters are valid");
        let residual = m.residual_defect_level();
        let fallout = 1.0 - y;
        // Sample dl across the reachable band, biased toward the
        // residual floor where the inversion used to lose precision.
        for exp in 0..=14 {
            let dl = residual + (fallout - residual) * 10f64.powi(-exp);
            let t = m.required_coverage(dl).expect("reachable dl");
            assert!((0.0..=1.0).contains(&t), "case {i} exp={exp}: T = {t}");
            let back = m.defect_level(t).expect("t in [0, 1]");
            // The documented guarantee: never overshoot the target…
            assert!(
                back <= dl,
                "case {i} (y={y} r={r} tm={theta_max}) exp={exp}: \
                 DL({t}) = {back} > {dl}"
            );
            // …and, never undershoot the floor.
            assert!(back >= residual - 1e-15, "case {i} exp={exp}");
            // Tightness is only claimable well above the residual
            // floor: at the floor one ulp of T spans the entire
            // remaining DL range, so the sufficiency clamp may land on
            // the residual itself. Away from it the inversion must be
            // an inverse, not merely an upper bound.
            if dl - residual > 1e-3 * dl {
                assert!(
                    dl - back <= 1e-6 * dl + 1e-3 * (dl - residual),
                    "case {i} exp={exp}: inversion too conservative \
                     (dl={dl}, back={back}, residual={residual})"
                );
            }
        }
    }
}

#[test]
fn sousa_coverage_round_trips_through_dl() {
    // T -> DL -> T' must reproduce the defect level (T itself is
    // numerically flat near the residual floor, so compare in DL).
    for (y, r, theta_max, _) in param_grid(102, 250) {
        let m = SousaModel::new(y, r, theta_max).expect("valid");
        for i in 1..=9 {
            let t = i as f64 / 10.0;
            let dl = m.defect_level(t).expect("t in range");
            let t_back = m.required_coverage(dl).expect("dl reachable");
            let dl_back = m.defect_level(t_back).expect("t_back in range");
            assert!(
                (dl_back - dl).abs() <= 1e-9,
                "y={y} r={r} tm={theta_max} t={t}: {dl} vs {dl_back}"
            );
        }
    }
}

#[test]
fn williams_brown_inversion_is_identity() {
    for (y, _, _, _) in param_grid(103, 250) {
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let dl = williams_brown::defect_level(y, t).expect("valid");
            let back = williams_brown::required_coverage(y, dl).expect("reachable");
            assert!((back - t).abs() < 1e-6, "y={y} t={t}: back={back}");
            let dl_back = williams_brown::defect_level(y, back).expect("valid");
            assert!((dl_back - dl).abs() < 1e-12, "y={y} t={t}");
        }
    }
}

#[test]
fn coverage_growth_vector_counts_are_sufficient() {
    for (_, _, theta_max, tau) in param_grid(104, 250) {
        let g = CoverageGrowth::new(tau, theta_max).expect("tau > 1");
        for i in 1..=19 {
            let c = theta_max * i as f64 / 20.0;
            match g.vectors_for(c) {
                Ok(k) => {
                    assert!(k >= 1, "tau={tau} max={theta_max} c={c}");
                    assert!(
                        g.at(k) >= c,
                        "tau={tau} max={theta_max} c={c}: at({k}) = {} < c",
                        g.at(k)
                    );
                }
                Err(ModelError::VectorCountOverflow { coverage, .. }) => {
                    // Legal for steep laws near saturation; the error
                    // must carry the offending coverage.
                    assert_eq!(coverage, c);
                }
                Err(other) => panic!("tau={tau} c={c}: unexpected error {other:?}"),
            }
        }
    }
}

#[test]
fn inversion_error_paths_are_typed() {
    let m = SousaModel::new(0.75, 1.9, 0.96).expect("valid");
    // Below the residual floor and above the zero-coverage fallout.
    assert!(matches!(
        m.required_coverage(m.residual_defect_level() / 2.0),
        Err(ModelError::Unreachable { .. })
    ));
    assert!(matches!(
        m.required_coverage(0.5),
        Err(ModelError::Unreachable { .. })
    ));
    assert!(matches!(
        m.required_coverage(-0.1),
        Err(ModelError::OutOfDomain { .. })
    ));

    // Coverage growth: target at/above saturation vs. u64 overflow are
    // distinct typed errors.
    let g = CoverageGrowth::new(3.0f64.exp(), 0.9).expect("valid");
    assert!(matches!(
        g.vectors_for(0.9),
        Err(ModelError::Unreachable { .. })
    ));
    let steep = CoverageGrowth::new(500.0f64.exp(), 1.0).expect("valid");
    match steep.vectors_for(0.75) {
        Err(ModelError::VectorCountOverflow { ln_vectors, .. }) => {
            assert!(ln_vectors > 100.0);
        }
        other => panic!("expected overflow, got {other:?}"),
    }

    // Williams–Brown keeps its Unreachable contract.
    assert!(matches!(
        williams_brown::required_coverage(0.9, 0.5),
        Err(ModelError::Unreachable { .. })
    ));
}
