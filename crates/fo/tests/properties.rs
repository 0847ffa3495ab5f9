//! Property-based tests for the frequency oracles: structural invariants
//! that must hold for arbitrary (ε, domain) parameterisations.

use proptest::prelude::*;

use felip_common::rng::seeded_rng;
use felip_fo::afo::{afo_variance_factor, choose_oracle};
use felip_fo::variance::{grr_variance_factor, olh_variance_factor};
use felip_fo::{FoKind, FrequencyOracle, Grr, Olh, Report};

proptest! {
    /// GRR reports are always in-domain, and its transition probabilities
    /// form a proper distribution with likelihood ratio exactly e^ε.
    #[test]
    fn grr_structure(eps in 0.05f64..5.0, d in 1u32..512, v in 0u32..512, seed in 0u64..1000) {
        let v = v % d;
        let g = Grr::new(eps, d);
        prop_assert!((g.p() + (d as f64 - 1.0) * g.q() - 1.0).abs() < 1e-9);
        if d > 1 {
            prop_assert!((g.p() / g.q() - eps.exp()).abs() < 1e-6 * eps.exp());
        }
        let mut rng = seeded_rng(seed);
        for _ in 0..16 {
            match g.perturb(v, &mut rng) {
                Report::Grr(x) => prop_assert!(x < d),
                other => prop_assert!(false, "wrong report {other:?}"),
            }
        }
    }

    /// OLH reports stay inside the hash range; the hash range follows
    /// `⌈e^ε⌉ + 1`.
    #[test]
    fn olh_structure(eps in 0.05f64..4.0, d in 1u32..512, v in 0u32..512, seed in 0u64..1000) {
        let v = v % d;
        let o = Olh::new(eps, d);
        prop_assert_eq!(o.hash_range(), (eps.exp().ceil() as u32) + 1);
        let mut rng = seeded_rng(seed);
        for _ in 0..16 {
            match o.perturb(v, &mut rng) {
                Report::Olh { value, .. } => prop_assert!(value < o.hash_range()),
                other => prop_assert!(false, "wrong report {other:?}"),
            }
        }
    }

    /// GRR estimate vectors always sum to exactly 1 (an algebraic identity
    /// of the de-biasing), for any report multiset.
    #[test]
    fn grr_estimates_sum_to_one(
        eps in 0.1f64..4.0,
        d in 2u32..64,
        reports in proptest::collection::vec(0u32..64, 1..200),
    ) {
        let g = Grr::new(eps, d);
        let reports: Vec<Report> = reports.into_iter().map(|v| Report::Grr(v % d)).collect();
        let est = g.aggregate(&reports).unwrap();
        prop_assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// The streaming path (accumulate + estimate_from_counts) is exactly
    /// equivalent to batch aggregation.
    #[test]
    fn streaming_equals_batch(
        eps in 0.2f64..3.0,
        d in 2u32..64,
        n in 1usize..300,
        seed in 0u64..1000,
    ) {
        let o = Olh::new(eps, d);
        let mut rng = seeded_rng(seed);
        let reports: Vec<Report> = (0..n).map(|i| o.perturb(i as u32 % d, &mut rng)).collect();
        let batch = o.aggregate(&reports).unwrap();
        let mut counts = vec![0u64; d as usize];
        for r in &reports {
            o.accumulate(r, &mut counts).unwrap();
        }
        let streamed = o.estimate_from_counts(&counts, n);
        for (a, b) in batch.iter().zip(&streamed) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// `accumulate_batch` is byte-identical to folding `accumulate` one
    /// report at a time, for every oracle kind — including OLH's
    /// report-tiled (and, on x86-64, SIMD-dispatched) batch kernel, whose
    /// whole correctness contract is exact equivalence to the scalar path.
    /// Up to 2 600 reports: two full 1 024-report tiles and a ragged tail.
    #[test]
    fn batch_accumulate_identical_to_scalar(
        eps in 0.2f64..3.0,
        d in 1u32..600,
        n in 0usize..2_600,
        seed in 0u64..1000,
    ) {
        let oracles: Vec<Box<dyn FrequencyOracle>> = vec![
            Box::new(Grr::new(eps, d)),
            Box::new(Olh::new(eps, d)),
        ];
        for o in &oracles {
            let mut rng = seeded_rng(seed);
            let reports: Vec<Report> =
                (0..n).map(|i| o.perturb(i as u32 % d, &mut rng)).collect();
            let mut scalar = vec![0u64; d as usize];
            for r in &reports {
                o.accumulate(r, &mut scalar).unwrap();
            }
            let mut batched = vec![0u64; d as usize];
            o.accumulate_batch(&reports, &mut batched).unwrap();
            prop_assert_eq!(&batched, &scalar, "oracle over d = {}", d);
        }
    }

    /// The OLH batch kernel stays exact across L1 block boundaries: domains
    /// wider than one 2048-value block exercise the multi-block tiling.
    #[test]
    fn olh_batch_exact_across_blocks(
        eps in 0.2f64..2.0,
        extra in 0u32..3000,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let d = 2048 + extra;
        let o = Olh::new(eps, d);
        let mut rng = seeded_rng(seed);
        let reports: Vec<Report> = (0..n).map(|i| o.perturb(i as u32 * 977 % d, &mut rng)).collect();
        let mut scalar = vec![0u64; d as usize];
        for r in &reports {
            o.accumulate(r, &mut scalar).unwrap();
        }
        let mut batched = vec![0u64; d as usize];
        o.accumulate_batch(&reports, &mut batched).unwrap();
        prop_assert_eq!(&batched, &scalar);
    }

    /// AFO picks the protocol with the smaller variance factor, and the
    /// crossover moves monotonically with ε.
    #[test]
    fn afo_picks_minimum(eps in 0.1f64..4.0, cells in 1u32..2048) {
        let grr = grr_variance_factor(eps, cells);
        let olh = olh_variance_factor(eps);
        let pick = choose_oracle(eps, cells);
        match pick {
            FoKind::Grr => prop_assert!(grr <= olh),
            FoKind::Olh => prop_assert!(olh < grr),
        }
        prop_assert!((afo_variance_factor(eps, cells) - grr.min(olh)).abs() < 1e-12);
    }

    /// Variance factors are positive and GRR's grows monotonically in the
    /// cell count.
    #[test]
    fn variance_monotone_in_cells(eps in 0.1f64..4.0, cells in 2u32..2048) {
        prop_assert!(olh_variance_factor(eps) > 0.0);
        prop_assert!(grr_variance_factor(eps, cells) > grr_variance_factor(eps, cells - 1));
    }
}
