//! Seeded universal hash family for Optimized Local Hashing.
//!
//! OLH (§2.2.2) requires a family `ℍ` of hash functions `H : D → [g]` such
//! that a randomly drawn `H` maps any fixed pair of distinct inputs to
//! independent-looking outputs. We instantiate the family with a 64-bit
//! finalizer-style mixer (the xxHash/SplitMix64 avalanche construction)
//! keyed by a per-user random 64-bit seed; this is the same construction the
//! reference `pure-ldp` implementations use (xxhash with a random seed).
//!
//! The functions here are deliberately tiny and `#[inline]`: OLH aggregation
//! evaluates the hash `|D|` times per report, which dominates the
//! aggregator's running time.

/// 64-bit avalanche mixer (SplitMix64 finalizer). Full 64-bit avalanche:
/// every input bit flips every output bit with probability ≈ 1/2.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Multiplier spreading domain values over the 64-bit seed space before
/// mixing (the golden-ratio constant). Exposed so batched kernels can
/// precompute `value_key(v)` once and reuse it across many seeds.
pub const VALUE_KEY_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-value half of [`universal_hash`]: `v · VALUE_KEY_MUL`.
///
/// Batched OLH support counting evaluates `H_seed(v)` for many seeds at a
/// fixed `v`; hoisting this multiply out of the seed loop leaves only
/// `mix64(seed ^ key)` + reduction per (seed, value) pair.
#[inline]
pub fn value_key(value: u32) -> u64 {
    (value as u64).wrapping_mul(VALUE_KEY_MUL)
}

/// [`universal_hash`] with the value already folded through [`value_key`].
///
/// Invariant: `universal_hash_keyed(s, value_key(v), g) == universal_hash(s, v, g)`
/// for all inputs — the batched kernels rely on this to stay bit-identical
/// to the scalar path.
#[inline]
pub fn universal_hash_keyed(seed: u64, key: u64, g: u32) -> u32 {
    debug_assert!(g > 0, "hash range must be non-empty");
    // Multiply-shift reduction avoids the modulo bias *and* the slow `%`.
    let h = mix64(seed ^ key);
    (((h >> 32).wrapping_mul(g as u64)) >> 32) as u32
}

/// The half-open interval of hash high words landing in bucket `target`:
/// returns `(lo, width)` such that for every 32-bit `h32`,
/// `((h32 as u64 * g as u64) >> 32) as u32 == target` exactly when
/// `h32.wrapping_sub(lo) < width`.
///
/// The multiply-shift reduction of [`universal_hash_keyed`] maps
/// `h32 = mix64(seed ^ key) >> 32` to bucket `⌊h32 · g / 2³²⌋`, so bucket
/// membership is equivalent to `h32 ∈ [⌈target·2³²/g⌉, ⌈(target+1)·2³²/g⌉)`.
/// Batched support counting precomputes these bounds once per bucket per
/// batch and replaces the per-value reduction multiply with one
/// subtract-and-compare —
/// bit-identical to comparing buckets, which the `interval_test` unit test
/// and the fo property suite pin down.
///
/// # Panics
/// Panics if `target >= g` (debug builds).
#[inline]
pub fn bucket_bounds(target: u32, g: u32) -> (u32, u32) {
    debug_assert!(target < g, "bucket {target} out of hash range {g}");
    let lo = ((target as u64) << 32).div_ceil(g as u64);
    let hi = (((target as u64) + 1) << 32).div_ceil(g as u64);
    // `hi` can be exactly 2³² (top bucket); the width still fits in u32
    // because every bucket spans at most ⌈2³²/g⌉ ≤ 2³¹ values for g ≥ 2,
    // and exactly 2³² only for g = 1, where lo = 0 and the wrapping
    // comparison `h32.wrapping_sub(0) < 0` would be wrong — so g = 1 keeps
    // the plain bucket comparison (OLH always has g ≥ 2).
    debug_assert!(g >= 2, "bucket_bounds requires g >= 2, got {g}");
    (lo as u32, (hi - lo) as u32)
}

/// Member `H_seed` of the universal family: hashes `value` into `0..g`.
///
/// # Panics
/// Panics if `g == 0` (debug builds); a zero-sized hash range is a logic
/// error upstream.
#[inline]
pub fn universal_hash(seed: u64, value: u32, g: u32) -> u32 {
    universal_hash_keyed(seed, value_key(value), g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_in_range() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for v in 0..1000u32 {
                for g in [1u32, 2, 7, 16, 1000] {
                    assert!(universal_hash(seed, v, g) < g);
                }
            }
        }
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(universal_hash(42, 7, 16), universal_hash(42, 7, 16));
    }

    #[test]
    fn different_seeds_give_different_functions() {
        // Two seeds should disagree on at least some inputs.
        let disagreements = (0..256u32)
            .filter(|&v| universal_hash(1, v, 16) != universal_hash(2, v, 16))
            .count();
        assert!(disagreements > 100, "only {disagreements} disagreements");
    }

    #[test]
    fn hash_is_roughly_uniform() {
        // χ²-style sanity check: hashing 0..n into g buckets with a fixed
        // seed should fill buckets evenly.
        let g = 8u32;
        let n = 80_000u32;
        let mut counts = vec![0u32; g as usize];
        for v in 0..n {
            counts[universal_hash(0xabcdef, v, g) as usize] += 1;
        }
        let expect = (n / g) as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "bucket count {c} far from expected {expect}"
            );
        }
    }

    #[test]
    fn collision_rate_matches_universal_family() {
        // For a random member of a universal family, Pr[H(x) = H(y)] ≈ 1/g
        // for fixed x ≠ y. Estimate over many seeds.
        let g = 16u32;
        let trials = 40_000u64;
        let collisions = (0..trials)
            .filter(|&s| universal_hash(mix64(s), 3, g) == universal_hash(mix64(s), 11, g))
            .count() as f64;
        let rate = collisions / trials as f64;
        let expected = 1.0 / g as f64;
        assert!(
            (rate - expected).abs() < 0.01,
            "collision rate {rate} far from {expected}"
        );
    }

    #[test]
    fn g_of_one_maps_everything_to_zero() {
        for v in 0..100 {
            assert_eq!(universal_hash(99, v, 1), 0);
        }
    }

    #[test]
    fn keyed_form_matches_direct_form() {
        // The batched kernels depend on this identity bit-for-bit.
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for v in (0..50_000u32).step_by(97) {
                for g in [2u32, 3, 9, 1024] {
                    assert_eq!(
                        universal_hash_keyed(seed, value_key(v), g),
                        universal_hash(seed, v, g)
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_bounds_match_reduction_exactly() {
        // Exhaustive-ish: for each (g, target), the interval test must agree
        // with the multiply-shift reduction for a spread of hash words,
        // including both interval endpoints.
        for g in [2u32, 3, 4, 7, 9, 16, 1000, u32::MAX] {
            for target in [0, 1, g / 2, g - 1] {
                let (lo, width) = bucket_bounds(target, g);
                let mut probes = vec![
                    0u32,
                    1,
                    u32::MAX,
                    lo,
                    lo.wrapping_sub(1),
                    lo.wrapping_add(width),
                    lo.wrapping_add(width).wrapping_sub(1),
                ];
                for s in 0..64u64 {
                    probes.push((mix64(s ^ g as u64 ^ target as u64) >> 32) as u32);
                }
                for h32 in probes {
                    let bucket = ((h32 as u64).wrapping_mul(g as u64) >> 32) as u32;
                    assert_eq!(
                        h32.wrapping_sub(lo) < width,
                        bucket == target,
                        "h32 {h32}, g {g}, target {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn mix64_avalanche_on_single_bit() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }
}
