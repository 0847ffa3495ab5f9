//! Property-based tests for the numeric solvers.

use proptest::prelude::*;

use felip_numeric::{coordinate_descent2, minimize_unimodal, Descent2Options};

proptest! {
    /// Golden-section finds the vertex of any parabola inside the interval.
    #[test]
    fn golden_quadratic(vertex in -50.0f64..50.0, scale in 0.1f64..10.0) {
        let x = minimize_unimodal(-100.0, 100.0, 1e-10, |x| scale * (x - vertex).powi(2));
        prop_assert!((x - vertex).abs() < 1e-6, "found {x}, expected {vertex}");
    }

    /// Golden-section on a monotone function returns the matching endpoint.
    #[test]
    fn golden_monotone(lo in -10.0f64..0.0, hi in 1.0f64..10.0, slope in 0.1f64..5.0) {
        let x = minimize_unimodal(lo, hi, 1e-10, |x| slope * x);
        prop_assert!((x - lo).abs() < 1e-6);
    }

    /// Coordinate descent solves separable quadratics exactly.
    #[test]
    fn descent_separable(ax in -5.0f64..5.0, ay in -5.0f64..5.0) {
        let (x, y) = coordinate_descent2(
            (0.0, 0.0),
            Descent2Options { x_bounds: (-10.0, 10.0), y_bounds: (-10.0, 10.0), tol: 1e-8, max_sweeps: 64 },
            |x, y| (x - ax).powi(2) + (y - ay).powi(2),
        );
        prop_assert!((x - ax).abs() < 1e-4, "{x} vs {ax}");
        prop_assert!((y - ay).abs() < 1e-4, "{y} vs {ay}");
    }

    /// Coordinate descent never escapes its bounds.
    #[test]
    fn descent_respects_bounds(
        ax in -100.0f64..100.0,
        ay in -100.0f64..100.0,
        b in 0.5f64..5.0,
    ) {
        let (x, y) = coordinate_descent2(
            (0.0, 0.0),
            Descent2Options { x_bounds: (-b, b), y_bounds: (-b, b), tol: 1e-8, max_sweeps: 32 },
            |x, y| (x - ax).powi(2) + (y - ay).powi(2),
        );
        prop_assert!((-b..=b).contains(&x));
        prop_assert!((-b..=b).contains(&y));
    }
}
