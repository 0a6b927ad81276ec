//! Property validation of warm-started batched Picard
//! ([`RunOptions::warm_start`]) against the cold oracle: on randomized
//! scenario grids with ascending axes, warm chaining must converge to
//! the **same fixed points** (≤ 1e-9 K), classify every scenario with
//! the **same outcome kind**, and spend **no more Picard iterations**
//! than a cold start on any converged lane — while staying bitwise
//! invariant across thread counts, batch widths and backends, exactly
//! like the cold path.

use proptest::prelude::*;
use ptherm::floorplan::{generator, ChipGeometry, Floorplan};
use ptherm::model::cosim::sweep::ScenarioPowerModel;
use ptherm::model::cosim::{
    RunOptions, ScenarioGrid, SweepBackend, SweepEngine, SweepOutcome, SweepReport,
};
use ptherm::tech::Technology;

fn plan() -> Floorplan {
    generator::tiled(ChipGeometry::paper_1mm(), 2, 2, 0.01, 0.05, 7).expect("valid tiling")
}

/// An engine with the Picard loop tightened far below the warm/cold
/// agreement tolerance, so 1e-9 K disagreement would be a real bug,
/// not truncation noise.
fn engine(threads: usize, lanes: usize) -> SweepEngine {
    SweepEngine::new(plan())
        .threads(threads)
        .batch_lanes(lanes)
        .configure(|s| {
            s.tolerance_k = 1e-10;
            s.max_iterations = 5000;
        })
}

/// One sweep, warm-started or cold.
fn run<M: ScenarioPowerModel>(
    engine: &SweepEngine,
    grid: &ScenarioGrid,
    model: &M,
    warm: bool,
) -> SweepReport {
    engine.sweep(grid, model, RunOptions::new().warm_start(warm))
}

/// A sorted ascending axis: the monotone ordering the chain scheduler
/// exploits (each link seeds from a cooler, already-converged
/// predecessor).
fn axis(range: std::ops::Range<f64>, len: std::ops::Range<usize>) -> BoxedStrategy<Vec<f64>> {
    proptest::collection::vec(range, len)
        .prop_map(|mut v| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v
        })
        .boxed()
}

fn grid(vdd: Vec<f64>, act: Vec<f64>, amb: Vec<f64>) -> ScenarioGrid {
    ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vdd)
        .activities(act)
        .ambients_k(amb)
}

/// Converged iteration count, or `None` for every other outcome.
fn iterations(outcome: &SweepOutcome) -> Option<usize> {
    match outcome {
        SweepOutcome::Converged { iterations, .. } => Some(*iterations),
        _ => None,
    }
}

fn kind(outcome: &SweepOutcome) -> &'static str {
    match outcome {
        SweepOutcome::Converged { .. } => "converged",
        SweepOutcome::Runaway { .. } => "runaway",
        SweepOutcome::NotConverged { .. } => "not_converged",
        SweepOutcome::BadPower { .. } => "bad_power",
        SweepOutcome::Cancelled { .. } => "cancelled",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: warm chaining is an ordering-plus-seeding
    /// optimization, never a physics change. Same fixed points to
    /// 1e-9 K, same outcome kinds, and on every converged lane the
    /// warm seed (a cooler neighbor's fixed point, clamped at ambient)
    /// can only shorten the monotone Picard climb — never lengthen it.
    #[test]
    fn warm_start_matches_the_cold_oracle_in_fewer_or_equal_iterations(
        vdd in axis(0.7..1.4, 2..5),
        act in axis(0.2..1.0, 1..3),
        amb in axis(290.0..340.0, 1..3),
        dynamic_w in 0.05..0.5f64,
        leakage_w in 0.005..0.05f64,
    ) {
        let grid = grid(vdd, act, amb);
        let engine = engine(2, 4);
        let model = engine.uniform_tech_power(dynamic_w, leakage_w);
        let cold = run(&engine, &grid, &model, false);
        let warm = run(&engine, &grid, &model, true);
        prop_assert_eq!(cold.len(), warm.len());
        for (id, (c, w)) in cold.outcomes.iter().zip(&warm.outcomes).enumerate() {
            prop_assert_eq!(kind(c), kind(w), "scenario {} kind diverged", id);
            if let (
                SweepOutcome::Converged { block_temperatures: ct, iterations: ci, .. },
                SweepOutcome::Converged { block_temperatures: wt, iterations: wi, .. },
            ) = (c, w)
            {
                for (a, b) in ct.iter().zip(wt) {
                    prop_assert!((a - b).abs() <= 1e-9,
                        "scenario {id}: fixed points diverged by {}", (a - b).abs());
                }
                prop_assert!(wi <= ci,
                    "scenario {id}: warm spent {wi} iterations vs cold {ci}");
            }
        }
    }

    /// Warm chaining preserves the scheduler's bitwise-invariance
    /// contract: whole chains are claimed per worker, so thread count
    /// and batch width cannot reorder who seeds whom.
    #[test]
    fn warm_results_are_bitwise_invariant_across_threads_and_batch_lanes(
        vdd in axis(0.8..1.3, 2..5),
        dynamic_w in 0.05..0.4f64,
    ) {
        let grid = grid(vdd, vec![0.5, 1.0], vec![300.0, 320.0]);
        let baseline_engine = engine(1, 1);
        let model = baseline_engine.uniform_tech_power(dynamic_w, 0.02);
        let baseline = run(&baseline_engine, &grid, &model, true);
        for (threads, lanes) in [(2, 4), (4, 2), (3, 8)] {
            let other = run(&engine(threads, lanes), &grid, &model, true);
            prop_assert_eq!(
                &baseline.outcomes, &other.outcomes,
                "threads {} x lanes {} diverged from serial", threads, lanes
            );
        }
    }

    /// Both backends ride the same chain scheduler: per backend, warm
    /// agrees with that backend's own cold oracle (kinds identical,
    /// fixed points ≤ 1e-9 K, iterations never more on converged
    /// lanes). The tiled floorplan is grid-coincident, so the spectral
    /// backend is exercised for real.
    #[test]
    fn warm_ordering_rides_dense_and_spectral_backends(
        vdd in axis(0.8..1.3, 2..4),
        dynamic_w in 0.05..0.3f64,
    ) {
        let grid = grid(vdd, vec![1.0], vec![300.0, 325.0]);
        for backend in [SweepBackend::Dense, SweepBackend::Spectral] {
            let engine = engine(2, 4).backend(backend);
            let model = engine.uniform_tech_power(dynamic_w, 0.02);
            let cold = run(&engine, &grid, &model, false);
            let warm = run(&engine, &grid, &model, true);
            for (id, (c, w)) in cold.outcomes.iter().zip(&warm.outcomes).enumerate() {
                prop_assert_eq!(kind(c), kind(w), "scenario {} kind diverged", id);
                if let (
                    SweepOutcome::Converged { block_temperatures: ct, iterations: ci, .. },
                    SweepOutcome::Converged { block_temperatures: wt, iterations: wi, .. },
                ) = (c, w)
                {
                    for (a, b) in ct.iter().zip(wt) {
                        prop_assert!((a - b).abs() <= 1e-9, "{backend:?} scenario {id}");
                    }
                    prop_assert!(wi <= ci, "{backend:?} scenario {id}: {wi} vs {ci}");
                }
            }
        }
    }
}

/// The per-call [`RunOptions::warm_start`] switch is the only warm
/// knob: `false` is bitwise the default cold sweep, and a warm call
/// leaves the engine cold for the next default call.
#[test]
fn per_call_override_forces_cold_bitwise() {
    let grid = grid(vec![0.9, 1.0, 1.1, 1.2], vec![0.6, 1.0], vec![300.0]);
    let shared = engine(2, 4);
    let model = shared.uniform_tech_power(0.25, 0.02);
    let cold = shared.sweep(&grid, &model, RunOptions::new());
    let forced_cold = run(&shared, &grid, &model, false);
    assert_eq!(cold.outcomes, forced_cold.outcomes);
    let warm = run(&shared, &grid, &model, true);
    assert_ne!(
        warm.outcomes, cold.outcomes,
        "warm chaining changes iteration counts"
    );
    assert_eq!(
        warm.outcomes,
        run(&engine(4, 2), &grid, &model, true).outcomes
    );
    assert_eq!(
        cold.outcomes,
        shared.sweep(&grid, &model, RunOptions::new()).outcomes
    );
}

/// Warm chaining genuinely pays off on a monotone vdd fiber: strictly
/// fewer total Picard iterations than the cold march, not merely
/// no-worse-per-lane.
#[test]
fn warm_chains_cut_total_iterations_on_a_monotone_fiber() {
    let grid = grid(
        (0..12).map(|i| 0.8 + 0.05 * i as f64).collect(),
        vec![1.0],
        vec![300.0],
    );
    let engine = engine(1, 4);
    let model = engine.uniform_tech_power(0.4, 0.04);
    let total = |report: &SweepReport| report.outcomes.iter().filter_map(iterations).sum::<usize>();
    let cold = run(&engine, &grid, &model, false);
    let warm = run(&engine, &grid, &model, true);
    assert_eq!(cold.converged_count(), grid.len(), "fiber fully converges");
    assert_eq!(warm.converged_count(), grid.len());
    assert!(
        total(&warm) < total(&cold),
        "warm {} vs cold {} iterations",
        total(&warm),
        total(&cold)
    );
}
