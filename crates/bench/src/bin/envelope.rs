//! Scenario-space intelligence bench: warm-started Picard chaining and
//! runaway-envelope bisection vs their cold/exhaustive oracles,
//! emitting `BENCH_envelope.json`.
//!
//! Three audited measurements on the paper's three-block floorplan
//! under budgets that put the runaway boundary inside the swept Vdd
//! interval:
//!
//! * **warm iteration ratio** — total Picard iterations of a
//!   warm-started sweep over a monotone Vdd grid vs the identical cold
//!   sweep. Warm chaining seeds each scenario from its converged
//!   predecessor, so the ratio must sit below 1; the fixed points must
//!   agree to ≤ 1e-9 K (the warm-start contract `tests/
//!   warm_start_validation.rs` proves under proptest).
//! * **bisection solve ratio** — Picard solves spent by
//!   [`SweepEngine::map_envelope`] vs the exhaustive
//!   tolerance-stepped march it prices (`exhaustive_solves`), gated
//!   at ≤ 25% (`ci/bench_bounds.*`).
//! * **boundary agreement** — per fiber, an actually-executed
//!   exhaustive march must land its last-converged/first-runaway
//!   crossing inside the bisected bracket (zero disagreements).
//!
//! `docs/PERFORMANCE.md` documents the JSON schema.

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_core::cosim::{
    EnvelopeAxis, EnvelopeSpec, FiberBoundary, RunOptions, ScenarioGrid, SweepEngine, SweepOutcome,
};
use ptherm_floorplan::Floorplan;
use ptherm_tech::Technology;
use std::time::Instant;

struct BenchConfig {
    /// Monotone Vdd axis length for the warm-vs-cold sweep.
    warm_vdd_points: usize,
    /// Bracket tolerance for the envelope map.
    tolerance: f64,
    label: &'static str,
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    std::process::exit(bench(quick));
}

/// The bench engine: paper floorplan, iteration budget raised so
/// probes that land near the boundary (critical slowing down) still
/// classify instead of timing out.
fn engine() -> SweepEngine {
    SweepEngine::new(Floorplan::paper_three_blocks())
        .threads(ptherm_par::default_threads())
        .configure(|s| s.max_iterations = 2000)
}

/// The warm-vs-cold engines additionally tighten the Picard tolerance
/// far below the 1e-9 K agreement gate, so warm/cold disagreement
/// would be a real seeding bug rather than loop-exit truncation.
fn tight_engine() -> SweepEngine {
    engine().configure(|s| s.tolerance_k = 1e-10)
}

fn grid(vdd: Vec<f64>, activities: Vec<f64>, ambients: Vec<f64>) -> ScenarioGrid {
    ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vdd)
        .activities(activities)
        .ambients_k(ambients)
}

/// Chip budgets that put the runaway boundary around Vdd-scale 1.8–3.4
/// for the fiber family below (activity 0.5/1.0, ambient 300/330 K).
const DYNAMIC_W: f64 = 1.0;
const LEAKAGE_W: f64 = 0.1;

/// The envelope's swept interval: converged at `LO` on every fiber,
/// runaway at `HI` on every fiber.
const LO: f64 = 1.0;
const HI: f64 = 4.0;

fn bench(quick: bool) -> i32 {
    let cfg = if quick {
        BenchConfig {
            warm_vdd_points: 16,
            tolerance: 0.05,
            label: "quick (CI smoke): 16-point warm fiber, 0.05 bracket",
        }
    } else {
        BenchConfig {
            warm_vdd_points: 48,
            tolerance: 0.02,
            label: "48-point warm fiber, 0.02 bracket",
        }
    };
    header(
        "Envelope",
        &format!(
            "warm-started Picard + runaway-envelope bisection vs cold/exhaustive oracles, {} \
             ({} threads)",
            cfg.label,
            ptherm_par::default_threads()
        ),
    );

    // --- warm vs cold iterations on a monotone sweep ----------------------
    // The whole grid sits below the runaway boundary so every lane
    // converges and the iteration totals compare like for like.
    let vdd: Vec<f64> = (0..cfg.warm_vdd_points)
        .map(|i| 0.8 + i as f64 * (1.7 - 0.8) / (cfg.warm_vdd_points - 1) as f64)
        .collect();
    let warm_grid = grid(vdd, vec![0.5, 1.0], vec![300.0, 330.0]);
    let cold_engine = tight_engine();
    let model = cold_engine.uniform_tech_power(DYNAMIC_W, LEAKAGE_W);
    let t0 = Instant::now();
    let cold = cold_engine.sweep(&warm_grid, &model, RunOptions::new());
    let cold_wall_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = tight_engine().sweep(&warm_grid, &model, RunOptions::new().warm_start(true));
    let warm_wall_s = t0.elapsed().as_secs_f64();

    let total_iterations = |report: &ptherm_core::cosim::SweepReport| {
        report
            .outcomes
            .iter()
            .map(|o| match o {
                SweepOutcome::Converged { iterations, .. } => *iterations,
                _ => 0,
            })
            .sum::<usize>()
    };
    let cold_iterations = total_iterations(&cold);
    let warm_iterations = total_iterations(&warm);
    let warm_iteration_ratio = warm_iterations as f64 / cold_iterations as f64;
    let max_warm_gap_k = cold
        .outcomes
        .iter()
        .zip(&warm.outcomes)
        .filter_map(|(c, w)| match (c, w) {
            (
                SweepOutcome::Converged {
                    block_temperatures: ct,
                    ..
                },
                SweepOutcome::Converged {
                    block_temperatures: wt,
                    ..
                },
            ) => Some(
                ct.iter()
                    .zip(wt)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max),
            ),
            _ => None,
        })
        .fold(0.0f64, f64::max);

    // --- envelope bisection vs the exhaustive oracle ----------------------
    let fiber_grid = grid(vec![LO], vec![0.5, 1.0], vec![300.0, 330.0]);
    let spec = EnvelopeSpec {
        axis: EnvelopeAxis::VddScale,
        lo: LO,
        hi: HI,
        tolerance: cfg.tolerance,
    };
    let envelope_engine = engine();
    let t0 = Instant::now();
    let envelope = envelope_engine
        .map_envelope(&fiber_grid, &model, &spec, RunOptions::new())
        .expect("valid spec");
    let envelope_wall_s = t0.elapsed().as_secs_f64();
    let bisection_solve_ratio = envelope.solves as f64 / envelope.exhaustive_solves as f64;

    // The oracle actually marches every fiber at tolerance resolution:
    // the bisected bracket must contain its last-converged /
    // first-runaway crossing.
    let steps = ((HI - LO) / cfg.tolerance).ceil() as usize + 1;
    let march: Vec<f64> = (0..steps)
        .map(|i| (LO + i as f64 * cfg.tolerance).min(HI))
        .collect();
    let t0 = Instant::now();
    let mut disagreements = 0usize;
    let mut marched_fibers = 0usize;
    for fiber in &envelope.fibers {
        let march_grid = grid(
            march.clone(),
            vec![fiber.scenario.activity],
            vec![fiber.scenario.ambient_k],
        );
        let oracle = envelope_engine.sweep(&march_grid, &model, RunOptions::new());
        marched_fibers += 1;
        let crossing = oracle
            .outcomes
            .iter()
            .position(|o| matches!(o, SweepOutcome::Runaway { .. }));
        let agrees = match (&fiber.boundary, crossing) {
            (FiberBoundary::Bracketed { converged, runaway }, Some(first_runaway)) => {
                // The march's last converged point sits at or below the
                // bracket's runaway edge, and its first runaway at or
                // above the converged edge (both within one step of
                // the bracket, which is itself ≤ tolerance wide).
                let march_runaway = march[first_runaway];
                first_runaway > 0
                    && march_runaway >= *converged - cfg.tolerance
                    && march_runaway <= *runaway + cfg.tolerance
            }
            (FiberBoundary::AllConverged, None) => true,
            (FiberBoundary::AllRunaway, Some(0)) => true,
            _ => false,
        };
        if !agrees {
            disagreements += 1;
        }
    }
    let exhaustive_wall_s = t0.elapsed().as_secs_f64();

    // --- transcript -------------------------------------------------------
    let mut out = Table::new(["measurement", "optimized", "oracle", "ratio"]);
    out.row([
        "warm vs cold Picard iterations".into(),
        warm_iterations.to_string(),
        cold_iterations.to_string(),
        format!("{warm_iteration_ratio:.3}"),
    ]);
    out.row([
        "bisection vs exhaustive solves".into(),
        envelope.solves.to_string(),
        envelope.exhaustive_solves.to_string(),
        format!("{bisection_solve_ratio:.3}"),
    ]);
    out.row([
        "envelope vs marched wall (s)".into(),
        format!("{envelope_wall_s:.3}"),
        format!("{exhaustive_wall_s:.3}"),
        format!("{:.3}", envelope_wall_s / exhaustive_wall_s),
    ]);
    println!("{}", out.render());
    for fiber in &envelope.fibers {
        println!(
            "fiber activity {:.2}, ambient {:.0} K: {}",
            fiber.scenario.activity,
            fiber.scenario.ambient_k,
            match &fiber.boundary {
                FiberBoundary::Bracketed { converged, runaway } =>
                    format!("boundary in ({converged:.3}, {runaway:.3}]"),
                other => other.kind().to_string(),
            }
        );
    }

    // --- BENCH_envelope.json ----------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "envelope")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("threads", ptherm_par::default_threads() as u64)
        .integer("warm_grid_scenarios", warm_grid.len() as u64)
        .integer("warm_total_iterations", warm_iterations as u64)
        .integer("cold_total_iterations", cold_iterations as u64)
        .number("warm_iteration_ratio", warm_iteration_ratio)
        .number("max_warm_temp_gap_k", max_warm_gap_k)
        .integer("envelope_fibers", envelope.len() as u64)
        .integer("bracketed_fibers", envelope.bracketed_count() as u64)
        .integer("envelope_solves", envelope.solves as u64)
        .integer("exhaustive_solves", envelope.exhaustive_solves as u64)
        .number("bisection_solve_ratio", bisection_solve_ratio)
        .integer("boundary_disagreements", disagreements as u64)
        .number("tolerance", cfg.tolerance)
        .number("cold_wall_s", cold_wall_s)
        .number("warm_wall_s", warm_wall_s)
        .number("envelope_wall_s", envelope_wall_s)
        .number("exhaustive_wall_s", exhaustive_wall_s);
    let default_path = if quick {
        "BENCH_envelope.quick.json"
    } else {
        "BENCH_envelope.json"
    };
    let json_path = std::env::var("BENCH_ENVELOPE_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "the warm-vs-cold grid fully converges on both sides",
            cold.converged_count() == warm_grid.len() && warm.converged_count() == warm_grid.len(),
            format!(
                "cold {}/{}, warm {}/{}",
                cold.converged_count(),
                warm_grid.len(),
                warm.converged_count(),
                warm_grid.len()
            ),
        ),
        ShapeCheck::new(
            "warm chaining reduces total Picard iterations",
            warm_iteration_ratio < 1.0,
            format!("{warm_iteration_ratio:.3}x"),
        ),
        ShapeCheck::new(
            "warm and cold fixed points agree to 1e-9 K",
            max_warm_gap_k <= 1e-9,
            format!("max gap {max_warm_gap_k:.2e} K"),
        ),
        ShapeCheck::new(
            "every fiber brackets its boundary",
            envelope.bracketed_count() == envelope.len(),
            format!(
                "{}/{} bracketed",
                envelope.bracketed_count(),
                envelope.len()
            ),
        ),
        ShapeCheck::new(
            "bisection spends at most 25% of the exhaustive solves",
            bisection_solve_ratio <= 0.25,
            format!(
                "{} vs {} ({bisection_solve_ratio:.3}x)",
                envelope.solves, envelope.exhaustive_solves
            ),
        ),
        ShapeCheck::new(
            "the exhaustive march agrees with every bisected bracket",
            disagreements == 0 && marched_fibers == envelope.len(),
            format!("{disagreements} disagreements over {marched_fibers} fibers"),
        ),
    ];
    report(&checks)
}
