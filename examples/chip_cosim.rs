//! Full-chip electro-thermal co-simulation: a 16-block die with real
//! gate-level circuits behind each block, solved to its coupled operating
//! point — plus a thermal-runaway corner.
//!
//! This is the workflow the paper positions its models for: closed-form
//! leakage (temperature-dependent) feeding a closed-form thermal solve,
//! iterated to a fixed point in milliseconds.
//!
//! Run with `cargo run --release --example chip_cosim`.

use ptherm::floorplan::{generator, ChipGeometry};
use ptherm::model::cosim::power_model::CircuitBlockPower;
use ptherm::model::cosim::{
    ElectroThermalSolver, RunOptions, Scenario, ScenarioGrid, SweepEngine, SweepOutcome,
};
use ptherm::netlist::circuit::Circuit;
use ptherm::tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos_120nm();

    // 16 tiles, each backed by a seeded random logic block of 20k gates.
    let plan = generator::tiled(ChipGeometry::paper_1mm(), 4, 4, 0.0, 0.0, 42)?;
    let blocks: Vec<CircuitBlockPower> = (0..plan.blocks().len())
        .map(|i| CircuitBlockPower {
            circuit: Circuit::random(format!("tile-{i}"), i as u64, 20_000, 1.5e9, &tech),
            tech: tech.clone(),
        })
        .collect();

    let solver = ElectroThermalSolver::new(plan);
    let result = solver.solve(|i, t| blocks[i].power(t))?;

    println!(
        "== coupled operating point ({} iterations) ==",
        result.iterations
    );
    println!(
        "{:>6}  {:>9}  {:>9}  {:>10}",
        "tile", "T (C)", "P (mW)", "static (%)"
    );
    for (i, (t, p)) in result
        .block_temperatures
        .iter()
        .zip(&result.block_powers)
        .enumerate()
    {
        println!(
            "{i:>6}  {:>9.3}  {:>9.2}  {:>10.1}",
            t - 273.15,
            p * 1e3,
            100.0 * blocks[i].static_fraction(*t)
        );
    }
    println!(
        "\ntotal {:.3} W, peak {:.2} C",
        result.total_power(),
        result.peak_temperature().expect("non-empty floorplan") - 273.15
    );

    // Convergence trace: the damped Picard iteration is geometric.
    println!("\nconvergence (max block dT per iteration, K):");
    for (k, d) in result.history.iter().enumerate() {
        println!("  iter {k:>2}: {d:.2e}");
    }

    // Runaway corner, swept through the batched engine: one shared
    // thermal operator, all gain scenarios fanned out together (the
    // feedback gain rides the grid's activity axis). The engine must
    // report runaway corners rather than oscillate or abort the rest of
    // the sweep.
    println!("\n== thermal-runaway corner (sweep engine) ==");
    let mut hot = ElectroThermalSolver::new(solver.floorplan().clone());
    hot.ceiling_k = 450.0;
    let engine = SweepEngine::with_solver(hot);
    let gains = [50.0, 200.0, 1000.0];
    let grid = ScenarioGrid::new(vec![tech])
        .activities(gains.to_vec())
        .ambients_k(vec![300.0]);
    let gain_power = |s: &Scenario, _: &Technology, _: usize, t: f64| {
        0.02 + 0.002 * s.activity * ((t - 300.0) / 12.0).exp2()
    };
    let sweep = engine.sweep(&grid, &gain_power, RunOptions::new());
    for (gain, outcome) in gains.iter().zip(&sweep.outcomes) {
        match outcome {
            SweepOutcome::Converged { .. } => println!(
                "  gain {gain:>5}: stable at {:.2} C",
                outcome.peak_temperature().expect("converged") - 273.15
            ),
            SweepOutcome::Runaway {
                iteration,
                temperature,
            } => println!(
                "  gain {gain:>5}: RUNAWAY detected at iteration {iteration} ({temperature:.0} K)"
            ),
            other => println!("  gain {gain:>5}: {other}"),
        }
    }
    Ok(())
}
