//! Transient-engine throughput: the chip-scale batched implicit
//! electro-thermal transient ([`SweepEngine::transient`]) against the
//! per-scenario explicit RK4 reference, with a machine-readable
//! `BENCH_transient.json` for the perf trajectory.
//!
//! Two discretizations of the same ODE `C dT/dt = P(T, t) − R⁻¹(T −
//! T_amb)`:
//!
//! 1. **implicit batched** — `Φ`/`Q` precomputed from one LU
//!    factorization, B scenario×waveform lanes advanced per step through
//!    two GEMMs; the step size is an accuracy knob, so the stiff fastest
//!    block never caps it,
//! 2. **explicit RK4 reference** — textbook integration whose step is
//!    stability-bound at `h·λ_max ≲ 1` ([`TransientRk4Reference`]), run
//!    per scenario on the same worker fan-out.
//!
//! Audits: on a 1-block floorplan the engine must land on the analytic
//! Fig. 9 step response (`R_th·P·(1−e^{−t/τ})`, ≤ 1e-6 relative) and on
//! the lumped `ptherm-thermal-num` integration it mirrors; the batched
//! path must match the per-scenario implicit oracle to ≤ 1e-9 K and the
//! RK4 reference within the documented discretization tolerance. Speedup
//! bar: ≥ 5× over the reference in full mode (≥ 1× in `--quick` CI
//! smoke, which writes `BENCH_transient.quick.json`; override either
//! path with `BENCH_TRANSIENT_JSON`). Schema in `docs/PERFORMANCE.md`.

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_core::cosim::sweep::{RunOptions, ScenarioGrid, SweepEngine};
use ptherm_core::cosim::transient::{DriveWaveform, TransientConfig, TransientRk4Reference};
use ptherm_core::cosim::ThermalOperator;
use ptherm_core::thermal::capacitance::silicon_block_capacitances;
use ptherm_floorplan::{generator, Block, ChipGeometry, Floorplan};
use ptherm_math::ode::ImplicitScheme;
use ptherm_tech::ScalingTable;
use ptherm_thermal_num::transient::ThermalRc;
use std::time::Instant;

struct Config {
    tile_rows: usize,
    tile_cols: usize,
    ambients: usize,
    steps: usize,
    label: &'static str,
}

/// Smallest diagonal block time constant of `op` under `caps`, s.
fn min_tau(op: &ThermalOperator, caps: &[f64]) -> f64 {
    (0..caps.len())
        .map(|i| op.influence()[(i, i)] * caps[i])
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Config {
            tile_rows: 2,
            tile_cols: 4,
            ambients: 2,
            steps: 200,
            label: "quick (CI smoke): 8 blocks",
        }
    } else {
        Config {
            tile_rows: 8,
            tile_cols: 8,
            ambients: 3,
            steps: 500,
            label: "64 blocks",
        }
    };
    header(
        "Transient",
        &format!(
            "batched implicit chip transient vs per-scenario RK4 reference, {}",
            cfg.label
        ),
    );

    // ---- audit: 1-block chip engine vs the analytic Fig. 9 response ----
    let one_block = Floorplan::new(
        ChipGeometry::paper_1mm(),
        vec![Block::new("b0", 0.5e-3, 0.5e-3, 0.4e-3, 0.4e-3, 0.0)],
    )
    .expect("valid plan");
    let one_engine = SweepEngine::new(one_block.clone()).threads(1);
    let one_caps = silicon_block_capacitances(&one_block);
    let rth = one_engine.operator().influence()[(0, 0)];
    let tau = rth * one_caps[0];
    let p_step = 0.3;
    let steady = rth * p_step;
    let analytic_steps = 2000usize;
    let analytic_cfg = TransientConfig::new(5.0 * tau / analytic_steps as f64, analytic_steps)
        .scheme(ImplicitScheme::Trapezoidal)
        .record_stride(1);
    let one_grid = ScenarioGrid::new(vec![ptherm_tech::Technology::cmos_120nm()]);
    let flat_power = move |_: &ptherm_core::cosim::Scenario,
                           _: &ptherm_tech::Technology,
                           _: usize,
                           _: f64| { p_step };
    let one_report = one_engine
        .transient(&one_grid, &flat_power, &analytic_cfg, RunOptions::new())
        .expect("valid transient");
    let mut analytic_gap_rel: f64 = 0.0;
    let mut lumped_gap_rel: f64 = 0.0;
    {
        // The lumped thermal-num path on the identical RC (fine RK4).
        let rc = ThermalRc {
            rth,
            cth: one_caps[0],
        };
        let lumped = rc.simulate(|_, _| p_step, 5.0 * tau, 4000);
        let ptherm_core::cosim::TransientOutcome::Finished { samples, .. } =
            &one_report.outcomes[0]
        else {
            panic!("1-block transient must finish");
        };
        for s in samples {
            let exact = 300.0 + rc.step_response(p_step, s.time_s);
            analytic_gap_rel = analytic_gap_rel.max((s.peak_temperature_k - exact).abs() / steady);
            let num = 300.0 + lumped.sample(s.time_s)[0];
            lumped_gap_rel = lumped_gap_rel.max((s.peak_temperature_k - num).abs() / steady);
        }
    }
    println!(
        "1-block audit: |engine - analytic| <= {analytic_gap_rel:.2e} x dT_ss, |engine - lumped rk4| <= {lumped_gap_rel:.2e} x dT_ss"
    );

    // ---- the chip-scale workload ---------------------------------------
    let floorplan = generator::tiled(
        ChipGeometry::paper_1mm(),
        cfg.tile_rows,
        cfg.tile_cols,
        0.0,
        0.0,
        11,
    )
    .expect("valid tiling");
    let blocks = floorplan.blocks().len();
    let threads = ptherm_par::default_threads();
    let lanes = 64usize;
    let engine = SweepEngine::new(floorplan.clone())
        .threads(threads)
        .batch_lanes(lanes);
    let caps = silicon_block_capacitances(&floorplan);
    let tmin = min_tau(engine.operator(), &caps);

    let table = ScalingTable::itrs_like();
    let technologies: Vec<_> = table
        .nodes
        .iter()
        .filter(|n| n.node <= 0.18e-6)
        .take(2)
        .map(|n| n.technology())
        .collect();
    let grid = ScenarioGrid::new(technologies)
        .vdd_scales(vec![0.9, 1.1])
        .activities(vec![0.5, 1.0])
        .ambients_k((0..cfg.ambients).map(|i| 290.0 + 10.0 * i as f64).collect());
    let model = engine.uniform_tech_power(0.45, 0.04).prepared_for(&grid);

    // Long stiff transient: dt = 2x the fastest block tau (far past any
    // explicit stability limit), gated and stepped drives. The gating
    // fits 1.75 periods in the span so the run ends mid-OFF, decayed —
    // ending exactly on a gate edge would make the audit measure the
    // worst-case ±dt edge skew instead of the integration quality.
    let dt = 2.0 * tmin;
    let span = dt * cfg.steps as f64;
    let waveforms = vec![
        DriveWaveform::Step,
        DriveWaveform::SquareWave {
            frequency: 1.75 / span,
            duty: 0.5,
        },
    ];
    let run_cfg = TransientConfig::new(dt, cfg.steps)
        .scheme(ImplicitScheme::BackwardEuler)
        .waveforms(waveforms.clone());
    let transients_total = grid.len() * waveforms.len();
    let duration = run_cfg.duration();

    // ---- batched implicit engine (best-of-N) ---------------------------
    const TIMED_RUNS: usize = 3;
    let mut implicit_s = f64::INFINITY;
    let mut implicit_report = engine
        .transient(&grid, &model, &run_cfg, RunOptions::new())
        .expect("valid transient"); // warm-up
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        implicit_report = engine
            .transient(&grid, &model, &run_cfg, RunOptions::new())
            .expect("valid transient");
        implicit_s = implicit_s.min(t0.elapsed().as_secs_f64());
    }
    let lane_steps = (transients_total * cfg.steps) as f64;
    let implicit_steps_per_s = lane_steps / implicit_s;

    // ---- per-scenario implicit oracle ----------------------------------
    let oracle_report = engine
        .run_transient_per_scenario(&grid, &model, &run_cfg)
        .expect("valid transient");

    // ---- explicit RK4 reference ----------------------------------------
    let reference = TransientRk4Reference::new(engine.operator(), &caps).expect("invertible");
    let rk4_steps = reference.stable_steps(duration).max(cfg.steps);
    let mut rk4_s = f64::INFINITY;
    let mut rk4_report = engine
        .run_transient_rk4(&grid, &model, &run_cfg)
        .expect("valid transient"); // warm-up
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        rk4_report = engine
            .run_transient_rk4(&grid, &model, &run_cfg)
            .expect("valid transient");
        rk4_s = rk4_s.min(t0.elapsed().as_secs_f64());
    }
    let speedup_vs_rk4 = rk4_s / implicit_s;

    // ---- audits ---------------------------------------------------------
    // Batched vs per-scenario implicit oracle: identical per-lane
    // arithmetic modulo the FMA/expv ULP contract.
    let mut max_gap_oracle: f64 = 0.0;
    for (b, o) in implicit_report.outcomes.iter().zip(&oracle_report.outcomes) {
        match (b.final_temperatures(), o.final_temperatures()) {
            (Some(bt), Some(ot)) => {
                for (x, y) in bt.iter().zip(ot) {
                    max_gap_oracle = max_gap_oracle.max((x - y).abs());
                }
            }
            _ => max_gap_oracle = f64::INFINITY,
        }
    }
    // Batched vs RK4 reference: same physics, coarse-vs-fine
    // discretization, measured relative to each lane's **peak
    // excursion above its own ambient** (the physically meaningful
    // scale; a fixed offset in the denominator would silently loosen
    // the tolerance). Step-drive lanes are smooth and settled, so they
    // must agree tightly; square-wave lanes additionally carry a ±dt
    // skew in where the implicit scheme samples the gate edge, so
    // their documented tolerance is one decay-fraction coarser (see
    // docs/PERFORMANCE.md).
    let sink_k = engine.operator().sink_temperature();
    let mut max_gap_rk4_rel_step: f64 = 0.0;
    let mut max_gap_rk4_rel_gated: f64 = 0.0;
    for (id, (b, r)) in implicit_report
        .outcomes
        .iter()
        .zip(&rk4_report.outcomes)
        .enumerate()
    {
        let ambient = grid.scenario(id / waveforms.len(), sink_k).ambient_k;
        let excursion = r
            .peak_temperature()
            .map_or(1.0, |pk| (pk - ambient).max(1e-3));
        let gap = match (b.final_temperatures(), r.final_temperatures()) {
            (Some(bt), Some(rt)) => bt
                .iter()
                .zip(rt)
                .map(|(x, y)| (x - y).abs() / excursion)
                .fold(0.0, f64::max),
            _ => f64::INFINITY,
        };
        if id % waveforms.len() == 0 {
            max_gap_rk4_rel_step = max_gap_rk4_rel_step.max(gap);
        } else {
            max_gap_rk4_rel_gated = max_gap_rk4_rel_gated.max(gap);
        }
    }

    let mut out = Table::new([
        "configuration",
        "transients",
        "steps",
        "wall_s",
        "lane_steps_per_s",
    ]);
    out.row([
        format!("rk4 reference, {threads} threads (stability-capped)"),
        transients_total.to_string(),
        rk4_steps.to_string(),
        format!("{rk4_s:.3}"),
        format!("{:.0}", (transients_total * rk4_steps) as f64 / rk4_s),
    ]);
    out.row([
        format!("batched implicit, {threads} threads, {lanes} lanes"),
        transients_total.to_string(),
        cfg.steps.to_string(),
        format!("{implicit_s:.3}"),
        format!("{implicit_steps_per_s:.0}"),
    ]);
    println!("{}", out.render());
    println!(
        "implicit dt = {:.2e} s (2x min block tau {tmin:.2e} s); rk4 needs {rk4_steps} steps for the same {duration:.2e} s span; speedup {speedup_vs_rk4:.2}x",
        run_cfg.dt
    );
    println!(
        "sweep outcome: {implicit_report} (peak {:.1} K)",
        implicit_report.max_peak_temperature().unwrap_or(f64::NAN)
    );

    // ---- BENCH_transient.json -------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "transient")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("blocks", blocks as u64)
        .integer("transients", transients_total as u64)
        .integer("waveforms", waveforms.len() as u64)
        .integer("threads", threads as u64)
        .integer("batch_lanes", lanes as u64)
        .string("simd", &format!("{:?}", ptherm_math::simd::isa()))
        .string("scheme", "backward_euler")
        .number("dt_s", run_cfg.dt)
        .integer("steps", cfg.steps as u64)
        .number("min_block_tau_s", tmin)
        .integer("rk4_steps", rk4_steps as u64)
        .number("implicit_wall_s", implicit_s)
        .number("rk4_wall_s", rk4_s)
        .number("implicit_lane_steps_per_s", implicit_steps_per_s)
        .number("speedup_batched_vs_rk4", speedup_vs_rk4)
        .number("max_final_temp_gap_vs_oracle_k", max_gap_oracle)
        .number("max_final_temp_gap_vs_rk4_step_rel", max_gap_rk4_rel_step)
        .number("max_final_temp_gap_vs_rk4_gated_rel", max_gap_rk4_rel_gated)
        .number("one_block_analytic_gap_rel", analytic_gap_rel)
        .number("one_block_lumped_gap_rel", lumped_gap_rel);
    let default_path = if quick {
        "BENCH_transient.quick.json"
    } else {
        "BENCH_transient.json"
    };
    let json_path = std::env::var("BENCH_TRANSIENT_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let speedup_bar = if quick { 1.0 } else { 5.0 };
    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "1-block engine matches the analytic step response (<= 1e-6 rel)",
            analytic_gap_rel <= 1e-6,
            format!("max gap {analytic_gap_rel:.2e} x dT_ss"),
        ),
        ShapeCheck::new(
            "1-block engine matches the lumped thermal-num integration (<= 1e-5 rel)",
            lumped_gap_rel <= 1e-5,
            format!("max gap {lumped_gap_rel:.2e} x dT_ss"),
        ),
        ShapeCheck::new(
            "every transient finishes (no divergence, no bad power)",
            implicit_report.finished_count() == implicit_report.len(),
            format!("{implicit_report}"),
        ),
        ShapeCheck::new(
            "batched matches the per-scenario implicit oracle (<= 1e-9 K)",
            max_gap_oracle <= 1e-9,
            format!("max final-temperature gap {max_gap_oracle:.2e} K"),
        ),
        ShapeCheck::new(
            "batched matches the rk4 reference on step drives (<= 1e-2 of the peak excursion)",
            max_gap_rk4_rel_step <= 1e-2,
            format!("max relative final-temperature gap {max_gap_rk4_rel_step:.2e}"),
        ),
        ShapeCheck::new(
            "batched matches the rk4 reference on gated drives (<= 1e-2 of the peak excursion)",
            max_gap_rk4_rel_gated <= 1e-2,
            format!("max relative final-temperature gap {max_gap_rk4_rel_gated:.2e}"),
        ),
        ShapeCheck::new(
            format!("batched implicit >= {speedup_bar}x the rk4 reference"),
            speedup_vs_rk4 >= speedup_bar,
            format!("{implicit_s:.3} s vs {rk4_s:.3} s ({speedup_vs_rk4:.2}x)"),
        ),
        ShapeCheck::new(
            "implicit step runs far past the explicit stability limit",
            run_cfg.dt > 2.78 * tmin / 4.0,
            format!("dt {:.2e} s vs tau_min {tmin:.2e} s", run_cfg.dt),
        ),
    ];
    std::process::exit(report(&checks));
}
