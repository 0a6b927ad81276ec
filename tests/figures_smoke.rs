//! Miniature versions of every figure experiment, run as tests: if any
//! paper-level claim regresses, `cargo test` fails — the experiment
//! binaries then provide the detailed diagnosis.

use ptherm::floorplan::Floorplan;
use ptherm::model::leakage::baselines::chen98_stack_current;
use ptherm::model::leakage::{CollapseParams, GateLeakageModel};
use ptherm::model::thermal::rect::rect_rise;
use ptherm::model::thermal::ThermalModel;
use ptherm::spice::stack::Stack;
use ptherm::tech::constants::celsius_to_kelvin;
use ptherm::tech::{ScalingTable, Technology};
use ptherm::thermal_num::rect_surface_temperature;

/// Fig. 1: static overtakes dynamic sub-100nm, earlier when hot.
#[test]
fn fig1_crossovers() {
    let table = ScalingTable::itrs_like();
    let cross = |t: f64| {
        table
            .nodes
            .iter()
            .position(|n| n.static_power(t) > n.dynamic_power())
    };
    let c150 = cross(celsius_to_kelvin(150.0)).expect("150C crossover");
    let c100 = cross(celsius_to_kelvin(100.0)).expect("100C crossover");
    assert!(table.nodes[c150].node <= 0.1e-6);
    assert!(c150 <= c100);
}

/// Fig. 3: Eq. 10 within 5% of the exact 2-stack node voltage.
#[test]
fn fig3_eq10_accuracy() {
    let tech = Technology::cmos_120nm();
    let params = CollapseParams::from_mos(&tech.nmos, tech.vdd);
    for k in [-4i32, -1, 0, 1, 4] {
        let w_top = 1e-6 * 2f64.powi(k);
        let exact = Stack::all_off(&tech, &[1e-6, w_top])
            .solve(300.0)
            .expect("solves")
            .node_voltages[0];
        let eq10 = params.delta_v(w_top, 1e-6, 300.0);
        assert!((eq10 - exact).abs() / exact < 0.05, "2^{k}");
    }
}

/// Fig. 5: far-field profile within 5%.
#[test]
fn fig5_profile_accuracy() {
    let (w, l, p, k) = (1e-6, 0.1e-6, 10e-3, 148.0);
    for x in [2e-6, 4e-6, 8e-6] {
        let exact = rect_surface_temperature(p, k, w, l, x, 0.0);
        let model = rect_rise(p, k, w, l, x, 0.0);
        assert!((model - exact).abs() / exact < 0.05, "x = {x}");
    }
}

/// Figs. 6–7: boundary conditions honoured by the image model.
#[test]
fn fig6_7_edge_flux() {
    let fp = Floorplan::paper_three_blocks();
    let model = ThermalModel::with_image_orders(&fp, 3, 9);
    let h = 1e-6;
    for y in [0.25e-3, 0.5e-3, 0.75e-3] {
        let edge = ((model.temperature(h, y) - model.temperature(0.0, y)) / h).abs();
        let interior =
            ((model.temperature(0.6e-3, y) - model.temperature(0.6e-3 - h, y)) / h).abs();
        assert!(edge < 0.10 * interior.max(100.0), "y = {y}: edge {edge}");
    }
}

/// Fig. 8: model within 5% of exact, beating Chen'98, for N = 2..4.
#[test]
fn fig8_model_ordering() {
    let tech = Technology::cmos_120nm();
    let model = GateLeakageModel::new(&tech);
    for n in 2..=4 {
        let widths = vec![1e-6; n];
        let exact = Stack::off_current(&tech, &widths, 300.0).expect("solves");
        let proposed = model.stack_off_current(&widths, 300.0);
        let chen = chen98_stack_current(&tech, &widths, 300.0);
        let e_p = (proposed - exact).abs() / exact;
        let e_c = (chen - exact).abs() / exact;
        assert!(e_p < 0.05, "N = {n}: proposed {e_p:.3}");
        assert!(e_p < e_c, "N = {n}: ordering");
    }
}

/// Figs. 9–10 pipeline in miniature: rig -> calibration -> extraction
/// recovers the thermal network.
#[test]
fn fig9_10_extraction_pipeline() {
    use ptherm::device::on_current::OnCurrentModel;
    use ptherm::thermal_num::transient::ThermalRc;
    use ptherm::thermal_num::SelfHeatingRig;
    let rig = SelfHeatingRig {
        dut_current: |t| {
            OnCurrentModel::new(&Technology::cmos_350nm().nmos, 300.0).current(10e-6, 3.3, t)
        },
        supply: 3.3,
        sense_resistance: 20.0,
        thermal: ThermalRc {
            rth: 900.0,
            cth: 25e-3 / 900.0,
        },
        gate_frequency: 3.0,
        noise_rms: 0.2e-3,
        seed: 7,
    };
    let ambients = [303.15, 308.15, 313.15];
    let cal = rig.calibrate(&ambients, 512).expect("calibration");
    let m = rig.measure(303.15, cal, 1024).expect("measurement");
    assert!((m.rth - 900.0).abs() / 900.0 < 0.15, "rth {}", m.rth);
    // The Eq. 18 model for the same footprint is the right order of
    // magnitude and sits above the channel-averaged measurement.
    let model = ptherm::model::thermal::resistance::self_heating_resistance(
        148.0,
        10e-6,
        Technology::cmos_350nm().nmos.l,
    );
    assert!(
        model > 0.5 * m.rth && model < 3.0 * m.rth,
        "model {model} vs {}",
        m.rth
    );
}

/// Sweep engine in miniature: a Vdd × activity × ambient × node grid on
/// the paper floorplan — GEMM-batched results match one-shot solves
/// within the documented ULP contract (see `ptherm_core::cosim::batch`),
/// runaway corners reported per scenario.
#[test]
fn sweep_engine_shape() {
    use ptherm::model::cosim::sweep::{RunOptions, ScenarioGrid, ScenarioPowerModel, SweepEngine};
    use ptherm::model::cosim::Workspace;
    use ptherm::model::ElectroThermalSolver;
    use ptherm::tech::ScalingTable;

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
        .ambients_k(vec![300.0, 330.0]);
    let engine = SweepEngine::new(Floorplan::paper_three_blocks());
    let model = engine.uniform_tech_power(0.5, 0.05);
    let report = engine.sweep(&grid, &model, RunOptions::new());
    assert_eq!(report.len(), 16);
    assert_eq!(report.converged_count(), 16);

    // Spot-check against a one-shot operator solve: the batched path
    // fuses multiply-adds and batches exponentials, so agreement is
    // ~1e-9 K rather than bitwise.
    let scenario = &grid.scenarios(300.0)[5];
    let tech = &grid.technologies()[scenario.tech_index];
    let solver = ElectroThermalSolver::new(Floorplan::paper_three_blocks());
    let op = solver.operator();
    let mut ws = Workspace::new();
    solver
        .solve_with_ambient(&op, scenario.ambient_k, &mut ws, |b, t| {
            model.block_power(scenario, tech, b, t)
        })
        .expect("converges");
    match &report.outcomes[5] {
        ptherm::model::SweepOutcome::Converged {
            block_temperatures, ..
        } => {
            for (a, b) in ws.temperatures().iter().zip(block_temperatures) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
        other => panic!("expected convergence, got {other:?}"),
    }
}

/// Speed shape (debug build, coarse): the analytical gate evaluation beats
/// the exact network solve by a comfortable factor.
#[test]
fn speed_shape_leakage() {
    use ptherm::netlist::cells;
    use ptherm::spice::network::solve_network;
    use std::time::Instant;
    let tech = Technology::cmos_120nm();
    let model = GateLeakageModel::new(&tech);
    let gate = cells::nand(3, &tech);
    let v = [false, true, false];

    let t0 = Instant::now();
    for _ in 0..200 {
        let _ = model.gate_off_current(&gate, &v, 300.0).expect("blocking");
    }
    let analytic = t0.elapsed();
    let blocking = gate.bound_blocking(&v).expect("complementary");
    let t1 = Instant::now();
    for _ in 0..200 {
        let _ = solve_network(&tech, &blocking, 300.0).expect("solves");
    }
    let exact = t1.elapsed();
    assert!(
        exact > 3 * analytic,
        "exact {exact:?} should dwarf analytic {analytic:?}"
    );
}
