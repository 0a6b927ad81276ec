//! High-resolution thermal map bench: FFT convolution vs the direct
//! `O(N²)` oracle, cross-validated against the dense operator.
//!
//! Three audits back the map engine's claims (`docs/PERFORMANCE.md`):
//!
//! 1. **speed** — rendering an `nx × ny` map through the FFT path must
//!    beat the direct convolution of the *same* kernels by the
//!    documented factor (≥ 10× at 128×128 in full mode; the quick CI
//!    shape keeps a ≥ 2× floor at 64×64),
//! 2. **FFT exactness** — FFT and direct evaluations of one kernel set
//!    differ only by transform rounding: max |ΔT| ≤ 1e-9 K,
//! 3. **physics exactness** — on a floorplan whose blocks coincide with
//!    the grid tiles, the map reproduces the dense
//!    [`ThermalOperator`]'s truncated image sum term for term:
//!    block-centre agreement ≤ 1e-6 K.
//!
//! Emits `BENCH_map.json` (`BENCH_map.quick.json` with `--quick`;
//! override the path with `BENCH_MAP_JSON`), gated in CI by
//! `benchcheck` against `ci/bench_bounds.quick.json`.

use ptherm_bench::{header, heatmap, report, JsonObject, ShapeCheck, Table};
use ptherm_core::cosim::{RunOptions, ScenarioGrid, SweepEngine, ThermalOperator};
use ptherm_core::thermal::map::{MapOperator, MapWorkspace};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use ptherm_tech::Technology;
use std::time::Instant;

struct BenchConfig {
    tile_rows: usize,
    tile_cols: usize,
    grid_nx: usize,
    grid_ny: usize,
    dense_n: usize,
    speedup_bar: f64,
    label: &'static str,
}

/// The coincident-grid configuration: blocks ARE the tiles of an
/// `n × n` grid (see [`generator::tile_aligned`]), with deterministic
/// non-uniform powers.
fn tile_aligned_floorplan(n: usize) -> Floorplan {
    generator::tile_aligned(ChipGeometry::paper_1mm(), n, n, |i| {
        0.002 + 0.0015 * ((i * 5) % 11) as f64
    })
    .expect("aligned tiling is valid")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        BenchConfig {
            tile_rows: 4,
            tile_cols: 4,
            grid_nx: 64,
            grid_ny: 64,
            dense_n: 8,
            speedup_bar: 2.0,
            label: "quick (CI smoke): 16 blocks on a 64x64 map",
        }
    } else {
        BenchConfig {
            tile_rows: 8,
            tile_cols: 8,
            grid_nx: 128,
            grid_ny: 128,
            dense_n: 16,
            speedup_bar: 10.0,
            label: "64 blocks on a 128x128 map",
        }
    };
    let threads = ptherm_par::default_threads();
    header(
        "Map",
        &format!(
            "FFT thermal maps vs direct convolution, {} ({} threads)",
            cfg.label, threads
        ),
    );

    let floorplan = generator::tiled(
        ChipGeometry::paper_1mm(),
        cfg.tile_rows,
        cfg.tile_cols,
        0.005,
        0.02,
        42,
    )
    .expect("valid tiling");

    // --- kernel build: serial vs threaded (bit-identical) ----------------
    let t0 = Instant::now();
    let op_serial =
        MapOperator::with_image_orders_threaded(&floorplan, cfg.grid_nx, cfg.grid_ny, 2, 9, 1);
    let build_serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let map_op = MapOperator::with_image_orders_threaded(
        &floorplan,
        cfg.grid_nx,
        cfg.grid_ny,
        2,
        9,
        threads,
    );
    let build_threaded_s = t0.elapsed().as_secs_f64();
    let mut ws = MapWorkspace::new();
    let probe: Vec<f64> = floorplan.blocks().iter().map(|b| b.power).collect();
    let mut a = vec![0.0; map_op.tiles()];
    let mut b = vec![0.0; map_op.tiles()];
    op_serial.rise_map_into(&probe, &mut ws, &mut a);
    map_op.rise_map_into(&probe, &mut ws, &mut b);
    let build_bit_identical = a == b;

    // --- the leakage-closed sweep: Picard on the batched engine, then a
    // map per converged scenario --------------------------------------
    let engine = SweepEngine::new(floorplan.clone()).threads(threads);
    let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vec![0.95, 1.0, 1.05])
        .activities(vec![0.5, 1.0]);
    let model = engine.uniform_tech_power(0.3, 0.03).prepared_for(&grid);
    let map_opts = RunOptions::new().operator(&map_op);
    let map_report = engine.map(&grid, &model, map_op.nx(), map_op.ny(), map_opts);
    let converged = map_report.converged_count();
    let map_peak_k = map_report.max_map_temperature().unwrap_or(f64::NAN);
    // The map report carries each scenario's block-level outcome, so the
    // block peak needs no second sweep.
    let block_peak_k = map_report
        .outcomes
        .iter()
        .filter_map(|o| o.outcome.peak_temperature())
        .fold(f64::NAN, f64::max);

    // --- FFT vs direct: same kernels, same power vector -----------------
    // Render timing is best-of-N on one representative power vector (the
    // first converged scenario's), identical work per run.
    let powers = map_report
        .outcomes
        .iter()
        .find_map(|o| match &o.outcome {
            ptherm_core::cosim::SweepOutcome::Converged { block_powers, .. } => {
                Some(block_powers.clone())
            }
            _ => None,
        })
        .unwrap_or(probe);
    const TIMED_RUNS: usize = 3;
    let mut fft_map = vec![0.0; map_op.tiles()];
    let mut fft_s = f64::INFINITY;
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        map_op.rise_map_into(&powers, &mut ws, &mut fft_map);
        fft_s = fft_s.min(t0.elapsed().as_secs_f64());
    }
    let mut direct_map = vec![0.0; map_op.tiles()];
    let mut direct_s = f64::INFINITY;
    for _ in 0..TIMED_RUNS.min(2) {
        let t0 = Instant::now();
        map_op.rise_map_direct(&powers, &mut ws, &mut direct_map);
        direct_s = direct_s.min(t0.elapsed().as_secs_f64());
    }
    let speedup = direct_s / fft_s;
    let fft_vs_direct_gap = fft_map
        .iter()
        .zip(&direct_map)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);

    // --- dense cross-validation on a coincident grid ---------------------
    let aligned = tile_aligned_floorplan(cfg.dense_n);
    let aligned_powers: Vec<f64> = aligned.blocks().iter().map(|b| b.power).collect();
    let aligned_map_op = MapOperator::with_image_orders(&aligned, cfg.dense_n, cfg.dense_n, 2, 9);
    let dense = ThermalOperator::with_image_orders(&aligned, 2, 9);
    let mut aligned_map = vec![0.0; aligned_map_op.tiles()];
    aligned_map_op.rise_map_into(&aligned_powers, &mut ws, &mut aligned_map);
    let mut dense_rises = vec![0.0; aligned_powers.len()];
    dense.temperature_rises_into(&aligned_powers, &mut dense_rises);
    let dense_gap = aligned
        .blocks()
        .iter()
        .zip(&dense_rises)
        .map(|(block, &r)| (aligned_map[aligned_map_op.tile_of(block.cx, block.cy)] - r).abs())
        .fold(0.0f64, f64::max);

    // --- report -----------------------------------------------------------
    let mut out = Table::new(["path", "wall_s", "maps_per_s", "speedup"]);
    out.row([
        format!("direct convolution ({}x{})", cfg.grid_nx, cfg.grid_ny),
        format!("{direct_s:.4}"),
        format!("{:.2}", 1.0 / direct_s),
        "1.0".into(),
    ]);
    out.row([
        "FFT convolution".into(),
        format!("{fft_s:.4}"),
        format!("{:.2}", 1.0 / fft_s),
        format!("{speedup:.1}"),
    ]);
    println!("{}", out.render());
    println!(
        "kernel build: {build_serial_s:.3} s serial, {build_threaded_s:.3} s on {threads} threads"
    );
    println!(
        "sweep: {converged}/{} scenarios converged, map peak {map_peak_k:.2} K (block-level {block_peak_k:.2} K)",
        map_report.len()
    );
    println!();
    let coarse = 48.min(cfg.grid_nx).min(cfg.grid_ny);
    // Scale indices per sample (not a truncated constant stride) so the
    // preview spans the whole map even when coarse does not divide it.
    let preview: Vec<f64> = (0..coarse * coarse)
        .map(|i| {
            let ix = (i % coarse) * cfg.grid_nx / coarse;
            let iy = (i / coarse) * cfg.grid_ny / coarse;
            fft_map[ix + cfg.grid_nx * iy]
        })
        .collect();
    println!("{}", heatmap(&preview, coarse, coarse));

    // --- BENCH_map.json ---------------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "map")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("blocks", floorplan.blocks().len() as u64)
        .integer("grid_nx", cfg.grid_nx as u64)
        .integer("grid_ny", cfg.grid_ny as u64)
        .integer("scenarios", map_report.len() as u64)
        .integer("converged", converged as u64)
        .integer("threads", threads as u64)
        .number("build_serial_s", build_serial_s)
        .number("build_threaded_s", build_threaded_s)
        .number("fft_map_s", fft_s)
        .number("direct_map_s", direct_s)
        .number("fft_maps_per_s", 1.0 / fft_s)
        .number("speedup_fft_vs_direct", speedup)
        .number("max_gap_fft_vs_direct_k", fft_vs_direct_gap)
        .integer("dense_grid_n", cfg.dense_n as u64)
        .number("max_gap_block_center_vs_dense_k", dense_gap)
        .number("map_peak_k", map_peak_k)
        .number("block_peak_k", block_peak_k);
    let default_path = if quick {
        "BENCH_map.quick.json"
    } else {
        "BENCH_map.json"
    };
    let json_path = std::env::var("BENCH_MAP_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let rise = (block_peak_k - 300.0).abs().max(1e-9);
    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "every scenario of the map sweep converges and renders a map",
            converged == map_report.len()
                && map_report
                    .outcomes
                    .iter()
                    .all(|o| o.map_k.as_ref().is_some_and(|m| m.len() == map_op.tiles())),
            format!("{converged}/{} converged", map_report.len()),
        ),
        ShapeCheck::new(
            format!(
                "FFT map >= {}x the direct O(N^2) convolution at {}x{}",
                cfg.speedup_bar, cfg.grid_nx, cfg.grid_ny
            ),
            speedup >= cfg.speedup_bar,
            format!(
                "{:.4} s direct vs {:.5} s FFT ({speedup:.1}x)",
                direct_s, fft_s
            ),
        ),
        ShapeCheck::new(
            "FFT and direct convolution agree to <= 1e-9 K",
            fft_vs_direct_gap <= 1e-9,
            format!("max |dT| = {fft_vs_direct_gap:.2e} K"),
        ),
        ShapeCheck::new(
            "block centres match the dense operator on a coincident grid to <= 1e-6 K",
            dense_gap <= 1e-6,
            format!(
                "max |dT| = {dense_gap:.2e} K over {} tiles",
                cfg.dense_n * cfg.dense_n
            ),
        ),
        ShapeCheck::new(
            "threaded kernel build is bit-identical to serial",
            build_bit_identical,
            format!("{threads} threads vs 1"),
        ),
        ShapeCheck::new(
            "spatial peak is consistent with the block-level peak (<= 5% of rise)",
            (map_peak_k - block_peak_k).abs() <= 0.05 * rise,
            format!("map {map_peak_k:.3} K vs blocks {block_peak_k:.3} K"),
        ),
    ];
    std::process::exit(report(&checks));
}
