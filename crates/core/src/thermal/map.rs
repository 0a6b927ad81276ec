//! FFT-accelerated high-resolution thermal maps (power blurring).
//!
//! The dense [`ThermalOperator`](crate::cosim::ThermalOperator) gives
//! block-centre temperatures through an `n × n` influence matrix — the
//! right shape for the Picard fixed point, but quadratically expensive
//! when the question is *spatial*: a hotspot-localization map with
//! thousands of tiles would need a dense operator with millions of
//! entries. This module keeps the same physics (Eq. 20 kernels under the
//! §3.3 method of images) but exploits a different structure, the one
//! Kemper et al.'s "Ultrafast Temperature Profile Calculation in IC
//! Chips" (power blurring) is built on: on a **uniform tile grid** every
//! source is the same rectangle, so the temperature field is a
//! *convolution* of the rasterized power map with one tile
//! Green's-function kernel — and convolutions are `O(N log N)` by FFT.
//!
//! # Exactness contract
//!
//! The kernel is not an approximation of the dense operator — it is the
//! **same truncated image sum**, reorganized. For a source tile centred
//! at `x_j` the lateral images sit at `2mW ± x_j` (`m ∈ [−k, k]`), so
//! the rise at `x_i` splits into a *difference* family `K(x_i − x_j −
//! 2mW)` and a *sum* family `K(x_i + x_j − 2mW)` per axis; each family
//! is a cyclic convolution (the sum family convolves the index-reversed
//! power map, which in frequency space is just the spectrum read at
//! mirrored indices). Four kernels — (diff, diff), (sum, diff), (diff,
//! sum), (sum, sum) — with the bottom-mirror depth column
//! ([`depth_series`]) folded in reproduce the dense operator's image
//! set *term for term*, including its truncation window. On a floorplan
//! whose blocks coincide with grid tiles the map therefore matches the
//! dense operator to floating-point rounding (the cross-validation
//! tests and the `map` bench assert ≤ 1e-6 K), and the FFT evaluation
//! matches the direct `O(N²)` convolution of the same kernels to
//! ≤ 1e-9 K.
//!
//! Everything expensive — rasterization stencils, the extended kernel
//! table, the four torus kernels and their spectra — is computed once
//! per `(floorplan geometry × grid × image orders)` key
//! ([`map_operator_fingerprint`]) and shared read-only across threads;
//! a per-worker [`MapWorkspace`] makes each map render allocation-free.
//! Leakage feedback stays in the existing batched Picard loop:
//! [`SweepEngine::map`](crate::cosim::SweepEngine::map) solves
//! the block-level fixed point on the `MultiVec` GEMM path and renders
//! maps from the converged power vectors.

use crate::thermal::images::depth_series;
use crate::thermal::profile::BlockKernel;
use ptherm_floorplan::{rasterize_stencil, Block, Floorplan};
use ptherm_math::fft::{Fft2, Fft2Scratch};

/// Fingerprint of the map operator a build would produce: the
/// floorplan's grid fingerprint (geometry × tile grid) mixed with the
/// image orders — everything the deterministic build reads. Computable
/// without building, which is what lets the fleet cache decide hit/miss
/// before paying for kernel assembly.
pub fn map_operator_fingerprint(
    floorplan: &Floorplan,
    lateral_order: usize,
    z_order: usize,
    nx: usize,
    ny: usize,
) -> u64 {
    let mut f = ptherm_floorplan::fingerprint::Fingerprinter::new("ptherm.map.v1");
    f.write_u64(floorplan.grid_fingerprint(nx, ny));
    f.write_u64(lateral_order as u64);
    f.write_u64(z_order as u64);
    f.finish()
}

/// The spectrum of one parity kernel — all the production render path
/// needs. The spatial samples are **not** retained: only the
/// direct-convolution oracle reads them, and a fleet cache entry
/// carrying four dead `mx·my` planes would be ~50% larger for nothing,
/// so [`MapOperator::rise_map_direct`] rebuilds them on demand from the
/// stored [`KernelShape`].
#[derive(Debug, Clone)]
struct MapSpectrum {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Everything the deterministic spatial-kernel assembly reads — stored
/// so the direct oracle can rebuild the spatial planes the constructor
/// transformed and dropped (bit-identically: the build is the same
/// code, and it is thread-count-invariant).
#[derive(Debug, Clone)]
struct KernelShape {
    nx: usize,
    ny: usize,
    mx: usize,
    my: usize,
    tile_w: f64,
    tile_l: f64,
    conductivity: f64,
    thickness: f64,
    lateral_order: usize,
    z_order: usize,
}

impl KernelShape {
    /// Builds the four spatial parity kernels — (diff,diff), (sum,diff),
    /// (diff,sum), (sum,sum) — on `threads` workers (the extended table
    /// is row-partitioned; every entry is computed identically on any
    /// worker, so the result is bit-identical from 1 to N threads).
    fn spatial_kernels(&self, threads: usize) -> [Vec<f64>; 4] {
        let &KernelShape {
            nx,
            ny,
            mx,
            my,
            tile_w,
            tile_l,
            lateral_order,
            z_order,
            ..
        } = self;
        // Unit-power kernel of one grid tile: every source on the grid is
        // the same rectangle, which is what collapses Eq. 21 into a
        // convolution.
        let tile = Block::new("tile", 0.0, 0.0, tile_w, tile_l, 1.0);
        let kernel = BlockKernel::for_block(&tile, self.conductivity, 1.0);
        let depth: Vec<(f64, f64)> = depth_series(self.thickness, z_order).collect();

        // Extended table KE[X][Y] = Σ_z w_z · K(X·hx, Y·hy, depth_z): the
        // depth-folded kernel at every non-negative integer displacement
        // any lattice term can reach. The largest argument comes from the
        // sum family at the far lattice edge: σ + 2k·n ≤ (2k+2)·n − 1.
        let ex = (2 * lateral_order + 2) * nx;
        let ey = (2 * lateral_order + 2) * ny;
        let mut ke = vec![0.0; (ex + 1) * (ey + 1)];
        ptherm_par::par_partition_mut(threads, &mut ke, ex + 1, |first_row, rows| {
            for (dy, row) in rows.chunks_mut(ex + 1).enumerate() {
                let y = (first_row + dy) as f64 * tile_l;
                for (dx, entry) in row.iter_mut().enumerate() {
                    let x = dx as f64 * tile_w;
                    let mut rise = 0.0;
                    for &(w, z) in &depth {
                        rise += w * kernel.rise(x, y, z);
                    }
                    *entry = rise;
                }
            }
        });

        // Live torus indices per axis and family. Difference: δ = i − j ∈
        // [−(n−1), n−1] at torus index δ mod m. Sum: σ = i + j + 1 ∈
        // [1, 2n−1] at torus index σ − 1 (never wraps). Every other torus
        // entry only ever multiplies zero-padding or discarded outputs
        // and stays 0.
        let diff_axis = |n: usize, m: usize| -> Vec<(usize, i64)> {
            let mut v: Vec<(usize, i64)> = (0..n as i64).map(|d| (d as usize, d)).collect();
            v.extend((1..n as i64).map(|d| (m - d as usize, -d)));
            v
        };
        let sum_axis = |n: usize| -> Vec<(usize, i64)> {
            (0..=2 * (n as i64) - 2)
                .map(|d| (d as usize, d + 1))
                .collect()
        };
        let (diff_x, sum_x) = (diff_axis(nx, mx), sum_axis(nx));
        let (diff_y, sum_y) = (diff_axis(ny, my), sum_axis(ny));

        let k = lateral_order as i64;
        let lattice = |axis: i64, n: usize, arg: i64| -> usize {
            (arg - 2 * axis * n as i64).unsigned_abs() as usize
        };
        let build = |xs: &[(usize, i64)], ys: &[(usize, i64)]| -> Vec<f64> {
            let mut spatial = vec![0.0; mx * my];
            for &(dy, ay) in ys {
                for &(dx, ax) in xs {
                    let mut rise = 0.0;
                    for m in -k..=k {
                        let x = lattice(m, nx, ax);
                        for n in -k..=k {
                            let y = lattice(n, ny, ay);
                            rise += ke[x + (ex + 1) * y];
                        }
                    }
                    spatial[dx + mx * dy] = rise;
                }
            }
            spatial
        };
        [
            build(&diff_x, &diff_y),
            build(&sum_x, &diff_y),
            build(&diff_x, &sum_y),
            build(&sum_x, &sum_y),
        ]
    }
}

/// Precomputed, immutable spatial thermal operator of one floorplan on
/// an `nx × ny` tile grid.
///
/// Shareable across threads (`&MapOperator` is `Send + Sync`); the
/// sweep engine builds one and fans scenario map renders over it, each
/// worker bringing its own [`MapWorkspace`].
///
/// # Example
///
/// ```
/// use ptherm_core::thermal::map::{MapOperator, MapWorkspace};
/// use ptherm_floorplan::Floorplan;
///
/// let fp = Floorplan::paper_three_blocks();
/// let op = MapOperator::new(&fp, 32, 32);
/// let mut ws = MapWorkspace::new();
/// let mut map = vec![0.0; op.tiles()];
/// op.temperature_map_into(&[0.35, 0.30, 0.25], 300.0, &mut ws, &mut map);
/// // Every tile sits above the sink and below the melting point.
/// assert!(map.iter().all(|&t| t > 300.0 && t < 400.0));
/// ```
#[derive(Debug, Clone)]
pub struct MapOperator {
    /// Grid and torus dimensions, tile pitch, physics constants and
    /// image orders — everything the kernel assembly reads. The torus
    /// is `next_power_of_two(2·n)` per axis, large enough that neither
    /// the difference (`|δ| ≤ n−1`) nor the sum (`σ ≤ 2n−1`) index
    /// family wraps onto live power cells.
    shape: KernelShape,
    sink_temperature: f64,
    fingerprint: u64,
    /// Per-block rasterization stencils (tile index, power fraction).
    stencils: Vec<Vec<(u32, f64)>>,
    /// Parity-kernel spectra in the order (diff,diff), (sum,diff),
    /// (diff,sum), (sum,sum).
    spectra: [MapSpectrum; 4],
    fft: Fft2,
}

impl MapOperator {
    /// Builds the operator with the workspace accuracy defaults (lateral
    /// image order 2, depth series order 9) — matching
    /// [`ThermalOperator::new`](crate::cosim::ThermalOperator::new).
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn new(floorplan: &Floorplan, nx: usize, ny: usize) -> Self {
        Self::with_image_orders(floorplan, nx, ny, 2, 9)
    }

    /// Builds the operator with an explicit image configuration on one
    /// worker per available CPU. Block powers recorded in `floorplan`
    /// are ignored: the operator is per-watt and applies to any power
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn with_image_orders(
        floorplan: &Floorplan,
        nx: usize,
        ny: usize,
        lateral_order: usize,
        z_order: usize,
    ) -> Self {
        Self::with_image_orders_threaded(
            floorplan,
            nx,
            ny,
            lateral_order,
            z_order,
            ptherm_par::default_threads(),
        )
    }

    /// [`Self::with_image_orders`] with an explicit worker count.
    ///
    /// Only the extended kernel table is threaded (row-partitioned, each
    /// entry computed identically on any worker), so the build is
    /// bit-identical from 1 to N threads — the same contract as the
    /// dense operator's threaded build.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn with_image_orders_threaded(
        floorplan: &Floorplan,
        nx: usize,
        ny: usize,
        lateral_order: usize,
        z_order: usize,
        threads: usize,
    ) -> Self {
        assert!(nx > 0 && ny > 0, "map grid dimensions must be positive");
        let g = floorplan.geometry();
        let shape = KernelShape {
            nx,
            ny,
            mx: (2 * nx).next_power_of_two(),
            my: (2 * ny).next_power_of_two(),
            tile_w: g.width / nx as f64,
            tile_l: g.length / ny as f64,
            conductivity: g.conductivity,
            thickness: g.thickness,
            lateral_order,
            z_order,
        };
        let fingerprint = map_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny);

        let stencils = floorplan
            .blocks()
            .iter()
            .map(|b| {
                rasterize_stencil(nx, ny, g.width, g.length, b)
                    .into_iter()
                    .map(|(cell, fraction)| (cell as u32, fraction))
                    .collect()
            })
            .collect();

        // Assemble the spatial kernels, keep only their spectra (the
        // render path is frequency-domain; the oracle rebuilds spatial
        // planes on demand).
        let fft = Fft2::new(shape.mx, shape.my);
        let mut scratch = Fft2Scratch::new();
        let plane = shape.mx * shape.my;
        let spectra = shape.spatial_kernels(threads).map(|spatial| {
            let mut re = vec![0.0; plane];
            let mut im = vec![0.0; plane];
            fft.forward_real(&spatial, &mut re, &mut im, &mut scratch);
            MapSpectrum { re, im }
        });

        MapOperator {
            shape,
            sink_temperature: g.sink_temperature,
            fingerprint,
            stencils,
            spectra,
            fft,
        }
    }

    /// Stable content fingerprint (see [`map_operator_fingerprint`]):
    /// equal fingerprints imply bit-identical kernels and stencils, the
    /// contract the fleet cache relies on.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Grid width in tiles.
    pub fn nx(&self) -> usize {
        self.shape.nx
    }

    /// Grid height in tiles.
    pub fn ny(&self) -> usize {
        self.shape.ny
    }

    /// Number of tiles (`nx · ny`), the length of every map slice.
    pub fn tiles(&self) -> usize {
        self.shape.nx * self.shape.ny
    }

    /// Number of floorplan blocks the operator rasterizes.
    pub fn blocks(&self) -> usize {
        self.stencils.len()
    }

    /// Sink temperature the source floorplan declared, K.
    pub fn sink_temperature(&self) -> f64 {
        self.sink_temperature
    }

    /// Lateral image order the kernels were built with.
    pub fn lateral_order(&self) -> usize {
        self.shape.lateral_order
    }

    /// Depth-series order the kernels were built with.
    pub fn z_order(&self) -> usize {
        self.shape.z_order
    }

    /// Centre of tile `(ix, iy)` in die coordinates, m.
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of range.
    pub fn tile_center(&self, ix: usize, iy: usize) -> (f64, f64) {
        assert!(
            ix < self.shape.nx && iy < self.shape.ny,
            "tile out of range"
        );
        (
            (ix as f64 + 0.5) * self.shape.tile_w,
            (iy as f64 + 0.5) * self.shape.tile_l,
        )
    }

    /// Row-major index of the tile containing the die point `(x, y)`
    /// (clamped to the grid, so boundary points land in edge tiles).
    pub fn tile_of(&self, x: f64, y: f64) -> usize {
        let ix = ((x / self.shape.tile_w) as usize).min(self.shape.nx - 1);
        let iy = ((y / self.shape.tile_l) as usize).min(self.shape.ny - 1);
        ix + self.shape.nx * iy
    }

    /// The precomputed area-overlap stencil of block `i` as
    /// `(tile index, power fraction)` pairs — the starting point the
    /// spectral engine's CG refinement improves on.
    pub(crate) fn stencil_of(&self, block: usize) -> &[(u32, f64)] {
        &self.stencils[block]
    }

    /// Torus dimensions `(mx, my)` the parity kernels live on — the
    /// indexing contract of [`Self::spatial_kernels`] (see
    /// [`Self::rise_map_direct`] for the four-term lookup).
    pub(crate) fn torus(&self) -> (usize, usize) {
        (self.shape.mx, self.shape.my)
    }

    /// Tile pitch `(tile_w, tile_l)` in metres.
    pub(crate) fn tile_pitch(&self) -> (f64, f64) {
        (self.shape.tile_w, self.shape.tile_l)
    }

    /// Rebuilds the four spatial parity kernels — (diff,diff),
    /// (sum,diff), (diff,sum), (sum,sum) — bit-identically to the
    /// construction-time assembly (the operator itself retains only
    /// their spectra). Used by the direct oracle and by the spectral
    /// engine's stencil-refinement stage.
    pub(crate) fn spatial_kernels(&self, threads: usize) -> [Vec<f64>; 4] {
        self.shape.spatial_kernels(threads)
    }

    /// Rasterizes a per-block power vector onto the tile grid (W per
    /// tile, power-conserving) through the precomputed stencils.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` is not of length [`Self::blocks`] or
    /// `out` is not of length [`Self::tiles`].
    pub fn rasterize_into(&self, block_powers: &[f64], out: &mut [f64]) {
        assert_eq!(block_powers.len(), self.blocks(), "power length mismatch");
        assert_eq!(out.len(), self.tiles(), "map length mismatch");
        out.fill(0.0);
        for (stencil, &p) in self.stencils.iter().zip(block_powers) {
            for &(cell, fraction) in stencil {
                out[cell as usize] += p * fraction;
            }
        }
    }

    /// Temperature-rise map above the sink for one block power vector,
    /// written into `out` (row-major `nx × ny`, K) with zero allocation
    /// once `ws` is warm. This is the FFT path: rasterize, transform,
    /// four mirrored spectral products, transform back.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` is not of length [`Self::blocks`] or
    /// `out` is not of length [`Self::tiles`].
    pub fn rise_map_into(&self, block_powers: &[f64], ws: &mut MapWorkspace, out: &mut [f64]) {
        let (nx, ny) = (self.shape.nx, self.shape.ny);
        let mut tile_powers = std::mem::take(&mut ws.tile_powers);
        tile_powers.clear();
        tile_powers.resize(nx * ny, 0.0);
        self.rasterize_into(block_powers, &mut tile_powers);
        self.rise_from_tiles_into(&tile_powers, ws, out);
        ws.tile_powers = tile_powers;
    }

    /// The FFT apply from an already-rasterized tile power grid (W per
    /// tile, row-major `nx × ny`): transform, four mirrored spectral
    /// products, transform back. [`Self::rise_map_into`] is this plus
    /// the stencil scatter; the spectral Picard engine
    /// ([`crate::cosim::SpectralOperator`]) scatters through its own
    /// (possibly CG-refined) stencils and enters here.
    pub(crate) fn rise_from_tiles_into(
        &self,
        tile_powers: &[f64],
        ws: &mut MapWorkspace,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), self.tiles(), "map length mismatch");
        assert_eq!(
            tile_powers.len(),
            self.tiles(),
            "tile power length mismatch"
        );
        let (nx, ny, mx, my) = (self.shape.nx, self.shape.ny, self.shape.mx, self.shape.my);

        // Zero-padded power grid on the torus.
        let plane = mx * my;
        ws.re.clear();
        ws.re.resize(plane, 0.0);
        ws.im.clear();
        ws.im.resize(plane, 0.0);
        for iy in 0..ny {
            ws.re[iy * mx..iy * mx + nx].copy_from_slice(&tile_powers[iy * nx..(iy + 1) * nx]);
        }
        self.fft.forward(&mut ws.re, &mut ws.im, &mut ws.scratch);

        // Accumulate the four parity products. The sum families convolve
        // the index-reversed power map; for a spectrum that is just the
        // same panel read at mirrored frequencies, so one forward
        // transform serves all four terms.
        ws.acc_re.clear();
        ws.acc_re.resize(plane, 0.0);
        ws.acc_im.clear();
        ws.acc_im.resize(plane, 0.0);
        let [dd, sd, ds, ss] = &self.spectra;
        for ky in 0..my {
            let kyr = (my - ky) % my;
            for kx in 0..mx {
                let kxr = (mx - kx) % mx;
                let i = kx + mx * ky;
                let i_rx = kxr + mx * ky;
                let i_ry = kx + mx * kyr;
                let i_rxy = kxr + mx * kyr;
                let mut ar = dd.re[i] * ws.re[i] - dd.im[i] * ws.im[i];
                let mut ai = dd.re[i] * ws.im[i] + dd.im[i] * ws.re[i];
                ar += sd.re[i] * ws.re[i_rx] - sd.im[i] * ws.im[i_rx];
                ai += sd.re[i] * ws.im[i_rx] + sd.im[i] * ws.re[i_rx];
                ar += ds.re[i] * ws.re[i_ry] - ds.im[i] * ws.im[i_ry];
                ai += ds.re[i] * ws.im[i_ry] + ds.im[i] * ws.re[i_ry];
                ar += ss.re[i] * ws.re[i_rxy] - ss.im[i] * ws.im[i_rxy];
                ai += ss.re[i] * ws.im[i_rxy] + ss.im[i] * ws.re[i_rxy];
                ws.acc_re[i] = ar;
                ws.acc_im[i] = ai;
            }
        }
        self.fft
            .inverse(&mut ws.acc_re, &mut ws.acc_im, &mut ws.scratch);
        for iy in 0..ny {
            out[iy * nx..(iy + 1) * nx].copy_from_slice(&ws.acc_re[iy * mx..iy * mx + nx]);
        }
    }

    /// Absolute temperature map above `sink_k`, written into `out`.
    ///
    /// # Panics
    ///
    /// See [`Self::rise_map_into`].
    pub fn temperature_map_into(
        &self,
        block_powers: &[f64],
        sink_k: f64,
        ws: &mut MapWorkspace,
        out: &mut [f64],
    ) {
        self.rise_map_into(block_powers, ws, out);
        for t in out.iter_mut() {
            *t += sink_k;
        }
    }

    /// The `O(N²)` direct-convolution oracle: the same rasterization and
    /// the same four spatial kernels summed tile by tile, no transform.
    /// The `map` bench measures the FFT path against this, and the
    /// cross-validation tests hold the two to ≤ 1e-9 K.
    ///
    /// The spatial kernel planes are **rebuilt on each call** (the
    /// operator retains only their spectra, so fleet cache entries do
    /// not carry planes the production path never reads); the rebuild
    /// is bit-identical to the construction-time assembly. This path is
    /// a validation/bench oracle, not a serving path.
    ///
    /// # Panics
    ///
    /// See [`Self::rise_map_into`].
    pub fn rise_map_direct(&self, block_powers: &[f64], ws: &mut MapWorkspace, out: &mut [f64]) {
        assert_eq!(out.len(), self.tiles(), "map length mismatch");
        let (nx, ny, mx, my) = (self.shape.nx, self.shape.ny, self.shape.mx, self.shape.my);
        ws.tile_powers.clear();
        ws.tile_powers.resize(nx * ny, 0.0);
        self.rasterize_into(block_powers, &mut ws.tile_powers);
        let [dd, sd, ds, ss] = &self.shape.spatial_kernels(1);
        for iy in 0..ny {
            for ix in 0..nx {
                let mut rise = 0.0;
                for jy in 0..ny {
                    let ddy = (iy + my - jy) % my;
                    let sdy = iy + jy;
                    for jx in 0..nx {
                        let p = ws.tile_powers[jx + nx * jy];
                        if p == 0.0 {
                            continue;
                        }
                        let ddx = (ix + mx - jx) % mx;
                        let sdx = ix + jx;
                        rise += p
                            * (dd[ddx + mx * ddy]
                                + sd[sdx + mx * ddy]
                                + ds[ddx + mx * sdy]
                                + ss[sdx + mx * sdy]);
                    }
                }
                out[ix + nx * iy] = rise;
            }
        }
    }
}

/// Reusable per-worker scratch for map renders: the rasterized power
/// grid, the split-complex FFT panels and the column scratch. Buffers
/// size themselves on first use and are reused afterwards, so steady
/// map rendering performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct MapWorkspace {
    tile_powers: Vec<f64>,
    re: Vec<f64>,
    im: Vec<f64>,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
    scratch: Fft2Scratch,
}

impl MapWorkspace {
    /// An empty workspace; buffers size themselves on first render.
    pub fn new() -> Self {
        MapWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::ThermalOperator;
    use ptherm_floorplan::ChipGeometry;

    /// A floorplan whose blocks ARE the tiles of an `nx × ny` grid
    /// ([`ptherm_floorplan::generator::tile_aligned`]), with
    /// deterministic non-uniform powers — the configuration on which
    /// the map must reproduce the dense operator exactly.
    fn tile_aligned_floorplan(nx: usize, ny: usize) -> Floorplan {
        ptherm_floorplan::generator::tile_aligned(ChipGeometry::paper_1mm(), nx, ny, |i| {
            0.002 + 0.001 * ((i * 7) % 13) as f64
        })
        .expect("aligned tiling is valid")
    }

    fn powers(fp: &Floorplan) -> Vec<f64> {
        fp.blocks().iter().map(|b| b.power).collect()
    }

    #[test]
    fn fft_matches_the_direct_convolution_oracle() {
        // Non-aligned blocks, non-square non-power-of-two grid: the FFT
        // evaluation must agree with the direct sum of the same kernels.
        let fp = Floorplan::paper_three_blocks();
        let op = MapOperator::with_image_orders(&fp, 24, 20, 2, 9);
        let mut ws = MapWorkspace::new();
        let p = powers(&fp);
        let mut fft = vec![0.0; op.tiles()];
        let mut direct = vec![0.0; op.tiles()];
        op.rise_map_into(&p, &mut ws, &mut fft);
        op.rise_map_direct(&p, &mut ws, &mut direct);
        let gap = fft
            .iter()
            .zip(&direct)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(gap <= 1e-9, "max |ΔT| = {gap:e} K");
        // And the field is physically sensible: all rises positive.
        assert!(direct.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn map_matches_the_dense_operator_on_a_coincident_grid() {
        // Blocks coincide with tiles, so both paths evaluate the same
        // truncated image sum — agreement is pure rounding, far inside
        // the 1e-6 K acceptance bar.
        for (nx, ny) in [(4, 4), (6, 5)] {
            let fp = tile_aligned_floorplan(nx, ny);
            let p = powers(&fp);
            let map_op = MapOperator::with_image_orders(&fp, nx, ny, 2, 9);
            let dense = ThermalOperator::with_image_orders(&fp, 2, 9);
            let mut ws = MapWorkspace::new();
            let mut map = vec![0.0; map_op.tiles()];
            map_op.temperature_map_into(&p, 300.0, &mut ws, &mut map);
            let mut dense_t = vec![0.0; p.len()];
            dense.temperatures_with_sink_into(&p, 300.0, &mut dense_t);
            for (b, (block, &t_dense)) in fp.blocks().iter().zip(&dense_t).enumerate() {
                let tile = map_op.tile_of(block.cx, block.cy);
                let gap = (map[tile] - t_dense).abs();
                assert!(
                    gap <= 1e-6,
                    "{nx}x{ny} block {b}: map {} vs dense {t_dense} (gap {gap:e})",
                    map[tile]
                );
            }
        }
    }

    #[test]
    fn map_is_linear_in_power() {
        let fp = Floorplan::paper_three_blocks();
        let op = MapOperator::new(&fp, 16, 16);
        let mut ws = MapWorkspace::new();
        let mut r1 = vec![0.0; op.tiles()];
        let mut r2 = vec![0.0; op.tiles()];
        op.rise_map_into(&[0.1, 0.2, 0.3], &mut ws, &mut r1);
        op.rise_map_into(&[0.2, 0.4, 0.6], &mut ws, &mut r2);
        for (a, b) in r1.iter().zip(&r2) {
            assert!((b - 2.0 * a).abs() < 1e-10 * b.abs().max(1.0));
        }
    }

    #[test]
    fn zero_power_map_sits_at_the_sink() {
        let fp = Floorplan::paper_three_blocks();
        let op = MapOperator::new(&fp, 8, 8);
        let mut ws = MapWorkspace::new();
        let mut map = vec![1.0; op.tiles()];
        op.temperature_map_into(&[0.0; 3], 310.0, &mut ws, &mut map);
        // All-zero powers transform to exact zeros: bitwise 310.0.
        assert!(map.iter().all(|&t| t == 310.0));
    }

    #[test]
    fn hotspot_agrees_with_the_pointwise_model() {
        // The map's hottest tile must be the hottest tile of the
        // pointwise Eq. 21 model sampled on the same grid (it lands on
        // block B, the highest power-density block, not the highest
        // power one — the kind of call a block-level view gets wrong).
        let fp = Floorplan::paper_three_blocks();
        let n = 32;
        let op = MapOperator::new(&fp, n, n);
        let mut ws = MapWorkspace::new();
        let mut map = vec![0.0; op.tiles()];
        op.temperature_map_into(&powers(&fp), 300.0, &mut ws, &mut map);
        let argmax = |values: &[f64]| {
            values
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap()
        };
        let hottest = argmax(&map);
        let pointwise = crate::thermal::ThermalModel::new(&fp).surface_grid(n, n);
        // The peak tile must sit on block B — the highest power-density
        // block, which a fine map resolves where a block-power ranking
        // would not.
        let b = &fp.blocks()[1];
        let center = op.tile_center(hottest % n, hottest / n);
        assert!(
            (center.0 - b.cx).abs() <= b.w / 2.0 && (center.1 - b.cy).abs() <= b.l / 2.0,
            "peak at {center:?} is off block B ({}, {})",
            b.cx,
            b.cy
        );
        // Peak rise agrees with the pointwise Eq. 21 model to a few
        // percent (tile-superposed sources integrate the rectangle more
        // finely than Eq. 20's min() form, so exact equality is not
        // expected).
        let map_peak = map[hottest] - 300.0;
        let pw_peak = pointwise[argmax(&pointwise)] - 300.0;
        let rel = (map_peak - pw_peak).abs() / pw_peak;
        assert!(rel < 0.05, "peak rise {map_peak} vs pointwise {pw_peak}");
    }

    #[test]
    fn mirror_asymmetry_is_truncation_scale_and_converges_away() {
        // A centred block is physically mirror-symmetric, but the
        // truncated image lattice (anchored at m = 0, exactly like the
        // dense operator's) is not — the residual asymmetry is the
        // truncation tail, and it must shrink as the lateral order grows.
        let g = ChipGeometry::paper_1mm();
        let fp = Floorplan::new(
            g,
            vec![Block::new("c", 0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 0.5)],
        )
        .unwrap();
        let n = 12;
        let mut ws = MapWorkspace::new();
        let mut max_asym = |order: usize| -> (f64, f64) {
            let op = MapOperator::with_image_orders(&fp, n, n, order, 9);
            let mut map = vec![0.0; op.tiles()];
            op.rise_map_into(&[0.5], &mut ws, &mut map);
            let mut asym = 0.0f64;
            let mut peak = 0.0f64;
            for iy in 0..n {
                for ix in 0..n {
                    let here = map[ix + n * iy];
                    asym = asym.max((here - map[(n - 1 - ix) + n * iy]).abs());
                    asym = asym.max((here - map[ix + n * (n - 1 - iy)]).abs());
                    peak = peak.max(here);
                }
            }
            (asym, peak)
        };
        let (a1, peak) = max_asym(1);
        let (a4, _) = max_asym(4);
        assert!(a4 < a1, "order 4 asymmetry {a4:e} vs order 1 {a1:e}");
        assert!(a4 < 5e-3 * peak, "order 4 asymmetry {a4:e}, peak {peak:e}");
    }

    #[test]
    fn rasterization_conserves_power() {
        let fp = Floorplan::paper_three_blocks();
        let op = MapOperator::new(&fp, 10, 14);
        let p = [0.35, 0.30, 0.25];
        let mut tiles = vec![0.0; op.tiles()];
        op.rasterize_into(&p, &mut tiles);
        let total: f64 = tiles.iter().sum();
        assert!((total - 0.9).abs() < 1e-12);
        // And matches the floorplan's own power map bit for bit (same
        // stencils, same application order).
        assert_eq!(tiles, fp.power_map(10, 14));
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        let fp = Floorplan::paper_three_blocks();
        let serial = MapOperator::with_image_orders_threaded(&fp, 16, 12, 2, 5, 1);
        for threads in [2, 4, 8] {
            let parallel = MapOperator::with_image_orders_threaded(&fp, 16, 12, 2, 5, threads);
            for (a, b) in serial.spectra.iter().zip(&parallel.spectra) {
                assert_eq!(a.re, b.re, "threads = {threads}");
                assert_eq!(a.im, b.im, "threads = {threads}");
            }
            let spatial_serial = serial.shape.spatial_kernels(1);
            let spatial_parallel = parallel.shape.spatial_kernels(threads);
            assert_eq!(spatial_serial, spatial_parallel, "threads = {threads}");
        }
    }

    #[test]
    fn fingerprint_keys_geometry_grid_and_orders_not_powers() {
        let fp = Floorplan::paper_three_blocks();
        let mut repowered = fp.clone();
        repowered.set_power(0, 42.0);
        assert_eq!(
            MapOperator::new(&fp, 8, 8).fingerprint(),
            MapOperator::new(&repowered, 8, 8).fingerprint()
        );
        // Grid dims, image orders and geometry are all part of the key.
        assert_ne!(
            map_operator_fingerprint(&fp, 2, 9, 8, 8),
            map_operator_fingerprint(&fp, 2, 9, 8, 16)
        );
        assert_ne!(
            map_operator_fingerprint(&fp, 2, 9, 8, 8),
            map_operator_fingerprint(&fp, 1, 9, 8, 8)
        );
        assert_eq!(
            map_operator_fingerprint(&fp, 2, 9, 8, 8),
            MapOperator::new(&fp, 8, 8).fingerprint()
        );
    }

    #[test]
    fn empty_floorplan_maps_to_the_sink_everywhere() {
        let fp = Floorplan::new(ChipGeometry::paper_1mm(), Vec::new()).unwrap();
        let op = MapOperator::new(&fp, 8, 8);
        assert_eq!(op.blocks(), 0);
        let mut ws = MapWorkspace::new();
        let mut map = vec![0.0; op.tiles()];
        op.temperature_map_into(&[], 300.0, &mut ws, &mut map);
        assert!(map.iter().all(|&t| t == 300.0));
    }

    #[test]
    fn higher_lateral_order_warms_the_interior() {
        // More reflected images return more heat: order 2 must sit above
        // order 0 everywhere in the interior (same depth treatment).
        let fp = Floorplan::paper_three_blocks();
        let p = powers(&fp);
        let lo = MapOperator::with_image_orders(&fp, 12, 12, 0, 1);
        let hi = MapOperator::with_image_orders(&fp, 12, 12, 2, 1);
        let mut ws = MapWorkspace::new();
        let mut a = vec![0.0; lo.tiles()];
        let mut b = vec![0.0; hi.tiles()];
        lo.rise_map_into(&p, &mut ws, &mut a);
        hi.rise_map_into(&p, &mut ws, &mut b);
        assert!(a.iter().zip(&b).all(|(l, h)| h > l));
    }

    #[test]
    #[should_panic(expected = "map grid dimensions must be positive")]
    fn zero_grid_is_rejected() {
        let _ = MapOperator::new(&Floorplan::paper_three_blocks(), 0, 8);
    }
}
