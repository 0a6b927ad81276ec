//! Kernel throughput at a workload's shapes, against this machine's
//! measured multiply–add peak.
//!
//! Flop counts are computed from the shapes, not counted by hardware:
//! `2·n²·lanes` per `Matrix::mul_into` of an `n×n` operator over
//! `lanes` columns, and `5·N·log2 N` per complex 2-D FFT of `N`
//! points (the inverse's `1/N` scaling pass is not counted). Each time is the median of repeated batches.

use crate::stats::median;
use crate::trace::Recorder;
use ptherm_math::fft::{Fft2, Fft2Scratch};
use ptherm_math::{expv, Matrix, MultiVec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measured kernel figures.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Multiply–add loop peak, GFLOP/s.
    pub peak_gflops: f64,
    /// `Matrix::mul_into`, GFLOP/s (computed flops).
    pub gemm_gflops: f64,
    /// `expv::exp_into`, ns per element.
    pub expv_ns_per_elem: f64,
    /// `Fft2::forward`, GFLOP/s (computed flops).
    pub fft_gflops: f64,
}

/// Time per call of `f`: the median over `batches` batches, each
/// repeating `f` until it has run for at least `per_batch`.
fn time_per_call(
    rec: &mut Recorder,
    name: &'static str,
    per_batch: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let mut per_call = Vec::new();
    for _ in 0..7 {
        let span = rec.begin(name, None);
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < per_batch {
            f();
            calls += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        rec.end(span);
        per_call.push(secs / calls as f64);
    }
    median(&per_call).unwrap_or(f64::NAN)
}

/// Independent multiply–add chains: enough accumulators to fill the
/// vector units. Built for the baseline target, the compiler emits
/// SSE2 multiplies and adds (no FMA instructions without `unsafe`
/// feature dispatch, which the benchmark does not use), so this is the
/// peak of portable code; the GEMM kernels dispatch to AVX2/AVX-512 at
/// run time and may exceed it.
fn multiply_add_loop(iters: usize) -> f64 {
    const ACC: usize = 32;
    let mut acc = [1.0f64; ACC];
    let m = black_box(0.999_999_9);
    let a = black_box(1e-7);
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + a;
        }
    }
    black_box(acc.iter().sum())
}

/// Measures every kernel at the given shapes: an `n×n` GEMM over
/// `lanes` columns, `exp` over `n·lanes` elements, and a `side×side`
/// 2-D FFT.
pub fn measure(rec: &mut Recorder, n: usize, lanes: usize, side: usize) -> Kernels {
    let batch = Duration::from_millis(15);

    const ITERS: usize = 4096;
    let t = time_per_call(rec, "kernel.multiply_add", batch, || {
        black_box(multiply_add_loop(ITERS));
    });
    let peak_gflops = (2 * 32 * ITERS) as f64 / t / 1e9;

    let mut a = Matrix::zeros(n, n);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        *v = 1.0 / (1.0 + i as f64);
    }
    let mut x = MultiVec::zeros(n, lanes);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = 300.0 + (i % 7) as f64;
    }
    let mut y = MultiVec::zeros(n, lanes);
    let t = time_per_call(rec, "kernel.gemm", batch, || {
        a.mul_into(black_box(&x), &mut y);
        black_box(&y);
    });
    let gemm_gflops = (2 * n * n * lanes) as f64 / t / 1e9;

    let len = n * lanes;
    let input: Vec<f64> = (0..len)
        .map(|i| -3.0 + 6.0 * i as f64 / len as f64)
        .collect();
    let mut out = vec![0.0; len];
    let t = time_per_call(rec, "kernel.expv", batch, || {
        expv::exp_into(black_box(&input), &mut out);
        black_box(&out);
    });
    let expv_ns_per_elem = t * 1e9 / len as f64;

    let fft = Fft2::new(side, side);
    let mut scratch = Fft2Scratch::new();
    let points = side * side;
    let mut re: Vec<f64> = (0..points).map(|i| (i % 13) as f64).collect();
    let mut im = vec![0.0; points];
    // A forward and an inverse per call keep the data bounded.
    let t = time_per_call(rec, "kernel.fft", batch, || {
        fft.forward(&mut re, &mut im, &mut scratch);
        fft.inverse(&mut re, &mut im, &mut scratch);
        black_box(&re);
    });
    let fft_gflops = 2.0 * 5.0 * points as f64 * (points as f64).log2() / t / 1e9;

    Kernels {
        peak_gflops,
        gemm_gflops,
        expv_ns_per_elem,
        fft_gflops,
    }
}
