//! Criterion bench: end-to-end wall-clock of the parallel matmul
//! algorithms on the simulated machine (includes thread spawn/join — the
//! simulator's own overhead is benchmarked in `simnet`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmm_algs::{
    alg1_a, alg1_streamed_a, cannon_a, carma_a, carma_shares, summa_a, Alg1Config, Assembly,
    CannonConfig, SummaConfig,
};
use pmm_core::gridopt::best_grid;
use pmm_dense::{random_matrix, Kernel, Matrix};
use pmm_model::MatMulDims;
use pmm_simnet::{MachineParams, World};
use std::hint::black_box;

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_matrix(dims.n1 as usize, dims.n2 as usize, 11),
        random_matrix(dims.n2 as usize, dims.n3 as usize, 12),
    )
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_matmul");
    group.sample_size(10);
    let dims = MatMulDims::new(256, 128, 128);
    let p = 16usize;

    group.bench_function(BenchmarkId::new("alg1_opt_grid", p), |bench| {
        let cfg = Alg1Config::new(dims, best_grid(dims, p).grid3());
        bench.iter(|| {
            let cfg = cfg.clone();
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                black_box(alg1_a(rank, &cfg, &a, &b).await);
            })
        })
    });

    group.bench_function(BenchmarkId::new("alg1_alltoall_assembly", p), |bench| {
        let mut cfg = Alg1Config::new(dims, best_grid(dims, p).grid3());
        cfg.assembly = Assembly::AllToAllSum;
        bench.iter(|| {
            let cfg = cfg.clone();
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                black_box(alg1_a(rank, &cfg, &a, &b).await);
            })
        })
    });

    group.bench_function(BenchmarkId::new("alg1_streamed_t4", p), |bench| {
        let grid = best_grid(dims, p).grid3();
        bench.iter(|| {
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                black_box(alg1_streamed_a(rank, dims, grid, 4, Kernel::Tiled, &a, &b).await);
            })
        })
    });

    group.bench_function(BenchmarkId::new("cannon", p), |bench| {
        let cfg = CannonConfig { dims, q: 4, kernel: Kernel::Tiled };
        bench.iter(|| {
            let cfg = cfg.clone();
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                black_box(cannon_a(rank, &cfg, &a, &b).await);
            })
        })
    });

    group.bench_function(BenchmarkId::new("summa", p), |bench| {
        let cfg = SummaConfig { dims, pr: 4, pc: 4, kernel: Kernel::Tiled };
        bench.iter(|| {
            let cfg = cfg.clone();
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                black_box(summa_a(rank, &cfg, &a, &b).await);
            })
        })
    });

    group.bench_function(BenchmarkId::new("carma", p), |bench| {
        bench.iter(|| {
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let (a, b) = inputs(dims);
                let (sa, sb) = carma_shares(p, rank.world_rank(), &a, &b);
                let comm = rank.world_comm();
                black_box(carma_a(rank, &comm, dims, Kernel::Tiled, sa, sb).await);
            })
        })
    });

    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
