//! Criterion bench: wall-clock of the collective implementations on the
//! simulated machine (spawn + run + join), and the ring-vs-recursive
//! ablation of DESIGN.md §7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmm_collectives::{all_gather_a, reduce_scatter_a, AllGatherAlgo, ReduceScatterAlgo};
use pmm_simnet::{MachineParams, World};
use std::hint::black_box;

fn bench_all_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_gather");
    group.sample_size(20);
    for p in [4usize, 8, 16] {
        for w in [1_000usize, 10_000] {
            group.throughput(Throughput::Elements(((p - 1) * w) as u64));
            for (name, algo) in
                [("ring", AllGatherAlgo::Ring), ("recdbl", AllGatherAlgo::RecursiveDoubling)]
            {
                group.bench_with_input(
                    BenchmarkId::new(name, format!("p{p}_w{w}")),
                    &0,
                    |bench, _| {
                        bench.iter(|| {
                            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                                let comm = rank.world_comm();
                                black_box(all_gather_a(rank, &comm, &vec![1.0; w], algo).await);
                            })
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_scatter");
    group.sample_size(20);
    for p in [4usize, 8, 16] {
        let w = 10_000usize;
        group.throughput(Throughput::Elements(((p - 1) * w) as u64));
        for (name, algo) in
            [("ring", ReduceScatterAlgo::Ring), ("rechalf", ReduceScatterAlgo::RecursiveHalving)]
        {
            group.bench_with_input(BenchmarkId::new(name, p), &p, |bench, _| {
                bench.iter(|| {
                    World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                        let comm = rank.world_comm();
                        black_box(reduce_scatter_a(rank, &comm, &vec![1.0; p * w], algo).await);
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_all_gather, bench_reduce_scatter);
criterion_main!(benches);
