//! Criterion bench: raw simulator overheads — world spawn/join, P2P
//! message round trips, duplex exchanges, communicator splits. These set
//! the noise floor under the algorithm benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmm_simnet::{MachineParams, World};
use std::hint::black_box;

fn bench_world_spawn(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_spawn_join");
    group.sample_size(20);
    for p in [2usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p, MachineParams::BANDWIDTH_ONLY).run(async |rank| rank.world_rank())
            })
        });
    }
    group.finish();
}

fn bench_ping_pong(c: &mut Criterion) {
    let mut group = c.benchmark_group("ping_pong");
    group.sample_size(20);
    for w in [8usize, 1024, 65536] {
        group.throughput(Throughput::Elements(w as u64));
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                World::new(2, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                    let comm = rank.world_comm();
                    for _ in 0..10 {
                        if rank.world_rank() == 0 {
                            rank.send_a(&comm, 1, &vec![1.0; w]).await;
                            black_box(rank.recv_a(&comm, 1).await);
                        } else {
                            let m = rank.recv_a(&comm, 0).await;
                            rank.send_a(&comm, 0, &m.payload).await;
                        }
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_exchange_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_ring");
    group.sample_size(20);
    for p in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                    let comm = rank.world_comm();
                    let me = comm.index();
                    for _ in 0..10 {
                        black_box(
                            rank.exchange_a(&comm, (me + 1) % p, (me + p - 1) % p, &[1.0; 64])
                                .await,
                        );
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_comm_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm_split");
    group.sample_size(20);
    for p in [8usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                    let world = rank.world_comm();
                    let color = (rank.world_rank() % 4) as i64;
                    black_box(rank.split_a(&world, color, rank.world_rank() as i64).await);
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_world_spawn,
    bench_ping_pong,
    bench_exchange_ring,
    bench_comm_split
);
criterion_main!(benches);
