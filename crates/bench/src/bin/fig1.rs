//! **E5 — Figure 1**: Algorithm 1 on a 3×3×3 grid, from the point of view
//! of one processor — the paper highlights processor `(1,3,1)` (0-based:
//! `(0,2,0)`).
//!
//! Reproduces the figure's content quantitatively: the input data the
//! processor owns initially, the output data it owns finally, the data it
//! gathers from others (the light shading), and the three fibers along
//! which its collectives run (the arrows). All quantities are *measured*
//! from a traced simulator run.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin fig1
//! ```

use std::collections::BTreeSet;

use pmm_algs::{alg1_a, Alg1Config};
use pmm_bench::{print_table, Checks};
use pmm_dense::random_int_matrix;
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{MachineParams, TraceOp, World};

fn main() {
    // n1 = n2 = n3 as in the figure; 18 keeps every block and chunk even.
    let n = 18u64;
    let dims = MatMulDims::square(n);
    let grid = Grid3::new(3, 3, 3);
    let hero = grid.rank_of([0, 2, 0]); // the paper's processor (1,3,1)

    println!("Figure 1: Algorithm 1 on a 3x3x3 grid, n1 = n2 = n3 = {n}");
    println!("hero processor: (1,3,1) in the paper's 1-based coords = rank {hero}\n");

    let cfg = Alg1Config::new(dims, grid);
    let nn = n as usize;
    let out =
        World::new(27, MachineParams::BANDWIDTH_ONLY).with_trace(true).run(async move |rank| {
            let a = random_int_matrix(nn, nn, -2..3, 31);
            let b = random_int_matrix(nn, nn, -2..3, 32);
            alg1_a(rank, &cfg, &a, &b).await
        });

    let mut checks = Checks::new();

    // ---- owned vs gathered data sizes (dark vs light shading) -------------
    let block = n / 3 * n / 3; // 6x6 = 36 words per face block
    let chunk = block / 3; // spread over the 3-processor fiber
    let hero_out = &out.values[hero];
    let phases = &hero_out.phases;
    let mut rows = Vec::new();
    for (matrix, ph, comm_words) in [
        ("A (block A_13)", &phases[0], phases[0].meter.words_recv),
        ("B (block B_31)", &phases[1], phases[1].meter.words_recv),
        ("C (block C_11)", &phases[2], phases[2].meter.words_recv),
    ] {
        let _ = ph;
        rows.push(vec![
            matrix.to_string(),
            block.to_string(),
            chunk.to_string(),
            comm_words.to_string(),
        ]);
    }
    print_table(
        &["matrix", "block words (light+dark)", "owned words (dark)", "received (light)"],
        &rows,
    );

    // The processor receives exactly block − chunk words of A and B, and
    // (for C) the partial sums for its chunk from the two fiber peers ⇒
    // 2·chunk words received in the reduce-scatter.
    checks.check("A received == block − owned", phases[0].meter.words_recv == block - chunk);
    checks.check("B received == block − owned", phases[1].meter.words_recv == block - chunk);
    checks.check("C received == (1 − 1/p2)·block", phases[2].meter.words_recv == block - chunk);

    // ---- the three fibers (the arrows of the figure) -----------------------
    println!("\ncollective fibers through (1,3,1):");
    let coord = grid.coord_of(hero);
    let mut rows = Vec::new();
    for (axis, label) in [
        (2usize, "All-Gather A over (1,3,:)"),
        (0, "All-Gather B over (:,3,1)"),
        (1, "Reduce-Scatter C over (1,:,1)"),
    ] {
        let fiber = grid.fiber(coord, axis);
        let paper_coords: Vec<String> = fiber
            .iter()
            .map(|&r| {
                let c = grid.coord_of(r);
                format!("({},{},{})", c[0] + 1, c[1] + 1, c[2] + 1)
            })
            .collect();
        rows.push(vec![label.to_string(), format!("{}", paper_coords.join(" "))]);
    }
    print_table(&["collective", "processors (1-based, as in the figure)"], &rows);

    // ---- verify from the trace: the hero talked ONLY to its fiber peers ----
    let trace = out.reports[hero].trace.as_ref().expect("trace enabled");
    let mut partners = BTreeSet::new();
    for ev in trace {
        match ev.op {
            TraceOp::Send { to_world } => {
                partners.insert(to_world);
            }
            TraceOp::Recv { from_world } => {
                partners.insert(from_world);
            }
            _ => {}
        }
    }
    let mut fiber_peers = BTreeSet::new();
    for axis in 0..3 {
        for r in grid.fiber(coord, axis) {
            if r != hero {
                fiber_peers.insert(r);
            }
        }
    }
    println!("\ntraced communication partners of rank {hero}: {partners:?}");
    println!("fiber peers per the grid:                    {fiber_peers:?}");
    checks.check("hero communicates exactly with its three fibers", partners == fiber_peers);

    // Every collective involves 3 processors; the hero exchanges with at
    // most 2 peers per collective (recursive doubling is not applicable at
    // p = 3; the ring touches both neighbors).
    checks.check("hero has 6 distinct partners (2 per fiber)", partners.len() == 6);

    checks.finish();
}
