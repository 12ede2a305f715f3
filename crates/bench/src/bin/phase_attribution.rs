//! **E14 — per-phase cost attribution from the structured trace**: run
//! Algorithm 1 with tracing enabled on the §5.3 instance (scaled 12.5×
//! down: 768×192 · 192×48) at one `P` per Theorem 3 regime, and show
//! where the words go.
//!
//! For each regime the harness prints the per-phase breakdown extracted
//! from the event trace — measured words vs the eq. (3) prediction vs
//! that phase's share of the critical path — and checks that:
//!
//! * every phase's measured words equal its eq. (3) term exactly (the
//!   §5.2 optimal grids of this instance divide the dimensions at all
//!   three `P`, so the attribution has no slack);
//! * the phases that eq. (3) says are free really move zero words (the
//!   1D grid touches only `B`; the 2D grid also leaves `A` resident);
//! * the critical path recovered from the trace equals the simulator's
//!   clock, and its total equals the Theorem 3 lower bound.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin phase_attribution
//! ```

use pmm_algs::{alg1_a, Alg1Config};
use pmm_bench::{fnum, print_table, Checks};
use pmm_core::gridopt::best_grid;
use pmm_core::theorem3::lower_bound;
use pmm_dense::random_int_matrix;
use pmm_model::{alg1_prediction, Grid3, MatMulDims};
use pmm_simnet::{MachineParams, World};

fn main() {
    let dims = MatMulDims::new(768, 192, 48);
    println!("per-phase attribution: {dims}, one P per Theorem 3 regime\n");

    let mut checks = Checks::new();
    for p in [3usize, 36, 512] {
        let choice = best_grid(dims, p);
        let grid = choice.grid;
        let g = Grid3::from_dims(grid);
        let case = dims.sorted().classify(p as f64);
        checks.check(format!("P={p}: optimal grid {grid:?} divides"), dims.divisible_by(grid));

        let cfg = Alg1Config::new(dims, g);
        let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
        let out =
            World::new(p, MachineParams::BANDWIDTH_ONLY).with_trace(true).run(async move |rank| {
                let a = random_int_matrix(n1, n2, -2..3, 7);
                let b = random_int_matrix(n2, n3, -2..3, 8);
                alg1_a(rank, &cfg, &a, &b).await
            });
        let tracer = out.tracer().expect("tracing was on");
        let pred = alg1_prediction(dims, grid);
        let expected = [
            ("all-gather A", pred.allgather_a),
            ("all-gather B", pred.allgather_b),
            ("reduce-scatter C", pred.reduce_c),
        ];
        let cp = tracer.critical_path();
        let totals = tracer.phase_totals();

        println!("— case {case}: P = {p}, grid {g} —");
        let rows: Vec<Vec<String>> = expected
            .iter()
            .map(|&(label, want)| {
                let t = totals.iter().find(|t| t.label == label);
                let measured = t.map_or(0, |t| t.max_duplex());
                vec![
                    label.to_string(),
                    fnum(want),
                    measured.to_string(),
                    fnum(cp.phase_cost(label)),
                ]
            })
            .collect();
        print_table(&["phase", "eq.(3)", "measured w/rank", "critical-path share"], &rows);

        let attribution = tracer.attribution(&expected);
        checks.check(format!("P={p}: every phase matches eq. (3) exactly"), attribution.matches());
        for (label, want) in expected {
            if want == 0.0 {
                let moved = totals.iter().find(|t| t.label == label).map_or(0, |t| t.max_duplex());
                checks.check(format!("P={p}: free phase '{label}' moves zero words"), moved == 0);
            }
        }
        let clock = out.critical_path_time();
        checks.check(
            format!("P={p}: trace critical path equals the clock"),
            (cp.total - clock).abs() <= 1e-9 * clock.max(1.0),
        );
        let bound = lower_bound(dims, p as f64).bound;
        checks.check(
            format!("P={p}: critical path attains the Theorem 3 bound"),
            (cp.total - bound).abs() <= 1e-9 * bound.max(1.0),
        );
        println!(
            "critical path {} = bound {} ({} cross-rank hop(s), ends at rank {})\n",
            fnum(cp.total),
            fnum(bound),
            cp.hops,
            cp.end_rank
        );
    }

    checks.finish();
}
