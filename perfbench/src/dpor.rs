//! The `dpor-alg1` workload: sleep-set schedule exploration of Algorithm 1
//! on 4 ranks, with schedule recording on. Tens of thousands of tiny
//! worlds per run, so world construction, choice-point recording and
//! sleep-set bookkeeping dominate.

use std::cell::Cell;

use pmm::prelude::*;

use crate::alg1::{self, Shape};
use crate::common::{
    median, median_secs, spread_ms, window, Opts, Outcome, Probe, SetupTimes, SpanLog, PROBE_MB,
};

/// Schedules per exploration: one exploration takes under a second on the
/// reference host, and no wall-clock budget is set, so run and schedule
/// counts repeat exactly.
pub const CAP: u64 = 300;

/// The explored world: 4 ranks on the event loop, schedule recording on
/// (the explorer sets each replay's schedule prefix).
pub fn dpor_world(p: usize) -> World {
    World::new(p, MachineParams::BANDWIDTH_ONLY).with_engine(Engine::EventLoop).without_watchdog()
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let shape = Shape { dims: MatMulDims::new(4, 4, 2), grid: [2, 2, 1], kernel: Kernel::Naive };
    let cap = if opts.tiny { 5 } else { CAP };
    let exp = alg1::expect(&shape);
    let mut out = Outcome::default();
    let mut probe = Probe::new();
    // Set-up ends with one checked replay on the canonical schedule: the
    // explored program must run correctly before its schedules are walked.
    let ((inputs, world, problems), mut setups) = SetupTimes::first(&mut probe, 0.04, || {
        let inputs = alg1::make_inputs(&shape, opts.seed);
        let world = dpor_world(shape.p());
        let first = world.clone().with_schedule(Schedule::Prefix(Vec::new()));
        let problems = alg1::check_run(
            &shape,
            &exp,
            &inputs,
            &first.run_async(alg1::program(&shape, &inputs)),
        );
        (inputs, world, problems)
    });
    if !problems.is_empty() {
        out.check(problems);
    }
    let cfg = ExploreConfig {
        strategy: ExploreStrategy::SleepSets,
        max_schedules: Some(cap),
        wall_clock: None,
    };

    // One exploration: every schedule's product and eq. (3) counts are
    // checked, and the run and schedule counts must repeat exactly.
    let baseline: Cell<Option<(u64, u64)>> = Cell::new(None);
    let counts = Cell::new((0u64, 0u64, 0.0f64));
    let explore_once = |out: &mut Outcome, log: Option<(&mut SpanLog, u64)>| -> f64 {
        let go = || {
            explore_checked_async(&world, alg1::program(&shape, &inputs), &cfg, |res| {
                let problems = alg1::check_run(&shape, &exp, &inputs, res);
                if problems.is_empty() {
                    Ok(())
                } else {
                    Err(problems.join("; "))
                }
            })
        };
        let (result, secs) = match log {
            Some((log, id)) => log.span("explore.exploration", id, None, go),
            None => crate::common::timed(go),
        };
        let mut problems = Vec::new();
        match result {
            Err(f) => problems.push(f.to_string()),
            Ok(report) => {
                let schedules = report.schedules + u64::from(opts.corrupt);
                if schedules > cap || (schedules < cap && !report.complete) {
                    problems.push(format!("{schedules} schedules against a cap of {cap}"));
                }
                let now = (report.runs, schedules);
                match baseline.get() {
                    None => baseline.set(Some(now)),
                    Some(b) if b != now => {
                        problems.push(format!("(runs, schedules) {now:?} drifted from {b:?}"))
                    }
                    Some(_) => {}
                }
                let (r, s, t) = counts.get();
                counts.set((r + report.runs, s + schedules, t + secs));
            }
        }
        out.check(problems);
        secs
    };

    out.notes.push(format!(
        "workload: dpor P=4 grid={:?} dims=4x4x2 sleep sets, cap {cap} schedules per exploration",
        shape.grid
    ));
    if !opts.trace {
        let mut norm = Vec::new();
        setups.spread_over(opts.seconds);
        let mut times = window(opts.seconds, 3, 100_000, || {
            let (t, t_norm) = probe.normalized(|| explore_once(&mut out, None));
            norm.push(t_norm);
            setups.tick(&mut probe);
            t
        });
        out.notes.push(spread_ms(&times));
        let t50 = median(&mut times);
        let t50_norm = median(&mut norm);
        let (setup_s, setup_raw) = setups.medians();
        let (runs, schedules, secs) = counts.get();
        out.end_to_end(setup_s, cap as f64 / t50_norm, t50_norm, PROBE_MB);
        out.notes.push(format!(
            "explore.schedules_per_s={:.1} explore.replays_per_s={:.1} (raw) over {} \
             explorations ({runs} runs, {schedules} schedules); normalized op_ms_p50={:.3}; \
             setup_s raw={setup_raw:.8} normalized={setup_s:.8}",
            cap as f64 / t50,
            runs as f64 / secs,
            times.len(),
            t50_norm * 1e3
        ));
        return out;
    }

    let mut log = SpanLog::new(std::time::Instant::now());
    let mut plain = window(opts.seconds / 2.0, 2, 100_000, || explore_once(&mut out, None));
    let (runs0, schedules0, secs0) = counts.get();
    let mut id = 0;
    let mut traced = window(opts.seconds / 2.0, 2, 100_000, || {
        id += 1;
        explore_once(&mut out, Some((&mut log, id)))
    });
    let n_traced = traced.len() as u64;
    out.metric("trace.overhead_ratio", median(&mut traced) / median(&mut plain) - 1.0);
    let (runs, schedules, secs) = counts.get();
    out.metric("explore.replays_per_s", (runs - runs0) as f64 / (secs - secs0));
    out.metric("explore.useful_ratio", schedules as f64 / runs as f64);
    out.metric("explore.runs", ((runs - runs0) / n_traced) as f64);
    out.metric("explore.schedules", ((schedules - schedules0) / n_traced) as f64);

    // One replay of the explored program, with recording on.
    let replay_world = |p: usize| dpor_world(p).with_schedule(Schedule::Prefix(Vec::new()));
    let replayer = replay_world(shape.p());
    let prog = alg1::program(&shape, &inputs);
    let (t_replay, _) = log.span("simnet.replay", 0, None, || {
        median_secs(20, 100_000, 0.3, || {
            std::hint::black_box(replayer.run_async(&prog));
        })
    });
    out.metric("simnet.replay_us", t_replay * 1e6);
    alg1::probe_layers(&shape, &exp, &inputs, &replay_world, t_replay, &mut log, &mut out);
    out.spans = log.spans;
    out
}
