//! Shared plumbing: options, metric records, order statistics, the
//! in-memory span log, host fingerprint, and the timed-window loop.

use std::fmt::Write as _;
use std::time::Instant;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Run at a tiny size (smoke test).
    pub tiny: bool,
    /// Corrupt one returned product or count before checking it, so the
    /// checker must report a failure (negative smoke test).
    pub corrupt: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// First failure descriptions (capped).
    pub failures: Vec<String>,
    /// Reported metrics by name (units come from [`crate::layers`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable report lines printed before the result line.
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Look a recorded metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Record the end-to-end metrics of an untraced run: `throughput` in
    /// work per second, `op_secs` the median operation time, and
    /// `scratch_mb` the benchmark's own resident buffers, which are not
    /// counted in `peak_rss_mb`.
    pub fn end_to_end(&mut self, setup_s: f64, throughput: f64, op_secs: f64, scratch_mb: f64) {
        self.metric("setup_s", setup_s);
        self.metric("peak_rss_mb", peak_rss_mb() - scratch_mb);
        self.metric("success_ratio", 1.0 - self.failed as f64 / self.attempted.max(1) as f64);
        self.metric("throughput", throughput);
        self.metric("op_ms_p50", op_secs * 1e3);
    }

    /// Count one checked operation; `problems` empty means it passed.
    pub fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(problems.join("; "));
            }
        }
    }
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorts it); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `min/p25/p50/p75/max` of per-operation times in ms, for report lines.
pub fn spread_ms(times: &[f64]) -> String {
    let mut v = times.to_vec();
    let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| format!("{:.3}", quantile(&mut v, q) * 1e3))
        .collect();
    format!("op ms min/p25/p50/p75/max = {} over {} ops", q.join("/"), times.len())
}

/// Host-speed probe: a fixed read-modify-write sweep over a 64 MiB
/// buffer, in the benchmark's own code. On a shared host, memory speed
/// changes by up to a third in phases of tens of seconds; the simulator
/// workloads are single-threaded and memory-bound, and their operation
/// times follow those phases. They report each operation's time over
/// the probe's time measured right after it, scaled by
/// [`REFERENCE_PROBE_S`], so two runs compare the program and not the
/// host's load at the time.
pub struct Probe {
    buf: Vec<u64>,
}

/// Size of the probe buffer.
pub const PROBE_MB: f64 = 64.0;

/// Set-up batches per run on the simulator workloads (see [`SetupTimes`]).
pub const SETUP_BATCHES: usize = 7;

/// The probe's usual time on the reference host: normalized times read
/// as seconds on that host at its usual memory speed.
pub const REFERENCE_PROBE_S: f64 = 0.040;

impl Probe {
    /// Allocate and touch the buffer; create it before set-up, so it is
    /// resident for the whole run and `PROBE_MB` is exactly its share of
    /// the peak RSS.
    pub fn new() -> Probe {
        Probe { buf: vec![1; (PROBE_MB as usize) << 17] }
    }

    /// Seconds for 4 sweeps over the buffer.
    pub fn secs(&mut self) -> f64 {
        timed(|| {
            let mut acc = 0u64;
            for _ in 0..4 {
                for v in self.buf.iter_mut() {
                    *v = v.wrapping_add(1);
                    acc ^= *v;
                }
            }
            std::hint::black_box(acc)
        })
        .1
    }

    /// Time `op` (which returns its own timed seconds), then the probe.
    /// Returns `(op seconds, op seconds normalized to the reference host)`.
    pub fn normalized(&mut self, op: impl FnOnce() -> f64) -> (f64, f64) {
        let t = op();
        (t, t * REFERENCE_PROBE_S / self.secs())
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

/// SplitMix64: a tiny seeded generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Derive a matrix-generator seed from the workload seed.
pub fn input_seed(seed: u64, which: u64) -> u64 {
    Rng::new(seed, which).next_u64()
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `f` over at least `min_reps` calls and at least
/// `min_secs` of total time (at most `max_reps` calls).
pub fn median_secs(min_reps: usize, max_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    median(&mut window(min_secs, min_reps, max_reps, || timed(&mut f).1))
}

/// Run set-up `reps` times (at least once, more while under `min_secs`
/// in total, at most `max_reps`) and return the last product with the
/// median set-up time: set-up is timed apart from the measured window,
/// so work moved into set-up shows in `setup_s`.
pub fn repeated_setup<T>(
    reps: usize,
    max_reps: usize,
    min_secs: f64,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < max_reps && (times.len() < reps || start.elapsed().as_secs_f64() < min_secs)
    {
        // Drop the previous product first so only one is alive at a time.
        drop(last.take());
        let (v, t) = timed(&mut f);
        last = Some(v);
        times.push(t);
    }
    (last.expect("set-up runs at least once"), median(&mut times))
}

/// Set-up timed in [`SETUP_BATCHES`] batches spread over the run. The
/// first batch runs before the timed window and provides the product the
/// run uses; the others run at evenly spaced times inside the window,
/// between operations, and their products are dropped. Each batch repeats
/// set-up for at least `batch_secs` (at least once) and is followed by
/// the host-speed probe, so `setup_s`, the median normalized batch, sees
/// the host's speed phases as the operations do.
pub struct SetupTimes<F> {
    f: F,
    batch_secs: f64,
    raw: Vec<f64>,
    norm: Vec<f64>,
    /// Window offsets (s) of the batches still to run, latest first.
    due: Vec<f64>,
    start: Instant,
}

impl<T, F: FnMut() -> T> SetupTimes<F> {
    /// Run the first batch; returns its product.
    pub fn first(probe: &mut Probe, batch_secs: f64, f: F) -> (T, SetupTimes<F>) {
        let mut s = SetupTimes {
            f,
            batch_secs,
            raw: Vec::new(),
            norm: Vec::new(),
            due: Vec::new(),
            start: Instant::now(),
        };
        let product = s.batch(probe);
        (product, s)
    }

    fn batch(&mut self, probe: &mut Probe) -> T {
        let mut product = None;
        let (t, t_norm) = probe.normalized(|| {
            let (v, t) = repeated_setup(1, usize::MAX, self.batch_secs, &mut self.f);
            product = Some(v);
            t
        });
        self.raw.push(t);
        self.norm.push(t_norm);
        product.expect("a batch sets up at least once")
    }

    /// Spread the remaining batches over a window of `seconds` from now.
    pub fn spread_over(&mut self, seconds: f64) {
        self.start = Instant::now();
        let n = SETUP_BATCHES as f64;
        self.due = (1..SETUP_BATCHES).rev().map(|i| seconds * i as f64 / n).collect();
    }

    /// Run the next batch if it is due; call between operations.
    pub fn tick(&mut self, probe: &mut Probe) {
        if self.due.last().is_some_and(|&d| self.start.elapsed().as_secs_f64() >= d) {
            self.due.pop();
            drop(self.batch(probe));
        }
    }

    /// Median set-up seconds over the batches: `(normalized, raw)`.
    pub fn medians(&mut self) -> (f64, f64) {
        (median(&mut self.norm), median(&mut self.raw))
    }
}

/// Call `op` until `seconds` of wall time have passed (at least
/// `min_ops` times, at most `max_ops`); each call returns the seconds of
/// its timed part. Returns those per-operation times.
pub fn window(
    seconds: f64,
    min_ops: usize,
    max_ops: usize,
    mut op: impl FnMut() -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < max_ops
        && (times.len() < min_ops || start.elapsed().as_secs_f64() < seconds)
    {
        times.push(op());
    }
    times
}

/// One span of the traced run: a timed call into a layer, made from the
/// benchmark's own code.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `"simnet.spawn"`.
    pub name: &'static str,
    /// Execution, request or probe id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin.
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Close span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let idx = self.open(name, id, parent);
        let out = f();
        self.close(idx);
        let s = &self.spans[idx];
        (out, (s.end_ns - s.start_ns) as f64 * 1e-9)
    }
}

/// Render spans as a JSON array (written by `main` when the run ends).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Host fingerprint: results from another host are flagged, not compared.
pub fn host_fingerprint(kernel_auto: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut features = Vec::new();
    if cfg!(target_feature = "avx2") {
        features.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        features.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        features.push("avx512f");
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"target_cpu\":{},\"target_features\":{},\
         \"kernel_auto\":{}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_TARGET_CPU")),
        json_str(&features.join("+")),
        json_str(kernel_auto)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
