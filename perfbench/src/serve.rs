//! The `advisor-serve` workload: a closed loop of 2 client connections
//! over loopback TCP to `TcpService` with 2 workers. `ADVISE` lines come
//! from a seeded key mix: mostly a small hot set (cache hits) plus a
//! stream of fresh aspect ratios (misses that reach Lemma 2/KKT and the
//! grid search in `pmm-core`).
//!
//! The hot set is the pool of valid queries of the repository's own
//! service load harness (`QUERY_POOL` in
//! `crates/bench/src/bin/serve_chaos.rs`), which spans all three
//! Theorem 3 regimes. A fresh key is one of those queries with each
//! dimension scaled by its own factor, log-uniform in [1/2, 2], and
//! `M = inf`. The share of fresh keys, [`FRESH_PCT`], is an assumption,
//! not a recorded traffic mix: it keeps the median request on the hit
//! path while misses carry a measured share of the request time (printed
//! as `serve.miss_time_share`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pmm::bounds::advisor::try_recommend;
use pmm::prelude::MachineParams;
use pmm::serve::{Engine as ServeEngine, ServeConfig, Server, TcpService};

use crate::common::{
    median, median_secs, quantile, repeated_setup, Opts, Outcome, Rng, Span, SpanLog,
};

/// Client connections (closed loop: each sends its next request when the
/// previous reply arrives).
pub const CLIENTS: u64 = 2;
/// Percentage of requests that use a fresh key (a cache miss).
pub const FRESH_PCT: u64 = 20;
/// Requests one client makes in a window at most. Each client's buffers
/// are allocated and touched up front at full size, so peak RSS does not
/// depend on how many requests a window completes.
pub const MAX_REQUESTS: usize = 1 << 20;
/// Length of the blocks a window is cut into for `throughput`. On a
/// shared virtual machine the hypervisor takes CPU time from the guest
/// (`steal`) in phases of seconds to minutes; with 2 clients, 2 workers
/// and their connection threads on 2 vCPUs, a block that loses a third
/// of its CPU time completes a half or less of the requests of an
/// unstolen one, while the median latency barely moves. `throughput` is
/// the median rate of the blocks that lost at most [`CLEAN_STEAL`] of
/// their CPU time, or of the [`MIN_KEPT`] least-stolen blocks if fewer
/// did.
pub const BLOCK_S: f64 = 1.0;
/// Largest share of a block's CPU time the hypervisor may have stolen
/// for the block to count as unstolen (5 clock ticks a second on 2
/// CPUs; one tick of noise is common on a quiet host).
pub const CLEAN_STEAL: f64 = 0.025;
/// Fewest blocks `throughput` is the median of.
pub const MIN_KEPT: usize = 5;

/// One query: dimensions, processor count, and memory in words
/// (`None` is `inf`), on the default machine.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// `n1, n2, n3`.
    pub dims: [u64; 3],
    /// Processors.
    pub p: u64,
    /// Local memory in words; `None` is unbounded.
    pub m: Option<u64>,
}

const fn key(n1: u64, n2: u64, n3: u64, p: u64, m: Option<u64>) -> Key {
    Key { dims: [n1, n2, n3], p, m }
}

/// The hot set: `QUERY_POOL` of `crates/bench/src/bin/serve_chaos.rs`.
pub const HOT: [Key; 6] = [
    key(96, 24, 6, 2, None),
    key(96, 24, 6, 36, None),
    key(96, 24, 6, 512, None),
    key(512, 512, 512, 64, None),
    key(9600, 2400, 600, 512, None),
    key(128, 128, 128, 8, Some(20_000)),
];

/// A fresh key: a hot query with each dimension scaled log-uniformly
/// within [1/2, 2], and unbounded memory.
fn fresh_key(rng: &mut Rng) -> Key {
    let base = HOT[rng.range(0, HOT.len() as u64) as usize];
    let dims = base.dims.map(|n| {
        let f = 2f64.powf(rng.range(0, 2001) as f64 / 1000.0 - 1.0);
        ((n as f64 * f).round() as u64).max(1)
    });
    Key { dims, p: base.p, m: None }
}

fn request_line(k: &Key) -> String {
    let m = k.m.map_or("inf".to_string(), |m| m.to_string());
    format!("ADVISE {} {} {} {} {m}", k.dims[0], k.dims[1], k.dims[2], k.p)
}

/// The service configuration: 2 workers, and deadlines long enough that a
/// stall of this shared host never turns into a `TIMEOUT`.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        deadline: Duration::from_secs(10),
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// One request: an index into [`HOT`] or a fresh key.
#[derive(Debug, Clone, Copy)]
enum Req {
    Hot(usize),
    Fresh(Key),
}

impl Req {
    fn key(&self) -> Key {
        match *self {
            Req::Hot(i) => HOT[i],
            Req::Fresh(k) => k,
        }
    }
}

/// One client's request stream: deterministic from (seed, client).
#[derive(Clone)]
struct Traffic {
    rng: Rng,
}

impl Traffic {
    fn new(seed: u64, client: u64) -> Traffic {
        Traffic { rng: Rng::new(seed, 100 + client) }
    }

    fn next(&mut self) -> Req {
        if self.rng.range(0, 100) < FRESH_PCT {
            Req::Fresh(fresh_key(&mut self.rng))
        } else {
            Req::Hot(self.rng.range(0, HOT.len() as u64) as usize)
        }
    }
}

/// Hash of a response with its `cache=` token removed (hits and misses
/// must otherwise be identical).
fn response_hash(line: &str) -> u32 {
    let body = line.trim_end();
    let body = body.find(" cache=").map_or(body, |i| &body[..i]);
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish() as u32
}

/// The expected response hash of `key`, from a cache-less engine.
fn expected_hash(engine: &ServeEngine, key: &Key) -> u32 {
    response_hash(&engine.handle(request_line(key).as_bytes()).render())
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    lat_ns: Vec<f64>,
    fresh_hashes: Vec<u32>,
    /// Replies received in each [`BLOCK_S`] block of the window.
    blocks: Vec<u32>,
    /// Requests that failed in the loop (no reply, non-`OK`, or a wrong
    /// hot answer), by index.
    errors: Vec<(usize, String)>,
    spans: Vec<Span>,
}

/// A connected client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    fn call(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        reply.clear();
        self.reader.read_line(reply)?;
        Ok(())
    }
}

/// Run one client's closed loop from `start` until `deadline`. Hot
/// responses are checked inline; fresh ones are hashed and checked after
/// the window.
fn client_loop(
    client: &mut Client,
    traffic: &mut Traffic,
    (start, deadline): (Instant, Instant),
    hot_expect: &[u32],
    trace: Option<(Instant, u64)>,
) -> ClientLog {
    // Touch the full buffers now (vec! of zeros would map pages lazily).
    let mut log = ClientLog {
        lat_ns: vec![1.0; CLIENTS as usize * MAX_REQUESTS],
        fresh_hashes: vec![1; MAX_REQUESTS],
        blocks: vec![0; ((deadline - start).as_secs_f64() / BLOCK_S) as usize + 1],
        ..ClientLog::default()
    };
    log.lat_ns.clear();
    log.fresh_hashes.clear();
    let cid = trace.map_or(0, |t| t.1);
    let mut spans = trace.map(|(origin, _)| {
        let mut s = SpanLog::new(origin);
        s.open("serve.client", cid, None);
        s
    });
    let mut reply = String::with_capacity(256);
    while Instant::now() < deadline && log.lat_ns.len() < MAX_REQUESTS {
        let n = log.lat_ns.len();
        let req = traffic.next();
        let line = request_line(&req.key());
        let span = spans.as_mut().map(|s| s.open("serve.request", (cid << 32) | n as u64, Some(0)));
        let t0 = Instant::now();
        let sent = client.call(&line, &mut reply);
        let ns = t0.elapsed().as_nanos() as f64;
        let block = ((t0 - start).as_secs_f64() + ns * 1e-9) / BLOCK_S;
        if let Some(b) = log.blocks.get_mut(block as usize) {
            *b += 1;
        }
        if let (Some(s), Some(i)) = (spans.as_mut(), span) {
            s.close(i);
        }
        log.lat_ns.push(ns);
        let h = response_hash(&reply);
        if let Err(e) = &sent {
            log.errors.push((n, e.to_string()));
        } else if !reply.starts_with("OK ") {
            log.errors.push((n, reply.trim_end().to_string()));
        } else if let Req::Hot(i) = req {
            if hot_expect[i] != h {
                log.errors.push((n, format!("wrong answer for hot key {:?}", HOT[i])));
            }
        }
        if let Req::Fresh(_) = req {
            log.fresh_hashes.push(h);
        }
        if sent.is_err() {
            break;
        }
    }
    if let Some(mut s) = spans {
        s.close(0);
        log.spans = s.spans;
    }
    log
}

/// A running service with its connected clients and per-client streams.
/// Dropping it closes the connections and shuts the service down,
/// joining its threads.
struct Setup {
    svc: Option<TcpService>,
    clients: Vec<Client>,
    traffic: Vec<Traffic>,
    hot_expect: Vec<u32>,
    reference: ServeEngine,
}

impl Setup {
    fn addr(&self) -> SocketAddr {
        self.svc.as_ref().expect("the service runs until drop").addr()
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(svc) = self.svc.take() {
            svc.shutdown();
        }
    }
}

fn setup(seed: u64) -> Setup {
    let reference = ServeEngine::new(ServeConfig { cache_capacity: 0, ..serve_config() });
    let hot_expect = HOT.iter().map(|k| expected_hash(&reference, k)).collect();
    let svc = TcpService::bind(serve_config(), "127.0.0.1:0").expect("binding a loopback port");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(svc.addr()).expect("connecting to the service"))
        .collect();
    let traffic = (0..CLIENTS).map(|c| Traffic::new(seed, c)).collect();
    Setup { svc: Some(svc), clients, traffic, hot_expect, reference }
}

/// What one window of traffic produced.
struct Window {
    /// Per-request latencies (ns), every client's.
    lat_ns: Vec<f64>,
    /// Replies per second: the median over the window's unstolen
    /// [`BLOCK_S`] blocks (see there), or over the window if it has none.
    rps: f64,
    /// Blocks `rps` is the median of, out of the window's whole blocks.
    kept: (usize, usize),
    /// Share of the window's CPU time the hypervisor stole.
    steal_share: f64,
    /// Share of the summed request latency spent on fresh keys.
    miss_time_share: f64,
    /// Spans of a traced window.
    spans: Vec<Span>,
}

/// One timed window of closed-loop traffic from every client. Every
/// request is one checked operation in `out`, failed at most once.
fn drive(
    s: &mut Setup,
    seconds: f64,
    trace: Option<Instant>,
    corrupt: bool,
    out: &mut Outcome,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut streams: Vec<Traffic> = s.traffic.clone();
    let hot = &s.hot_expect;
    let n_blocks = (seconds / BLOCK_S) as usize;
    let mut steal = Vec::with_capacity(n_blocks + 1);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(c, (client, traffic))| {
                let trace = trace.map(|o| (o, c as u64));
                scope.spawn(move || client_loop(client, traffic, (start, deadline), hot, trace))
            })
            .collect();
        // Sample steal at every block boundary while the clients run.
        for b in 0..=n_blocks {
            let at = start + Duration::from_secs_f64(b as f64 * BLOCK_S);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            steal.push(steal_ticks());
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    // Check fresh responses: replay each client's stream from where this
    // window started, and compare with a cache-less engine's answers.
    let mut lat: Vec<f64> = Vec::new();
    let mut spans = Vec::new();
    let (mut miss_ns, mut all_ns) = (0.0, 0.0);
    let mut blocks = vec![0.0; n_blocks];
    for (c, log) in logs.into_iter().enumerate() {
        let ClientLog { lat_ns, fresh_hashes, blocks: client_blocks, errors, spans: client_spans } =
            log;
        for (b, n) in blocks.iter_mut().zip(client_blocks) {
            *b += f64::from(n) / BLOCK_S;
        }
        let mut replay = s.traffic[c].clone();
        let mut fresh = fresh_hashes.iter();
        let mut errors = errors.into_iter().peekable();
        for (i, ns) in lat_ns.iter().enumerate() {
            let mut problems = Vec::new();
            if let Some((_, e)) = errors.next_if(|e| e.0 == i) {
                problems.push(format!("client {c} request {i}: {e}"));
            }
            let req = replay.next();
            all_ns += ns;
            if let Req::Fresh(key) = req {
                miss_ns += ns;
                let got = fresh.next().copied().unwrap_or(0) ^ u32::from(corrupt && i == 0);
                if got != expected_hash(&s.reference, &key) {
                    problems.push(format!("client {c}: wrong answer for fresh key {key:?}"));
                }
            } else if corrupt && i == 0 {
                problems.push(format!("client {c}: corrupted hot answer"));
            }
            out.check(problems);
        }
        s.traffic[c] = replay;
        // Client 0's buffer has room for every client's latencies.
        if lat.is_empty() {
            lat = lat_ns;
        } else {
            lat.extend_from_slice(&lat_ns);
        }
        let base = spans.len();
        spans.extend(client_spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }
    let block_steal: Vec<f64> =
        steal.windows(2).map(|w| w[1].saturating_sub(w[0]) as f64).collect();
    let mut sorted = block_steal.clone();
    sorted.sort_by(f64::total_cmp);
    let clean = CLEAN_STEAL * STEAL_TICKS_PER_S * n_cpus() as f64 * BLOCK_S;
    let steal_cut =
        sorted.get(MIN_KEPT.min(sorted.len()).saturating_sub(1)).map_or(clean, |&k| k.max(clean));
    let mut kept: Vec<f64> =
        blocks.iter().zip(&block_steal).filter(|b| *b.1 <= steal_cut).map(|b| *b.0).collect();
    let rps = if kept.is_empty() { lat.len() as f64 / wall } else { median(&mut kept) };
    let steal_share = block_steal.iter().sum::<f64>()
        / (STEAL_TICKS_PER_S * n_cpus() as f64 * n_blocks as f64 * BLOCK_S).max(1.0);
    Window {
        lat_ns: lat,
        rps,
        kept: (kept.len(), n_blocks),
        steal_share,
        miss_time_share: miss_ns / all_ns.max(1.0),
        spans,
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const STEAL_TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has stolen from this machine so far, in
/// `/proc/stat` clock ticks summed over CPUs; 0 where unavailable.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

fn n_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ask the service for its counters over the wire.
fn stats(addr: SocketAddr) -> HashMap<String, f64> {
    let mut reply = String::new();
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.call("STATS", &mut reply);
    }
    reply
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// Cache hits over cache lookups, from `STATS` counters.
fn hit_ratio(st: &HashMap<String, f64>) -> f64 {
    let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
    get("cache_hits") / (get("cache_hits") + get("cache_misses")).max(1.0)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // Set up repeatedly (service, hot-set answers, connections) and keep
    // the last; each earlier one is shut down, untimed, before the next.
    let (mut s, setup_s) = repeated_setup(20, 200, 0.1, || setup(opts.seed));
    out.notes.push(format!(
        "workload: advisor-serve, {CLIENTS} closed-loop TCP clients, {} workers, {} hot keys \
         (serve_chaos QUERY_POOL), {FRESH_PCT}% fresh keys",
        serve_config().workers,
        HOT.len()
    ));

    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut w = drive(&mut s, seconds, None, opts.corrupt, &mut out);
    let n = w.lat_ns.len();
    let p50 = quantile(&mut w.lat_ns, 0.5);
    let p99 = quantile(&mut w.lat_ns, 0.99);
    if !opts.trace {
        let hits = hit_ratio(&stats(s.addr()));
        out.end_to_end(setup_s, w.rps, p50 * 1e-9, 0.0);
        out.notes.push(format!(
            "serve.rps={:.1} serve.latency_us.p50={:.2} serve.latency_us.p99={:.2} over {n} \
             requests; cache hit ratio {hits:.4}, serve.miss_time_share={:.4}; rps from {} of {} \
             blocks, steal {:.3} of the CPU time",
            w.rps,
            p50 * 1e-3,
            p99 * 1e-3,
            w.miss_time_share,
            w.kept.0,
            w.kept.1,
            w.steal_share
        ));
        return out;
    }

    let origin = Instant::now();
    let mut traced = drive(&mut s, seconds, Some(origin), false, &mut out);
    let mut log = SpanLog::new(origin);
    log.spans = traced.spans;
    out.metric("trace.overhead_ratio", quantile(&mut traced.lat_ns, 0.5) / p50 - 1.0);
    let st = stats(s.addr());
    let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
    out.metric("serve.cache_hit_ratio", hit_ratio(&st));
    out.metric("serve.shed", get("shed"));
    out.metric("serve.timeouts", get("timeouts"));

    // Layer probes on the workload's own request stream.
    let mut traffic = Traffic::new(opts.seed, 7);
    let keys: Vec<Req> = (0..20_000).map(|_| traffic.next()).collect();
    let fresh: Vec<Key> =
        keys.iter().filter_map(|r| if let Req::Fresh(k) = r { Some(*k) } else { None }).collect();
    let lines: Vec<String> = keys.iter().map(|r| request_line(&r.key())).collect();
    let mut i = 0;
    let (t_rec, _) = log.span("core.try_recommend", 0, None, || {
        median_secs(200, fresh.len(), 0.3, || {
            let k = fresh[i % fresh.len()];
            i += 1;
            let m = k.m.map_or(f64::INFINITY, |m| m as f64);
            let recs = try_recommend(
                k.dims[0],
                k.dims[1],
                k.dims[2],
                k.p,
                m,
                MachineParams::TYPICAL_CLUSTER,
            );
            std::hint::black_box(recs.map(|r| r.len()).unwrap_or(0));
        })
    });
    out.metric("core.recommend_us", t_rec * 1e6);
    let engine = ServeEngine::new(serve_config());
    let mut i = 0;
    let (t_handle, _) = log.span("serve.handle", 0, None, || {
        median_secs(1000, lines.len(), 0.3, || {
            std::hint::black_box(engine.handle(lines[i % lines.len()].as_bytes()));
            i += 1;
        })
    });
    out.metric("serve.handle_us", t_handle * 1e6);
    let server = Server::start(serve_config());
    let mut i = 0;
    let (t_submit, _) = log.span("serve.submit", 0, None, || {
        median_secs(1000, lines.len(), 0.3, || {
            std::hint::black_box(server.submit(lines[i % lines.len()].as_bytes().to_vec()));
            i += 1;
        })
    });
    server.shutdown();
    out.metric("serve.submit_us", t_submit * 1e6);
    out.metric("serve.transport_us", p50 * 1e-3 - t_submit * 1e6);
    out.spans = log.spans;
    out
}
