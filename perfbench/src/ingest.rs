//! `telemetry_ingest`: an open-loop TLP/1 client against `NetServer`
//! over loopback, with a WAL-backed `Historian` and
//! `NetConfig::default()`. This exercises the reactor, the network
//! service and the historian, which neither control workload touches.
//!
//! One connection sends `PUSHC` batches on a fixed schedule: first at
//! [`fixed_rate_sps`], the offered rate the latency metrics are read at.
//! Then a client that honours the acks' backpressure token keeps the
//! writers busy, and their write rate is the service's sustained ingest
//! rate (see [`Pusher::saturate`]). Last, a rate ladder searches for the
//! highest rate the service sustains (see [`Pusher::ladder`]).
//! The other connection sends `QUERY LASTN` at [`query_rate`]
//! throughout, so historian reads run beside writes. Every request is timed from when it was due, so a
//! stall also charges the requests queued behind it; the generator's own
//! lateness is reported next to the latencies.
//!
//! The traffic stands for the telemetry of [`REFERENCE_ZONES`] zones;
//! `README.md` in this directory gives the source of every figure.

use crate::spans::Tracer;
use crate::stats::{OpCounts, Samples, MIN_P99_SAMPLES};
use crate::{mix_seed, obs_counter, obs_hist, peak_rss_mb, RunArgs, RunOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tesla_core::status::StatusBoard;
use tesla_historian::{Historian, HistorianConfig, MetricStore};
use tesla_net::{NetConfig, NetServer};
use tesla_sim::SimConfig;

/// Zones whose telemetry the traffic stands for: the largest tier of the
/// `fleet` bench bin.
pub const REFERENCE_ZONES: usize = 1024;

/// Samples each sensor sends per second. An assumption: the testbed
/// aggregates its sensors once per 60 s control minute, and the
/// telemetry path is taken to carry the raw reads at 1 Hz.
pub const SENSOR_HZ: f64 = 1.0;

/// Seconds between two reads of one zone's recent history. An
/// assumption: a dashboard that refreshes every zone every 5 s.
pub const DASHBOARD_REFRESH_S: f64 = 5.0;

/// Samples per `PUSHC` batch: the `net` bench bin's default, which
/// `docs/SERVICE.md` names the service's sweet spot.
pub const BATCH: usize = 256;

/// Values per line of a `PUSHC` body, also the `net` bench bin's default.
pub const PER_LINE: usize = 16;

/// Values each `QUERY LASTN` asks for, as in the `net` bench bin.
pub const QUERY_N: usize = 64;

/// First rung of the ladder, samples/s.
pub const LADDER_START_SPS: f64 = 250_000.0;

/// The climb doubles the rate until a rung fails or the rate passes
/// this cap, which bounds the ladder at 7 climbing rungs.
pub const LADDER_CAP_SPS: f64 = 16_000_000.0;

/// Bisection steps between the last rung the climb sustained and the
/// first it failed: four resolve the factor-2 bracket to 2^(1/16), 4.4%.
pub const REFINE_STEPS: usize = 4;

/// Attempts at a rate before it counts as not sustained: one host stall
/// can fail a rung, saturation fails both.
pub const RUNG_ATTEMPTS: usize = 2;

/// Length of one ladder rung.
pub const RUNG_SECONDS: f64 = 0.5;

/// Latency limit a phase must meet on its ack p90, seconds. The p90 and
/// not the p99: over a short rung the p99 reads whichever host hiccup
/// happened to land in it (one read 87 ms), so the highest rung would
/// flip from run to run, while saturation lifts the whole distribution.
pub const LATENCY_LIMIT_S: f64 = 0.050;

/// Limit on a phase's backlog, seconds: the median over its acks of the
/// queue depth the ack reports, divided by the offered rate (the time a
/// sample waits for the writers, by Little's law). Past the writers'
/// capacity `C` the backlog grows all through a rung, and at mid-rung
/// it passes this limit once the rate exceeds `C / (1 - 2 * limit /
/// RUNG_SECONDS)`, 5% above `C`. A median ignores the brief backlog of
/// a writer descheduled for a moment, which the time to drain after the
/// last ack does not.
pub const BACKLOG_LIMIT_S: f64 = 0.0125;

/// Batches of each series' value cycle: the pushed values repeat with a
/// period of this many batches, so the inputs stay small however high
/// the ladder climbs, while timestamps keep advancing.
const CYCLE_BATCHES: usize = 64;

/// Distinct `QUERY LASTN` requests, sent cyclically.
const QUERY_POOL: usize = 4096;

/// Window the saturation phase's write rate is read over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Requests the saturating client keeps outstanding at most.
const SATURATION_IN_FLIGHT: usize = 64;

/// While the queue is over the pause threshold, the saturating client
/// sends one request per this interval to read the depth again.
const PROBE_INTERVAL: Duration = Duration::from_millis(1);

/// How long the client waits for outstanding responses after its last
/// request, and for the writers to store what was pushed, before giving
/// up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// How often a waiting client connection polls for response bytes.
const POLL: Duration = Duration::from_micros(100);

/// Sensor channels of one zone in `SimConfig::default()`: the
/// rack-installed DC sensors plus the ACU inlet sensors (35 + 2). Each
/// is one pushed series.
pub fn sensors_per_zone() -> usize {
    let sim = SimConfig::default();
    sim.n_dc_sensors + sim.n_acu_sensors
}

/// The fixed offered rate, samples/s: every sensor of every reference
/// zone at [`SENSOR_HZ`] (1024 × 37 = 37 888).
pub fn fixed_rate_sps() -> f64 {
    (REFERENCE_ZONES * sensors_per_zone()) as f64 * SENSOR_HZ
}

/// `QUERY LASTN` requests per second: every reference zone once per
/// [`DASHBOARD_REFRESH_S`] (204.8/s).
pub fn query_rate() -> f64 {
    REFERENCE_ZONES as f64 / DASHBOARD_REFRESH_S
}

/// Length of the fixed-rate phase, seconds: a third of the run, but
/// long enough for [`MIN_P99_SAMPLES`] acks and queries with a tenth to
/// spare.
fn fixed_seconds(run: Duration) -> f64 {
    let per_sample = f64::max(BATCH as f64 / fixed_rate_sps(), 1.0 / query_rate());
    (run.as_secs_f64() / 3.0).max(MIN_P99_SAMPLES as f64 * 1.1 * per_sample)
}

/// Length of the saturation phase, seconds: half the run, so its best
/// windows (see [`Saturation::rates`]) are drawn from many.
fn saturation_seconds(run: Duration) -> f64 {
    run.as_secs_f64() / 2.0
}

fn metric_name(series: usize) -> String {
    format!("sensor{series:02}.temp_c")
}

/// Every input of a run, generated from the seed.
struct Inputs {
    /// Per series, the value cycle: series `s` holds
    /// `values[s][i % values[s].len()]` at timestamp `i`.
    values: Vec<Vec<f64>>,
    /// Per series, the encoded `PUSHC` body of each batch of the cycle.
    bodies: Vec<Vec<Vec<u8>>>,
    /// The query pool: series asked for, and the encoded request.
    queries: Vec<(usize, Vec<u8>)>,
}

impl Inputs {
    fn series(&self) -> usize {
        self.values.len()
    }

    fn value(&self, series: usize, i: usize) -> f64 {
        let cycle = &self.values[series];
        cycle[i % cycle.len()]
    }

    /// Writes `PUSHC` request `k` into `buf`: series `k % S`, carrying
    /// that series' `(k / S)`-th batch.
    fn push_request(&self, k: usize, buf: &mut Vec<u8>) {
        let (series, batch) = (k % self.series(), k / self.series());
        let name = metric_name(series);
        // Writing into a Vec cannot fail.
        let _ = writeln!(buf, "PUSHC {BATCH} {name} {} 1", batch * BATCH);
        buf.extend_from_slice(&self.bodies[series][batch % CYCLE_BATCHES]);
    }

    /// One past the timestamp of the last value pushed to `series` once
    /// requests `0..pushed` are sent.
    fn end(&self, series: usize, pushed: usize) -> usize {
        (pushed + self.series() - 1 - series) / self.series() * BATCH
    }
}

fn generate(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 4));
    let values: Vec<Vec<f64>> = (0..sensors_per_zone())
        .map(|_| {
            // A slow random walk around a cold-aisle inlet temperature,
            // at the 0.01 °C resolution of a rack sensor.
            let mut v: f64 = rng.random_range(18.0..26.0);
            (0..CYCLE_BATCHES * BATCH)
                .map(|_| {
                    v = (v + rng.random_range(-0.05..0.05)).clamp(15.0, 30.0);
                    (v * 100.0).round() / 100.0
                })
                .collect()
        })
        .collect();
    let bodies = values
        .iter()
        .map(|cycle| {
            cycle
                .chunks(BATCH)
                .map(|batch| {
                    let mut body = Vec::with_capacity(BATCH * 6);
                    for (i, v) in batch.iter().enumerate() {
                        let _ = write!(body, "{v}");
                        body.push(if i % PER_LINE == PER_LINE - 1 {
                            b'\n'
                        } else {
                            b' '
                        });
                    }
                    body
                })
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 5));
    let queries = (0..QUERY_POOL)
        .map(|_| {
            let s = rng.random_range(0..values.len());
            (
                s,
                format!("QUERY LASTN {} {QUERY_N}\n", metric_name(s)).into_bytes(),
            )
        })
        .collect();
    Inputs {
        values,
        bodies,
        queries,
    }
}

/// A running service with its two client connections.
struct Service {
    server: NetServer,
    historian: Arc<Historian>,
    pusher: TcpStream,
    querier: TcpStream,
    dir: PathBuf,
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut conn = Conn::new(s);
    conn.send(b"HELLO tlp/1\n")?;
    let line = conn
        .read_line(Instant::now() + Duration::from_secs(5))?
        .ok_or("no HELLO answer")?;
    if line != "OK tlp/1" {
        return Err(format!("HELLO answered {line:?}"));
    }
    Ok(conn.stream)
}

fn start_service(work_dir: &Path, rep: usize) -> Result<Service, String> {
    let dir = work_dir.join(format!("ingest-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (historian, _) =
        Historian::open(&dir, HistorianConfig::default()).map_err(|e| format!("historian: {e}"))?;
    let historian = Arc::new(historian);
    let store: Arc<dyn MetricStore> = historian.clone();
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default(),
        store,
        Arc::new(StatusBoard::new()),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    Ok(Service {
        pusher: connect(addr)?,
        querier: connect(addr)?,
        server,
        historian,
        dir,
    })
}

fn stop_service(service: Service) {
    let Service {
        server,
        historian,
        pusher,
        querier,
        dir,
    } = service;
    drop(pusher);
    drop(querier);
    server.stop();
    drop(historian);
    let _ = std::fs::remove_dir_all(dir);
}

/// A client connection with a receive buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        stream
            .set_nonblocking(true)
            .expect("loopback sockets support non-blocking mode");
        Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Reads more bytes, waiting until `deadline` at most. Returns false
    /// when the wait timed out.
    ///
    /// The socket is non-blocking and polled every [`POLL`]: a blocking
    /// read with a timeout would wake on the kernel's timer tick (several
    /// milliseconds), which would both delay sends past their due time
    /// and blur the latencies being measured.
    fn fill(&mut self, deadline: Instant) -> Result<bool, String> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            std::thread::sleep(POLL.min(deadline - now));
        }
    }

    /// Writes all of `bytes`, waiting out a full socket send buffer.
    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Keep taking responses in, so the server never
                    // waits on this client while it waits on the server.
                    self.fill(Instant::now())?;
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Takes one complete line from the buffer, if there is one.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// Reads one line, waiting until `deadline` at most.
    fn read_line(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            if !self.fill(deadline)? && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Takes one complete response from the buffer: a single line for a
    /// push ack or an error, a header plus `count` value lines for a
    /// query answer.
    fn take_response(&mut self, query: bool) -> Option<Vec<String>> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let header = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        let count = match (query, header.strip_prefix("OK ")) {
            (true, Some(n)) => n.trim().parse::<usize>().unwrap_or(0),
            _ => 0,
        };
        let mut lines_end = end + 1;
        for _ in 0..count {
            let next = self.buf[lines_end..].iter().position(|&b| b == b'\n')?;
            lines_end += next + 1;
        }
        let text = String::from_utf8_lossy(&self.buf[..lines_end]).into_owned();
        self.buf.drain(..lines_end);
        Some(text.lines().map(str::to_string).collect())
    }
}

/// One answered request: when it was due, when it was sent, when its
/// response was complete, and the response lines.
struct Answer {
    due: Instant,
    sent: Instant,
    done: Instant,
    lines: Vec<String>,
}

/// Sends up to `n` requests on their schedule (`due(i)`; `request(i,
/// buf)` encodes request `i`), sending no more once `stop` is set, and
/// collects responses in order. Returns one entry per request sent
/// (`None` for a request whose response never came).
fn open_loop(
    conn: &mut Conn,
    mut n: usize,
    mut request: impl FnMut(usize, &mut Vec<u8>),
    due: impl Fn(usize) -> Instant,
    query: bool,
    stop: Option<&AtomicBool>,
) -> Result<Vec<Option<Answer>>, String> {
    let mut answers: Vec<Option<Answer>> = Vec::new();
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut buf = Vec::with_capacity(BATCH * 8);
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        while let Some(lines) = conn.take_response(query) {
            let (i, sent) = in_flight
                .pop_front()
                .ok_or("response with no request in flight")?;
            answers[i] = Some(Answer {
                due: due(i),
                sent,
                done: Instant::now(),
                lines,
            });
        }
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            n = n.min(next);
        }
        let now = Instant::now();
        if next < n && now >= due(next) {
            buf.clear();
            request(next, &mut buf);
            conn.send(&buf)?;
            in_flight.push_back((next, now));
            answers.push(None);
            next += 1;
            continue;
        }
        if next == n {
            if in_flight.is_empty() {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
            if now >= deadline {
                break;
            }
        }
        let until = if next < n {
            due(next)
        } else {
            drain_deadline.expect("set once every request is sent")
        };
        conn.fill(until)?;
    }
    Ok(answers)
}

/// Parses a push ack `OK <accepted> q=<depth>`.
fn parse_ack(line: &str) -> Option<(usize, usize)> {
    let rest = line.strip_prefix("OK ")?;
    let (accepted, depth) = rest.split_once(" q=")?;
    Some((accepted.parse().ok()?, depth.parse().ok()?))
}

/// What one phase of pushes measured.
struct PhaseResult {
    rate_sps: f64,
    start: Instant,
    ack: Samples,
    lateness: Samples,
    depths: Vec<usize>,
    ops: OpCounts,
    acked_samples: u64,
    /// Samples the writers stored, and the queue dropped, from the start
    /// of the phase to the end of its drain.
    written: u64,
    dropped: u64,
    spans: Vec<(Instant, Instant)>,
    /// How long the writers took, after the last ack arrived, to store
    /// or drop every sample pushed so far (reported, not judged).
    writer_lag_s: f64,
    /// Whether they did so before the drain timeout.
    drained: bool,
}

impl PhaseResult {
    /// Median queue wait of the phase's acks; see [`BACKLOG_LIMIT_S`].
    fn backlog_s(&self) -> f64 {
        let mut waits = Samples::with_capacity(self.depths.len());
        for &d in &self.depths {
            waits.push(d as f64 / self.rate_sps);
        }
        waits.quantiles(&[0.5]).map_or(f64::INFINITY, |q| q[0])
    }

    /// Meets the latency limit with no drops and no growing backlog, and
    /// the writers stored every acked sample.
    fn sustained(&self) -> bool {
        let p90 = self.ack.quantiles(&[0.9]).map_or(f64::INFINITY, |q| q[0]);
        self.ops.failed == 0
            && self.drained
            && self.dropped == 0
            && self.written == self.acked_samples
            && p90 <= LATENCY_LIMIT_S
            && self.backlog_s() <= BACKLOG_LIMIT_S
    }
}

/// The pushing connection and everything it has sent.
struct Pusher<'a> {
    conn: Conn,
    server: &'a NetServer,
    inputs: &'a Inputs,
    /// `PUSHC` requests sent so far.
    requests: usize,
    /// The queue's drop count when the measurement began.
    dropped0: u64,
    phases: Vec<PhaseResult>,
}

impl Pusher<'_> {
    fn pushed(&self) -> u64 {
        (self.requests * BATCH) as u64
    }

    fn dropped(&self) -> u64 {
        self.server.queue().dropped_samples() - self.dropped0
    }

    /// Pushes at `rate_sps` for `seconds`, waits for the writers, and
    /// records the phase. Returns whether the rate was sustained and
    /// whether the writers caught up.
    fn phase(&mut self, rate_sps: f64, seconds: f64) -> Result<(bool, bool), String> {
        let n = ((rate_sps * seconds / BATCH as f64).round() as usize).max(1);
        let interval = Duration::from_secs_f64(BATCH as f64 / rate_sps);
        let (first, inputs) = (self.requests, self.inputs);
        let written_before = self.server.written_samples();
        let dropped_before = self.dropped();
        let start = Instant::now() + Duration::from_millis(2);
        let answers = open_loop(
            &mut self.conn,
            n,
            |i, buf| inputs.push_request(first + i, buf),
            |i| start + interval * i as u32,
            false,
            None,
        )?;
        let last_ack = Instant::now();
        self.requests += answers.len();
        let drained = self.drain();
        let mut r = PhaseResult {
            rate_sps,
            start,
            writer_lag_s: last_ack.elapsed().as_secs_f64(),
            drained,
            ack: Samples::with_capacity(answers.len()),
            lateness: Samples::with_capacity(answers.len()),
            depths: Vec::with_capacity(answers.len()),
            written: self.server.written_samples() - written_before,
            dropped: self.dropped() - dropped_before,
            ops: OpCounts::default(),
            acked_samples: 0,
            spans: Vec::with_capacity(answers.len()),
        };
        for a in &answers {
            let ack = a
                .as_ref()
                .and_then(|a| a.lines.first().and_then(|l| parse_ack(l)).map(|x| (a, x)));
            match ack {
                Some((a, (accepted, depth))) => {
                    r.ops.record(accepted == BATCH);
                    r.acked_samples += accepted as u64;
                    r.depths.push(depth);
                    r.ack.push((a.done - a.due).as_secs_f64());
                    r.lateness.push((a.sent - a.due).as_secs_f64());
                    r.spans.push((a.sent, a.done));
                }
                None => r.ops.record(false),
            }
        }
        let outcome = (r.sustained(), r.drained);
        self.phases.push(r);
        Ok(outcome)
    }

    /// Waits until the writers have stored, or the queue has dropped,
    /// every sample pushed so far. False when that took longer than
    /// [`DRAIN_TIMEOUT`].
    fn drain(&self) -> bool {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let done = self.server.written_samples() + self.dropped();
            if done >= self.pushed() {
                return done == self.pushed();
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(POLL);
        }
    }

    /// Runs a rate up to [`RUNG_ATTEMPTS`] times. `Some(true)` once an
    /// attempt is sustained, `Some(false)` when none is, `None` when the
    /// writers did not catch up within the drain timeout, which ends the
    /// ladder.
    fn rung(&mut self, rate_sps: f64) -> Result<Option<bool>, String> {
        for _ in 0..RUNG_ATTEMPTS {
            match self.phase(rate_sps, RUNG_SECONDS)? {
                (true, _) => return Ok(Some(true)),
                (false, false) => return Ok(None),
                (false, true) => {}
            }
        }
        Ok(Some(false))
    }

    /// Searches for the highest rate the service sustains and returns
    /// it: the climb doubles the rate from [`LADDER_START_SPS`] until a
    /// rung fails, then [`REFINE_STEPS`] bisect (geometrically) between
    /// the last sustained rate and the first failed one. The fixed rate,
    /// sustained before the ladder starts, is the floor. A rung past
    /// capacity only ends the climb: its drops and backlog are drained
    /// before the next rung.
    fn ladder(&mut self) -> Result<f64, String> {
        let mut lo = fixed_rate_sps();
        let mut hi = None;
        let mut rate = LADDER_START_SPS;
        while rate <= LADDER_CAP_SPS {
            match self.rung(rate)? {
                Some(true) => lo = rate,
                Some(false) => {
                    hi = Some(rate);
                    break;
                }
                None => return Ok(lo),
            }
            rate *= 2.0;
        }
        let Some(mut hi) = hi else { return Ok(lo) };
        for _ in 0..REFINE_STEPS {
            let mid = (lo * hi).sqrt();
            match self.rung(mid)? {
                Some(true) => lo = mid,
                Some(false) => hi = mid,
                None => break,
            }
        }
        Ok(lo)
    }
}

/// What the saturation phase measured.
#[derive(Default)]
struct Saturation {
    /// Samples written per second in each window but the first, which
    /// holds the queue's fill. Their 90th percentile is the gated
    /// throughput: the rate the writers keep up while the host leaves
    /// them alone, which a stretch of interference cannot lower unless
    /// it covers nine tenths of the phase.
    rates: Samples,
    ops: OpCounts,
    acked_samples: u64,
    spans: Vec<(Instant, Instant)>,
    /// Whether the writers stored every pushed sample before the drain
    /// timeout, so the ladder starts from an empty queue.
    drained: bool,
}

impl Pusher<'_> {
    /// Keeps the writers busy for `seconds` with a client that honours
    /// the acks' backpressure token: it keeps up to
    /// [`SATURATION_IN_FLIGHT`] requests outstanding and sends only while
    /// the last ack reported a queue depth under a quarter of the queue's
    /// capacity, the pause threshold `docs/SERVICE.md` gives producers;
    /// over it, one request per [`PROBE_INTERVAL`] reads the depth again.
    /// The queue then neither empties nor drops, so the writers run flat
    /// out, and the samples they store per [`WINDOW`] are their capacity.
    fn saturate(&mut self, seconds: f64) -> Result<Saturation, String> {
        let threshold = self.server.queue().capacity_samples() / 4;
        let mut sat = Saturation::default();
        let mut in_flight: VecDeque<Instant> = VecDeque::new();
        let mut depth = 0usize;
        let mut buf = Vec::with_capacity(BATCH * 8);
        let start = Instant::now();
        let mut last_sent = start;
        let end = start + Duration::from_secs_f64(seconds);
        let mut window = (start, self.server.written_samples());
        let mut first_window = true;
        loop {
            while let Some(lines) = self.conn.take_response(false) {
                let sent = in_flight.pop_front().ok_or("ack with no push in flight")?;
                sat.spans.push((sent, Instant::now()));
                match lines.first().and_then(|l| parse_ack(l)) {
                    Some((accepted, d)) => {
                        sat.ops.record(accepted == BATCH);
                        sat.acked_samples += accepted as u64;
                        depth = d;
                    }
                    None => sat.ops.record(false),
                }
            }
            let now = Instant::now();
            // Windows stop at the end of the phase: while the last
            // requests drain the client sends nothing.
            if now - window.0 >= WINDOW && now < end {
                let written = self.server.written_samples();
                if !first_window {
                    let rate = (written - window.1) as f64 / (now - window.0).as_secs_f64();
                    sat.rates.push(rate);
                }
                first_window = false;
                window = (now, written);
            }
            if now >= end {
                if in_flight.is_empty() {
                    break;
                }
                if now >= end + DRAIN_TIMEOUT {
                    for _ in in_flight.drain(..) {
                        sat.ops.record(false);
                    }
                    break;
                }
            } else if in_flight.len() < SATURATION_IN_FLIGHT
                && (depth < threshold || now - last_sent >= PROBE_INTERVAL)
            {
                buf.clear();
                self.inputs.push_request(self.requests, &mut buf);
                self.conn.send(&buf)?;
                self.requests += 1;
                in_flight.push_back(now);
                last_sent = now;
                continue;
            }
            self.conn.fill(now + POLL)?;
        }
        sat.drained = self.drain();
        Ok(sat)
    }
}

/// What the query connection measured.
struct Queries {
    /// Latency of queries due during the fixed-rate phase.
    latency: Samples,
    ops: OpCounts,
    /// (series, due, returned values) per answered query, for the
    /// content check.
    answers: Vec<(usize, Instant, Vec<f64>)>,
    spans: Vec<(Instant, Instant)>,
}

/// Sends `QUERY LASTN` at [`query_rate`] from `start` until `stop` is set.
fn query_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    start: Instant,
    fixed_end: Instant,
    stop: &AtomicBool,
) -> Result<Queries, String> {
    let interval = Duration::from_secs_f64(1.0 / query_rate());
    let pool = &inputs.queries;
    let answers = open_loop(
        conn,
        usize::MAX,
        |i, buf| buf.extend_from_slice(&pool[i % pool.len()].1),
        |i| start + interval * i as u32,
        true,
        Some(stop),
    )?;
    let mut q = Queries {
        latency: Samples::with_capacity(answers.len()),
        ops: OpCounts::default(),
        answers: Vec::with_capacity(answers.len()),
        spans: Vec::with_capacity(answers.len()),
    };
    for (i, a) in answers.into_iter().enumerate() {
        let Some(a) = a else {
            q.ops.record(false);
            continue;
        };
        let values: Option<Vec<f64>> = a
            .lines
            .first()
            .filter(|h| h.starts_with("OK "))
            .map(|_| a.lines[1..].iter().filter_map(|l| l.parse().ok()).collect());
        let ok = values
            .as_ref()
            .is_some_and(|v| v.len() == a.lines.len() - 1 && v.len() <= QUERY_N);
        q.ops.record(ok);
        if a.due < fixed_end {
            q.latency.push((a.done - a.due).as_secs_f64());
        }
        q.spans.push((a.sent, a.done));
        if let Some(v) = values {
            q.answers.push((pool[i % pool.len()].0, a.due, v));
        }
    }
    Ok(q)
}

/// True when `got` is a run of consecutive values of a series whose
/// values repeat `cycle`; `index` maps each value's bits to its
/// positions in the cycle.
fn is_window(cycle: &[f64], index: &HashMap<u64, Vec<usize>>, got: &[f64]) -> bool {
    let Some(last) = got.last() else { return true };
    let len = cycle.len();
    index.get(&last.to_bits()).is_some_and(|ends| {
        ends.iter().any(|&end| {
            got.iter()
                .rev()
                .enumerate()
                .all(|(k, v)| cycle[(end + len - k % len) % len].to_bits() == v.to_bits())
        })
    })
}

fn config_line(run: Duration) -> String {
    let n = NetConfig::default();
    format!(
        "telemetry_ingest net=NetConfig::default(shards={},writers={},queue={}) \
         historian=HistorianConfig::default(wal) series={} batch={BATCH} \
         fixed_rate={}sps for {}s ladder=x2 from {LADDER_START_SPS}sps \
         to {LADDER_CAP_SPS}sps then {REFINE_STEPS} bisections, {RUNG_SECONDS}s rungs, \
         {RUNG_ATTEMPTS} attempts limit_p90={LATENCY_LIMIT_S}s backlog_p50={BACKLOG_LIMIT_S}s \
         saturation={}s in {}ms windows queries=LASTN {QUERY_N} at {}/s",
        n.reactor.shards,
        n.writer_threads,
        n.ingest_capacity_samples,
        sensors_per_zone(),
        fixed_rate_sps(),
        fixed_seconds(run),
        saturation_seconds(run),
        WINDOW.as_millis(),
        query_rate(),
    )
}

/// Runs the workload; see the module docs.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut out = RunOutput {
        config: config_line(args.seconds),
        ..RunOutput::default()
    };
    let mut tracer = Tracer::new(args.trace);
    let repeats = if args.trace {
        1
    } else {
        crate::SHORT_SETUP_REPEATS
    };
    let mut ready = None;
    for rep in 0..repeats {
        if let Some((_, service)) = ready.take() {
            stop_service(service);
        }
        let t = Instant::now();
        let inputs = generate(args.seed);
        let service = start_service(&args.work_dir, rep)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((inputs, service));
    }
    let (inputs, service) = ready.expect("at least one set-up");
    let result = measure(args, &inputs, &service, &mut tracer, &mut out);
    stop_service(service);
    result?;
    if args.trace {
        out.spans = Some(tracer);
    }
    Ok(out)
}

fn measure(
    args: &RunArgs,
    inputs: &Inputs,
    service: &Service,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) -> Result<(), String> {
    if args.trace {
        tesla_obs::set_enabled(true);
    }
    let dispatch0 = obs_hist("tesla_net_request_seconds");
    let flush0 = obs_hist("historian_flush_seconds");
    let seal0 = obs_hist("historian_seal_seconds");
    let wal0 = obs_counter("historian_wal_records_total");
    let control0 =
        obs_counter("tesla_control_steps_total") + obs_counter("bo_acquisition_evaluations_total");

    let server = &service.server;
    let written0 = server.written_samples();
    let mut querier = Conn::new(service.querier.try_clone().map_err(|e| e.to_string())?);
    let mut pusher = Pusher {
        conn: Conn::new(service.pusher.try_clone().map_err(|e| e.to_string())?),
        server,
        inputs,
        requests: 0,
        dropped0: server.queue().dropped_samples(),
        phases: Vec::new(),
    };
    let fixed_s = fixed_seconds(args.seconds);
    let start = Instant::now() + Duration::from_millis(5);
    let fixed_end = start + Duration::from_secs_f64(fixed_s);
    let stop = AtomicBool::new(false);

    let (pushed, queries) = std::thread::scope(|scope| {
        let q = scope.spawn(|| query_loop(&mut querier, inputs, start, fixed_end, &stop));
        let mut pushes = || -> Result<(f64, f64, Saturation, bool), String> {
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            pusher.phase(fixed_rate_sps(), fixed_s)?;
            let fixed_rss = peak_rss_mb();
            let sat = pusher.saturate(saturation_seconds(args.seconds))?;
            let max_rate = pusher.ladder()?;
            Ok((max_rate, fixed_rss, sat, pusher.drain()))
        };
        let pushed = pushes();
        stop.store(true, Ordering::Relaxed);
        let queries = q.join().expect("query thread panicked");
        (pushed, queries)
    });
    let (max_rate, fixed_rss, sat, final_drained) = pushed?;
    let queries = queries?;
    let phases = &pusher.phases;

    // After the drain, LASTN must return exactly the last values pushed.
    let mut final_ops = OpCounts::default();
    for s in 0..inputs.series() {
        querier.send(format!("QUERY LASTN {} {QUERY_N}\n", metric_name(s)).as_bytes())?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let lines = loop {
            if let Some(lines) = querier.take_response(true) {
                break Some(lines);
            }
            if !querier.fill(deadline)? && Instant::now() >= deadline {
                break None;
            }
        };
        let end = inputs.end(s, pusher.requests);
        let got: Vec<f64> = lines
            .map(|l| l.iter().skip(1).filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        let ok = got.len() == QUERY_N.min(end)
            && got
                .iter()
                .zip(end.saturating_sub(QUERY_N)..end)
                .all(|(v, i)| v.to_bits() == inputs.value(s, i).to_bits());
        final_ops.record(ok);
    }

    // Mid-run answers must be runs of consecutive pushed values. Once
    // a rung past capacity has dropped samples, a series may have gaps,
    // so answers due from the start of that rung on are not checked.
    let index: Vec<HashMap<u64, Vec<usize>>> = inputs
        .values
        .iter()
        .map(|cycle| {
            let mut m: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, v) in cycle.iter().enumerate() {
                m.entry(v.to_bits()).or_default().push(i);
            }
            m
        })
        .collect();
    let first_drop = phases.iter().find(|p| p.dropped > 0).map(|p| p.start);
    let bad_windows = queries
        .answers
        .iter()
        .filter(|(_, due, _)| first_drop.is_none_or(|t| *due < t))
        .filter(|(s, _, got)| !is_window(&inputs.values[*s], &index[*s], got))
        .count();

    let mut push_ops = sat.ops;
    for p in phases {
        push_ops.merge(p.ops);
    }
    let acked: u64 = sat.acked_samples + phases.iter().map(|p| p.acked_samples).sum::<u64>();
    let pushed = pusher.pushed();
    let written = server.written_samples() - written0;
    let dropped = pusher.dropped();
    let control = obs_counter("tesla_control_steps_total")
        + obs_counter("bo_acquisition_evaluations_total")
        - control0;
    let fixed_r = &phases[0];

    out.ops = push_ops;
    out.ops.merge(queries.ops);
    out.ops.merge(final_ops);
    out.peak_rss_mb = Some(fixed_rss);
    out.check(
        "every_push_acked_exactly_once",
        acked == pushed && push_ops.failed == 0,
    );
    out.check(
        "every_query_answered",
        queries.ops.failed == 0 && final_ops.failed == 0,
    );
    out.check(
        "written_equals_acked_after_drain",
        fixed_r.drained
            && fixed_r.written == fixed_r.acked_samples
            && sat.drained
            && final_drained
            && written + dropped == acked,
    );
    out.check("lastn_returns_last_pushed_values", final_ops.failed == 0);
    out.check("query_answers_are_pushed_windows", bad_windows == 0);
    out.check("no_drops_at_fixed_rate", fixed_r.dropped == 0);
    out.check("fixed_rate_sustained", fixed_r.sustained());
    out.check(
        "p99_has_1000_samples",
        fixed_r.ack.len() >= MIN_P99_SAMPLES && queries.latency.len() >= MIN_P99_SAMPLES,
    );
    out.check("no_control_layer_ran", control == 0);

    if args.trace {
        let dispatch = obs_hist("tesla_net_request_seconds");
        let flush = obs_hist("historian_flush_seconds");
        let seal = obs_hist("historian_seal_seconds");
        let wal = obs_counter("historian_wal_records_total") - wal0;
        tesla_obs::set_enabled(false);
        for p in phases {
            for &(s, e) in &p.spans {
                tracer.record("client.push", s, e);
            }
        }
        for &(s, e) in &sat.spans {
            tracer.record("client.push", s, e);
        }
        for &(s, e) in &queries.spans {
            tracer.record("client.query", s, e);
        }
        let totals = tracer.totals();
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let depths: Vec<usize> = phases
            .iter()
            .flat_map(|p| p.depths.iter().copied())
            .collect();
        // Little's law over the fixed-rate phase: mean queue depth seen
        // by its acks over the rate the writers stored samples at.
        let mean_depth =
            fixed_r.depths.iter().sum::<usize>() as f64 / fixed_r.depths.len().max(1) as f64;
        let write_rate = fixed_r.acked_samples as f64 / fixed_s;
        let stats = service.historian.storage_stats();
        out.metric("client.push.busy_s", t("client.push").busy_s, "s");
        out.metric("client.push.calls", t("client.push").calls as f64, "count");
        out.metric("client.query.busy_s", t("client.query").busy_s, "s");
        out.metric(
            "client.query.calls",
            t("client.query").calls as f64,
            "count",
        );
        out.metric("net.dispatch.busy_s", dispatch.1 - dispatch0.1, "s");
        out.metric(
            "net.dispatch.calls",
            (dispatch.0 - dispatch0.0) as f64,
            "count",
        );
        out.metric(
            "net.queue_depth_max_samples",
            depths.iter().copied().max().unwrap_or(0) as f64,
            "samples",
        );
        out.metric("net.queue_wait_s", mean_depth / write_rate, "s");
        out.metric(
            "net.drop_ratio",
            dropped as f64 / pushed.max(1) as f64,
            "ratio",
        );
        out.metric("net.max_rate_sps", max_rate, "1/s");
        out.metric("historian.flush.busy_s", flush.1 - flush0.1, "s");
        out.metric(
            "historian.flush.calls",
            (flush.0 - flush0.0) as f64,
            "count",
        );
        out.metric("historian.seal.busy_s", seal.1 - seal0.1, "s");
        out.metric("historian.seal.calls", (seal.0 - seal0.0) as f64, "count");
        out.metric("historian.wal_records", wal as f64, "count");
        out.metric(
            "historian.bytes_per_sample",
            stats.bytes_per_sample().unwrap_or(0.0),
            "B/sample",
        );
    } else {
        let ack = fixed_r
            .ack
            .quantiles(&[0.5, 0.9, 0.99])
            .unwrap_or(vec![0.0; 3]);
        let query = queries
            .latency
            .quantiles(&[0.5, 0.9, 0.99])
            .unwrap_or(vec![0.0; 3]);
        let late = fixed_r.lateness.quantiles(&[0.99]).unwrap_or(vec![0.0]);
        out.metric("ingest_ack_p50_s", ack[0], "s");
        out.metric("ingest_ack_p90_s", ack[1], "s");
        out.metric("ingest_ack_p99_s", ack[2], "s");
        out.metric("ingest_ack_samples", fixed_r.ack.len() as f64, "count");
        out.metric("query_p50_s", query[0], "s");
        out.metric("query_p90_s", query[1], "s");
        out.metric("query_p99_s", query[2], "s");
        out.metric("query_samples", queries.latency.len() as f64, "count");
        out.metric("ingest_max_rate_sps", max_rate, "1/s");
        let sat_q = sat.rates.quantiles(&[0.5, 0.9]).unwrap_or(vec![0.0; 2]);
        out.metric("ingest_sustained_sps", sat_q[0], "1/s");
        out.metric("ingest_best_sps", sat_q[1], "1/s");
        out.metric("ingest_sustained_windows", sat.rates.len() as f64, "count");
        out.metric("generator_lateness_p99_s", late[0], "s");
        out.metric("generator_lateness_max_s", fixed_r.lateness.max(), "s");
        out.metric("peak_rss_run_mb", peak_rss_mb(), "MB");
        for (i, p) in phases.iter().enumerate().skip(1) {
            let q = p
                .ack
                .quantiles(&[0.9, 0.99])
                .unwrap_or(vec![f64::INFINITY; 2]);
            let rung = |what: &str| format!("rung{i:02}_{what}");
            out.metric(&rung("rate_sps"), p.rate_sps, "1/s");
            out.metric(&rung("ack_p90_s"), q[0], "s");
            out.metric(&rung("ack_p99_s"), q[1], "s");
            out.metric(&rung("backlog_s"), p.backlog_s(), "s");
            out.metric(&rung("writer_lag_s"), p.writer_lag_s, "s");
            out.metric(&rung("dropped_samples"), p.dropped as f64, "count");
            out.metric(
                &rung("sustained"),
                f64::from(u8::from(p.sustained())),
                "bool",
            );
        }
    }
    Ok(())
}
