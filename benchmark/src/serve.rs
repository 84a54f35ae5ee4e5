//! The `serve_socket` phase: a default-configured `Server` behind a `SocketServer`,
//! driven over the documented wire protocol by at most `nproc`
//! connections, one generator thread each (the calling thread drives
//! connection 0).
//!
//! * `open` — requests are due on a fixed 400 img/s schedule (split over
//!   the connections) and pipelined; latency runs from the due time, so a
//!   stalled generator or server shows up instead of hiding.
//! * `saturate` — each connection keeps `WINDOW` requests in flight.
//!
//! Every OK reply must equal offline `PackedSnn::predict` for its image.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use sushi_serve::socket::SocketServer;
use sushi_serve::{ServeConfig, Server, ServerStats};
use sushi_ssnn::{PackedFrames, PackedLayer, PackedSnn, PredictScratch};

use crate::trace::Tracer;
use crate::{median, percentile, secs, Report, Rng, RunCfg, Size};

/// Spike frames per image.
const FRAMES: usize = 10;
/// Input width of the 784-800-10 network.
const WIDTH: usize = 784;
/// Total open-loop arrival rate, about half the deadline-bound capacity
/// of two connections.
const OPEN_RATE: f64 = 400.0;
/// Requests each connection keeps in flight in the saturate phase.
const WINDOW: usize = 8;
/// Length of the windows the open p99 and the saturated rate are taken
/// over, in seconds; their medians are reported.
const WINDOW_S: f64 = 1.0;
/// Poll interval of the open-loop generator while it waits.
const POLL: Duration = Duration::from_micros(50);
/// Size of one wire response.
const RESPONSE: usize = 9;
/// Set-ups per run: starting the server takes about 0.1 ms, so many
/// repetitions are needed for a steady median.
const SETUP_REPS: usize = 201;

/// Images cycled through by the generators.
const POOL: usize = 256;

/// Hidden width of the served 784-h-10 network.
fn hidden(size: Size) -> usize {
    match size {
        Size::Paper => 800,
        Size::Small => 100,
    }
}

/// The 784-h-10 shape with seeded signs (1/8 open, 3/8 inhibitory) and
/// thresholds in 4..24.
fn packed_net(seed: u64, hidden: usize) -> PackedSnn {
    let mut rng = Rng::new(seed, 1);
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match rng.below(8) {
                0 => 0,
                1..=3 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| 4 + rng.below(20) as i64).collect();
        PackedLayer::from_parts(&signs, ins, outs, &thresholds)
    };
    PackedSnn::from_layers(vec![layer(WIDTH, hidden), layer(hidden, 10)])
}

/// Seeded images, each `FRAMES` frames about 30 % dense.
fn images(seed: u64, n: usize) -> Vec<Vec<Vec<bool>>> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            (0..FRAMES)
                .map(|_| (0..WIDTH).map(|_| rng.below(10) < 3).collect())
                .collect()
        })
        .collect()
}

/// One predict request in the socket wire format:
/// `[u8 op=1][u16 frames][u32 bits][frames, LSB-first bit-packed]`.
fn wire_request(frames: &[Vec<bool>]) -> Vec<u8> {
    let frame_count = u16::try_from(frames.len()).expect("frame count fits the header");
    let bits = u32::try_from(WIDTH).expect("width fits the header");
    let mut msg = vec![1u8];
    msg.extend_from_slice(&frame_count.to_le_bytes());
    msg.extend_from_slice(&bits.to_le_bytes());
    for f in frames {
        let mut bytes = vec![0u8; f.len().div_ceil(8)];
        for (i, &b) in f.iter().enumerate() {
            bytes[i / 8] |= u8::from(b) << (i % 8);
        }
        msg.extend_from_slice(&bytes);
    }
    msg
}

/// The seeded inputs and their offline answers, made before any timing.
struct Inputs {
    snn: PackedSnn,
    wire: Vec<Vec<u8>>,
    packed: Vec<PackedFrames>,
    offline: Vec<usize>,
}

fn inputs(cfg: &RunCfg) -> Inputs {
    let snn = packed_net(cfg.seed, hidden(cfg.size));
    let imgs = images(cfg.seed, POOL);
    Inputs {
        offline: imgs.iter().map(|im| snn.predict(im)).collect(),
        wire: imgs.iter().map(|im| wire_request(im)).collect(),
        packed: imgs
            .iter()
            .map(|im| PackedFrames::from_bool_frames(WIDTH, im))
            .collect(),
        snn,
    }
}

/// Server, socket and client connections. Field order is drop order:
/// clients hang up first so the per-connection server threads exit,
/// then the listener, then the executors.
struct Fixture {
    conns: Vec<UnixStream>,
    _socket: SocketServer,
    server: Server,
}

/// The timed set-up: start the server, bind its socket and connect.
fn start(snn: PackedSnn, conns: usize) -> std::io::Result<Fixture> {
    let server = Server::start(snn, ServeConfig::new());
    let path = format!("benchmark/out/serve-{}.sock", std::process::id());
    let socket = SocketServer::bind(&path, server.handle())?;
    let conns = (0..conns)
        .map(|_| UnixStream::connect(&path))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Fixture {
        conns,
        _socket: socket,
        server,
    })
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Done {
    id: u64,
    img: usize,
    due: Instant,
    sent: Instant,
    recv: Instant,
    status: u8,
    class: u32,
}

/// How a connection paces its requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// `count` requests due at `first + k * period`.
    Open {
        first: Instant,
        period: Duration,
        count: usize,
    },
    /// Keep `WINDOW` in flight until `until`, then drain.
    Window { until: Instant },
}

/// Drives one connection; `order` picks the image of each request.
fn drive(
    conn: &mut UnixStream,
    conn_idx: usize,
    pace: Pace,
    order: &mut Rng,
    wire: &[Vec<u8>],
    tracer: &mut Tracer,
) -> std::io::Result<Vec<Done>> {
    let open = matches!(pace, Pace::Open { .. });
    conn.set_nonblocking(open)?;
    let mut pending: VecDeque<(u64, usize, Instant, Instant)> = VecDeque::new();
    let mut done = Vec::new();
    let mut buf = [0u8; RESPONSE * 64];
    let mut filled = 0usize;
    let mut k = 0usize;
    let id_base = (conn_idx as u64) << 40;
    loop {
        let now = Instant::now();
        let next_due = match pace {
            Pace::Open {
                first,
                period,
                count,
            } => (k < count).then(|| first + period.mul_f64(k as f64)),
            Pace::Window { until } => (now < until && pending.len() < WINDOW).then_some(now),
        };
        if let Some(due) = next_due.filter(|&d| d <= now) {
            let img = order.below(wire.len() as u64) as usize;
            write_all_retry(conn, &wire[img])?;
            pending.push_back((id_base | k as u64, img, due, Instant::now()));
            k += 1;
            continue;
        }
        if next_due.is_none() && pending.is_empty() {
            return Ok(done);
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let recv = Instant::now();
                filled += n;
                let whole = filled / RESPONSE * RESPONSE;
                for r in buf[..whole].chunks_exact(RESPONSE) {
                    let (id, img, due, sent) = pending
                        .pop_front()
                        .ok_or_else(|| std::io::Error::other("reply without a request"))?;
                    let class = u32::from_le_bytes([r[1], r[2], r[3], r[4]]);
                    done.push(Done {
                        id,
                        img,
                        due,
                        sent,
                        recv,
                        status: r[0],
                        class,
                    });
                    let req = tracer.record("bench.request", due, recv, None, id);
                    if req.is_some() {
                        tracer.record("bench.gen_late", due, sent, req, id);
                        tracer.record("serve.rtt", sent, recv, req, id);
                    }
                }
                buf.copy_within(whole..filled, 0);
                filled -= whole;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let wait = next_due.map_or(POLL, |d| d.saturating_duration_since(now).min(POLL));
                std::thread::sleep(wait);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `write_all` that tolerates a non-blocking socket's `WouldBlock`.
fn write_all_retry(conn: &mut UnixStream, mut msg: &[u8]) -> std::io::Result<()> {
    while !msg.is_empty() {
        match conn.write(msg) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => msg = &msg[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs one phase on every connection at once; connection 0 on the
/// calling thread. Returns every answered request.
fn phase(
    fx: &mut Fixture,
    wire: &[Vec<u8>],
    seed: u64,
    phase_id: u64,
    pace: impl Fn(usize) -> Pace + Sync,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<Done>> {
    let on = tracer.on();
    let origin = tracer.origin();
    let (first, rest) = fx.conns.split_first_mut().expect("at least one connection");
    let pace = &pace;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let c = i + 1;
                s.spawn(move || {
                    let mut t = Tracer::new(on, origin);
                    let mut order = Rng::new(seed, 100 + phase_id * 16 + c as u64);
                    drive(conn, c, pace(c), &mut order, wire, &mut t).map(|d| (d, t))
                })
            })
            .collect();
        let mut t0 = Tracer::new(on, origin);
        let mut order = Rng::new(seed, 100 + phase_id * 16);
        let mine = drive(first, 0, pace(0), &mut order, wire, &mut t0).map(|d| (d, t0));
        let mut all = vec![mine];
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        all
    });
    let mut done = Vec::new();
    for r in results {
        let (d, t) = r?;
        done.extend(d);
        tracer.adopt(t);
    }
    Ok(done)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Counts the phase's requests and checks every reply against offline
/// inference.
fn check_replies(report: &mut Report, offline: &[usize], done: &[Done]) {
    for d in done {
        let ok = d.status == 0;
        report.op(ok);
        if ok {
            report.check(
                "serve.reply_equals_offline",
                d.class as usize == offline[d.img],
            );
        }
    }
}

/// The phase's state between set-up, the timed run and the report.
pub struct Serve {
    inp: Inputs,
    /// `None` once set-up or the run failed.
    fx: Option<Fixture>,
    conns: usize,
    before: Option<ServerStats>,
    open: Vec<Done>,
    sat: Vec<Done>,
    /// p99 of the open latency within each window of arrivals.
    p99s: Vec<f64>,
    /// Saturated throughput of each window.
    sat_rates: Vec<f64>,
    sat_wall: f64,
}

impl Serve {
    pub fn setup(cfg: &RunCfg, tracer: &mut Tracer, report: &mut Report) -> Self {
        let conns = cfg.cpus.clamp(1, 2);
        let (inp, fx, setup_s) = tracer.span("bench.setup", |t| {
            let inp = t.span("bench.inputs", |_| inputs(cfg));
            // Each set-up gets its own network; the clone is not timed.
            let mut fx = None;
            let mut times = Vec::with_capacity(SETUP_REPS);
            for _ in 0..SETUP_REPS {
                drop(fx.take());
                let snn = inp.snn.clone();
                let (f, dt) = secs(|| t.span("serve.start", |_| start(snn, conns)));
                times.push(dt);
                fx = Some(f);
            }
            (inp, fx.expect("at least one set-up"), median(&times))
        });
        report.setup_s = setup_s;
        let fx = match fx {
            Ok(fx) => Some(fx),
            Err(e) => {
                report.notes.push(format!("serve set-up failed: {e}"));
                report.op(false);
                None
            }
        };
        Self {
            before: fx.as_ref().map(|f| f.server.stats()),
            inp,
            fx,
            conns,
            open: Vec::new(),
            sat: Vec::new(),
            p99s: Vec::new(),
            sat_rates: Vec::new(),
            sat_wall: 0.0,
        }
    }

    /// The open phase, then the saturate phase, each half of `seconds`.
    pub fn run(&mut self, cfg: &RunCfg, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
        let Some(fx) = self.fx.as_mut() else {
            return;
        };
        let conns = self.conns;
        let wire = &self.inp.wire;
        let half = seconds / 2.0;
        // Open loop: each connection carries OPEN_RATE / conns, offset so
        // the connections interleave.
        let period = Duration::from_secs_f64(conns as f64 / OPEN_RATE);
        let count = ((half * OPEN_RATE / conns as f64) as usize).max(1);
        let start = Instant::now() + Duration::from_millis(5);
        let open = tracer.span("bench.open", |t| {
            phase(
                fx,
                wire,
                cfg.seed,
                0,
                |c| Pace::Open {
                    first: start + period.mul_f64(c as f64 / conns as f64),
                    period,
                    count,
                },
                t,
            )
        });
        // Saturate: closed windows for the other half.
        let sat_start = Instant::now();
        let until = sat_start + Duration::from_secs_f64(half);
        let sat = open.and_then(|open| {
            tracer
                .span("bench.saturate", |t| {
                    phase(fx, wire, cfg.seed, 1, |_| Pace::Window { until }, t)
                })
                .map(|sat| (open, sat))
        });
        let (open, sat) = match sat {
            Ok(both) => both,
            Err(e) => {
                // A broken connection leaves replies unread; stop here
                // rather than pair them with later requests.
                report.notes.push(format!("serve phase failed: {e}"));
                report.op(false);
                self.fx = None;
                return;
            }
        };
        check_replies(report, &self.inp.offline, &open);
        check_replies(report, &self.inp.offline, &sat);

        // p99 within each second of arrivals, the first second left out
        // as warm-up after set-up: a shared virtual machine can stall
        // every thread for a few ms about once a second, which hits close
        // to 1 % of a 400 img/s stream and would make a pooled p99 flip
        // between the stall and the program's own tail.
        let mut by_due: Vec<&Done> = open.iter().collect();
        by_due.sort_by_key(|d| d.due);
        let latency: Vec<f64> = by_due.iter().map(|d| ms(d.recv - d.due)).collect();
        let per_window = (OPEN_RATE * WINDOW_S) as usize;
        let mut windows: Vec<&[f64]> = latency.chunks_exact(per_window).collect();
        if windows.is_empty() {
            // A phase shorter than one window (short smoke runs).
            windows.push(&latency);
        }
        self.p99s.extend(
            windows
                .iter()
                .skip(usize::from(windows.len() > 1))
                .map(|w| percentile(w, 0.99)),
        );
        // Saturated throughput per one-second window: replies between the
        // window's first and last reply over the time between them.
        let sat_wall = until.duration_since(sat_start).as_secs_f64();
        let windows = ((sat_wall / WINDOW_S).floor() as usize).max(1);
        let width = sat_wall / windows as f64;
        let mut span: Vec<Option<(Instant, Instant, u64)>> = vec![None; windows];
        for d in sat.iter().filter(|d| d.recv <= until && d.status == 0) {
            let w = (d.recv.duration_since(sat_start).as_secs_f64() / width) as usize;
            let e = &mut span[w.min(windows - 1)];
            *e = Some(e.map_or((d.recv, d.recv, 1), |(a, b, n)| {
                (a.min(d.recv), b.max(d.recv), n + 1)
            }));
        }
        self.sat_rates.extend(
            span.iter()
                .flatten()
                .filter(|(a, b, n)| *n > 1 && b > a)
                .map(|&(a, b, n)| (n - 1) as f64 / (b - a).as_secs_f64()),
        );
        self.sat_wall += sat_wall;
        self.open.extend(open);
        self.sat.extend(sat);
    }

    pub fn finish(self, tracer: &mut Tracer, report: &mut Report) {
        let (Some(fx), Some(before)) = (self.fx, self.before) else {
            return;
        };
        let after = fx.server.stats();
        drop(fx);
        let open = &self.open;
        let latency: Vec<f64> = open.iter().map(|d| ms(d.recv - d.due)).collect();
        let rtt: Vec<f64> = open.iter().map(|d| us(d.recv - d.sent)).collect();
        let late: Vec<f64> = open.iter().map(|d| us(d.sent - d.due)).collect();
        let p50 = percentile(&latency, 0.50);
        report.notes.push(format!(
            "serve p99s {:?} sat {:?}",
            self.p99s, self.sat_rates
        ));
        report.e2e("serve_p50_ms", p50, "ms");
        // Reported with the layers, unbounded: see README.md.
        report.layer("serve_p99_ms", median(&self.p99s), "ms");
        report.e2e("serve_images_per_s", median(&self.sat_rates), "img/s");
        report.overhead_basis = p50;
        report.notes.push(format!(
            "serve: {} connections, open {} requests at {OPEN_RATE} img/s, saturate {} requests",
            self.conns,
            open.len(),
            self.sat.len()
        ));
        report.notes.push(format!(
            "serve: open latency ms pooled p98 {:.3} p99 {:.3} p99.5 {:.3}; per-second p99 min {:.3} max {:.3}; generator late > 1 ms on {} requests",
            percentile(&latency, 0.98),
            percentile(&latency, 0.99),
            percentile(&latency, 0.995),
            self.p99s.iter().copied().fold(f64::INFINITY, f64::min),
            self.p99s.iter().copied().fold(0.0, f64::max),
            late.iter().filter(|&&l| l > 1000.0).count()
        ));

        let rtt_p50 = percentile(&rtt, 0.50);
        report.layer("serve.rtt_p50_us", rtt_p50, "us");
        report.layer("serve.rtt_p99_us", percentile(&rtt, 0.99), "us");
        report.layer("serve.gen_late_p99_us", percentile(&late, 0.99), "us");
        let packed_us = if tracer.on() {
            replay(&self.inp, open, tracer)
        } else {
            0.0
        };
        report.layer("ssnn.packed_predict_us", packed_us, "us");
        report.layer("serve.overhead_us", rtt_p50 - packed_us, "us");
        stats_layers(report, &before, &after);
        let executors = ServeConfig::new().executors as f64;
        let busy = self.sat.len() as f64 * packed_us * 1e-6 / (executors * self.sat_wall);
        report.layer("serve.busy_share", busy, "ratio");
    }
}

/// Replays each open-loop request through the per-image packed path the
/// server's small batches take, with the request's id on its span;
/// returns the median time per request in µs.
fn replay(inp: &Inputs, open: &[Done], tracer: &mut Tracer) -> f64 {
    tracer.span("bench.replay", |t| {
        let mut scratch = PredictScratch::new();
        let mut times = Vec::with_capacity(open.len());
        for d in open {
            let t0 = Instant::now();
            let class = inp
                .snn
                .predict_packed_with(std::hint::black_box(&inp.packed[d.img]), &mut scratch);
            let t1 = Instant::now();
            std::hint::black_box(class);
            t.record("ssnn.predict_packed", t0, t1, None, d.id);
            times.push(us(t1 - t0));
        }
        median(&times)
    })
}

fn stats_layers(report: &mut Report, before: &ServerStats, after: &ServerStats) {
    let batches = after.batches - before.batches;
    let served = after.served - before.served;
    report.layer("serve.batches", batches as f64, "count");
    report.layer(
        "serve.mean_batch_size",
        if batches == 0 {
            0.0
        } else {
            served as f64 / batches as f64
        },
        "img/batch",
    );
    report.layer(
        "serve.bitplane_batches",
        (after.bitplane_batches - before.bitplane_batches) as f64,
        "count",
    );
    report.layer(
        "serve.stolen_batches",
        (after.stolen_batches - before.stolen_batches) as f64,
        "count",
    );
    report.layer(
        "serve.rejected",
        (after.rejected - before.rejected) as f64,
        "count",
    );
    report.layer(
        "serve.max_queue_depth",
        after.max_queue_depth as f64,
        "count",
    );
}
