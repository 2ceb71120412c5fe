//! The four workloads: inputs, set-up, generator loops and validation.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::{DataCell, OverflowPolicy, StreamWriter, Subscription, Value};
use datacell_net::NetServer;

use crate::gen::{self, Expect, Lines, Table};
use crate::stats::row_hash;
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkText,
    PacedWire,
    PacedEmbedded,
    Fanout,
}

pub const ALL: [Workload; 4] = [
    Workload::BulkText,
    Workload::PacedWire,
    Workload::PacedEmbedded,
    Workload::Fanout,
];

/// Offered rate of the open-loop workloads, tuples per second.
pub const PACED_RATE: f64 = 20_000.0;
/// Rows per input pool period of the closed-loop workloads.
const CLOSED_PERIOD: usize = 1 << 16;
/// Rows the TCP receptor buffers before a bulk append (`INGEST_BATCH` in
/// `datacell-net`); the inline variant of `paced-wire` replays it.
const RECEPTOR_BATCH: usize = 512;
/// How long to wait for results still owed after the load stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkText => "bulk-text",
            Workload::PacedWire => "paced-wire",
            Workload::PacedEmbedded => "paced-embedded",
            Workload::Fanout => "fanout-windows",
        }
    }

    pub fn paced(self) -> bool {
        matches!(self, Workload::PacedWire | Workload::PacedEmbedded)
    }

    /// Input rows per generator batch (a flush each).
    pub fn batch(self) -> usize {
        match self {
            Workload::BulkText => 1000,
            Workload::PacedWire => RECEPTOR_BATCH,
            Workload::PacedEmbedded => 1,
            Workload::Fanout => 512,
        }
    }

    /// Most input rows in flight in a closed loop. `bulk-text` is bound by
    /// its generator, so few rows are in flight; a small window keeps an
    /// engine hiccup from queueing many of them (and from moving p90).
    fn window(self) -> u64 {
        match self {
            Workload::BulkText => 4_000,
            _ => 8_192,
        }
    }

    /// Upper bound of the `v` filter of the workload's main query.
    pub fn filter_below(self) -> i64 {
        match self {
            Workload::BulkText => 100,
            Workload::PacedWire => 500,
            Workload::PacedEmbedded | Workload::Fanout => gen::V_DOMAIN as i64,
        }
    }

    /// DDL and continuous queries, in the order of `Inputs::expect`.
    pub fn statements(self) -> Vec<String> {
        let single = "create basket s (id int, v int, p int)".to_string();
        match self {
            Workload::BulkText => vec![
                single,
                "create continuous query q as select s2.id, s2.p*3+s2.v \
                 from [select * from s] as s2 where s2.v < 100"
                    .into(),
            ],
            Workload::PacedWire => vec![
                single,
                "create continuous query q as select s2.id, s2.p*3+s2.v \
                 from [select * from s where s.v < 500] as s2"
                    .into(),
            ],
            Workload::PacedEmbedded => vec![
                single,
                "create continuous query q as select s2.id, s2.p*3+s2.v \
                 from [select * from s] as s2"
                    .into(),
            ],
            Workload::Fanout => {
                let mut v = vec![
                    "create basket s (id int, g int, k int, v int)".to_string(),
                    "create basket r (k int, w int)".to_string(),
                ];
                for t in 0..gen::FAN_TAILS {
                    v.push(format!(
                        "create continuous query t{t} as select s2.id, s2.v \
                         from [select * from s where s.v < {}] as s2 where s2.g = {t}",
                        gen::V_DOMAIN
                    ));
                }
                v.push(format!(
                    "create continuous query agg as select s.g, count(*), sum(s.v) \
                     from s [rows {}] group by s.g",
                    gen::AGG_ROWS
                ));
                v.push(format!(
                    "create continuous query j as select s.id, r.w \
                     from s [rows {}], r [rows {}] where s.k = r.k",
                    gen::JOIN_S_ROWS,
                    gen::JOIN_R_ROWS
                ));
                v
            }
        }
    }
}

/// Everything generated from the seed before the timed region.
pub struct Inputs {
    pub s: Table,
    pub r: Option<Table>,
    /// `s` rendered as wire lines (text workloads only).
    pub lines: Option<Lines>,
    pub expect: Vec<Expect>,
}

impl Inputs {
    /// `paced_rows` sizes the open-loop pools: they never repeat, so each
    /// row's `id` is its global position.
    pub fn new(w: Workload, seed: u64, paced_rows: usize) -> Inputs {
        match w {
            Workload::Fanout => {
                let (s, r) = gen::fanout_streams(seed, CLOSED_PERIOD);
                let expect = gen::fanout_expect(&s, &r);
                Inputs {
                    s,
                    r: Some(r),
                    lines: None,
                    expect,
                }
            }
            _ => {
                let n = if w.paced() { paced_rows } else { CLOSED_PERIOD };
                let s = gen::single_stream(seed, n);
                let expect = vec![gen::filter_project("q", &s, w.filter_below())];
                let lines =
                    matches!(w, Workload::BulkText | Workload::PacedWire).then(|| s.lines());
                Inputs {
                    s,
                    r: None,
                    lines,
                    expect,
                }
            }
        }
    }
}

// ------------------------------------------------------------------ set-up

/// The client ends of the wire workload: one `STREAM` and one
/// `SUBSCRIBE` connection.
pub struct Wire {
    pub stream: TcpStream,
    pub sub: TcpStream,
}

/// A set-up system under test.
pub struct Env {
    pub cell: Arc<DataCell>,
    pub subs: Vec<Subscription>,
    pub ws: Option<StreamWriter>,
    pub wr: Option<StreamWriter>,
    pub server: Option<NetServer>,
    pub wire: Option<Wire>,
}

fn read_reply(sock: &mut TcpStream) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        match sock.read(&mut byte) {
            Ok(0) => return Err("connection closed during handshake".into()),
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(format!("handshake read: {e}")),
        }
    }
    let line = String::from_utf8_lossy(&line).trim_end().to_string();
    if line.starts_with("OK") {
        Ok(line)
    } else {
        Err(format!("unexpected reply: {line}"))
    }
}

fn connect(addr: std::net::SocketAddr, hello: &str) -> Result<TcpStream, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    read_reply(&mut sock)?;
    sock.write_all(hello.as_bytes())
        .map_err(|e| e.to_string())?;
    read_reply(&mut sock)?;
    Ok(sock)
}

/// Build the cell, run the DDL, register the queries, subscribe, and (on
/// `paced-wire`) bind the server and open both connections. `live: false`
/// builds the inline variant: no background scheduler and no server, so
/// the caller drives every firing.
pub fn setup(w: Workload, inputs: &Inputs, live: bool) -> Result<Env, String> {
    let wire = live && w == Workload::PacedWire;
    // Plan sharing only changes plans with a shared prefix: the fan-out
    // tails.
    let mut b = DataCell::builder()
        .auto_start(live)
        .plan_sharing(w == Workload::Fanout);
    if wire {
        b = b.listen("127.0.0.1:0");
    }
    let cell = Arc::new(b.build());
    for sql in w.statements() {
        cell.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
    }
    if wire {
        let server = NetServer::start(&cell)
            .map_err(|e| e.to_string())?
            .ok_or("no listen address")?;
        let addr = server.local_addr();
        let sub = connect(addr, "SUBSCRIBE q\n")?;
        sub.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stream = connect(addr, "STREAM s\n")?;
        return Ok(Env {
            cell,
            subs: Vec::new(),
            ws: None,
            wr: None,
            server: Some(server),
            wire: Some(Wire { stream, sub }),
        });
    }
    let mut subs = Vec::new();
    for e in &inputs.expect {
        subs.push(cell.subscribe(&e.query).map_err(|e| e.to_string())?);
    }
    // Writers never flush on their own: the generator flushes after each
    // batch, so the append and flush layers can be timed apart.
    let writer = |name: &str| {
        cell.writer_with(name, usize::MAX, None, OverflowPolicy::Block)
            .map_err(|e| e.to_string())
    };
    let ws = Some(writer("s")?);
    let wr = if inputs.r.is_some() {
        Some(writer("r")?)
    } else {
        None
    };
    Ok(Env {
        cell,
        subs,
        ws,
        wr,
        server: None,
        wire: None,
    })
}

pub fn teardown(env: Env) {
    let Env {
        cell,
        subs,
        ws,
        wr,
        server,
        wire,
    } = env;
    drop(wire);
    if let Some(server) = server {
        server.stop();
    }
    drop((ws, wr));
    cell.stop();
    drop(subs);
}

// --------------------------------------------------------------- receiving

fn ints(row: &[Value], out: &mut Vec<i64>) {
    out.clear();
    for v in row {
        out.push(match v {
            Value::Int(i) => *i,
            // Anything but an integer is wrong here; map it to a value the
            // reference never produces so the checksum catches it.
            other => i64::MIN ^ row_hash(&[other.to_string().len() as i64]) as i64,
        });
    }
}

/// How a result row's latency origin is found.
pub enum Stamps {
    /// Open loop: input `i` was due at `due_at(start, i)`.
    Paced { start: Instant },
    /// Closed loop: the time each generator batch reached its basket, in
    /// a ring.
    Batches { batch: u64, ring: Vec<Instant> },
}

impl Stamps {
    fn stamp(&self, input: u64) -> Instant {
        match self {
            Stamps::Paced { start } => due_at(*start, input),
            Stamps::Batches { batch, ring } => ring[((input / batch) as usize) % ring.len()],
        }
    }
}

/// Per-query counts and checksums of delivered rows, plus latency samples.
pub struct Collector<'a> {
    pub expect: &'a [Expect],
    pub count: Vec<u64>,
    pub hash: Vec<u64>,
    pub latency_us: Vec<f64>,
    pub stamps: Stamps,
    /// Every how many rows of a query one is a latency sample: high-rate
    /// workloads keep a fixed subset so the samples do not move RSS.
    pub sample_every: u64,
    /// Inputs whose rows are latency samples: `[lo, hi)`.
    pub sample_from: u64,
    pub sample_to: u64,
    scratch: Vec<i64>,
}

impl<'a> Collector<'a> {
    pub fn new(expect: &'a [Expect], stamps: Stamps, sample_every: u64) -> Self {
        Collector {
            sample_every: sample_every.max(1),
            expect,
            count: vec![0; expect.len()],
            hash: vec![0; expect.len()],
            latency_us: Vec::new(),
            stamps,
            sample_from: u64::MAX,
            sample_to: u64::MAX,
            scratch: Vec::new(),
        }
    }

    fn accept_ints(&mut self, q: usize, row: &[i64], now: Instant) {
        let idx = self.count[q];
        self.count[q] += 1;
        self.hash[q] = self.hash[q].wrapping_add(row_hash(row));
        // Rows of one query arrive in input order, so the idx-th row is
        // the reference's idx-th row; a reordering would only skew the
        // latency attribution, the checksum does not depend on order.
        let e = &self.expect[q];
        if idx.is_multiple_of(self.sample_every) && e.rows_for(e.period) > 0 {
            let last = e.last_input(idx);
            if last >= self.sample_from && last < self.sample_to {
                let us = now.saturating_duration_since(self.stamps.stamp(last));
                self.latency_us.push(us.as_secs_f64() * 1e6);
            }
        }
    }

    pub fn accept(&mut self, q: usize, row: &[Value], now: Instant) {
        let mut s = std::mem::take(&mut self.scratch);
        ints(row, &mut s);
        self.accept_ints(q, &s, now);
        self.scratch = s;
    }

    /// Inputs all of whose results have been delivered.
    pub fn completed(&self) -> u64 {
        self.expect
            .iter()
            .zip(&self.count)
            .map(|(e, &c)| e.completed(c))
            .min()
            .unwrap_or(0)
    }

    /// Every row owed for `inputs` sent has arrived.
    pub fn caught_up(&self, inputs: u64) -> bool {
        self.expect
            .iter()
            .zip(&self.count)
            .all(|(e, &c)| c >= e.rows_for(inputs))
    }

    /// (missing or wrong rows, expected rows) against the reference.
    pub fn validate(&self, inputs: u64) -> (u64, u64) {
        let mut failed = 0;
        let mut expected = 0;
        for (q, e) in self.expect.iter().enumerate() {
            let want = e.rows_for(inputs);
            expected += want;
            if self.count[q] != want || self.hash[q] != e.hash_for(want) {
                eprintln!(
                    "perfbench: query {} delivered {} rows (checksum {:x}), expected {} ({:x})",
                    e.query,
                    self.count[q],
                    self.hash[q],
                    want,
                    e.hash_for(want)
                );
                failed += want.max(self.count[q].abs_diff(want)).max(1);
            }
        }
        (failed, expected)
    }
}

/// Pull every queued row from every subscription; returns rows taken.
/// Traced, one `client.recv` span per burst, covering only the time
/// inside the receive calls.
pub fn receive_all(
    env: &Env,
    col: &mut Collector,
    tr: &mut Tracer,
    batch: u64,
) -> Result<u64, String> {
    let mut total = 0;
    for (q, sub) in env.subs.iter().enumerate() {
        let burst_start = Instant::now();
        let mut inside_ns = 0u64;
        let mut last_end = burst_start;
        let mut n = 0;
        loop {
            let t0 = if tr.enabled() {
                Instant::now()
            } else {
                burst_start
            };
            let row = sub
                .try_next()
                .map_err(|e| format!("{}: {e}", sub.query()))?;
            let Some(row) = row else { break };
            let now = Instant::now();
            if tr.enabled() {
                inside_ns += (now - t0).as_nanos() as u64;
                last_end = now;
            }
            col.accept(q, &row, now);
            n += 1;
        }
        if n > 0 {
            tr.record_busy("client.recv", batch, burst_start, last_end, inside_ns, n);
            total += n;
        }
    }
    Ok(total)
}

/// Block up to `wait` for one row on the query furthest behind.
fn wait_for_row(env: &Env, col: &mut Collector, wait: Duration) -> Result<(), String> {
    let Some(q) = (0..env.subs.len()).min_by_key(|&q| col.expect[q].completed(col.count[q])) else {
        return Ok(());
    };
    let row = env.subs[q]
        .next_timeout(wait)
        .map_err(|e| format!("{}: {e}", env.subs[q].query()))?;
    if let Some(row) = row {
        col.accept(q, &row, Instant::now());
    }
    Ok(())
}

// ---------------------------------------------------------------- feeding

/// Append `n` rows from position `from` and the `r` rows that go with
/// them, without flushing: span `client.append`.
fn append(
    env: &mut Env,
    inputs: &Inputs,
    from: u64,
    n: usize,
    tr: &mut Tracer,
    batch: u64,
) -> Result<(), String> {
    let ws = env.ws.as_mut().ok_or("no writer")?;
    let to = from + n as u64;
    tr.span("client.append", batch, || {
        let res: Result<(), String> = (from..to).try_for_each(|i| {
            let at = (i % inputs.s.len() as u64) as usize;
            match &inputs.lines {
                Some(lines) => ws.append_text(lines.get(at)),
                None => ws.append(
                    inputs
                        .s
                        .row(at)
                        .iter()
                        .map(|&v| Value::Int(v))
                        .collect::<Vec<_>>(),
                ),
            }
            .map_err(|e| e.to_string())
        });
        (res, n as u64)
    })?;
    if let (Some(wr), Some(r)) = (env.wr.as_mut(), inputs.r.as_ref()) {
        let every = gen::R_EVERY as u64;
        // `r` rows carry no items of their own: their cost is spread over
        // the `s` rows they travel with.
        tr.span("client.append", batch, || {
            let res: Result<(), String> = (from / every..to / every).try_for_each(|i| {
                let row = r.row((i % r.len() as u64) as usize);
                wr.append(row.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
                    .map_err(|e| e.to_string())
            });
            (res, 0)
        })?;
    }
    Ok(())
}

/// Flush every writer (`n` rows of `s` pending): span `basket.append`.
fn flush(env: &mut Env, tr: &mut Tracer, batch: u64, n: usize) -> Result<(), String> {
    let mut items = n as u64;
    for w in env.ws.iter_mut().chain(env.wr.iter_mut()) {
        tr.span("basket.append", batch, || {
            (w.flush().map_err(|e| e.to_string()), items)
        })?;
        items = 0;
    }
    Ok(())
}

/// Append `n` rows from position `from`, then flush.
pub fn feed(
    env: &mut Env,
    inputs: &Inputs,
    from: u64,
    n: usize,
    tr: &mut Tracer,
    batch: u64,
) -> Result<(), String> {
    append(env, inputs, from, n, tr, batch)?;
    flush(env, tr, batch, n)
}

// ------------------------------------------------------------ live loops

/// Samples taken while a live loop runs.
#[derive(Default)]
pub struct LoopOut {
    /// Inputs sent in total (warm-up included).
    pub sent: u64,
    /// Inputs complete when the timed region began, and at its end.
    pub completed_warm: u64,
    pub completed_end: u64,
    pub t_warm: Option<Instant>,
    pub t_end: Option<Instant>,
    pub lag_us: Vec<f64>,
    pub resident_peak: usize,
    /// Input rows refused by the engine (decode errors).
    pub rejected: u64,
    /// Results still owed when the drain gave up.
    pub drain_timed_out: bool,
}

/// Engine counters read at the start and at the end of the timed region.
#[derive(Default)]
pub struct Snap {
    pub cpu_ns: f64,
    pub threads: std::collections::HashMap<u32, (&'static str, f64)>,
    pub trans: Vec<datacell::SchedulerMetrics>,
    /// (workers, tasks, steals, busy µs summed over workers)
    pub pool: Option<(usize, u64, u64, u64)>,
    pub thread_count: usize,
    /// Machine-wide CPU ticks: (stolen by the hypervisor, all).
    pub host_ticks: (u64, u64),
}

impl Snap {
    fn take(env: &Env) -> Snap {
        let sched = env.cell.scheduler();
        Snap {
            cpu_ns: crate::probe::process_cpu_ns(),
            threads: crate::probe::thread_cpu(),
            trans: sched.transition_metrics(),
            pool: sched.exec_snapshot().map(|p| {
                let busy = p.per_worker.iter().map(|w| w.busy_micros).sum();
                (p.workers, p.tasks, p.steals, busy)
            }),
            thread_count: crate::probe::thread_count(),
            host_ticks: crate::probe::host_ticks(),
        }
    }
}

/// Counters at the start and at the end of the timed region.
#[derive(Default)]
pub struct Marks {
    pub warm: Snap,
    pub end: Snap,
}

fn resident(env: &Env) -> usize {
    ["s", "r"]
        .iter()
        .filter_map(|b| env.cell.basket(b).ok())
        .map(|b| b.len())
        .sum()
}

pub struct Timing {
    pub warm: Duration,
    pub seconds: Duration,
}

/// The timed region of a live loop: a warm-up, then `seconds` of load.
struct Clock {
    warm_at: Instant,
    stop_at: Instant,
    next_sample: Instant,
}

impl Clock {
    fn start(timing: &Timing) -> (Clock, Instant) {
        let start = Instant::now();
        let warm_at = start + timing.warm;
        let clock = Clock {
            warm_at,
            stop_at: warm_at + timing.seconds,
            next_sample: start,
        };
        (clock, start)
    }

    /// Once per loop turn: open the timed region when the warm-up ends
    /// and sample resident rows every ms. `None` once the load must stop.
    fn tick(
        &mut self,
        env: &Env,
        col: &mut Collector,
        out: &mut LoopOut,
        marks: &mut Marks,
    ) -> Option<Instant> {
        let now = Instant::now();
        if out.t_warm.is_none() && now >= self.warm_at {
            marks.warm = Snap::take(env);
            out.t_warm = Some(Instant::now());
            out.completed_warm = col.completed();
            col.sample_from = out.sent;
        }
        if now >= self.stop_at {
            return None;
        }
        if now >= self.next_sample {
            out.resident_peak = out.resident_peak.max(resident(env));
            self.next_sample = now + Duration::from_millis(1);
        }
        Some(now)
    }
}

/// After the load stops: poll until every row owed for the inputs sent
/// has arrived (or the drain times out), then close the timed region.
fn drain(
    env: &Env,
    col: &mut Collector,
    out: &mut LoopOut,
    marks: &mut Marks,
    mut poll: impl FnMut(&mut Collector) -> Result<(), String>,
) -> Result<(), String> {
    col.sample_to = out.sent;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !col.caught_up(out.sent) && Instant::now() < deadline {
        poll(col)?;
    }
    out.drain_timed_out = !col.caught_up(out.sent);
    out.t_end = Some(Instant::now());
    out.completed_end = col.completed();
    marks.end = Snap::take(env);
    Ok(())
}

/// Take what the subscriptions hold, or block up to 1 ms for a row.
fn poll_subs(env: &Env, col: &mut Collector, tr: &mut Tracer, batch: u64) -> Result<(), String> {
    if receive_all(env, col, tr, batch)? == 0 {
        wait_for_row(env, col, Duration::from_millis(1))?;
    }
    Ok(())
}

fn rejected(env: &Env) -> u64 {
    env.ws
        .iter()
        .chain(env.wr.iter())
        .map(|w| w.stats().rejected)
        .sum()
}

/// Closed loop: keep at most `window` inputs in flight, send a batch
/// whenever there is room, take whatever results are ready.
pub fn closed_loop(
    w: Workload,
    env: &mut Env,
    inputs: &Inputs,
    col: &mut Collector,
    tr: &mut Tracer,
    timing: &Timing,
    marks: &mut Marks,
) -> Result<LoopOut, String> {
    let b = w.batch() as u64;
    let mut out = LoopOut::default();
    let (mut clock, _) = Clock::start(timing);
    let mut batch_no = 0u64;
    while clock.tick(env, col, &mut out, marks).is_some() {
        let room = out.sent + b <= col.completed() + w.window();
        if room {
            // Results are taken between quarters of a batch too, so a
            // row waits for the client only as long as a quarter batch.
            let quarter = b / 4;
            for k in 0..4 {
                append(
                    env,
                    inputs,
                    out.sent + k * quarter,
                    quarter as usize,
                    tr,
                    batch_no,
                )?;
                if k < 3 {
                    receive_all(env, col, tr, batch_no)?;
                }
            }
            flush(env, tr, batch_no, b as usize)?;
            // A batch's rows are stamped when they reach the basket.
            if let Stamps::Batches { ring, .. } = &mut col.stamps {
                let len = ring.len();
                ring[batch_no as usize % len] = Instant::now();
            }
            out.sent += b;
            batch_no += 1;
        }
        let got = receive_all(env, col, tr, batch_no)?;
        if got == 0 && !room {
            wait_for_row(env, col, Duration::from_millis(1))?;
        }
    }
    drain(env, col, &mut out, marks, |col| {
        poll_subs(env, col, tr, batch_no)
    })?;
    out.rejected = rejected(env);
    Ok(out)
}

/// Open loop in-process: every input is appended and flushed when due.
pub fn paced_embedded(
    env: &mut Env,
    inputs: &Inputs,
    col: &mut Collector,
    tr: &mut Tracer,
    timing: &Timing,
    marks: &mut Marks,
) -> Result<LoopOut, String> {
    let mut out = LoopOut::default();
    let (mut clock, start) = Clock::start(timing);
    col.stamps = Stamps::Paced { start };
    let due = |i: u64| due_at(start, i);
    let total = inputs.s.len() as u64;
    while let Some(now) = clock.tick(env, col, &mut out, marks) {
        while out.sent < total && due(out.sent) <= now {
            if out.t_warm.is_some() {
                out.lag_us.push((now - due(out.sent)).as_secs_f64() * 1e6);
            }
            feed(env, inputs, out.sent, 1, tr, out.sent)?;
            out.sent += 1;
        }
        receive_all(env, col, tr, out.sent)?;
        let wait = due(out.sent).saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            wait_for_row(env, col, wait)?;
        }
    }
    let sent = out.sent;
    drain(env, col, &mut out, marks, |col| {
        poll_subs(env, col, tr, sent)
    })?;
    out.rejected = rejected(env);
    Ok(out)
}

/// When open-loop input `i` is due.
fn due_at(start: Instant, i: u64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / PACED_RATE)
}

/// Parse complete `id,value` lines out of `buf`, leaving a partial tail.
fn take_lines(buf: &mut Vec<u8>, col: &mut Collector, now: Instant) -> u64 {
    let mut n = 0;
    let mut start = 0;
    let mut row = Vec::with_capacity(2);
    while let Some(pos) = buf[start..].iter().position(|&c| c == b'\n') {
        let line = String::from_utf8_lossy(&buf[start..start + pos]);
        row.clear();
        for field in line.trim_end().split(',') {
            row.push(field.trim().parse::<i64>().unwrap_or(i64::MIN));
        }
        col.accept_ints(0, &row, now);
        n += 1;
        start += pos + 1;
    }
    buf.drain(..start);
    n
}

/// Read whatever the subscribe socket holds; one `net.read` span per
/// read call that returned data.
fn read_wire(
    sub: &mut TcpStream,
    buf: &mut Vec<u8>,
    col: &mut Collector,
    tr: &mut Tracer,
    batch: u64,
) -> Result<u64, String> {
    let mut chunk = [0u8; 64 * 1024];
    let mut rows = 0;
    loop {
        let t0 = Instant::now();
        match sub.read(&mut chunk) {
            Ok(0) => return Err("subscribe connection closed".into()),
            Ok(k) => {
                let t1 = Instant::now();
                buf.extend_from_slice(&chunk[..k]);
                let n = take_lines(buf, col, t1);
                tr.record("net.read", batch, t0, t1, n);
                rows += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(rows),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("subscribe read: {e}")),
        }
    }
}

/// Open loop over TCP: due lines are written to the `STREAM` connection,
/// results read from the `SUBSCRIBE` connection, both by this one thread.
/// Ends with `SYNC`, so the receptor lands its last partial batch.
pub fn paced_wire(
    env: &mut Env,
    inputs: &Inputs,
    col: &mut Collector,
    tr: &mut Tracer,
    timing: &Timing,
    marks: &mut Marks,
) -> Result<LoopOut, String> {
    let lines = inputs.lines.as_ref().ok_or("no lines")?;
    let mut out = LoopOut::default();
    let mut wire = env.wire.take().ok_or("no connections")?;
    let mut pending = Vec::new();
    let mut outbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let (mut clock, start) = Clock::start(timing);
    col.stamps = Stamps::Paced { start };
    let due = |i: u64| due_at(start, i);
    let total = lines.len() as u64;
    let result: Result<(), String> = (|| {
        while let Some(now) = clock.tick(env, col, &mut out, marks) {
            let first = out.sent;
            let t0 = Instant::now();
            while out.sent < total && due(out.sent) <= now {
                if out.t_warm.is_some() {
                    out.lag_us.push((now - due(out.sent)).as_secs_f64() * 1e6);
                }
                outbuf.extend_from_slice(lines.get(out.sent as usize).as_bytes());
                outbuf.push(b'\n');
                out.sent += 1;
            }
            if out.sent > first {
                let n = out.sent - first;
                tr.record("client.append", first, t0, Instant::now(), n);
                tr.span("net.write", first, || (wire.stream.write_all(&outbuf), n))
                    .map_err(|e| format!("stream write: {e}"))?;
                outbuf.clear();
            }
            read_wire(&mut wire.sub, &mut pending, col, tr, out.sent)?;
            let wait = due(out.sent).saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait.min(Duration::from_millis(1)));
            }
        }
        wire.stream
            .write_all(b"SYNC\n")
            .map_err(|e| format!("sync: {e}"))?;
        let reply = read_reply(&mut wire.stream)?;
        // `OK SYNC <accepted> <rejected>`
        let fields: Vec<&str> = reply.split_whitespace().collect();
        let accepted: u64 = fields.get(2).and_then(|f| f.parse().ok()).unwrap_or(0);
        let refused: u64 = fields
            .get(3)
            .and_then(|f| f.parse().ok())
            .unwrap_or(out.sent);
        out.rejected = refused + out.sent.saturating_sub(accepted + refused);
        let sent = out.sent;
        drain(env, col, &mut out, marks, |col| {
            if read_wire(&mut wire.sub, &mut pending, col, tr, sent)? == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(())
        })
    })();
    env.wire = Some(wire);
    result.map(|()| out)
}

// ---------------------------------------------------------------- inline

/// Result of the inline variant: the layers run in sequence on this
/// thread, so their spans should add up to the wall time.
pub struct Inline {
    pub tuples: u64,
    pub wall_ns: f64,
    pub tracer: Tracer,
    pub failed: u64,
    pub expected: u64,
}

/// Scheduler passes per inline batch. A consume-all pipeline goes
/// quiescent within a few; a predicate window that leaves tuples behind
/// stays ready forever and would never return (seed finding 2).
const INLINE_PASSES: usize = 8;

pub const INLINE_LAYERS: [&str; 4] = [
    "client.append",
    "basket.append",
    "scheduler.inline",
    "emitter.inline",
];

/// Drive the workload's queries with no background scheduler: append a
/// batch, flush it, run the scheduler until quiescent, then wait for the
/// emitters to deliver every row owed.
pub fn inline_run(w: Workload, inputs: &Inputs, budget: Duration) -> Result<Inline, String> {
    let mut env = setup(w, inputs, false)?;
    let mut tr = Tracer::new(true);
    let mut col = Collector::new(
        &inputs.expect,
        Stamps::Batches {
            batch: 1,
            ring: vec![Instant::now()],
        },
        1,
    );
    let b = w.batch() as u64;
    // The open-loop workloads have finite pools; the closed ones repeat.
    let cap = if w.paced() {
        inputs.s.len() as u64
    } else {
        u64::MAX
    };
    let start = Instant::now();
    let mut sent = 0u64;
    let mut batch_no = 0;
    while start.elapsed() < budget && sent + b <= cap {
        feed(&mut env, inputs, sent, b as usize, &mut tr, batch_no)?;
        sent += b;
        let cell = Arc::clone(&env.cell);
        tr.span("scheduler.inline", batch_no, || {
            (cell.run_until_quiescent(INLINE_PASSES), b)
        });
        let t0 = Instant::now();
        let deadline = t0 + DRAIN_TIMEOUT;
        while !col.caught_up(sent) && Instant::now() < deadline {
            for (q, sub) in env.subs.iter().enumerate() {
                while col.count[q] < col.expect[q].rows_for(sent) {
                    match sub.next_timeout(Duration::from_millis(5)) {
                        Ok(Some(row)) => col.accept(q, &row, Instant::now()),
                        Ok(None) => break,
                        Err(e) => return Err(format!("{}: {e}", sub.query())),
                    }
                }
            }
        }
        tr.record("emitter.inline", batch_no, t0, Instant::now(), b);
        batch_no += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let (failed, expected) = col.validate(sent);
    teardown(env);
    Ok(Inline {
        tuples: sent,
        wall_ns,
        tracer: tr,
        failed,
        expected,
    })
}
