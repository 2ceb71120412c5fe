//! Per-layer metrics of a traced round: engine counters read from the
//! outside, spans around the generator's calls, layers timed alone over
//! the workload's own data, and the inline variant.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use datacell::{HistogramSnapshot, SchedulerMetrics, Value};
use datacell_baseline::ops::MapOp;
use datacell_baseline::{Projection, Query, Selection, Tuple, TupleEngine};
use datacell_bat::{select::select_range, Bat, DataType};
use datacell_sql::Schema;

use crate::gen::FAN_TAILS;
use crate::probe::{thread_cpu_delta, THREAD_GROUPS};
use crate::stats::{percentile, Metrics};
use crate::workload::{inline_run, Env, Workload, INLINE_LAYERS};
use crate::Round;

/// Median of the per-query delivery-latency histograms merged into one
/// (power-of-two buckets: coarse by construction).
pub fn merged_p50(per_query: &[(String, HistogramSnapshot)]) -> f64 {
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    let mut merged = HistogramSnapshot::default();
    for (_, h) in per_query {
        merged.count += h.count;
        merged.sum_micros += h.sum_micros;
        merged.max_micros = merged.max_micros.max(h.max_micros);
        for &(bound, n) in &h.buckets {
            match buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some(slot) => slot.1 += n,
                None => buckets.push((bound, n)),
            }
        }
    }
    buckets.sort_unstable();
    merged.buckets = buckets;
    merged.quantile_micros(0.5) as f64
}

/// Counter growth of each transition over the timed region.
fn transition_deltas(warm: &[SchedulerMetrics], end: &[SchedulerMetrics]) -> Vec<SchedulerMetrics> {
    let before: HashMap<&str, &SchedulerMetrics> =
        warm.iter().map(|t| (t.name.as_str(), t)).collect();
    end.iter()
        .map(|t| {
            let b = before.get(t.name.as_str());
            let d = |f: fn(&SchedulerMetrics) -> u64| f(t).saturating_sub(b.map_or(0, |b| f(b)));
            SchedulerMetrics {
                name: t.name.clone(),
                firings: d(|m| m.firings),
                busy_micros: d(|m| m.busy_micros),
                tuples_in: d(|m| m.tuples_in),
                deferrals: d(|m| m.deferrals),
                sched_delay_micros: d(|m| m.sched_delay_micros),
                ..Default::default()
            }
        })
        .collect()
}

enum Class {
    ShareHead,
    ShareTail,
    Window,
    WindowJoin,
    Plain,
}

fn classify(name: &str) -> Class {
    if name.starts_with("mqo") && name.contains("head") {
        Class::ShareHead
    } else if name == "agg" {
        Class::Window
    } else if name == "j" {
        Class::WindowJoin
    } else if name.len() == 2 && name.starts_with('t') {
        Class::ShareTail
    } else {
        Class::Plain
    }
}

/// ns per item of `f`, which handles `items` items per call, repeated
/// until `min` has passed.
fn time_alone(min: Duration, items: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < min || calls == 0 {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls as f64 * items.max(1) as f64)
}

const CALIBRATE: Duration = Duration::from_millis(100);
/// Rows the layers timed alone run over.
const CALIBRATE_ROWS: usize = 1 << 14;

/// `datacell::text::parse_tuple` over the workload's rows as wire lines.
fn parse_ns(r: &Round) -> f64 {
    let s = &r.inputs.s;
    let owned;
    let lines = match &r.inputs.lines {
        Some(l) => l,
        None => {
            owned = s.lines();
            &owned
        }
    };
    let schema = Schema::new(
        (0..s.width)
            .map(|c| (format!("c{c}"), DataType::Int))
            .collect(),
    );
    let n = lines.len().min(CALIBRATE_ROWS);
    time_alone(CALIBRATE, n, || {
        for i in 0..n {
            black_box(datacell::text::parse_tuple(lines.get(i), &schema).ok());
        }
    })
}

/// `select_range` over the `v` column with the workload's filter bound.
fn select_ns(r: &Round) -> f64 {
    let w = r.args.workload;
    let vcol = if w == Workload::Fanout { 3 } else { 1 };
    let mut v = r.inputs.s.column(vcol);
    v.truncate(CALIBRATE_ROWS);
    let n = v.len();
    let bat = Bat::from_ints(v);
    let hi = Value::Int(w.filter_below());
    time_alone(CALIBRATE, n, || {
        black_box(select_range(&bat, None, Some(&hi), true, false, false, None).ok());
    })
}

/// The workload's filter-and-project queries through the tuple-at-a-time
/// baseline engine (the fan-out workload's windowed queries have no
/// counterpart there and are left out).
fn baseline_ns(r: &Round) -> f64 {
    let w = r.args.workload;
    let mut engine = TupleEngine::new();
    if w == Workload::Fanout {
        for t in 0..FAN_TAILS as i64 {
            engine.add_query(Query::new(
                format!("t{t}"),
                vec![
                    Box::new(Selection {
                        column: 1,
                        lo: t,
                        hi: t,
                    }),
                    Box::new(Projection {
                        columns: vec![0, 3],
                    }),
                ],
            ));
        }
    } else {
        engine.add_query(Query::new(
            "q",
            vec![
                Box::new(Selection {
                    column: 1,
                    lo: i64::MIN + 1,
                    hi: w.filter_below() - 1,
                }),
                Box::new(MapOp::new(|t: &Tuple| {
                    let (id, v, p) = (
                        t.values[0].as_int()?,
                        t.values[1].as_int()?,
                        t.values[2].as_int()?,
                    );
                    Some(Tuple::new(
                        vec![Value::Int(id), Value::Int(p * 3 + v)],
                        t.ts,
                    ))
                })),
            ],
        ));
    }
    let s = &r.inputs.s;
    let n = s.len().min(CALIBRATE_ROWS);
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(s.row(i).iter().map(|&v| Value::Int(v)).collect(), 0))
        .collect();
    let queries = engine.query_count();
    time_alone(CALIBRATE, n, || {
        engine.push_all(&tuples);
        for q in 0..queries {
            black_box(engine.query_mut(q).drain_results());
        }
    })
}

/// Add every per-layer metric of a traced round. Returns whether the
/// trace's own checks held.
pub fn per_layer(
    r: &mut Round,
    env: &Env,
    m: &mut Metrics,
    spans: Option<&Path>,
    tag: &str,
) -> Result<bool, String> {
    let w = r.args.workload;
    let tuples = r.tuples();
    let elapsed = r.elapsed_s();
    let mut ok = true;

    // Layers timed alone over the workload's data.
    m.put("text.parse_ns_per_tuple", parse_ns(r), "ns");
    m.put("bat.select_ns_per_tuple", select_ns(r), "ns");
    let baseline = baseline_ns(r);
    m.put("baseline.tuple_ns_per_tuple", baseline, "ns");

    // The inline variant: same queries, no background threads but the
    // emitters, every layer in sequence on this thread.
    let budget = Duration::from_secs_f64((r.args.seconds / 4.0).clamp(0.2, 1.0));
    let inline = inline_run(w, r.inputs, budget)?;
    r.failed += inline.failed;
    r.attempted += inline.expected + inline.tuples;
    let it = &inline.tracer;
    let per_inline = |layer: &str| it.total(layer).ns / inline.tuples.max(1) as f64;
    let covered: f64 = INLINE_LAYERS.iter().map(|l| it.total(l).ns).sum();
    let unattributed = 1.0 - covered / inline.wall_ns.max(1.0);
    let sched_inline = per_inline("scheduler.inline");
    m.put("scheduler.inline_ns_per_tuple", sched_inline, "ns");
    m.put(
        "emitter.inline_ns_per_tuple",
        per_inline("emitter.inline"),
        "ns",
    );
    m.put("trace.unattributed_frac", unattributed, "frac");
    m.put("baseline.speedup", baseline / sched_inline.max(1e-9), "x");
    if w == Workload::BulkText && unattributed > 0.10 {
        eprintln!("perfbench: inline spans leave {unattributed:.3} of wall time unattributed");
        ok = false;
    }

    // Spans around the generator's calls. On the wire workload the
    // append and flush run inside the server's receptor thread, so they
    // come from the inline variant, which replays them at its batch size.
    let tr = &r.tracer;
    let (append, flush) = if w == Workload::PacedWire {
        (per_inline("client.append"), per_inline("basket.append"))
    } else {
        // `r` appends of the fan-out workload count no items of their own:
        // spread over the `s` rows that carry them.
        (
            tr.ns_per_item("client.append"),
            tr.ns_per_item("basket.append"),
        )
    };
    m.put("client.append_ns_per_tuple", append, "ns");
    m.put("basket.append_ns_per_tuple", flush, "ns");
    m.put(
        "client.recv_ns_per_row",
        tr.ns_per_item("client.recv"),
        "ns",
    );
    m.put("net.write_ns_per_tuple", tr.ns_per_item("net.write"), "ns");
    m.put("net.read_ns_per_row", tr.ns_per_item("net.read"), "ns");
    m.put("net.tuples_in_frac", r.net_in_frac, "frac");

    // Basket counters.
    m.put(
        "basket.resident_peak_rows",
        r.out.resident_peak as f64,
        "rows",
    );
    m.put("basket.consumed_frac", r.consumed_frac, "frac");

    // Scheduler and factory accounts over the timed region.
    let d = transition_deltas(&r.marks.warm.trans, &r.marks.end.trans);
    let sum = |f: fn(&SchedulerMetrics) -> u64| d.iter().map(f).sum::<u64>() as f64;
    let firings = sum(|t| t.firings);
    m.put(
        "scheduler.firings_per_ktuple",
        firings * 1000.0 / tuples,
        "1/ktuple",
    );
    m.put(
        "scheduler.reads_per_tuple",
        sum(|t| t.tuples_in) / tuples,
        "ratio",
    );
    m.put(
        "scheduler.sched_delay_us_per_firing",
        sum(|t| t.sched_delay_micros) / firings.max(1.0),
        "us",
    );
    m.put("scheduler.deferrals", sum(|t| t.deferrals), "count");
    m.put(
        "factory.busy_us_per_firing",
        sum(|t| t.busy_micros) / firings.max(1.0),
        "us",
    );
    let busy_of = |pick: fn(&Class) -> bool| {
        d.iter()
            .filter(|t| pick(&classify(&t.name)))
            .map(|t| t.busy_micros as f64 * 1000.0)
            .sum::<f64>()
            / tuples
            + 0.0 // an empty f64 sum is -0.0
    };
    m.put(
        "factory.busy_ns_per_tuple",
        busy_of(|c| !matches!(c, Class::Window | Class::WindowJoin)),
        "ns",
    );
    m.put(
        "planshare.head_busy_ns_per_tuple",
        busy_of(|c| matches!(c, Class::ShareHead)),
        "ns",
    );
    m.put(
        "planshare.tail_busy_ns_per_tuple",
        busy_of(|c| matches!(c, Class::ShareTail)),
        "ns",
    );
    m.put(
        "window.busy_ns_per_tuple",
        busy_of(|c| matches!(c, Class::Window)),
        "ns",
    );
    m.put(
        "window_join.busy_ns_per_tuple",
        busy_of(|c| matches!(c, Class::WindowJoin)),
        "ns",
    );

    // Worker pool.
    let (workers, busy_frac, steals_per_task) = match (r.marks.warm.pool, r.marks.end.pool) {
        (Some((_, t0, s0, b0)), Some((n, t1, s1, b1))) => (
            n as f64,
            (b1 - b0) as f64 / (n as f64 * elapsed * 1e6).max(1.0),
            (s1 - s0) as f64 / ((t1 - t0) as f64).max(1.0),
        ),
        _ => (env.cell.scheduler().workers() as f64, 0.0, 0.0),
    };
    m.put("exec.workers", workers, "count");
    m.put("exec.busy_frac", busy_frac, "frac");
    m.put("exec.steals_per_task", steals_per_task, "ratio");

    m.put("emitter.basket_to_delivery_p50_us", r.emitter_p50_us, "us");

    // Threads.
    m.put("threads.count", r.marks.end.thread_count as f64, "count");
    let cpu = thread_cpu_delta(&r.marks.warm.threads, &r.marks.end.threads);
    for g in THREAD_GROUPS {
        m.put(
            format!("threads.cpu_ns_per_tuple.{g}"),
            cpu.get(g).copied().unwrap_or(0.0) / tuples,
            "ns",
        );
    }

    // Generator lateness and latency tails.
    m.put(
        "gen.lag_p99_us",
        percentile(&mut r.out.lag_us, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put(
        "tail.latency_p99_us",
        percentile(&mut r.latency_us, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put(
        "tail.latency_max_us",
        percentile(&mut r.latency_us, 1.0).unwrap_or(0.0),
        "us",
    );
    m.put("latency.samples", r.latency_us.len() as f64, "count");

    if let Some(dir) = spans {
        let write = |t: &crate::trace::Tracer, kind: &str| {
            t.write_csv(&dir.join(format!("{tag}-{kind}.csv")))
                .map_err(|e| format!("writing spans: {e}"))
        };
        write(tr, "live")?;
        write(it, "inline")?;
    }
    Ok(ok)
}
