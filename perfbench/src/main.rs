//! One round of the DataCell benchmark: set up a workload's system several
//! times, drive it for a fixed time, validate every result against the
//! reference, and print the round's metrics as one JSON line.
//!
//! `perfbench/run.py` builds this binary and runs several rounds per
//! benchmark run, each in a fresh process, reporting their medians.
//!
//! ```text
//! perfbench --workload bulk-text --seed 1 --seconds 3 --trace 0
//! ```

mod gen;
mod layers;
mod probe;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{median, percentile, Metrics};
use trace::Tracer;
use workload::{Collector, Env, Inputs, LoopOut, Marks, Stamps, Timing, Workload};

/// One in this many result rows of a closed-loop workload is a latency
/// sample (the open-loop ones sample every row).
const CLOSED_SAMPLE_EVERY: u64 = 8;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Warm-up before the timed region; only the tests shorten it.
    pub warm: f64,
    pub trace: bool,
    pub round: u32,
    /// Throwaway set-ups before the one that runs; only the tests change it.
    pub setups: usize,
    pub spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::BulkText,
        seed: 1,
        seconds: 3.0,
        warm: 0.3,
        trace: false,
        round: 0,
        setups: 4,
        spans: None,
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            "--round" => args.round = value.parse().map_err(|_| bad())?,
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// What one round measured, for the metric functions.
pub struct Round<'a> {
    pub args: &'a Args,
    pub inputs: &'a Inputs,
    pub out: LoopOut,
    pub marks: Marks,
    pub latency_us: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub tracer: Tracer,
    pub failed: u64,
    pub attempted: u64,
    /// Extra facts read from the live system before teardown.
    pub emitter_p50_us: f64,
    pub consumed_frac: f64,
    pub net_in_frac: f64,
}

impl Round<'_> {
    pub fn elapsed_s(&self) -> f64 {
        match (self.out.t_warm, self.out.t_end) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Share of the machine's CPU time the hypervisor took over the timed
    /// region: the figures of a round with much of it measure neighbours.
    pub fn steal_frac(&self) -> f64 {
        let (s0, t0) = self.marks.warm.host_ticks;
        let (s1, t1) = self.marks.end.host_ticks;
        s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
    }

    /// Inputs completed within the timed region.
    pub fn tuples(&self) -> f64 {
        self.out
            .completed_end
            .saturating_sub(self.out.completed_warm)
            .max(1) as f64
    }
}

fn live_round<'a>(args: &'a Args, inputs: &'a Inputs) -> Result<(Round<'a>, Env), String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    for _ in 0..args.setups {
        let t = Instant::now();
        let env = workload::setup(w, inputs, true)?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload::teardown(env);
    }
    let t = Instant::now();
    let mut env = workload::setup(w, inputs, true)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let mut tracer = Tracer::new(args.trace);
    let stamps = Stamps::Batches {
        batch: w.batch() as u64,
        ring: vec![Instant::now(); 4096],
    };
    let every = if w.paced() { 1 } else { CLOSED_SAMPLE_EVERY };
    let mut col = Collector::new(&inputs.expect, stamps, every);
    let timing = Timing {
        warm: Duration::from_secs_f64(args.warm),
        seconds: Duration::from_secs_f64(args.seconds),
    };
    let mut marks = Marks::default();
    let out = match w {
        Workload::BulkText | Workload::Fanout => workload::closed_loop(
            w,
            &mut env,
            inputs,
            &mut col,
            &mut tracer,
            &timing,
            &mut marks,
        ),
        Workload::PacedEmbedded => {
            workload::paced_embedded(&mut env, inputs, &mut col, &mut tracer, &timing, &mut marks)
        }
        Workload::PacedWire => {
            workload::paced_wire(&mut env, inputs, &mut col, &mut tracer, &timing, &mut marks)
        }
    }?;
    let (failed_rows, expected_rows) = col.validate(out.sent);
    if out.drain_timed_out {
        eprintln!("perfbench: results still owed after the drain timeout");
    }
    let failed = failed_rows + out.rejected;
    let attempted = expected_rows + out.sent;

    let m = env.cell.metrics();
    let emitter_p50_us = layers::merged_p50(&m.per_query_latency);
    let (mut appended, mut consumed) = (0u64, 0u64);
    for b in ["s", "r"] {
        if let Ok(basket) = env.cell.basket(b) {
            let st = basket.stats();
            appended += st.appended;
            consumed += st.consumed;
        }
    }
    let net_in_frac = env.server.as_ref().map_or(0.0, |s| {
        s.metrics().tuples_in as f64 / out.sent.max(1) as f64
    });
    let latency_us = std::mem::take(&mut col.latency_us);
    Ok((
        Round {
            args,
            inputs,
            out,
            marks,
            latency_us,
            setup_s,
            tracer,
            failed,
            attempted,
            emitter_p50_us,
            consumed_frac: consumed as f64 / appended.max(1) as f64,
            net_in_frac,
        },
        env,
    ))
}

fn end_to_end(r: &mut Round, m: &mut Metrics) {
    let elapsed = r.elapsed_s();
    let tuples = r.tuples();
    m.put("throughput_tps", tuples / elapsed.max(1e-9), "1/s");
    m.put(
        "latency_p50_us",
        percentile(&mut r.latency_us, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "latency_p90_us",
        percentile(&mut r.latency_us, 0.9).unwrap_or(0.0),
        "us",
    );
    m.put(
        "cpu_ns_per_tuple",
        (r.marks.end.cpu_ns - r.marks.warm.cpu_ns) / tuples,
        "ns",
    );
    m.put("peak_rss_mb", probe::peak_rss_mb(), "MB");
    m.put("setup_s", median(&mut r.setup_s).unwrap_or(0.0), "s");
    m.put(
        "valid_frac",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        "frac",
    );
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let paced_rows = (workload::PACED_RATE * (args.warm + args.seconds)) as usize + 1024;
    let inputs = Inputs::new(w, args.seed, paced_rows);
    let (mut round, env) = live_round(args, &inputs)?;
    let mut metrics = Metrics::default();
    end_to_end(&mut round, &mut metrics);
    // Not an end-to-end metric: run.py measures a round again when the
    // hypervisor took too much of it.
    metrics.put("host.steal_frac", round.steal_frac(), "frac");
    let mut correct = !round.out.drain_timed_out;
    if args.trace {
        let tag = format!("{}-s{}-r{}", w.name(), args.seed, args.round);
        correct &= layers::per_layer(&mut round, &env, &mut metrics, args.spans.as_deref(), &tag)?;
    }
    workload::teardown(env);
    correct &= round.failed == 0;
    eprintln!(
        "perfbench: {} seed {} round {}: {} inputs, {} latency samples, {:.0} t/s{}",
        w.name(),
        args.seed,
        args.round,
        round.out.sent,
        round.latency_us.len(),
        metrics.get("throughput_tps").unwrap_or(0.0),
        if correct { "" } else { ", VALIDATION FAILED" }
    );
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        round.attempted,
        round.failed,
        metrics.to_json()
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--round N] [--spans DIR]",
                workload::ALL.map(|w| w.name()).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: Workload, seed: u64, trace: bool) -> String {
        let args = Args {
            workload: w,
            seed,
            seconds: 0.3,
            warm: 0.05,
            trace,
            round: 0,
            setups: 1,
            spans: None,
        };
        run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
    }

    #[test]
    fn every_workload_validates_on_a_tiny_run() {
        for w in workload::ALL {
            let line = tiny(w, 17, false);
            assert!(line.contains("\"correct\":true"), "{}: {line}", w.name());
            assert!(line.contains("\"failed\":0,"), "{}: {line}", w.name());
        }
    }

    #[test]
    fn traced_bulk_text_attributes_the_inline_wall_time() {
        let line = tiny(Workload::BulkText, 5, true);
        assert!(line.contains("\"correct\":true"), "{line}");
        assert!(line.contains("\"trace.unattributed_frac\""), "{line}");
    }

    #[test]
    fn args_are_checked() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "paced-wire", "--seed", "3"]).is_ok());
        assert!(parse(&["--seed", "3"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "bulk-text", "--seconds", "-1"]).is_err());
    }
}
