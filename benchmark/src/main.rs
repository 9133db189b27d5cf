//! The EINet serving benchmark: one workload per invocation, real compute
//! (`block_delay = 0`) over loopback TCP through `ReactorServer` →
//! `ModelRegistry` → `ExecutorPool`. See `README.md` for the metric
//! definitions, the workloads and the pinned public surface.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload solo-deep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits non-zero when an output check fails.

mod affinity;
mod client;
mod judge;
mod ladder;
mod report;
mod setup;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use client::{Conn, Round};
use judge::{judge_round, reconcile, Counters, RoundReport};
use report::{Metric, Report};
use setup::{Prepared, Serving};
use stats::{percentile_or_zero, sorted};
use workload::{Load, RequestStream, Workload, WORKLOADS};

/// Rounds per run: `--seconds` is split evenly over them.
const ROUNDS: usize = 5;
/// Invalid open-loop rounds re-run at most this often per run.
const MAX_RERUNS: usize = 2;
/// Share of `--seconds` the traced run spends under load (for the counters
/// read from the server) before the ladder.
const TRACED_LOAD_SHARE: f64 = 0.3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// CPUs the process may use, read before any thread is placed.
    cores: usize,
}

fn parse_args() -> Result<Args, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let usage = format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{usage}"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}\n{usage}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("must be between 1 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(&usage)?,
        seed: seed.ok_or(&usage)?,
        seconds: seconds.ok_or(&usage)?,
        trace: trace.ok_or(&usage)?,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn counters(prepared: &Prepared, serving: &Serving) -> Counters {
    let model = prepared.workload.model_name();
    Counters {
        snapshot: serving
            .registry
            .model_snapshot(model)
            .expect("registered model"),
        route: serving
            .registry
            .route_stats(model)
            .expect("registered model"),
    }
}

/// Sends one round of the workload's load shape.
fn send_round(
    workload: &Workload,
    conn: &mut Conn,
    stream: &mut RequestStream<'_>,
    length: Duration,
) -> Round {
    match workload.load {
        Load::Closed { window } => conn.closed_loop(stream, window, length, usize::MAX),
        Load::Open { rate_hz } => {
            let due = stream.arrivals(rate_hz, length);
            conn.open_loop(stream, &due, length)
        }
    }
}

/// Runs `rounds` rounds under load, re-running invalid open-loop rounds.
/// Returns the rounds that count and the output-check violations of every
/// round sent, reconciled against the server's counters.
fn run_load(
    prepared: &Prepared,
    serving: &Serving,
    stream: &mut RequestStream<'_>,
    rounds: usize,
    length: Duration,
) -> std::io::Result<(Vec<RoundReport>, Vec<String>, Counters, Counters)> {
    let mut conn = Conn::connect(serving.addr())?;
    let before = counters(prepared, serving);
    let mut sent_rounds: Vec<RoundReport> = Vec::new();
    let mut counts: Vec<bool> = Vec::new();
    let mut reruns_left = MAX_RERUNS;
    while counts.iter().filter(|&&c| c).count() < rounds {
        let round = send_round(prepared.workload, &mut conn, stream, length);
        let report = judge_round(prepared, &round);
        counts.push(report.valid || reruns_left == 0);
        if !counts[counts.len() - 1] {
            reruns_left -= 1;
            eprintln!(
                "round re-run: generator late p99 {:.3} ms, backlog {}",
                report.send_late_p99_ms, report.backlog_end
            );
        }
        sent_rounds.push(report);
    }
    let after = counters(prepared, serving);
    let mut violations: Vec<String> = sent_rounds
        .iter()
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    violations.extend(reconcile(&sent_rounds, &before, &after));
    let mut counts = counts.into_iter();
    sent_rounds.retain(|_| counts.next().expect("one flag per round"));
    Ok((sent_rounds, violations, before, after))
}

fn total(rounds: &[RoundReport], f: fn(&RoundReport) -> usize) -> usize {
    rounds.iter().map(f).sum()
}

/// Checks that only make sense over a whole run.
fn run_level_checks(prepared: &Prepared, rounds: &[RoundReport], accuracy: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let sent = total(rounds, |r| r.sent);
    if prepared.workload.kills_expected() {
        // The kills must really land mid-inference: some before the first
        // exit, many between exits, and the answers handed over must be
        // worth less than an unkilled run's.
        let killed_with_answer = total(rounds, |r| r.deadline_expired)
            - (total(rounds, |r| r.unanswered) - total(rounds, |r| r.shed_expired));
        let unkilled = prepared
            .refs
            .iter()
            .zip(&prepared.wires)
            .filter(|(r, w)| r.predictions[*r.executed.last().expect("answers")] == w.label)
            .count() as f64
            / prepared.refs.len() as f64;
        if killed_with_answer * 4 < sent {
            violations.push(format!(
                "only {killed_with_answer} of {sent} requests were killed between exits"
            ));
        }
        if !(accuracy > 0.0 && accuracy < unkilled) {
            violations.push(format!(
                "answer_accuracy {accuracy:.4} is not between 0 and the unkilled {unkilled:.4}"
            ));
        }
    } else if total(rounds, |r| r.answered) != sent {
        violations.push("a workload without kills left requests unanswered".to_string());
    }
    for (i, r) in rounds.iter().enumerate() {
        if !r.valid {
            violations.push(format!(
                "round {i} stayed invalid after {MAX_RERUNS} re-runs: late p99 {:.3} ms, backlog {}",
                r.send_late_p99_ms, r.backlog_end
            ));
        }
    }
    violations
}

fn print_header(args: &Args, prepared: &Prepared, setup_s: f64) {
    let w = args.workload;
    let load = match w.load {
        Load::Closed { window } => format!("closed loop, window {window}"),
        Load::Open { rate_hz } => format!("open loop, {rate_hz} requests/s"),
    };
    println!(
        "workload {} seed {} ({load}; model {} x {} exits; max_batch {}; {} cores)",
        w.name,
        args.seed,
        w.model_name(),
        prepared.net.num_exits(),
        w.max_batch,
        args.cores,
    );
    let acc = &prepared.exit_accuracy;
    println!(
        "held-out accuracy: first exit {:.4}, final exit {:.4}, best exit {:.4}; set-up took {setup_s:.3} s",
        acc[0],
        acc[acc.len() - 1],
        acc.iter().cloned().fold(0.0, f64::max),
    );
}

/// The end-to-end metrics of a run's rounds. The median latency, goodput
/// and accuracy pool every round's samples; the tail latency is the median
/// over rounds of each round's p99, so one disturbed round cannot move it.
fn end_to_end_metrics(rounds: &[RoundReport], setup_s: f64) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&RoundReport) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let answered = total(rounds, |r| r.answered);
    let sent = total(rounds, |r| r.sent);
    let window_s: f64 = rounds.iter().map(|r| r.window_s).sum();
    let latencies = sorted(
        rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect(),
    );
    let p99s = per_round(&|r| percentile_or_zero(&r.latencies_ms, 0.99));
    vec![
        Metric::single("setup_s", "s", setup_s),
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: percentile_or_zero(&latencies, 0.50),
            rounds: per_round(&|r| percentile_or_zero(&r.latencies_ms, 0.50)),
            samples: answered,
        },
        Metric {
            name: "latency_p99_ms",
            unit: "ms",
            value: stats::median(p99s.clone()),
            rounds: p99s,
            samples: answered,
        },
        Metric {
            name: "goodput_rps",
            unit: "1/s",
            value: total(rounds, |r| r.on_time) as f64 / window_s,
            rounds: per_round(&|r| r.on_time as f64 / r.window_s),
            samples: answered,
        },
        Metric {
            name: "answer_accuracy",
            unit: "share",
            value: total(rounds, |r| r.correct) as f64 / sent.max(1) as f64,
            rounds: per_round(&|r| r.correct as f64 / r.sent.max(1) as f64),
            samples: sent,
        },
    ]
}

fn count(name: &'static str, value: usize) -> Metric {
    Metric::single(name, "count", value as f64)
}

/// The untraced run: `ROUNDS` rounds, every end-to-end metric.
fn run_end_to_end(args: &Args) -> std::io::Result<Report> {
    let (prepared, serving, setup_s) = setup::set_up(args.workload)?;
    print_header(args, &prepared, setup_s);
    let length = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut stream = RequestStream::new(args.workload, args.seed, &prepared.wires);
    let (rounds, mut violations, _, _) =
        run_load(&prepared, &serving, &mut stream, ROUNDS, length)?;
    serving.shutdown();

    let metrics = end_to_end_metrics(&rounds, setup_s);
    let accuracy = metrics[4].value;
    violations.extend(run_level_checks(&prepared, &rounds, accuracy));
    let (sent, failed) = (total(&rounds, |r| r.sent), total(&rounds, |r| r.failed));
    let mut diagnostics = vec![
        count("sent", sent),
        count("answered", total(&rounds, |r| r.answered)),
        count("unanswered", total(&rounds, |r| r.unanswered)),
        count("failed", failed),
    ];
    if matches!(args.workload.load, Load::Open { .. }) {
        let late: Vec<f64> = rounds.iter().map(|r| r.send_late_p99_ms).collect();
        let backlog: Vec<f64> = rounds.iter().map(|r| r.backlog_end as f64).collect();
        for (name, unit, values) in [
            ("gen_late_p99_ms", "ms", late),
            ("backlog_end", "count", backlog),
        ] {
            diagnostics.push(Metric {
                name,
                unit,
                value: stats::median(values.clone()),
                rounds: values,
                samples: sent,
            });
        }
    }
    Ok(Report {
        workload: args.workload.name,
        seed: args.seed,
        traced: false,
        correct: violations.is_empty() && failed == 0,
        attempted: sent,
        failed,
        metrics,
        diagnostics,
        violations,
    })
}

/// The traced run: a short stretch under load for the server's counters,
/// then the ladder; every per-layer metric.
fn run_traced(args: &Args) -> std::io::Result<Report> {
    let (prepared, serving, setup_s) = setup::set_up(args.workload)?;
    print_header(args, &prepared, setup_s);
    let length = Duration::from_secs_f64((args.seconds * TRACED_LOAD_SHARE).max(1.0));
    let mut stream = RequestStream::new(args.workload, args.seed, &prepared.wires);
    let (rounds, mut violations, before, after) =
        run_load(&prepared, &serving, &mut stream, 1, length)?;
    let loaded = &rounds[0];
    let loaded_p50 = percentile_or_zero(&loaded.latencies_ms, 0.50);

    // The ladder replays the head of the same seeded stream.
    let replayed = RequestStream::new(args.workload, args.seed, &prepared.wires);
    let trace_path = report::out_dir().join(format!("trace-{}.jsonl", args.workload.name));
    let ladder = ladder::run(&prepared, &serving, replayed, &trace_path)?;
    serving.shutdown();
    violations.extend(ladder.violations.iter().cloned());

    println!(
        "under load for {:.1} s: {} sent, latency_p50_ms {loaded_p50:.4}",
        length.as_secs_f64(),
        loaded.sent,
    );
    println!(
        "ladder over {} requests at concurrency 1; spans in {}",
        ladder.attempted,
        trace_path.display()
    );
    for rung in &ladder.rungs {
        println!(
            "  {:<30} self {:>9.4} ms {:>6.1} %",
            rung.name,
            rung.self_ms,
            rung.share * 100.0
        );
    }
    let (b, a) = (&before.snapshot, &after.snapshot);
    let mean_ms = |sum_us: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            sum_us as f64 / n as f64 / 1e3
        }
    };
    let dispatches = a.batch.count - b.batch.count;
    let mut metrics: Vec<Metric> = ladder
        .metrics
        .iter()
        .map(|&(name, unit, value)| Metric::single(name, unit, value))
        .collect();
    metrics.extend([
        Metric::single(
            "edge.queue_wait_mean_ms",
            "ms",
            mean_ms(
                a.queue_wait.sum_us - b.queue_wait.sum_us,
                a.queue_wait.count - b.queue_wait.count,
            ),
        ),
        Metric::single(
            "edge.service_mean_ms",
            "ms",
            mean_ms(
                a.service.sum_us - b.service.sum_us,
                a.service.count - b.service.count,
            ),
        ),
        Metric::single(
            "edge.batch_occupancy",
            "ratio",
            (a.batch.sum - b.batch.sum) as f64 / dispatches.max(1) as f64,
        ),
        count(
            "edge.deadline_expired",
            (a.deadline_expired - b.deadline_expired) as usize,
        ),
        count(
            "edge.shed_expired",
            (a.shed_expired_at_dequeue - b.shed_expired_at_dequeue) as usize,
        ),
        count(
            "server.routed",
            (after.route.routed - before.route.routed) as usize,
        ),
        count(
            "server.shed",
            (after.route.shed_queue_full - before.route.shed_queue_full) as usize,
        ),
        Metric::single("loadgen.late_p99_ms", "ms", loaded.send_late_p99_ms),
        count("loadgen.backlog_end", loaded.backlog_end),
        Metric::single(
            "trace.overhead_ms",
            "ms",
            ladder.traced_round_trip_ms - loaded_p50,
        ),
    ]);
    let failed = loaded.failed + ladder.failed;
    Ok(Report {
        workload: args.workload.name,
        seed: args.seed,
        traced: true,
        correct: violations.is_empty() && failed == 0,
        attempted: loaded.sent + ladder.attempted,
        failed,
        metrics,
        diagnostics: Vec::new(),
        violations,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = report.write(&report.path()) {
        eprintln!("could not write {}: {e}", report.path().display());
        return ExitCode::FAILURE;
    }
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
