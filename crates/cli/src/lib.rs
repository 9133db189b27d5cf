//! # einet-cli
//!
//! The `einet` command-line tool: train a multi-exit model, profile it,
//! search exit plans, compare planners under unpredictable exits, and run a
//! live preemption demo — without writing any Rust.
//!
//! ```text
//! einet train   --model msdnet21 --dataset objects --out-dir einet-out
//! einet eval    --dir einet-out [--dist uniform|gauss0.5|gauss1.0]
//! einet plan    --dir einet-out [--m 4] [--dist ...]
//! einet demo    [--preemptions 6] [--stream-out DIR]
//! einet report  --dir DIR [--chrome-out FILE]
//! einet serve   [--models b-alexnet,flex-vgg16] [--addr HOST:PORT]
//!               [--autoscale] [--self-test N]
//!               [--metrics-out FILE] [--prom-out FILE]
//! einet experiments <fig8|table2|...|all> [--quick|--full]
//! ```
//!
//! Commands are implemented as library functions (`run`), so they are
//! testable without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
pub mod commands;

pub use args::{ArgsError, ParsedArgs};

/// Entry point shared by the binary and the tests: parses `argv[1..]` and
/// dispatches. Returns the process exit code.
pub fn run(raw_args: &[String]) -> i32 {
    let parsed = match ParsedArgs::parse(
        raw_args,
        &[
            "quick",
            "full",
            "help",
            "serve-stats",
            "autoscale",
            // Accepted and ignored: the reactor is the only listener. Not
            // listed, `--reactor` would parse as an option and swallow the
            // argument after it.
            "reactor",
        ],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if parsed.has_flag("help") || parsed.subcommand().is_none() {
        print!("{}", usage());
        return if parsed.has_flag("help") { 0 } else { 2 };
    }
    // Global: worker-pool width for the compute kernels. Default (absent or
    // 0) lets the pool use the machine's available parallelism.
    match parsed.get_parsed_or::<usize>("threads", 0) {
        Ok(n) => einet_tensor::set_num_threads(n),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    let result = match parsed.subcommand().expect("checked above") {
        "train" => commands::train::run(&parsed),
        "eval" => commands::eval::run(&parsed),
        "plan" => commands::plan::run(&parsed),
        "demo" => commands::demo::run(&parsed),
        "report" => commands::report::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        "experiments" => commands::experiments::run(&parsed),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n");
            print!("{}", usage());
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
einet — elastic DNN inference with unpredictable exit (EINet, ICDCS 2023)

USAGE:
    einet <COMMAND> [OPTIONS]

COMMANDS:
    train        train a multi-exit model and write checkpoint + profiles
                   --model <b-alexnet|flex-vgg16|vgg16-fine|resnet-fine|msdnet21|msdnet40>
                   --dataset <digits|objects|objects100>
                   [--epochs N] [--train-n N] [--test-n N] [--out-dir DIR]
    eval         compare planners on trained profiles
                   --dir DIR [--dist uniform|gauss0.5|gauss1.0]
                   [--trace-out FILE]
    plan         search a near-optimal exit plan on trained profiles
                   --dir DIR [--m N] [--dist ...]
    demo         live preemption demo (threads, real forward passes)
                   [--preemptions N] [--serve-stats]
                   [--trace-out FILE] [--metrics-out FILE]
                   [--stream-out DIR] [--report-every MS]
                   [--max-batch N] [--batch-window MS]
                   --serve-stats also drives the executor pool (bounded
                   admission, EDF dispatch, adaptive batching, deadlines,
                   panic isolation) and prints its serving-metrics snapshot
                   --max-batch caps how many compatible requests a worker
                   coalesces into one stacked forward (default 4);
                   --batch-window caps the batch hold time in ms (default 2)
                   --metrics-out writes that snapshot as JSON (implies
                   --serve-stats)
                   --stream-out streams the trace as JSONL and rewrites
                   metrics.prom + serve_metrics.json while serving, every
                   --report-every ms (default 200; implies --serve-stats)
    serve        multi-tenant TCP serving front-end (line-oriented JSON)
                   [--models b-alexnet,flex-vgg16] [--addr HOST:PORT]
                   [--replicas N] [--workers N] [--queue-capacity N]
                   [--max-batch N] [--block-delay-ms N]
                   [--max-conns N] [--idle-timeout-ms N]
                   [--autoscale] [--max-replicas N]
                   [--self-test N] [--metrics-out FILE] [--prom-out FILE]
                   registers each model behind its own replicated executor
                   pool; queue-full and expired-in-queue backpressure comes
                   back as explicit 429-style JSON responses; every
                   connection is served from one epoll/poll readiness
                   thread, and clients may pipeline requests and multiplex
                   by id (responses return in completion order)
                   --autoscale grows/shrinks each model's replicas from the
                   windowed SLO metrics (up to --max-replicas, default 4)
                   --self-test drives N loopback requests, verifies the
                   shed accounting reconciles end to end, runs a
                   multiplexed-pipelining phase and a shutdown-under-load
                   drain phase, then exits
                   --prom-out writes the per-model labeled Prometheus text
    report       summarise a --stream-out directory after (or during) a run
                   --dir DIR [--chrome-out FILE]
                   prints stream/flow/overflow stats, the per-category span
                   table and the latency/SLO summary; --chrome-out converts
                   the stream into one Chrome trace_event JSON
    experiments  regenerate the paper's tables/figures
                   <fig4|table1|fig8|table2|fig9|fig10|fig11|fig12|fig13|table3|fig14a|fig14b|ablation|transformer|all>
                   [--quick|--full]

TRACING:
    --trace-out FILE   record spans/counters across the whole command and
                   write Chrome trace_event JSON — open it in
                   chrome://tracing or https://ui.perfetto.dev; a
                   per-category summary (count, total/mean/p95 span time)
                   is printed on exit. Tracing off costs nothing.

GLOBAL:
    --threads N  worker-pool width for compute kernels
                   (default: all available cores; results do not depend on it)
    --help       show this text
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage_and_fails() {
        assert_eq!(run(&v(&[])), 2);
    }

    #[test]
    fn help_flag_succeeds() {
        assert_eq!(run(&v(&["--help"])), 0);
    }

    #[test]
    fn unknown_subcommand_fails() {
        assert_eq!(run(&v(&["frobnicate"])), 2);
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in [
            "train",
            "eval",
            "plan",
            "demo",
            "report",
            "serve",
            "experiments",
            "--threads",
            "--serve-stats",
            "--trace-out",
            "--metrics-out",
            "--stream-out",
            "--report-every",
            "--max-batch",
            "--batch-window",
            "--chrome-out",
        ] {
            assert!(u.contains(cmd), "usage missing {cmd}");
        }
    }

    #[test]
    fn threads_flag_reaches_the_pool() {
        assert_eq!(
            run(&v(&["demo", "--threads", "2", "--preemptions", "0"])),
            0
        );
        assert_eq!(einet_tensor::num_threads(), 2);
        einet_tensor::set_num_threads(0);
    }

    #[test]
    fn bad_threads_value_fails_fast() {
        assert_eq!(run(&v(&["plan", "--threads", "lots"])), 2);
    }
}
