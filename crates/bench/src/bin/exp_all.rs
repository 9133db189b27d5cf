//! Regenerates the paper's tables and figures: every experiment of
//! `einet_bench::experiments::ALL`, or only those named on the command line
//! (`exp_all -- --quick fig8 table2`). Accepts `--quick` / `--full` or
//! `EINET_SCALE`.
use einet_bench::experiments as exp;

fn main() {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let mut runs = Vec::new();
    for name in &names {
        let Some(&run) = exp::ALL.iter().find(|(n, _)| n == name) else {
            let known: Vec<&str> = exp::ALL.iter().map(|(n, _)| *n).collect();
            eprintln!("unknown experiment {name}; known: {}", known.join(", "));
            std::process::exit(2);
        };
        runs.push(run);
    }
    if names.is_empty() {
        runs = exp::ALL.to_vec();
    }
    let scale = einet_bench::Scale::from_env();
    let t0 = std::time::Instant::now();
    for (name, f) in runs {
        eprintln!(
            "=== {name} ({:.0}s elapsed) ===",
            t0.elapsed().as_secs_f64()
        );
        f(&scale).finish(name);
        println!();
    }
    eprintln!("done in {:.0}s", t0.elapsed().as_secs_f64());
}
