//! `einet experiments` — regenerate the paper's tables and figures.

use einet_bench::experiments::ALL;
use einet_bench::Scale;

use crate::args::ParsedArgs;
use crate::commands::CmdResult;

/// Runs the subcommand: bare arguments name experiments of
/// [`einet_bench::experiments::ALL`] (or `all`).
pub fn run(args: &ParsedArgs) -> CmdResult {
    let scale = if args.has_flag("full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    // Experiment names arrive as extra positionals (stored as flags).
    let wanted: Vec<_> = ALL
        .iter()
        .filter(|(n, _)| args.has_flag("all") || args.has_flag(n))
        .collect();
    if wanted.is_empty() {
        let known: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        return Err(format!("name an experiment or 'all'; known: {}", known.join(", ")).into());
    }
    for (name, f) in wanted {
        eprintln!("=== {name} ===");
        f(&scale).finish(name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        let args =
            ParsedArgs::parse(&["experiments".to_string(), "fig99".to_string()], &[]).unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn cheap_experiment_runs() {
        // table3 needs no training; run it at quick scale.
        let args =
            ParsedArgs::parse(&["experiments".to_string(), "table3".to_string()], &[]).unwrap();
        run(&args).unwrap();
    }
}
