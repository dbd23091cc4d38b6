//! Regenerates every table/figure-equivalent of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--exp <id>]
//! ```
//!
//! * `--quick` — small parameter ranges (seconds instead of minutes);
//! * `--exp <id>` — print a single experiment (`e1` … `e11`, `e3a`, `figs`,
//!   `diagrams`); without the flag the full report is printed.
//!
//! Any other argument, an unknown id or `--exp` without an id prints the
//! known ids and exits with status 1.

use std::env;
use std::process::ExitCode;

use qudit_bench::experiments::{
    e10_peephole, e11_pipeline, e1_comparison, e2_gadgets, e3_ablation, e3_linear_scaling,
    e4_ancillas, e5_controlled_unitary, e6_unitary_synthesis, e7_reversible, e8_clifford_t,
    e9_lower_bound, figure_diagrams, figure_verification, full_report, Scale,
};

/// One experiment `--exp` can select: its id and what it prints.
type Experiment = (&'static str, fn(Scale) -> String);

const EXPERIMENTS: [Experiment; 14] = [
    ("e1", |scale| e1_comparison(scale).to_string()),
    ("e2", |scale| e2_gadgets(scale).to_string()),
    ("e3", |scale| e3_linear_scaling(scale).to_string()),
    ("e3a", |scale| e3_ablation(scale).to_string()),
    ("e4", |scale| e4_ancillas(scale).to_string()),
    ("e5", |scale| e5_controlled_unitary(scale).to_string()),
    ("e6", |scale| e6_unitary_synthesis(scale).to_string()),
    ("e7", |scale| e7_reversible(scale).to_string()),
    ("e8", |scale| e8_clifford_t(scale).to_string()),
    ("e9", |scale| e9_lower_bound(scale).to_string()),
    ("e10", |scale| e10_peephole(scale).to_string()),
    ("e11", |scale| e11_pipeline(scale).to_string()),
    ("figs", |_| figure_verification().to_string()),
    ("diagrams", |_| figure_diagrams()),
];

/// Parses the command line (without the program name) into the scale and
/// the selected experiment (`None` for the full report).
fn parse_args(args: &[String]) -> Result<(Scale, Option<&'static Experiment>), String> {
    let mut scale = Scale::Full;
    let mut experiment = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--exp" => {
                let id = args.next().ok_or("--exp needs an experiment id")?;
                let found = EXPERIMENTS.iter().find(|(known, _)| known == id);
                experiment = Some(found.ok_or(format!("unknown experiment id: {id}"))?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((scale, experiment))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((scale, None)) => print!("{}", full_report(scale)),
        Ok((scale, Some((_, run)))) => print!("{}", run(scale)),
        Err(message) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("{message}");
            eprintln!("usage: experiments [--quick] [--exp <id>]");
            eprintln!("known ids: {}", ids.join(" "));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Option<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|(scale, experiment)| (scale, experiment.map(|(id, _)| *id)))
    }

    #[test]
    fn known_flags_select_the_scale_and_experiment() {
        assert_eq!(parse(&[]), Ok((Scale::Full, None)));
        assert_eq!(parse(&["--quick"]), Ok((Scale::Quick, None)));
        assert_eq!(
            parse(&["--quick", "--exp", "e11"]),
            Ok((Scale::Quick, Some("e11")))
        );
        assert_eq!(
            parse(&["--exp", "diagrams", "--quick"]),
            Ok((Scale::Quick, Some("diagrams")))
        );
    }

    #[test]
    fn a_missing_or_unknown_id_and_unknown_arguments_are_errors() {
        assert_eq!(
            parse(&["--exp"]),
            Err("--exp needs an experiment id".to_string())
        );
        assert_eq!(
            parse(&["--quick", "--exp"]),
            Err("--exp needs an experiment id".to_string())
        );
        assert_eq!(
            parse(&["--exp", "bogus"]),
            Err("unknown experiment id: bogus".to_string())
        );
        assert_eq!(
            parse(&["--quik"]),
            Err("unknown argument: --quik".to_string())
        );
        assert_eq!(
            parse(&["--quick", "e11"]),
            Err("unknown argument: e11".to_string())
        );
    }
}
