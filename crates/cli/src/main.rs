//! `kav` — command-line front end for the k-atomicity workbench.
//!
//! Run `kav --help` (or any unknown subcommand) for usage. Histories are
//! exchanged as JSON files in the `kav-history` format.

#![forbid(unsafe_code)]

mod args;
mod audit;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.flag("help") || args.num_positionals() == 0 {
        print!("{}", commands::usage());
        return ExitCode::SUCCESS;
    }
    let result = match args.positional(0).expect("checked non-empty") {
        "verify" => commands::verify(&args),
        "smallest-k" => commands::smallest_k_cmd(&args),
        "stats" => commands::stats(&args),
        "diagnose" => commands::diagnose_cmd(&args),
        "render" => commands::render(&args),
        "repair" => commands::repair_cmd(&args),
        "gen" => commands::gen(&args),
        "sim" => commands::sim(&args),
        "simulate" => commands::simulate(&args),
        "stream" => audit::stream(&args),
        "serve" => audit::serve(&args),
        "work" => audit::work(&args),
        "reduce" => commands::reduce(&args),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n\n{}", commands::usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Errors carrying a dedicated exit code (e.g. `kav stream`'s
            // violation-vs-bad-input distinction) propagate it; everything
            // else is the generic failure code.
            match e.downcast_ref::<commands::ExitWith>() {
                Some(exit) => ExitCode::from(exit.code),
                None => ExitCode::FAILURE,
            }
        }
    }
}
