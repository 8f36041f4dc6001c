//! `semlint` — lint IR programs for semantic-TM misuse.
//!
//! ```text
//! semlint [OPTIONS] [FILE.ir ...]
//!
//! Options:
//!   --builtin          lint the kernels embedded in the crate (programs/*.ir)
//!   --oracle           run the differential pass-equivalence oracle and print
//!                      the per-kernel barrier reduction
//!   --conflicts        print the static region-conflict matrix per function
//!   --deny warnings    treat warning-severity diagnostics as failures
//!   --format FMT       diagnostic output format: text (default) or sarif
//!   --output FILE      write the report to FILE instead of stdout
//!   --rules            print the rule catalogue and exit
//!   -h, --help         print this help
//! ```
//!
//! Exit status is 1 when any `error`-severity diagnostic is emitted (or
//! any `warning` under `--deny warnings`), a file fails to parse, or
//! the oracle finds a divergence; 0 otherwise. Text diagnostics print
//! as `file:line:col: severity[RULE] message`; `--format sarif` emits
//! one SARIF 2.1.0 log covering every linted file.

use semtm_ir::analysis::{AbsInt, Cfg, ConflictAnalysis, Regions};
use semtm_ir::lint::{lint_function, Diagnostic, Severity, RULES};
use semtm_ir::oracle::run_differential_oracle;
use semtm_ir::parser::parse_function_spanned;
use semtm_ir::sarif::sarif_report;
use std::process::ExitCode;

const USAGE: &str = "usage: semlint [--builtin] [--oracle] [--conflicts] [--deny warnings] \
                     [--format text|sarif] [--output FILE] [--rules] [FILE.ir ...]";

#[derive(PartialEq)]
enum Format {
    Text,
    Sarif,
}

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut builtin = false;
    let mut oracle = false;
    let mut conflicts = false;
    let mut deny_warnings = false;
    let mut format = Format::Text;
    let mut output: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--builtin" => builtin = true,
            "--oracle" => oracle = true,
            "--conflicts" => conflicts = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                other => {
                    eprintln!("semlint: --deny expects 'warnings', got {other:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("semlint: --format expects text|sarif, got {other:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--output" => match args.next() {
                Some(f) => output = Some(f),
                None => {
                    eprintln!("semlint: --output expects a file\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--rules" => {
                for (id, sev, summary) in RULES {
                    println!("{id} ({sev}): {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("semlint: unknown option '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() && !builtin && !oracle {
        eprintln!("semlint: nothing to do\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;

    // Sources to lint: files from disk plus (optionally) the embedded
    // kernels.
    let mut sources: Vec<(String, String)> = Vec::new();
    if builtin {
        for (path, src) in semtm_ir::programs::sources() {
            sources.push((path.to_string(), src.to_string()));
        }
    }
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(src) => sources.push((file.clone(), src)),
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
            }
        }
    }

    let mut report: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    let mut text = String::new();
    for (file, src) in &sources {
        match parse_function_spanned(src) {
            Ok((func, map)) => {
                let diags = lint_function(&func, Some(&map));
                for d in &diags {
                    text.push_str(&d.render(file));
                    text.push('\n');
                    if d.severity == Severity::Error
                        || (deny_warnings && d.severity == Severity::Warning)
                    {
                        failed = true;
                    }
                }
                if diags.is_empty() {
                    text.push_str(&format!("{file}: {} clean\n", func.name));
                }
                report.push((file.clone(), diags));
                if conflicts {
                    let cfg = Cfg::new(&func);
                    let absint = AbsInt::compute(&func, &cfg);
                    let regions = Regions::compute(&func, &cfg);
                    let ca = ConflictAnalysis::compute(&func, &absint, &regions);
                    print!("{}", ca.render(&func));
                }
            }
            Err(e) => {
                text.push_str(&format!(
                    "{file}:{}:{}: error[parse] {}\n",
                    e.line, e.col, e.message
                ));
                failed = true;
            }
        }
    }

    let rendered = match format {
        Format::Text => text,
        Format::Sarif => sarif_report(&report),
    };
    match &output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("semlint: cannot write {path}: {e}");
                failed = true;
            }
        }
        None => print!("{rendered}"),
    }

    if oracle {
        match run_differential_oracle() {
            Ok(reports) => {
                for r in &reports {
                    println!("oracle: {r}");
                }
            }
            Err(e) => {
                eprintln!("oracle: FAILED: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
