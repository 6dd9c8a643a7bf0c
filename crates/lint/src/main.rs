//! The `lumen-lint` command-line interface.
//!
//! ```text
//! cargo run -p lumen-lint -- --check                    # CI mode: exit 1 on findings
//! cargo run -p lumen-lint -- --format json              # machine-readable report
//! cargo run -p lumen-lint -- --format sarif             # SARIF 2.1.0 for code hosts
//! cargo run -p lumen-lint -- --emit-substreams SUBSTREAMS.md  # allocation table
//! cargo run -p lumen-lint -- --root path/to/tree        # lint another tree
//! ```
//!
//! Without `--check` the linter prints its report and exits 0 so the full
//! JSON can be captured even on a dirty tree; with `--check` any finding
//! makes the process exit 1. Usage or I/O errors exit 2.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use lumen_lint::{lint_workspace, Config};

enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    check: bool,
    format: Format,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    emit_substreams: Option<PathBuf>,
}

const USAGE: &str = "usage: lumen-lint [--check] [--format text|json|sarif] [--root DIR] \
                     [--config FILE] [--emit-substreams FILE]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        format: Format::Text,
        root: None,
        config: None,
        emit_substreams: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.format = Format::Json,
                Some("text") => opts.format = Format::Text,
                Some("sarif") => opts.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json` or `sarif`, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => match it.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root expects a directory".to_string()),
            },
            "--config" => match it.next() {
                Some(file) => opts.config = Some(PathBuf::from(file)),
                None => return Err("--config expects a file".to_string()),
            },
            "--emit-substreams" => match it.next() {
                Some(file) => opts.emit_substreams = Some(PathBuf::from(file)),
                None => return Err("--emit-substreams expects an output file".to_string()),
            },
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first one containing
/// `lint.toml`, falling back to the current directory.
fn discover_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("lint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    let root = opts.root.clone().unwrap_or_else(discover_root);
    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| root.join("lint.toml"));
    let config = if config_path.is_file() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
        Config::parse(&text).map_err(|e| e.to_string())?
    } else {
        Config::default()
    };
    let report = lint_workspace(&root, &config)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    if let Some(out_path) = &opts.emit_substreams {
        std::fs::write(out_path, &report.substreams_md)
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    }
    match opts.format {
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", report.to_sarif()),
        Format::Text => print!("{}", report.to_text()),
    }
    Ok(!opts.check || report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("lumen-lint: {message}");
            ExitCode::from(2)
        }
    }
}
