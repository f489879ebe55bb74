//! CLI for sledlint.
//!
//! Usage:
//!   sledlint [--root <dir>]   scan the workspace (default: ascend from cwd)
//!   sledlint --json           machine-readable findings on stdout
//!   sledlint --list           print the rule table
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = tool error (bad usage,
//! unreadable workspace). `--json` keeps the same exit codes, so CI can
//! both archive the report and gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use sledlint::rules::RULES;
use sledlint::{find_workspace_root, scan_workspace, Finding};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root_arg: Option<PathBuf> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_rules();
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("sledlint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "sledlint: unknown argument `{other}` (try --list, --json or --root <dir>)"
                );
                return ExitCode::from(2);
            }
        }
    }

    let start = match root_arg {
        Some(dir) => dir,
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("sledlint: cannot determine current directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let root = match find_workspace_root(&start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sledlint: {e}");
            return ExitCode::from(2);
        }
    };
    match scan_workspace(&root) {
        Ok((files, findings)) => {
            if json {
                println!("{}", render_json(files, &findings));
            } else {
                for f in &findings {
                    println!("{}", f.render());
                }
                if findings.is_empty() {
                    println!("sledlint: clean ({files} files scanned)");
                } else {
                    println!(
                        "sledlint: {} finding(s) in {files} files scanned",
                        findings.len()
                    );
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sledlint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_rules() {
    println!("sledlint rules (waive with `// sledlint::allow(RULE, reason)`):");
    for r in RULES {
        println!("  {}  {:<24} {}", r.code, r.name, r.invariant);
    }
}

/// The stable machine-readable report (`schema` bumps on breaking change).
/// Findings are one object per line so text diffs stay readable; the
/// baseline gate in `scripts/check.sh` diffs this output directly.
fn render_json(files: usize, findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"sledlint\",\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(r.code));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files_scanned\": {files},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.path),
            f.line,
            json_str(f.rule),
            json_str(&f.message)
        ));
    }
    if findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push('}');
    out
}

/// JSON string escaping, dependency-free (the workspace is hermetic).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
