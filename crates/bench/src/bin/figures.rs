//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p sleds-bench --bin figures -- all
//! cargo run --release -p sleds-bench --bin figures -- fig7 fig8 table2
//! SLEDS_QUICK=1 cargo run -p sleds-bench --bin figures -- all   # fast sweep
//! ```
//!
//! CSV data and text renderings land in `results/`; ASCII plots also print
//! to stdout so the shape is visible in a terminal.

use std::path::PathBuf;

use sleds_bench::figures::{self, Figure, LevelRow, LocRow};
use sleds_bench::output::{ascii_plot, write_csv};

fn results_dir() -> PathBuf {
    std::env::var("SLEDS_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

fn emit_figure(fig: &Figure) {
    let plot = ascii_plot(&fig.title, &fig.x_name, &fig.y_name, &fig.series);
    println!("{plot}");
    let path = results_dir().join(format!("{}.csv", fig.id));
    write_csv(&path, &fig.x_name, &fig.series).expect("write csv");
    println!("  -> {}\n", path.display());
}

fn emit_text(id: &str, text: &str) {
    println!("{text}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join(format!("{id}.txt"));
    std::fs::write(&path, text).expect("write text");
    println!("  -> {}\n", path.display());
}

fn level_table(title: &str, rows: &[LevelRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{title}").expect("fmt");
    writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "level", "latency", "paper-latency", "throughput", "paper-thpt"
    )
    .expect("fmt");
    for r in rows {
        writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>11.1}MB/s {:>10.1}MB/s",
            r.level,
            fmt_latency(r.latency),
            fmt_latency(r.paper_latency),
            r.bandwidth / 1e6,
            r.paper_bandwidth / 1e6,
        )
        .expect("fmt");
    }
    out
}

fn fmt_latency(s: f64) -> String {
    if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.1}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

fn loc_table(rows: &[LocRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Table 4: lines of code in the SLEDs ports").expect("fmt");
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>16} {:>14}",
        "app", "sleds-lines", "total-lines", "paper-modified", "paper-total"
    )
    .expect("fmt");
    for r in rows {
        writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>16} {:>14}",
            r.app, r.sleds_lines, r.total_lines, r.paper_modified, r.paper_total
        )
        .expect("fmt");
    }
    writeln!(
        out,
        "\n(our counts are Rust lines inside [sleds:begin]/[sleds:end] markers;\n\
         the paper counted modified lines of the C originals — compare shape,\n\
         not absolutes: grep is the most invasive port, find among the least)"
    )
    .expect("fmt");
    out
}

fn run(id: &str) {
    match id {
        "fig3" => {
            let (text, _, _) = figures::fig3();
            emit_text("fig3", &text);
        }
        "fig4" => emit_text("fig4", &figures::fig4()),
        "table2" => emit_text(
            "table2",
            &level_table(
                "Table 2: storage levels, Unix-utility machine",
                &figures::table2(),
            ),
        ),
        "table3" => emit_text(
            "table3",
            &level_table(
                "Table 3: storage levels, LHEASOFT machine",
                &figures::table3(),
            ),
        ),
        "table4" => emit_text("table4", &loc_table(&figures::table4())),
        "fig7" | "fig8" => {
            let (f7, f8) = figures::fig7_8();
            emit_figure(&f7);
            emit_figure(&f8);
        }
        "fig9" => emit_figure(&figures::fig9()),
        "fig10" => emit_figure(&figures::fig10()),
        "fig11" | "fig12" => {
            let (f11, f12) = figures::fig11_12();
            emit_figure(&f11);
            emit_figure(&f12);
        }
        "fig13" => emit_figure(&figures::fig13()),
        "fig14" => {
            let (elapsed, faults) = figures::fig14();
            emit_figure(&elapsed);
            emit_figure(&faults);
        }
        "fig15" => {
            for f in figures::fig15() {
                emit_figure(&f);
            }
        }
        "ablations" => emit_text("ablations", &sleds_bench::ablations::report()),
        "tree" => emit_text("tree", &figures::tree_demo()),
        "hsm" => {
            let (pruned, full) = figures::hsm_prune_demo();
            let text = format!(
                "HSM extension: find -latency -10 | grep vs grep everything\n\
                 pruned walk: {pruned:.1}s   full walk (stages tapes): {full:.1}s\n\
                 pruning advantage: {:.0}x\n\n{}",
                full / pruned.max(1e-9),
                figures::gmc_hsm_report()
            );
            emit_text("hsm", &text);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            #[expect(
                clippy::disallowed_methods,
                reason = "a binary's usage error: exit status 2, nothing to unwind"
            )]
            std::process::exit(2);
        }
    }
}

const ALL: &[&str] = &[
    "fig3",
    "fig4",
    "table2",
    "table3",
    "table4",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "hsm",
    "tree",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: figures [all | fig3 fig4 table2 table3 table4 fig7 fig8 fig9 fig10");
        eprintln!("                 fig11 fig12 fig13 fig14 fig15 hsm ablations]...");
        eprintln!("set SLEDS_QUICK=1 for a reduced sweep, SLEDS_RESULTS=dir for output dir");
        #[expect(
            clippy::disallowed_methods,
            reason = "a binary's usage error: exit status 2, nothing to unwind"
        )]
        std::process::exit(2);
    }
    let list: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in list {
        eprintln!("== running {id} ==");
        run(id);
    }
}
