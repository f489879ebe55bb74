//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p sleds-bench --bin figures -- all
//! cargo run --release -p sleds-bench --bin figures -- fig7 table2
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

type Experiment = (&'static [&'static str], fn());

/// Every experiment, in the order `all` runs them: the ids that select it
/// (one run writes the files of all its ids) and the runner. The usage
/// text is printed from this list.
const EXPERIMENTS: &[Experiment] = &[
    (&["fig3"], || emit_text("fig3", &figures::fig3().0)),
    (&["fig4"], || emit_text("fig4", &figures::fig4())),
    (&["table2"], || {
        emit_text(
            "table2",
            &level_table(
                "Table 2: storage levels, Unix-utility machine",
                &figures::table2(),
            ),
        )
    }),
    (&["table3"], || {
        emit_text(
            "table3",
            &level_table(
                "Table 3: storage levels, LHEASOFT machine",
                &figures::table3(),
            ),
        )
    }),
    (&["table4"], || {
        emit_text("table4", &loc_table(&figures::table4()))
    }),
    (&["fig7", "fig8"], || {
        let (f7, f8) = figures::fig7_8();
        emit_figure(&f7);
        emit_figure(&f8);
    }),
    (&["fig9"], || emit_figure(&figures::fig9())),
    (&["fig10"], || emit_figure(&figures::fig10())),
    (&["fig11", "fig12"], || {
        let (f11, f12) = figures::fig11_12();
        emit_figure(&f11);
        emit_figure(&f12);
    }),
    (&["fig13"], || emit_figure(&figures::fig13())),
    (&["fig14"], || {
        let (elapsed, faults) = figures::fig14();
        emit_figure(&elapsed);
        emit_figure(&faults);
    }),
    (&["fig15"], || {
        for f in figures::fig15() {
            emit_figure(&f);
        }
    }),
    (&["hsm"], || {
        let (pruned, full) = figures::hsm_prune_demo();
        let text = format!(
            "HSM extension: find -latency -10 | grep vs grep everything\n\
             pruned walk: {pruned:.1}s   full walk (stages tapes): {full:.1}s\n\
             pruning advantage: {:.0}x\n\n{}",
            full / pruned.max(1e-9),
            figures::gmc_hsm_report()
        );
        emit_text("hsm", &text);
    }),
    (&["tree"], || emit_text("tree", &figures::tree_demo())),
    (&["ablations"], || {
        emit_text("ablations", &sleds_bench::ablations::report())
    }),
];

#[expect(
    clippy::disallowed_methods,
    reason = "a binary's usage error: exit status 2, nothing to unwind"
)]
fn usage_exit() -> ! {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(ids, _)| ids.iter().copied())
        .collect();
    eprintln!("usage: figures [all | <id>...]");
    eprintln!("ids: {}", ids.join(" "));
    eprintln!("SLEDS_RESULTS=dir writes the files to dir (default results/)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_exit();
    }
    let list: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|id| {
                EXPERIMENTS
                    .iter()
                    .find(|(ids, _)| ids.contains(&id.as_str()))
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment {id:?}");
                        usage_exit()
                    })
            })
            .collect()
    };
    for (ids, run) in list {
        eprintln!("== running {} ==", ids.join("/"));
        run();
    }
}
