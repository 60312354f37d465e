//! Reproduce every figure of the paper in one parallel sweep.
//!
//! This binary enumerates the (figure, configuration) grid as independent
//! cells and fans them across worker threads; results merge in key order,
//! so the data output is byte-identical for any `--jobs` value (each cell
//! is a seeded, single-threaded simulation — see DESIGN.md §11).
//!
//! Usage:
//!
//! ```text
//! figures [--jobs N] [--smoke] [--only PREFIX] [--out PATH] [--shards N]
//! ```
//!
//! `--jobs` defaults to all cores. `--smoke` shrinks measurement windows
//! ~8× for CI. `--only fig09/` runs one figure's cells. The merged data
//! lines (timing-free, deterministic) go to stdout and to `--out`; without
//! `--out`, a full-window run of the whole grid writes them to
//! `results/figures_sweep.txt` at the workspace root. Every full-window run
//! also writes `results/<prefix>.csv` for each figure it ran (`fig07.csv`,
//! `table1.csv`, ...). Smoke runs never touch `results/`: their windows are
//! not the figures' windows. `--shards N` runs every cell's simulation on
//! N engine worker threads (space-parallel domains); like `--jobs`, it can
//! only change wall-clock, never a data line.

use std::path::PathBuf;

use rablock_bench::sweep::{figure_cells, run_sweep};
use rablock_bench::{banner, results_dir, write_csv};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut shards = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                shards = args
                    .get(i + 1)
                    .expect("--shards needs a value")
                    .parse()
                    .expect("--shards takes a number");
                i += 2;
            }
            "--jobs" => {
                jobs = args
                    .get(i + 1)
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("--jobs takes a number");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--only" => {
                only = Some(args.get(i + 1).expect("--only needs a value").clone());
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).expect("--out needs a value")));
                i += 2;
            }
            other => {
                panic!("unknown argument {other:?} (expected --jobs/--smoke/--only/--out/--shards)")
            }
        }
    }

    banner(
        "figures",
        "all paper figures + ablation grids as one parallel sweep",
    );
    rablock_bench::set_default_shards(shards);
    let cells = figure_cells(smoke, only.as_deref());
    let n = cells.len();
    println!(
        "{n} cells, {jobs} jobs, {shards} engine shards{}",
        if smoke { " (smoke)" } else { "" }
    );
    let outcome = run_sweep(cells, jobs);

    let merged = outcome.merged_lines();
    print!("{merged}");
    println!(
        "sweep: {} cells in {:.2}s wall ({} events, {:.0} events/sec aggregate)",
        outcome.results.len(),
        outcome.wall_secs,
        outcome.events,
        outcome.events as f64 / outcome.wall_secs,
    );
    let slowest = outcome
        .results
        .iter()
        .max_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    if let Some(s) = slowest {
        println!("slowest cell: {} ({:.2}s)", s.key, s.wall_secs);
    }

    if !smoke {
        for (prefix, csv) in outcome.csv_by_prefix() {
            write_csv(&prefix, &csv);
        }
    }
    let full_grid = !smoke && only.is_none();
    if let Some(path) = out.or_else(|| full_grid.then(|| results_dir().join("figures_sweep.txt"))) {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, &merged).expect("write merged sweep output");
        println!("[out] {}", path.display());
    }
}
