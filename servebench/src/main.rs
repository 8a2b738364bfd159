//! `rpg-servebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's report and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an answer
//! or the server cross-check fails, 2 on a bad command line.

use rpg_servebench::run::{run, Args};
use std::time::Instant;

fn main() {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rpg-servebench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args, process_start);
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
