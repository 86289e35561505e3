//! Command-line driver for the RAPTEE reproduction.
//!
//! See `raptee-cli help` (or [`raptee_repro::cli::usage`]) for usage.

use raptee_repro::cli::{execute, usage, Args};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    match execute(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}
