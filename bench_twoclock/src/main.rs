//! Two-clock benchmark for the dacc simulator.
//!
//! ```text
//! cargo run --release --manifest-path bench_twoclock/Cargo.toml -- \
//!     --workload <qr_remote|tenant_ops|bulk_copy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats a fixed amount of simulated work (a *rep*) until
//! `--seconds` have passed, each rep in a child process of its own. A rep
//! sets up from scratch (inputs from the seed, warm-up, cluster build),
//! then runs the simulation; the CPU time of that run is the rep's
//! `host_s`. Virtual-time metrics come from the benchmark's own sim-clock
//! stamps and must be bit-identical in every rep. The last stdout line is
//! one JSON object; see README.md for the metrics.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the 64-bit Linux thread CPU clock");

mod bulk_copy;
mod cpu_clock;
mod harness;
mod qr_remote;
mod rep;
mod stats;
mod tenant_ops;
mod trace;

use std::process::ExitCode;

use harness::Args;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <qr_remote|tenant_ops|bulk_copy> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "qr_remote" => harness::main::<qr_remote::QrRemote>(&args),
        "tenant_ops" => harness::main::<tenant_ops::TenantOps>(&args),
        "bulk_copy" => harness::main::<bulk_copy::BulkCopy>(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}
