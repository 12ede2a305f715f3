//! The `pmm` binary: see [`pmm_cli::args::HELP`].

use std::fmt::Display;

use pmm_cli::args::{parse_args, Command, HELP};
use pmm_cli::commands;
use pmm_dense::{kernel_from_env, Kernel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => print!("{HELP}"),
        Ok(Command::Bound { dims, procs, memory }) => {
            print!("{}", commands::bound(dims, procs, memory));
        }
        Ok(Command::Grid { dims, procs }) => print!("{}", commands::grid(dims, procs)),
        Ok(Command::Advise { dims, procs, memory, alpha, beta, gamma }) => {
            print!("{}", commands::advise(dims, procs, memory, alpha, beta, gamma));
        }
        Ok(Command::Simulate { dims, procs, grid, seed, faults }) => {
            let (report, code) =
                commands::simulate_run(dims, procs, grid, seed, faults, env_kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Trace { dims, procs, grid, seed, out }) => {
            let (report, code) =
                commands::trace(dims, procs, grid, seed, out.as_deref(), env_kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Sweep { dims, procs }) => print!("{}", commands::sweep(dims, &procs)),
        Ok(Command::Calibrate { budget_secs, out }) => {
            let (report, code) = commands::calibrate(budget_secs, out.as_deref(), env_kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Serve(opts)) => {
            let code = commands::serve(&opts);
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Err(e) => usage_error(e),
    }
}

/// The local kernel named by `PMM_KERNEL` (the default when unset); a
/// bad value is a usage error like any other.
fn env_kernel() -> Kernel {
    kernel_from_env(Kernel::default()).unwrap_or_else(|e| usage_error(e))
}

/// Report a usage error with the help text and exit 2.
fn usage_error(e: impl Display) -> ! {
    eprintln!("error: {e}\n");
    eprint!("{HELP}");
    std::process::exit(2);
}
