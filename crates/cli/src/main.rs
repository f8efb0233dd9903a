//! The `schemr-cli` binary: thin wrapper over [`schemr_cli::run`].

// The counting allocator, so each search's ledger (the `X-Schemr-Cost`
// header, the trace header, the event log) carries its allocations.
#[global_allocator]
static GLOBAL: schemr_obs::alloc::CountingAlloc = schemr_obs::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match schemr_cli::run(&args, &mut stdout) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
