//! Repair-as-a-service: a long-running daemon that accepts repair
//! requests over line-delimited JSON on TCP and runs them through the
//! same episode path (`rtlfixer_eval::run_repair`) the batch experiments
//! use — one fix rate, two front ends.
//!
//! The robustness machinery lives in two layers:
//!
//! * [`admission`] — bounded queue with explicit 429-style rejects,
//!   per-tenant token buckets with weighted fair dequeue, and
//!   content-addressed request coalescing;
//! * [`server`] — the accept loop, a reader thread per connection (plus a
//!   flusher only while a client lags), per-connection outboxes the
//!   responses leave through, worker pool with per-request `catch_unwind`
//!   containment, deadline shedding, and graceful drain (SIGTERM or a
//!   `shutdown` op).
//!
//! Overload degrades smoothly by construction: the queue never grows past
//! its bound, excess requests get an immediate `rejected` line, admitted
//! requests whose deadline lapses in queue are shed before execution, and
//! everything else completes at its uncontended fix rate. DESIGN.md §3i
//! documents the request lifecycle and the overload-shedding contract.

pub mod admission;
pub mod protocol;
pub mod server;

pub use admission::{Admission, Admit, BucketCfg, QueuedJob, QuotaSpec, Waiter};
pub use protocol::{JobSpec, Request};
pub use server::{Daemon, ServeConfig};

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);

/// SIGTERM on Linux.
const SIGTERM: i32 = 15;

extern "C" fn handle_term(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

extern "C" {
    // libc is always linked; declaring `signal` directly keeps the crate
    // dependency-free. The handler only flips an AtomicBool (async-signal
    // safe); the poll loop below does the actual draining.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The `rtlfixer-serve` entry point, also reachable as `servebench
/// --daemon` (cargo only exposes `CARGO_BIN_EXE_*` for the package under
/// test, so bench's subprocess tests re-enter the daemon through their own
/// binary).
///
/// Flags (each overrides its `RTLFIXER_SERVE_*` counterpart):
/// `--addr HOST:PORT`, `--port N`, `--workers N`, `--queue N`,
/// `--quota SPEC`, `--min-service-ms N`, `--deadline-ms N`.
///
/// Prints the `listening` line (with the bound port) to stdout, then
/// serves until SIGTERM or a client `shutdown` op, drains, and returns.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig::from_env()?;
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].as_str();
        let value = args
            .get(index + 1)
            .ok_or_else(|| format!("`{arg}` needs a value"))
            .map(|v| v.as_str());
        match arg {
            "--addr" => config.addr = value?.to_owned(),
            "--port" => config.addr = format!("127.0.0.1:{}", value?),
            "--workers" => {
                config.workers = value?.parse().map_err(|_| "bad --workers value".to_string())?;
            }
            "--queue" => {
                config.queue_limit = value?.parse().map_err(|_| "bad --queue value".to_string())?;
            }
            "--quota" => config.quota = QuotaSpec::parse(value?)?,
            "--min-service-ms" => {
                config.min_service_us = value?
                    .parse::<u64>()
                    .ok()
                    .and_then(|ms| ms.checked_mul(1000))
                    .ok_or_else(|| "bad --min-service-ms value".to_string())?;
            }
            "--deadline-ms" => {
                config.default_deadline_ms =
                    Some(value?.parse().map_err(|_| "bad --deadline-ms value".to_string())?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        index += 2;
    }
    unsafe {
        signal(SIGTERM, handle_term as extern "C" fn(i32) as usize);
    }
    let daemon = Daemon::start(config).map_err(|err| format!("bind failed: {err}"))?;
    println!("{}", protocol::listening_line(daemon.port()));
    let _ = std::io::stdout().flush();
    loop {
        if TERM.load(Ordering::SeqCst) {
            daemon.begin_drain();
        }
        if daemon.is_draining() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::daemon_main;

    #[test]
    fn min_service_ms_overflow_is_rejected_before_binding() {
        // u64::MAX ms has no u64 microsecond value: the flag must fail to
        // parse rather than panic or wrap to a wrong floor.
        let err = daemon_main(&["--min-service-ms".into(), u64::MAX.to_string()])
            .expect_err("an overflowing floor is a flag error");
        assert!(err.contains("--min-service-ms"), "{err}");
    }
}
