//! Scheduling invariance: episode results are a pure function of the spec,
//! so the scheduler may only change *when* an episode runs — never its
//! verdict. Both policies (grid and LPT), every worker count, and the
//! sharded multi-process path must all reproduce the serial grid-order
//! run's verdict fingerprint bit-for-bit. If any point of the matrix
//! moves, the scheduler changed results, which is a correctness bug — not
//! a baseline to re-record.

use std::sync::Mutex;

use rtlfixer_eval::experiments::table1::{
    merge_table1_verdicts, table1_merged, table1_verdicts, FixRateConfig,
};
use rtlfixer_eval::{schedule, Policy, Shard};

/// `force_policy` is process-global; tests driving it must not overlap.
static POLICY_LOCK: Mutex<()> = Mutex::new(());

fn quick_config(jobs: usize) -> FixRateConfig {
    FixRateConfig { max_entries: Some(8), repeats: 2, jobs, ..Default::default() }
}

/// The `--quick`-shaped grid's verdict fingerprint and fix-rate bits under
/// one policy/jobs point.
fn grid_outputs(policy: Policy, jobs: usize) -> (u128, Vec<u64>) {
    schedule::force_policy(Some(policy));
    let merged = table1_merged(&quick_config(jobs));
    schedule::force_policy(None);
    let rates = merged.cells.iter().map(|cell| cell.fix_rate.to_bits()).collect();
    (merged.verdict_fingerprint, rates)
}

#[test]
fn every_policy_and_worker_count_reproduces_the_serial_grid_verdicts() {
    let _guard = POLICY_LOCK.lock().unwrap();
    // Reference semantics: grid order (no reordering, no batching), serial.
    let reference = grid_outputs(Policy::Grid, 1);
    assert_ne!(reference.0, 0, "degenerate fingerprint");
    for policy in [Policy::Grid, Policy::Lpt] {
        for jobs in [1, 4] {
            let measured = grid_outputs(policy, jobs);
            assert_eq!(
                measured, reference,
                "verdicts diverged from serial grid order at {policy:?} --jobs {jobs}"
            );
        }
    }
}

#[test]
fn sharded_halves_merge_to_the_unsharded_fingerprint() {
    let _guard = POLICY_LOCK.lock().unwrap();
    schedule::force_policy(Some(Policy::Lpt));
    let config = quick_config(4);
    let unsharded = table1_merged(&config);
    // Two half-shards, run as separate grids (as two processes would),
    // merged back through the shared fold.
    let halves: Vec<_> = (0..2)
        .map(|index| table1_verdicts(&config, Shard { index, count: 2 }))
        .collect();
    let merged = merge_table1_verdicts(&config, &halves).expect("complete partition");
    schedule::force_policy(None);
    assert_eq!(
        merged.verdict_fingerprint, unsharded.verdict_fingerprint,
        "sharded merge fingerprint diverged from the unsharded run"
    );
    let merged_rates: Vec<u64> = merged.cells.iter().map(|c| c.fix_rate.to_bits()).collect();
    let unsharded_rates: Vec<u64> =
        unsharded.cells.iter().map(|c| c.fix_rate.to_bits()).collect();
    assert_eq!(merged_rates, unsharded_rates, "sharded merge fix rates diverged");
}
