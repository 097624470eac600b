//! Chaos layer: drives a [`DurableStore`] through a drift scenario
//! and kills it (`kill -9` simulation via [`DurableStore::crash`])
//! at intervals mid-stream, asserting after every restart that
//!
//! 1. recovery restores exactly the acknowledged-op oracle, and
//! 2. the index's deep structural audit comes back clean.
//!
//! This composes the PR 3 crash path with drift-time maintenance: splits,
//! remaps, and shrinks are in flight when the process dies.

use crate::stream::{CompiledScenario, ScenarioOp, SCAN_COUNT};
use index_traits::{Key, Value};
use kvstore::{DurabilityOptions, DurableStore};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Chaos run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Kill the store after every `kill_every` acknowledged mutations.
    pub kill_every: usize,
    /// Durability options used for every open/reopen.
    pub durability: DurabilityOptions,
    /// Checkpoint before every other kill, so recovery exercises both the
    /// checkpoint+replay and the pure-replay paths.
    pub checkpoint_alternate: bool,
}

/// What happened during a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Crash/recover cycles performed.
    pub kills: usize,
    /// Mutations acknowledged (and therefore in the oracle).
    pub acked: usize,
    /// Keys live at the end of the run.
    pub final_len: usize,
    /// Total audit checks across all post-recovery audits.
    pub audit_checks: usize,
}

fn verify(store: &DurableStore, oracle: &BTreeMap<Key, Value>, when: &str) -> usize {
    assert_eq!(
        store.len(),
        oracle.len(),
        "{when}: recovered len diverged from acked oracle"
    );
    let got = store.scan(0, oracle.len() + 16);
    let want: Vec<(Key, Value)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "{when}: recovered contents diverged");
    let report = store.audit();
    assert!(
        report.is_clean(),
        "{when}: post-recovery audit dirty: {report:?}"
    );
    assert!(report.checks > 0, "{when}: vacuous audit");
    report.checks
}

/// Replays `compiled` against a durable store in `dir`, crashing and
/// recovering every `opts.kill_every` acked mutations.
///
/// # Errors
///
/// Propagates store open/recovery I/O errors. Acked-durability or audit
/// violations panic (this is a test harness: divergence is a bug, not an
/// environmental condition).
///
/// # Panics
///
/// Panics if recovery loses an acknowledged op, resurrects an unacked
/// one, or any post-recovery audit reports a violation.
pub fn run_chaos(
    dir: &Path,
    compiled: &CompiledScenario,
    opts: &ChaosOptions,
) -> io::Result<ChaosReport> {
    assert!(opts.kill_every > 0);
    let mut store = Some(DurableStore::open(dir, opts.durability)?);
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    let mut acked = 0usize;
    let mut since_kill = 0usize;
    let mut kills = 0usize;
    let mut audit_checks = 0usize;

    for op in &compiled.ops {
        // invariant: `store` is always re-populated after a kill below.
        let s = store.as_ref().expect("store open");
        match *op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                s.set(k, v)?;
                oracle.insert(k, v);
                acked += 1;
                since_kill += 1;
            }
            ScenarioOp::Delete(k) => {
                let prev = s.del(k)?;
                assert_eq!(prev, oracle.remove(&k), "delete returned wrong previous");
                acked += 1;
                since_kill += 1;
            }
            ScenarioOp::Read(k) => {
                assert_eq!(s.get(k), oracle.get(&k).copied(), "read diverged");
            }
            ScenarioOp::Scan(k) => {
                let got = s.scan(k, SCAN_COUNT);
                let want: Vec<(Key, Value)> = oracle
                    .range(k..)
                    .take(SCAN_COUNT)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(got, want, "scan diverged");
            }
        }
        if since_kill >= opts.kill_every {
            since_kill = 0;
            // invariant: `store` held Some at the top of the iteration.
            let s = store.take().expect("store open");
            if opts.checkpoint_alternate && kills.is_multiple_of(2) {
                s.checkpoint_now()?;
            }
            s.crash();
            kills += 1;
            let reopened = DurableStore::open(dir, opts.durability)?;
            audit_checks += verify(&reopened, &oracle, &format!("after kill {kills}"));
            store = Some(reopened);
        }
    }

    // invariant: the loop above always leaves `store` repopulated.
    let s = store.take().expect("store open");
    s.crash();
    let reopened = DurableStore::open(dir, opts.durability)?;
    audit_checks += verify(&reopened, &oracle, "final recovery");
    let final_len = reopened.len();
    reopened.shutdown()?;

    Ok(ChaosReport {
        kills: kills + 1,
        acked,
        final_len,
        audit_checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::stream::compile;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scenario-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn chaos_smoke_survives_two_kills() {
        let dir = temp_dir("smoke");
        let compiled = compile(&builtin::mm_to_tx_drift(600));
        let report = run_chaos(
            &dir,
            &compiled,
            &ChaosOptions {
                kill_every: 500,
                durability: DurabilityOptions {
                    ops_per_checkpoint: 0,
                    params: dytis::Params::small(),
                },
                checkpoint_alternate: true,
            },
        )
        .expect("chaos run");
        assert!(report.kills >= 2, "{report:?}");
        assert!(report.acked > 1_000, "{report:?}");
        assert!(report.audit_checks > 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
