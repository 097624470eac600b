//! Shared harness code for the experiment binaries (one binary per paper
//! table/figure — see DESIGN.md §4 for the index).
//!
//! All experiments honour two environment variables:
//!
//! - `DYTIS_KEYS` — base key count per dataset (default 1,000,000; the
//!   paper's datasets hold 82 M–903 M keys, scaled by the same relative
//!   sizes).
//! - `DYTIS_OPS` — operations per measured workload phase (default 500,000,
//!   which is ≥ 50% of the scaled dataset, matching §4.3).

use datasets::{Dataset, DatasetSpec};
use index_traits::{BulkLoad, Key, KvIndex, Value};
use ycsb::{generate_ops, run_ops, Op, Summary, Workload};

pub use alex_index::Alex;
pub use dytis::DyTis;
pub use exhash::{Cceh, ExtendibleHash};
pub use stx_btree::BPlusTree;
pub use xindex::XIndex;

/// Base key count (`DYTIS_KEYS`, default 1 M).
pub fn base_keys() -> usize {
    std::env::var("DYTIS_KEYS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// Ops per measured phase (`DYTIS_OPS`, default `base_keys() / 2`).
pub fn base_ops() -> usize {
    std::env::var("DYTIS_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| base_keys() / 2)
}

/// Generates a Group 1 dataset scaled by the paper's relative sizes
/// (ML is the largest; RM roughly a quarter of it, Table 1).
pub fn dataset_keys(ds: Dataset, shuffled: bool) -> Vec<Key> {
    let n = ((base_keys() as f64) * ds.relative_size() / Dataset::MapL.relative_size())
        .max(50_000.0) as usize;
    let spec = DatasetSpec::new(ds, n);
    let spec = if shuffled { spec.shuffled() } else { spec };
    spec.generate()
}

/// The five indexes of Figure 8, with the paper's bulk-loading protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// DyTIS with default parameters — no bulk loading.
    Dytis,
    /// ALEX bulk loaded with the given percentage of the dataset.
    Alex(u32),
    /// XIndex bulk loaded with 70% (insertion fails below that, §4.3).
    XIndex,
    /// The STX-style B+-tree — no bulk loading.
    BTree,
}

impl IndexKind {
    /// The Figure 8 line-up.
    pub const FIG8: [IndexKind; 5] = [
        IndexKind::Dytis,
        IndexKind::Alex(10),
        IndexKind::Alex(70),
        IndexKind::XIndex,
        IndexKind::BTree,
    ];

    /// Display name as used in the paper's legends.
    pub fn name(&self) -> String {
        match self {
            IndexKind::Dytis => "DyTIS".into(),
            IndexKind::Alex(p) => format!("ALEX-{p}"),
            IndexKind::XIndex => "XIndex".into(),
            IndexKind::BTree => "B+-tree".into(),
        }
    }

    /// Bulk-load fraction in percent (0 for DyTIS and the B+-tree).
    pub fn bulk_pct(&self) -> u32 {
        match self {
            IndexKind::Dytis | IndexKind::BTree => 0,
            IndexKind::Alex(p) => *p,
            IndexKind::XIndex => 70,
        }
    }
}

/// Outcome of the loading phase: the ready index and the measured insert
/// throughput over the *non-bulk-loaded* keys (the paper excludes bulk
/// loaded keys from Load results, §4.3).
pub struct Loaded {
    /// The index holding `load_fraction` of the dataset.
    pub index: Box<dyn KvIndex>,
    /// Measured Load-phase summary (inserted keys only).
    pub load_summary: Summary,
    /// Peak memory across the loading protocol, including the transient
    /// bulk-load buffer (the paper's max-RSS measurement includes "the
    /// memory needed for bulk loading", §4.3).
    pub peak_bytes: usize,
}

/// Builds an index of `kind` holding the first `load_fraction` (in percent)
/// of `keys`: the bulk-loadable fraction is sorted and bulk loaded, the rest
/// inserted in dataset order with per-op measurement.
pub fn build_index(kind: IndexKind, keys: &[Key], load_fraction_pct: u32) -> Loaded {
    let n_load = keys.len() * load_fraction_pct as usize / 100;
    let to_load = &keys[..n_load];
    let bulk_n = (to_load.len() * kind.bulk_pct() as usize / 100).min(to_load.len());
    let mut bulk: Vec<(Key, Value)> = to_load[..bulk_n].iter().map(|&k| (k, k)).collect();
    bulk.sort_unstable();
    bulk.dedup_by_key(|p| p.0);
    let mut index: Box<dyn KvIndex> = match kind {
        IndexKind::Dytis => Box::new(DyTis::new()),
        IndexKind::Alex(_) => Box::new(Alex::bulk_load(&bulk)),
        IndexKind::XIndex => Box::new(XIndex::bulk_load(&bulk)),
        IndexKind::BTree => Box::new(BPlusTree::new()),
    };
    let after_bulk = index.memory_bytes() + bulk.capacity() * 16;
    let ops: Vec<Op> = to_load[bulk_n..]
        .iter()
        .map(|&k| Op::Insert(k, k))
        .collect();
    let load_summary = run_ops(&mut *index, &ops);
    let peak_bytes = index.memory_bytes().max(after_bulk);
    Loaded {
        index,
        load_summary,
        peak_bytes,
    }
}

/// Runs one YCSB-style workload of §4.3 end to end: loads per the
/// workload's protocol (100% for A/B/C/F, 80% for D'/E), generates the op
/// stream, and returns the measured summary.
pub fn run_workload(kind: IndexKind, keys: &[Key], workload: Workload, n_ops: usize) -> Summary {
    match workload {
        Workload::Load => build_index(kind, keys, 100).load_summary,
        Workload::A | Workload::B | Workload::C | Workload::F => {
            let mut loaded = build_index(kind, keys, 100);
            let ops = generate_ops(workload, keys, &[], n_ops, 0xFEED);
            run_ops(&mut *loaded.index, &ops)
        }
        Workload::Dp | Workload::E => {
            let split = keys.len() * 80 / 100;
            let mut loaded = build_index(kind, keys, 80);
            let ops = generate_ops(workload, &keys[..split], &keys[split..], n_ops, 0xFEED);
            run_ops(&mut *loaded.index, &ops)
        }
    }
}

/// Prints a markdown-ish table header.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n## {title}");
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_index_all_kinds_tiny() {
        let keys: Vec<u64> = (0..20_000u64).map(|k| k * 97 + 1).collect();
        for kind in IndexKind::FIG8 {
            let loaded = build_index(kind, &keys, 100);
            assert_eq!(loaded.index.len(), keys.len(), "{}", kind.name());
            assert_eq!(loaded.index.get(keys[7]), Some(keys[7]));
            if kind.bulk_pct() == 0 {
                assert_eq!(loaded.load_summary.ops, keys.len());
            } else {
                assert!(loaded.load_summary.ops < keys.len());
            }
        }
    }

    #[test]
    fn run_workload_c_on_dytis() {
        let keys: Vec<u64> = (0..30_000u64).map(|k| k * 13).collect();
        let s = run_workload(IndexKind::Dytis, &keys, Workload::C, 5_000);
        assert_eq!(s.ops, 5_000);
        assert!(s.mops > 0.0);
    }

    #[test]
    fn run_workload_e_inserts_tail() {
        let keys: Vec<u64> = (0..20_000u64).map(|k| k * 7).collect();
        let s = run_workload(IndexKind::BTree, &keys, Workload::E, 100_000);
        assert!(s.ops > 0);
    }
}
