//! Synthetic datasets reproducing the dynamic characteristics of the paper's
//! evaluation datasets (§2.1, §4.2, Table 1).
//!
//! The five real-world datasets (Map-M, Map-L, Review-M, Review-L, Taxi) are
//! unavailable in this environment; these generators produce keys whose
//! *variance of skewness* and *key distribution divergence* — the two metrics
//! the paper defines to characterize dynamic datasets — fall in the same
//! classes (Figure 1 Groups 1–3). See DESIGN.md §3 for the substitution
//! rationale.
//!
//! # Examples
//!
//! ```
//! use datasets::{Dataset, DatasetSpec};
//!
//! let spec = DatasetSpec::new(Dataset::Taxi, 10_000).with_seed(7);
//! let keys = spec.generate();
//! assert_eq!(keys.len(), 10_000);
//! assert!(keys.iter().collect::<std::collections::HashSet<_>>().len() == keys.len());
//! ```

mod families;
pub mod io;
mod util;

pub use io::{load_keys, save_keys};
pub use util::{normal, zipf_weights, WeightedIndex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The dataset families of the paper's evaluation (§4.2 and Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Map-M: South America OpenStreetMap surrogate (low skew, medium KDD).
    MapM,
    /// Map-L: Africa OpenStreetMap surrogate (low skew, medium KDD, larger).
    MapL,
    /// Review-M: deduplicated Amazon-review surrogate (high skew, low KDD).
    ReviewM,
    /// Review-L: ratings-only Amazon-review surrogate (high skew, low KDD).
    ReviewL,
    /// TX: NYC yellow-taxi trip surrogate (medium skew, high KDD).
    Taxi,
    /// Group 3: uniform random keys.
    Uniform,
    /// Group 3: lognormal keys.
    Lognormal,
    /// Group 3: tightly clustered longitude-latitude keys.
    Longlat,
    /// Group 3: one-dimensional longitude keys.
    Longitudes,
}

impl Dataset {
    /// All Group 1 (dynamic, real-world-like) datasets, in the paper's
    /// presentation order MM, ML, RM, RL, TX.
    pub const GROUP1: [Dataset; 5] = [
        Dataset::MapM,
        Dataset::MapL,
        Dataset::ReviewM,
        Dataset::ReviewL,
        Dataset::Taxi,
    ];

    /// All Group 3 (static) datasets.
    pub const GROUP3: [Dataset; 4] = [
        Dataset::Uniform,
        Dataset::Lognormal,
        Dataset::Longlat,
        Dataset::Longitudes,
    ];

    /// Short name used in benchmark tables (matches the paper).
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataset::MapM => "MM",
            Dataset::MapL => "ML",
            Dataset::ReviewM => "RM",
            Dataset::ReviewL => "RL",
            Dataset::Taxi => "TX",
            Dataset::Uniform => "Uniform",
            Dataset::Lognormal => "Lognormal",
            Dataset::Longlat => "Longlat",
            Dataset::Longitudes => "Longitudes",
        }
    }

    /// The paper's skewness/KDD classification (Table 1 last column).
    pub fn expected_class(&self) -> &'static str {
        match self {
            Dataset::MapM | Dataset::MapL => "L,M",
            Dataset::ReviewM | Dataset::ReviewL => "H,L",
            Dataset::Taxi => "M,H",
            _ => "static",
        }
    }

    /// The paper's relative dataset size (fraction of the largest dataset,
    /// used to scale row counts: ML is ~2.5x MM, RM is the smallest).
    pub fn relative_size(&self) -> f64 {
        match self {
            Dataset::MapM => 0.39,
            Dataset::MapL => 1.0,
            Dataset::ReviewM => 0.09,
            Dataset::ReviewL => 0.25,
            Dataset::Taxi => 0.36,
            _ => 0.5,
        }
    }
}

/// A fully specified dataset: family, size, insertion order, seed.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which family to generate.
    pub dataset: Dataset,
    /// Number of unique keys to produce.
    pub num_keys: usize,
    /// When `true`, the insertion order is randomly shuffled — the paper's
    /// Group 2 "(s)" variants, which erase key-distribution divergence.
    pub shuffled: bool,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec with the default seed and original insertion order.
    pub fn new(dataset: Dataset, num_keys: usize) -> Self {
        DatasetSpec {
            dataset,
            num_keys,
            shuffled: false,
            seed: 0xD4715,
        }
    }

    /// Returns the shuffled (Group 2) variant of this spec.
    pub fn shuffled(mut self) -> Self {
        self.shuffled = true;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Display name, with the paper's "(s)" suffix for shuffled variants.
    pub fn name(&self) -> String {
        if self.shuffled {
            format!("{}(s)", self.dataset.short_name())
        } else {
            self.dataset.short_name().to_string()
        }
    }

    /// Generates the keys: unique, in the specified insertion order.
    pub fn generate(&self) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (self.dataset as u64) << 32);
        // Over-generate slightly so deduplication still leaves enough keys.
        let want = self.num_keys;
        let raw_n = want + want / 8 + 64;
        let raw = match self.dataset {
            Dataset::MapM => families::map_like(&mut rng, raw_n, 24, 4.0),
            Dataset::MapL => families::map_like(&mut rng, raw_n, 40, 5.0),
            Dataset::ReviewM => families::review_like(&mut rng, raw_n, 40_000, 1.3),
            Dataset::ReviewL => families::review_like(&mut rng, raw_n, 120_000, 1.2),
            Dataset::Taxi => families::taxi_like(&mut rng, raw_n, 3 * 365 * 86_400),
            Dataset::Uniform => families::uniform(&mut rng, raw_n),
            Dataset::Lognormal => families::lognormal(&mut rng, raw_n, 2.0),
            Dataset::Longlat => families::longlat(&mut rng, raw_n),
            Dataset::Longitudes => families::longitudes(&mut rng, raw_n),
        };
        // Deduplicate preserving insertion order; perturb low bits on
        // collision so heavy-head families still reach the target count.
        let mut seen = HashSet::with_capacity(raw_n);
        let mut keys = Vec::with_capacity(want);
        for mut k in raw {
            while !seen.insert(k) {
                k = k.wrapping_add(1);
            }
            keys.push(k);
            if keys.len() == want {
                break;
            }
        }
        // Top up in the rare case dedup consumed the surplus.
        while keys.len() < want {
            let mut k: u64 = rng.gen::<u64>() >> 1;
            while !seen.insert(k) {
                k = k.wrapping_add(1);
            }
            keys.push(k);
        }
        if self.shuffled {
            for i in (1..keys.len()).rev() {
                let j = rng.gen_range(0..=i);
                keys.swap(i, j);
            }
        }
        keys
    }
}

/// Summary statistics for Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of unique keys.
    pub num_keys: usize,
    /// `max_key - min_key` (the paper's "key range size").
    pub key_range: u64,
    /// Bytes at 16 B per record (8 B key + 8 B value).
    pub bytes: usize,
}

/// Computes Table 1-style statistics for a generated key set.
pub fn stats(keys: &[u64]) -> DatasetStats {
    let min = keys.iter().min().copied().unwrap_or(0);
    let max = keys.iter().max().copied().unwrap_or(0);
    DatasetStats {
        num_keys: keys.len(),
        key_range: max - min,
        bytes: keys.len() * 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_generate_exact_unique_counts() {
        for ds in Dataset::GROUP1.iter().chain(Dataset::GROUP3.iter()) {
            let keys = DatasetSpec::new(*ds, 5_000).generate();
            assert_eq!(keys.len(), 5_000, "{ds:?}");
            let set: HashSet<u64> = keys.iter().copied().collect();
            assert_eq!(set.len(), 5_000, "{ds:?} has duplicates");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::new(Dataset::ReviewM, 2_000).generate();
        let b = DatasetSpec::new(Dataset::ReviewM, 2_000).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::new(Dataset::Uniform, 1_000)
            .with_seed(1)
            .generate();
        let b = DatasetSpec::new(Dataset::Uniform, 1_000)
            .with_seed(2)
            .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffled_variant_is_a_permutation() {
        let spec = DatasetSpec::new(Dataset::Taxi, 3_000);
        let orig = spec.generate();
        let shuf = spec.shuffled().generate();
        assert_ne!(orig, shuf);
        let mut a = orig.clone();
        let mut b = shuf.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn names_match_paper_convention() {
        assert_eq!(DatasetSpec::new(Dataset::MapM, 1).name(), "MM");
        assert_eq!(
            DatasetSpec::new(Dataset::MapM, 1).shuffled().name(),
            "MM(s)"
        );
        assert_eq!(Dataset::Taxi.expected_class(), "M,H");
    }

    #[test]
    fn stats_reports_range() {
        let s = stats(&[10, 20, 5, 40]);
        assert_eq!(s.num_keys, 4);
        assert_eq!(s.key_range, 35);
        assert_eq!(s.bytes, 64);
    }

    #[test]
    fn taxi_original_order_drifts_upward() {
        let keys = DatasetSpec::new(Dataset::Taxi, 10_000).generate();
        // First-decile mean must be far below last-decile mean.
        let d = keys.len() / 10;
        let head: f64 = keys[..d].iter().map(|&k| k as f64).sum::<f64>() / d as f64;
        let tail: f64 = keys[keys.len() - d..]
            .iter()
            .map(|&k| k as f64)
            .sum::<f64>()
            / d as f64;
        assert!(tail > head * 1.5, "no drift: head {head} tail {tail}");
    }
}
