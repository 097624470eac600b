//! Timeline data model and its hand-rolled JSON serialization (the repo
//! vendors no serde; see `bench/src/bin/fig12_concurrency.rs` for the idiom).

use index_traits::MaintenanceStats;

/// One live metric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Global op index the sample was taken at (1-based: after that op).
    pub op_index: usize,
    /// Name of the phase the sample falls in.
    pub phase: String,
    /// Variance of skewness of the current insert window (PLR models per
    /// chunk; 0 when the window is still too small).
    pub skewness: f64,
    /// KL divergence between the previous and current insert windows.
    pub kl: f64,
    /// Maintenance counters accumulated since the run started.
    pub stats: MaintenanceStats,
}

/// Aggregate result of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Phase name.
    pub name: String,
    /// First op index (inclusive).
    pub start: usize,
    /// One past the last op index.
    pub end: usize,
    /// Wall-clock nanoseconds spent in the phase.
    pub elapsed_ns: u64,
    /// Maintenance counters fired during the phase.
    pub delta: MaintenanceStats,
}

/// The full result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Scenario name.
    pub scenario: String,
    /// Target display name.
    pub target: String,
    /// Total ops replayed.
    pub ops: usize,
    /// Live metric samples in op order.
    pub samples: Vec<Sample>,
    /// Per-phase aggregates in phase order.
    pub phases: Vec<PhaseResult>,
    /// Maintenance counters for the whole run.
    pub total: MaintenanceStats,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn stats_json(s: &MaintenanceStats) -> String {
    format!(
        concat!(
            "{{\"splits\":{},\"expansions\":{},\"remaps\":{},",
            "\"doublings\":{},\"shrinks\":{},\"keys_moved\":{}}}"
        ),
        s.splits, s.expansions, s.remaps, s.doublings, s.shrinks, s.keys_moved
    )
}

impl Timeline {
    /// Serializes the timeline as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"scenario\":\"{}\",\"target\":\"{}\",\"ops\":{},",
            json_escape(&self.scenario),
            json_escape(&self.target),
            self.ops
        ));
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"elapsed_ns\":{},\"maintenance\":{}}}",
                json_escape(&p.name),
                p.start,
                p.end,
                p.elapsed_ns,
                stats_json(&p.delta)
            ));
        }
        out.push_str("],\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "{{\"op\":{},\"phase\":\"{}\",\"skewness\":{:.4},",
                    "\"kl\":{:.6},\"stats\":{}}}"
                ),
                s.op_index,
                json_escape(&s.phase),
                s.skewness,
                s.kl,
                stats_json(&s.stats)
            ));
        }
        out.push_str(&format!("],\"total\":{}}}", stats_json(&self.total)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_expected_shape() {
        let tl = Timeline {
            scenario: "s\"1".into(),
            target: "dytis".into(),
            ops: 10,
            samples: vec![Sample {
                op_index: 5,
                phase: "a".into(),
                skewness: 1.25,
                kl: 0.5,
                stats: MaintenanceStats {
                    splits: 1,
                    shrinks: 2,
                    ..Default::default()
                },
            }],
            phases: vec![PhaseResult {
                name: "a".into(),
                start: 0,
                end: 10,
                elapsed_ns: 123,
                delta: MaintenanceStats::default(),
            }],
            total: MaintenanceStats::default(),
        };
        let j = tl.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"scenario\":\"s\\\"1\""));
        assert!(j.contains("\"shrinks\":2"));
        assert!(j.contains("\"elapsed_ns\":123"));
        assert_eq!(j.matches("\"maintenance\"").count(), 1);
        // Balanced braces (cheap well-formedness proxy without a parser).
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
    }
}
