//! The host-speed probe that takes host drift out of the timings.
//!
//! On a shared 2-core host the speed of memory-bound code swings by up
//! to 2x for seconds to minutes at a time while an arithmetic loop keeps
//! its pace: the slowdown comes from neighbours on the shared caches and
//! memory, not from the cores. The probe is a fixed piece of the
//! benchmark's own code with the pipeline's memory behaviour (it
//! allocates, fills ordered and hashed maps and formats strings). It
//! runs after every op, outside the op's timer, and each op's time is
//! scaled by `PROBE_REF_MS` over the mean probe time of the ops around
//! it. The scaled time is the op's time at the probe's reference speed;
//! a change to the program moves it as it moves the raw time, because
//! the probe does not call the program.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's mean time on the reference host (2-core x86-64 VM) when
/// it is quiet.
pub const PROBE_REF_MS: f64 = 0.25;

/// Probes on each side of an op that set its scale.
const WINDOW: usize = 32;

/// The probe's work: about 0.25 ms of allocation, map and string
/// traffic.
fn probe_work(n: u64) -> usize {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        groups.entry(x % 512).or_default().push(i);
    }
    let names: HashMap<String, usize> = groups
        .iter()
        .map(|(k, v)| (format!("k{k}"), v.len()))
        .collect();
    let hits: usize = (0..n)
        .filter_map(|i| names.get(&format!("k{}", i % 600)))
        .sum();
    hits + groups.len()
}

/// Runs the probe once; its time in milliseconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    black_box(probe_work(black_box(300)));
    start.elapsed().as_secs_f64() * 1e3
}

/// Probe times in op order.
#[derive(Default)]
pub struct Probes {
    ms: Vec<f64>,
}

impl Probes {
    pub fn record(&mut self) {
        self.ms.push(probe());
    }

    /// Scale factors, one per probe: `PROBE_REF_MS` over the mean of the
    /// probes within `WINDOW` of it.
    pub fn factors(&self) -> Vec<f64> {
        let mut prefix = vec![0.0];
        for ms in &self.ms {
            prefix.push(prefix.last().copied().unwrap_or(0.0) + ms);
        }
        let n = self.ms.len();
        (0..n)
            .map(|i| {
                let (lo, hi) = (i.saturating_sub(WINDOW), (i + WINDOW + 1).min(n));
                PROBE_REF_MS * (hi - lo) as f64 / (prefix[hi] - prefix[lo])
            })
            .collect()
    }

    /// One scale factor for all the probes; 1 when there are none.
    pub fn factor(&self) -> f64 {
        if self.ms.is_empty() {
            return 1.0;
        }
        PROBE_REF_MS * self.ms.len() as f64 / self.total_ms()
    }

    /// Total probe time, ms.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Mean probe time, ms.
    pub fn mean_ms(&self) -> f64 {
        self.total_ms() / self.ms.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_to_the_reference() {
        let mut p = Probes {
            ms: vec![PROBE_REF_MS; 10],
        };
        p.ms.extend(vec![2.0 * PROBE_REF_MS; 100]);
        let f = p.factors();
        assert!((f[0] - 1.0).abs() < 0.5);
        assert!((f[109] - 0.5).abs() < 1e-12);
        assert!(p.factor() < 1.0);
        assert!(probe() > 0.0);
    }
}
