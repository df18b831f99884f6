//! Sample statistics and process readings from `/proc`.

/// Latency samples of one op class, in milliseconds.
#[derive(Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn total_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    /// Nearest-rank percentile `p` (0..=100); `None` when there are no
    /// samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Samples strictly above percentile `p`.
    pub fn above(&self, p: f64) -> usize {
        match self.percentile(p) {
            Some(v) => self.ms.iter().filter(|&&x| x > v).count(),
            None => 0,
        }
    }
}

/// Median of a non-empty list.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time, in milliseconds, that the task `task` has spent running
/// (user and system), from the first field of `/proc/<task>/schedstat`,
/// which counts nanoseconds. `"thread-self"` names the calling thread;
/// a pid names that process's main thread. The kernel folds a running
/// task's time in at scheduler ticks, so one reading may lag by up to a
/// tick; over many ops the lags cancel.
pub fn cpu_ms(task: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{task}/schedstat")).ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e6)
}

/// Peak resident set size (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for ms in 1..=100 {
            s.push_ms(ms as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.above(90.0), 10);
        assert_eq!(Samples::default().percentile(50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readings_exist_for_self() {
        // The kernel folds running time into schedstat at scheduler
        // ticks, so burn a few ticks' worth first.
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(start.elapsed());
        }
        assert!(cpu_ms("thread-self").unwrap() > 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
