//! Order statistics, seeded generators and digests shared by every
//! workload.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One SplitMix64 step: a well-mixed 64-bit function of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from a workload seed and a
/// purpose tag, so every input the benchmark generates follows from
/// `--seed` alone.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix(mix(seed) ^ tag)
}

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Order-sensitive digest of a campaign's artifacts (file names and
/// bytes), the identity two runs must share to have simulated the same
/// thing.
pub fn artifacts_digest(files: &[nosq_lab::Artifact]) -> u64 {
    let mut h = nosq_serve::fingerprint::Fnv1a::new();
    for file in files {
        h.update(file.file_name.as_bytes()).update(b"\0");
        h.update(file.contents.as_bytes()).update(b"\0");
    }
    h.finish()
}

/// Folds `next` into a running digest.
pub fn chain(digest: u64, next: u64) -> u64 {
    let mut h = nosq_serve::fingerprint::Fnv1a::new();
    h.update(&digest.to_le_bytes()).update(&next.to_le_bytes());
    h.finish()
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` for this
/// process) in MiB; `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        assert_ne!(r.next_u64(), r.next_u64());
        assert_ne!(derive(1, 2), derive(2, 2));
    }
}
