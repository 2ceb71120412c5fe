//! Exact percentiles, row checksums, and the result line.

/// Exact percentile of raw samples by linear interpolation between the
/// closest ranks (the same rule as Python's `statistics.quantiles` with
/// `method="inclusive"`). `q` is in `[0, 1]`; `None` when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Hash of one row; summing row hashes with wrapping addition gives an
/// order-independent checksum of a multiset of rows.
pub fn row_hash(row: &[i64]) -> u64 {
    let mut h = 0x2545_f491_4f6c_dd1d_u64 ^ row.len() as u64;
    for &v in row {
        h = mix(h ^ v as u64);
    }
    h
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metrics of one round, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:e},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_not_bucketed() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        assert_eq!(percentile(&mut s, 1.0), Some(100.0));
        assert_eq!(percentile(&mut s, 0.5), Some(50.5));
        assert!((percentile(&mut s, 0.9).unwrap() - 90.1).abs() < 1e-9);
        // A power-of-two histogram would report 128 for p99 of these.
        let mut s = vec![70.0, 90.0, 100.0, 101.0, 103.0];
        assert_eq!(percentile(&mut s, 1.0), Some(103.0));
        assert_eq!(median(&mut s), Some(100.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut a = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut a, 0.25), Some(2.0));
        assert_eq!(percentile(&mut a, 0.75), Some(4.0));
    }

    #[test]
    fn checksum_is_order_independent_and_column_sensitive() {
        let rows = [[1, 2], [3, 4], [5, 6]];
        let fwd = rows.iter().fold(0u64, |h, r| h.wrapping_add(row_hash(r)));
        let rev = rows
            .iter()
            .rev()
            .fold(0u64, |h, r| h.wrapping_add(row_hash(r)));
        assert_eq!(fwd, rev);
        assert_ne!(row_hash(&[1, 2]), row_hash(&[2, 1]));
        assert_ne!(row_hash(&[1]), row_hash(&[1, 0]));
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "throughput_tps",
            "threads.cpu_ns_per_tuple.gen",
            "tail.latency-max",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_keeps_all_digits() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 70.123456789, "us");
        let j = m.to_json();
        assert!(j.contains("7.0123456789e1"), "{j}");
    }
}
