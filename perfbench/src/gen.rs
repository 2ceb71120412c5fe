//! Seeded inputs and the reference answers the benchmark checks the engine
//! against.
//!
//! Every input stream is periodic: a pool of `period` rows generated from
//! the seed is replayed cycle after cycle, with windows aligned to the
//! period. That keeps inputs compact (they are built before the timed
//! region and must not dominate RSS) and lets the reference for any number
//! of sent rows be read off per-period prefix arrays.

use crate::stats::row_hash;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x853c_49e6_748f_ea9b)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// Row-major integer table: the input pool of one basket.
pub struct Table {
    pub width: usize,
    data: Vec<i64>,
}

impl Table {
    pub fn new(width: usize) -> Self {
        Table {
            width,
            data: Vec::new(),
        }
    }

    pub fn push(&mut self, row: &[i64]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
    }

    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Column `c` as a vector (for the kernel calibration).
    pub fn column(&self, c: usize) -> Vec<i64> {
        (0..self.len()).map(|i| self.row(i)[c]).collect()
    }

    /// Every row rendered in the wire format, one line each.
    pub fn lines(&self) -> Lines {
        let mut lines = Lines::default();
        let mut buf = String::new();
        for i in 0..self.len() {
            buf.clear();
            for (j, v) in self.row(i).iter().enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                buf.push_str(&v.to_string());
            }
            lines.push(&buf);
        }
        lines
    }
}

/// Text lines packed into one buffer.
#[derive(Default)]
pub struct Lines {
    buf: String,
    ends: Vec<u32>,
}

impl Lines {
    fn push(&mut self, line: &str) {
        self.buf.push_str(line);
        self.ends.push(self.buf.len() as u32);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }
}

/// The reference answer of one continuous query over a periodic input.
///
/// Rows are listed in delivery order; each carries the position (within
/// the period) of the last input row that contributes to it, so the
/// benchmark knows which inputs a delivered row completes and when that
/// input was stamped.
pub struct Expect {
    pub query: String,
    /// Input rows per period of the driving basket.
    pub period: u64,
    /// Last contributing input position of each expected row, ascending.
    last: Vec<u32>,
    /// `prefix[i]`: wrapping sum of the first `i` row hashes.
    prefix: Vec<u64>,
}

impl Expect {
    pub fn new(query: &str, period: usize) -> Self {
        Expect {
            query: query.to_string(),
            period: period as u64,
            last: Vec::new(),
            prefix: vec![0],
        }
    }

    pub fn push(&mut self, last_input: usize, row: &[i64]) {
        debug_assert!(last_input < self.period as usize);
        self.last.push(last_input as u32);
        let h = self.prefix.last().copied().unwrap_or(0);
        self.prefix.push(h.wrapping_add(row_hash(row)));
    }

    fn per_period(&self) -> u64 {
        self.last.len() as u64
    }

    /// Rows expected once the first `inputs` input rows have been sent.
    pub fn rows_for(&self, inputs: u64) -> u64 {
        let cycles = inputs / self.period;
        let rest = (inputs % self.period) as u32;
        cycles * self.per_period() + self.last.partition_point(|&p| p < rest) as u64
    }

    /// Order-independent checksum of the first `rows` expected rows.
    pub fn hash_for(&self, rows: u64) -> u64 {
        let n = self.per_period();
        if n == 0 {
            return 0;
        }
        let whole = self.prefix[n as usize].wrapping_mul(rows / n);
        whole.wrapping_add(self.prefix[(rows % n) as usize])
    }

    /// Global position of the last input contributing to row `row`.
    pub fn last_input(&self, row: u64) -> u64 {
        let n = self.per_period();
        (row / n) * self.period + self.last[(row % n) as usize] as u64
    }

    /// Inputs whose results are all delivered once `rows` rows arrived
    /// in order: everything up to the last input of the last row.
    pub fn completed(&self, rows: u64) -> u64 {
        if rows == 0 || self.per_period() == 0 {
            0
        } else {
            self.last_input(rows - 1) + 1
        }
    }
}

/// Value domain of the `v` column; filters select fractions of it.
pub const V_DOMAIN: u64 = 1000;

/// `s (id, v, p)` pool of `n` rows: `id` is the position in the pool.
pub fn single_stream(seed: u64, n: usize) -> Table {
    let mut rng = Rng::new(seed);
    let mut t = Table::new(3);
    for i in 0..n {
        let v = rng.below(V_DOMAIN);
        let p = rng.below(1_000_000);
        t.push(&[i as i64, v, p]);
    }
    t
}

/// Reference of `select s2.id, s2.p*3+s2.v ... where <v < below>` over a
/// `single_stream` pool.
pub fn filter_project(query: &str, s: &Table, below: i64) -> Expect {
    let mut e = Expect::new(query, s.len());
    for i in 0..s.len() {
        let r = s.row(i);
        if r[1] < below {
            e.push(i, &[r[0], r[2] * 3 + r[1]]);
        }
    }
    e
}

/// Shape of the fan-out workload's streams and windows.
pub const FAN_GROUPS: u64 = 16;
pub const FAN_KEYS: u64 = 256;
pub const FAN_TAILS: usize = 8;
pub const AGG_ROWS: usize = 1024;
pub const JOIN_S_ROWS: usize = 128;
pub const JOIN_R_ROWS: usize = 32;
/// `s` rows per `r` row: the join windows advance in lockstep.
pub const R_EVERY: usize = JOIN_S_ROWS / JOIN_R_ROWS;

/// `s (id, g, k, v)` pool of `n` rows and `r (k, w)` pool of `n / 4`.
pub fn fanout_streams(seed: u64, n: usize) -> (Table, Table) {
    assert!(n.is_multiple_of(AGG_ROWS) && n.is_multiple_of(JOIN_S_ROWS));
    let mut rng = Rng::new(seed);
    let mut s = Table::new(4);
    for i in 0..n {
        let g = rng.below(FAN_GROUPS);
        let k = rng.below(FAN_KEYS);
        let v = rng.below(V_DOMAIN);
        s.push(&[i as i64, g, k, v]);
    }
    let mut r = Table::new(2);
    for i in 0..n / R_EVERY {
        r.push(&[rng.below(FAN_KEYS), i as i64]);
    }
    (s, r)
}

/// References of the fan-out queries: `t0..t7`, `agg`, `j`, in that
/// order (matching `workload::fanout_queries`).
pub fn fanout_expect(s: &Table, r: &Table) -> Vec<Expect> {
    let n = s.len();
    let mut out: Vec<Expect> = (0..FAN_TAILS)
        .map(|t| {
            let mut e = Expect::new(&format!("t{t}"), n);
            for i in 0..n {
                let row = s.row(i);
                if row[1] == t as i64 {
                    e.push(i, &[row[0], row[3]]);
                }
            }
            e
        })
        .collect();

    let mut agg = Expect::new("agg", n);
    for w in 0..n / AGG_ROWS {
        let mut count = [0i64; FAN_GROUPS as usize];
        let mut sum = [0i64; FAN_GROUPS as usize];
        for i in w * AGG_ROWS..(w + 1) * AGG_ROWS {
            let row = s.row(i);
            count[row[1] as usize] += 1;
            sum[row[1] as usize] += row[3];
        }
        for g in 0..FAN_GROUPS as usize {
            if count[g] > 0 {
                agg.push((w + 1) * AGG_ROWS - 1, &[g as i64, count[g], sum[g]]);
            }
        }
    }
    out.push(agg);

    let mut j = Expect::new("j", n);
    for e in 0..n / JOIN_S_ROWS {
        let rs = e * JOIN_R_ROWS..(e + 1) * JOIN_R_ROWS;
        for i in e * JOIN_S_ROWS..(e + 1) * JOIN_S_ROWS {
            let srow = s.row(i);
            for k in rs.clone() {
                let rrow = r.row(k);
                if rrow[0] == srow[2] {
                    j.push((e + 1) * JOIN_S_ROWS - 1, &[srow[0], rrow[1]]);
                }
            }
        }
    }
    out.push(j);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = single_stream(7, 100);
        let b = single_stream(7, 100);
        let c = single_stream(8, 100);
        assert_eq!(a.row(42), b.row(42));
        assert!((0..100).any(|i| a.row(i) != c.row(i)));
    }

    #[test]
    fn expect_counts_and_hashes_across_cycles() {
        let mut e = Expect::new("q", 10);
        e.push(2, &[1]);
        e.push(5, &[2]);
        e.push(9, &[3]);
        assert_eq!(e.rows_for(0), 0);
        assert_eq!(e.rows_for(3), 1);
        assert_eq!(e.rows_for(10), 3);
        assert_eq!(e.rows_for(16), 5);
        assert_eq!(e.last_input(4), 15);
        assert_eq!(e.completed(4), 13);
        let one = row_hash(&[1])
            .wrapping_add(row_hash(&[2]))
            .wrapping_add(row_hash(&[3]));
        assert_eq!(e.hash_for(3), one);
        assert_eq!(
            e.hash_for(5),
            one.wrapping_add(row_hash(&[1]))
                .wrapping_add(row_hash(&[2]))
        );
    }

    #[test]
    fn lines_round_trip() {
        let t = single_stream(1, 5);
        let l = t.lines();
        assert_eq!(l.len(), 5);
        let fields: Vec<i64> = l.get(3).split(',').map(|f| f.parse().unwrap()).collect();
        assert_eq!(fields, t.row(3));
    }

    #[test]
    fn fanout_reference_shape() {
        let (s, r) = fanout_streams(3, 4096);
        let e = fanout_expect(&s, &r);
        assert_eq!(e.len(), FAN_TAILS + 2);
        // Every tail row is one input row of its group.
        let tails: u64 = e[..FAN_TAILS].iter().map(|q| q.rows_for(4096)).sum();
        let in_tail_groups = (0..4096)
            .filter(|&i| s.row(i)[1] < FAN_TAILS as i64)
            .count();
        assert_eq!(tails, in_tail_groups as u64);
        // Aggregate counts of one window add up to the window size; no
        // window result exists before its last row.
        assert_eq!(e[FAN_TAILS].rows_for(AGG_ROWS as u64 - 1), 0);
        assert!(e[FAN_TAILS].rows_for(AGG_ROWS as u64) > 0);
        assert_eq!(e[FAN_TAILS + 1].rows_for(JOIN_S_ROWS as u64 - 1), 0);
    }
}
