//! Sparse-table range-minimum queries.

/// A static sparse table answering range-minimum queries in O(1) after
/// O(n log n) preprocessing.
///
/// Values are compared by `Ord`; ties resolve to the leftmost minimum.
#[derive(Debug, Clone)]
pub struct SparseTableRmq<T> {
    /// `table[k][i]` = index of the minimum in `values[i .. i + 2^k]`.
    table: Vec<Vec<u32>>,
    values: Vec<T>,
}

impl<T: Ord + Clone> SparseTableRmq<T> {
    /// Builds the table over `values`.
    pub fn new(values: Vec<T>) -> Self {
        let n = values.len();
        let levels = if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize + 1
        };
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        table.push((0..n as u32).collect());
        let mut k = 1;
        while (1 << k) <= n {
            let half = 1 << (k - 1);
            let prev = &table[k - 1];
            let mut row = Vec::with_capacity(n - (1 << k) + 1);
            for i in 0..=(n - (1 << k)) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if values[a as usize] <= values[b as usize] {
                    a
                } else {
                    b
                });
            }
            table.push(row);
            k += 1;
        }
        SparseTableRmq { table, values }
    }

    /// Number of underlying values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Index of the minimum value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= len()`.
    pub fn argmin(&self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi < self.values.len(), "invalid RMQ range");
        let span = hi - lo + 1;
        let k = (usize::BITS - 1 - span.leading_zeros()) as usize;
        let a = self.table[k][lo];
        let b = self.table[k][hi + 1 - (1 << k)];
        if self.values[a as usize] <= self.values[b as usize] {
            a as usize
        } else {
            b as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ranges() {
        let t = SparseTableRmq::new(vec![5, 2, 7, 2, 9, 1]);
        assert_eq!(t.argmin(0, 5), 5);
        assert_eq!(t.argmin(0, 4), 1); // leftmost tie
        assert_eq!(t.argmin(2, 3), 3);
        assert_eq!(t.argmin(0, 2), 1);
        assert_eq!(t.argmin(4, 4), 4);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn exhaustive_against_linear_scan() {
        let vals: Vec<i64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3];
        let t = SparseTableRmq::new(vals.clone());
        for lo in 0..vals.len() {
            for hi in lo..vals.len() {
                let expected = *vals[lo..=hi].iter().min().unwrap();
                assert_eq!(vals[t.argmin(lo, hi)], expected, "range [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn singleton() {
        let t = SparseTableRmq::new(vec![42]);
        assert_eq!(t.argmin(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "invalid RMQ range")]
    fn out_of_range_panics() {
        let t = SparseTableRmq::new(vec![1, 2]);
        let _ = t.argmin(0, 2);
    }
}
