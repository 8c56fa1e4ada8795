//! Minimal dense linear algebra: just enough for ordinary least squares,
//! ridge regression, and the attention feature maps.

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len());
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solve `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting. Returns `None` when `A` is (numerically) singular.
pub fn solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows, a.cols, "solve needs a square system");
    assert_eq!(a.rows, b.len());
    let n = a.rows;
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m[(r, col)].abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaNs"))?;
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        for r in col + 1..n {
            let f = m[(r, col)] / m[(col, col)];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                m[(r, j)] -= f * m[(col, j)];
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        x[col] /= m[(col, col)];
        for r in 0..col {
            x[r] -= m[(r, col)] * x[col];
        }
    }
    Some(x)
}

/// Ridge regression: solve `(XᵀX + λI) β = Xᵀ y`. Rows of `x` are samples.
/// Returns `None` on a singular system (only possible with λ = 0).
pub fn ridge(x: &Mat, y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(x.rows, y.len());
    let xt = x.transpose();
    let mut gram = xt.matmul(x);
    for i in 0..gram.rows {
        gram[(i, i)] += lambda;
    }
    let rhs = xt.matvec(y);
    solve(&gram, &rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn transpose_and_row() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn solve_recovers_solution() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &[1.0, 2.0]), None);
    }

    #[test]
    fn solve_with_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ridge_matches_exact_on_clean_data() {
        // y = 2a + 3b, plenty of samples, tiny λ.
        let rows = 10;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..rows {
            let a = i as f64;
            let b = (i * i) as f64 * 0.1;
            data.push(a);
            data.push(b);
            y.push(2.0 * a + 3.0 * b);
        }
        let x = Mat::from_vec(rows, 2, data);
        let beta = ridge(&x, &y, 1e-9).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-5);
        assert!((beta[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![7.0, 5.0]);
    }
}
