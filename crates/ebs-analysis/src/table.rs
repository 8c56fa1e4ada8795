//! Minimal aligned text-table rendering for the experiment harness — the
//! binaries print the same rows the paper's tables report.

use std::fmt::Write as _;

/// A simple text table with a header row and aligned columns.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: Option<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            title: None,
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Attach a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append one row; shorter rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Render with space-aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "== {t} ==");
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w - cell.chars().count();
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad));
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let rule: String = widths
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let dash = "-".repeat(*w);
                    if i > 0 {
                        format!("  {dash}")
                    } else {
                        dash
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", rule.trim_end());
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a fraction as a percentage with one decimal, paper style
/// (`0.754` → `"75.4"`).
pub fn pct(frac: f64) -> String {
    format!("{:.1}", frac * 100.0)
}

/// Format a pair of read/write values the way the paper's tables do:
/// `"75.4 / 42.6"`.
pub fn rw_pair(read: impl std::fmt::Display, write: impl std::fmt::Display) -> String {
    format!("{read} / {write}")
}

/// Format a float with sensible precision for table cells: large values get
/// one decimal, small ones three.
pub fn num(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["level", "value"]);
        t.row(["CN", "14.3"]);
        t.row(["VM-long-name", "1.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("level"));
        assert!(lines[1].starts_with("---"));
        // Columns align: "14.3" and "1.0" start at the same offset.
        let off_a = lines[2].find("14.3").unwrap();
        let off_b = lines[3].find("1.0").unwrap();
        assert_eq!(off_a, off_b);
    }

    #[test]
    fn title_and_padding() {
        let mut t = Table::new(["a", "b", "c"]).with_title("Table X");
        t.row(["1"]); // short row padded
        let s = t.render();
        assert!(s.starts_with("== Table X =="));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.754), "75.4");
        assert_eq!(rw_pair("75.4", "42.6"), "75.4 / 42.6");
        assert_eq!(num(12345.678), "12345.7");
        assert_eq!(num(3.21987), "3.22");
        assert_eq!(num(0.1234), "0.123");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(["x"]);
        t.row(["1"]);
        assert_eq!(t.to_string(), t.render());
    }
}
