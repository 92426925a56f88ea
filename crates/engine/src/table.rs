//! Plain-text and CSV rendering of experiment results.
//!
//! The figure-regeneration binaries print one table per paper figure: a
//! header row naming the series (routing mechanisms) and one data row per
//! x-axis point (offered load, cycle, threshold value, ...). The same table
//! can be written as aligned text for the terminal or as CSV for plotting.

use std::fmt::Write as _;

/// A simple column-oriented results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Title of the table.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Append a row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the number of cells does not match the number of headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Append a row of numeric values, formatted with `precision` decimals.
    /// `NaN` values are rendered as an empty cell (missing data point).
    pub fn push_numeric_row(&mut self, values: &[f64], precision: usize) {
        let cells = values
            .iter()
            .map(|v| {
                if v.is_nan() {
                    String::new()
                } else {
                    format!("{v:.precision$}")
                }
            })
            .collect();
        self.push_row(cells);
    }

    /// Access a cell (row, column).
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(|s| s.as_str())
    }

    /// Render as CSV (RFC-4180-ish: cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let header_line: Vec<String> = self.headers.iter().map(|h| escape(h)).collect();
        out.push_str(&header_line.join(","));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Render as an aligned plain-text table with the title on top.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new("fig", &["load", "MIN", "Base"]);
        t.push_numeric_row(&[0.1, 140.0, 141.2345], 2);
        t.push_row(vec!["0.2".into(), "150".into(), "149".into()]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 1), Some("140.00"));
        assert_eq!(t.cell(1, 2), Some("149"));
        assert_eq!(t.cell(5, 0), None);
        assert_eq!(t.title(), "fig");
        assert_eq!(t.headers().len(), 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_output_is_well_formed() {
        let mut t = Table::new("fig5a", &["load", "lat,ency"]);
        t.push_row(vec!["0.1".into(), "says \"hi\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "load,\"lat,ency\"");
        assert_eq!(lines[1], "0.1,\"says \"\"hi\"\"\"");
    }

    #[test]
    fn nan_rendered_as_empty_cell() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_numeric_row(&[1.0, f64::NAN], 1);
        assert_eq!(t.cell(0, 1), Some(""));
    }

    #[test]
    fn text_output_contains_title_and_alignment() {
        let mut t = Table::new("Figure 5a", &["load", "MIN"]);
        t.push_numeric_row(&[0.1, 140.0], 1);
        let text = t.to_text();
        assert!(text.starts_with("# Figure 5a"));
        assert!(text.contains("load"));
        assert!(text.contains("140.0"));
    }
}
