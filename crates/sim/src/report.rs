//! Plain-text table rendering for the experiment harness.
//!
//! Every bench target prints its paper table through this module so the
//! output format is uniform and diffable against EXPERIMENTS.md.

use std::fmt::Write as _;

/// A simple left-aligned-first-column, right-aligned-rest text table.
///
/// ```
/// use codepack_sim::Table;
/// let mut t = Table::new(vec!["Bench".into(), "IPC".into()]);
/// t.row(vec!["cc1".into(), "0.62".into()]);
/// let s = t.render();
/// assert!(s.contains("Bench") && s.contains("0.62"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
    footer: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        Table {
            headers,
            rows: Vec::new(),
            title: None,
            footer: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Table {
        self.title = Some(title.into());
        self
    }

    /// Sets a footer line printed below the rows, separated by a rule.
    pub fn with_footer(mut self, footer: impl Into<String>) -> Table {
        self.footer = Some(footer.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "=== {title} ===");
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(line, "{:<width$}", cell, width = widths[0]);
                } else {
                    let _ = write!(line, "  {:>width$}", cell, width = widths[i]);
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        if let Some(footer) = &self.footer {
            let _ = writeln!(out, "{}", "-".repeat(total));
            let _ = writeln!(out, "{footer}");
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["Bench".into(), "Ratio".into()]).with_title("Table 3");
        t.row(vec!["cc1".into(), "60.4%".into()]);
        t.row(vec!["mpeg2enc".into(), "63.1%".into()]);
        let s = t.render();
        assert!(s.starts_with("=== Table 3 ==="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len(), "rows pad to equal width");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["A".into(), "B".into()]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn footer_renders_below_a_rule() {
        let mut t = Table::new(vec!["A".into(), "B".into()]).with_footer("2 ok, 0 failed");
        t.row(vec!["x".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.last(), Some(&"2 ok, 0 failed"));
        assert!(
            lines[lines.len() - 2].starts_with('-'),
            "rule before footer"
        );
    }
}
