//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// One column of a [`Table::of_rows`] table: its header, and its cell for
/// one row.
pub(crate) type Column<R> = (&'static str, fn(&R) -> String);

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with one row per element of `rows`, filled column by column.
    pub(crate) fn of_rows<R>(title: &str, rows: &[R], columns: &[Column<R>]) -> Self {
        let header: Vec<&str> = columns.iter().map(|&(name, _)| name).collect();
        let mut table = Table::new(title, &header);
        for row in rows {
            table.push_row(columns.iter().map(|(_, cell)| cell(row)).collect());
        }
        table
    }

    /// Appends a row (stringified cells).
    fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows (for tests and for EXPERIMENTS.md generation).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                parts.push(format!("{cell:>w$}", w = w));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.header)?;
        writeln!(
            f,
            "|{}|",
            widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
        )?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "messages"]);
        t.push_row(vec!["64".into(), "123".into()]);
        t.push_row(vec!["1024".into(), "4".into()]);
        let s = format!("{t}");
        assert!(s.contains("== demo =="));
        assert!(s.contains("|    n | messages |"));
        assert!(s.contains("|   64 |      123 |"));
        assert!(s.contains("| 1024 |        4 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
