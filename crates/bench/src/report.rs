//! Table rendering for experiment output: fixed-width text for humans
//! plus one JSON object per row for machines.

use crate::json::Value;

/// A simple column-aligned table that also emits JSON rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells; must match header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience: append from `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// One JSON object per row, keyed by header.
    pub fn json_rows(&self) -> Vec<Value> {
        self.rows
            .iter()
            .map(|row| {
                let mut map = Value::object();
                map.insert("table", self.title.clone());
                for (h, c) in self.headers.iter().zip(row) {
                    // Numbers stay numbers when they parse as such.
                    let v = c
                        .parse::<f64>()
                        .ok()
                        .filter(|n| n.is_finite())
                        .map(Value::Number)
                        .unwrap_or_else(|| Value::String(c.clone()));
                    map.insert(h.clone(), v);
                }
                map
            })
            .collect()
    }

    /// Print the table followed by its JSON rows (the standard experiment
    /// output format).
    pub fn print(&self) {
        println!("{}", self.render());
        for row in self.json_rows() {
            println!("@json {row}");
        }
        println!();
    }

    /// Write the table's rows to `path` as one JSON array — the
    /// `BENCH_*.json` artifact format.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        write_json(path, std::slice::from_ref(self))
    }
}

/// Write the rows of `tables`, in order, to `path` as one JSON array: the
/// artifact of an experiment that prints several tables (every row names
/// its own).
pub fn write_json(path: impl AsRef<std::path::Path>, tables: &[Table]) -> std::io::Result<()> {
    let v = Value::Array(tables.iter().flat_map(Table::json_rows).collect());
    std::fs::write(path, format!("{v}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row_str(&["a", "1"]);
        t.row_str(&["longer", "23456"]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title + header + rule + 2 rows");
        assert_eq!(lines[3].len(), lines[4].len(), "rows equal width");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_rows_typed() {
        let mut t = Table::new("demo", &["k", "v"]);
        t.row_str(&["x", "1.5"]);
        let rows = t.json_rows();
        assert_eq!(rows[0]["k"], "x");
        assert_eq!(rows[0]["v"], 1.5);
        assert_eq!(rows[0]["table"], "demo");
    }

    /// A hex signature must never reach the artifact as a double: with no
    /// `a`–`f` digit a bare one parses as a number and loses its low bits.
    #[test]
    fn hex_cells_stay_strings() {
        let mut t = Table::new("demo", &["bare", "sig"]);
        t.row_str(&["1234567890123456", "0x1234567890123456"]);
        let rows = t.json_rows();
        assert_eq!(rows[0]["bare"], 1234567890123456.0);
        assert_eq!(rows[0]["sig"], "0x1234567890123456");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row_str(&["only one"]);
    }
}
