//! Plain-text, CSV, Markdown, and JSON table rendering.

use leakage_telemetry::json::{self, Json};
use serde::{Deserialize, Serialize};

/// A rendered experiment result: a titled grid of cells.
///
/// # Examples
///
/// ```
/// use leakage_experiments::Table;
///
/// let mut t = Table::new("Demo", vec!["x".into(), "y".into()]);
/// t.push_row(vec!["1".into(), "2".into()]);
/// assert!(t.to_text().contains("Demo"));
/// assert_eq!(t.to_csv(), "x,y\n1,2\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Renders an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders a GitHub-flavored Markdown table.
    pub fn to_markdown(&self) -> String {
        let escape = |cell: &str| cell.replace('|', "\\|");
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(" | "),
        );
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(
                &row.iter()
                    .map(|c| escape(c))
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push_str(" |\n");
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Renders the canonical JSON encoding shared by the run manifest
    /// tooling and the analysis server:
    ///
    /// ```json
    /// {"title": "...", "headers": ["...", ...], "rows": [["...", ...], ...]}
    /// ```
    ///
    /// Cells stay strings — they are the exact characters the batch
    /// pipeline prints, so a served table is byte-identical in values
    /// to the CSV artifacts.
    pub fn to_json(&self) -> String {
        let row = |cells: &[String]| json::array(cells.iter().map(|c| json::string(c)));
        json::object([
            json::key("title") + &json::string(&self.title),
            json::key("headers") + &row(&self.headers),
            json::key("rows") + &json::array(self.rows.iter().map(|r| row(r))),
        ])
    }

    /// Parses a [`to_json`](Table::to_json) document back into a
    /// table (the round-trip counterpart, used by clients of the
    /// analysis server and by the codec tests).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn from_json(text: &str) -> Result<Table, String> {
        let doc = json::parse(text).map_err(|err| err.to_string())?;
        let strings = |value: &Json, what: &str| -> Result<Vec<String>, String> {
            value
                .as_array()
                .ok_or_else(|| format!("{what} is not an array"))?
                .iter()
                .map(|cell| {
                    cell.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} holds a non-string cell"))
                })
                .collect()
        };
        let title = doc
            .get("title")
            .and_then(Json::as_str)
            .ok_or("missing string \"title\"")?;
        let headers = strings(doc.get("headers").ok_or("missing \"headers\"")?, "headers")?;
        let mut table = Table::new(title, headers);
        let rows = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("missing array \"rows\"")?;
        for (index, row) in rows.iter().enumerate() {
            let cells = strings(row, "row")?;
            if cells.len() != table.headers().len() {
                return Err(format!(
                    "row {index} has {} cells, header has {}",
                    cells.len(),
                    table.headers().len()
                ));
            }
            table.push_row(cells);
        }
        Ok(table)
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Formats a percentage to one decimal, the paper's precision.
pub(crate) fn pct(value: f64) -> String {
    format!("{value:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", vec!["a".into(), "bb".into()]);
        t.push_row(vec!["111".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4444".into()]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "== T ==");
        // Header and rows share column widths.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| a | bb |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 111 | 2 |"));
        let mut t = Table::new("p", vec!["x".into()]);
        t.push_row(vec!["a|b".into()]);
        assert!(t.to_markdown().contains("a\\|b"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("q", vec!["x".into()]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_round_trips() {
        // Cells exercising every escape class the renderer can emit.
        let mut t = Table::new(
            "Table X: quotes \"and\" commas",
            vec!["a,b".into(), "c".into()],
        );
        t.push_row(vec!["12.3".into(), "say \"hi\"\nline2".into()]);
        t.push_row(vec!["-4".into(), "τ≥8".into()]);
        let doc = t.to_json();
        let back = Table::from_json(&doc).unwrap();
        assert_eq!(back, t, "JSON round-trip must be lossless");
        // Canonical form is stable: re-encoding the parsed table is
        // byte-identical.
        assert_eq!(back.to_json(), doc);
        // Real artifacts round-trip too.
        let real = crate::table1::generate();
        assert_eq!(Table::from_json(&real.to_json()).unwrap(), real);
    }

    #[test]
    fn from_json_rejects_malformed_tables() {
        for bad in [
            "not json",
            "{\"headers\": [], \"rows\": []}",
            "{\"title\": \"t\", \"rows\": []}",
            "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": [[\"1\", \"2\"]]}",
            "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": [[1]]}",
            "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": 3}",
        ] {
            assert!(Table::from_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn row_width_checked() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn accessors_and_display() {
        let t = sample();
        assert_eq!(t.title(), "T");
        assert_eq!(t.headers().len(), 2);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.to_string(), t.to_text());
        assert_eq!(super::pct(12.345), "12.3");
    }
}
