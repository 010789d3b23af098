//! Reproduction harness: one experiment per table/figure of the paper.
//!
//! Every experiment returns a [`Table`]; the `repro` binary renders it to
//! the terminal or regenerates `EXPERIMENTS.md` (`repro all`). Where the
//! paper prints concrete numbers, the experiment carries them as
//! `paper …` columns so the shape comparison is one glance.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`fig7`, `table2`, …).
    pub id: &'static str,
    /// Human title (what the paper's caption says).
    pub title: String,
    /// Column headers (after the row label).
    pub columns: Vec<String>,
    /// Rows: label + one value per column (`None` renders as `-`).
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Shape-fidelity notes: what must hold, and how it compares to the
    /// paper's numbers.
    pub notes: String,
    /// Wall-clock measurements (solve or call times). [`Table::render`]
    /// prints them; [`Table::markdown`] leaves them out, so
    /// `EXPERIMENTS.md` holds only deterministic output.
    pub timing: String,
    /// Indices of the columns that hold counts, rendered as integers.
    pub count_columns: Vec<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            id,
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
            timing: String::new(),
            count_columns: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Appends a row of plain values.
    pub fn row_all(&mut self, label: impl Into<String>, values: &[f64]) {
        self.row(label.into(), values.iter().map(|v| Some(*v)).collect());
    }

    /// Renders a terminal table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "== {} — {} ==", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([18])
            .max()
            .unwrap();
        let _ = write!(s, "{:<label_w$}", "");
        for c in &self.columns {
            let _ = write!(s, " {c:>14}");
        }
        let _ = writeln!(s);
        for (label, vals) in &self.rows {
            let _ = write!(s, "{label:<label_w$}");
            for (col, v) in vals.iter().enumerate() {
                let _ = write!(s, " {:>14}", self.cell(col, *v));
            }
            let _ = writeln!(s);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(s, "-- {}", self.notes);
        }
        if !self.timing.is_empty() {
            let _ = writeln!(s, "-- measured: {}", self.timing);
        }
        s
    }

    /// Renders a Markdown table (for EXPERIMENTS.md).
    pub fn markdown(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "### `{}` — {}\n", self.id, self.title);
        let _ = write!(s, "| |");
        for c in &self.columns {
            let _ = write!(s, " {c} |");
        }
        let _ = writeln!(s);
        let _ = write!(s, "|---|");
        for _ in &self.columns {
            let _ = write!(s, "---|");
        }
        let _ = writeln!(s);
        for (label, vals) in &self.rows {
            let _ = write!(s, "| {label} |");
            for (col, v) in vals.iter().enumerate() {
                let _ = write!(s, " {} |", self.cell(col, *v));
            }
            let _ = writeln!(s);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(s, "\n{}\n", self.notes);
        }
        s
    }
}

impl Table {
    /// One cell's text: `-` for a missing value, an integer in a count
    /// column, [`fmt_value`] otherwise.
    fn cell(&self, col: usize, v: Option<f64>) -> String {
        match v {
            None => "-".into(),
            Some(x) if self.count_columns.contains(&col) => format!("{x:.0}"),
            Some(x) => fmt_value(x),
        }
    }
}

/// Compact value formatting: dollars and sub-unit values keep precision,
/// larger magnitudes round sensibly.
fn fmt_value(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 {
        "0".into()
    } else if a < 0.01 {
        format!("{x:.6}")
    } else if a < 1.0 {
        format!("{x:.4}")
    } else if a < 100.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_markdown() {
        let mut t = Table::new("fig0", "demo", &["time (s)", "cost ($)"]);
        t.row_all("Lambda", &[22.03, 0.00018]);
        t.row("Sage 2", vec![Some(484.5), None]);
        t.notes = "shape: Lambda cheapest".into();
        let r = t.render();
        assert!(r.contains("fig0"));
        assert!(r.contains("22.03"));
        assert!(r.contains("0.000180"));
        assert!(r.contains('-'));
        let m = t.markdown();
        assert!(m.starts_with("### `fig0`"));
        assert!(m.contains("| Lambda | 22.03 | 0.000180 |"));
    }

    #[test]
    fn counts_render_as_integers_and_timing_stays_out_of_markdown() {
        let mut t = Table::new("x", "y", &["cuts", "time (s)"]);
        t.count_columns = vec![0];
        t.row_all("m", &[20000.0, 123.0]);
        t.timing = "solve took 3 ms".into();
        assert!(t.render().contains("20000") && !t.render().contains("20000.0"));
        assert!(t.render().contains("-- measured: solve took 3 ms"));
        let m = t.markdown();
        assert!(m.contains("| m | 20000 | 123.0 |"), "{m}");
        assert!(!m.contains("solve took"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row_all("bad", &[1.0]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(0.00018), "0.000180");
        assert_eq!(fmt_value(0.25), "0.2500");
        assert_eq!(fmt_value(22.031), "22.03");
        assert_eq!(fmt_value(484.51), "484.5");
    }
}
