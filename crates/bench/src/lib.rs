//! `bench` — the figure- and table-regeneration harness.
//!
//! One binary per figure of the paper's evaluation (see DESIGN.md's
//! experiment index):
//!
//! | binary | paper figure | what it prints |
//! |--------|--------------|----------------|
//! | `fig1_stream` | Fig. 1 | STREAM bandwidth vs threads, MCDRAM vs DDR4 |
//! | `fig2_stencil_fits` | Fig. 2 | Stencil3D time, HBM vs DDR4, dataset fits |
//! | `fig5_projections` | Fig. 5 | per-lane timelines: naive vs single vs multi IO |
//! | `fig6_sync_async` | Fig. 6 | sync vs async fetch overhead breakdown |
//! | `fig7_memcpy` | Fig. 7 | migration memcpy cost vs block size & direction |
//! | `fig8_stencil_speedup` | Fig. 8 | stencil speedups vs naive per strategy |
//! | `fig9_matmul_speedup` | Fig. 9 | matmul speedups vs naive per strategy |
//! | `fig8_full_scale` | Fig. 8 | same, paper-literal sizes in virtual time |
//! | `fig9_full_scale` | Fig. 9 | same, paper-literal sizes in virtual time |
//! | `ablations` | — | A1..A6 design-choice ablations |
//!
//! Every binary accepts `--quick` (smaller sweep, seconds) and `--full`
//! (closer to the paper's sizes, minutes); the default sits in between.
//! Output goes to stdout and, when `--save` is given, to
//! `target/figures/<name>.txt`.

use std::fmt::Write as _;

/// Sweep size selector shared by all figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest meaningful sweep (CI-friendly).
    Quick,
    /// Default.
    Normal,
    /// Closest to the paper's configuration.
    Full,
}

impl Scale {
    /// Parse from argv: `--quick` / `--full`, default Normal.
    pub fn from_args() -> (Self, bool) {
        let mut scale = Scale::Normal;
        let mut save = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" => scale = Scale::Full,
                "--save" => save = true,
                other => {
                    eprintln!("unknown argument {other}; expected --quick/--full/--save");
                    std::process::exit(2);
                }
            }
        }
        (scale, save)
    }

    /// Pick a value by scale.
    pub fn pick<T: Copy>(self, quick: T, normal: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Normal => normal,
            Scale::Full => full,
        }
    }
}

/// A fixed-width text table builder for figure output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * cols)
        );
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Emit a figure's output: print it, and save it under
/// `target/figures/` when requested.
pub fn emit(name: &str, body: &str, save: bool) {
    println!("{body}");
    if save {
        let dir = std::path::Path::new("target/figures");
        std::fs::create_dir_all(dir).expect("create target/figures");
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, body).expect("write figure output");
        eprintln!("saved to {}", path.display());
    }
}

/// Format bytes as MiB with 1 decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Format a bandwidth (bytes/sec) as MiB/s.
pub fn mibps(bw: f64) -> String {
    format!("{:.1}", bw / (1024.0 * 1024.0))
}

/// Format nanoseconds as milliseconds with 1 decimal.
pub fn ms(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mib(1 << 20), "1.0");
        assert_eq!(ms(1_500_000), "1.5");
        assert_eq!(mibps(2.0 * 1024.0 * 1024.0), "2.0");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Normal.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }
}
