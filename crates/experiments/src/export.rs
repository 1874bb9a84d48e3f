//! Plot-ready data export: whitespace-separated `.dat` series files
//! (gnuplot / matplotlib `loadtxt` compatible), one per figure.

use std::io::Write;
use std::path::Path;

/// Writes one `.dat` file: a `#`-comment header naming the columns, then
/// one whitespace-separated row per entry.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_dat(
    path: impl AsRef<Path>,
    title: &str,
    columns: &[&str],
    rows: &[Vec<f64>],
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# {title}")?;
    writeln!(f, "# {}", columns.join(" "))?;
    for row in rows {
        debug_assert_eq!(row.len(), columns.len(), "row arity mismatch");
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        writeln!(f, "{}", cells.join(" "))?;
    }
    Ok(())
}

impl crate::fig11::Fig11 {
    /// The Fig. 11 series:
    /// `jaccard dp_greedy optimal dpg_cache dpg_transfer dpg_package`.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.jaccard,
                    r.dp_greedy,
                    r.optimal,
                    r.dpg_cache,
                    r.dpg_transfer,
                    r.dpg_package,
                ]
            })
            .collect()
    }
}

impl crate::fig12::Fig12 {
    /// The Fig. 12 series:
    /// `rho dp_greedy optimal dpg_cache dpg_transfer dpg_package`.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.rho,
                    r.dp_greedy,
                    r.optimal,
                    r.dpg_cache,
                    r.dpg_transfer,
                    r.dpg_package,
                ]
            })
            .collect()
    }
}

impl crate::fig13::Fig13 {
    /// The Fig. 13 series: `alpha jaccard package_served optimal dp_greedy
    /// dpg_cache dpg_transfer dpg_package`.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.alpha,
                    r.jaccard,
                    r.package_served,
                    r.optimal,
                    r.dp_greedy,
                    r.dpg_cache,
                    r.dpg_transfer,
                    r.dpg_package,
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_parseable_dat() {
        let dir = std::env::temp_dir().join("dpg-dat-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.dat");
        write_dat(
            &path,
            "demo series",
            &["x", "y"],
            &[vec![1.0, 2.5], vec![2.0, 3.25]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("# demo"));
        assert_eq!(lines[1], "# x y");
        assert_eq!(lines[2], "1.000000 2.500000");
        // Numeric rows parse back.
        for l in &lines[2..] {
            for tok in l.split_whitespace() {
                tok.parse::<f64>().unwrap();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn figure_rows_have_consistent_arity() {
        let mut cfg = crate::paper_workload(crate::DEFAULT_SEED);
        cfg.steps = 300;
        let f12 = crate::fig12::run(&cfg, &[0.5, 2.0]);
        let rows = f12.to_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 6));
    }
}
