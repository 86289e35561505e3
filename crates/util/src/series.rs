//! Series/CSV helpers for the benchmark harness.
//!
//! Every figure in the paper is a family of curves: an x axis (Byzantine
//! proportion `f` or trusted proportion `t`), one line per configuration
//! (`t=1%`, `ER-40%`, ...), and a y value per point. [`SeriesTable`] stores
//! exactly that shape and prints it both as aligned text (for reading in a
//! terminal) and CSV (for re-plotting), so each bench target can emit the
//! same rows/series the paper reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A table of named series sharing one x axis.
///
/// # Examples
///
/// ```
/// use raptee_util::series::SeriesTable;
/// let mut t = SeriesTable::new("f (%)");
/// t.insert("t=1%", 10.0, 4.2);
/// t.insert("t=1%", 12.0, 4.0);
/// t.insert("t=5%", 10.0, 7.9);
/// let csv = t.to_csv();
/// assert!(csv.starts_with("f (%),t=1%,t=5%"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeriesTable {
    x_label: String,
    /// series name -> (x -> y). BTreeMaps keep output ordering stable.
    series: BTreeMap<String, BTreeMap<OrderedF64, f64>>,
}

/// Total-ordered f64 key (panics on NaN at construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("series x values must not be NaN")
    }
}

impl SeriesTable {
    /// Creates an empty table with the given x-axis label.
    pub fn new(x_label: impl Into<String>) -> Self {
        Self {
            x_label: x_label.into(),
            series: BTreeMap::new(),
        }
    }

    /// Inserts (or overwrites) the y value of `series` at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn insert(&mut self, series: impl Into<String>, x: f64, y: f64) {
        assert!(!x.is_nan(), "series x values must not be NaN");
        self.series
            .entry(series.into())
            .or_default()
            .insert(OrderedF64(x), y);
    }

    /// Names of the series, in stable (lexicographic) order.
    pub(crate) fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// All distinct x values across every series, ascending.
    pub(crate) fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<OrderedF64> = self
            .series
            .values()
            .flat_map(|m| m.keys().copied())
            .collect();
        xs.sort();
        xs.dedup();
        xs.into_iter().map(|x| x.0).collect()
    }

    /// Looks up a y value.
    pub(crate) fn get(&self, series: &str, x: f64) -> Option<f64> {
        self.series.get(series)?.get(&OrderedF64(x)).copied()
    }

    /// Renders the table as CSV with one column per series. Missing points
    /// render as empty cells.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let names = self.series_names();
        out.push_str(&self.x_label);
        for n in &names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for x in self.xs() {
            let _ = write!(out, "{x}");
            for n in &names {
                out.push(',');
                if let Some(y) = self.get(n, x) {
                    let _ = write!(out, "{y:.4}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as aligned, human-readable text.
    pub(crate) fn to_aligned(&self) -> String {
        let names = self.series_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len().max(9)).collect();
        let xw = self.x_label.len().max(8);
        let mut out = format!("{:>xw$}", self.x_label);
        for (n, w) in names.iter().zip(&widths) {
            let _ = write!(out, "  {n:>w$}");
        }
        out.push('\n');
        for x in self.xs() {
            let _ = write!(out, "{x:>xw$.1}");
            for (n, w) in names.iter().zip(&mut widths) {
                match self.get(n, x) {
                    Some(y) => {
                        let _ = write!(out, "  {y:>w$.2}");
                    }
                    None => {
                        let _ = write!(out, "  {:>w$}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for SeriesTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_aligned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeriesTable {
        let mut t = SeriesTable::new("f");
        t.insert("a", 1.0, 10.0);
        t.insert("a", 2.0, 20.0);
        t.insert("b", 1.0, 30.0);
        t
    }

    #[test]
    fn xs_are_sorted_and_deduped() {
        let t = sample();
        assert_eq!(t.xs(), vec![1.0, 2.0]);
    }

    #[test]
    fn get_and_missing() {
        let t = sample();
        assert_eq!(t.get("a", 1.0), Some(10.0));
        assert_eq!(t.get("b", 2.0), None);
        assert_eq!(t.get("zzz", 1.0), None);
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "f,a,b");
        assert_eq!(lines[1], "1,10.0000,30.0000");
        assert_eq!(lines[2], "2,20.0000,");
    }

    #[test]
    fn aligned_contains_all_values() {
        let text = sample().to_aligned();
        assert!(text.contains("10.00"));
        assert!(text.contains('-'), "missing cell should print a dash");
        assert_eq!(format!("{}", sample()), text);
    }

    #[test]
    fn insert_overwrites() {
        let mut t = sample();
        t.insert("a", 1.0, 99.0);
        assert_eq!(t.get("a", 1.0), Some(99.0));
    }

    #[test]
    fn series_and_xs_are_ordered_whatever_the_insert_order() {
        let mut t = SeriesTable::new("t (%)");
        t.insert("t=5%", 2.5, 1.0);
        t.insert("ER-40%", -1.0, 2.0);
        t.insert("adaptive", 10.0, 3.0);
        t.insert("t=5%", 0.5, 4.0);
        assert_eq!(t.series_names(), ["ER-40%", "adaptive", "t=5%"]);
        assert_eq!(t.xs(), [-1.0, 0.5, 2.5, 10.0]);
    }

    #[test]
    fn empty_table_renders_its_header_only() {
        let t = SeriesTable::new("f");
        assert_eq!(t.to_csv(), "f\n");
        assert!(t.xs().is_empty() && t.series_names().is_empty());
        assert_eq!(t.to_aligned(), "       f\n");
    }

    #[test]
    fn aligned_columns_widen_to_long_series_names() {
        let mut t = SeriesTable::new("f");
        t.insert("a-very-long-series-name", 1.0, 2.0);
        let text = t.to_aligned();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].len(), lines[1].len(), "{text}");
        assert!(lines[1].ends_with("2.00"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_x_panics() {
        let mut t = SeriesTable::new("x");
        t.insert("a", f64::NAN, 1.0);
    }
}
