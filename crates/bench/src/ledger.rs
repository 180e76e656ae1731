//! The ledger: every experiment's results as rows of one type.
//!
//! An experiment returns [`Row`]s; it prints nothing. [`print()`] renders the
//! rows of one experiment as a table (one line per city and series, one
//! column per metric), and [`to_json`] writes the rows of a whole run, one
//! row object per line, for `repro --ledger-out`.

use foodmatch_workload::CityId;

/// One measured number of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The experiment's registry name; [`Experiment::rows`] fills it in.
    ///
    /// [`Experiment::rows`]: crate::experiments::Experiment::rows
    pub experiment: &'static str,
    /// The city the number was measured on.
    pub city: &'static str,
    /// What varies inside the experiment: the policy, the sweep point
    /// (`eta=30`), the timeslot (`slot 12`) or the rank bucket.
    pub series: String,
    /// What was measured (`xdt_hours_per_day`, `rejection_pct`, …).
    pub metric: &'static str,
    /// The unit of `value`.
    pub unit: &'static str,
    /// The number.
    pub value: f64,
}

impl Row {
    /// A row of the experiment being run.
    pub fn new(
        city: CityId,
        series: impl Into<String>,
        metric: &'static str,
        unit: &'static str,
        value: f64,
    ) -> Self {
        Row { experiment: "", city: city.name(), series: series.into(), metric, unit, value }
    }
}

/// Formats a table cell ten characters wide: integers as integers, other
/// values with three significant-ish decimals.
pub fn cell(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{:>10}", value as i64)
    } else if value.abs() >= 1000.0 {
        format!("{value:>10.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:>10.1}")
    } else {
        format!("{value:>10.3}")
    }
}

/// Lays `rows` out as a table: one line per `(city, series)` and one column
/// per metric, both in first-seen order, under a line of metric names and a
/// line of units. A metric a line has no row for is a blank cell.
pub fn pivot(rows: &[Row]) -> String {
    let mut columns: Vec<(&str, &str)> = Vec::new();
    let mut lines: Vec<(&str, &str)> = Vec::new();
    for row in rows {
        if !columns.iter().any(|&(metric, _)| metric == row.metric) {
            columns.push((row.metric, row.unit));
        }
        if !lines.contains(&(row.city, row.series.as_str())) {
            lines.push((row.city, row.series.as_str()));
        }
    }
    let city_width = lines.iter().map(|l| l.0.chars().count()).max().unwrap_or(0).max(4);
    let series_width = lines.iter().map(|l| l.1.chars().count()).max().unwrap_or(0).max(6);
    let mut out = String::new();
    let mut line = |city: &str, series: &str, cells: Vec<String>| {
        let mut text = format!("{city:<city_width$}  {series:<series_width$}");
        for (text_cell, &(metric, unit)) in cells.iter().zip(&columns) {
            let width = metric.len().max(unit.len()).max(10);
            text.push_str(&format!("  {text_cell:>width$}"));
        }
        out.push_str(text.trim_end());
        out.push('\n');
    };
    line("city", "series", columns.iter().map(|c| c.0.to_string()).collect());
    line("", "", columns.iter().map(|c| c.1.to_string()).collect());
    for &(city, series) in &lines {
        let cells = columns
            .iter()
            .map(|&(metric, _)| {
                rows.iter()
                    .find(|r| r.city == city && r.series == series && r.metric == metric)
                    .map_or_else(String::new, |r| cell(r.value))
            })
            .collect();
        line(city, series, cells);
    }
    out
}

/// Prints one experiment's section: a ruled title, then [`pivot`] of its rows.
pub fn print(title: &str, rows: &[Row]) {
    const RULE: &str = "================================================================";
    println!();
    println!("{RULE}");
    println!("{title}");
    println!("{RULE}");
    print!("{}", pivot(rows));
}

/// Writes the rows of a run as JSON: a header with `seeds` and `quick`, then
/// one row object per line, each carrying the seed it was measured at.
/// Values use Rust's shortest round-trip formatting, with `-0.0` written as
/// `0`. A non-finite value is refused, naming its row.
pub fn to_json(seeds: &[u64], quick: bool, rows: &[(u64, Row)]) -> Result<String, String> {
    let mut out = format!("{{\"seeds\": {seeds:?}, \"quick\": {quick}, \"rows\": [\n");
    for (i, (seed, row)) in rows.iter().enumerate() {
        if !row.value.is_finite() {
            return Err(format!(
                "{} seed {seed}, {} / {} / {}: value {} is not finite",
                row.experiment, row.city, row.series, row.metric, row.value
            ));
        }
        // `{:?}` quotes a row's plain printable text as a JSON string does;
        // `+ 0.0` turns -0.0 (an empty f64 sum) into 0.0 and leaves every other value as it is.
        out.push_str(&format!(
            "{{\"seed\": {seed}, \"experiment\": {:?}, \"city\": {:?}, \"series\": {:?}, \
             \"metric\": {:?}, \"unit\": {:?}, \"value\": {}}}{}\n",
            row.experiment,
            row.city,
            row.series,
            row.metric,
            row.unit,
            row.value + 0.0,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(city: CityId, series: &str, metric: &'static str, value: f64) -> Row {
        Row { experiment: "fig0", ..Row::new(city, series, metric, "h/day", value) }
    }

    #[test]
    fn cells_are_fixed_width() {
        assert_eq!(cell(1234.5).len(), 10);
        assert_eq!(cell(12.34).len(), 10);
        assert_eq!(cell(0.1234).len(), 10);
        assert_eq!(cell(21.0), "        21");
        assert_eq!(cell(-0.0), "         0");
    }

    #[test]
    fn pivot_is_one_line_per_series_and_one_column_per_metric_in_first_seen_order() {
        let rows = [
            row(CityId::B, "FoodMatch", "xdt", 1.5),
            row(CityId::B, "Greedy", "xdt", 2.5),
            row(CityId::B, "Greedy", "gain", 40.0),
            row(CityId::A, "FoodMatch", "gain", 12.3),
            row(CityId::A, "FoodMatch", "xdt", 0.125),
        ];
        let expected = "\
city    series            xdt        gain
                        h/day       h/day
City B  FoodMatch       1.500
City B  Greedy          2.500          40
City A  FoodMatch       0.125        12.3
";
        assert_eq!(pivot(&rows), expected);
    }

    #[test]
    fn json_writes_one_row_per_line() {
        let rows =
            [(1, row(CityId::A, "KM/calm", "xdt", 5.9455)), (2, row(CityId::A, "x", "y", 3.0))];
        let json = to_json(&[1, 2], true, &rows).expect("finite");
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"seeds\": [1, 2], \"quick\": true, \"rows\": [");
        assert_eq!(
            lines[1],
            "{\"seed\": 1, \"experiment\": \"fig0\", \"city\": \"City A\", \"series\": \"KM/calm\", \
             \"metric\": \"xdt\", \"unit\": \"h/day\", \"value\": 5.9455},"
        );
        assert!(lines[2].starts_with("{\"seed\": 2,") && lines[2].ends_with("\"value\": 3}"));
        assert_eq!(lines[3], "]}");
    }

    #[test]
    fn json_refuses_a_non_finite_value_and_names_its_row() {
        for value in [f64::NAN, f64::INFINITY] {
            let rows = [(7, row(CityId::C, "Reyes", "ratio", value))];
            let error = to_json(&[7], false, &rows).expect_err("non-finite");
            assert!(error.contains("fig0 seed 7, City C / Reyes / ratio"), "{error}");
        }
    }

    #[test]
    fn json_writes_negative_zero_as_zero() {
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        assert!(empty_sum.is_sign_negative());
        let json =
            to_json(&[1], true, &[(1, row(CityId::A, "calm", "xdt", empty_sum))]).expect("finite");
        assert!(json.contains("\"value\": 0}"), "{json}");
    }
}
