//! Metric values, correctness checks, and the result line a run prints.

use crate::spec::Metric;
use std::collections::BTreeMap;

/// Values of one metric table, by name. Only names the table declares can
/// be set, so what a run prints is what `BENCHMARK.json` lists.
pub struct Values {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn new(table: &'static [Metric]) -> Values {
        Values { table, values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared metric"));
        assert!(value.is_finite(), "`{name}` measured {value}");
        self.values.insert(m.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric of the table in table order. A metric the workload
    /// never set belongs to a layer the workload does not exercise and
    /// reads 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().map(|m| (m, self.get(m.name).unwrap_or(0.0)))
    }
}

/// Correctness checks attempted and failed; a failure prints its diff.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, diff: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {}", diff());
        }
    }

    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// The last line of a run's standard output: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(values: &Values, checks: &Checks) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_object(values.rows())
    )
}

/// `{"<name>": {"value": <v>, "unit": "<unit>"}, …}` on one line.
pub fn metrics_object<'a>(rows: impl Iterator<Item = (&'a Metric, f64)>) -> String {
    let rows: Vec<String> = rows
        .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The number after `"<key>": ` in a result line.
fn number_after<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `attempted` or `failed` of a result line.
pub fn count_in(line: &str, key: &str) -> Option<u64> {
    number_after(line, &format!("\"{key}\": "))
}

/// The value of metric `name` in a result line.
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn result_line_lists_every_declared_metric_and_the_counts() {
        let mut v = Values::new(END_TO_END);
        v.set("wall_s", 1.25);
        let mut c = Checks::default();
        c.same("committed", 3, 3);
        let line = result_line(&v, &c);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{}", m.name);
        }
        assert!(!line.contains('\n'));
        assert_eq!(value_in(&line, "wall_s"), Some(1.25));
        assert_eq!(value_in(&line, "setup_s"), Some(0.0));
        assert_eq!(value_in(&line, "absent"), None);
        assert_eq!((count_in(&line, "attempted"), count_in(&line, "failed")), (Some(1), Some(0)));
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut c = Checks::default();
        c.same("fingerprint", 1u64, 2u64);
        c.same("committed", 5u64, 5u64);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(result_line(&Values::new(END_TO_END), &c).contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_names_are_refused() {
        Values::new(END_TO_END).set("made_up", 1.0);
    }
}
