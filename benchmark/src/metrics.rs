//! Named measurements, and the line format a pass process reports them in.

use std::collections::BTreeMap;

/// Named values, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Accumulates into `name` (a time or count summed over calls).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Keeps the largest value seen for `name`.
    pub fn max(&mut self, name: &str, value: f64) {
        let slot = self.0.entry(name.to_string()).or_insert(value);
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// One `name value` line per metric; `{:?}` keeps every bit.
    pub fn to_lines(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v:?}\n")).collect()
    }

    /// Parses [`Metrics::to_lines`] output, ignoring other lines.
    pub fn from_lines(text: &str) -> Metrics {
        let mut m = Metrics::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if let (Some(k), Some(v), None) = (words.next(), words.next(), words.next()) {
                if let Ok(v) = v.parse() {
                    m.set(k, v);
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_every_bit() {
        let mut m = Metrics::default();
        m.set("wall_s", 0.1 + 0.2);
        m.add("offline.dp_points", 3.0);
        m.add("offline.dp_points", 4.0);
        m.max("offline.dp_max_points", 4.0);
        m.max("offline.dp_max_points", 2.0);
        let back = Metrics::from_lines(&m.to_lines());
        assert_eq!(back, m);
        assert_eq!(back.get("offline.dp_points"), Some(7.0));
        assert_eq!(back.get("offline.dp_max_points"), Some(4.0));
    }
}
