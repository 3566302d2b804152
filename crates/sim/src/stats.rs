//! Named monotonic counters: the platform's volatile bookkeeping.

use std::collections::BTreeMap;
use std::fmt;

/// Named monotonic counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    pub fn new() -> Counters {
        Counters::default()
    }

    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    pub fn add(&mut self, name: &str, n: u64) {
        // Known names (every bump after the first) are found by `&str`.
        match self.map.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.map.insert(name.to_owned(), n);
            }
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.map {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let mut c = Counters::new();
        c.incr("tasks");
        c.add("tasks", 4);
        c.incr("teams");
        assert_eq!(c.get("tasks"), 5);
        assert_eq!(c.get("teams"), 1);
        assert_eq!(c.get("missing"), 0);
        let all: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(all, vec![("tasks", 5), ("teams", 1)]);
        assert!(c.to_string().contains("tasks: 5"));
    }
}
