//! The result line: checked operations plus named metrics with units.

/// How many failed-check descriptions a report keeps for stderr.
const MAX_PROBLEMS: usize = 20;

/// Output checks and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            }
        }
    }

    /// Records metric `name` in `unit`. A non-finite value is a failed check
    /// (it would not survive JSON) and is reported as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let finite = value.is_finite();
        self.check(finite, || format!("metric {name} is not finite ({value})"));
        self.metrics
            .push((name.to_string(), if finite { value } else { 0.0 }, unit));
    }

    /// Checked operations so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checked operations whose output was wrong.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first failed checks.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The one-line JSON result:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut r = Report::new();
        r.check(true, String::new);
        r.metric("wall_s", 1.25, "s");
        assert_eq!(
            r.json_line(),
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        r.metric("bad", f64::NAN, "s");
        assert_eq!(r.failed(), 1);
        assert!(r.json_line().starts_with("{\"correct\":false"));
    }
}
