//! Findings and reports: the common currency of every lint pass, plus
//! human-readable and JSON rendering.

use nt_obs::json::escape_str;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only; never affects the exit code.
    Info,
    /// Suspicious but not breaking: lost concurrency, dead configuration
    /// knobs, unreachable subtrees.
    Warning,
    /// A genuine defect: an unsound commutativity declaration, a workload
    /// that would panic or violate a protocol precondition. Any error makes
    /// the analyzer exit nonzero.
    Error,
}

impl Severity {
    /// Uppercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Error => "ERROR",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One diagnostic from one pass about one subject.
#[derive(Clone, Debug)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which pass produced it (`"soundness"`, `"spec"`, `"workload"`, …).
    pub pass: &'static str,
    /// What it is about (`"type counter"`, `"workload undo-queue"`, …).
    pub subject: String,
    /// The diagnostic itself.
    pub message: String,
}

impl Finding {
    /// Shorthand constructor.
    pub fn new(
        severity: Severity,
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            severity,
            pass,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

/// An aggregated analysis run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Everything every pass found, in pass order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append one finding.
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    /// Append many findings.
    pub fn extend(&mut self, fs: impl IntoIterator<Item = Finding>) {
        self.findings.extend(fs);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// Process exit code for this report: nonzero iff any error.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.errors() > 0)
    }

    /// Render for terminals: one line per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{:7} [{}] {}: {}\n",
                f.severity.label(),
                f.pass,
                f.subject,
                f.message
            ));
        }
        out.push_str(&format!(
            "nt-lint: {} finding(s): {} error(s), {} warning(s)\n",
            self.findings.len(),
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Render as a JSON document (hand-assembled, one finding per line).
    pub fn render_json(&self) -> String {
        let quoted = |s: &str| {
            let mut q = String::with_capacity(s.len() + 2);
            escape_str(s, &mut q);
            q
        };
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"severity\": \"{}\", \"pass\": {}, \"subject\": {}, \"message\": {}}}{}\n",
                f.severity.label(),
                quoted(f.pass),
                quoted(&f.subject),
                quoted(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"errors\": {},\n  \"warnings\": {},\n  \"exit_code\": {}\n}}\n",
            self.errors(),
            self.warnings(),
            self.exit_code()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_follows_errors() {
        let mut r = Report::new();
        assert_eq!(r.exit_code(), 0);
        r.push(Finding::new(Severity::Warning, "spec", "w", "dead knob"));
        assert_eq!(r.exit_code(), 0);
        r.push(Finding::new(
            Severity::Error,
            "soundness",
            "type t",
            "unsound",
        ));
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn renderings_mention_findings() {
        let mut r = Report::new();
        r.push(Finding::new(Severity::Error, "soundness", "type x", "boom"));
        assert!(r.render_human().contains("ERROR"));
        assert!(r.render_human().contains("boom"));
        assert!(r.render_json().contains("\"severity\": \"ERROR\""));
        assert!(r.render_json().contains("\"exit_code\": 1"));
    }
}
