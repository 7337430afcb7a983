//! Per-rule severity configuration.
//!
//! Every rule defaults to [`Severity::Error`]: the tree is expected to be
//! clean (violations fixed or reason-waived), so anything the pass reports
//! is an action item. `--set RULE=off|warn|error` overrides per invocation
//! — e.g. `--set P001=warn` while migrating a new routing hot path.

use crate::report::Severity;
use crate::rules;
use std::collections::BTreeMap;

/// The active severity per rule id.
#[derive(Debug, Clone)]
pub struct Config {
    severities: BTreeMap<&'static str, Severity>,
}

impl Default for Config {
    fn default() -> Self {
        let severities = rules::REGISTRY
            .iter()
            .map(|r| (r.id, Severity::Error))
            .collect();
        Config { severities }
    }
}

impl Config {
    /// The effective severity of `rule` ([`Severity::Off`] for unknown ids,
    /// which cannot be produced by the registry's own passes).
    pub fn severity(&self, rule: &str) -> Severity {
        self.severities.get(rule).copied().unwrap_or(Severity::Off)
    }

    /// Applies one `RULE=SEVERITY` override. Errors on unknown rule ids or
    /// severity names so typos fail loudly instead of silently linting less.
    pub fn set(&mut self, spec: &str) -> Result<(), String> {
        let (rule, sev) = spec
            .split_once('=')
            .ok_or_else(|| format!("expected RULE=SEVERITY, got {spec:?}"))?;
        let sev = Severity::parse(sev)
            .ok_or_else(|| format!("unknown severity {sev:?} (off | warn | error)"))?;
        let id = rules::REGISTRY
            .iter()
            .map(|r| r.id)
            .find(|id| *id == rule)
            .ok_or_else(|| format!("unknown rule {rule:?} (see `pamr-lint rules`)"))?;
        self.severities.insert(id, sev);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_error() {
        let c = Config::default();
        for r in rules::REGISTRY {
            assert_eq!(c.severity(r.id), Severity::Error, "{}", r.id);
        }
    }

    #[test]
    fn overrides_apply_and_typos_fail() {
        let mut c = Config::default();
        c.set("D001=warn").unwrap();
        assert_eq!(c.severity("D001"), Severity::Warn);
        assert!(c.set("D001=loud").is_err());
        assert!(c.set("Z999=off").is_err());
        assert!(c.set("D001").is_err());
    }
}
