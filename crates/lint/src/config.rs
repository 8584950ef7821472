//! `lint.toml` — per-rule severity and path scoping.
//!
//! The workspace has no TOML dependency (and the build environment has
//! no registry), so this module parses the small TOML subset the config
//! actually uses: `[section]` headers, `key = "string"`,
//! `key = true/false`, and (possibly multi-line) string arrays. Unknown
//! rules and malformed lines are hard errors — a typo in a lint config
//! must never silently disable a gate.

use std::collections::BTreeMap;
use std::fmt;

/// What a rule's findings do to the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled.
    Allow,
    /// Reported, never fails the run.
    Warn,
    /// Reported and fails the run (nonzero exit).
    Deny,
}

impl Severity {
    fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }

    /// Lowercase name as written in `lint.toml`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Per-rule configuration (defaults baked in, `lint.toml` overrides).
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Finding severity.
    pub severity: Severity,
    /// Workspace-relative path prefixes the rule is restricted to
    /// (empty = everywhere).
    pub paths: Vec<String>,
    /// Path prefixes exempt from the rule.
    pub allow_paths: Vec<String>,
    /// Skip `#[cfg(test)]` regions and `tests/` directories.
    pub skip_tests: bool,
    /// Function names the rule audits (only `panicking-index-in-kernel`
    /// uses this).
    pub functions: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            severity: Severity::Deny,
            paths: Vec::new(),
            allow_paths: Vec::new(),
            skip_tests: false,
            functions: Vec::new(),
        }
    }
}

/// `[taint]` — the workspace taint pass (`transitive-nondeterminism`):
/// where reachability starts and which sinks are sanctioned.
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Qualified names of determinism roots (`ckpt_exp::exec::execute`);
    /// every fn reachable from one must be sink-free.
    pub roots: Vec<String>,
    /// Qualified fn names the walk never enters (their sinks are the
    /// audited implementation of the contract, e.g. the obs clock).
    pub sanctioned: Vec<String>,
    /// Path prefixes whose fns the walk never enters (whole audited
    /// layers, e.g. the perf layer and the obs recorder).
    pub sanctioned_paths: Vec<String>,
}

/// `[registry]` — the `registry-exhaustive` rule: which enum must stay
/// fully registered, and where.
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// `path::EnumName` of the registry enum (`crates/exp/src/policies_spec.rs::PolicyKind`).
    pub enum_spec: String,
    /// `path::fn` of the label table (the `name()` match).
    pub label_fn: String,
    /// `path::fn` entries every variant must appear in (builder, parser).
    pub require: Vec<String>,
    /// Directory of golden JSON files every labelled variant must have a
    /// row in.
    pub golden_dir: String,
    /// Variants exempt from `require` + golden coverage (internal
    /// calibration-only policies); a label-table arm is still required.
    pub internal: Vec<String>,
}

impl RegistryConfig {
    /// Whether the rule has anything to check (an enum is configured).
    pub fn enabled(&self) -> bool {
        !self.enum_spec.is_empty()
    }
}

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from the walk entirely.
    pub exclude: Vec<String>,
    /// Rule name → settings; keys are exactly the registered rule names.
    pub rules: BTreeMap<String, RuleConfig>,
    /// Workspace taint pass settings.
    pub taint: TaintConfig,
    /// Registry-exhaustiveness settings.
    pub registry: RegistryConfig,
}

/// Config-file parse failure with its line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 for structural errors).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

impl Config {
    /// Built-in defaults: every registered rule at `deny`, scoped to the
    /// paths its invariant lives in. `lint.toml` starts from this and
    /// overrides.
    pub fn default_config() -> Config {
        let mut rules = BTreeMap::new();
        for rule in crate::rules::ALL_RULES {
            rules.insert((*rule).to_string(), crate::rules::default_rule_config(rule));
        }
        Config {
            exclude: vec![
                "target".into(),
                "vendor".into(),
                "results".into(),
                "crates/lint/tests/fixtures".into(),
            ],
            rules,
            taint: TaintConfig {
                roots: vec![
                    // The work distribution + ordered-commit drain.
                    "ckpt_exp::exec::execute".into(),
                    "ckpt_exp::steal::run_wave".into(),
                    // The sim hot loop.
                    "ckpt_sim::engine::simulate".into(),
                    // The checkpoint store writer (kill-safe resume).
                    "ckpt_exp::checkpoint::run_study".into(),
                ],
                sanctioned: vec![
                    // The single audited clock behind the obs facade.
                    "ckpt_obs::clock::now_micros".into(),
                ],
                sanctioned_paths: vec![
                    // Timing wrappers around (not inside) the pipeline.
                    "crates/exp/src/perf.rs".into(),
                    // The obs recorder: keyed by deterministic IDs, its
                    // internals are outside the bit-identity contract.
                    "crates/obs/src".into(),
                ],
            },
            registry: RegistryConfig {
                enum_spec: "crates/exp/src/policies_spec.rs::PolicyKind".into(),
                label_fn: "crates/exp/src/policies_spec.rs::name".into(),
                require: vec![
                    "crates/exp/src/registry.rs::build_policy".into(),
                    "crates/exp/src/registry.rs::parse_kind".into(),
                ],
                golden_dir: "results/golden".into(),
                internal: vec![
                    // Calibration-only scaled variant: buildable, but not
                    // CLI-parseable and deliberately absent from goldens.
                    "OptExpScaled".into(),
                ],
            },
        }
    }

    /// Parse `lint.toml` text over the defaults.
    pub fn from_toml(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default_config();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name != "lint" && name != "taint" && name != "registry" && !name.starts_with("rule.") {
                    return Err(err(lineno, format!("unknown section `[{name}]`")));
                }
                if let Some(rule) = name.strip_prefix("rule.") {
                    if !config.rules.contains_key(rule) {
                        return Err(err(lineno, format!("unknown rule `{rule}`")));
                    }
                }
                section = Some(name.to_string());
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            // Multi-line arrays: keep consuming until the closing `]`.
            while value.starts_with('[') && !value.ends_with(']') {
                let (_, cont) = lines
                    .next()
                    .ok_or_else(|| err(lineno, format!("unterminated array for `{key}`")))?;
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            apply_key(&mut config, section.as_deref(), &key, &value, lineno)?;
        }
        Ok(config)
    }

    /// Settings for `rule`; panics on unregistered names (programmer
    /// error — rule names are a closed set).
    pub fn rule(&self, rule: &str) -> &RuleConfig {
        match self.rules.get(rule) {
            Some(rc) => rc,
            None => unreachable!("unregistered rule `{rule}`"),
        }
    }
}

fn apply_key(
    config: &mut Config,
    section: Option<&str>,
    key: &str,
    value: &str,
    lineno: u32,
) -> Result<(), ConfigError> {
    match section {
        Some("lint") => match key {
            "exclude" => {
                config.exclude = parse_string_array(value, lineno)?;
                Ok(())
            }
            _ => Err(err(lineno, format!("unknown key `{key}` in [lint]"))),
        },
        Some("taint") => match key {
            "roots" => {
                config.taint.roots = parse_string_array(value, lineno)?;
                Ok(())
            }
            "sanctioned" => {
                config.taint.sanctioned = parse_string_array(value, lineno)?;
                Ok(())
            }
            "sanctioned_paths" => {
                config.taint.sanctioned_paths = parse_string_array(value, lineno)?;
                Ok(())
            }
            _ => Err(err(lineno, format!("unknown key `{key}` in [taint]"))),
        },
        Some("registry") => match key {
            "enum" => {
                config.registry.enum_spec = parse_string(value, lineno)?;
                Ok(())
            }
            "label_fn" => {
                config.registry.label_fn = parse_string(value, lineno)?;
                Ok(())
            }
            "require" => {
                config.registry.require = parse_string_array(value, lineno)?;
                Ok(())
            }
            "golden_dir" => {
                config.registry.golden_dir = parse_string(value, lineno)?;
                Ok(())
            }
            "internal" => {
                config.registry.internal = parse_string_array(value, lineno)?;
                Ok(())
            }
            _ => Err(err(lineno, format!("unknown key `{key}` in [registry]"))),
        },
        Some(section) => {
            let rule = section.strip_prefix("rule.").unwrap_or(section);
            let rc = config
                .rules
                .get_mut(rule)
                .ok_or_else(|| err(lineno, format!("unknown rule `{rule}`")))?;
            match key {
                "severity" => {
                    let s = parse_string(value, lineno)?;
                    rc.severity = Severity::parse(&s)
                        .ok_or_else(|| err(lineno, format!("bad severity `{s}`")))?;
                }
                "paths" => rc.paths = parse_string_array(value, lineno)?,
                "allow_paths" => rc.allow_paths = parse_string_array(value, lineno)?,
                "functions" => rc.functions = parse_string_array(value, lineno)?,
                "skip_tests" => {
                    rc.skip_tests = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(err(lineno, format!("bad bool `{value}`"))),
                    }
                }
                _ => return Err(err(lineno, format!("unknown key `{key}` in [rule.{rule}]"))),
            }
            Ok(())
        }
        None => Err(err(lineno, format!("key `{key}` outside any section"))),
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: u32) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| err(lineno, format!("expected a quoted string, got `{value}`")))
}

fn parse_string_array(value: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(lineno, format!("expected an array, got `{value}`")))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

/// `true` when `path` is `prefix` itself or inside it (component-wise,
/// with `/` separators).
pub fn path_matches(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

/// Whether `rc` applies to `path` at all (restriction + exemption lists).
pub fn rule_applies_to(rc: &RuleConfig, path: &str) -> bool {
    let in_scope = rc.paths.is_empty() || rc.paths.iter().any(|p| path_matches(path, p));
    in_scope && !rc.allow_paths.iter().any(|p| path_matches(path, p))
}

/// Whether `path` sits in a test tree (`tests/` directory anywhere in it).
pub fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_rule_at_deny_or_better() {
        let c = Config::default_config();
        assert_eq!(c.rules.len(), crate::rules::ALL_RULES.len());
        assert!(c.rules.values().all(|r| r.severity >= Severity::Warn));
    }

    #[test]
    fn toml_overrides_and_arrays() {
        let c = Config::from_toml(
            "# comment\n[lint]\nexclude = [\"target\", \"vendor\"]\n\n[rule.float-eq]\nseverity = \"warn\"\npaths = [\n  \"crates/sim/src\", # inline\n  \"src\",\n]\nskip_tests = true\n",
        )
        .expect("parse");
        assert_eq!(c.exclude, ["target", "vendor"]);
        let r = c.rule("float-eq");
        assert_eq!(r.severity, Severity::Warn);
        assert_eq!(r.paths, ["crates/sim/src", "src"]);
        assert!(r.skip_tests);
    }

    #[test]
    fn taint_and_registry_sections_parse() {
        let c = Config::from_toml(
            "[taint]\nroots = [\"a::b\"]\nsanctioned = [\"c::d\"]\nsanctioned_paths = [\"crates/x/src\"]\n\n[registry]\nenum = \"f.rs::E\"\nlabel_fn = \"f.rs::name\"\nrequire = [\"g.rs::build\"]\ngolden_dir = \"results/golden\"\ninternal = [\"Scaled\"]\n",
        )
        .expect("parse");
        assert_eq!(c.taint.roots, ["a::b"]);
        assert_eq!(c.taint.sanctioned, ["c::d"]);
        assert_eq!(c.taint.sanctioned_paths, ["crates/x/src"]);
        assert_eq!(c.registry.enum_spec, "f.rs::E");
        assert_eq!(c.registry.require, ["g.rs::build"]);
        assert_eq!(c.registry.internal, ["Scaled"]);
        assert!(c.registry.enabled());
        assert!(Config::from_toml("[taint]\nroot = []\n").is_err());
        assert!(Config::from_toml("[registry]\nenumm = \"x\"\n").is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let e = Config::from_toml("[rule.flaot-eq]\nseverity = \"deny\"\n").expect_err("typo");
        assert!(e.message.contains("flaot-eq"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(Config::from_toml("[rule.float-eq]\nseverty = \"deny\"\n").is_err());
        assert!(Config::from_toml("[lint]\nexlude = []\n").is_err());
    }

    #[test]
    fn path_matching_is_component_wise() {
        assert!(path_matches("src/lib.rs", "src"));
        assert!(!path_matches("crates/sim/src/lib.rs", "src"));
        assert!(path_matches("crates/sim/src", "crates/sim/src"));
        assert!(is_test_path("crates/sim/tests/cache_equivalence.rs"));
        assert!(!is_test_path("crates/sim/src/engine.rs"));
    }
}
