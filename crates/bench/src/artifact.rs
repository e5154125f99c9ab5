//! The `--check` gate every engineering campaign shares.
//!
//! A gated campaign writes a JSON report, and `--check` re-reads it and
//! exits non-zero unless every condition on it holds. The campaign's
//! `main` is [`main`]`(run, check)`, and `check` is a chain of `?` over
//! this reader: [`Artifact`] loads and parses a report, [`Node`] looks
//! up numbers, strings and arrays in it and states conditions
//! ([`Node::expect`], [`Node::at_least`], [`Node::ensure`]), and
//! [`read`] fetches a side file. Every error names the file, and the
//! array row where there is one, so a failed gate says where it failed.

use crate::{bench_root, results_dir};
use neuspin_core::json::{self, Json};
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;

/// A campaign binary's entry point: under `--check` runs `check`,
/// prints its summary and exits 0, or prints `check failed: <why>` to
/// stderr and exits 1; otherwise runs the campaign.
pub fn main(
    run: impl FnOnce() -> ExitCode,
    check: impl FnOnce() -> Result<String, String>,
) -> ExitCode {
    if !std::env::args().any(|a| a == "--check") {
        return run();
    }
    match check() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("check failed: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Reads a whole text file, naming it in the error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A parsed JSON artifact and the path it was read from.
#[derive(Debug)]
pub struct Artifact {
    path: String,
    json: Json,
}

impl Artifact {
    /// Reads and parses the JSON file at `path`; the error names it.
    pub fn load(path: &Path) -> Result<Self, String> {
        let json = json::parse(&read(path)?)
            .map_err(|e| format!("invalid JSON in {}: {e}", path.display()))?;
        Ok(Self { path: path.display().to_string(), json })
    }

    /// Loads `<results dir>/<file>` (see [`results_dir`]).
    pub fn result(file: &str) -> Result<Self, String> {
        Self::load(&results_dir().join(file))
    }

    /// Loads `<bench root>/<file>` (see [`bench_root`]).
    pub fn bench(file: &str) -> Result<Self, String> {
        Self::load(&bench_root().join(file))
    }

    /// The top-level value, labelled with the file's path.
    pub fn root(&self) -> Node<'_> {
        Node { at: self.path.clone(), json: &self.json }
    }
}

/// One value inside an [`Artifact`], labelled with where it sits (the
/// path, then `key[i]` for an array row) for error messages.
#[derive(Debug)]
pub struct Node<'a> {
    at: String,
    json: &'a Json,
}

impl<'a> Node<'a> {
    fn err(&self, why: impl Display) -> String {
        format!("{}: {why}", self.at)
    }

    /// Fails with `why()`, located at this node, unless `ok`.
    pub fn ensure(&self, ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(self.err(why()))
        }
    }

    /// The number at `key` (finite: the parser refuses anything else).
    pub fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.json.get(key).and_then(Json::as_f64);
        v.ok_or_else(|| self.err(format!("missing numeric key {key}")))
    }

    /// The number at `key`, which must equal `want`.
    pub fn expect(&self, key: &str, want: f64) -> Result<f64, String> {
        let v = self.num(key)?;
        self.ensure(v == want, || format!("{key} must be {want}, got {v}"))?;
        Ok(v)
    }

    /// The number at `key`, which must be at least `floor`.
    pub fn at_least(&self, key: &str, floor: f64) -> Result<f64, String> {
        let v = self.num(key)?;
        self.ensure(v >= floor, || format!("{key} must be >= {floor}, got {v}"))?;
        Ok(v)
    }

    /// The string at `key`.
    pub fn text(&self, key: &str) -> Result<&'a str, String> {
        let text = self.json.get(key).and_then(Json::as_str);
        text.ok_or_else(|| self.err(format!("missing string key {key}")))
    }

    /// The rows of this value, which must be a non-empty array.
    pub fn items(&self) -> Result<Vec<Node<'a>>, String> {
        let rows = self.json.as_arr().ok_or_else(|| self.err("not an array"))?;
        self.ensure(!rows.is_empty(), || "empty array".to_string())?;
        Ok(rows
            .iter()
            .enumerate()
            .map(|(i, json)| Node { at: format!("{}[{i}]", self.at), json })
            .collect())
    }

    /// The rows of the non-empty array at `key`.
    pub fn rows(&self, key: &str) -> Result<Vec<Node<'a>>, String> {
        let json = self.json.get(key).ok_or_else(|| self.err(format!("missing array {key}")))?;
        Node { at: format!("{} {key}", self.at), json }.items()
    }

    /// The non-empty array of numbers at `key`.
    pub fn nums(&self, key: &str) -> Result<Vec<f64>, String> {
        let rows = self.rows(key)?;
        rows.iter().map(|row| row.json.as_f64().ok_or_else(|| row.err("not a number"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(text: &str) -> Artifact {
        Artifact { path: "a.json".to_string(), json: json::parse(text).unwrap() }
    }

    #[test]
    fn errors_name_the_file_the_row_and_the_key() {
        let a = artifact(r#"{"n": 2, "rows": [{"x": 1}, {"y": 1}], "v": [1, "s"]}"#);
        let root = a.root();
        assert_eq!(root.num("n"), Ok(2.0));
        assert_eq!(root.num("m").unwrap_err(), "a.json: missing numeric key m");
        assert_eq!(root.expect("n", 3.0).unwrap_err(), "a.json: n must be 3, got 2");
        assert_eq!(root.at_least("n", 2.0), Ok(2.0));
        assert_eq!(root.at_least("n", 2.5).unwrap_err(), "a.json: n must be >= 2.5, got 2");
        let rows = root.rows("rows").unwrap();
        assert_eq!(rows[1].num("x").unwrap_err(), "a.json rows[1]: missing numeric key x");
        assert_eq!(root.nums("v").unwrap_err(), "a.json v[1]: not a number");
        assert_eq!(root.text("n").unwrap_err(), "a.json: missing string key n");
    }

    #[test]
    fn arrays_must_be_present_and_non_empty() {
        let a = artifact(r#"{"e": [], "o": {}}"#);
        assert_eq!(a.root().rows("e").unwrap_err(), "a.json e: empty array");
        assert_eq!(a.root().rows("o").unwrap_err(), "a.json o: not an array");
        assert_eq!(a.root().rows("z").unwrap_err(), "a.json: missing array z");
        assert_eq!(a.root().items().unwrap_err(), "a.json: not an array");
    }

    #[test]
    fn load_names_an_unreadable_or_invalid_file() {
        let missing = Path::new("no/such/artifact.json");
        let err = Artifact::load(missing).unwrap_err();
        assert!(err.starts_with("cannot read no/such/artifact.json"), "{err}");
        let dir = std::env::temp_dir().join(format!("neuspin-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{").unwrap();
        let err = Artifact::load(&bad).unwrap_err();
        assert!(err.starts_with(&format!("invalid JSON in {}", bad.display())), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
