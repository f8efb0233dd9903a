//! Bulk import and export.
//!
//! "Integrating Schemr with schema import and export functionality gives
//! users motivation to build metadata repositories" — this module is that
//! functionality: import DDL/XSD/CSV sources (strings, files, or whole
//! directories) and export any stored schema back to DDL.

use std::path::Path;

use schemr_model::SchemaId;
use schemr_parse::{parse_fragment, printer::print_ddl, xsd_printer::print_xsd};

use crate::repository::{Repository, RepositoryError};

/// Errors from import operations.
#[derive(Debug)]
pub enum ImportError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The source failed to parse.
    Parse(schemr_parse::ParseError),
    /// The parsed schema failed repository validation.
    Repository(RepositoryError),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "import I/O error: {e}"),
            ImportError::Parse(e) => write!(f, "import parse error: {e}"),
            ImportError::Repository(e) => write!(f, "import rejected: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl From<std::io::Error> for ImportError {
    fn from(e: std::io::Error) -> Self {
        ImportError::Io(e)
    }
}

impl From<schemr_parse::ParseError> for ImportError {
    fn from(e: schemr_parse::ParseError) -> Self {
        ImportError::Parse(e)
    }
}

impl From<RepositoryError> for ImportError {
    fn from(e: RepositoryError) -> Self {
        ImportError::Repository(e)
    }
}

/// Import one source string (DDL, XSD, or a CSV header — autodetected)
/// into the repository under `title`.
pub fn import_str(
    repo: &Repository,
    title: &str,
    summary: &str,
    source: &str,
) -> Result<SchemaId, ImportError> {
    let schema = parse_fragment(title, source)?;
    Ok(repo.insert(title, summary, schema)?)
}

/// Import a file; the title is the file stem.
pub fn import_file(repo: &Repository, path: impl AsRef<Path>) -> Result<SchemaId, ImportError> {
    let path = path.as_ref();
    let title = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "schema".to_string());
    let source = std::fs::read_to_string(path)?;
    let id = import_str(repo, &title, "", &source)?;
    repo.annotate(id, "", path.display().to_string())?;
    Ok(id)
}

/// Per-file failures from a directory import.
pub type ImportFailures = Vec<(std::path::PathBuf, ImportError)>;

/// Import every `.sql`, `.ddl`, `.xsd`, and `.csv` file in a directory
/// (non-recursive). Returns (imported ids, per-file errors) — one bad file
/// doesn't abort the batch.
pub fn import_dir(
    repo: &Repository,
    dir: impl AsRef<Path>,
) -> Result<(Vec<SchemaId>, ImportFailures), std::io::Error> {
    let mut ids = Vec::new();
    let mut errors = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| matches!(e, "sql" | "ddl" | "xsd" | "csv"))
        })
        .collect();
    entries.sort();
    for path in entries {
        match import_file(repo, &path) {
            Ok(id) => ids.push(id),
            Err(e) => errors.push((path, e)),
        }
    }
    Ok((ids, errors))
}

/// Export a stored schema as DDL.
pub fn export_ddl(repo: &Repository, id: SchemaId) -> Result<String, RepositoryError> {
    let stored = repo.get(id).ok_or(RepositoryError::NotFound(id))?;
    Ok(print_ddl(&stored.schema))
}

/// Export a stored schema as XSD.
pub fn export_xsd(repo: &Repository, id: SchemaId) -> Result<String, RepositoryError> {
    let stored = repo.get(id).ok_or(RepositoryError::NotFound(id))?;
    Ok(print_xsd(&stored.schema))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_ddl_string() {
        let repo = Repository::new();
        let id = import_str(
            &repo,
            "clinic",
            "demo",
            "CREATE TABLE patient (height REAL, gender TEXT)",
        )
        .unwrap();
        let stored = repo.get(id).unwrap();
        assert_eq!(stored.schema.attributes().len(), 2);
        assert_eq!(stored.metadata.title, "clinic");
    }

    #[test]
    fn import_xsd_string() {
        let repo = Repository::new();
        let id = import_str(
            &repo,
            "patient",
            "",
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:element name="patient"><xs:complexType><xs:sequence>
                   <xs:element name="height" type="xs:double"/>
                 </xs:sequence></xs:complexType></xs:element>
               </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(repo.get(id).unwrap().schema.entities().len(), 1);
    }

    #[test]
    fn bad_source_is_a_parse_error() {
        let repo = Repository::new();
        let err = import_str(&repo, "x", "", "CREATE TABLE").unwrap_err();
        assert!(matches!(err, ImportError::Parse(_)));
        assert!(repo.is_empty());
    }

    #[test]
    fn import_directory_skips_bad_files() {
        let dir = std::env::temp_dir().join("schemr-import-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("good.sql"),
            "CREATE TABLE a (x INT, y INT, z INT, w INT)",
        )
        .unwrap();
        std::fs::write(dir.join("bad.sql"), "CREATE TABLE (").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a schema").unwrap();
        std::fs::write(dir.join("header.csv"), "species,count,location").unwrap();
        let repo = Repository::new();
        let (ids, errors) = import_dir(&repo, &dir).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].0.ends_with("bad.sql"));
        // Titles come from file stems; source records the path.
        let titles: Vec<String> = ids
            .iter()
            .map(|&id| repo.get(id).unwrap().metadata.title.clone())
            .collect();
        assert!(titles.contains(&"good".to_string()));
        assert!(titles.contains(&"header".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_round_trips_through_ddl() {
        let repo = Repository::new();
        let id = import_str(
            &repo,
            "clinic",
            "",
            "CREATE TABLE patient (id INT, height REAL); CREATE TABLE visit (patient_id INT, FOREIGN KEY (patient_id) REFERENCES patient(id))",
        )
        .unwrap();
        let ddl = export_ddl(&repo, id).unwrap();
        let reimported = import_str(&repo, "clinic2", "", &ddl).unwrap();
        let a = repo.get(id).unwrap().schema.clone();
        let b = repo.get(reimported).unwrap().schema.clone();
        assert_eq!(a.entities().len(), b.entities().len());
        assert_eq!(a.attributes().len(), b.attributes().len());
        assert_eq!(a.foreign_keys().len(), b.foreign_keys().len());
    }

    #[test]
    fn export_missing_schema_is_not_found() {
        let repo = Repository::new();
        assert!(matches!(
            export_ddl(&repo, SchemaId(5)),
            Err(RepositoryError::NotFound(_))
        ));
    }
}
