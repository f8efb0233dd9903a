//! Repository persistence: JSON save/load.
//!
//! One file holds the whole repository state — schemas, metadata, journal,
//! and counters — so a restarted server resumes exactly where it left off
//! (including incremental-index bookkeeping).

use std::path::Path;

use crate::repository::{RepoState, Repository};

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid repository dump.
    Format(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "repository I/O error: {e}"),
            PersistError::Format(e) => write!(f, "repository format error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// Serialize the repository to a JSON string.
pub fn to_json(repo: &Repository) -> String {
    serde_json::to_string(&*repo.state.read()).expect("repository state serializes")
}

/// Restore a repository from [`to_json`] output.
pub fn from_json(json: &str) -> Result<Repository, PersistError> {
    let state: RepoState = serde_json::from_str(json)?;
    Ok(Repository {
        state: parking_lot::RwLock::new(state),
    })
}

/// Write the repository to `path` — atomically *and* durably.
///
/// The dump goes to a sibling temp file which is fsynced **before** the
/// rename: renaming first would let a crash publish a file whose contents
/// are still only in the page cache, so a reboot could reveal an empty or
/// truncated "committed" dump. After the rename the parent directory is
/// fsynced too, making the new directory entry itself survive power loss.
/// On any failure the temp file is removed, so a failed save never leaves
/// a stray `.tmp` next to the real dump.
pub fn save(repo: &Repository, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    let result = (|| -> Result<(), PersistError> {
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(to_json(repo).as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Directory fsync is what persists the rename; without it the new
        // name may vanish on crash even though the data blocks are safe.
        // Some filesystems refuse to fsync a directory handle — that only
        // weakens durability, never correctness, so it is not an error.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a repository from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Repository, PersistError> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    fn populated() -> Repository {
        let repo = Repository::new();
        let id = repo
            .insert(
                "clinic",
                "a clinic",
                SchemaBuilder::new("clinic")
                    .entity("patient", |e| e.attr("height", DataType::Real))
                    .build_unchecked(),
            )
            .unwrap();
        repo.annotate(id, "desc", "src").unwrap();
        repo
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let repo = populated();
        let restored = from_json(&to_json(&repo)).unwrap();
        assert_eq!(restored.len(), repo.len());
        assert_eq!(restored.revision(), repo.revision());
        let id = repo.ids()[0];
        assert_eq!(restored.get(id), repo.get(id));
        assert_eq!(restored.changes_since(0), repo.changes_since(0));
    }

    #[test]
    fn dump_is_byte_identical_after_a_round_trip() {
        // The shared handles are invisible in the file: a restored
        // repository dumps the same bytes, also after copy-on-write
        // edits made while a reader still holds the old value.
        let repo = populated();
        let id = repo.ids()[0];
        let held = repo.get(id).unwrap();
        repo.annotate(id, "desc 2", "src 2").unwrap();
        assert_eq!(
            held.metadata.description, "desc",
            "readers keep what they read"
        );
        let dump = to_json(&repo);
        assert!(dump.contains("desc 2"));
        assert_eq!(to_json(&from_json(&dump).unwrap()), dump);
    }

    #[test]
    fn restored_repository_continues_id_sequence() {
        let repo = populated();
        let restored = from_json(&to_json(&repo)).unwrap();
        let new_id = restored
            .insert(
                "x",
                "",
                SchemaBuilder::new("x")
                    .entity("t", |e| e.attr("a", DataType::Text))
                    .build_unchecked(),
            )
            .unwrap();
        assert!(new_id > repo.ids()[0], "ids must not be reused");
    }

    #[test]
    fn save_load_through_file() {
        let dir = std::env::temp_dir().join("schemr-repo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        let repo = populated();
        save(&repo, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_save_leaves_no_temp_file_behind() {
        // Target a path whose final rename must fail: the destination is a
        // directory, so `rename` cannot replace it. The write of the
        // sibling temp file succeeds, which is exactly the case where a
        // sloppy save would leak `repo.tmp`.
        let dir = std::env::temp_dir().join(format!("schemr-save-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        std::fs::create_dir_all(&path).unwrap();
        let repo = populated();
        assert!(matches!(save(&repo, &path), Err(PersistError::Io(_))));
        assert!(
            !path.with_extension("tmp").exists(),
            "failed save must clean up its temp file"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_overwrites_previous_dump_in_place() {
        let dir = std::env::temp_dir().join(format!("schemr-save-over-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        let repo = populated();
        save(&repo, &path).unwrap();
        let second = populated();
        second
            .insert(
                "extra",
                "",
                SchemaBuilder::new("extra")
                    .entity("t", |e| e.attr("a", DataType::Text))
                    .build_unchecked(),
            )
            .unwrap();
        save(&second, &path).unwrap();
        assert_eq!(load(&path).unwrap().len(), 2);
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_input_is_a_format_error() {
        assert!(matches!(
            from_json("not json"),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(from_json("{}"), Err(PersistError::Format(_))));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            load("/nonexistent/path/repo.json"),
            Err(PersistError::Io(_))
        ));
    }
}
