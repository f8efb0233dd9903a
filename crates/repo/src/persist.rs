//! Repository persistence: JSON save/load.
//!
//! One file holds the whole repository state — schemas, metadata, journal,
//! and counters — so a restarted server resumes exactly where it left off
//! (including incremental-index bookkeeping).
//!
//! The file is written and read with `schemr_obs::json`, each schema
//! through its own wire form ([`Schema::write_json`] /
//! [`Schema::read_json`]). Keys come in struct field order; `null` is
//! `None`; the schema map's integer keys are decimal strings; a missing
//! key is an error and an unknown one is skipped.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;
use schemr_model::{Schema, SchemaId};
use schemr_obs::json::{self, JsonError, Reader};

use crate::repository::{
    ChangeEvent, ChangeKind, RepoState, Repository, SchemaMetadata, StoredSchema,
};

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid repository dump.
    Format(JsonError),
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

impl From<JsonError> for PersistError {
    fn from(e: JsonError) -> Self {
        PersistError::Format(e)
    }
}

fn kind_name(kind: ChangeKind) -> &'static str {
    match kind {
        ChangeKind::Put => "Put",
        ChangeKind::Delete => "Delete",
    }
}

/// Serialize the repository to a JSON string.
pub fn to_json(repo: &Repository) -> String {
    let st = repo.state.read();
    let mut out = String::new();
    out.push_str("{\"schemas\":{");
    for (i, (id, stored)) in st.schemas.iter().enumerate() {
        let m = &stored.metadata;
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(out, "{comma}\"{id}\":{{\"metadata\":{{\"id\":{}", m.id.0);
        for (key, text) in [
            ("title", &m.title),
            ("summary", &m.summary),
            ("description", &m.description),
            ("source", &m.source),
        ] {
            let _ = write!(out, ",\"{key}\":");
            json::string_into(&mut out, text);
        }
        let _ = write!(out, ",\"revision\":{}}},\"schema\":", m.revision);
        stored.schema.write_json(&mut out);
        out.push('}');
    }
    out.push_str("},\"journal\":[");
    for (i, e) in st.journal.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}{{\"revision\":{},\"id\":{},\"kind\":\"{}\"}}",
            e.revision,
            e.id.0,
            kind_name(e.kind)
        );
    }
    let _ = write!(
        out,
        "],\"next_id\":{},\"revision\":{}}}",
        st.next_id, st.revision
    );
    out
}

/// Restore a repository from [`to_json`] output.
pub fn from_json(json: &str) -> Result<Repository, PersistError> {
    let mut r = Reader::new(json);
    let mut st = RepoState::default();
    r.fields(["schemas", "journal", "next_id", "revision"], |r, key| {
        match key {
            "schemas" => r.object(|r, id| {
                let id = id
                    .parse()
                    .map_err(|_| r.error(format!("schema key {id:?} is not an id")))?;
                st.schemas.insert(id, Arc::new(read_stored(r)?));
                Ok(())
            })?,
            "journal" => r.array(|r| {
                let change = read_change(r)?;
                if st
                    .journal
                    .last()
                    .is_some_and(|last| change.revision <= last.revision)
                {
                    return Err(r.error("journal revisions do not strictly ascend"));
                }
                st.journal.push(change);
                Ok(())
            })?,
            "next_id" => st.next_id = r.u64()?,
            _ => st.revision = r.u64()?,
        }
        Ok(())
    })?;
    r.finish()?;
    Ok(Repository {
        state: RwLock::new(st),
    })
}

fn read_stored(r: &mut Reader<'_>) -> Result<StoredSchema, JsonError> {
    let mut metadata = SchemaMetadata {
        id: SchemaId(0),
        title: String::new(),
        summary: String::new(),
        description: String::new(),
        source: String::new(),
        revision: 0,
    };
    let mut schema = Schema::new(String::new());
    r.fields(["metadata", "schema"], |r, key| {
        match key {
            "metadata" => {
                let m = &mut metadata;
                let names = [
                    "id",
                    "title",
                    "summary",
                    "description",
                    "source",
                    "revision",
                ];
                r.fields(names, |r, key| {
                    match key {
                        "id" => m.id = SchemaId(r.u64()?),
                        "title" => m.title = r.string()?.into_owned(),
                        "summary" => m.summary = r.string()?.into_owned(),
                        "description" => m.description = r.string()?.into_owned(),
                        "source" => m.source = r.string()?.into_owned(),
                        _ => m.revision = r.u64()?,
                    }
                    Ok(())
                })?
            }
            _ => schema = Schema::read_json(r)?,
        }
        Ok(())
    })?;
    Ok(StoredSchema { metadata, schema })
}

fn read_change(r: &mut Reader<'_>) -> Result<ChangeEvent, JsonError> {
    let mut e = ChangeEvent {
        revision: 0,
        id: SchemaId(0),
        kind: ChangeKind::Put,
    };
    r.fields(["revision", "id", "kind"], |r, key| {
        match key {
            "revision" => e.revision = r.u64()?,
            "id" => e.id = SchemaId(r.u64()?),
            _ => e.kind = r.variant(&[ChangeKind::Put, ChangeKind::Delete], kind_name)?,
        }
        Ok(())
    })?;
    Ok(e)
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
    fn ids_and_revisions_round_trip_exactly_past_53_bits() {
        let dump = to_json(&populated());
        let (schema_key, revision) = ("\"0\":{\"metadata\":{\"id\":0,", ",\"revision\":2}");
        assert!(
            dump.contains(schema_key) && dump.ends_with(revision),
            "{dump}"
        );
        let with = |n: &str| {
            let body = dump.strip_suffix(revision).unwrap();
            let key = format!("\"{n}\":{{\"metadata\":{{\"id\":{n},");
            format!("{},\"revision\":{n}}}", body.replacen(schema_key, &key, 1))
        };
        // 2^53 + 1 rounds through an f64; u64::MAX saturates one.
        for n in [9_007_199_254_740_993, u64::MAX] {
            let edited = with(&n.to_string());
            let loaded = from_json(&edited).unwrap();
            assert_eq!(loaded.revision(), n);
            assert_eq!(loaded.ids(), [SchemaId(n)]);
            assert_eq!(loaded.get(SchemaId(n)).unwrap().metadata.id, SchemaId(n));
            assert_eq!(to_json(&loaded), edited);
        }
        assert!(matches!(
            from_json(&with("18446744073709551616")),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let dump = to_json(&populated());
        let edited = dump.replacen(
            "\"metadata\":{\"id\":0,",
            "\"metadata\":{\"x\":[1,{\"y\":null}],\"id\":0,",
            1,
        );
        assert_ne!(edited, dump);
        assert_eq!(to_json(&from_json(&edited).unwrap()), dump);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            load("/nonexistent/path/repo.json"),
            Err(PersistError::Io(_))
        ));
    }
}
