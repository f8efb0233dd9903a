//! The thread-safe schema store.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use schemr_model::{validate, Schema, SchemaId, SchemaStats};

/// Descriptive metadata for a stored schema — the fields the paper's
/// document index stores ("a title, a summary, an ID") plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaMetadata {
    /// Repository-assigned id.
    pub id: SchemaId,
    /// Display title (also the index's Title field).
    pub title: String,
    /// One-line summary.
    pub summary: String,
    /// Longer description, shown on drill-in.
    pub description: String,
    /// Where the schema came from (organization, URL, upload).
    pub source: String,
    /// Revision at which this schema was last written.
    pub revision: u64,
}

/// A schema plus its metadata, as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSchema {
    /// Metadata record.
    pub metadata: SchemaMetadata,
    /// The schema graph.
    pub schema: Schema,
}

impl StoredSchema {
    /// Element-count statistics (the result table's entity/attribute
    /// columns).
    pub fn stats(&self) -> SchemaStats {
        SchemaStats::of(&self.schema)
    }

    /// Estimated bytes this entry keeps resident: the shared allocation
    /// (two reference counts + the value), the metadata strings and the
    /// schema's heap. Capacity-based, like the index's `DeepSize`.
    fn deep_bytes(&self) -> usize {
        let m = &self.metadata;
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<StoredSchema>()
            + m.title.capacity()
            + m.summary.capacity()
            + m.description.capacity()
            + m.source.capacity()
            + self.schema.heap_bytes()
    }
}

/// What a journal entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// Insert or update.
    Put,
    /// Removal.
    Delete,
}

/// One entry in the change journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeEvent {
    /// Monotone revision of the mutation.
    pub revision: u64,
    /// The schema affected.
    pub id: SchemaId,
    /// Put or delete.
    pub kind: ChangeKind,
}

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RepositoryError {
    /// The schema failed structural validation.
    Invalid(Vec<schemr_model::ValidationError>),
    /// No schema with the given id.
    NotFound(SchemaId),
}

impl std::fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepositoryError::Invalid(errs) => {
                write!(f, "schema failed validation: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            RepositoryError::NotFound(id) => write!(f, "schema {id} not found"),
        }
    }
}

impl std::error::Error for RepositoryError {}

#[derive(Debug, Default)]
pub(crate) struct RepoState {
    /// Shared, so reads hand out a reference count, not a deep copy;
    /// writers replace or copy-on-write an entry.
    pub schemas: BTreeMap<u64, Arc<StoredSchema>>,
    /// In strictly ascending revision order (each change bumps the
    /// revision; `persist::from_json` refuses any other order), so
    /// [`Repository::changes_since`] finds its start by binary search.
    pub journal: Vec<ChangeEvent>,
    pub next_id: u64,
    pub revision: u64,
}

/// A thread-safe, versioned schema repository.
#[derive(Debug, Default)]
pub struct Repository {
    pub(crate) state: RwLock<RepoState>,
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a new schema; validates first. Returns the assigned id.
    pub fn insert(
        &self,
        title: impl Into<String>,
        summary: impl Into<String>,
        mut schema: Schema,
    ) -> Result<SchemaId, RepositoryError> {
        let errs = validate(&schema);
        if !errs.is_empty() {
            return Err(RepositoryError::Invalid(errs));
        }
        // What is stored stays: keep no growth slack (a no-op for a clone).
        schema.shrink_to_fit();
        let mut st = self.state.write();
        let id = SchemaId(st.next_id);
        st.next_id += 1;
        st.revision += 1;
        let revision = st.revision;
        st.schemas.insert(
            id.0,
            Arc::new(StoredSchema {
                metadata: SchemaMetadata {
                    id,
                    title: title.into(),
                    summary: summary.into(),
                    description: String::new(),
                    source: String::new(),
                    revision,
                },
                schema,
            }),
        );
        st.journal.push(ChangeEvent {
            revision,
            id,
            kind: ChangeKind::Put,
        });
        Ok(id)
    }

    /// Replace an existing schema's graph (metadata title/summary kept).
    pub fn update(&self, id: SchemaId, mut schema: Schema) -> Result<(), RepositoryError> {
        let errs = validate(&schema);
        if !errs.is_empty() {
            return Err(RepositoryError::Invalid(errs));
        }
        schema.shrink_to_fit();
        let mut st = self.state.write();
        st.revision += 1;
        let revision = st.revision;
        // Copy-on-write: readers holding the old `Arc` keep what they
        // read.
        let entry = Arc::make_mut(
            st.schemas
                .get_mut(&id.0)
                .ok_or(RepositoryError::NotFound(id))?,
        );
        entry.schema = schema;
        entry.metadata.revision = revision;
        st.journal.push(ChangeEvent {
            revision,
            id,
            kind: ChangeKind::Put,
        });
        Ok(())
    }

    /// Update metadata fields (description, source) in place.
    pub fn annotate(
        &self,
        id: SchemaId,
        description: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<(), RepositoryError> {
        let mut st = self.state.write();
        st.revision += 1;
        let revision = st.revision;
        let entry = Arc::make_mut(
            st.schemas
                .get_mut(&id.0)
                .ok_or(RepositoryError::NotFound(id))?,
        );
        entry.metadata.description = description.into();
        entry.metadata.source = source.into();
        entry.metadata.revision = revision;
        st.journal.push(ChangeEvent {
            revision,
            id,
            kind: ChangeKind::Put,
        });
        Ok(())
    }

    /// Remove a schema.
    pub fn remove(&self, id: SchemaId) -> Result<(), RepositoryError> {
        let mut st = self.state.write();
        if st.schemas.remove(&id.0).is_none() {
            return Err(RepositoryError::NotFound(id));
        }
        st.revision += 1;
        let revision = st.revision;
        st.journal.push(ChangeEvent {
            revision,
            id,
            kind: ChangeKind::Delete,
        });
        Ok(())
    }

    /// Fetch a schema by id: a shared handle on the stored value as of
    /// this call, never a copy of it.
    pub fn get(&self, id: SchemaId) -> Option<Arc<StoredSchema>> {
        self.state.read().schemas.get(&id.0).cloned()
    }

    /// All ids, ascending.
    pub fn ids(&self) -> Vec<SchemaId> {
        self.state
            .read()
            .schemas
            .keys()
            .map(|&k| SchemaId(k))
            .collect()
    }

    /// Number of stored schemas.
    pub fn len(&self) -> usize {
        self.state.read().schemas.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every stored schema (the offline indexer's full-scan
    /// path): one shared handle each.
    pub fn snapshot(&self) -> Vec<Arc<StoredSchema>> {
        self.state.read().schemas.values().cloned().collect()
    }

    /// Estimated resident bytes of everything the repository holds: the
    /// stored schemas with their metadata, the id map's slots and the
    /// change journal (`GET /debug/memory`, `schemr_repository_deep_bytes`).
    pub fn deep_bytes(&self) -> usize {
        let st = self.state.read();
        let slot = std::mem::size_of::<u64>() + std::mem::size_of::<Arc<StoredSchema>>();
        st.schemas.values().map(|s| s.deep_bytes()).sum::<usize>()
            + st.schemas.len() * slot
            + st.journal.capacity() * std::mem::size_of::<ChangeEvent>()
    }

    /// The current revision (0 for a fresh repository).
    pub fn revision(&self) -> u64 {
        self.state.read().revision
    }

    /// Journal entries with revision strictly greater than `since` — the
    /// incremental re-index feed.
    pub fn changes_since(&self, since: u64) -> Vec<ChangeEvent> {
        let st = self.state.read();
        let start = st.journal.partition_point(|e| e.revision <= since);
        st.journal[start..].to_vec()
    }

    /// Drop journal entries at or below `upto` (after the indexer consumed
    /// them).
    pub fn truncate_journal(&self, upto: u64) {
        self.state.write().journal.retain(|e| e.revision > upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, Element, SchemaBuilder};

    fn sample() -> Schema {
        SchemaBuilder::new("clinic")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .build_unchecked()
    }

    #[test]
    fn insert_get_roundtrip() {
        let repo = Repository::new();
        let id = repo.insert("clinic", "a health clinic", sample()).unwrap();
        let stored = repo.get(id).unwrap();
        assert_eq!(stored.metadata.title, "clinic");
        assert_eq!(stored.metadata.summary, "a health clinic");
        assert_eq!(stored.schema.entities().len(), 1);
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn ids_are_unique_and_ascending() {
        let repo = Repository::new();
        let a = repo.insert("a", "", sample()).unwrap();
        let b = repo.insert("b", "", sample()).unwrap();
        assert!(b > a);
        assert_eq!(repo.ids(), vec![a, b]);
    }

    #[test]
    fn invalid_schemas_are_rejected() {
        let repo = Repository::new();
        let mut bad = Schema::new("bad");
        bad.add_root(Element::entity("  "));
        let err = repo.insert("bad", "", bad).unwrap_err();
        assert!(matches!(err, RepositoryError::Invalid(_)));
        assert!(repo.is_empty());
    }

    #[test]
    fn update_bumps_revision_and_journals() {
        let repo = Repository::new();
        let id = repo.insert("a", "", sample()).unwrap();
        let rev1 = repo.revision();
        repo.update(id, sample()).unwrap();
        assert!(repo.revision() > rev1);
        let changes = repo.changes_since(rev1);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].kind, ChangeKind::Put);
        assert_eq!(changes[0].id, id);
    }

    #[test]
    fn remove_journals_a_delete() {
        let repo = Repository::new();
        let id = repo.insert("a", "", sample()).unwrap();
        let rev = repo.revision();
        repo.remove(id).unwrap();
        assert!(repo.get(id).is_none());
        let changes = repo.changes_since(rev);
        assert_eq!(changes[0].kind, ChangeKind::Delete);
        assert!(matches!(repo.remove(id), Err(RepositoryError::NotFound(_))));
    }

    #[test]
    fn annotate_updates_metadata() {
        let repo = Repository::new();
        let id = repo.insert("a", "", sample()).unwrap();
        repo.annotate(id, "full description", "nature-conservancy")
            .unwrap();
        let stored = repo.get(id).unwrap();
        assert_eq!(stored.metadata.description, "full description");
        assert_eq!(stored.metadata.source, "nature-conservancy");
    }

    #[test]
    fn journal_truncation() {
        let repo = Repository::new();
        repo.insert("a", "", sample()).unwrap();
        repo.insert("b", "", sample()).unwrap();
        let mid = repo.revision();
        repo.insert("c", "", sample()).unwrap();
        repo.truncate_journal(mid);
        assert_eq!(repo.changes_since(0).len(), 1);
        assert_eq!(repo.changes_since(mid).len(), 1);
    }

    #[test]
    fn changes_since_equals_the_linear_filter_at_every_revision() {
        let repo = Repository::new();
        let a = repo.insert("a", "", sample()).unwrap();
        let b = repo.insert("b", "", sample()).unwrap();
        repo.update(a, sample()).unwrap();
        repo.annotate(b, "described", "here").unwrap();
        repo.remove(a).unwrap();
        let c = repo.insert("c", "", sample()).unwrap();
        repo.update(c, sample()).unwrap();
        // A failed update bumps the revision without a journal entry.
        assert!(repo.update(a, sample()).is_err());
        repo.remove(b).unwrap();
        let restored = crate::persist::from_json(&crate::persist::to_json(&repo)).unwrap();
        for r in [&repo, &restored] {
            let journal = r.state.read().journal.clone();
            assert_eq!(journal.len(), 8);
            for since in 0..=r.revision() + 1 {
                let linear: Vec<ChangeEvent> = journal
                    .iter()
                    .filter(|e| e.revision > since)
                    .copied()
                    .collect();
                assert_eq!(r.changes_since(since), linear, "since {since}");
            }
        }
    }

    #[test]
    fn update_missing_is_not_found() {
        let repo = Repository::new();
        assert!(matches!(
            repo.update(SchemaId(99), sample()),
            Err(RepositoryError::NotFound(_))
        ));
    }

    #[test]
    fn stats_are_exposed_for_the_result_table() {
        let repo = Repository::new();
        let id = repo.insert("a", "", sample()).unwrap();
        let st = repo.get(id).unwrap().stats();
        assert_eq!(st.entities, 1);
        assert_eq!(st.attributes, 1);
    }

    #[test]
    fn concurrent_inserts_do_not_collide() {
        let repo = std::sync::Arc::new(Repository::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = repo.clone();
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|_| r.insert("t", "", sample()).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<SchemaId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 400);
        assert_eq!(repo.len(), 400);
        assert_eq!(repo.changes_since(0).len(), 400);
    }
}
