//! The flat element column: how a [`crate::Schema`] stores its elements.
//!
//! Every element's name — and documentation, when it has any — sits back
//! to back in one `String` arena in id order, and one 16-byte [`Record`]
//! per element says where its text ends, who contains it and what it is.
//! A schema is three allocations however many elements it has, cloning it
//! is three `memcpy`s, and a candidate's names are one contiguous run.
//!
//! The column upholds one invariant for everything built on it: an
//! element's containment parent has a smaller id than the element itself
//! (*parents precede children*). [`ElementColumn::push`] is the only way
//! in — for `add_child`, and for deserialization alike — so no dangling
//! parent and no containment cycle can exist, and every parent walk
//! terminates.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::element::{DataType, Element, ElementId, ElementKind};

/// `Record::parent` of a root element.
const NO_PARENT: u32 = u32::MAX;

/// One element's fixed-size half; its text is `text[prev.doc_end..doc_end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    /// Arena offset where the name ends (and the doc, if any, begins).
    name_end: u32,
    /// Arena offset where this element's text ends and the next one's begins.
    doc_end: u32,
    /// Containment parent's id, [`NO_PARENT`] for roots; always less than
    /// the element's own id.
    parent: u32,
    kind: ElementKind,
    data_type: DataType,
    /// Tells `Some("")` from `None`: both have `doc_end == name_end`.
    has_doc: bool,
}

/// A borrowed view of one schema element: the same fields as [`Element`],
/// with the text borrowed from the schema's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRef<'a> {
    /// The element's declared name, exactly as parsed.
    pub name: &'a str,
    /// Entity, attribute, or group.
    pub kind: ElementKind,
    /// Data type; meaningful for attributes, [`DataType::Unknown`] otherwise.
    pub data_type: DataType,
    /// Containment parent (`None` for roots).
    pub parent: Option<ElementId>,
    /// Free-text documentation attached in the source.
    pub doc: Option<&'a str>,
}

impl ElementRef<'_> {
    /// An owned copy, as [`crate::Schema::add_root`] / `add_child` take it.
    pub fn to_element(&self) -> Element {
        Element {
            name: self.name.to_string(),
            kind: self.kind,
            data_type: self.data_type,
            parent: self.parent,
            doc: self.doc.map(str::to_string),
        }
    }
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a schema's element text stays under 4 GiB")
}

/// Names, docs and records of a schema's elements, in id order.
///
/// Equality is structural: the arena is canonical (no gaps, no slack), so
/// two columns holding the same elements are equal whatever sequence of
/// pushes and `set_*` calls built them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ElementColumn {
    text: String,
    records: Vec<Record>,
}

impl ElementColumn {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Append `element`; its `parent`, if any, must already be in the
    /// column. This check is the whole containment invariant.
    pub fn push(&mut self, element: Element) -> Result<ElementId, String> {
        let id = self.records.len();
        let parent = match element.parent {
            None => NO_PARENT,
            Some(p) if p.index() < id => p.0,
            Some(p) => {
                return Err(format!(
                    "element e{id}: parent {p} does not precede it \
                     (dangling parent or containment cycle)"
                ))
            }
        };
        assert!(id < NO_PARENT as usize, "too many elements in one schema");
        self.text.push_str(&element.name);
        let name_end = offset(self.text.len());
        if let Some(doc) = &element.doc {
            self.text.push_str(doc);
        }
        self.records.push(Record {
            name_end,
            doc_end: offset(self.text.len()),
            parent,
            kind: element.kind,
            data_type: element.data_type,
            has_doc: element.doc.is_some(),
        });
        Ok(ElementId(id as u32))
    }

    /// Arena offset where element `i`'s text starts.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.records[i - 1].doc_end as usize,
        }
    }

    /// # Panics
    /// Panics if `i` is out of range.
    pub fn view(&self, i: usize) -> ElementRef<'_> {
        let r = self.records[i];
        let (name_end, doc_end) = (r.name_end as usize, r.doc_end as usize);
        ElementRef {
            name: &self.text[self.start(i)..name_end],
            kind: r.kind,
            data_type: r.data_type,
            parent: self.parent(i),
            doc: r.has_doc.then(|| &self.text[name_end..doc_end]),
        }
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = ElementRef<'_>> + '_ {
        (0..self.len()).map(|i| self.view(i))
    }

    /// Kind and parent without touching the arena, for the graph walks.
    pub fn kind(&self, i: usize) -> ElementKind {
        self.records[i].kind
    }

    pub fn parent(&self, i: usize) -> Option<ElementId> {
        match self.records[i].parent {
            NO_PARENT => None,
            p => Some(ElementId(p)),
        }
    }

    /// Replace `range` of element `i`'s text; `i`'s `doc_end` and every
    /// later offset move along. (`i`'s `name_end` is the caller's.)
    fn splice(&mut self, i: usize, range: std::ops::Range<usize>, new: &str) {
        let (old_len, new_len) = (range.len(), new.len());
        self.text.replace_range(range, new);
        let moved = |end: u32| offset(end as usize - old_len + new_len);
        self.records[i].doc_end = moved(self.records[i].doc_end);
        for r in &mut self.records[i + 1..] {
            r.name_end = moved(r.name_end);
            r.doc_end = moved(r.doc_end);
        }
    }

    pub fn set_name(&mut self, i: usize, name: &str) {
        let start = self.start(i);
        self.splice(i, start..self.records[i].name_end as usize, name);
        self.records[i].name_end = offset(start + name.len());
    }

    pub fn set_doc(&mut self, i: usize, doc: Option<&str>) {
        let r = self.records[i];
        self.splice(
            i,
            r.name_end as usize..r.doc_end as usize,
            doc.unwrap_or(""),
        );
        self.records[i].has_doc = doc.is_some();
    }

    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.records.shrink_to_fit();
    }

    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.records.capacity() * std::mem::size_of::<Record>()
    }
}

/// On the wire the column is what the element list always was: an array
/// of [`Element`] objects, so files written before the flat layout load,
/// and files written now are byte-identical to them.
impl Serialize for ElementColumn {
    fn serialize_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|el| el.to_element().serialize_value())
                .collect(),
        )
    }
}

impl Deserialize for ElementColumn {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let Value::Array(items) = v else {
            return Err(DeError("expected an array of elements".to_string()));
        };
        let mut column = ElementColumn::default();
        column.records.reserve_exact(items.len());
        for item in items {
            column
                .push(Element::deserialize_value(item)?)
                .map_err(DeError)?;
        }
        Ok(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }

    #[test]
    fn text_is_stored_back_to_back_in_id_order() {
        let mut c = ElementColumn::default();
        c.push(Element::entity("patient").with_doc("a person"))
            .unwrap();
        let mut height = Element::attribute("height", DataType::Real);
        height.parent = Some(ElementId(0));
        c.push(height).unwrap();
        assert_eq!(c.text, "patienta personheight");
        assert_eq!(c.view(0).doc, Some("a person"));
        assert_eq!(c.view(1).name, "height");
        assert_eq!(c.view(1).parent, Some(ElementId(0)));
        assert_eq!(c.view(1).doc, None);
    }

    #[test]
    fn push_refuses_a_parent_that_does_not_precede() {
        let mut c = ElementColumn::default();
        let mut own = Element::group("self");
        own.parent = Some(ElementId(0));
        assert!(c.push(own).unwrap_err().contains("does not precede"));
        let mut later = Element::group("later");
        later.parent = Some(ElementId(7));
        assert!(c.push(later).is_err());
        assert_eq!(c.len(), 0);
        assert!(c.text.is_empty());
    }

    #[test]
    fn set_calls_resplice_and_keep_the_arena_canonical() {
        let build = |names: [&str; 3], doc: Option<&str>| {
            let mut c = ElementColumn::default();
            for (i, n) in names.into_iter().enumerate() {
                let mut el = Element::entity(n);
                if i == 1 {
                    el.doc = doc.map(str::to_string);
                }
                c.push(el).unwrap();
            }
            c
        };
        let mut c = build(["a", "bb", "ccc"], None);
        c.set_name(0, "längér");
        c.set_doc(1, Some("doc"));
        c.set_name(2, "");
        assert_eq!(c, build(["längér", "bb", ""], Some("doc")));
        c.set_doc(1, Some(""));
        assert_eq!(c.view(1).doc, Some(""));
        assert_eq!(c, build(["längér", "bb", ""], Some("")));
        c.set_doc(1, None);
        c.set_name(2, "ccc");
        c.set_name(0, "a");
        assert_eq!(c, build(["a", "bb", "ccc"], None));
    }
}
