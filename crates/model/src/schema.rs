//! The [`Schema`] graph: elements, containment, foreign keys, and the
//! structural distance classes used by tightness-of-fit scoring.

use std::fmt::Write as _;

use schemr_obs::json::{self, JsonError, Reader};

use crate::column::{ElementColumn, ElementRef};
use crate::element::{Element, ElementId, ElementKind};

/// A foreign-key edge between two entities.
///
/// Attribute-level detail is kept so parsers can round-trip DDL, but the
/// tightness-of-fit measure only uses the entity-level projection.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKey {
    /// Referencing entity.
    pub from_entity: ElementId,
    /// Referencing attributes (columns of `from_entity`).
    pub from_attrs: Vec<ElementId>,
    /// Referenced entity.
    pub to_entity: ElementId,
    /// Referenced attributes (columns of `to_entity`); empty means the
    /// target's primary key was implied.
    pub to_attrs: Vec<ElementId>,
}

/// Structural distance between two matched elements, relative to an anchor
/// entity — the three-way classification at the heart of the paper's
/// tightness-of-fit measure:
///
/// * same entity → no penalty,
/// * same *entity neighborhood* (transitive closure over foreign keys) →
///   small penalty,
/// * unrelated entities → larger penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceClass {
    /// The element lives in the anchor entity itself.
    SameEntity,
    /// The element's entity is FK-reachable from the anchor (in either
    /// direction, transitively).
    Neighborhood,
    /// No FK path connects the element's entity to the anchor.
    Unrelated,
}

/// A schema: a named graph of elements with containment and foreign-key
/// edges.
///
/// Elements are stored densely and flat (see [`crate::ElementRef`]):
/// [`ElementId`]s index into [`Schema::elements`], text lives in one
/// arena, and containment is each element's `parent` pointer, which always
/// names an *earlier* element. Foreign keys are a separate edge list.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// The schema's own name (e.g. the DDL file stem or XSD root).
    pub name: String,
    elements: ElementColumn,
    foreign_keys: Vec<ForeignKey>,
}

impl ForeignKey {
    fn write_json(&self, out: &mut String) {
        let ids = |out: &mut String, ids: &[ElementId]| {
            out.push('[');
            for (i, id) in ids.iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, id.0);
            }
            out.push(']');
        };
        let _ = write!(
            out,
            "{{\"from_entity\":{},\"from_attrs\":",
            self.from_entity.0
        );
        ids(out, &self.from_attrs);
        let _ = write!(out, ",\"to_entity\":{},\"to_attrs\":", self.to_entity.0);
        ids(out, &self.to_attrs);
        out.push('}');
    }

    fn read_json(r: &mut Reader<'_>) -> Result<ForeignKey, JsonError> {
        let ids = |r: &mut Reader<'_>| {
            let mut ids = Vec::new();
            r.array(|r| {
                ids.push(ElementId::read_json(r)?);
                Ok(())
            })?;
            Ok::<_, JsonError>(ids)
        };
        let mut fk = ForeignKey {
            from_entity: ElementId(0),
            from_attrs: Vec::new(),
            to_entity: ElementId(0),
            to_attrs: Vec::new(),
        };
        let names = ["from_entity", "from_attrs", "to_entity", "to_attrs"];
        r.fields(names, |r, key| {
            match key {
                "from_entity" => fk.from_entity = ElementId::read_json(r)?,
                "from_attrs" => fk.from_attrs = ids(r)?,
                "to_entity" => fk.to_entity = ElementId::read_json(r)?,
                _ => fk.to_attrs = ids(r)?,
            }
            Ok(())
        })?;
        Ok(fk)
    }
}

impl Schema {
    /// Append the schema as a `repo.json` object: `name`, `elements`,
    /// `foreign_keys`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::string_into(out, &self.name);
        out.push_str(",\"elements\":");
        self.elements.write_json(out);
        out.push_str(",\"foreign_keys\":[");
        for (i, fk) in self.foreign_keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            fk.write_json(out);
        }
        out.push_str("]}");
    }

    /// Read what [`Schema::write_json`] writes. Parents precede children
    /// (checked as the column fills) and every foreign-key endpoint is an
    /// element of this schema — so no file can make [`Schema::path`],
    /// [`Schema::neighborhoods`] or [`crate::validate`] index out of
    /// bounds or walk a cycle.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Schema, JsonError> {
        let mut schema = Schema::new(String::new());
        r.fields(["name", "elements", "foreign_keys"], |r, key| {
            match key {
                "name" => schema.name = r.string()?.into_owned(),
                "elements" => schema.elements = ElementColumn::read_json(r)?,
                _ => r.array(|r| {
                    schema.foreign_keys.push(ForeignKey::read_json(r)?);
                    Ok(())
                })?,
            }
            Ok(())
        })?;
        let n = schema.len();
        for fk in &schema.foreign_keys {
            let endpoints = [fk.from_entity, fk.to_entity];
            let mut ids = endpoints.iter().chain(&fk.from_attrs).chain(&fk.to_attrs);
            if let Some(id) = ids.find(|id| id.index() >= n) {
                return Err(r.error(format!(
                    "foreign key references {id}, past the schema's {n} elements"
                )));
            }
        }
        schema.shrink_to_fit();
        Ok(schema)
    }
}

impl Schema {
    /// An empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            elements: ElementColumn::default(),
            foreign_keys: Vec::new(),
        }
    }

    /// All elements, in insertion order (dense, indexable by [`ElementId`]).
    pub fn elements(&self) -> impl ExactSizeIterator<Item = ElementRef<'_>> + '_ {
        self.elements.iter()
    }

    /// Number of elements of any kind.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the schema has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All foreign-key edges.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// The element behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this schema.
    pub fn element(&self, id: ElementId) -> ElementRef<'_> {
        self.elements.view(id.index())
    }

    /// The element behind `id`, or `None` if out of range.
    pub fn get(&self, id: ElementId) -> Option<ElementRef<'_>> {
        (id.index() < self.len()).then(|| self.element(id))
    }

    /// Append a root element (no parent) and return its id.
    pub fn add_root(&mut self, element: Element) -> ElementId {
        debug_assert!(element.parent.is_none());
        let root = ElementRef {
            parent: None,
            ..(&element).into()
        };
        self.elements.push(root).expect("roots have no parent")
    }

    /// Append `element` as a child of `parent` and return its id.
    ///
    /// # Panics
    /// Panics if `parent` was not issued by this schema.
    pub fn add_child(&mut self, parent: ElementId, element: Element) -> ElementId {
        assert!(parent.index() < self.len(), "unknown parent {parent}");
        let child = ElementRef {
            parent: Some(parent),
            ..(&element).into()
        };
        self.elements.push(child).expect("the parent precedes")
    }

    /// Rename the element behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this schema.
    pub fn set_name(&mut self, id: ElementId, name: &str) {
        self.elements.set_name(id.index(), name);
    }

    /// Attach, replace or (with `None`) remove the documentation of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this schema.
    pub fn set_doc(&mut self, id: ElementId, doc: Option<&str>) {
        self.elements.set_doc(id.index(), doc);
    }

    /// Record a foreign-key edge.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        self.foreign_keys.push(fk);
    }

    /// Give back the growth slack of a finished schema, so that it weighs
    /// what its clone weighs. Builders call this once, at the end.
    pub fn shrink_to_fit(&mut self) {
        self.name.shrink_to_fit();
        self.elements.shrink_to_fit();
        self.foreign_keys.shrink_to_fit();
        for fk in &mut self.foreign_keys {
            fk.from_attrs.shrink_to_fit();
            fk.to_attrs.shrink_to_fit();
        }
    }

    /// Heap bytes this schema holds (capacities, not lengths; the struct
    /// itself excluded).
    pub fn heap_bytes(&self) -> usize {
        let attrs = |fk: &ForeignKey| fk.from_attrs.capacity() + fk.to_attrs.capacity();
        self.name.capacity()
            + self.elements.heap_bytes()
            + self.foreign_keys.capacity() * std::mem::size_of::<ForeignKey>()
            + self.foreign_keys.iter().map(attrs).sum::<usize>() * std::mem::size_of::<ElementId>()
    }

    /// Ids of all elements, in order.
    pub fn ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.len() as u32).map(ElementId)
    }

    fn kind(&self, id: ElementId) -> ElementKind {
        self.elements.kind(id.index())
    }

    fn parent(&self, id: ElementId) -> Option<ElementId> {
        self.elements.parent(id.index())
    }

    /// Ids of all root elements (no containment parent).
    pub fn roots(&self) -> Vec<ElementId> {
        self.ids().filter(|id| self.parent(*id).is_none()).collect()
    }

    /// Ids of the direct children of `id`, in insertion order.
    pub fn children(&self, id: ElementId) -> Vec<ElementId> {
        self.ids().filter(|c| self.parent(*c) == Some(id)).collect()
    }

    /// Ids of all entities.
    pub fn entities(&self) -> Vec<ElementId> {
        self.ids()
            .filter(|id| self.kind(*id) == ElementKind::Entity)
            .collect()
    }

    /// Ids of all attributes.
    pub fn attributes(&self) -> Vec<ElementId> {
        self.ids()
            .filter(|id| self.kind(*id) == ElementKind::Attribute)
            .collect()
    }

    /// The nearest enclosing *entity* of `id` (itself, if `id` is an entity).
    ///
    /// Walks containment parents through any groups. Returns `None` for
    /// elements with no enclosing entity (e.g. a root attribute in a
    /// degenerate flat schema).
    pub fn owning_entity(&self, id: ElementId) -> Option<ElementId> {
        let mut cur = id;
        loop {
            if self.kind(cur) == ElementKind::Entity {
                return Some(cur);
            }
            cur = self.parent(cur)?;
        }
    }

    /// Dotted path from the root to `id`: `"patient.visit.height"`.
    ///
    /// One allocation: the parent chain is walked once for the length
    /// and once to lay the names down, leaf first from the back (a
    /// parent precedes its children, so the chain is a short loop).
    pub fn path(&self, id: ElementId) -> String {
        let chain = || std::iter::successors(Some(id), |&c| self.parent(c));
        let name = |c: ElementId| self.element(c).name.as_bytes();
        // Every name, and a dot before each but the root's.
        let len = chain().map(|c| name(c).len() + 1).sum::<usize>() - 1;
        let mut path = vec![b'.'; len];
        let mut end = len;
        for c in chain() {
            let start = end - name(c).len();
            path[start..end].copy_from_slice(name(c));
            end = start.saturating_sub(1);
        }
        String::from_utf8(path).expect("names joined by dots are UTF-8")
    }

    /// Depth of `id` below its root (roots have depth 0).
    pub fn depth(&self, id: ElementId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(id);
        while let Some(c) = cur {
            d += 1;
            cur = self.parent(c);
        }
        d
    }

    /// Ids of the subtree rooted at `root`, pre-order, cut at `max_depth`
    /// levels below `root` (the paper caps displayed depth at 3 and lets the
    /// user drill in).
    pub fn subtree(&self, root: ElementId, max_depth: usize) -> Vec<ElementId> {
        let mut out = Vec::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((id, d)) = stack.pop() {
            out.push(id);
            if d < max_depth {
                let mut kids = self.children(id);
                // Reverse so pre-order pops in insertion order.
                kids.reverse();
                for k in kids {
                    stack.push((k, d + 1));
                }
            }
        }
        out
    }

    /// Union-find over entities joined by foreign keys — the "transitive
    /// closure on foreign key" the paper uses to define entity neighborhoods.
    ///
    /// Writes a component label per element index into `component`
    /// (labels are only meaningful for entities); `parent` is the
    /// union-find array, a caller's buffer like `component`.
    fn fk_components_into(&self, parent: &mut Vec<u32>, component: &mut Vec<u32>) {
        let n = self.len();
        parent.clear();
        parent.extend(0..n as u32);
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            // Path compression.
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for fk in &self.foreign_keys {
            // `add_foreign_key` does not check its endpoints (`validate`
            // reports them); an edge to nowhere joins nothing.
            if fk.from_entity.index() >= n || fk.to_entity.index() >= n {
                continue;
            }
            let ra = find(parent, fk.from_entity.0);
            let rb = find(parent, fk.to_entity.0);
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
        component.clear();
        component.extend((0..n as u32).map(|i| find(parent, i)));
    }

    /// Precomputed structural-distance oracle for tightness-of-fit scoring.
    pub fn neighborhoods(&self) -> Neighborhoods {
        let mut neighborhoods = Neighborhoods::default();
        self.neighborhoods_into(&mut neighborhoods, &mut Vec::new());
        neighborhoods
    }

    /// [`Schema::neighborhoods`] into `out`'s tables, with `union_find`
    /// as the foreign-key union-find array: a caller that classifies one
    /// candidate after another keeps both and allocates only when a
    /// schema outgrows every one before it.
    pub fn neighborhoods_into(&self, out: &mut Neighborhoods, union_find: &mut Vec<u32>) {
        // Parents precede children, so one forward pass sees every
        // element's parent before the element.
        let owning = &mut out.owning;
        owning.clear();
        owning.reserve(self.len());
        for id in self.ids() {
            let owner = match self.kind(id) {
                ElementKind::Entity => Some(id),
                _ => self.parent(id).and_then(|p| owning[p.index()]),
            };
            owning.push(owner);
        }
        self.fk_components_into(union_find, &mut out.component);
    }

    /// Classify the structural distance from `anchor` (an entity) to the
    /// entity owning `element`. Convenience wrapper; hot paths should reuse a
    /// [`Neighborhoods`] oracle.
    pub fn distance_class(&self, anchor: ElementId, element: ElementId) -> DistanceClass {
        self.neighborhoods().classify(anchor, element)
    }
}

/// Precomputed owning-entity and FK-component tables for a schema.
///
/// Built once per candidate schema by [`Schema::neighborhoods`] (or
/// refilled by [`Schema::neighborhoods_into`]); answers [`DistanceClass`]
/// queries in O(1). The default is the tables of an empty schema.
#[derive(Debug, Clone, Default)]
pub struct Neighborhoods {
    owning: Vec<Option<ElementId>>,
    component: Vec<u32>,
}

impl Neighborhoods {
    /// The nearest enclosing entity of `id`, as precomputed.
    pub fn owning_entity(&self, id: ElementId) -> Option<ElementId> {
        self.owning[id.index()]
    }

    /// Structural distance class of `element` relative to `anchor`.
    ///
    /// `anchor` is interpreted through its own owning entity, so it is safe
    /// to pass attributes as anchors too.
    pub fn classify(&self, anchor: ElementId, element: ElementId) -> DistanceClass {
        let (Some(ae), Some(ee)) = (self.owning_entity(anchor), self.owning_entity(element)) else {
            return DistanceClass::Unrelated;
        };
        if ae == ee {
            DistanceClass::SameEntity
        } else if self.component[ae.index()] == self.component[ee.index()] {
            DistanceClass::Neighborhood
        } else {
            DistanceClass::Unrelated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::DataType;

    /// The paper's Figure 4 schema: `case(doctor, patient)` with FKs to
    /// `patient(height, gender)` and `doctor(gender)`, plus an unrelated
    /// `supply(item)` entity for the Unrelated class.
    fn figure4_schema() -> (Schema, ElementId, ElementId, ElementId, ElementId) {
        let mut s = Schema::new("clinic");
        let case = s.add_root(Element::entity("case"));
        let case_doctor = s.add_child(case, Element::attribute("doctor", DataType::Integer));
        let case_patient = s.add_child(case, Element::attribute("patient", DataType::Integer));
        let patient = s.add_root(Element::entity("patient"));
        let _height = s.add_child(patient, Element::attribute("height", DataType::Real));
        let _gender = s.add_child(patient, Element::attribute("gender", DataType::Text));
        let doctor = s.add_root(Element::entity("doctor"));
        let _dgender = s.add_child(doctor, Element::attribute("gender", DataType::Text));
        let supply = s.add_root(Element::entity("supply"));
        let _item = s.add_child(supply, Element::attribute("item", DataType::Text));
        s.add_foreign_key(ForeignKey {
            from_entity: case,
            from_attrs: vec![case_patient],
            to_entity: patient,
            to_attrs: vec![],
        });
        s.add_foreign_key(ForeignKey {
            from_entity: case,
            from_attrs: vec![case_doctor],
            to_entity: doctor,
            to_attrs: vec![],
        });
        (s, case, patient, doctor, supply)
    }

    #[test]
    fn containment_paths_and_depth() {
        let (s, case, ..) = figure4_schema();
        let kids = s.children(case);
        assert_eq!(kids.len(), 2);
        assert_eq!(s.path(kids[0]), "case.doctor");
        assert_eq!(s.depth(kids[0]), 1);
        assert_eq!(s.depth(case), 0);
    }

    #[test]
    fn owning_entity_walks_through_groups() {
        let mut s = Schema::new("x");
        let root = s.add_root(Element::entity("order"));
        let grp = s.add_child(root, Element::group("items"));
        let leaf = s.add_child(grp, Element::attribute("sku", DataType::Text));
        assert_eq!(s.owning_entity(leaf), Some(root));
        assert_eq!(s.owning_entity(grp), Some(root));
        assert_eq!(s.owning_entity(root), Some(root));
    }

    #[test]
    fn distance_classes_follow_fk_transitive_closure() {
        let (s, case, patient, doctor, supply) = figure4_schema();
        let nb = s.neighborhoods();
        // Attributes of the anchor entity itself.
        let case_attrs = s.children(case);
        assert_eq!(nb.classify(case, case_attrs[0]), DistanceClass::SameEntity);
        // patient and doctor are both FK-joined to case → neighborhood.
        let patient_attrs = s.children(patient);
        assert_eq!(
            nb.classify(case, patient_attrs[0]),
            DistanceClass::Neighborhood
        );
        // patient → doctor has no direct FK but both connect through case:
        // transitive closure puts them in the same neighborhood.
        let doctor_attrs = s.children(doctor);
        assert_eq!(
            nb.classify(patient, doctor_attrs[0]),
            DistanceClass::Neighborhood
        );
        // supply shares no FK path with anyone.
        let supply_attrs = s.children(supply);
        assert_eq!(nb.classify(case, supply_attrs[0]), DistanceClass::Unrelated);
        assert_eq!(nb.classify(supply, case_attrs[0]), DistanceClass::Unrelated);
    }

    #[test]
    fn anchor_may_be_an_attribute() {
        let (s, case, patient, ..) = figure4_schema();
        let nb = s.neighborhoods();
        let case_attr = s.children(case)[0];
        let patient_attr = s.children(patient)[0];
        assert_eq!(
            nb.classify(case_attr, patient_attr),
            DistanceClass::Neighborhood
        );
    }

    #[test]
    fn refilled_tables_classify_like_fresh_ones() {
        // Tables left by a larger schema, then by a smaller one: every
        // answer is the fresh oracle's.
        let (big, ..) = figure4_schema();
        let small = {
            let mut s = Schema::new("small");
            let order = s.add_root(Element::entity("order"));
            s.add_child(order, Element::attribute("sku", DataType::Text));
            s.add_root(Element::attribute("loose", DataType::Text));
            s
        };
        let (mut reused, mut union_find) = (Neighborhoods::default(), Vec::new());
        for s in [&big, &small, &big] {
            s.neighborhoods_into(&mut reused, &mut union_find);
            let fresh = s.neighborhoods();
            for a in s.ids() {
                assert_eq!(reused.owning_entity(a), fresh.owning_entity(a));
                for b in s.ids() {
                    assert_eq!(reused.classify(a, b), fresh.classify(a, b));
                }
            }
        }
    }

    #[test]
    fn subtree_respects_depth_cap() {
        let mut s = Schema::new("deep");
        let a = s.add_root(Element::entity("a"));
        let b = s.add_child(a, Element::group("b"));
        let c = s.add_child(b, Element::group("c"));
        let d = s.add_child(c, Element::attribute("d", DataType::Text));
        assert_eq!(s.subtree(a, 3), vec![a, b, c, d]);
        assert_eq!(s.subtree(a, 2), vec![a, b, c]);
        assert_eq!(s.subtree(a, 0), vec![a]);
    }

    #[test]
    fn subtree_is_preorder_in_insertion_order() {
        let mut s = Schema::new("wide");
        let r = s.add_root(Element::entity("r"));
        let x = s.add_child(r, Element::group("x"));
        let y = s.add_child(r, Element::group("y"));
        let x1 = s.add_child(x, Element::attribute("x1", DataType::Text));
        assert_eq!(s.subtree(r, 5), vec![r, x, x1, y]);
    }

    #[test]
    fn roots_entities_attributes_partition() {
        let (s, ..) = figure4_schema();
        assert_eq!(s.roots().len(), 4);
        assert_eq!(s.entities().len(), 4);
        assert_eq!(s.attributes().len(), 6);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let (mut s, ..) = figure4_schema();
        s.set_doc(ElementId(1), Some("who \"treats\"\n\u{8}"));
        let mut json = String::new();
        s.write_json(&mut json);
        let mut r = Reader::new(&json);
        let back = Schema::read_json(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s, back);
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn add_child_rejects_foreign_parent() {
        let mut s = Schema::new("x");
        s.add_child(ElementId(99), Element::attribute("a", DataType::Text));
    }
}
