//! The schema layout before the flat column, kept as a test-only
//! reference model: one owned [`Element`] per node in a `Vec`, every
//! accessor written the obvious way. `flat_equals_reference.rs` drives
//! both with the same calls and compares every read; `alloc_budget.rs`
//! weighs the flat layout against this one.

// Each test binary uses its own half of this module.
#![allow(dead_code)]

use schemr_model::{DistanceClass, Element, ElementId, ElementKind, ForeignKey};

#[derive(Debug, Clone, PartialEq)]
pub struct RefSchema {
    pub name: String,
    pub elements: Vec<Element>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl RefSchema {
    pub fn new(name: &str) -> Self {
        RefSchema {
            name: name.to_string(),
            elements: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    pub fn add_root(&mut self, element: Element) -> ElementId {
        assert!(element.parent.is_none());
        self.elements.push(element);
        ElementId(self.elements.len() as u32 - 1)
    }

    pub fn add_child(&mut self, parent: ElementId, mut element: Element) -> ElementId {
        assert!(parent.index() < self.elements.len());
        element.parent = Some(parent);
        self.elements.push(element);
        ElementId(self.elements.len() as u32 - 1)
    }

    pub fn set_name(&mut self, id: ElementId, name: &str) {
        self.elements[id.index()].name = name.to_string();
    }

    pub fn set_doc(&mut self, id: ElementId, doc: Option<&str>) {
        self.elements[id.index()].doc = doc.map(str::to_string);
    }

    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.index()]
    }

    pub fn ids(&self) -> impl Iterator<Item = ElementId> {
        (0..self.elements.len() as u32).map(ElementId)
    }

    fn ids_where(&self, keep: impl Fn(&Element) -> bool) -> Vec<ElementId> {
        self.ids().filter(|id| keep(self.element(*id))).collect()
    }

    pub fn roots(&self) -> Vec<ElementId> {
        self.ids_where(|e| e.parent.is_none())
    }

    pub fn children(&self, id: ElementId) -> Vec<ElementId> {
        self.ids_where(|e| e.parent == Some(id))
    }

    pub fn entities(&self) -> Vec<ElementId> {
        self.ids_where(|e| e.kind == ElementKind::Entity)
    }

    pub fn attributes(&self) -> Vec<ElementId> {
        self.ids_where(|e| e.kind == ElementKind::Attribute)
    }

    pub fn owning_entity(&self, id: ElementId) -> Option<ElementId> {
        let mut cur = id;
        loop {
            if self.element(cur).kind == ElementKind::Entity {
                return Some(cur);
            }
            cur = self.element(cur).parent?;
        }
    }

    /// Root-to-`id` chain of ids.
    fn ancestry(&self, id: ElementId) -> Vec<ElementId> {
        let mut chain = vec![id];
        while let Some(p) = self.element(*chain.last().unwrap()).parent {
            chain.push(p);
        }
        chain.reverse();
        chain
    }

    pub fn path(&self, id: ElementId) -> String {
        let names: Vec<&str> = self
            .ancestry(id)
            .iter()
            .map(|a| self.element(*a).name.as_str())
            .collect();
        names.join(".")
    }

    pub fn depth(&self, id: ElementId) -> usize {
        self.ancestry(id).len() - 1
    }

    pub fn subtree(&self, root: ElementId, max_depth: usize) -> Vec<ElementId> {
        let mut out = vec![root];
        if max_depth > 0 {
            for child in self.children(root) {
                out.extend(self.subtree(child, max_depth - 1));
            }
        }
        out
    }

    /// Entities reachable from `entity` over foreign keys in either
    /// direction, itself included.
    fn fk_closure(&self, entity: ElementId) -> Vec<ElementId> {
        let mut seen = vec![entity];
        let mut next = 0;
        while next < seen.len() {
            let at = seen[next];
            next += 1;
            for fk in &self.foreign_keys {
                for (a, b) in [
                    (fk.from_entity, fk.to_entity),
                    (fk.to_entity, fk.from_entity),
                ] {
                    if a == at && !seen.contains(&b) {
                        seen.push(b);
                    }
                }
            }
        }
        seen
    }

    pub fn classify(&self, anchor: ElementId, element: ElementId) -> DistanceClass {
        match (self.owning_entity(anchor), self.owning_entity(element)) {
            (Some(a), Some(e)) if a == e => DistanceClass::SameEntity,
            (Some(a), Some(e)) if self.fk_closure(a).contains(&e) => DistanceClass::Neighborhood,
            _ => DistanceClass::Unrelated,
        }
    }

    /// Heap bytes of this layout, capacity-based: the element `Vec`, one
    /// `String` a name, one a doc, and the foreign keys.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.name.capacity()
            + self.elements.capacity() * size_of::<Element>()
            + self
                .elements
                .iter()
                .map(|e| e.name.capacity() + e.doc.as_ref().map_or(0, String::capacity))
                .sum::<usize>()
            + self.foreign_keys.capacity() * size_of::<ForeignKey>()
            + self
                .foreign_keys
                .iter()
                .map(|fk| {
                    (fk.from_attrs.capacity() + fk.to_attrs.capacity()) * size_of::<ElementId>()
                })
                .sum::<usize>()
    }
}
