//! Rule-based semantic-type recognition from element names and declared
//! types.

use schemr_model::{DataType, ElementId, ElementKind, Schema};
use schemr_text::Analyzer;

use crate::types::{SemanticType, UnitKind};

/// One recognized annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// The annotated element.
    pub element: ElementId,
    /// What the codebook recognized.
    pub semantic_type: SemanticType,
}

/// Recognize the semantic type of a single attribute from its name tokens
/// and declared data type.
pub fn recognize(name: &str, data_type: DataType) -> Option<SemanticType> {
    // The name pipeline expands abbreviations (lat → latitude is NOT in the
    // dictionary, but ht → height is) and stems; match on both stemmed and
    // raw lowercase tokens for robustness.
    let analyzer = Analyzer::for_names();
    let tokens = analyzer.analyze(name);
    let has = |words: &[&str]| tokens.iter().any(|t| words.contains(&t.as_str()));

    // Geographic.
    if has(&["latitud", "lat"]) {
        return Some(SemanticType::Latitude);
    }
    if has(&["longitud", "lon", "lng"]) {
        return Some(SemanticType::Longitude);
    }
    if has(&["elev", "altitud", "elevat"]) {
        return Some(SemanticType::Elevation);
    }
    // Contact / identity.
    if has(&["email", "mail"]) && !has(&["address"]) {
        return Some(SemanticType::Email);
    }
    if has(&["telephon", "phone", "fax", "mobil"]) {
        return Some(SemanticType::Phone);
    }
    if has(&["url", "websit", "homepag", "link"]) {
        return Some(SemanticType::Url);
    }
    if has(&["zipcod", "zip", "postal", "postcod"]) {
        return Some(SemanticType::PostalCode);
    }
    if has(&["countri", "nation"]) {
        return Some(SemanticType::Country);
    }
    if has(&["street", "address", "residenc"]) {
        return Some(SemanticType::StreetAddress);
    }
    if has(&["gender", "sex"]) {
        return Some(SemanticType::Gender);
    }
    if has(&["birth", "dob", "birthdai", "born"]) {
        return Some(SemanticType::BirthDate);
    }
    if has(&["surnam", "forenam"]) || (has(&["name"]) && has(&["first", "last", "middl", "full"])) {
        return Some(SemanticType::PersonName);
    }
    // Money / ratios.
    if has(&[
        "price", "cost", "amount", "salari", "wage", "fee", "revenu", "balanc", "total",
    ]) && (data_type.is_numeric() || data_type == DataType::Unknown)
    {
        return Some(SemanticType::Currency);
    }
    if has(&["percent", "pct", "ratio", "rate"]) && data_type.is_numeric() {
        return Some(SemanticType::Percentage);
    }
    // Quantities with units.
    if has(&["height", "length", "width", "depth", "distanc", "statur"]) {
        return Some(SemanticType::Quantity(UnitKind::Length));
    }
    if has(&["weight", "mass"]) {
        return Some(SemanticType::Quantity(UnitKind::Mass));
    }
    if has(&["temperatur", "celsiu", "fahrenheit"]) {
        return Some(SemanticType::Quantity(UnitKind::Temperature));
    }
    if has(&["durat", "elaps"]) {
        return Some(SemanticType::Quantity(UnitKind::Duration));
    }
    if has(&["area", "acreag", "hectar"]) {
        return Some(SemanticType::Quantity(UnitKind::Area));
    }
    if has(&["volum", "capac"]) && data_type.is_numeric() {
        return Some(SemanticType::Quantity(UnitKind::Volume));
    }
    // Counts and keys.
    if has(&["count", "quantiti", "qty", "number", "num"]) && data_type != DataType::Text {
        return Some(SemanticType::Count);
    }
    if has(&["identifi", "id", "key", "uuid", "guid"]) {
        return Some(SemanticType::Identifier);
    }
    // Fall back on the declared type for temporal columns.
    if data_type.is_temporal() || has(&["date", "time", "timestamp", "creat", "updat"]) {
        return Some(SemanticType::DateTime);
    }
    None
}

/// Annotate every attribute of a schema the codebook recognizes.
pub fn annotate(schema: &Schema) -> Vec<Annotation> {
    schema
        .ids()
        .filter(|&id| schema.element(id).kind == ElementKind::Attribute)
        .filter_map(|id| {
            let el = schema.element(id);
            recognize(el.name, el.data_type).map(|semantic_type| Annotation {
                element: id,
                semantic_type,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geographic_names_in_any_convention() {
        for n in ["latitude", "lat", "site_latitude", "Lat"] {
            assert_eq!(
                recognize(n, DataType::Real),
                Some(SemanticType::Latitude),
                "{n}"
            );
        }
        assert_eq!(
            recognize("lon", DataType::Real),
            Some(SemanticType::Longitude)
        );
        assert_eq!(
            recognize("lng", DataType::Real),
            Some(SemanticType::Longitude)
        );
    }

    #[test]
    fn units_from_measurement_nouns() {
        assert_eq!(
            recognize("patient_height", DataType::Real),
            Some(SemanticType::Quantity(UnitKind::Length))
        );
        assert_eq!(
            recognize("ht", DataType::Real),
            Some(SemanticType::Quantity(UnitKind::Length)),
            "abbreviation expansion should fire"
        );
        assert_eq!(
            recognize("body_weight", DataType::Real),
            Some(SemanticType::Quantity(UnitKind::Mass))
        );
        assert_eq!(
            recognize("water_temperature", DataType::Real),
            Some(SemanticType::Quantity(UnitKind::Temperature))
        );
    }

    #[test]
    fn money_needs_a_numericish_type() {
        assert_eq!(
            recognize("total_price", DataType::Decimal),
            Some(SemanticType::Currency)
        );
        assert_eq!(recognize("price_notes", DataType::Text), None);
    }

    #[test]
    fn identity_and_contact() {
        assert_eq!(
            recognize("customer_id", DataType::Integer),
            Some(SemanticType::Identifier)
        );
        assert_eq!(
            recognize("email", DataType::Text),
            Some(SemanticType::Email)
        );
        assert_eq!(
            recognize("home_phone", DataType::Text),
            Some(SemanticType::Phone)
        );
        assert_eq!(
            recognize("zip", DataType::Text),
            Some(SemanticType::PostalCode)
        );
        assert_eq!(
            recognize("gender", DataType::Text),
            Some(SemanticType::Gender)
        );
        assert_eq!(recognize("sex", DataType::Text), Some(SemanticType::Gender));
        assert_eq!(
            recognize("dob", DataType::Date),
            Some(SemanticType::BirthDate)
        );
        assert_eq!(
            recognize("first_name", DataType::Text),
            Some(SemanticType::PersonName)
        );
    }

    #[test]
    fn temporal_fallback_uses_the_declared_type() {
        assert_eq!(
            recognize("admitted", DataType::DateTime),
            Some(SemanticType::DateTime)
        );
        assert_eq!(
            recognize("created", DataType::Unknown),
            Some(SemanticType::DateTime)
        );
    }

    #[test]
    fn unknown_names_stay_unannotated() {
        assert_eq!(recognize("flavor", DataType::Text), None);
        assert_eq!(recognize("xyzzy", DataType::Real), None);
    }

    #[test]
    fn annotate_covers_only_recognizable_attributes() {
        let schema = schemr_model::SchemaBuilder::new("site")
            .entity("station", |e| {
                e.attr("latitude", DataType::Real)
                    .attr("longitude", DataType::Real)
                    .attr("flavor", DataType::Text)
            })
            .build_unchecked();
        let anns = annotate(&schema);
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].semantic_type, SemanticType::Latitude);
        assert_eq!(anns[1].semantic_type, SemanticType::Longitude);
        // The entity itself is never annotated.
        assert!(anns.iter().all(|a| a.element != schema.entities()[0]));
    }
}
