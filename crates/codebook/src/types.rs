//! Semantic types: what attribute values *mean*.

/// Kinds of physical units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitKind {
    /// Lengths and heights (m, cm, ft, …).
    Length,
    /// Masses and weights (kg, lb, …).
    Mass,
    /// Temperatures (°C, °F, K).
    Temperature,
    /// Durations (s, min, h, days).
    Duration,
    /// Areas (m², ha, acres).
    Area,
    /// Volumes (l, ml, gal).
    Volume,
}

/// A semantic data type from the codebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SemanticType {
    /// Geographic latitude in degrees.
    Latitude,
    /// Geographic longitude in degrees.
    Longitude,
    /// Elevation / altitude.
    Elevation,
    /// A calendar date or timestamp.
    DateTime,
    /// A person's date of birth (more specific than DateTime).
    BirthDate,
    /// A monetary amount.
    Currency,
    /// A percentage / ratio in 0..100.
    Percentage,
    /// A surrogate or natural key.
    Identifier,
    /// An email address.
    Email,
    /// A telephone number.
    Phone,
    /// A postal / ZIP code.
    PostalCode,
    /// A country or region name/code.
    Country,
    /// A person's gender/sex.
    Gender,
    /// A personal name.
    PersonName,
    /// A street address.
    StreetAddress,
    /// A URL.
    Url,
    /// A physical quantity with a unit.
    Quantity(UnitKind),
    /// A count of things (dimensionless integer).
    Count,
}

impl SemanticType {
    /// Short label for reports and GraphML annotations.
    pub fn label(&self) -> &'static str {
        match self {
            SemanticType::Latitude => "latitude",
            SemanticType::Longitude => "longitude",
            SemanticType::Elevation => "elevation",
            SemanticType::DateTime => "datetime",
            SemanticType::BirthDate => "birthdate",
            SemanticType::Currency => "currency",
            SemanticType::Percentage => "percentage",
            SemanticType::Identifier => "identifier",
            SemanticType::Email => "email",
            SemanticType::Phone => "phone",
            SemanticType::PostalCode => "postal-code",
            SemanticType::Country => "country",
            SemanticType::Gender => "gender",
            SemanticType::PersonName => "person-name",
            SemanticType::StreetAddress => "street-address",
            SemanticType::Url => "url",
            SemanticType::Quantity(UnitKind::Length) => "quantity:length",
            SemanticType::Quantity(UnitKind::Mass) => "quantity:mass",
            SemanticType::Quantity(UnitKind::Temperature) => "quantity:temperature",
            SemanticType::Quantity(UnitKind::Duration) => "quantity:duration",
            SemanticType::Quantity(UnitKind::Area) => "quantity:area",
            SemanticType::Quantity(UnitKind::Volume) => "quantity:volume",
            SemanticType::Count => "count",
        }
    }

    /// Similarity of two semantic types in `[0, 1]` — the codebook
    /// matcher's kernel. Exact match is 1; related types (both geographic,
    /// both temporal, both quantities) score partial credit.
    pub fn similarity(self, other: SemanticType) -> f64 {
        use SemanticType::*;
        if self == other {
            return 1.0;
        }
        let geo = |t: SemanticType| matches!(t, Latitude | Longitude | Elevation);
        let temporal = |t: SemanticType| matches!(t, DateTime | BirthDate);
        let contact = |t: SemanticType| matches!(t, Email | Phone | Url);
        let place = |t: SemanticType| matches!(t, PostalCode | Country | StreetAddress);
        let quantity = |t: SemanticType| matches!(t, Quantity(_) | Count | Percentage);
        for family in [geo, temporal, contact, place, quantity] {
            if family(self) && family(other) {
                return 0.5;
            }
        }
        0.0
    }
}

impl std::fmt::Display for SemanticType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_is_reflexive_and_symmetric() {
        let all = [
            SemanticType::Latitude,
            SemanticType::DateTime,
            SemanticType::Currency,
            SemanticType::Quantity(UnitKind::Mass),
            SemanticType::Gender,
        ];
        for &a in &all {
            assert_eq!(a.similarity(a), 1.0);
            for &b in &all {
                assert_eq!(a.similarity(b), b.similarity(a));
            }
        }
    }

    #[test]
    fn family_credit() {
        assert_eq!(
            SemanticType::Latitude.similarity(SemanticType::Longitude),
            0.5
        );
        assert_eq!(
            SemanticType::DateTime.similarity(SemanticType::BirthDate),
            0.5
        );
        assert_eq!(
            SemanticType::Quantity(UnitKind::Mass).similarity(SemanticType::Count),
            0.5
        );
        assert_eq!(SemanticType::Gender.similarity(SemanticType::Currency), 0.0);
    }

    #[test]
    fn labels_are_unique() {
        let types = [
            SemanticType::Latitude,
            SemanticType::Longitude,
            SemanticType::Elevation,
            SemanticType::DateTime,
            SemanticType::BirthDate,
            SemanticType::Currency,
            SemanticType::Percentage,
            SemanticType::Identifier,
            SemanticType::Email,
            SemanticType::Phone,
            SemanticType::PostalCode,
            SemanticType::Country,
            SemanticType::Gender,
            SemanticType::PersonName,
            SemanticType::StreetAddress,
            SemanticType::Url,
            SemanticType::Quantity(UnitKind::Length),
            SemanticType::Quantity(UnitKind::Mass),
            SemanticType::Quantity(UnitKind::Temperature),
            SemanticType::Quantity(UnitKind::Duration),
            SemanticType::Quantity(UnitKind::Area),
            SemanticType::Quantity(UnitKind::Volume),
            SemanticType::Count,
        ];
        let labels: std::collections::HashSet<_> = types.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), types.len());
    }
}
