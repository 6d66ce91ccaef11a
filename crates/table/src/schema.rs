use std::fmt;
use std::sync::Arc;

use incognito_hierarchy::Hierarchy;

use crate::TableError;

/// One attribute of a relation: a name plus the domain generalization
/// hierarchy that dictionary-encodes its ground domain.
///
/// Sensitive attributes that are never generalized use a height-0
/// ([`incognito_hierarchy::builders::identity`]) hierarchy; the hierarchy
/// then serves purely as the attribute's value dictionary.
#[derive(Debug, Clone)]
pub struct Attribute {
    name: String,
    hierarchy: Hierarchy,
}

impl Attribute {
    /// Create an attribute backed by `hierarchy`.
    pub fn new(name: impl Into<String>, hierarchy: Hierarchy) -> Self {
        Attribute { name: name.into(), hierarchy }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's generalization hierarchy / value dictionary.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

/// An ordered list of attributes — the relation schema.
///
/// Schemas are immutable and shared via [`Arc`]; a [`crate::Table`] and every
/// frequency set derived from it reference the same schema.
#[derive(Debug, Clone)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from attributes. Names must be unique.
    pub fn new(attributes: Vec<Attribute>) -> Result<Arc<Self>, TableError> {
        let mut seen = std::collections::HashSet::new();
        for a in &attributes {
            if !seen.insert(a.name().to_string()) {
                return Err(TableError::DuplicateAttribute(a.name().to_string()));
            }
        }
        Ok(Arc::new(Schema { attributes }))
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute at position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn attribute(&self, idx: usize) -> &Attribute {
        &self.attributes[idx]
    }

    /// All attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Position of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name() == name)
    }

    /// Shorthand for `attribute(idx).hierarchy()`.
    pub fn hierarchy(&self, idx: usize) -> &Hierarchy {
        self.attributes[idx].hierarchy()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}[h={}]", a.name(), a.hierarchy().height())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_hierarchy::builders;

    #[test]
    fn schema_lookup_and_display() {
        let s = Schema::new(vec![
            Attribute::new("Sex", builders::suppression("Sex", &["M", "F"]).unwrap()),
            Attribute::new("Zip", builders::round_digits("Zip", &["11", "12"], 2).unwrap()),
        ])
        .unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("Zip"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.attribute(0).name(), "Sex");
        assert_eq!(s.to_string(), "(Sex[h=1], Zip[h=2])");
    }

    #[test]
    fn rejects_duplicate_names() {
        let h = builders::suppression("A", &["x"]).unwrap();
        let err =
            Schema::new(vec![Attribute::new("A", h.clone()), Attribute::new("A", h)]).unwrap_err();
        assert!(matches!(err, TableError::DuplicateAttribute(_)));
    }
}
