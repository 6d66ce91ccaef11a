use std::fmt;

/// Errors raised by the table substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Two attributes in one schema share a name.
    DuplicateAttribute(String),
    /// A row had the wrong number of fields.
    RowArity {
        /// Expected field count (schema arity).
        expected: usize,
        /// Supplied field count.
        actual: usize,
    },
    /// A field value was not found in the attribute's ground domain.
    UnknownValue {
        /// Attribute name.
        attribute: String,
        /// The unresolvable value.
        value: String,
    },
    /// A ground id exceeded the attribute's domain size.
    IdOutOfRange {
        /// Attribute name.
        attribute: String,
        /// The out-of-range id.
        id: u32,
        /// Domain size.
        domain: usize,
    },
    /// An attribute index was out of range for the schema.
    AttributeOutOfRange {
        /// The bad index.
        index: usize,
        /// Schema arity.
        arity: usize,
    },
    /// A generalization level exceeded an attribute's hierarchy height.
    LevelOutOfRange {
        /// Attribute name.
        attribute: String,
        /// Requested level.
        level: u8,
        /// Hierarchy height.
        height: u8,
    },
    /// More attributes were requested in a group key than [`crate::freq::MAX_KEY_ATTRS`].
    KeyTooWide(usize),
    /// A frequency-set operation combined incompatible specs (different
    /// attributes, or target levels below current levels).
    IncompatibleSpec(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DuplicateAttribute(n) => write!(f, "duplicate attribute name {n:?}"),
            TableError::RowArity { expected, actual } => {
                write!(f, "row has {actual} fields, schema expects {expected}")
            }
            TableError::UnknownValue { attribute, value } => {
                write!(f, "value {value:?} not in ground domain of attribute {attribute:?}")
            }
            TableError::IdOutOfRange { attribute, id, domain } => {
                write!(f, "id {id} out of range for attribute {attribute:?} (domain size {domain})")
            }
            TableError::AttributeOutOfRange { index, arity } => {
                write!(f, "attribute index {index} out of range for schema of arity {arity}")
            }
            TableError::LevelOutOfRange { attribute, level, height } => {
                write!(f, "level {level} exceeds height {height} of attribute {attribute:?}")
            }
            TableError::KeyTooWide(n) => {
                write!(
                    f,
                    "group keys support at most {} attributes, got {n}",
                    crate::freq::MAX_KEY_ATTRS
                )
            }
            TableError::IncompatibleSpec(msg) => {
                write!(f, "incompatible frequency-set spec: {msg}")
            }
        }
    }
}

impl std::error::Error for TableError {}
