//! The paper's actual implementation strategy, reproduced end to end: a
//! relational **star schema** (Figure 4) over the microdata, frequency
//! sets as `SELECT COUNT(*) … GROUP BY` queries, rollups as `SUM(count)`
//! queries through dimension tables, candidate graphs as Nodes/Edges
//! relations (Figure 6), and candidate generation as the two SQL
//! statements printed in §3.1.2 — all running on the
//! [`incognito_rel`] mini relational engine.
//!
//! The native columnar path in `incognito-core` is the fast
//! implementation; this crate exists because the paper's contribution was
//! expressed *relationally*, and reproducing that faithfully lets the test
//! suite assert that both paths compute identical result sets
//! ([`incognito_sql`] vs `incognito_core::incognito`), while the benches
//! quantify the overhead a generic relational substrate adds (the moral
//! equivalent of the paper's DB2 round trips).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod freq;
mod incognito_sql;
mod schema;

pub use incognito_sql::{incognito_sql, SqlSearchOutcome};
pub use schema::StarSchema;

/// Errors from the SQL-path implementation.
#[derive(Debug)]
pub enum StarError {
    /// Relational engine failure (malformed query — a bug, surfaced).
    Rel(incognito_rel::RelError),
    /// Table-layer failure.
    Table(incognito_table::TableError),
    /// Invalid workload (empty QI, bad k, ...).
    Algo(incognito_core::AlgoError),
}

impl std::fmt::Display for StarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StarError::Rel(e) => write!(f, "relational engine: {e}"),
            StarError::Table(e) => write!(f, "table: {e}"),
            StarError::Algo(e) => write!(f, "workload: {e}"),
        }
    }
}

impl std::error::Error for StarError {}

impl From<incognito_rel::RelError> for StarError {
    fn from(e: incognito_rel::RelError) -> Self {
        StarError::Rel(e)
    }
}

impl From<incognito_table::TableError> for StarError {
    fn from(e: incognito_table::TableError) -> Self {
        StarError::Table(e)
    }
}

impl From<incognito_core::AlgoError> for StarError {
    fn from(e: incognito_core::AlgoError) -> Self {
        StarError::Algo(e)
    }
}
