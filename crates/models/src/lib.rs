//! The taxonomy of k-anonymization models from Section 5 of the paper,
//! implemented as working anonymizers over the same table substrate the
//! Incognito algorithms use.
//!
//! The paper categorizes models along three axes:
//!
//! * **generalization vs. suppression** — whether values move through
//!   intermediate domains or straight to `*`;
//! * **global vs. local recoding** — whether a whole domain is recoded with
//!   one function or individual cells are modified;
//! * **hierarchy-based vs. partition-based** — fixed value-generalization
//!   hierarchies vs. intervals over a totally-ordered domain.
//!
//! Every cell of that taxonomy is represented here:
//!
//! | Model (paper §) | Module |
//! |---|---|
//! | Full-domain generalization (§5.1.1) | `incognito-core` + [`release::full_domain_release`] |
//! | Attribute suppression (§5.1.1, special case) | [`release::attribute_suppression_release`] |
//! | Single-dim full-subtree recoding (§5.1.1, \[11\]) | [`subtree`] |
//! | Unrestricted single-dim recoding (§5.1.1) | [`subtree`] (relaxed mode) |
//! | Single-dim ordered-set partitioning (§5.1.2, \[3\]) | [`partition1d`] |
//! | Multi-dim full-subgraph recoding (§5.1.3) | [`subgraph`] |
//! | Multi-dim ordered-set partitioning (§5.1.4, \[12\]) | [`mondrian`] |
//! | Cell suppression (§5.2, \[1, 13, 20\]) | [`local`] |
//! | Cell generalization (§5.2, \[17\]) | [`local`] |
//!
//! All anonymizers produce an [`AnonymizedRelease`] carrying the recoded
//! view, the equivalence-class profile, and information-loss tallies, so
//! the [`metrics`] module can compare models head to head (the
//! "performance vs. flexibility trade-off" the section motivates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genetic;
pub mod koptimize;
pub mod local;
pub mod metrics;
pub mod mondrian;
pub mod partition1d;
pub mod release;
pub mod subgraph;
pub mod subtree;
mod taxonomy;
pub mod tds;
pub mod utility;

pub use metrics::Metrics;
pub use release::AnonymizedRelease;
pub use taxonomy::{taxonomy, Dimensionality, DomainStyle, ModelDescriptor, Recoding};
