//! # oris-align — alignment kernels for the ORIS reproduction
//!
//! Four families of routines:
//!
//! * [`ungapped`]: the paper's section-2.2 hit extension — X-drop ungapped
//!   extension with the **ordered-seed abort rule** that makes every HSP
//!   unique without a duplicate-suppression pass. This is the core
//!   algorithmic contribution of the paper.
//! * [`gapped`]: X-drop banded affine-gap extension used by step 3 to grow
//!   HSPs into gapped alignments, with traceback.
//! * [`exact`]: the classical optimal algorithms the paper cites as the
//!   dynamic-programming family — Needleman–Wunsch (global), Smith–Waterman
//!   (local) and Gotoh (affine local). They serve as test oracles and as
//!   reference implementations.
//! * [`cigar`]: alignment operation lists and the derived statistics that
//!   the BLAST `-m 8` tabular format reports (identity %, mismatches, gap
//!   openings).

pub mod cigar;
pub mod exact;
pub mod gapped;
pub mod scoring;
pub mod ungapped;

pub use cigar::{AlignOp, AlignStats};
pub use exact::{gotoh_local, needleman_wunsch, smith_waterman, ExactAlignment};
pub use gapped::{extend_gapped_both, extend_gapped_right, GappedExtension, GappedParams};
pub use scoring::ScoringScheme;
pub use ungapped::{extend_hit, ungapped_score, ExtensionOutcome, OrderGuard, UngappedParams};
