//! # neurfill-layout
//!
//! Layout substrate for the NeurFill reproduction: multi-layer window
//! grids with per-window pattern parameters (density, perimeter, width,
//! slack), fill plans, the four-type slack decomposition of paper Fig. 5,
//! synthetic benchmark designs standing in for the paper's three GDS
//! layouts, and the two-step random training-data generator of Fig. 8.
//!
//! # Example
//!
//! ```
//! use neurfill_layout::{DesignKind, DesignSpec, FillPlan, DummySpec, apply_fill};
//!
//! // Generate a small instance of the paper's Design A.
//! let layout = DesignSpec::new(DesignKind::CmpTest, 16, 16, 42).generate();
//! assert_eq!(layout.num_layers(), 3);
//!
//! // Fill every window to half of its slack and apply.
//! let mut plan = FillPlan::zeros(&layout);
//! for (x, s) in plan.as_mut_slice().iter_mut().zip(layout.slack_vector()) {
//!     *x = 0.5 * s;
//! }
//! let filled = apply_fill(&layout, &plan, &DummySpec::default());
//! assert!(filled.is_valid());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chipgen;
pub mod datagen;
pub mod design;
mod fill;
pub mod geometry;
mod grid;
pub mod insertion;
pub mod io;
mod layout;
pub mod slack;
pub mod tiling;
mod window;

pub use chipgen::{FullChipDesign, FullChipSpec};
pub use design::{benchmark_designs, DesignKind, DesignSpec};
pub use fill::{apply_fill, DummySpec, FillPlan};
pub use geometry::{LayerGeometry, Rect, Shape, WindowStats};
pub use grid::Grid;
pub use insertion::{
    insert_dummies, insert_dummies_multisize, realize_fill, realize_fill_into, InsertionReport,
    InsertionRules,
};
pub use layout::{Layout, WindowId};
pub use slack::{non_overlap_slack, slack_types, SlackTypes};
pub use tiling::{Tile, TileRect, Tiling};
pub use window::WindowPattern;
