//! The reproduction harness: the registered experiment grids behind the
//! `sweep` bin. Every checked claim of the paper (Table 1, Figures 1–2,
//! Theorems 1–11) is a row of the [`paper`] grid, so
//! `sweep --grid paper` reproduces the paper end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advsearch;
pub mod cli;
pub mod experiments;
pub mod obswire;
pub mod orchestrate;
pub mod paper;
pub mod tablefmt;
pub mod wallclock;
