#![warn(missing_docs)]
//! # anor-core
//!
//! The scenario layer of the ANOR workspace: [`experiments`], the
//! runners that regenerate each figure of the paper's evaluation
//! (Section 6); [`bidding`] and [`training`], the hourly bid search and
//! the AQA queue-weight training judged on the simulator; and
//! [`render`], the text output of the figure binaries. The root `anor`
//! crate re-exports these alongside the subsystem crates.

pub mod bidding;
pub mod experiments;
pub mod render;
pub mod training;
