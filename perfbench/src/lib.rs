//! Library half of the repository benchmark: the order-statistics and
//! trace arithmetic its reports rest on, kept apart so the tests in
//! `tests/` can exercise it on synthetic inputs.

pub mod analysis;
