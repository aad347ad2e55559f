//! The synthetic sweep surrogate ([`synthetic::surrogate`]) and its box
//! parser ([`synthetic::parse_box`]): a nanosecond-scale objective that
//! exercises every result class of the exhaustive engine without any
//! control or linear-algebra work.
//!
//! Exhaustive sweeps run in-process on `cacs-search`'s lane sweep
//! (`cacs_search::exhaustive_search_with`). The crate keeps the name
//! `cacs-distrib` because the `perfbench` harness depends on it by
//! path, so renaming it is a change to the benchmark.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod synthetic;
