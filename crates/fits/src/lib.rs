//! A FITS (Flexible Image Transport System) implementation.
//!
//! The paper's LHEASOFT experiments (`fimhisto`, `fimgbin`) process FITS
//! images — the astronomy community's standard container: 2880-byte logical
//! blocks, 80-character header cards, big-endian pixel data typed by
//! `BITPIX`. This crate implements enough of the standard to support those
//! applications faithfully:
//!
//! * header card encoding/parsing ([`header`]);
//! * pixel codecs for BITPIX 8/16/32/-32/-64, plus range and count-table
//!   kernels that work on the native big-endian samples ([`codec`]);
//! * streaming reader/writer over the simulated kernel's file API
//!   ([`io`]) — streaming matters, because the whole point of the paper's
//!   experiments is the applications' multi-pass I/O patterns;
//! * a synthetic star-field generator ([`gen`]) standing in for the
//!   proprietary telescope data the paper processed (see DESIGN.md's
//!   substitution table).

pub mod codec;
pub mod gen;
pub mod header;
pub mod io;

pub use codec::{Bitpix, SampleCounts};
pub use gen::generate_image_bytes;
pub use header::{FitsHeader, BLOCK_SIZE, CARD_SIZE};
pub use io::{FitsReader, FitsWriter};

use sleds_sim_core::{Errno, SimError};

/// Builds a format error.
pub(crate) fn format_error(msg: impl Into<String>) -> SimError {
    SimError::new(Errno::Einval, format!("FITS: {}", msg.into()))
}
