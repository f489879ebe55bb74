//! The paper's applications, reimplemented against the simulated kernel.
//!
//! Every application comes in two modes sharing one code path wherever the
//! paper's versions did: a **baseline** that reads front to back like the
//! stock GNU/LHEASOFT tool, and a **SLEDs** mode that orders its I/O through
//! the pick library. The SLEDs-specific regions are bracketed with
//! `// [sleds:begin]` / `// [sleds:end]` markers; the Table 4 reproduction
//! counts those lines.
//!
//! | app        | paper's use of SLEDs            | module        |
//! |------------|---------------------------------|---------------|
//! | `wc`       | reorder (order-insensitive)     | [`wc`]        |
//! | `grep`     | reorder + sorted output, `-q`   | [`grep`]      |
//! | `find`     | prune via `-latency`            | [`find`]      |
//! | `gmc`      | report retrieval estimates      | [`gmc`]       |
//! | `fimhisto` | reorder passes 2–3 (LHEASOFT)   | [`fimhisto`]  |
//! | `fimgbin`  | reorder rebin reads (LHEASOFT)  | [`fimgbin`]   |

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests pin exact, deterministic float results"
    )
)]

pub mod fimgbin;
pub mod fimhisto;
pub mod find;
pub mod gmc;
pub mod grep;
pub mod treegrep;
pub mod wc;

use sleds_fs::{Fd, Kernel};
use sleds_sim_core::{SimDuration, SimError, SimResult};

/// Default application buffer size, matching the BUFSIZE the paper's
/// pseudocode passes to `sleds_pick_init`.
pub const BUFSIZE: usize = 64 << 10;

/// An entry `find` skipped over instead of dying on — the
/// `find: foo: Input/output error` line real find prints to stderr while
/// it walks on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileDiagnostic {
    /// The file that could not be processed.
    pub path: String,
    /// Why.
    pub error: SimError,
}

/// Charges `ns_per_byte` of application CPU for processing `bytes`.
pub(crate) fn charge_per_byte(kernel: &mut Kernel, bytes: usize, ns_per_byte: u64) {
    kernel.charge_cpu(SimDuration::from_nanos(ns_per_byte * bytes as u64));
}

/// Runs `tool`, which pushes every descriptor it opens onto the list it
/// is handed, then closes them in the order they were opened — whether
/// the tool succeeded or returned early through `?`. The tool's own
/// error wins over a close error.
pub(crate) fn closing_files<T>(
    kernel: &mut Kernel,
    tool: impl FnOnce(&mut Kernel, &mut Vec<Fd>) -> SimResult<T>,
) -> SimResult<T> {
    let mut open = Vec::new();
    let result = tool(kernel, &mut open);
    let mut closed = Ok(());
    for fd in open {
        closed = closed.and(kernel.close(fd));
    }
    let value = result?;
    closed?;
    Ok(value)
}
