//! The rule table: codes, what each rule protects, and where it applies.
//!
//! Detection lives in [`crate::engine`]; this module is the single place
//! that answers "which rules exist" (for `--list`) and "does rule R apply
//! to file F" (scope policy).

/// One lint rule.
pub struct Rule {
    /// Stable code (`D00x` for domain rules, `W00x` for waiver hygiene).
    pub code: &'static str,
    /// Short name.
    pub name: &'static str,
    /// The invariant the rule protects, shown by `--list`.
    pub invariant: &'static str,
}

/// All rules, in code order.
pub const RULES: &[Rule] = &[
    Rule {
        code: "D001",
        name: "no-wall-clock",
        invariant: "Instant/SystemTime outside crates/bench: simulated time must come from the \
                    virtual Clock, or results depend on host speed",
    },
    Rule {
        code: "D002",
        name: "no-host-concurrency",
        invariant: "std::thread/std::process outside bench and tests: the simulator is a \
                    single-threaded deterministic event loop",
    },
    Rule {
        code: "D003",
        name: "no-ambient-randomness",
        invariant: "thread_rng/OsRng/rand:: anywhere: all randomness flows through DetRng with \
                    an explicit seed so runs replay bit-identically",
    },
    Rule {
        code: "D004",
        name: "no-float-eq-latency",
        invariant: "float ==/!= on latency/bandwidth values: rounding makes equality \
                    meaningless; compare to_bits() identity or use total_cmp",
    },
    Rule {
        code: "D005",
        name: "no-panic-kernel-path",
        invariant: "unwrap/expect/panic!/todo! in kernel-path crates (core, devices, fs, \
                    pagecache) outside #[cfg(test)]: syscalls must fail with typed SimError, \
                    not abort the simulation",
    },
    Rule {
        code: "D006",
        name: "no-hash-iteration-order",
        invariant: "HashMap/HashSet in simulation state: per-instance RandomState makes \
                    iteration order differ across runs, corrupting virtual time and \
                    accounting; use BTreeMap/BTreeSet",
    },
    Rule {
        code: "D007",
        name: "no-unchecked-narrowing",
        invariant: "narrowing `as` casts (u8/u16/u32/i8/i16/i32) in kernel-path arithmetic: \
                    silent truncation corrupts the cost model; waive naming the bound that \
                    makes the cast lossless",
    },
    Rule {
        code: "D009",
        name: "no-unbounded-queue",
        invariant: "a kernel-path Ring/Queue/Fifo struct holding a growable container \
                    (Vec/VecDeque/BinaryHeap) without a named capacity bound \
                    (capacity/cap/bound/limit/max_*): backpressure must be structural, or a \
                    stalled consumer grows memory without limit",
    },
    Rule {
        code: "D013",
        name: "unit-flow-safety",
        invariant: "adding/comparing values whose names carry different units (ns vs bytes vs \
                    sectors vs pages), directly or through a local alias, without a visible \
                    conversion: unit confusion silently corrupts the cost model",
    },
    Rule {
        code: "W001",
        name: "malformed-waiver",
        invariant: "a sledlint::allow comment that does not parse as (RULE, reason) suppresses \
                    nothing and must be fixed",
    },
    Rule {
        code: "W002",
        name: "unused-waiver",
        invariant: "a waiver that matches no finding on its line is stale and must be removed",
    },
];

/// Crates whose `src/` is a kernel path (syscall/cost-model code). The
/// tracer is included: its hooks run inside syscalls, so a panic there
/// aborts an experiment batch just like one in the kernel proper. The fault
/// planner is included for the same reason: injectors run on the device
/// command path. The replayer is included because it re-issues captured
/// ops on the syscall boundary: a panic there kills a what-if run.
pub const KERNEL_CRATES: &[&str] = &[
    "core",
    "devices",
    "fs",
    "pagecache",
    "trace",
    "faults",
    "replay",
];

/// Crates exempt from wall-clock/host-API rules: `bench` measures the host
/// on purpose, and `sledlint` itself is a host tool (it exits the process).
pub const HOST_TOOL_CRATES: &[&str] = &["bench", "sledlint"];

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Clone, Debug)]
pub struct FileScope {
    /// Crate name (`fs`, `bench`, …) or `"root"` for the top-level package.
    pub crate_name: String,
    /// True for files under a `tests/`, `benches/` or `examples/` segment.
    pub test_context: bool,
    /// True for `src/` files of a kernel-path crate.
    pub kernel_path: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path (always `/`-separated).
    pub fn classify(rel_path: &str) -> FileScope {
        let segs: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if segs.len() >= 2 && segs[0] == "crates" {
            segs[1].to_string()
        } else {
            "root".to_string()
        };
        let test_context = segs
            .iter()
            .any(|s| matches!(*s, "tests" | "benches" | "examples"));
        let kernel_path =
            KERNEL_CRATES.contains(&crate_name.as_str()) && segs.get(2) == Some(&"src");
        FileScope {
            crate_name,
            test_context,
            kernel_path,
        }
    }

    fn host_tool(&self) -> bool {
        HOST_TOOL_CRATES.contains(&self.crate_name.as_str())
    }

    /// Does `code` apply at this location? `in_test_region` is true inside a
    /// `#[cfg(test)]`/`#[test]` item.
    pub fn applies(&self, code: &str, in_test_region: bool) -> bool {
        match code {
            "D001" => !self.host_tool(),
            "D002" => !self.host_tool() && !self.test_context && !in_test_region,
            "D003" => true,
            "D004" => !self.test_context && !in_test_region,
            "D005" | "D006" | "D007" | "D009" | "D013" => {
                self.kernel_path && !self.test_context && !in_test_region
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kernel_src() {
        let s = FileScope::classify("crates/fs/src/kernel.rs");
        assert!(s.kernel_path && !s.test_context);
        assert_eq!(s.crate_name, "fs");
        assert!(s.applies("D005", false));
        assert!(!s.applies("D005", true));
    }

    #[test]
    fn classify_tests_dir() {
        let s = FileScope::classify("crates/fs/tests/determinism.rs");
        assert!(s.test_context && !s.kernel_path);
        assert!(!s.applies("D005", false));
        assert!(s.applies("D003", false));
    }

    #[test]
    fn bench_is_host_tool() {
        let s = FileScope::classify("crates/bench/src/microbench.rs");
        assert!(!s.applies("D001", false));
        assert!(!s.applies("D002", false));
        assert!(s.applies("D003", false));
    }

    #[test]
    fn root_package() {
        let s = FileScope::classify("src/lib.rs");
        assert_eq!(s.crate_name, "root");
        assert!(s.applies("D001", false));
        assert!(!s.applies("D006", false));
    }
}
