//! Witnesses for the bans in `clippy.toml` that have no live use in the tree.
//!
//! A mistyped path in `clippy.toml` only warns ("does not refer to a
//! reachable type"), so a ban could die silently. Each item here uses one
//! banned path under an `#[expect]`: drop or misspell that ban and the
//! expectation goes unfulfilled, which `cargo clippy -- -D warnings` rejects.
//! `Instant` and `process::exit` are witnessed the same way by their real
//! waivers in `crates/bench`. Nothing here is ever called.

#[expect(clippy::disallowed_types, reason = "witness: SystemTime")]
type _SystemTime = std::time::SystemTime;

#[expect(clippy::disallowed_types, reason = "witness: HashMap")]
type _HashMap = std::collections::HashMap<u8, u8>;

#[expect(clippy::disallowed_types, reason = "witness: HashSet")]
type _HashSet = std::collections::HashSet<u8>;

#[expect(clippy::disallowed_types, reason = "witness: RandomState")]
type _RandomState = std::hash::RandomState;

#[expect(clippy::disallowed_methods, reason = "witness: thread::spawn")]
fn _thread_spawn() {
    drop(std::thread::spawn(|| ()));
}

#[expect(clippy::disallowed_methods, reason = "witness: thread::scope")]
fn _thread_scope() {
    std::thread::scope(|_| ());
}

#[expect(clippy::disallowed_methods, reason = "witness: thread::sleep")]
fn _thread_sleep() {
    std::thread::sleep(std::time::Duration::ZERO);
}

#[expect(clippy::disallowed_methods, reason = "witness: Builder::spawn")]
fn _builder_spawn() {
    drop(std::thread::Builder::new().spawn(|| ()));
}

#[expect(clippy::disallowed_methods, reason = "witness: process::abort")]
fn _process_abort() {
    std::process::abort();
}

#[expect(clippy::disallowed_methods, reason = "witness: Command::new")]
fn _command_new() {
    drop(std::process::Command::new("true"));
}
