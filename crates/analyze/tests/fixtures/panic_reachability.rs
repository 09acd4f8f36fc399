// Fixture: panic-reachability. Not compiled — scanned by detlint's
// golden tests only. A pub entry reaches an unwrap two frames down, and
// another a typed unwind; the documented and suppressed variants stay
// quiet.

// POSITIVE: pub API reaching an undocumented panic site transitively.
pub fn entry_point(key: &str) -> usize {
    lookup(key)
}

fn lookup(key: &str) -> usize {
    deep_get(key)
}

fn deep_get(key: &str) -> usize {
    key.parse().unwrap()
}

/// Resolve `key` to its index.
///
/// # Panics
///
/// If `key` is not a decimal integer: the docs own the abort contract,
/// so panic-reachability treats this fn as opaque.
pub fn documented_entry(key: &str) -> usize {
    lookup(key)
}

// NEGATIVE (suppressed): audited reach, documented upstream.
// detlint: allow(panic-reachability, "audited: callers pre-validate key at parse time; the builder docs own this contract")
pub fn audited_entry(key: &str) -> usize {
    lookup(key)
}

// POSITIVE: `panic_any` unwinds like `panic!`, with a typed payload.
pub fn kill_switch(rank: usize) {
    std::panic::panic_any(rank);
}
