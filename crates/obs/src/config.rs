//! Central registry of the workspace's `GISOLAP_*` environment flags.
//!
//! Every runtime-tuning environment variable the workspace reads is
//! declared here as an [`EnvFlag`] and listed in [`ALL`], so there is one
//! place to discover knobs and one test
//! (`tests/tests/env_flags.rs`) enforcing that each flag is documented in
//! `README.md` or `OBSERVABILITY.md`, and that every `GISOLAP_*` name the
//! docs mention is registered here. Library code reads these flags only
//! in the `from_env` constructors that entry points call
//! (`StoreConfig`, `ServeConfig`, `QueryObs`); the `*_CASES` flags are
//! read by the property-test suites. The vendored `rayon` shim keeps its
//! own literal copy of [`THREADS`]'s name, mirroring the real crate's
//! independence; the coverage test pins the two strings together.

/// One documented environment flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvFlag {
    /// The environment variable name (`GISOLAP_*`).
    pub name: &'static str,
    /// Behavior when the variable is unset (or unparsable).
    pub default: &'static str,
    /// What the flag tunes.
    pub doc: &'static str,
}

impl EnvFlag {
    /// The variable's raw value, if set and non-empty.
    pub fn raw(&self) -> Option<String> {
        std::env::var(self.name)
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
    }

    /// The variable parsed as a `u64`, if set and parsable.
    pub fn parse_u64(&self) -> Option<u64> {
        self.raw().and_then(|v| v.parse().ok())
    }
}

/// Worker-thread cap for parallel query evaluation; `1` forces the
/// sequential path. Read by the vendored `rayon` shim's pool setup.
pub const THREADS: EnvFlag = EnvFlag {
    name: "GISOLAP_THREADS",
    default: "all available cores",
    doc: "worker threads for parallel query evaluation (1 = sequential)",
};

/// Slow-query threshold in whole milliseconds; unset, empty or
/// unparsable disables the slow-query log.
pub const SLOW_QUERY_MS: EnvFlag = EnvFlag {
    name: "GISOLAP_SLOW_QUERY_MS",
    default: "disabled",
    doc: "latency threshold (ms) above which queries land in the slow-query log",
};

/// Durable-store WAL fsync policy: `always`, `never`, or an integer `n`
/// meaning fsync every `n` appends.
pub const STORE_SYNC: EnvFlag = EnvFlag {
    name: "GISOLAP_STORE_SYNC",
    default: "always",
    doc: "segment-store WAL fsync policy: always | never | <n> (sync every n appends)",
};

/// Auto-compaction threshold: when a flush leaves at least this many
/// sealed segment files on disk, the store merges them into one. `0`
/// disables automatic compaction.
pub const STORE_COMPACT_SEGMENTS: EnvFlag = EnvFlag {
    name: "GISOLAP_STORE_COMPACT_SEGMENTS",
    default: "0 (disabled)",
    doc: "segment-file count that triggers store compaction after a flush (0 = off)",
};

/// Case count for the crash-recovery fault-injection property tests
/// (`tests/tests/store_recovery.rs`); CI's fault-injection job raises it
/// well above the local default.
pub const FAULT_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_FAULT_CASES",
    default: "16",
    doc: "property-test cases for the store fault-injection suite",
};

/// Retired WAL generations a replication leader's store keeps on disk
/// after a flush so followers can tail across rotations; `0` deletes
/// retired WALs immediately, forcing lagging followers onto snapshot
/// transfer.
pub const REPL_RETAIN_WALS: EnvFlag = EnvFlag {
    name: "GISOLAP_REPL_RETAIN_WALS",
    default: "0 (delete retired WALs at flush)",
    doc: "retired WAL generations the store keeps for replication catch-up (0 = none)",
};

/// Case count for the replication fault-injection property tests
/// (`tests/tests/repl_faults.rs`); CI's replication job raises it well
/// above the local default.
pub const REPL_FAULT_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_REPL_FAULT_CASES",
    default: "16",
    doc: "property-test cases for the replication fault-injection suite",
};

/// Concurrent connections the query/replication server admits; one
/// over the cap is answered a single `Busy` reply and closed.
pub const SERVE_MAX_CONNS: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_MAX_CONNS",
    default: "64",
    doc: "concurrent connections the serve front door admits (over-cap gets Busy + close)",
};

/// Requests the server evaluates concurrently across all connections;
/// one over the cap is answered `Busy` without being evaluated.
pub const SERVE_MAX_INFLIGHT: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_MAX_INFLIGHT",
    default: "8",
    doc: "concurrent requests the serve front door evaluates (over-cap gets Busy)",
};

/// Requests one tenant may have in flight concurrently; `0` means
/// unlimited. A tenant at its quota is answered `Busy` while other
/// tenants proceed.
pub const SERVE_TENANT_QUOTA: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_TENANT_QUOTA",
    default: "0 (unlimited)",
    doc: "concurrent in-flight requests allowed per tenant (0 = unlimited)",
};

/// Case count for the sharded-vs-single-store equivalence property
/// tests (`tests/tests/shard_equivalence.rs`); CI's shard job raises it
/// well above the local default.
pub const SHARD_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_SHARD_CASES",
    default: "16",
    doc: "property-test cases for the sharded scatter-gather equivalence suite",
};

/// Case count for the index-vs-scan equivalence property tests
/// (`tests/tests/index_equivalence.rs`); CI's index job raises it well
/// above the local default.
pub const INDEX_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_INDEX_CASES",
    default: "16",
    doc: "property-test cases for the index-vs-scan equivalence suite",
};

/// Delta checkpoints a store chains after its last full checkpoint
/// before the next flush writes a full one again. `0` makes every
/// flush write a full checkpoint (the pre-delta behavior).
pub const STORE_MAX_DELTAS: EnvFlag = EnvFlag {
    name: "GISOLAP_STORE_MAX_DELTAS",
    default: "4",
    doc:
        "delta checkpoints chained per full checkpoint before forcing a full one (0 = always full)",
};

/// Case count for the standing-query incremental-vs-batch equivalence
/// property tests (`tests/tests/sub_equivalence.rs`); CI's sub job
/// raises it well above the local default.
pub const SUB_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_SUB_CASES",
    default: "16",
    doc: "property-test cases for the standing-query equivalence suite",
};

/// Case count for the elasticity fault-injection property tests
/// (`tests/tests/elastic_failover.rs`); CI's elasticity job raises it
/// well above the local default.
pub const ELASTIC_CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_ELASTIC_CASES",
    default: "16",
    doc: "property-test cases for the shard-elasticity fault-injection suite",
};

/// Every flag the workspace reads, for discovery and doc-coverage tests.
pub const ALL: [&EnvFlag; 15] = [
    &THREADS,
    &SLOW_QUERY_MS,
    &STORE_SYNC,
    &STORE_COMPACT_SEGMENTS,
    &STORE_MAX_DELTAS,
    &FAULT_CASES,
    &REPL_RETAIN_WALS,
    &REPL_FAULT_CASES,
    &SERVE_MAX_CONNS,
    &SERVE_MAX_INFLIGHT,
    &SERVE_TENANT_QUOTA,
    &SHARD_CASES,
    &INDEX_CASES,
    &SUB_CASES,
    &ELASTIC_CASES,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = ALL.iter().map(|f| f.name).collect();
        assert!(names.iter().all(|n| n.starts_with("GISOLAP_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    // The parser's own test: it must flip a variable to read one back.
    #[allow(clippy::disallowed_methods)]
    fn parse_u64_roundtrip() {
        // Use a name not in ALL so other tests never race on it.
        let flag = EnvFlag {
            name: "GISOLAP_TEST_ONLY_FLAG",
            default: "-",
            doc: "-",
        };
        std::env::remove_var(flag.name);
        assert_eq!(flag.parse_u64(), None);
        std::env::set_var(flag.name, " 42 ");
        assert_eq!(flag.parse_u64(), Some(42));
        std::env::set_var(flag.name, "nope");
        assert_eq!(flag.parse_u64(), None);
        std::env::remove_var(flag.name);
    }
}
