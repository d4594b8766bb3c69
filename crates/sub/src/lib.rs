//! Standing queries over the stream: register a spatio-temporal region
//! and an aggregation **once**, get incremental results pushed as the
//! pipeline seals segments.
//!
//! The batch engine answers "aggregate of the objects in region *C*
//! during interval *I*" by rolling up the [`DeltaCube`]'s `(hour, geo)`
//! partial cells. This crate turns that into continuous analytics:
//!
//! * a [`Registry`] of [`Subscription`]s (region × measure × aggregate ×
//!   window × threshold) with stable ids, serializable over the store's
//!   CRC framing ([`wire`]);
//! * a [`StandingEvaluator`] that observes every segment seal — via the
//!   pipeline's seal hook ([`StandingEvaluator::hook`]) or by pulling
//!   ([`StandingEvaluator::sync_pipeline`]) — and folds only the *newly
//!   sealed* partials into per-subscription running state using the same
//!   merge algebra [`DeltaCube::absorb`] uses, so incremental state is
//!   **bit-identical** to re-running the batch query from scratch
//!   (property-tested in `tests/tests/sub_equivalence.rs`);
//! * [`Notification`]s (value delta, window rollup, threshold crossings
//!   with hysteresis) delivered through pluggable [`Sink`]s — an
//!   in-memory channel, a slow-query-style log line, a Prometheus gauge
//!   per subscription — and buffered for pull-based catch-up;
//! * a [`StandingFollower`] composing the evaluator with §5f
//!   replication, so read replicas serve subscriptions off their own
//!   apply path under the same `Stale { lag }` staleness contract
//!   lag-bounded rollups use.
//!
//! Quickstart: README § Standing queries. Counters and flags:
//! OBSERVABILITY.md § Standing-query metrics. Design: DESIGN.md §5j.
//!
//! [`DeltaCube`]: gisolap_stream::DeltaCube
//! [`DeltaCube::absorb`]: gisolap_stream::DeltaCube::absorb

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follow;
pub mod registry;
pub mod sink;
pub mod standing;
pub mod wire;

pub use follow::StandingFollower;
pub use registry::{Registry, SubId, Subscription, Threshold, DEFAULT_MAX_SUBS};
pub use sink::{ChannelSink, GaugeSink, LogSink, Sink};
pub use standing::{
    window_value, Crossing, Notification, StandingEvaluator, SubStats, DEFAULT_BUFFER_CAP,
};
