//! The scatter-gather coordinator: prune, fan out, merge.
//!
//! Evaluation is three steps with a proof obligation attached:
//!
//! 1. **Prune** — ask the partitioner which shards a region filter can
//!    rule out (spatial clusters skip whole shards before any I/O;
//!    hash clusters cannot).
//! 2. **Scatter** — fetch every surviving shard's extracted `(hour,
//!    geo)` partial cells, in parallel on the rayon pool, and drop
//!    out-of-window cells at the fetch edge ([`filter_window`] —
//!    result-neutral because the rollup's `between` masks the same
//!    hours).
//! 3. **Gather** — absorb the per-shard cell lists into one fresh
//!    [`DeltaCube`] in **ascending shard order**, then answer the
//!    rollup from it.
//!
//! Why this is bit-identical to a single store: each shard's extraction
//! is ascending by key, and the gather absorbs per key. Under a spatial
//! partitioner shard key sets are disjoint, so the gather is a pure
//! concatenation — the exact cell multiset a single store would hold.
//! Under a hash partitioner the same key can appear in several shards;
//! absorbing in ascending shard order fixes one deterministic merge
//! order, so results are reproducible run-to-run and machine-to-machine
//! (and exactly equal to the single store's whenever the measure sums
//! are exactly representable, e.g. quantized coordinates — see
//! `tests/shard_equivalence.rs`).

use crate::partition::{GridSpec, Partitioner, PartitionerSpec};
use gisolap_geom::BBox;
use gisolap_obs::{MetricsRegistry, Span, Tracer};
use gisolap_olap::time::TimeId;
use gisolap_store::{Result, StoreError};
use gisolap_stream::{CellPartial, DeltaCube, GroupKey, RollupQuery, RollupRow, StreamIngest};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// A rollup plus optional geometric and temporal filters: only cells
/// whose overlay-grid area intersects the region box and whose hour span
/// intersects the time window contribute. The region is what shard
/// pruning and shard-side filtering key on; the window is what cell
/// pruning before the gather keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQuery {
    /// The aggregate to compute.
    pub rollup: RollupQuery,
    /// Optional spatial filter (requires the cluster to have a grid).
    pub region: Option<BBox>,
    /// Optional time window `[lo, hi]` pruning whole `(hour, geo)` cells
    /// before the gather. Kept in sync with `rollup.between` by
    /// [`ShardQuery::in_window`] so pruning is result-neutral.
    pub window: Option<(TimeId, TimeId)>,
}

impl ShardQuery {
    /// A whole-space sharded rollup.
    pub fn new(rollup: RollupQuery) -> ShardQuery {
        ShardQuery {
            rollup,
            region: None,
            window: None,
        }
    }

    /// Restricts the query to cells intersecting `region`.
    pub fn in_region(mut self, region: BBox) -> ShardQuery {
        self.region = Some(region);
        self
    }

    /// Restricts the query to hours intersecting `[lo, hi]`.
    ///
    /// Sets both the cell-prune window and the rollup's `between` bound
    /// to the same interval, so the early prune ([`filter_window`]) and
    /// the rollup's own hour mask apply *exactly* the same predicate:
    /// the pruned evaluation is bit-identical to running the plain
    /// `between` rollup over every cell (see `docs/indexing.md`).
    pub fn in_window(mut self, lo: TimeId, hi: TimeId) -> ShardQuery {
        self.window = Some((lo, hi));
        self.rollup = self.rollup.between(lo, hi);
        self
    }
}

/// What one sharded evaluation did — the scatter-gather analogue of an
/// `EXPLAIN` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardExplain {
    /// Shards in the cluster.
    pub shards_total: u64,
    /// Shards the region filter excluded before any fetch.
    pub shards_pruned: u64,
    /// Shards actually fetched.
    pub shards_queried: u64,
    /// Partial cells collected across all fetched shards.
    pub cells_gathered: u64,
    /// Fetched cells dropped by the time-window prune before the gather
    /// (their hour span misses the query window).
    pub cells_window_pruned: u64,
    /// Gathered cells that merged into an already-present key (always 0
    /// under a spatial partitioner: shard key sets are disjoint).
    pub cells_merged: u64,
    /// Queried shards whose source violated its staleness bound (lag-
    /// bounded replica reads): the answer is still served, but flagged —
    /// degraded is explicit, never silent.
    pub shards_stale: u64,
    /// The largest known replica sequence lag among queried shards, if
    /// any source reported one (`None` when reading primaries, or when
    /// no replica has synced far enough to know its lag).
    pub max_lag_seqs: Option<u64>,
}

impl std::fmt::Display for ShardExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shards: {} queried, {} pruned of {}; cells: {} gathered, {} window-pruned, {} merged",
            self.shards_queried,
            self.shards_pruned,
            self.shards_total,
            self.cells_gathered,
            self.cells_window_pruned,
            self.cells_merged,
        )?;
        if self.shards_stale > 0 {
            write!(f, "; stale: {} shards", self.shards_stale)?;
            if let Some(lag) = self.max_lag_seqs {
                write!(f, " (max lag {lag} seqs)")?;
            }
        }
        Ok(())
    }
}

/// Rows plus the explain record of how they were computed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The merged rollup rows, identical to a single store's answer.
    pub rows: Vec<RollupRow>,
    /// What the scatter-gather did.
    pub explain: ShardExplain,
}

gisolap_obs::counters! {
    /// Counters for coordinator work, published as
    /// `gisolap_shard_<field>_total`.
    pub struct ShardStats {
        /// Sharded queries evaluated.
        queries,
        /// Shard fetches issued (after pruning).
        shards_queried,
        /// Shards excluded by region pruning before any fetch.
        shards_pruned,
        /// Partial cells gathered from shards.
        cells_gathered,
        /// Fetched cells dropped by the time-window prune before the gather.
        cells_window_pruned,
        /// Gathered cells merged into an existing key during gather.
        gather_merges,
        /// Shard fetches answered by a source past its staleness bound
        /// (served, but flagged in the explain).
        stale_fetches,
        /// Evaluations re-routed after `NotLeader`/`StaleEpoch` (the
        /// executor re-read leadership and the query was retried).
        leadership_retries,
    }
    metrics("gisolap_shard_", "Shard coordinator counter.");
}

/// Where the coordinator fetches per-shard cells from: a local cluster,
/// a replica set, or remote serve endpoints — anything that can hand
/// back shard `i`'s extracted partials, optionally pre-filtered to a
/// region shard-side.
pub trait ShardExecutor: Sync {
    /// Shard count (must match the coordinator's partitioner).
    fn shards(&self) -> usize;

    /// Shard `shard`'s `(hour, geo)` partial cells, ascending by key,
    /// restricted to cells intersecting `region` when one is given.
    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>>;

    /// How far shard `shard`'s source lags behind its leader, when this
    /// executor reads replicas and knows. Primary-read executors return
    /// `None` (the default).
    fn lag(&self, _shard: usize) -> Option<gisolap_repl::Lag> {
        None
    }

    /// Whether shard `shard`'s source currently violates its staleness
    /// bound. Reads still succeed — the coordinator surfaces the
    /// degradation in [`ShardExplain::shards_stale`] instead of serving
    /// a wrong answer or panicking. Defaults to `false` (primaries are
    /// never stale).
    fn is_stale(&self, _shard: usize) -> bool {
        false
    }
}

/// Merges per-shard partial aggregates into single-store-identical
/// rollup answers.
pub struct Coordinator<E> {
    executor: E,
    partitioner: Box<dyn Partitioner>,
    stats: ShardStats,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl<E: std::fmt::Debug> std::fmt::Debug for Coordinator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("executor", &self.executor)
            .field("spec", &self.partitioner.spec())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<E: ShardExecutor> Coordinator<E> {
    /// A coordinator over `executor`, pruning with the partitioner
    /// `spec` describes. The spec must be the one the data was placed
    /// by ([`ShardedIngest::spec`](crate::ShardedIngest::spec)) — a
    /// mismatched shard count is rejected here, a mismatched strategy
    /// cannot be detected and would misroute pruning.
    pub fn new(executor: E, spec: PartitionerSpec) -> Result<Coordinator<E>> {
        let partitioner = spec.build()?;
        if executor.shards() != partitioner.shards() {
            return Err(StoreError::BadConfig(format!(
                "executor has {} shards but the partitioner spec describes {}",
                executor.shards(),
                partitioner.shards()
            )));
        }
        Ok(Coordinator {
            executor,
            partitioner,
            stats: ShardStats::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
        })
    }

    /// Evaluates a sharded rollup: prune, scatter, gather.
    pub fn eval(&mut self, q: &ShardQuery) -> Result<ShardResult> {
        let total = self.partitioner.shards();
        if q.region.is_some() && self.partitioner.grid().is_none() {
            return Err(StoreError::BadConfig(
                "a region filter needs a cluster with an overlay grid".to_string(),
            ));
        }
        self.stats.queries += 1;

        // Prune: a spatial partitioner maps the region to the shards
        // owning intersecting cells; everything else queries all shards
        // (cell-level filtering still applies shard-side).
        let targets: Vec<usize> = match &q.region {
            Some(region) => self
                .partitioner
                .prune(region)
                .unwrap_or_else(|| (0..total).collect()),
            None => (0..total).collect(),
        };
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
        self.stats.shards_pruned += (total - targets.len()) as u64;
        self.stats.shards_queried += targets.len() as u64;

        // Staleness: when the executor reads lag-bounded replicas, a
        // source past its bound still answers, but the degradation is
        // surfaced in the explain (never silent, never a panic).
        let mut shards_stale = 0u64;
        let mut max_lag_seqs: Option<u64> = None;
        for &s in &targets {
            if self.executor.is_stale(s) {
                shards_stale += 1;
            }
            if let Some(seqs) = self.executor.lag(s).and_then(|lag| lag.seqs) {
                max_lag_seqs = Some(max_lag_seqs.map_or(seqs, |m| m.max(seqs)));
            }
        }
        self.stats.stale_fetches += shards_stale;

        // Scatter. Each shard's cells pass the time-window prune right at
        // the fetch edge, so out-of-window cells never reach the gather;
        // `in_window` keeps `rollup.between` on the same interval, which
        // makes the prune result-neutral (the rollup would mask those
        // hours anyway).
        let t_scatter = Instant::now();
        // One shard's kept cells plus how many its window prune dropped.
        type ShardFetch = (Vec<(GroupKey, CellPartial)>, u64);
        let window = q.window;
        let fetch_one = |s: usize| -> Result<ShardFetch> {
            let cells = self.executor.fetch(s, q.region.as_ref())?;
            let before = cells.len();
            let kept = filter_window(cells, window);
            let pruned = (before - kept.len()) as u64;
            Ok((kept, pruned))
        };
        let fetched: Vec<ShardFetch> = targets
            .par_iter()
            .map(|&s| fetch_one(s))
            .collect::<Result<_>>()?;
        let scatter_ns = t_scatter.elapsed().as_nanos() as u64;
        let cells_gathered: u64 = fetched.iter().map(|(c, _)| c.len() as u64).sum();
        let cells_window_pruned: u64 = fetched.iter().map(|&(_, pruned)| pruned).sum();
        self.stats.cells_gathered += cells_gathered;
        self.stats.cells_window_pruned += cells_window_pruned;

        // Gather: absorb in ascending shard order (targets are
        // ascending, `fetched` is positionally aligned with them) so the
        // per-key merge order is deterministic.
        let t_gather = Instant::now();
        let mut cube = DeltaCube::new();
        let mut cells_merged = 0u64;
        for (cells, _) in &fetched {
            cells_merged += cube.absorb(cells).merged;
        }
        self.stats.gather_merges += cells_merged;
        let rows = cube
            .rollup(&q.rollup, &BTreeMap::new())
            .map_err(StoreError::Stream)?;
        let gather_ns = t_gather.elapsed().as_nanos() as u64;

        let explain = ShardExplain {
            shards_total: total as u64,
            shards_pruned: (total - targets.len()) as u64,
            shards_queried: targets.len() as u64,
            cells_gathered,
            cells_window_pruned,
            cells_merged,
            shards_stale,
            max_lag_seqs,
        };
        if self.tracer.enabled() {
            self.spans.push(Span {
                name: "shard-eval",
                duration_ns: scatter_ns + gather_ns,
                counters: vec![("queries", 1)],
                children: vec![
                    Span {
                        name: "shard-scatter",
                        duration_ns: scatter_ns,
                        counters: vec![
                            ("shards_queried", explain.shards_queried),
                            ("shards_pruned", explain.shards_pruned),
                            ("cells_gathered", cells_gathered),
                            ("cells_window_pruned", cells_window_pruned),
                        ],
                        children: Vec::new(),
                    },
                    Span {
                        name: "shard-gather",
                        duration_ns: gather_ns,
                        counters: vec![
                            ("gather_merges", cells_merged),
                            ("rows", rows.len() as u64),
                        ],
                        children: Vec::new(),
                    },
                ],
            });
        }
        Ok(ShardResult { rows, explain })
    }

    /// Evaluates with a leadership retry loop: when the scatter fails
    /// because a pinned leader was deposed ([`StoreError::StaleEpoch`])
    /// or proved superseded ([`StoreError::NotLeader`]), `refresh` is
    /// called to re-read leadership into the executor (the manifest
    /// re-read step — e.g.
    /// [`PinnedExecutor::repin`](crate::elastic::PinnedExecutor::repin))
    /// and the query is re-evaluated, up to `max_retries` times. Any
    /// other error, and a leadership error persisting past the budget,
    /// surfaces unchanged.
    pub fn eval_rerouted(
        &mut self,
        q: &ShardQuery,
        max_retries: u32,
        refresh: &mut dyn FnMut(&mut E) -> Result<()>,
    ) -> Result<ShardResult> {
        let mut attempts = 0;
        loop {
            match self.eval(q) {
                Err(e) if attempts < max_retries && is_leadership_error(&e) => {
                    attempts += 1;
                    self.stats.leadership_retries += 1;
                    refresh(&mut self.executor)?;
                }
                other => return other,
            }
        }
    }

    /// The executor (e.g. to reach the underlying cluster or clients).
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Coordinator counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Publishes coordinator counters as `gisolap_shard_*` metrics.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        self.stats.fill_metrics(registry);
    }

    /// Switches `shard-eval` span collection.
    pub fn set_traced(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Collected `shard-eval` span trees (when traced).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Whether `e` means "the leadership you were pinned to is gone, re-read
/// and retry" — [`StoreError::NotLeader`] or [`StoreError::StaleEpoch`],
/// possibly wrapped in a per-shard [`StoreError::Shard`] attribution.
pub fn is_leadership_error(e: &StoreError) -> bool {
    match e {
        StoreError::NotLeader { .. } | StoreError::StaleEpoch { .. } => true,
        StoreError::Shard { source, .. } => is_leadership_error(source),
        _ => false,
    }
}

/// Applies the executor-side region filter: with a grid, keep only
/// intersecting cells; a region without a grid is a config error (the
/// cells carry no geometry to filter on).
pub fn filter_region(
    cells: Vec<(GroupKey, CellPartial)>,
    grid: Option<GridSpec>,
    region: Option<&BBox>,
) -> Result<Vec<(GroupKey, CellPartial)>> {
    match region {
        None => Ok(cells),
        Some(region) => {
            let grid = grid.ok_or_else(|| {
                StoreError::BadConfig(
                    "a region filter needs a cluster with an overlay grid".to_string(),
                )
            })?;
            Ok(grid.filter_cells(cells, region))
        }
    }
}

/// Applies the time-window cell prune: keep cells whose hour span
/// `[h·3600, h·3600+3599]` intersects `[lo, hi]` — the *same* predicate
/// [`DeltaCube::rollup`] applies for `RollupQuery::between`, which is
/// what makes pruning before the gather result-neutral.
pub fn filter_window(
    cells: Vec<(GroupKey, CellPartial)>,
    window: Option<(TimeId, TimeId)>,
) -> Vec<(GroupKey, CellPartial)> {
    match window {
        None => cells,
        Some((lo, hi)) => cells
            .into_iter()
            .filter(|&((hour, _), _)| {
                let start = hour * 3600;
                start + 3599 >= lo.0 && start <= hi.0
            })
            .collect(),
    }
}

/// The reference evaluator sharded execution must match bit-for-bit: a
/// single unsharded pipeline, same extraction, same filter, same fold.
pub fn eval_single(
    pipeline: &StreamIngest,
    grid: Option<GridSpec>,
    q: &ShardQuery,
) -> Result<Vec<RollupRow>> {
    let cells = filter_region(pipeline.extract_partials(), grid, q.region.as_ref())?;
    let cells = filter_window(cells, q.window);
    let mut cube = DeltaCube::new();
    cube.absorb(&cells);
    cube.rollup(&q.rollup, &BTreeMap::new())
        .map_err(StoreError::Stream)
}

/// Scatter reads straight off a local cluster's shard stores.
#[derive(Debug)]
pub struct ClusterExecutor<'a> {
    cluster: &'a crate::ShardedIngest,
}

impl<'a> ClusterExecutor<'a> {
    /// Reads from `cluster`'s shard stores.
    pub fn new(cluster: &'a crate::ShardedIngest) -> ClusterExecutor<'a> {
        ClusterExecutor { cluster }
    }
}

impl ShardExecutor for ClusterExecutor<'_> {
    fn shards(&self) -> usize {
        self.cluster.shard_count()
    }

    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>> {
        let cells = self.cluster.shards()[shard].extract_partials();
        filter_region(cells, self.cluster.partitioner().grid(), region)
    }
}

/// Scatter reads off a per-shard replica set instead of the primaries:
/// follower `i` must replicate shard `i`.
pub struct FollowerExecutor<'a, T> {
    followers: &'a [gisolap_repl::Follower<T>],
    grid: Option<GridSpec>,
}

impl<'a, T> FollowerExecutor<'a, T> {
    /// Reads from `followers`, filtering regions with `grid` (pass the
    /// cluster spec's grid).
    pub fn new(
        followers: &'a [gisolap_repl::Follower<T>],
        grid: Option<GridSpec>,
    ) -> FollowerExecutor<'a, T> {
        FollowerExecutor { followers, grid }
    }
}

impl<T: gisolap_repl::Transport + Sync> ShardExecutor for FollowerExecutor<'_, T> {
    fn shards(&self) -> usize {
        self.followers.len()
    }

    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>> {
        let pipeline = self.followers[shard].pipeline().ok_or_else(|| {
            StoreError::BadConfig(format!(
                "replica for shard {shard} has not seeded yet; sync it before serving reads"
            ))
        })?;
        filter_region(pipeline.extract_partials(), self.grid, region)
    }

    fn lag(&self, shard: usize) -> Option<gisolap_repl::Lag> {
        Some(self.followers[shard].lag())
    }

    fn is_stale(&self, shard: usize) -> bool {
        self.followers[shard].stale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardedIngest;
    use crate::partition::GridSpec;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_store::{ScratchDir, StoreConfig, Vfs};
    use gisolap_stream::{Measure, StreamConfig};
    use gisolap_traj::{ObjectId, Record};
    use std::sync::Arc;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4).unwrap()
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                oid: ObjectId(i % 9),
                t: TimeId((i as i64 * 97) % 7200),
                x: ((i * 5) % 32) as f64 * 0.25,
                y: ((i * 11) % 32) as f64 * 0.25,
            })
            .collect()
    }

    fn cluster_with(
        scratch: &ScratchDir,
        spec: PartitionerSpec,
        batch: &[Record],
    ) -> ShardedIngest {
        let vfs: Arc<dyn Vfs> = Arc::new(gisolap_store::RealFs);
        let stream = StreamConfig::new(86_400, 3600).unwrap();
        let mut cluster =
            ShardedIngest::create(vfs, scratch.path(), spec, stream, StoreConfig::default())
                .unwrap();
        cluster.ingest(batch).unwrap();
        cluster
    }

    fn single_with(batch: &[Record]) -> StreamIngest {
        let mut single = StreamIngest::new(StreamConfig::new(86_400, 3600).unwrap())
            .unwrap()
            .with_resolver(grid().resolver());
        single.ingest(batch);
        single
    }

    #[test]
    fn sharded_matches_single_store() {
        let scratch = ScratchDir::new("shard-coord-identity");
        let batch = records(300);
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
            let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, f));
            let got = coord.eval(&q).unwrap();
            let want = eval_single(&single, Some(grid()), &q).unwrap();
            assert_eq!(got.rows, want, "{f:?}");
            assert_eq!(got.explain.cells_merged, 0, "spatial shards are disjoint");
        }
    }

    #[test]
    fn region_filter_prunes_spatial_shards() {
        let scratch = ScratchDir::new("shard-coord-prune");
        let batch = records(300);
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        coord.set_traced(true);
        let region = BBox::new(0.1, 0.1, 1.9, 1.9);
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum))
            .in_region(region);
        let got = coord.eval(&q).unwrap();
        assert!(got.explain.shards_pruned > 0, "{}", got.explain);
        assert_eq!(
            got.explain.shards_pruned + got.explain.shards_queried,
            got.explain.shards_total
        );
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        let spans = coord.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].children[0].name, "shard-scatter");
        assert_eq!(spans[0].children[1].name, "shard-gather");
        assert_eq!(
            spans[0].total("shards_pruned"),
            got.explain.shards_pruned,
            "span counters mirror the explain"
        );
    }

    #[test]
    fn window_filter_prunes_cells_before_gather() {
        let scratch = ScratchDir::new("shard-coord-window");
        let batch = records(300); // hours 0 and 1
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        coord.set_traced(true);
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .in_window(TimeId(0), TimeId(3599));
        let got = coord.eval(&q).unwrap();
        assert!(got.explain.cells_window_pruned > 0, "{}", got.explain);
        assert!(got.rows.iter().all(|r| r.granule == 0), "only hour 0 left");
        // Identical to the single-store reference with the same prune...
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        // ...and to the un-pruned rollup that only uses `between`: the
        // early window prune is result-neutral.
        let plain = ShardQuery::new(
            RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum)
                .between(TimeId(0), TimeId(3599)),
        );
        assert_eq!(
            got.rows,
            eval_single(&single, Some(grid()), &plain).unwrap()
        );
        assert_eq!(
            coord.spans()[0].total("cells_window_pruned"),
            got.explain.cells_window_pruned
        );
        assert_eq!(
            coord.stats().cells_window_pruned,
            got.explain.cells_window_pruned
        );
    }

    #[test]
    fn hash_cluster_answers_region_queries_without_pruning() {
        let scratch = ScratchDir::new("shard-coord-hash-region");
        let batch = records(300);
        let spec = PartitionerSpec::Hash {
            shards: 3,
            grid: Some(grid()),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .in_region(BBox::new(0.1, 0.1, 3.9, 3.9));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.explain.shards_pruned, 0, "hash cannot prune");
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
    }

    #[test]
    fn region_without_grid_is_rejected() {
        let scratch = ScratchDir::new("shard-coord-no-grid");
        let spec = PartitionerSpec::Hash {
            shards: 2,
            grid: None,
        };
        let cluster = cluster_with(&scratch, spec, &records(10));
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .in_region(BBox::new(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(
            coord.eval(&q).unwrap_err(),
            StoreError::BadConfig(_)
        ));
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        let scratch = ScratchDir::new("shard-coord-mismatch");
        let spec = PartitionerSpec::Hash {
            shards: 2,
            grid: None,
        };
        let cluster = cluster_with(&scratch, spec, &records(10));
        let wrong = PartitionerSpec::Hash {
            shards: 3,
            grid: None,
        };
        assert!(Coordinator::new(ClusterExecutor::new(&cluster), wrong).is_err());
    }

    #[test]
    fn follower_executor_serves_replica_reads() {
        let scratch = ScratchDir::new("shard-coord-followers");
        let batch = records(200);
        let spec = PartitionerSpec::Spatial {
            shards: 2,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let leaders = cluster.into_leaders();
        let mut replicas =
            crate::cluster::replica_set(&leaders, &spec, gisolap_repl::FollowerConfig::default());
        for r in replicas.iter_mut() {
            r.sync(16).unwrap();
            assert!(r.caught_up());
        }
        let exec = FollowerExecutor::new(&replicas, spec.grid());
        let mut coord = Coordinator::new(exec, spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .in_region(BBox::new(0.1, 0.1, 5.9, 5.9));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        assert_eq!(coord.stats().queries, 1);
        assert_eq!(got.explain.shards_stale, 0, "caught-up replicas");
    }

    #[test]
    fn stale_followers_flag_the_explain_instead_of_panicking() {
        let scratch = ScratchDir::new("shard-coord-stale");
        let spec = PartitionerSpec::Spatial {
            shards: 2,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &records(120));
        let leaders = cluster.into_leaders();
        // A zero-sequence staleness bound: any lag at all degrades. A
        // one-entry poll batch keeps the replicas behind after a single
        // contact, so the lag is *known* without being caught up.
        let config = gisolap_repl::FollowerConfig {
            max_lag_seqs: Some(0),
            max_batch: 1,
            ..gisolap_repl::FollowerConfig::default()
        };
        let mut replicas = crate::cluster::replica_set(&leaders, &spec, config);
        for r in replicas.iter_mut() {
            r.sync(64).unwrap();
        }
        // The leaders move on; three new WAL entries per shard.
        for leader in &leaders {
            let mut leader = leader.lock().unwrap();
            for chunk in records(120).chunks(40) {
                leader.ingest(chunk).unwrap();
            }
        }
        for r in replicas.iter_mut() {
            // One contact applies one entry and learns the leader
            // frontier — two entries of visible lag remain.
            let _ = r.poll();
        }
        let stale = replicas.iter().filter(|r| r.stale()).count() as u64;
        assert!(stale > 0, "bound of 0 with fresh writes must show lag");

        let exec = FollowerExecutor::new(&replicas, spec.grid());
        let mut coord = Coordinator::new(exec, spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.explain.shards_stale, stale);
        assert!(got.explain.max_lag_seqs.is_some());
        assert_eq!(coord.stats().stale_fetches, stale);
        let line = got.explain.to_string();
        assert!(
            line.contains("stale:"),
            "explain surfaces staleness: {line}"
        );
    }
}
