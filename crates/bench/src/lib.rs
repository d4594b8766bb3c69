//! # gisolap-bench
//!
//! Shared fixtures for the Criterion benchmark harness. Each bench target
//! under `benches/` regenerates one experiment of EXPERIMENTS.md; this
//! library provides the scenario construction they share so that every
//! bench measures query time, not data generation, plus the percentile
//! the latency benches report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gisolap_core::gis::Gis;
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_traj::Moft;

/// A city + traffic pair sized for benchmarking.
pub struct BenchScenario {
    /// The GIS.
    pub gis: Gis,
    /// The traffic.
    pub moft: Moft,
    /// Label used in bench ids.
    pub label: String,
}

/// Builds a scenario with `objects` movers over a `blocks_x × blocks_y`
/// city, `samples` samples per object.
pub fn scenario(blocks_x: usize, blocks_y: usize, objects: usize, samples: usize) -> BenchScenario {
    let city = CityScenario::generate(CityConfig {
        blocks_x,
        blocks_y,
        schools: 10,
        stores: 16,
        gas_stations: 6,
        seed: 99,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint::new(city.bbox, objects, samples).generate(0);
    BenchScenario {
        gis: city.gis,
        moft,
        label: format!("{blocks_x}x{blocks_y}-o{objects}-s{samples}"),
    }
}

/// The `pct`-th percentile of an ascending `sorted` sample: the element
/// at index `⌊(len − 1) · pct / 100⌋`. Panics on an empty sample.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let idx = (sorted.len().saturating_sub(1) * pct) / 100;
    sorted[idx]
}
