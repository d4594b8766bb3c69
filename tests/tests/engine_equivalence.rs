//! Property tests: the three evaluation strategies are interchangeable.
//!
//! On randomly generated cities and random-waypoint traffic, naive,
//! indexed and overlay evaluation must materialize identical regions and
//! identical aggregates for arbitrary filter/time combinations.

use gisolap_core::engine::{dedupe_oid_t, IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_olap::time::TimeOfDay;
use gisolap_olap::value::Value;
use proptest::prelude::*;

fn geo_filter() -> impl Strategy<Value = GeoFilter> {
    prop_oneof![
        Just(GeoFilter::All),
        (900i64..3500).prop_map(|v| GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(v),
        }),
        Just(GeoFilter::IntersectsLayer { layer: "Lr".into() }),
        Just(GeoFilter::ContainsNodeOf {
            layer: "Lstores".into()
        }),
        (900i64..3500).prop_map(|v| {
            GeoFilter::IntersectsLayer { layer: "Lr".into() }.and(GeoFilter::AttrCompare {
                category: "neighborhood".into(),
                attr: "income".into(),
                op: CmpOp::Ge,
                value: Value::Int(v),
            })
        }),
        Just(
            GeoFilter::ContainsNodeOf {
                layer: "Lschools".into()
            }
            .negate()
        ),
    ]
}

fn time_preds() -> impl Strategy<Value = Vec<TimePredicate>> {
    prop_oneof![
        Just(vec![]),
        Just(vec![TimePredicate::TimeOfDayIs(TimeOfDay::Morning)]),
        (6u32..12).prop_map(|h| vec![TimePredicate::HourOfDayIn { lo: h, hi: h + 2 }]),
    ]
}

fn tuple_keys(engine: &dyn QueryEngine, region: &RegionC) -> Vec<(u64, i64, Option<u32>)> {
    let mut keys: Vec<(u64, i64, Option<u32>)> = engine
        .eval(region)
        .unwrap()
        .iter()
        .map(|t| (t.oid.0, t.t.0, t.geo.map(|(_, g)| g.0)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_random_scenarios(
        seed in 0u64..1000,
        filter in geo_filter(),
        time in time_preds(),
        interpolated in proptest::bool::ANY,
    ) {
        let city = CityScenario::generate(CityConfig {
            blocks_x: 4,
            blocks_y: 2,
            schools: 5,
            stores: 8,
            gas_stations: 3,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(1),
            ..RandomWaypoint::new(city.bbox, 12, 15)
        }
        .generate(0);

        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        let a = tuple_keys(&naive, &region);
        let b = tuple_keys(&indexed, &region);
        let c = tuple_keys(&overlay, &region);
        prop_assert_eq!(&a, &b, "naive vs indexed");
        prop_assert_eq!(&a, &c, "naive vs overlay");
    }

    #[test]
    fn passing_through_and_time_in_region_agree(seed in 0u64..500) {
        let city = CityScenario::generate(CityConfig {
            blocks_x: 3,
            blocks_y: 2,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(7),
            ..RandomWaypoint::new(city.bbox, 8, 12)
        }
        .generate(0);

        let spatial = SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        );
        let naive = NaiveEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);

        let mut pn = naive.objects_passing_through(&spatial, &[]).unwrap();
        let mut po = overlay.objects_passing_through(&spatial, &[]).unwrap();
        pn.sort();
        po.sort();
        prop_assert_eq!(pn, po);

        let tn: Vec<(u64, i64)> = naive
            .time_in_region_per_object(&spatial, &[])
            .unwrap()
            .iter()
            .map(|(o, s)| (o.0, (s * 1000.0).round() as i64))
            .collect();
        let to: Vec<(u64, i64)> = overlay
            .time_in_region_per_object(&spatial, &[])
            .unwrap()
            .iter()
            .map(|(o, s)| (o.0, (s * 1000.0).round() as i64))
            .collect();
        prop_assert_eq!(tn, to);
    }

    #[test]
    fn forbid_is_a_subset_filter(seed in 0u64..500) {
        // Adding a forbid clause can only remove objects.
        let city = CityScenario::generate(CityConfig {
            blocks_x: 3,
            blocks_y: 2,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(3),
            ..RandomWaypoint::new(city.bbox, 10, 10)
        }
        .generate(0);
        let naive = NaiveEngine::new(&city.gis, &moft);

        let base = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        ));
        let with_forbid = base.clone().with_forbid(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::ContainsNodeOf { layer: "Lstores".into() },
        ));
        let all = dedupe_oid_t(naive.eval(&base).unwrap());
        let restricted = dedupe_oid_t(naive.eval(&with_forbid).unwrap());
        prop_assert!(restricted.len() <= all.len());
        // Every restricted tuple appears in the unrestricted result.
        for t in &restricted {
            prop_assert!(all.iter().any(|u| u.oid == t.oid && u.t == t.t));
        }
    }

    #[test]
    // Flips GISOLAP_THREADS: the rayon shim has no in-process override.
    #[allow(clippy::disallowed_methods)]
    fn parallel_and_sequential_evaluation_agree(
        seed in 0u64..1000,
        filter in geo_filter(),
        time in time_preds(),
        interpolated in proptest::bool::ANY,
    ) {
        // The engine promises bit-identical results regardless of the
        // worker count: evaluate each random region with 4 threads and
        // with 1 (sequential), per engine and batched, and compare the
        // raw tuple vectors exactly. The workload exceeds the shim's
        // inline threshold, so the 4-thread run really partitions.
        let city = CityScenario::generate(CityConfig {
            blocks_x: 4,
            blocks_y: 2,
            schools: 4,
            stores: 6,
            gas_stations: 2,
            seed: seed.wrapping_add(11),
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(13),
            ..RandomWaypoint::new(city.bbox, 10, 20)
        }
        .generate(0);

        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }
        let regions = vec![region.clone(), RegionC::all(), region.clone()];

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            std::env::set_var("GISOLAP_THREADS", "4");
            let parallel = engine.eval(&region).unwrap();
            let parallel_batch = engine.eval_many(&regions).unwrap();
            std::env::set_var("GISOLAP_THREADS", "1");
            let sequential = engine.eval(&region).unwrap();
            let sequential_batch = engine.eval_many(&regions).unwrap();
            std::env::remove_var("GISOLAP_THREADS");
            prop_assert_eq!(&parallel, &sequential, "engine {}", engine.name());
            prop_assert_eq!(&parallel_batch, &sequential_batch, "batch, engine {}", engine.name());
            prop_assert_eq!(&parallel_batch[0], &sequential, "batch[0] vs single");
            prop_assert_eq!(&parallel_batch[2], &sequential, "batch[2] vs single");
        }
    }
}

#[test]
fn engine_stats_invariants() {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        seed: 42,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: 43,
        ..RandomWaypoint::new(city.bbox, 10, 12)
    }
    .generate(0);
    let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
        "Ln",
        GeoFilter::IntersectsLayer { layer: "Lr".into() },
    ));

    // Repeated IntersectsLayer filters hit the precomputed overlay.
    let overlay = OverlayEngine::new(&city.gis, &moft);
    overlay.eval(&region).unwrap();
    overlay.eval(&region).unwrap();
    let snap = overlay.stats().snapshot();
    assert!(snap.overlay_hits >= 2, "{snap:?}");
    assert_eq!(snap.overlay_misses, 0, "{snap:?}");
    assert_eq!(snap.queries, 2, "{snap:?}");
    assert_eq!(
        snap.records_scanned,
        2 * moft.records().len() as u64,
        "{snap:?}"
    );

    // A batch sharing one filter resolves (and hits the cache) once.
    overlay.stats().reset();
    overlay
        .eval_many(&[region.clone(), region.clone()])
        .unwrap();
    let snap = overlay.stats().snapshot();
    assert_eq!(snap.overlay_hits, 1, "{snap:?}");
    assert_eq!(snap.queries, 2, "{snap:?}");

    // The same filters on naive/indexed engines never hit an overlay,
    // and the indexed engine works through R-tree probes.
    let naive = NaiveEngine::new(&city.gis, &moft);
    naive.eval(&region).unwrap();
    assert_eq!(naive.stats().snapshot().overlay_hits, 0);
    assert!(naive.stats().snapshot().overlay_misses > 0);
    let indexed = IndexedEngine::new(&city.gis, &moft);
    indexed.eval(&region).unwrap();
    assert!(indexed.stats().snapshot().rtree_probes > 0);
}
