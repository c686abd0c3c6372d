//! Hot-path cache accounting and concurrency guarantees.
//!
//! The interned-id lookup (`get_or_insert_id` through a [`CacheReader`])
//! must serve exactly what a direct `simulate_region` call computes,
//! bit-for-bit, with one miss per distinct cell. And the miss counter must
//! equal the number of distinct cells resolved no matter how many threads
//! race the same lookups — that is what makes parallel and serial sweeps
//! report identical cache lines.
//!
//! [`CacheReader`]: arcs_powersim::CacheReader

use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{
    simulate_region, ImbalanceProfile, Machine, MemoryProfile, RegionModel, SharedSimCache,
    SimConfig, StrideClass,
};
use proptest::prelude::*;

fn region(name: &str, iters: usize, cycles: f64) -> RegionModel {
    RegionModel {
        name: name.into(),
        iterations: iters,
        cycles_per_iter: cycles,
        imbalance: ImbalanceProfile::Linear { slope: 0.4 },
        memory: MemoryProfile {
            footprint_bytes: 3.2e7,
            accesses_per_iter: 180.0,
            stride: StrideClass::Medium,
            temporal_reuse: 0.35,
            hot_bytes_per_thread: 2.0e5,
        },
        serial_s: 0.0,
        critical_s: 1e-4,
    }
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        prop_oneof![
            Just(ScheduleKind::Static),
            Just(ScheduleKind::Dynamic),
            Just(ScheduleKind::Guided)
        ],
        prop_oneof![Just(None), (1usize..64).prop_map(Some)],
    )
        .prop_map(|(kind, chunk)| Schedule::new(kind, chunk))
}

/// One lookup of a randomized probe sequence: which of a handful of
/// regions, under which configuration and cap.
fn arb_probe() -> impl Strategy<Value = (usize, usize, usize, Schedule, f64)> {
    (0usize..4, 100usize..1200, 1usize..33, arb_schedule(), 0.4f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A randomized probe sequence through the interned-id reader path
    /// serves reports bit-identical to direct simulation, and misses
    /// exactly once per distinct cell.
    #[test]
    fn interned_lookups_match_direct_simulation(probes in proptest::collection::vec(arb_probe(), 1..40)) {
        let m = Machine::crill();
        let names = ["rhs", "xsolve", "ysolve", "zsolve"];
        let cache = SharedSimCache::new(&m.name);
        let ids: Vec<_> = names.iter().map(|n| cache.intern(n)).collect();
        let mut reader = cache.reader();
        let mut distinct = std::collections::HashSet::new();

        for &(which, iters, threads, schedule, cap_frac) in &probes {
            let r = region(names[which], iters, 9000.0);
            let cap = m.power.tdp_w * cap_frac;
            let cfg = SimConfig { threads, schedule };
            distinct.insert((which, iters, cfg, cap.to_bits()));
            let direct = simulate_region(&m, cap, &r, cfg);
            let cached = cache.get_or_insert_id(&mut reader, ids[which], r.iterations, cfg, cap, None, || {
                simulate_region(&m, cap, &r, cfg)
            });
            // Bit-identity via the serialized form: every f64 (including
            // the per-thread vectors) round-trips exactly.
            prop_assert_eq!(
                serde_json::to_string(&direct).unwrap(),
                serde_json::to_string(&*cached).unwrap()
            );
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.misses as usize, distinct.len());
        prop_assert_eq!(stats.lookups() as usize, probes.len());
        prop_assert_eq!(stats.entries, distinct.len());
        prop_assert_eq!(stats.entries, stats.shard_occupancy.iter().sum::<usize>());
    }
}

/// Eight threads racing the same cell set, each through its own
/// [`arcs_powersim::CacheReader`]: the miss counter lands exactly on the
/// number of distinct cells, every extra lookup is a hit, and all racers
/// observe the same report.
#[test]
fn racing_inserts_count_one_miss_per_distinct_cell() {
    let m = Machine::crill();
    let cache = SharedSimCache::new(&m.name);
    let regions: Vec<RegionModel> =
        (0..6).map(|i| region(&format!("r{i}"), 400 + 40 * i, 7000.0 + 500.0 * i as f64)).collect();
    let ids: Vec<_> = regions.iter().map(|r| cache.intern(&r.name)).collect();
    let caps = [55.0, 70.0, 85.0];
    let threads_axis = [4usize, 16];
    let distinct = regions.len() * caps.len() * threads_axis.len();
    const RACERS: usize = 8;
    const ROUNDS: usize = 3;

    let times: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    let mut reader = cache.reader();
                    let mut seen = Vec::new();
                    for _ in 0..ROUNDS {
                        for (r, &id) in regions.iter().zip(&ids) {
                            for &cap in &caps {
                                for &t in &threads_axis {
                                    let cfg =
                                        SimConfig { threads: t, schedule: Schedule::dynamic(8) };
                                    let rep = cache.get_or_insert_id(
                                        &mut reader,
                                        id,
                                        r.iterations,
                                        cfg,
                                        cap,
                                        None,
                                        || simulate_region(&m, cap, r, cfg),
                                    );
                                    seen.push(rep.time_s);
                                }
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every racer saw the same sequence of resolved values.
    for w in times.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, distinct, "one miss per distinct cell, races included");
    assert_eq!(stats.entries, distinct);
    assert_eq!(stats.lookups() as usize, RACERS * ROUNDS * distinct);
    assert_eq!(stats.hits, stats.lookups() - stats.misses);
    assert_eq!(stats.interner_size, regions.len());
}
