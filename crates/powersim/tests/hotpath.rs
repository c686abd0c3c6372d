//! Hot-path cache accounting and concurrency guarantees.
//!
//! The interned-id lookup (`get_or_insert_id`, one probe of a locked shard
//! map) must serve exactly what a direct `simulate_region` call computes,
//! bit-for-bit, with one miss per distinct cell. Threads racing the same
//! lookups must agree: the miss counter equals the number of distinct
//! cells resolved, and every racer is handed the one `Arc` that landed —
//! that is what makes parallel and serial sweeps report identical cache
//! lines.
//!
//! Executors key cells by operating point (`Machine::operating_point`)
//! and by canonical schedule (`Schedule::canonical`), so the last
//! properties hold that keying to the raw simulator: any (cap, limit) pair
//! simulates what its canonical pair does, and any schedule what its
//! canonical representative does, bit for bit.

use arcs_omprt::schedule::{chunk_count, ChunkStream};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{
    simulate_region, simulate_region_at_freq, ImbalanceProfile, Machine, MemoryProfile,
    RegionModel, SharedSimCache, SimConfig, SimReport, StrideClass,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

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
/// number of distinct cells, every extra lookup is a hit, and every racer
/// is handed the same `Arc` for each cell — a loser returns the winner's
/// report, not its own. The first cell is raced for certain: no racer can
/// insert it before all of them have simulated it.
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
    let gate = Barrier::new(RACERS);

    let reports: Vec<Vec<Arc<SimReport>>> = std::thread::scope(|s| {
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
                                    let first = seen.is_empty();
                                    let rep = cache.get_or_insert_id(
                                        &mut reader,
                                        id,
                                        r.iterations,
                                        cfg,
                                        cap,
                                        None,
                                        || {
                                            if first {
                                                gate.wait();
                                            }
                                            simulate_region(&m, cap, r, cfg)
                                        },
                                    );
                                    seen.push(rep);
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

    // Every racer was handed the very `Arc` that landed, lookup by lookup.
    for racer in &reports[1..] {
        for (landed, got) in reports[0].iter().zip(racer) {
            assert!(
                Arc::ptr_eq(landed, got),
                "a racer kept a report other than the one that landed"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, distinct, "one miss per distinct cell, races included");
    assert_eq!(stats.entries, distinct);
    assert_eq!(stats.lookups() as usize, RACERS * ROUNDS * distinct);
    assert_eq!(stats.hits, stats.lookups() - stats.misses);
    assert_eq!(stats.interner_size, regions.len());
}

/// Both presets and a node edited from crill's JSON with another
/// frequency range, so its clamp boundaries fall at other caps.
fn machines() -> [Machine; 3] {
    let json = Machine::crill()
        .to_json()
        .replace("\"f_base_ghz\": 2.4", "\"f_base_ghz\": 3.1")
        .replace("\"f_min_ghz\": 1.2", "\"f_min_ghz\": 1.7");
    let edited = Machine::from_json(&json).expect("the edited machine loads");
    assert_eq!((edited.f_min_ghz, edited.f_base_ghz), (1.7, 3.1), "the edit took");
    [Machine::crill(), Machine::minotaur(), edited]
}

/// For every count of active cores on the busiest socket, the caps at
/// which the team reaches `f_base` and `f_min` exactly, each with its
/// neighbours one ulp either side.
fn clamp_boundaries(m: &Machine) -> Vec<f64> {
    let mut caps = Vec::new();
    for active in 1..=m.cores_per_socket {
        let idle = m.cores_per_socket - active;
        let static_w =
            m.power.p_uncore_w + idle as f64 * m.power.p_core_idle_w + active as f64 * m.power.c0;
        for f in [m.f_base_ghz, m.f_min_ghz] {
            let cap = static_w + active as f64 * m.power.c1 * f.powi(3);
            caps.extend([cap.next_down(), cap, cap.next_up()]);
        }
    }
    caps
}

/// One lookup: a thread pick (folded into `1..=hw`), a schedule, a cap
/// pick (`0` draws across the RAPL range, anything else a clamp boundary)
/// and a limit pick (none, random, above `f_base`, below `f_min`, or
/// exactly the cap's own frequency).
type OperatingProbe = (usize, Schedule, (usize, f64, usize), (usize, f64));

fn arb_operating_probe() -> impl Strategy<Value = OperatingProbe> {
    (
        0usize..10_000,
        arb_schedule(),
        (0usize..3, 0.0f64..1.0, 0usize..1000),
        (0usize..5, 0.0f64..1.0),
    )
}

fn key_bits((cap, limit): (f64, Option<f64>)) -> (u64, Option<u64>) {
    (cap.to_bits(), limit.map(f64::to_bits))
}

fn json(rep: &SimReport) -> String {
    serde_json::to_string(rep).expect("reports serialise")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (cap, limit) pair simulates, serde-identically, what its
    /// canonical pair simulates — so any two pairs with one canonical pair
    /// agree — and at the frequency `team_frequency` names for it; the
    /// canonical pair is its own canonical pair; and a cache keyed by
    /// canonical pairs, the way the executor keys it, answers every
    /// lookup (hits served from another cap's cell included) with the
    /// bits direct simulation gives at the *requested* pair, missing once
    /// per operating point.
    #[test]
    fn operating_points_simulate_what_their_caps_do(
        which in 0usize..3,
        iters in 64usize..400,
        probes in proptest::collection::vec(arb_operating_probe(), 1..24),
    ) {
        let m = &machines()[which];
        let boundaries = clamp_boundaries(m);
        let r = region("op", iters, 9000.0);
        let cache = SharedSimCache::new(&m.name);
        let id = cache.intern(&r.name);
        let mut reader = cache.reader();
        let mut cells = HashSet::new();

        for &(threads, schedule, (cap_pick, cap_frac, boundary), (limit_pick, limit_frac)) in &probes {
            let threads = 1 + threads % m.hw_threads();
            let cfg = SimConfig { threads, schedule };
            let cap = match cap_pick {
                0 => m.power.tdp_w * (0.25 + 0.75 * cap_frac),
                _ => boundaries[boundary % boundaries.len()],
            };
            let f_cap = m.team_frequency(cap, threads, None);
            let limit = match limit_pick {
                0 => None,
                1 => Some(0.5 * m.f_min_ghz + limit_frac * (1.5 * m.f_base_ghz - 0.5 * m.f_min_ghz)),
                2 => Some(m.f_base_ghz * (1.0 + limit_frac)),
                3 => Some(m.f_min_ghz * (0.5 + 0.49 * limit_frac)),
                _ => Some(f_cap),
            };
            let key = m.operating_point(cap, f_cap, limit);
            let (key_cap, key_limit) = key;
            let again = m.operating_point(key_cap, m.team_frequency(key_cap, threads, None), key_limit);
            prop_assert_eq!(key_bits(again), key_bits(key), "cap {} limit {:?}", cap, limit);

            let direct = simulate_region_at_freq(m, cap, &r, cfg, limit);
            prop_assert_eq!(direct.f_ghz.to_bits(), m.team_frequency(cap, threads, limit).to_bits());
            let canonical = simulate_region_at_freq(m, key_cap, &r, cfg, key_limit);
            prop_assert_eq!(json(&direct), json(&canonical), "cap {} limit {:?}", cap, limit);
            let cached = cache.get_or_insert_id(&mut reader, id, r.iterations, cfg, key_cap, key_limit, || {
                simulate_region_at_freq(m, key_cap, &r, cfg, key_limit)
            });
            prop_assert_eq!(json(&direct), json(&cached), "cap {} limit {:?}", cap, limit);
            cells.insert((cfg, key_bits(key)));
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.misses as usize, cells.len());
        prop_assert_eq!(stats.lookups() as usize, probes.len());
    }
}

/// The sharing the keying exists for: a 4-thread team on crill runs at
/// the base clock at every cap from 55 W to 115 W, with or without a limit
/// above it, so thirteen caps × two limits are one operating point.
#[test]
fn caps_that_clamp_to_the_base_clock_share_one_cell() {
    let m = Machine::crill();
    let cache = SharedSimCache::new(&m.name);
    let r = region("clamped", 256, 9000.0);
    let id = cache.intern(&r.name);
    let mut reader = cache.reader();
    let cfg = SimConfig { threads: 4, schedule: Schedule::dynamic(8) };
    for cap in (11..=23).map(|k| 5.0 * k as f64) {
        for limit in [None, Some(3.0)] {
            let f_cap = m.team_frequency(cap, cfg.threads, None);
            assert_eq!(f_cap, m.f_base_ghz, "{cap} W clamps");
            let (key_cap, key_limit) = m.operating_point(cap, f_cap, limit);
            assert_eq!((key_cap, key_limit), (f64::INFINITY, None));
            let rep = cache.get_or_insert_id(
                &mut reader,
                id,
                r.iterations,
                cfg,
                key_cap,
                key_limit,
                || simulate_region_at_freq(&m, key_cap, &r, cfg, key_limit),
            );
            assert_eq!(json(&rep), json(&simulate_region_at_freq(&m, cap, &r, cfg, limit)));
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (25, 1));
}

fn arb_profile() -> impl Strategy<Value = ImbalanceProfile> {
    prop_oneof![
        Just(ImbalanceProfile::Uniform),
        (-2.0f64..2.0).prop_map(|slope| ImbalanceProfile::Linear { slope }),
        ((0.0f64..0.6), (1.1f64..50.0))
            .prop_map(|(f, h)| ImbalanceProfile::Blocked { heavy_fraction: f, heavy_factor: h }),
        ((0.01f64..0.8), any::<u64>()).prop_map(|(cv, seed)| ImbalanceProfile::Random { cv, seed }),
    ]
}

/// A chunk drawn relative to the loop: the default, `0`, a small chunk,
/// one within two of `⌈n/T⌉` (where on-demand kinds turn into `dynamic`),
/// or one at or past `n`.
fn pick_chunk((pick, value): (usize, usize), n: usize, threads: usize) -> Option<usize> {
    let share = n.div_ceil(threads);
    match pick {
        0 => None,
        1 => Some(0),
        2 => Some(1 + value % 64),
        3 => Some((share + value % 5).saturating_sub(2)),
        _ => Some(n + value % 100),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// A schedule and its canonical representative dispatch the same
    /// chunk stream, count the same chunks, pay the same dispatch class
    /// and simulate to the same bits; the representative is its own.
    #[test]
    fn canonical_schedules_simulate_what_their_schedules_do(
        minotaur in any::<bool>(),
        kind in (0usize..ScheduleKind::ALL.len()).prop_map(|i| ScheduleKind::ALL[i]),
        chunk in (0usize..5, any::<usize>()),
        n in prop_oneof![0usize..5000, 0usize..200],
        threads in 1usize..=160,
        profile in arb_profile(),
        cap_frac in 0.4f64..1.0,
    ) {
        let m = if minotaur { Machine::minotaur() } else { Machine::crill() };
        let threads = 1 + (threads - 1) % m.hw_threads();
        let schedule = Schedule::new(kind, pick_chunk(chunk, n, threads));
        let canonical = schedule.canonical(n, threads);
        let what = format!("{schedule} as {canonical} at n={n} T={threads}");
        prop_assert_eq!(canonical.canonical(n, threads), canonical, "{}", what);
        prop_assert_eq!(canonical.has_dispatch_cost(), schedule.has_dispatch_cost());
        prop_assert_eq!(chunk_count(n, threads, canonical), chunk_count(n, threads, schedule));
        prop_assert!(
            ChunkStream::new(n, threads, canonical).eq(ChunkStream::new(n, threads, schedule)),
            "{}", what
        );

        let mut r = region("canonical", n, 9000.0);
        r.imbalance = profile;
        let cap = m.power.tdp_w * cap_frac;
        let direct = simulate_region(&m, cap, &r, SimConfig { threads, schedule });
        let keyed = simulate_region(&m, cap, &r, SimConfig { threads, schedule: canonical });
        prop_assert_eq!(json(&direct), json(&keyed), "{}", what);
    }
}
