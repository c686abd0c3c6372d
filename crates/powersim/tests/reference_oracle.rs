//! The integrator against an independent model of itself.
//!
//! [`simulate_region_reference`] is the simulator as it was first written,
//! kept deliberately naive: materialise the weight vector, prefix-sum it,
//! build each thread's static chunk list, run greedy dispatch on a
//! `BinaryHeap`. The production path (shared [`WeightTable`]s, the
//! in-order static pass, the closed forms, the sorted-ring dispatcher) must
//! agree with it to the last bit of every `f64` it reports.

use arcs_omprt::schedule::{static_chunks_for_thread, ChunkStream};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{
    analyze, simulate_region, simulate_region_at_freq, simulate_region_with_table,
    ImbalanceProfile, Machine, MemoryProfile, RegionModel, SharedSimCache, SimConfig, SimReport,
    SimScratch, SmtModel, StrideClass, WeightTable,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// SMT siblings sharing one core: each runs at `eff(active)` and the
/// survivors speed up as siblings retire, smallest solo work first.
fn smt_overlap_finish_times(solo_ns: &[f64], smt: &SmtModel) -> Vec<f64> {
    let mut finishes = solo_ns.to_vec();
    if solo_ns.len() <= 1 {
        return finishes;
    }
    let mut order: Vec<usize> = (0..solo_ns.len()).collect();
    order.sort_by(|&a, &b| solo_ns[a].total_cmp(&solo_ns[b]));
    let (mut clock, mut done_work, mut active) = (0.0, 0.0, solo_ns.len());
    for idx in order {
        let dt = (solo_ns[idx] - done_work) / smt.efficiency(active);
        clock += dt.max(0.0);
        done_work = solo_ns[idx];
        finishes[idx] = clock;
        active -= 1;
    }
    finishes
}

fn simulate_region_reference(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    cfg: SimConfig,
    freq_limit_ghz: Option<f64>,
) -> SimReport {
    let threads = cfg.threads.clamp(1, machine.hw_threads());
    let schedule = cfg.schedule;
    let n = region.iterations;
    let (max_active, sockets_used) = machine.active_core_summary(threads);
    let mut f_ghz = machine.frequency_under_cap(cap_w, max_active);
    if let Some(limit) = freq_limit_ghz {
        f_ghz = f_ghz.min(limit).max(machine.f_min_ghz);
    }
    let cache = analyze(machine, &region.memory, n, threads, schedule);

    let mut prefix = vec![0.0];
    let mut running = 0.0;
    for w in region.weights() {
        running += w;
        prefix.push(running);
    }
    let cycle_ns_per_weight = region.cycles_per_iter / f_ghz;
    let uncore_factor =
        1.0 + machine.caches.uncore_slowdown * (machine.f_base_ghz / f_ghz - 1.0).max(0.0);
    let stall_ns_per_iter =
        region.memory.accesses_per_iter * cache.stall_ns_per_access * uncore_factor;
    let chunk_ns = |fixed_ns: f64, start: usize, end: usize| -> f64 {
        fixed_ns
            + (prefix[end] - prefix[start]) * cycle_ns_per_weight
            + (end - start) as f64 * stall_ns_per_iter
    };

    let mut busy_ns = vec![0.0f64; threads];
    let mut chunks_dispatched = 0u64;
    if schedule.kind == ScheduleKind::Static {
        for (t, work) in busy_ns.iter_mut().enumerate() {
            for ch in static_chunks_for_thread(n, threads, schedule.chunk, t) {
                chunks_dispatched += 1;
                *work += chunk_ns(machine.chunk_setup_ns, ch.start, ch.end);
            }
        }
    } else {
        let dispatch_ns =
            machine.dispatch_ns + machine.dispatch_contention_ns * (threads as f64).ln().max(0.0);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..threads).map(|t| Reverse((0u64, t))).collect();
        let mut start = 0usize;
        for sz in ChunkStream::new(n, threads, schedule) {
            let Reverse((clock_fp, t)) = heap.pop().expect("team is non-empty");
            let cost = chunk_ns(dispatch_ns, start, start + sz);
            start += sz;
            chunks_dispatched += 1;
            heap.push(Reverse((clock_fp + (cost * 1e6) as u64, t)));
        }
        for Reverse((clock_fp, t)) in heap {
            busy_ns[t] = clock_fp as f64 * 1e-6;
        }
    }

    let core_of = |t: usize| {
        let p = machine.place(t, threads);
        p.socket * machine.cores_per_socket + p.core
    };
    let mut siblings: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for t in 0..threads {
        siblings.entry(core_of(t)).or_default().push(t);
    }
    for members in siblings.values().filter(|m| m.len() > 1) {
        let solo: Vec<f64> = members.iter().map(|&t| busy_ns[t]).collect();
        for (&t, f) in members.iter().zip(smt_overlap_finish_times(&solo, &machine.smt)) {
            busy_ns[t] = f;
        }
    }

    let dram_bytes = n as f64
        * region.memory.accesses_per_iter
        * cache.l3_miss_rate
        * machine.caches.line_bytes as f64;
    let bw_floor_ns = dram_bytes / (machine.caches.dram_bw_gbs * sockets_used.max(1) as f64);
    let max_busy_raw = busy_ns.iter().cloned().fold(0.0, f64::max);
    if bw_floor_ns > max_busy_raw && max_busy_raw > 0.0 {
        let stretch = bw_floor_ns / max_busy_raw;
        busy_ns.iter_mut().for_each(|b| *b *= stretch);
    }

    let max_busy_ns = busy_ns.iter().cloned().fold(0.0, f64::max);
    let fork_ns = machine.fork_base_ns + threads as f64 * machine.fork_per_thread_ns;
    let barrier_ns = machine.barrier_ns * (threads as f64).log2().max(1.0);
    let critical_ns = region.critical_s * 1e9;
    let time_s = region.serial_s + (fork_ns + max_busy_ns + critical_ns + barrier_ns) * 1e-9;

    let mut core_busy_ns = vec![0.0f64; machine.total_cores()];
    for (t, &b) in busy_ns.iter().enumerate() {
        core_busy_ns[core_of(t)] = core_busy_ns[core_of(t)].max(b);
    }
    let p_core = machine.power.c0 + machine.power.c1 * f_ghz.powi(3);
    let p_core_base = machine.power.c0 + machine.power.c1 * machine.f_base_ghz.powi(3);
    let region_ns = time_s * 1e9;
    let mut energy_j = 0.0;
    energy_j += machine.sockets as f64
        * (machine.power.p_uncore_w + machine.power.p_dram_background_w)
        * time_s;
    for &b in &core_busy_ns {
        let busy_s = (b * 1e-9).min(time_s);
        energy_j +=
            busy_s * p_core + ((region_ns - b).max(0.0) * 1e-9) * machine.power.p_core_idle_w;
    }
    energy_j += region.serial_s * (p_core_base - machine.power.p_core_idle_w).max(0.0);
    energy_j += region.critical_s * (p_core - machine.power.p_core_idle_w).max(0.0);
    energy_j += n as f64 * region.memory.accesses_per_iter * cache.energy_nj_per_access * 1e-9;

    let master = |t: usize, master_ns: f64, team_ns: f64| if t == 0 { master_ns } else { team_ns };
    let per_thread_busy_s: Vec<f64> = busy_ns
        .iter()
        .enumerate()
        .map(|(t, &b)| (b + master(t, critical_ns, 0.0)) * 1e-9)
        .collect();
    let per_thread_wait_s: Vec<f64> = busy_ns
        .iter()
        .enumerate()
        .map(|(t, &b)| (max_busy_ns - b + master(t, 0.0, critical_ns)) * 1e-9)
        .collect();
    SimReport {
        time_s,
        energy_j,
        f_ghz,
        cache,
        busy_sum_s: per_thread_busy_s.iter().sum(),
        wait_sum_s: per_thread_wait_s.iter().sum(),
        per_thread_busy_s,
        per_thread_wait_s,
        chunks_dispatched,
        threads,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_bits(new: &SimReport, old: &SimReport, what: &str) {
    assert_eq!(new.time_s.to_bits(), old.time_s.to_bits(), "time_s: {what}");
    assert_eq!(new.energy_j.to_bits(), old.energy_j.to_bits(), "energy_j: {what}");
    assert_eq!(bits(&new.per_thread_busy_s), bits(&old.per_thread_busy_s), "busy: {what}");
    assert_eq!(bits(&new.per_thread_wait_s), bits(&old.per_thread_wait_s), "wait: {what}");
    assert_eq!(new.chunks_dispatched, old.chunks_dispatched, "chunks: {what}");
}

const CHUNKS: [Option<usize>; 5] = [None, Some(1), Some(3), Some(8), Some(64)];

fn region(n: usize, imbalance: ImbalanceProfile) -> RegionModel {
    RegionModel {
        name: "oracle".into(),
        iterations: n,
        cycles_per_iter: 4_000.0,
        imbalance,
        memory: MemoryProfile {
            footprint_bytes: 3.2e7,
            accesses_per_iter: 180.0,
            stride: StrideClass::Medium,
            temporal_reuse: 0.35,
            hot_bytes_per_thread: 2.0e5,
        },
        serial_s: 1e-5,
        critical_s: 1e-4,
    }
}

/// Every policy × chunk of the portfolio on `region`, new path against the
/// reference.
fn check_portfolio(machine: &Machine, region: &RegionModel, threads: usize) {
    for kind in ScheduleKind::ALL {
        for chunk in CHUNKS {
            let cfg = SimConfig { threads, schedule: Schedule::new(kind, chunk) };
            let what =
                format!("{} n={} {threads}t {}", machine.name, region.iterations, cfg.schedule);
            let new = simulate_region(machine, 85.0, region, cfg);
            let old = simulate_region_reference(machine, 85.0, region, cfg, None);
            assert_same_bits(&new, &old, &what);
        }
    }
}

fn arb_imbalance() -> impl Strategy<Value = ImbalanceProfile> {
    prop_oneof![
        Just(ImbalanceProfile::Uniform),
        (-2.0f64..2.0).prop_map(|slope| ImbalanceProfile::Linear { slope }),
        ((0.0f64..0.6), (1.1f64..50.0))
            .prop_map(|(f, h)| ImbalanceProfile::Blocked { heavy_fraction: f, heavy_factor: h }),
        ((0.01f64..0.8), any::<u64>()).prop_map(|(cv, seed)| ImbalanceProfile::Random { cv, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Trip counts reach below the team size, and chunks are the
    /// portfolio's [`CHUNKS`] or one at or past `n` (a single chunk), so
    /// `static,c` covers ragged tails (`n mod c·T ≠ 0`) and chunks past
    /// `n`, and weighted `dynamic,c` short last chunks (`c ∤ n`).
    #[test]
    fn integrator_matches_the_reference_bit_for_bit(
        n in prop_oneof![0usize..5000, 0usize..200],
        imbalance in arb_imbalance(),
        cycles in 10.0f64..1e6,
        minotaur in any::<bool>(),
        threads in 1usize..=160,
        kind in (0usize..ScheduleKind::ALL.len()).prop_map(|i| ScheduleKind::ALL[i]),
        pick in 0usize..=CHUNKS.len(),
        past in 0usize..100,
        cap_frac in 0.4f64..1.0,
        freq_limit_ghz in prop_oneof![Just(None), (1.2f64..3.5).prop_map(Some)],
    ) {
        let machine = if minotaur { Machine::minotaur() } else { Machine::crill() };
        let mut r = region(n, imbalance);
        r.cycles_per_iter = cycles;
        let cap_w = machine.power.tdp_w * cap_frac;
        let chunk = CHUNKS.get(pick).copied().unwrap_or(Some(n + past));
        let cfg = SimConfig { threads, schedule: Schedule::new(kind, chunk) };
        let new = simulate_region_at_freq(&machine, cap_w, &r, cfg, freq_limit_ghz);
        let old = simulate_region_reference(&machine, cap_w, &r, cfg, freq_limit_ghz);
        assert_same_bits(&new, &old, &format!("{r:?} {cfg:?} {cap_w} W {freq_limit_ghz:?}"));
    }
}

/// Equal weights under a non-uniform profile (a `Blocked` with no heavy
/// block): every chunk costs the same, so the ring only ever rotates.
#[test]
fn ring_pure_rotation_on_all_equal_costs() {
    let flat = ImbalanceProfile::Blocked { heavy_fraction: 0.0, heavy_factor: 7.0 };
    assert!(flat.weights(100).iter().all(|&w| w == 1.0));
    for machine in [Machine::crill(), Machine::minotaur()] {
        for threads in [2, 7, 32, 160] {
            check_portfolio(&machine, &region(4097, flat.clone()), threads);
        }
    }
}

/// Strictly shrinking chunk costs: the thread just served stays the
/// earliest finisher and re-enters the ring at the front.
#[test]
fn ring_front_insertion_on_shrinking_costs() {
    let front_loaded = ImbalanceProfile::Linear { slope: -1.9 };
    for machine in [Machine::crill(), Machine::minotaur()] {
        for threads in [3, 8, 32, 96] {
            check_portfolio(&machine, &region(5000, front_loaded.clone()), threads);
        }
    }
}

/// Chunks that truncate to zero femtoseconds leave the clocks tied: the
/// lowest thread index must keep winning, as the heap's `(clock, thread)`
/// order has it.
#[test]
fn ring_handles_zero_femtosecond_chunks() {
    let mut machine = Machine::crill();
    machine.dispatch_ns = 0.0;
    machine.dispatch_contention_ns = 0.0;
    // Heavy iterations cost ~1 fs, light ones truncate to 0 fs.
    let mut mixed =
        region(600, ImbalanceProfile::Blocked { heavy_fraction: 0.5, heavy_factor: 1e3 });
    mixed.cycles_per_iter = 2e-6;
    mixed.memory.accesses_per_iter = 0.0;
    let mut free = mixed.clone();
    free.cycles_per_iter = 0.0;
    for threads in [1, 4, 32] {
        check_portfolio(&machine, &mixed, threads);
        check_portfolio(&machine, &free, threads);
    }
}

#[test]
fn degenerate_teams_and_loops() {
    let skewed = ImbalanceProfile::Random { cv: 0.6, seed: 11 };
    for machine in [Machine::crill(), Machine::minotaur()] {
        for n in [0, 1, 5, 31] {
            // Fewer iterations than threads, for both profiles' paths.
            check_portfolio(&machine, &region(n, skewed.clone()), 32);
            check_portfolio(&machine, &region(n, ImbalanceProfile::Uniform), 32);
        }
        check_portfolio(&machine, &region(3000, skewed.clone()), 1);
        check_portfolio(&machine, &region(3000, ImbalanceProfile::Uniform), 1);
    }
}

/// New path against the reference for `kind,c` on each `(n, c, profile)`
/// case, on both machines.
fn check_fixed(kind: ScheduleKind, threads: usize, cases: &[(usize, usize, ImbalanceProfile)]) {
    for machine in [Machine::crill(), Machine::minotaur()] {
        for (n, c, profile) in cases {
            let cfg = SimConfig { threads, schedule: Schedule::new(kind, Some(*c)) };
            let r = region(*n, profile.clone());
            let what = format!("{} n={n} {threads}t {} {profile:?}", machine.name, cfg.schedule);
            let new = simulate_region(&machine, 85.0, &r, cfg);
            let old = simulate_region_reference(&machine, 85.0, &r, cfg, None);
            assert_same_bits(&new, &old, &what);
        }
    }
}

/// The integrator's fixed-chunk paths at their edges. `static,c` (a
/// closed form when uniform, whole rounds of `c·T` iterations lane by
/// lane and then the ragged remainder when weighted): whole rounds only
/// (`n = k·c·T`), a remainder of full chunks, one ending in a short chunk,
/// a round longer than the loop (`c·T > n`) and chunks at or past `n`.
/// Weighted `dynamic,c` (each 256-chunk block's full chunks priced from one
/// prefix slice): blocks ending just before, at and past a seam
/// (`⌈n/c⌉ ∈ {255, 256, 257, 513}`) with a short last chunk (`c ∤ n`) and
/// with whole chunks only, and one chunk. Front-loaded costs cross a seam
/// from the dispatcher's fast path to a scan: at n = 513, `dynamic,1` on
/// three threads appends the thread served chunk 255 as the new last
/// finisher and must scan to place the one served chunk 256.
#[test]
fn fixed_chunk_paths_at_their_edges() {
    let random = ImbalanceProfile::Random { cv: 0.5, seed: 3 };
    let blocked = ImbalanceProfile::Blocked { heavy_fraction: 0.3, heavy_factor: 4.0 };
    let front_loaded = ImbalanceProfile::Linear { slope: -1.9 };
    let edges = [(1000, 7), (1003, 8), (8 * 3 * 32, 3), (50, 50), (50, 64), (5, 8)];
    for threads in [1, 3, 8, 32] {
        let (mut fixed_static, mut fixed_dynamic) = (Vec::new(), Vec::new());
        for (n, c) in edges {
            fixed_static.push((n, c, ImbalanceProfile::Uniform));
        }
        for profile in [&random, &blocked] {
            for (n, c) in edges {
                fixed_static.push((n, c, profile.clone()));
            }
            for c in [1, 3, 8] {
                let round = c * threads;
                for n in [3 * round, 3 * round + c, 3 * round + 2 * c + 1, round - 1, c, 1] {
                    fixed_static.push((n, c, profile.clone()));
                }
            }
        }
        for profile in [&random, &blocked, &front_loaded] {
            for (n, c) in edges {
                fixed_dynamic.push((n, c, profile.clone()));
            }
            for chunks in [255, 256, 257, 513] {
                fixed_dynamic.push((chunks, 1, profile.clone()));
                for c in [3, 8] {
                    fixed_dynamic.push((chunks * c - 2, c, profile.clone()));
                    fixed_dynamic.push((chunks * c, c, profile.clone()));
                }
            }
        }
        check_fixed(ScheduleKind::Static, threads, &fixed_static);
        check_fixed(ScheduleKind::Dynamic, threads, &fixed_dynamic);
    }
}

/// One cache-shared table and one warm scratch across a whole portfolio
/// give what a fresh table and a fresh scratch give per call.
#[test]
fn warm_table_and_scratch_match_fresh_ones() {
    let machine = Machine::crill();
    let cache = SharedSimCache::new(&machine.name);
    let r = region(2500, ImbalanceProfile::Random { cv: 0.4, seed: 5 });
    let table = cache.weight_table(&r);
    assert!(Arc::ptr_eq(&table, &cache.weight_table(&r)), "built once per cache");
    let mut scratch = SimScratch::default();
    for kind in ScheduleKind::ALL {
        for chunk in CHUNKS {
            for threads in [5, 32] {
                let cfg = SimConfig { threads, schedule: Schedule::new(kind, chunk) };
                let warm =
                    simulate_region_with_table(&machine, 70.0, &r, &table, cfg, None, &mut scratch);
                let fresh = simulate_region(&machine, 70.0, &r, cfg);
                assert_same_bits(&warm, &fresh, &format!("{cfg:?}"));
            }
        }
    }
}

/// Tables are shared by what they hold, never by region name or trip
/// count alone.
#[test]
fn tables_are_shared_by_value_only() {
    let cache = SharedSimCache::new("crill");
    let a = region(1000, ImbalanceProfile::Linear { slope: 0.5 });
    let mut same_model = a.clone();
    same_model.name = "elsewhere".into();
    let other_profile = region(1000, ImbalanceProfile::Linear { slope: 0.6 });
    let other_trip_count = region(1001, ImbalanceProfile::Linear { slope: 0.5 });

    let table = cache.weight_table(&a);
    assert!(Arc::ptr_eq(&table, &cache.weight_table(&same_model)));
    for r in [&other_profile, &other_trip_count] {
        let t = cache.weight_table(r);
        assert!(!Arc::ptr_eq(&table, &t));
        assert!(t.matches(r) && !t.matches(&a) && !table.matches(r));
    }
    assert_eq!(table.prefix().map(<[f64]>::len), Some(1001));
    assert!(cache.weight_table(&region(1000, ImbalanceProfile::Uniform)).prefix().is_none());
}

#[test]
#[should_panic(expected = "weight table built for another region")]
fn integrator_refuses_a_foreign_table() {
    let machine = Machine::crill();
    let r = region(1000, ImbalanceProfile::Linear { slope: 0.5 });
    let foreign = WeightTable::new(&ImbalanceProfile::Linear { slope: 0.6 }, 1000);
    let cfg = SimConfig { threads: 8, schedule: Schedule::dynamic(4) };
    simulate_region_with_table(&machine, 85.0, &r, &foreign, cfg, None, &mut SimScratch::default());
}
