//! Property tests for the ARCS core: configuration decoding, the tuner
//! protocol under arbitrary measurement sequences, history export, and
//! self-healing runs under arbitrary bounded fault plans.

use arcs::{
    ConfigSpace, OmpConfig, RegionTuner, ResilienceOptions, Runner, SimExecutor, TunerOptions,
    TuningMode,
};
use arcs_harmony::History;
use arcs_powersim::{FaultPlan, Machine};
use proptest::prelude::*;

fn spaces() -> [ConfigSpace; 2] {
    [ConfigSpace::crill(), ConfigSpace::minotaur()]
}

proptest! {
    /// Every grid point decodes to a well-formed configuration, and the
    /// decode is injective enough: thread counts come from the table,
    /// chunk honours the schedule's "default" semantics.
    #[test]
    fn every_point_decodes_validly(rank_frac in 0.0f64..1.0) {
        for space in spaces() {
            let grid = space.to_search_space();
            let rank = ((grid.size() - 1) as f64 * rank_frac) as usize;
            let p = grid.unrank(rank);
            let cfg = space.decode(&p).omp;
            prop_assert!(cfg.threads >= 1);
            prop_assert!(cfg.threads <= space.default_threads);
            if let Some(c) = cfg.schedule.chunk {
                prop_assert!((1..=512).contains(&c));
            }
        }
    }

    /// The tuner's ask/report protocol never panics, converges, and its
    /// stats add up — for any strategy and any (finite, positive)
    /// measurement stream.
    #[test]
    fn tuner_protocol_is_robust(
        seed in any::<u64>(),
        strategy_pick in 0usize..3,
        noise in 0.0f64..0.5,
    ) {
        let space = ConfigSpace::crill();
        let mode = match strategy_pick {
            0 => TuningMode::OfflineTrain,
            1 => TuningMode::Online,
            _ => TuningMode::OnlinePro,
        };
        let mut tuner = RegionTuner::new(TunerOptions::new(space.clone(), mode));
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut invocations = 0u64;
        for _ in 0..600 {
            let d = tuner.begin("prop/region");
            prop_assert!(d.config.omp.threads >= 1);
            invocations += 1;
            // Objective: prefers 8 threads, plus multiplicative noise.
            let base = 1.0 + ((d.config.omp.threads as f64).log2() - 3.0).abs() * 0.2;
            tuner.end("prop/region", base * (1.0 + noise * (rnd() - 0.5)));
            if tuner.converged() {
                break;
            }
        }
        let stats = tuner.stats();
        prop_assert_eq!(stats.invocations, invocations);
        prop_assert!(stats.config_changes <= stats.invocations);
        prop_assert_eq!(stats.regions, 1);
        // A best configuration is always available and valid.
        let best = tuner.best_configs()["prop/region"];
        prop_assert!(best.threads >= 1 && best.threads <= 32);
    }

    /// Replay mode applies exactly the stored configuration for known
    /// regions and the default for unknown ones, forever.
    #[test]
    fn replay_is_faithful(
        threads_idx in 0usize..7,
        sched_idx in 0usize..4,
        chunk_idx in 0usize..9,
        n_invocations in 1usize..50,
    ) {
        let space = ConfigSpace::crill();
        let saved = space.decode(&[threads_idx, sched_idx, chunk_idx]).omp;
        let mut h = History::new("prop");
        h.insert("known", saved, 1.0, 252);
        let mut tuner =
            RegionTuner::new(TunerOptions::offline_replay(space.clone(), h));
        let default = space.decode(&space.default_point()).omp;
        for _ in 0..n_invocations {
            let k = tuner.begin("known");
            prop_assert_eq!(k.config.omp, saved);
            tuner.end("known", 1.0);
            let u = tuner.begin("unknown");
            prop_assert_eq!(u.config.omp, default);
            tuner.end("unknown", 1.0);
        }
        prop_assert!(tuner.converged());
    }

    /// Selective tuning: a region under the threshold is eventually
    /// skipped and pinned; a region above it never is.
    #[test]
    fn selective_threshold_splits_regions(
        threshold in 0.01f64..1.0,
        tiny_scale in 0.01f64..0.9,
        big_scale in 1.1f64..10.0,
    ) {
        let space = ConfigSpace::crill();
        let opts = TunerOptions::online(space).with_min_region_time(threshold);
        let mut tuner = RegionTuner::new(opts);
        for _ in 0..30 {
            let _ = tuner.begin("tiny");
            tuner.end("tiny", threshold * tiny_scale);
            let _ = tuner.begin("big");
            tuner.end("big", threshold * big_scale);
        }
        prop_assert_eq!(tuner.stats().skipped_regions, 1);
        let d = tuner.begin("tiny");
        prop_assert!(!d.tuned);
        let d = tuner.begin("big");
        prop_assert!(d.tuned);
    }

    /// `ConfigSpace` point↔config round-trips over random spaces, with
    /// and without the frequency knob. Encoding is non-injective
    /// (`Default` threads aliases the machine's core count; static
    /// schedules ignore the chunk axis), so the invariant is semantic:
    /// the encoded point decodes back to the same configuration.
    #[test]
    fn tunable_space_round_trips(
        machine_pick in 0usize..2,
        steps in 0usize..4,
        rank_frac in 0.0f64..1.0,
    ) {
        let machine =
            if machine_pick == 0 { Machine::crill() } else { Machine::minotaur() };
        // steps == 0 means "no frequency knob" (the base 3-axis space).
        let space = if steps == 0 {
            ConfigSpace::for_machine(&machine)
        } else {
            ConfigSpace::with_dvfs(&machine, steps)
        };
        prop_assert_eq!(space.has_freq_knob(), steps > 0);
        let grid = space.to_search_space();
        prop_assert_eq!(grid.dim(), space.dim());
        prop_assert_eq!(grid.size(), space.size());
        let rank = ((grid.size() - 1) as f64 * rank_frac) as usize;
        let p = grid.unrank(rank);
        let cfg = space.decode(&p);
        let q = space.encode(&cfg).expect("decoded configs are encodable");
        prop_assert_eq!(space.decode(&q), cfg);
    }

    /// `SearchSpace::rank` and `unrank` stay inverse for every grid the
    /// tunable spaces can produce.
    #[test]
    fn rank_and_unrank_are_inverse(
        machine_pick in 0usize..2,
        steps in 0usize..4,
        rank_frac in 0.0f64..1.0,
    ) {
        let machine =
            if machine_pick == 0 { Machine::crill() } else { Machine::minotaur() };
        let space = if steps == 0 {
            ConfigSpace::for_machine(&machine)
        } else {
            ConfigSpace::with_dvfs(&machine, steps)
        };
        let grid = space.to_search_space();
        let rank = ((grid.size() - 1) as f64 * rank_frac) as usize;
        let p = grid.unrank(rank);
        prop_assert_eq!(grid.rank(&p), rank);
    }

    /// Exported histories always decode back to configurations inside the
    /// search space.
    #[test]
    fn exported_history_configs_are_in_space(seed in any::<u64>()) {
        let space = ConfigSpace::crill();
        let mut tuner = RegionTuner::new(TunerOptions::new(
            space.clone(),
            TuningMode::Online,
        ));
        let mut s = seed | 1;
        for _ in 0..80 {
            let d = tuner.begin("r");
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = (s >> 40) as f64 / (1u64 << 24) as f64;
            tuner.end("r", 1.0 + 0.1 * noise + d.config.omp.threads as f64 * 0.01);
        }
        let h = tuner.export_history("prop-ctx");
        let entry = h.get("r").expect("region exported");
        let valid_threads = [2, 4, 8, 16, 24, 32];
        prop_assert!(valid_threads.contains(&entry.config.threads));
        let _roundtrip: History<OmpConfig> =
            History::from_json(&h.to_json()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Self-healing contract under *any* bounded fault plan: a tuned run
    /// with an error budget always terminates and never errors, and the
    /// best configurations it lands on — evaluated on a *clean*
    /// simulator — stay within tolerance of the clean default run (the
    /// faults may cost search progress, but must not poison the result).
    #[test]
    fn any_bounded_fault_plan_is_survivable(
        seed in any::<u64>(),
        rapl_rate in 0.0f64..0.08,
        burst in 0u32..4,
        drop_rate in 0.0f64..0.10,
        spike_rate in 0.0f64..0.15,
        spike_factor in 1.0f64..10.0,
        straggler_rate in 0.0f64..0.10,
        straggler_factor in 1.0f64..2.5,
    ) {
        use arcs_kernels::{model, Class};
        let plan = FaultPlan {
            seed,
            rapl_fault_rate: rapl_rate,
            rapl_burst_len: burst,
            sample_drop_rate: drop_rate,
            spike_rate,
            spike_factor,
            straggler_rate,
            straggler_factor,
            cap_schedule: Vec::new(),
        };
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 12;
        let mut res = ResilienceOptions::standard();
        // An effectively unlimited budget: with one configured, chaos
        // runs must complete — Ok or Degraded, never Err.
        res.error_budget = Some(u64::MAX);

        let mut exec = SimExecutor::new(m.clone(), 85.0).with_faults(plan);
        let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
        let rep = Runner::new(&mut exec)
            .workload(&wl)
            .tuner(&mut tuner)
            .resilience(res)
            .run()
            .expect("budgeted chaos runs never error");
        prop_assert!(rep.time_s.is_finite() && rep.time_s > 0.0);
        prop_assert!(rep.energy_j.is_finite() && rep.energy_j >= 0.0);

        // Replay the surviving best configs on a clean simulator.
        let best = tuner.best_configs();
        let default_cfg = OmpConfig::default_for(&m);
        let mut clean = SimExecutor::new(m.clone(), 85.0);
        let base = Runner::new(&mut clean).workload(&wl).run().expect("workload is set");
        let tuned = Runner::new(&mut clean)
            .workload(&wl)
            .fixed(|name| best.get(name).copied().unwrap_or(default_cfg), "chaos-best")
            .run()
            .expect("workload is set");
        prop_assert!(
            tuned.time_s <= base.time_s * 1.5,
            "chaos-surviving configs degraded too far: {} vs default {}",
            tuned.time_s,
            base.time_s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One executor whose cap moves before every invocation, under a DVFS
    /// limit that moves too: each invocation prices exactly what direct
    /// simulation gives at the requested (RAPL-clamped) cap and limit,
    /// though lookups at one operating point share a memo cell and the
    /// executor's per-cap frequency table is rebuilt at every move.
    #[test]
    fn cap_moves_price_the_requested_operating_point(
        probes in proptest::collection::vec(
            (0.2f64..1.1, 1usize..33, 0usize..3, 0usize..3, 0.5f64..3.5),
            1..40,
        ),
    ) {
        use arcs::backend::Backend;
        use arcs::{CapHandle, TunedConfig};
        use arcs_kernels::model;
        use arcs_omprt::Schedule;
        use arcs_powersim::simulate_region_at_freq;

        let m = Machine::crill();
        let wl = model::lulesh(8);
        let handle = CapHandle::new(m.power.tdp_w);
        let mut exec =
            SimExecutor::new(m.clone(), m.power.tdp_w).with_cap_handle(handle.clone());
        let schedules = [Schedule::static_block(), Schedule::dynamic(8), Schedule::guided(4)];
        for &(cap_frac, threads, schedule, region, limit) in &probes {
            handle.set(m.power.tdp_w * cap_frac);
            let region = &wl.step[region % wl.step.len()];
            let omp = OmpConfig { threads, schedule: schedules[schedule] };
            let freq_ghz = (limit < 3.0).then_some(limit);
            let run = exec.run_region(region, TunedConfig { omp, freq_ghz });
            let direct =
                simulate_region_at_freq(&m, exec.power_cap_w(), region, omp.as_sim(), freq_ghz);
            prop_assert_eq!(run.time_s.to_bits(), direct.time_s.to_bits());
            prop_assert_eq!(run.features.busy_s.to_bits(), direct.busy_total_s().to_bits());
            prop_assert_eq!(run.features.barrier_s.to_bits(), direct.barrier_total_s().to_bits());
        }
    }
}

/// Folding the frequency axis into `ConfigSpace` moved nothing: over the
/// stock, portfolio and DVFS spaces of both machines, the size, the
/// Harmony parameters, the start point, every grid point's decoded
/// configuration and its re-encoded point hash to a constant generated
/// when the frequency axis still lived in a wrapper type (b82d932).
#[test]
fn space_encoding_matches_the_pinned_grid() {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    fn fnv_point(h: &mut u64, p: &[usize]) {
        fnv(h, &(p.len() as u64).to_le_bytes());
        for &i in p {
            fnv(h, &(i as u64).to_le_bytes());
        }
    }
    let (crill, minotaur) = (Machine::crill(), Machine::minotaur());
    let spaces = [
        ConfigSpace::for_machine(&crill),
        ConfigSpace::for_machine(&minotaur),
        ConfigSpace::for_machine(&crill).with_portfolio(),
        ConfigSpace::with_dvfs(&crill, 4),
        ConfigSpace::with_dvfs(&minotaur, 2),
    ];
    let mut h = 0xcbf29ce484222325u64;
    for space in &spaces {
        fnv(&mut h, &(space.size() as u64).to_le_bytes());
        let grid = space.to_search_space();
        for param in grid.params() {
            fnv(&mut h, param.name.as_bytes());
            fnv(&mut h, &(param.levels as u64).to_le_bytes());
        }
        fnv_point(&mut h, &space.default_point());
        for p in grid.iter_points() {
            let cfg = space.decode(&p);
            fnv(&mut h, &(cfg.omp.threads as u64).to_le_bytes());
            fnv(&mut h, cfg.omp.schedule.to_string().as_bytes());
            fnv(&mut h, &cfg.freq_ghz.map_or(u64::MAX, f64::to_bits).to_le_bytes());
            fnv_point(&mut h, &space.encode(&cfg).expect("decoded configs are encodable"));
        }
    }
    assert_eq!(h, 0x14fa3666dcd3a0f6, "a grid point decodes differently: got {h:#018x}");
}
