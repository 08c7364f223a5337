//! The paper's reproducibility requirement (§III: generation must happen
//! "in a verified environment so that the knowledge is reproducible"),
//! verified end to end: the same seed produces byte-identical knowledge
//! through the whole pipeline — simulation, native output text,
//! extraction, JSON serialization.

use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_extract::parse_ior_output;
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;

fn pipeline(seed: u64) -> (String, String) {
    let mut world = World::new(
        SystemConfig::test_small().with_noise(0.15),
        FaultPlan::none(),
        seed,
    );
    let config = IorConfig::parse_command(
        "ior -a mpiio -b 1m -t 256k -s 2 -F -C -e -i 3 -o /scratch/repro -k",
    )
    .unwrap();
    let result = run_ior(&mut world, JobLayout::new(4, 2), &config, seed).unwrap();
    let output = result.render();
    let knowledge = parse_ior_output(&output).unwrap();
    (output, knowledge.to_json().to_compact())
}

#[test]
fn same_seed_yields_byte_identical_knowledge() {
    let (output_a, json_a) = pipeline(12345);
    let (output_b, json_b) = pipeline(12345);
    assert_eq!(
        output_a, output_b,
        "benchmark output must be byte-identical"
    );
    assert_eq!(json_a, json_b, "knowledge JSON must be byte-identical");
}

#[test]
fn different_seeds_yield_different_measurements() {
    // Under noise, different seeds must actually differ — otherwise the
    // reproducibility test above would be vacuous.
    let (_, json_a) = pipeline(1);
    let (_, json_b) = pipeline(2);
    assert_ne!(json_a, json_b);
}

#[test]
fn knowledge_survives_json_interchange_bit_exactly() {
    let (_, json) = pipeline(777);
    let parsed = iokc_util::json::parse(&json).unwrap();
    let knowledge = iokc_core::model::Knowledge::from_json(&parsed).unwrap();
    assert_eq!(knowledge.to_json().to_compact(), json);
}

/// Pinned bytes: the simulator against *yesterday's* binary.
///
/// The tests above prove "same seed ⇒ same bytes" within one binary, so a
/// reordered float expression in the engine passes them. The table below
/// holds hashes computed at the commit before the engine's rate solver,
/// path resolution and event queue were rewritten; every scenario must
/// keep producing exactly those bytes, in debug and in release.
mod pinned {
    use iokc_benchmarks::hacc::{run_hacc, FileMode, HaccConfig};
    use iokc_benchmarks::io500::{run_io500_with_faults, Io500Config, PhaseFaults};
    use iokc_benchmarks::ior::{run_ior, IorConfig};
    use iokc_benchmarks::mdtest::{run_mdtest, MdtestConfig};
    use iokc_benchmarks::CorpusSpec;
    use iokc_sim::api::IoApi;
    use iokc_sim::engine::{JobLayout, World};
    use iokc_sim::faults::{Fault, FaultPlan};
    use iokc_sim::metrics::PhaseResult;
    use iokc_sim::pfs::stable_hash;
    use iokc_sim::prelude::{OpenMode, ScriptSet, SystemConfig};
    use iokc_sim::time::SimTime;
    use std::fmt::Write as _;

    /// What a scenario produced: the driver's rendered output and a trace
    /// of what the engine did underneath it.
    struct Observed {
        output: String,
        trace: String,
    }

    /// Every `OpRecord` of every phase as
    /// `rank kind path offset len start end cache_hit`, each phase closed
    /// by its `started finished stonewalled`, then the world's clock.
    fn trace_of<'a>(phases: impl Iterator<Item = &'a PhaseResult>, world: &World) -> String {
        let mut trace = String::new();
        for phase in phases {
            for r in &phase.records {
                let path = r.path.map_or("-", |id| phase.paths[id.0 as usize].as_str());
                writeln!(
                    trace,
                    "{} {} {} {} {} {} {} {}",
                    r.rank,
                    r.kind.as_str(),
                    path,
                    r.offset,
                    r.len,
                    r.start.nanos(),
                    r.end.nanos(),
                    r.cache_hit
                )
                .unwrap();
            }
            writeln!(
                trace,
                "phase {} {} {}",
                phase.started.nanos(),
                phase.finished.nanos(),
                phase.stonewalled_ops
            )
            .unwrap();
        }
        writeln!(trace, "now {}", world.now().nanos()).unwrap();
        trace
    }

    fn ior(system: SystemConfig, faults: FaultPlan, np: u32, ppn: u32, command: &str) -> Observed {
        let mut world = World::new(system, faults, 12345);
        let config = IorConfig::parse_command(command).unwrap();
        let result = run_ior(&mut world, JobLayout::new(np, ppn), &config, 12345).unwrap();
        Observed {
            output: result.render(),
            trace: trace_of(result.phases.iter().map(|(_, _, p)| p), &world),
        }
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    /// The corpus the analytics suite and `cycle_corpus` are built on:
    /// every cluster shape × PFS variant × rank count × fault mix, three
    /// planted outliers.
    fn corpus() -> Observed {
        let spec = CorpusSpec::new(96, 42);
        let mut observed = Observed {
            output: String::new(),
            trace: String::new(),
        };
        for index in 0..96 {
            let run = spec.execute(index).unwrap();
            observed.output.push_str(&run.output);
            // Every bit of each phase value: `render` rounds to 6 digits.
            for p in &run.result.phases {
                writeln!(observed.trace, "{} {:?} {:?}", p.name, p.value, p.time_s).unwrap();
            }
        }
        observed
    }

    fn repro_pipeline() -> Observed {
        let observed = ior(
            SystemConfig::test_small().with_noise(0.15),
            FaultPlan::none(),
            4,
            2,
            "ior -a mpiio -b 1m -t 256k -s 2 -F -C -e -i 3 -o /scratch/repro -k",
        );
        assert_eq!(observed.output, super::pipeline(12345).0);
        observed
    }

    /// Two-phase collective I/O (`Send`/`Recv`) on one shared file while a
    /// storage target and the fabric degrade and recover mid-transfer, so
    /// `FaultEdge` events re-solve rates with flows in flight.
    fn ior_collective_under_windowed_faults() -> Observed {
        let faults = FaultPlan::none()
            .with(Fault::slow_target(1, 0.3, ms(10), ms(60)))
            .with(Fault::fabric_congestion(0.4, ms(50), ms(100)));
        ior(
            SystemConfig::test_small().with_noise(0.1),
            faults,
            8,
            2,
            "ior -a mpiio -c -b 2m -t 512k -s 2 -e -i 2 -o /scratch/coll",
        )
    }

    fn ior_random_offsets() -> Observed {
        ior(
            SystemConfig::fuchs_csc(),
            FaultPlan::none(),
            8,
            4,
            "ior -a posix -z -b 2m -t 64k -s 2 -C -i 2 -o /scratch/rand",
        )
    }

    fn ior_hdf5_stonewalled() -> Observed {
        let mut system = SystemConfig::test_small().with_noise(0.08);
        system.cluster.fabric_bandwidth = 0.2e9;
        let observed = ior(
            system,
            FaultPlan::none(),
            4,
            2,
            "ior -a hdf5 -D 1 -b 32m -t 1m -s 3 -F -e -i 1 -o /scratch/wall -k",
        );
        assert!(
            observed
                .trace
                .lines()
                .any(|l| l.starts_with("phase ") && !l.ends_with(" 0")),
            "the stonewall must actually skip ops"
        );
        observed
    }

    /// A hand-written script for what no driver emits: messages that cross
    /// nodes (a flow with a `Message` outcome) racing file writes, custom
    /// barrier groups, `Readdir` and `Rmdir`.
    fn raw_script_cross_node_messages() -> Observed {
        let faults = FaultPlan::none().with(Fault::degraded_node(1, 0.5, ms(1), ms(4)));
        let mut world = World::new(SystemConfig::test_small().with_noise(0.2), faults, 5);
        let np = 8;
        let mut set = ScriptSet::new(np);
        set.set_group_size(1, 4);
        set.set_group_size(2, 4);
        set.rank(0).mkdir("/scratch/raw");
        for rank in 0..np {
            set.rank(rank).barrier();
            let file = format!("/scratch/raw/f{}", rank % 4);
            let mut rs = set.rank(rank);
            rs.open(&file, OpenMode::Write)
                .send((rank + 2) % np, 3 << 20, 7)
                .write(&file, u64::from(rank) * 1_000_003, 1_000_003)
                .recv((rank + np - 2) % np, 7)
                .read(&file, u64::from(rank) * 1_000_003, 4096)
                .fsync(&file)
                .close(&file);
            if rank % 2 == 0 {
                rs.barrier_group(1);
            }
            rs.barrier().readdir("/scratch/raw");
        }
        for rank in 0..4 {
            set.rank(rank)
                .barrier_group(2)
                .unlink(&format!("/scratch/raw/f{rank}"));
        }
        for rank in 0..np {
            set.rank(rank).barrier();
        }
        set.rank(0).rmdir("/scratch/raw");
        let result = world.run(JobLayout::new(np, 2), &set).unwrap();
        Observed {
            output: String::new(),
            trace: trace_of(std::iter::once(&result), &world),
        }
    }

    fn hacc(mode: FileMode, api: IoApi, path: &str) -> Observed {
        let system = SystemConfig::test_small().with_noise(0.1);
        let mut world = World::new(system, FaultPlan::none(), 7);
        let config = HaccConfig::new(60_000, mode, api, path);
        let result = run_hacc(&mut world, JobLayout::new(8, 2), &config).unwrap();
        Observed {
            output: result.render(),
            trace: trace_of(
                std::iter::once(&result.checkpoint).chain(result.restart.as_ref()),
                &world,
            ),
        }
    }

    fn hacc_single_shared_file() -> Observed {
        let api = IoApi::MpiIo { collective: false };
        hacc(FileMode::SingleSharedFile, api, "/scratch/ssf")
    }

    fn hacc_file_per_process() -> Observed {
        hacc(FileMode::FilePerProcess, IoApi::Posix, "/scratch/fpp")
    }

    fn hacc_file_per_group() -> Observed {
        let mode = FileMode::FilePerGroup { group_size: 4 };
        hacc(mode, IoApi::Posix, "/scratch/fpg")
    }

    fn mdtest(config: &MdtestConfig) -> Observed {
        let faults = FaultPlan::none().with(Fault::slow_mds(1, 0.25, ms(3), ms(20)));
        let mut world = World::new(SystemConfig::fuchs_csc(), faults, 11);
        let result = run_mdtest(&mut world, JobLayout::new(16, 4), config).unwrap();
        Observed {
            output: result.render(),
            trace: trace_of(result.phases.iter().map(|(_, p)| p), &world),
        }
    }

    fn mdtest_easy() -> Observed {
        mdtest(&MdtestConfig::easy("/scratch", 24))
    }

    fn mdtest_hard() -> Observed {
        mdtest(&MdtestConfig::hard("/scratch", 16))
    }

    /// The paper's Fig. 6 shape: 40 ranks on FUCHS-CSC, a node degraded
    /// during `ior-easy-read` and an MDS during `mdtest-hard-stat`.
    fn io500_with_phase_faults() -> Observed {
        let forever = SimTime(u64::MAX);
        let mut world = World::new(SystemConfig::fuchs_csc(), FaultPlan::none(), 99);
        let mut schedule = PhaseFaults::new();
        schedule.insert(
            "ior-easy-read".to_owned(),
            FaultPlan::none().with(Fault::degraded_node(0, 0.2, SimTime::ZERO, forever)),
        );
        schedule.insert(
            "mdtest-hard-stat".to_owned(),
            FaultPlan::none().with(Fault::slow_mds(0, 0.3, SimTime::ZERO, forever)),
        );
        let result = run_io500_with_faults(
            &mut world,
            JobLayout::new(40, 20),
            &Io500Config::small("/scratch/io500"),
            &schedule,
        )
        .unwrap();
        let mut trace = String::new();
        for p in &result.phases {
            writeln!(trace, "{} {:?} {:?}", p.name, p.value, p.time_s).unwrap();
        }
        writeln!(trace, "now {}", world.now().nanos()).unwrap();
        Observed {
            output: result.render(),
            trace,
        }
    }

    type Scenario = fn() -> Observed;

    /// `(name, scenario, stable_hash(output), stable_hash(trace))`.
    #[rustfmt::skip]
    const PINNED: [(&str, Scenario, u64, u64); 12] = [
        ("corpus 96/42", corpus, 0x4ad9_45ed_ad69_bd46, 0x97f0_f76d_328b_95ae),
        ("reproducibility pipeline", repro_pipeline, 0x18a3_c32c_5a0a_f39a, 0xd1eb_d79a_3ed9_771b),
        ("ior collective, windowed faults", ior_collective_under_windowed_faults, 0x2056_2605_de52_270b, 0xc915_2f97_f62d_53fb),
        ("ior -z", ior_random_offsets, 0x1344_3ec0_2df8_4031, 0x72ae_ef20_79ca_f695),
        ("ior hdf5 -D 1", ior_hdf5_stonewalled, 0xfe24_abca_9ed1_8eee, 0x42f2_2ccc_2fb3_3fc3),
        ("raw script, cross-node messages", raw_script_cross_node_messages, 0xcbf2_9ce4_8422_2325, 0xa48a_8ec7_17ab_1c24),
        ("hacc single shared file", hacc_single_shared_file, 0xc71a_4a90_6eab_14c5, 0xc076_a5af_6709_f053),
        ("hacc file per process", hacc_file_per_process, 0xadb5_37bd_5f8f_81fa, 0x50a2_379f_44c1_0bf5),
        ("hacc file per group", hacc_file_per_group, 0x3932_c9f7_e188_c4f3, 0x5bcc_38cd_5757_0091),
        ("mdtest easy, windowed slow mds", mdtest_easy, 0x321e_3fd2_e467_fc94, 0x64b4_33cd_5860_346c),
        ("mdtest hard, windowed slow mds", mdtest_hard, 0x659e_92e0_aea0_6f17, 0x0cd2_bf83_494a_f0ed),
        ("io500 40 ranks, phase faults", io500_with_phase_faults, 0xd46f_1739_daf9_33c4, 0x0928_cf56_2e92_7789),
    ];

    #[test]
    fn simulator_output_is_pinned() {
        let mut moved = String::new();
        for (name, scenario, output, trace) in PINNED {
            let observed = scenario();
            let got = (stable_hash(&observed.output), stable_hash(&observed.trace));
            if got != (output, trace) {
                writeln!(
                    moved,
                    "{name}: output {:#018x} trace {:#018x}, pinned {output:#018x} / {trace:#018x}",
                    got.0, got.1
                )
                .unwrap();
            }
        }
        assert!(moved.is_empty(), "simulator bytes moved:\n{moved}");
    }
}
