//! Property-based tests over the core invariants: policies map tiles to
//! valid semaphores with exact post/wait accounting, tile orders are
//! permutations, the DSL-generated artifacts are sound for arbitrary
//! grids, and the simulator is deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use cusync::{
    BatchedRowSync, Conv2DTileSync, CuStage, NoSync, RowSync, StridedSync, SyncGraph, SyncPolicy,
    TileOrder, TileSchedule, TileSync,
};
use cusync_kernels::{GemmBuilder, GemmDims, InputDep, TileShape};
use cusync_sim::{DType, Dim3, Gpu, GpuConfig, Session, SimTime};
use cusyncgen::{check_spec, policies_for, producer_order, AffineExpr, DepSpec, Pattern};
use proptest::prelude::*;

fn grid_strategy() -> impl Strategy<Value = Dim3> {
    (1u32..12, 1u32..12, 1u32..4).prop_map(|(x, y, z)| Dim3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Posting every tile of the grid once per z-slice reaches exactly the
    /// expected value of every request — the fundamental soundness
    /// condition of a policy (waits eventually succeed, never early).
    #[test]
    fn policy_post_wait_accounting(grid in grid_strategy(), which in 0usize..5) {
        let policy: Arc<dyn SyncPolicy> = match which {
            0 => Arc::new(TileSync),
            1 => Arc::new(RowSync),
            2 => Arc::new(StridedSync::new(1 + grid.x / 3, 1)),
            3 => Arc::new(BatchedRowSync::new(1 + grid.y / 2)),
            _ => Arc::new(Conv2DTileSync::new(9)),
        };
        let num = policy.num_sems(grid);
        prop_assume!(num > 0);
        let mut sems = vec![0u32; num];
        for tile in grid.iter() {
            let s = policy.post_sem(Dim3::new(tile.x, tile.y, 0), grid) as usize;
            prop_assert!(s < num, "post_sem out of range");
            sems[s] += 1;
        }
        // For the exhaustive policies (Tile/Row/Batched), every tile's
        // expected value must equal the total posts its semaphore gets.
        if which == 0 || which == 1 || which == 3 {
            for tile in grid.iter() {
                let t = Dim3::new(tile.x, tile.y, 0);
                let s = policy.post_sem(t, grid) as usize;
                prop_assert_eq!(
                    sems[s], policy.expected(t, grid),
                    "sem {} of {}", s, policy.name()
                );
            }
        }
    }

    /// Every built-in and generated tile order is a bijection.
    #[test]
    fn orders_are_permutations(grid in grid_strategy(), group in 1u32..5) {
        let schedule = TileSchedule::build(&cusync::RowMajor, grid).unwrap();
        prop_assert_eq!(schedule.len() as u64, grid.count());
        let schedule = TileSchedule::build(&cusync::ColumnMajor, grid).unwrap();
        prop_assert_eq!(schedule.len() as u64, grid.count());
        // A generated grouped order over a strided dependence.
        let flat = Dim3::new(grid.x * group, grid.y, 1);
        let order = cusync::order::producer_grouped_order(
            "gen",
            flat,
            Dim3::new(grid.x, grid.y, 1),
            |c| (0..group).map(|g| Dim3::new(c.x + g * grid.x, c.y, 0)).collect(),
        );
        let schedule = TileSchedule::build(&order, flat).unwrap();
        prop_assert_eq!(schedule.len() as u64, flat.count());
    }

    /// cuSyncGen accepts exactly the in-bounds ForAllX specs, and its
    /// generated producer order is a valid schedule.
    #[test]
    fn generated_artifacts_are_sound(px in 1u32..10, py in 1u32..10, cx in 1u32..10) {
        let mut spec = DepSpec::new();
        let g1 = spec.grid("g1", Dim3::new(px, py, 1));
        let g2 = spec.grid("g2", Dim3::new(cx, py, 1));
        spec.depend(g2, g1, Pattern::ForAllX(AffineExpr::y()));
        prop_assert!(check_spec(&spec).is_ok());
        let dep = &spec.deps()[0];
        let policies = policies_for(&spec, dep);
        prop_assert!(!policies.is_empty());
        for p in &policies {
            prop_assert!(p.policy.num_sems(Dim3::new(px, py, 1)) > 0);
        }
        let order = producer_order(&spec, dep);
        let schedule = TileSchedule::build(&order, Dim3::new(px, py, 1)).unwrap();
        prop_assert_eq!(schedule.len() as u64, (px * py) as u64);
        let _ = order.position(Dim3::new(0, 0, 0), Dim3::new(px, py, 1));
    }

    /// Random small MLP chains under generated policies are race-free and
    /// complete without deadlock.
    #[test]
    fn random_chains_race_free(mt in 1u32..5, nt in 1u32..5, kt in 1u32..5, pick in 0usize..2) {
        let tile = TileShape::new(8, 8, 8);
        let (m, h, k) = (mt * 8, nt * 8, kt * 8);
        let mut spec = DepSpec::new();
        let grid1 = Dim3::new(h / 8, m / 8, 1);
        let grid2 = Dim3::new(k / 8, m / 8, 1);
        let g1 = spec.grid("g1", grid1);
        let g2 = spec.grid("g2", grid2);
        spec.depend(g2, g1, Pattern::ForAllX(AffineExpr::y()));
        check_spec(&spec).unwrap();
        let policy = &policies_for(&spec, &spec.deps()[0])[pick];

        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        });
        let data = |len: usize| (0..len).map(|i| (i % 7) as f32 * 0.1).collect::<Vec<_>>();
        let x = gpu.mem_mut().alloc_data("x", data((m * k) as usize), DType::F16);
        let w1 = gpu.mem_mut().alloc_data("w1", data((k * h) as usize), DType::F16);
        let w2 = gpu.mem_mut().alloc_data("w2", data((h * k) as usize), DType::F16);
        let xw1 = gpu.mem_mut().alloc_poisoned("xw1", (m * h) as usize, DType::F16);
        let out = gpu.mem_mut().alloc_poisoned("out", (m * k) as usize, DType::F16);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(
            CuStage::new("g1", grid1).policy_ref(Arc::clone(&policy.policy)),
        );
        let s2 = graph.add_stage(CuStage::new("g2", grid2).policy(NoSync));
        graph.dependency(s1, s2, xw1).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let k1 = GemmBuilder::new("g1", GemmDims::new(m, h, k), tile)
            .operands(x, w1, xw1)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config()).expect("operands set");
        let k2 = GemmBuilder::new("g2", GemmDims::new(m, k, h), tile)
            .operands(xw1, w2, out)
            .stage(Arc::clone(bound.stage(s2)))
            .a_dep(InputDep::row_aligned(grid1), grid1.x)
            .build(gpu.config()).expect("operands set");
        bound.launch(&mut gpu, s1, Arc::new(k1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(k2)).unwrap();
        let report = gpu.compile().and_then(|p| Session::new().run(&p)).expect("deadlock");
        prop_assert_eq!(report.races, 0);
    }

    /// Dim3 linearization round-trips.
    #[test]
    fn dim3_roundtrip(grid in grid_strategy(), i in 0u64..1000) {
        let i = i % grid.count();
        prop_assert_eq!(grid.linear_of(grid.delinear(i)), i);
    }
}

#[test]
fn simulation_is_deterministic() {
    // Identical workloads must produce identical timelines, including
    // jitter and residency effects.
    let run = || {
        let mut gpu = Gpu::new(GpuConfig::tesla_v100());
        let a = gpu.alloc("a", 1 << 20, DType::F16);
        let b = gpu.alloc("b", 1 << 20, DType::F16);
        let c = gpu.alloc("c", 1 << 20, DType::F16);
        let gemm = GemmBuilder::new(
            "g",
            GemmDims::new(512, 1024, 2048),
            TileShape::new(128, 128, 32),
        )
        .operands(a, b, c)
        .build(gpu.config())
        .expect("operands set");
        let stream = gpu.create_stream(0);
        gpu.launch(stream, Arc::new(gemm));
        gpu.compile().and_then(|p| Session::new().run(&p)).unwrap()
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1, r2);
}

#[test]
fn policy_names_are_distinct() {
    let grid = Dim3::new(6, 4, 1);
    let policies: Vec<Arc<dyn SyncPolicy>> = vec![
        Arc::new(TileSync),
        Arc::new(RowSync),
        Arc::new(StridedSync::new(2, 3)),
        Arc::new(Conv2DTileSync::new(9)),
        Arc::new(BatchedRowSync::new(2)),
        Arc::new(NoSync),
    ];
    let mut names = HashMap::new();
    for p in &policies {
        assert!(
            names.insert(p.name(), p.num_sems(grid)).is_none(),
            "{}",
            p.name()
        );
    }
}
