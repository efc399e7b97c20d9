//! Static op programs ≡ driven coroutines.
//!
//! `KernelSource::static_programs` hands the optimized engine every
//! block's op program in one call, so the engine never constructs or
//! resumes a body for that kernel. The emitters hoist work out of the
//! per-block loop (pricing per extent class, waits per grid row), so
//! this file is their spec: for every block of every statically emitting
//! kernel family — across the sync policies, optimizations, dependency
//! plans and tile shapes the emitters special-case — the emitted program
//! must equal the ops from driving `block(idx)` to `Step::Done`.

use std::collections::HashSet;
use std::sync::Arc;

use cusync::{
    BatchedRowSync, Conv2DTileSync, CuStage, NoSync, OptFlags, PolicyRef, RowSync, StageRuntime,
    StridedSync, SyncGraph, SyncMechanism, TileSync,
};
use cusync_kernels::{
    Conv2DBuilder, Conv2DShape, CopyKernel, DepPlan, GemmBuilder, GemmDims, InputDep,
    SoftmaxDropoutBuilder, TileShape,
};
use cusync_sim::{
    BlockCtx, BufferId, DType, Dim3, FixedKernel, GlobalMemory, Gpu, GpuConfig, IndexedKernel,
    KernelSource, Op, Programs, SemTable, SimTime, Step,
};

/// `+WT`: no custom tile order (so no atomic counter), R off.
const WT: OptFlags = OptFlags {
    avoid_wait_kernel: true,
    reorder_loads: false,
    avoid_custom_order: true,
};

/// Drives block `idx` of `kernel` to completion and returns its ops.
fn driven(kernel: &dyn KernelSource, idx: Dim3, mem: &mut GlobalMemory) -> Vec<Op> {
    let sems = SemTable::new();
    let mut body = kernel.block(idx);
    let mut ops = Vec::new();
    loop {
        let mut ctx = BlockCtx {
            block: idx,
            now: SimTime::ZERO,
            mem,
            sems: &sems,
            atomic_result: None,
        };
        match body.resume(&mut ctx) {
            Step::Op(op) => ops.push(op),
            Step::Done => return ops,
        }
    }
}

/// Asserts `kernel` emits one program per block, each equal to the
/// block's driven ops, and that the interned [`Programs`] decode back to
/// exactly the emitted programs; returns them in linear block order.
fn assert_emits_driven(kernel: &dyn KernelSource, mem: &GlobalMemory, what: &str) -> Vec<Vec<Op>> {
    let mut programs: Vec<Vec<Op>> = Vec::new();
    let emitted = kernel.static_programs(mem, &mut |ops, _| programs.push(ops.to_vec()));
    assert!(emitted, "{what}: declined to emit");
    let grid = kernel.grid();
    assert_eq!(programs.len() as u64, grid.count(), "{what}: program count");
    let mut scratch = mem.clone();
    for (linear, program) in programs.iter().enumerate() {
        let idx = grid.delinear(linear as u64);
        assert_eq!(
            program,
            &driven(kernel, idx, &mut scratch),
            "{what}: block {idx:?}"
        );
    }
    assert_interned(kernel, mem, &programs, what);
    programs
}

/// Asserts the interned programs of `kernel` decode to `programs` and
/// that their op table holds each op once.
fn assert_interned(
    kernel: &dyn KernelSource,
    mem: &GlobalMemory,
    programs: &[Vec<Op>],
    what: &str,
) {
    let interned = Programs::collect([kernel], mem);
    for (linear, program) in programs.iter().enumerate() {
        let decoded: Vec<Op> = interned
            .block(0, linear as u64)
            .expect("an emitting kernel is pre-driven")
            .collect();
        assert_eq!(&decoded, program, "{what}: interned block {linear}");
    }
    let total: usize = programs.iter().map(Vec::len).sum();
    assert_eq!(interned.len(), total, "{what}: interned op count");
    let distinct: HashSet<Op> = interned.ops().iter().copied().collect();
    assert_eq!(
        distinct.len(),
        interned.ops().len(),
        "{what}: duplicate ops"
    );
}

/// Asserts `kernel` declines under `mem` without calling the sink.
fn assert_declines(kernel: &dyn KernelSource, mem: &GlobalMemory, what: &str) {
    let mut calls = 0;
    assert!(
        !kernel.static_programs(mem, &mut |_, _| calls += 1),
        "{what}: emitted"
    );
    assert_eq!(calls, 0, "{what}: sink called");
    let interned = Programs::collect([kernel], mem);
    assert!(interned.block(0, 0).is_none(), "{what}: pre-driven");
    assert!(interned.is_empty(), "{what}: interned ops");
}

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::toy(8))
}

/// One producer edge of [`bind`]: the producer's grid and policy, the
/// buffer it writes, and the edge mechanism (`None`: the policy's waits).
struct Edge {
    grid: Dim3,
    policy: PolicyRef,
    buffer: BufferId,
    mechanism: Option<SyncMechanism>,
}

impl Edge {
    fn fine(grid: Dim3, policy: PolicyRef, buffer: BufferId) -> Self {
        Edge {
            grid,
            policy,
            buffer,
            mechanism: None,
        }
    }
}

/// Binds a consumer stage of `grid` reading from one producer stage per
/// edge, and returns the consumer's runtime.
fn bind(gpu: &mut Gpu, grid: Dim3, opts: OptFlags, edges: &[Edge]) -> Arc<StageRuntime> {
    let mut graph = SyncGraph::new();
    let cons = graph.add_stage(CuStage::new("cons", grid).opts(opts));
    for (i, e) in edges.iter().enumerate() {
        let prod = graph.add_stage(
            CuStage::new(&format!("prod{i}"), e.grid)
                .policy_ref(Arc::clone(&e.policy))
                .opts(OptFlags::WRT),
        );
        match e.mechanism {
            Some(m) => graph.dependency_via(prod, cons, e.buffer, m),
            None => graph.dependency(prod, cons, e.buffer),
        }
        .expect("edge");
    }
    let bound = graph.bind(gpu).expect("bind");
    Arc::clone(bound.stage(cons))
}

fn policies() -> Vec<PolicyRef> {
    vec![
        Arc::new(TileSync),
        Arc::new(RowSync),
        Arc::new(StridedSync::new(2, 2)),
        Arc::new(BatchedRowSync::new(2)),
        Arc::new(NoSync),
    ]
}

fn plans() -> Vec<DepPlan> {
    vec![
        DepPlan::RowAligned { x_offset_tiles: 0 },
        DepPlan::RowAligned { x_offset_tiles: 1 },
        DepPlan::Strided {
            x_offsets: vec![0, 2],
        },
        // Waits that differ per block, not per row.
        DepPlan::Custom(Arc::new(|tile: Dim3, chunk: u32| {
            vec![
                Dim3::new(chunk % 4, tile.y % 3, 0),
                Dim3::new((tile.x + chunk) % 4, 0, 0),
            ]
        })),
    ]
}

#[test]
fn fixed_and_indexed_kernels_emit_their_op_lists() {
    let mem = GlobalMemory::new();
    let ops = vec![Op::compute(7), Op::read(64), Op::write(32)];
    let fixed = FixedKernel::new("fixed", Dim3::new(3, 2, 1), 1, ops.clone());
    let programs = assert_emits_driven(&fixed, &mem, "fixed");
    assert!(programs.iter().all(|p| p == &ops));
    let indexed = IndexedKernel::new("indexed", Dim3::new(2, 3, 2), 1, |idx| {
        vec![Op::compute(1 + idx.x as u64); (idx.y + idx.z) as usize]
    });
    assert_emits_driven(&indexed, &mem, "indexed");
}

#[test]
fn gemm_programs_match_driven_bodies() {
    // Ragged in every dimension: 3x3 tiles of 8 over 20x22.
    let dims = GemmDims::new(20, 22, 36);
    let tile = TileShape::new(8, 8, 8);
    let prod_grid = Dim3::new(4, 3, 1);
    for policy in policies() {
        for plan in plans() {
            for opts in [WT, OptFlags::WRT] {
                for (split_k, chunks) in [(1, 1), (1, 4), (3, 5)] {
                    let mut gpu = gpu();
                    let a = gpu.alloc("a", 20 * 36, DType::F16);
                    let b = gpu.alloc("b", 36 * 22, DType::F16);
                    let c = gpu.alloc("c", 20 * 22, DType::F16);
                    let grid = Dim3::new(3, 3, split_k);
                    let edges = [Edge::fine(prod_grid, Arc::clone(&policy), a)];
                    let stage = bind(&mut gpu, grid, opts, &edges);
                    let dep = InputDep {
                        prod_grid,
                        plan: plan.clone(),
                    };
                    let gemm = GemmBuilder::new("g", dims, tile)
                        .operands(a, b, c)
                        .split_k(split_k)
                        .epilogue(cusync_kernels::Epilogue::Gelu)
                        .stage(stage)
                        .a_dep(dep, chunks)
                        .build(gpu.config())
                        .expect("gemm");
                    let what = format!("{policy:?} {plan:?} {opts} split_k={split_k}");
                    assert_emits_driven(&gemm, gpu.mem(), &what);
                }
            }
        }
    }
}

#[test]
fn gemm_empty_k_slices_swiglu_and_b_deps_match() {
    let tile = TileShape::new(8, 8, 8);
    let prod_grid = Dim3::new(4, 2, 1);
    // k = 40 over 16 slices of 3: slices 14 and 15 are empty. With one
    // grid row, consecutive blocks cross z-slices within row 0.
    for (dims, split_k) in [
        (GemmDims::new(16, 16, 40), 16),
        (GemmDims::new(16, 24, 40), 2),
        (GemmDims::new(8, 8, 40), 3),
    ] {
        let mut gpu = gpu();
        let comb = gpu.alloc("comb", (dims.m * 2 * dims.k) as usize, DType::F16);
        let b = gpu.alloc("b", (dims.k * dims.n) as usize, DType::F16);
        let c = gpu.alloc("c", (dims.m * dims.n) as usize, DType::F16);
        let grid = Dim3::new(dims.n / 8, dims.m / 8, split_k);
        let edges = [
            Edge::fine(prod_grid, Arc::new(TileSync), comb),
            Edge::fine(prod_grid, Arc::new(RowSync), b),
        ];
        let stage = bind(&mut gpu, grid, OptFlags::WRT, &edges);
        let gemm = GemmBuilder::new("g3", dims, tile)
            .swiglu_a(comb)
            .operands_b_c(b, c)
            .split_k(split_k)
            .stage(stage)
            .a_dep(InputDep::row_aligned(prod_grid), 4)
            .b_dep(
                InputDep {
                    prod_grid,
                    plan: DepPlan::Strided {
                        x_offsets: vec![0, 1],
                    },
                },
                2,
            )
            .build(gpu.config())
            .expect("gemm");
        let programs = assert_emits_driven(&gemm, gpu.mem(), &format!("split_k={split_k}"));
        if split_k == 16 {
            // An empty slice keeps only its store and posts.
            let last = programs.last().expect("blocks");
            assert!(last.iter().all(|op| !matches!(op, Op::MainStep { .. })));
        }
    }
}

#[test]
fn pdl_grid_waits_precede_fine_waits() {
    let mut gpu = gpu();
    let prod_grid = Dim3::new(2, 2, 1);
    let a = gpu.alloc("a", 16 * 16, DType::F16);
    let b = gpu.alloc("b", 16 * 16, DType::F16);
    let c = gpu.alloc("c", 16 * 16, DType::F16);
    let edges = [
        Edge {
            mechanism: Some(SyncMechanism::Pdl),
            ..Edge::fine(prod_grid, Arc::new(TileSync), a)
        },
        Edge::fine(prod_grid, Arc::new(TileSync), b),
    ];
    let stage = bind(&mut gpu, prod_grid, WT, &edges);
    let grid_waits = stage.grid_wait_ops();
    assert_eq!(grid_waits.len(), 1);
    let gemm = GemmBuilder::new("g", GemmDims::new(16, 16, 16), TileShape::new(8, 8, 8))
        .operands(a, b, c)
        .stage(Arc::clone(&stage))
        .a_dep(InputDep::row_aligned(prod_grid), 2)
        .b_dep(InputDep::row_aligned(prod_grid), 2)
        .build(gpu.config())
        .expect("gemm");
    for (linear, program) in assert_emits_driven(&gemm, gpu.mem(), "pdl gemm")
        .iter()
        .enumerate()
    {
        let at = usize::from(linear == 0); // after block (0,0,0)'s start post
        assert_eq!(program[at], grid_waits[0], "block {linear}");
    }

    let mid = gpu.alloc("mid", 64, DType::F16);
    let copy_grid = Dim3::linear(8);
    let edges = [Edge {
        mechanism: Some(SyncMechanism::Pdl),
        ..Edge::fine(copy_grid, Arc::new(TileSync), mid)
    }];
    let stage = bind(&mut gpu, copy_grid, WT, &edges);
    let out = gpu.alloc("out", 64, DType::F16);
    let copy = CopyKernel::new("copy", 60, 8, mid, out).with_stage(stage, true);
    assert_emits_driven(&copy, gpu.mem(), "pdl copy");
}

#[test]
fn conv_programs_match_driven_bodies() {
    // 2 x 5 x 6 pixels = 60 implicit-GeMM rows over tiles of 16 (ragged),
    // 12 (ragged) or 16 output channels over tiles of 8.
    let tile = TileShape::new(16, 8, 4);
    for k in [12, 16] {
        let shape = Conv2DShape {
            batch: 2,
            p: 5,
            q: 6,
            c: 12,
            k,
            r: 3,
            s: 3,
        };
        let grid = Dim3::new(2, 4, 1);
        let conv_policies: Vec<PolicyRef> = vec![
            Arc::new(Conv2DTileSync::new(shape.rs())),
            Arc::new(TileSync),
            Arc::new(RowSync),
            Arc::new(NoSync),
        ];
        for policy in conv_policies {
            for plan in [
                DepPlan::RowAligned { x_offset_tiles: 0 },
                // Per-block waits, with a duplicate for the dedup.
                DepPlan::Custom(Arc::new(|tile: Dim3, step: u32| {
                    let req = Dim3::new((step + tile.x) % 2, tile.y, 0);
                    vec![req, req]
                })),
            ] {
                for halo_safe in [true, false] {
                    for opts in [WT, OptFlags::WRT] {
                        let mut gpu = gpu();
                        let input = gpu.alloc("in", 60 * 12, DType::F16);
                        let weights = gpu.alloc("w", (9 * 12 * k) as usize, DType::F16);
                        let output = gpu.alloc("out", 60 * k as usize, DType::F16);
                        let edges = [Edge::fine(grid, Arc::clone(&policy), input)];
                        let stage = bind(&mut gpu, grid, opts, &edges);
                        let mut builder = Conv2DBuilder::new("conv", shape, tile)
                            .operands(input, weights, output)
                            .stage(stage)
                            .input_dep(InputDep {
                                prod_grid: grid,
                                plan: plan.clone(),
                            });
                        if !halo_safe {
                            builder = builder.paper_literal_waits();
                        }
                        let conv = builder.build(gpu.config()).expect("conv");
                        let what =
                            format!("k={k} {policy:?} {plan:?} halo_safe={halo_safe} {opts}");
                        assert_emits_driven(&conv, gpu.mem(), &what);
                    }
                }
            }
        }
    }
    let shape = Conv2DShape {
        batch: 2,
        p: 5,
        q: 6,
        c: 12,
        k: 12,
        r: 3,
        s: 3,
    };
    // Unsynchronized: no stage, no dependency.
    let mut gpu = gpu();
    let input = gpu.alloc("in", 60 * 12, DType::F16);
    let weights = gpu.alloc("w", 9 * 12 * 12, DType::F16);
    let output = gpu.alloc("out", 60 * 12, DType::F16);
    let conv = Conv2DBuilder::new("conv", shape, tile)
        .operands(input, weights, output)
        .build(gpu.config())
        .expect("conv");
    assert_emits_driven(&conv, gpu.mem(), "no stage");
}

#[test]
fn softmax_and_copy_programs_match_driven_bodies() {
    let prod_grid = Dim3::new(3, 3, 1);
    for policy in policies() {
        for plan in plans() {
            let mut gpu = gpu();
            let p = gpu.alloc("p", 20 * 22, DType::F16);
            let r = gpu.alloc("r", 20 * 22, DType::F16);
            let edges = [Edge::fine(prod_grid, Arc::clone(&policy), p)];
            let stage = bind(&mut gpu, Dim3::new(3, 3, 1), WT, &edges);
            let softmax = SoftmaxDropoutBuilder::new("sm", 20, 22, TileShape::new(8, 8, 1))
                .operands(p, r)
                .stage(stage)
                .input_dep(InputDep {
                    prod_grid,
                    plan: plan.clone(),
                })
                .build(gpu.config())
                .expect("softmax");
            assert_emits_driven(&softmax, gpu.mem(), &format!("{policy:?} {plan:?}"));
        }
        for depends_on_src in [true, false] {
            let mut gpu = gpu();
            let mid = gpu.alloc("mid", 60, DType::F16);
            let out = gpu.alloc("out", 60, DType::F16);
            let grid = Dim3::linear(8);
            let stage = bind(
                &mut gpu,
                grid,
                WT,
                &[Edge::fine(grid, Arc::clone(&policy), mid)],
            );
            // 60 elements over blocks of 8: the last block is ragged.
            let copy = CopyKernel::new("copy", 60, 8, mid, out).with_stage(stage, depends_on_src);
            assert_emits_driven(&copy, gpu.mem(), &format!("{policy:?} copy"));
        }
    }
}

#[test]
fn only_block_zero_posts_the_start_semaphore() {
    let mut gpu = gpu();
    let a = gpu.alloc("a", 16 * 16, DType::F16);
    let b = gpu.alloc("b", 16 * 16, DType::F16);
    let c = gpu.alloc("c", 16 * 16, DType::F16);
    let stage = bind(&mut gpu, Dim3::new(2, 2, 2), WT, &[]);
    let start = Op::post(stage.start_sem(), 0);
    let gemm = GemmBuilder::new("g", GemmDims::new(16, 16, 16), TileShape::new(8, 8, 8))
        .operands(a, b, c)
        .split_k(2)
        .stage(stage)
        .build(gpu.config())
        .expect("gemm");
    let programs = assert_emits_driven(&gemm, gpu.mem(), "start post");
    assert_eq!(programs[0][0], start);
    assert!(programs[1..].iter().all(|p| !p.contains(&start)));
}

#[test]
fn context_dependent_kernels_decline_without_emitting() {
    let prod_grid = Dim3::new(2, 2, 1);
    let tile = TileShape::new(8, 8, 8);
    let shape = Conv2DShape::square3x3(1, 4, 8, 8);
    for functional in [true, false] {
        // Functional output, or (timing-only) the atomic tile counter a
        // stage without +T draws its tile order from.
        let mut gpu = gpu();
        let opts = if functional { WT } else { OptFlags::R };
        let alloc = |gpu: &mut Gpu, name: &str, len: u32| {
            if functional {
                gpu.mem_mut().alloc_poisoned(name, len as usize, DType::F16)
            } else {
                gpu.alloc(name, len as usize, DType::F16)
            }
        };
        let a = gpu.alloc("a", 16 * 16, DType::F16);
        let b = gpu.alloc("b", 16 * 16, DType::F16);
        let c = alloc(&mut gpu, "c", 16 * 16);
        let stage = bind(
            &mut gpu,
            prod_grid,
            opts,
            &[Edge::fine(prod_grid, Arc::new(TileSync), a)],
        );
        assert_eq!(stage.tile_counter().is_some(), !functional);
        let gemm = GemmBuilder::new("g", GemmDims::new(16, 16, 16), tile)
            .operands(a, b, c)
            .stage(Arc::clone(&stage))
            .a_dep(InputDep::row_aligned(prod_grid), 2)
            .build(gpu.config())
            .expect("gemm");
        assert_declines(&gemm, gpu.mem(), "gemm");

        let weights = gpu.alloc("w", 9 * 8 * 8, DType::F16);
        let conv_out = alloc(&mut gpu, "conv_out", 16 * 8);
        let conv = Conv2DBuilder::new("conv", shape, tile)
            .operands(a, weights, conv_out)
            .stage(Arc::clone(&stage))
            .build(gpu.config())
            .expect("conv");
        assert_declines(&conv, gpu.mem(), "conv");

        let sm_out = alloc(&mut gpu, "sm_out", 16 * 16);
        let softmax = SoftmaxDropoutBuilder::new("sm", 16, 16, TileShape::new(8, 8, 1))
            .operands(a, sm_out)
            .stage(Arc::clone(&stage))
            .build(gpu.config())
            .expect("softmax");
        assert_declines(&softmax, gpu.mem(), "softmax");

        let copy_out = alloc(&mut gpu, "copy_out", 16);
        let copy = CopyKernel::new("copy", 16, 8, a, copy_out).with_stage(stage, true);
        assert_declines(&copy, gpu.mem(), "copy");
    }
}

/// An emitter that claims its first program repeats a previous one.
struct RepeatsNothing;

impl KernelSource for RepeatsNothing {
    fn name(&self) -> &str {
        "repeats-nothing"
    }

    fn grid(&self) -> Dim3 {
        Dim3::linear(1)
    }

    fn occupancy(&self) -> u32 {
        1
    }

    fn block(&self, _block: Dim3) -> Box<dyn cusync_sim::BlockBody> {
        unreachable!("only the static programs are collected")
    }

    fn static_programs(&self, _mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        sink(&[Op::compute(1)], 1);
        true
    }
}

#[test]
#[should_panic(expected = "repeats more ops than the previous block has")]
fn a_first_program_cannot_repeat_ops() {
    Programs::collect([&RepeatsNothing as &dyn KernelSource], &GlobalMemory::new());
}
