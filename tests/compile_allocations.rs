//! Allocation regression test for the analytic slice walk.
//!
//! The walk that compiles both Table II variants reuses its per-slice buffers
//! (the DFG, the CSE pair counts and occurrence lists, the schedule and the
//! column state) from one slice to the next, and builds no instruction when
//! programs are not retained. A counting global allocator pins that: compiling
//! a ResNet-18 layer must take fewer heap allocations than the layer has
//! slices, so a per-slice allocation cannot creep back in.

use apc::{CompilerOptions, LayerCompiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tnn::model::resnet18;

/// The system allocator, counting the allocations of the thread that enables
/// counting.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread-locals may already be gone while a thread exits.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|counting| counting.set(true));
    let result = f();
    COUNTING.with(|counting| counting.set(false));
    (ALLOCATIONS.with(Cell::get), result)
}

#[test]
fn analytic_compile_allocates_less_than_once_per_slice() {
    let model = resnet18(0.8, 7);
    let layer = model
        .conv_like_layers()
        .into_iter()
        .find(|l| l.name == "layer4_1_conv2")
        .expect("layer4_1_conv2");
    let compiler = LayerCompiler::new(CompilerOptions::default());
    let (allocations, [unroll, cse]) = allocations_of(|| compiler.compile_both(&layer));
    let (unroll, cse) = (unroll.expect("unroll"), cse.expect("unroll+CSE"));
    let slices = cse.stats.slices;
    assert_eq!(slices, unroll.stats.slices);
    assert_eq!(slices, 1536, "512 input channels over three output tiles");
    assert!(cse.stats.cse_signals > 0);
    assert!(
        allocations < slices,
        "{allocations} allocations for {slices} slices"
    );
}
