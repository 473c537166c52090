//! Allocation regression test for the functional per-call path.
//!
//! A warm batch — every layer compiled, every pass plan lowered — stages each
//! unit's packed columns straight from the layer input through the layer's
//! gather map, serves its slice plans from one per-layer table, runs them
//! through the engine's reusable sweep buffer and senses the accumulators
//! into one flat buffer per unit. `run_batch` is the one functional entry,
//! so this is also what a served batch costs. A process-wide counting global
//! allocator pins that: the rayon workers' allocations count too, so this
//! binary holds exactly one test and nothing else allocates while it counts.

use apc::CompileCache;
use camdnn::FunctionalBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tnn::model::micro_cnn;

/// The system allocator, counting every allocation of the process while
/// counting is on.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

/// Heap allocations (and reallocations) made by the whole process during `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

#[test]
fn a_warm_functional_batch_stays_under_its_allocation_budget() {
    let model = micro_cnn("micro_cnn", 8, 0.8, 42);
    let backend = FunctionalBackend::default();
    let cache = CompileCache::new();
    // Budgets sit 12–20 % above the counts measured on x86-64 Linux
    // (B = 8: 376, B = 1: 133): one heap allocation per plan run or per
    // cloned weight tensor would break them.
    for (batch, budget) in [(8usize, 420u64), (1, 160)] {
        let inputs: Vec<_> = (0..batch)
            .map(|sample| FunctionalBackend::input_for_sample(&model, 4, 7, sample))
            .collect();
        // The cold run compiles the layers, partitions and lowers the plans
        // (and starts the rayon pool); the warm run is what a served batch
        // of this size costs.
        let cold = backend.run_batch(&model, &inputs, &cache).expect("cold");
        let (allocations, warm) =
            allocations_of(|| backend.run_batch(&model, &inputs, &cache).expect("warm"));
        assert!(warm.is_bit_exact());
        assert_eq!(warm, cold);
        assert!(
            allocations <= budget,
            "a warm batch of {batch} made {allocations} allocations (budget {budget})"
        );
    }
}
