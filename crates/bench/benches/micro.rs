//! Criterion micro-benchmarks of the substrate: CAM searches, bit-serial AP
//! arithmetic and the functional controller.

use ap::{ApController, ApInstruction, CarrySlot, CostModel, Operand};
use cam::{CamArray, CamTechnology, SearchKey};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cam_search(c: &mut Criterion) {
    let mut array = CamArray::new(256, 8, 16, CamTechnology::default()).expect("array");
    for row in 0..256 {
        array.write_bit(0, row, 0, row % 2 == 0).expect("write");
        array.write_bit(1, row, 0, row % 3 == 0).expect("write");
    }
    array.align_column(0, 0).expect("align");
    array.align_column(1, 0).expect("align");
    let key = SearchKey::new().with(0, true).with(1, false);
    c.bench_function("cam_masked_search_256_rows", |b| {
        b.iter(|| black_box(array.search(black_box(&key)).expect("search")))
    });
}

fn bench_ap_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("ap_bit_serial_add");
    for &width in &[4u8, 8, 16] {
        group.bench_function(format!("in_place_{width}bit_256_rows"), |b| {
            let array = CamArray::new(256, 4, 48, CamTechnology::default()).expect("array");
            let mut ap = ApController::new(array);
            let a = Operand::new(0, 0, width, false);
            let acc = Operand::new(1, 0, width + 4, true);
            let values: Vec<i64> = (0..256).map(|i| i % (1 << width.min(8))).collect();
            ap.load_column(&a, &values).expect("load");
            ap.load_column(&acc, &vec![0; 256]).expect("load");
            let add = ApInstruction::AddInPlace {
                a,
                acc,
                carry: CarrySlot::new(2, 0),
            };
            b.iter(|| ap.execute(black_box(&add)).expect("execute"));
        });
    }
    group.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    let model = CostModel::new(256);
    let add = ApInstruction::AddInPlace {
        a: Operand::new(0, 0, 4, false),
        acc: Operand::new(1, 0, 12, true),
        carry: CarrySlot::new(2, 0),
    };
    c.bench_function("cost_model_in_place_add", |b| {
        b.iter(|| black_box(model.instruction_stats(black_box(&add))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cam_search, bench_ap_add, bench_cost_model
}
criterion_main!(benches);
