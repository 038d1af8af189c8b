//! Wire codec throughput: class files and captured states, encode and
//! decode.
use criterion::{criterion_group, criterion_main, Criterion};
use sod_bench::codec::synthetic_state;
use sod_vm::wire::{decode_class, decode_state, encode_class, encode_state};
use sod_workloads::programs::{fft_class, nqueens_class};

fn bench(c: &mut Criterion) {
    let classes = [nqueens_class(), fft_class()];
    let mut g = c.benchmark_group("codec");
    for class in &classes {
        let encoded = encode_class(class).unwrap();
        g.bench_function(format!("encode_{}", class.name), |b| {
            b.iter(|| encode_class(class).unwrap())
        });
        g.bench_function(format!("decode_{}", class.name), |b| {
            b.iter(|| decode_class(encoded.clone()).unwrap())
        });
    }
    for (name, state) in [
        ("state_2f", synthetic_state(2, 6)),
        ("state_32f", synthetic_state(32, 16)),
    ] {
        let frame = encode_state(&state).unwrap();
        g.bench_function(format!("encode_{name}"), |b| {
            b.iter(|| encode_state(&state).unwrap())
        });
        g.bench_function(format!("decode_{name}"), |b| {
            b.iter(|| decode_state(frame.clone()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
