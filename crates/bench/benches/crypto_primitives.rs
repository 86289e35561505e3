//! Micro-benchmarks of the from-scratch cryptographic substrate.
//!
//! Not a paper artifact — an engineering sanity check that the
//! primitives backing the mutual-authentication handshake and the
//! encrypted channels are fast enough that `real_crypto_handshakes`
//! simulations remain practical (the handshake costs 4 HMAC-SHA-256
//! evaluations per pull: ≈ 1.3 µs where SHA-256 runs on the CPU's SHA
//! extensions, ≈ 6.4 µs on the portable compress loop — the first line
//! printed says which of the two these timings were taken on).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use raptee_crypto::chacha20;
use raptee_crypto::hmac::hmac_sha256;
use raptee_crypto::sha256::{self, Sha256};
use raptee_crypto::{Authenticator, SecretKey};
use std::hint::black_box;

fn primitives(c: &mut Criterion) {
    println!("sha256 backend: {}", sha256::backend());
    let mut group = c.benchmark_group("crypto");
    group.sample_size(30);

    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("sha256/{size}B"), |b| {
            b.iter(|| black_box(Sha256::digest(&data)))
        });
        group.bench_function(format!("chacha20/{size}B"), |b| {
            let key = [7u8; 32];
            let nonce = [1u8; 12];
            b.iter(|| black_box(chacha20::encrypt(&key, &nonce, &data)))
        });
    }

    group.throughput(Throughput::Elements(1));
    group.bench_function("hmac_sha256/64B", |b| {
        let key = [9u8; 32];
        let msg = [3u8; 64];
        b.iter(|| black_box(hmac_sha256(&key, &msg)))
    });

    group.bench_function("mutual_auth_handshake", |b| {
        let alice = Authenticator::new(SecretKey::from_seed(1));
        let bob = Authenticator::new(SecretKey::from_seed(1));
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let mut nonce_a = [0u8; 16];
            nonce_a[..8].copy_from_slice(&n.to_le_bytes());
            let (ch, ap) = alice.initiate(nonce_a);
            let (resp, bp) = bob.respond(&ch, [2; 16]);
            let (oa, confirm) = alice.verify_response(&ap, &resp);
            let ob = bob.verify_confirm(&bp, &confirm);
            black_box((oa, ob))
        })
    });
    group.finish();
}

criterion_group!(benches, primitives);
criterion_main!(benches);
