//! Ablation A11: the zero-copy wire codec.
//!
//! Two measurements, one per codec optimisation:
//!
//! 1. **Wall-clock seal/open throughput** — the seed codec (bitwise CRC32,
//!    body copied into a fresh `Vec` on seal and again on open) against the
//!    shipped codec (dispatching CRC — carry-less-multiply kernel where the
//!    CPU has it, slice-by-8 tables otherwise — chained-segment trailer,
//!    zero-copy open). The seed path is reproduced locally in [`seed`] so
//!    the comparison survives the refactor that deleted it. Both shipped
//!    CRC paths are also timed on their own, and must agree with the
//!    bitwise reference bit for bit.
//! 2. **Allocations per control message** — a counting global allocator
//!    measures the fresh-`Vec` encode path against the reusable
//!    [`EncodeBuf`] arena, and asserts the seal/open cycle of a 4 MiB
//!    block allocates nowhere near the payload size (zero bulk copies).
//!
//! Wall-clock numbers are hardware-dependent: they go to stdout only, so
//! `results/ablation_codec.json` holds just the deterministic allocation
//! and heap-byte counts (two runs write byte-identical JSON).
//!
//! Set `DACC_SMOKE=1` for a reduced run (CI smoke).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dacc_bench::json::{write_results, Json};
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::payload::Payload;
use dacc_runtime::proto::{crc32, open_block, seal_block, Crc32, Request, WireProtocol};

// ---------------------------------------------------------------------------
// Counting allocator: every heap request in the process is tallied so the
// bench can report allocations (and bytes) per codec operation.

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// (calls, bytes) allocated while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
        out,
    )
}

// ---------------------------------------------------------------------------
// The seed codec, reproduced for the ablation baseline: bitwise CRC32 and
// copying seal/open. This is what the hot path did before the refactor.

mod seed {
    /// Bitwise (one bit per inner iteration) CRC-32, IEEE reflected
    /// polynomial — identical output to `proto::crc32` on every path.
    pub fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Seed seal: copy the body into a fresh buffer and append the CRC.
    pub fn seal_copy(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 4);
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32_bitwise(body).to_le_bytes());
        out
    }

    /// Seed open: verify the trailer and copy the body back out.
    pub fn open_copy(sealed: &[u8]) -> Option<Vec<u8>> {
        if sealed.len() < 4 {
            return None;
        }
        let (body, trailer) = sealed.split_at(sealed.len() - 4);
        if crc32_bitwise(body).to_le_bytes() != trailer {
            return None;
        }
        Some(body.to_vec())
    }
}

// ---------------------------------------------------------------------------

fn gib_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / secs
}

/// A representative hot-path control message (an H2D header).
fn sample_request() -> Request {
    Request::MemCpyH2D {
        dst: dacc_vgpu::prelude::DevicePtr(0x1000),
        len: 1 << 20,
        protocol: WireProtocol::Pipeline { block: 128 << 10 },
    }
}

fn main() {
    let smoke = dacc_bench::smoke();
    let buf_len: usize = if smoke { 1 << 20 } else { 8 << 20 };
    let passes: u32 = if smoke { 2 } else { 4 };
    let msgs: u64 = if smoke { 2_000 } else { 20_000 };

    println!("# Ablation: zero-copy wire codec (seed vs shipped hot path)");
    println!("  seed = bitwise CRC32 + copying seal/open + fresh-Vec encode\n");

    // -- 1. Wall-clock: raw CRC, then the full seal+open cycle. ------------
    let body: Vec<u8> = (0..buf_len)
        .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
        .collect();
    let total = u64::from(passes) * body.len() as u64;

    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..passes {
        acc ^= seed::crc32_bitwise(&body);
    }
    let crc_seed_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for _ in 0..passes {
        acc ^= crc32(&body);
    }
    let crc_new_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    // Each shipped path on its own: the portable tables always, the kernel
    // only where this CPU can run it.
    let t = Instant::now();
    let mut table = Crc32::new();
    for _ in 0..passes {
        table = Crc32::new();
        table.update_table(&body);
    }
    let crc_table_gibs = gib_per_s(total, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut kernel = Crc32::new();
    let mut kernel_ran = false;
    for _ in 0..passes {
        kernel = Crc32::new();
        kernel_ran = kernel.update_clmul(&body);
    }
    let crc_kernel_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let reference = seed::crc32_bitwise(&body);
    assert_eq!(
        table.finalize(),
        reference,
        "slice-by-8 CRC diverged from the bitwise reference"
    );
    if kernel_ran {
        assert_eq!(
            kernel.finalize(),
            reference,
            "carry-less-multiply CRC diverged from the bitwise reference"
        );
    }
    assert_eq!(
        crc32(&body),
        reference,
        "dispatching CRC diverged from the bitwise reference"
    );

    let t = Instant::now();
    for _ in 0..passes {
        let sealed = seed::seal_copy(&body);
        let opened = seed::open_copy(&sealed).expect("seed open failed");
        acc ^= u32::from(opened[0]);
    }
    let cycle_seed_gibs = gib_per_s(total, t.elapsed().as_secs_f64());

    let payload = Payload::from_vec(body.clone());
    let t = Instant::now();
    for _ in 0..passes {
        let sealed = seal_block(&payload);
        let opened = open_block(&sealed).expect("open_block failed");
        acc ^= u32::from(opened.segments()[0][0]);
    }
    let cycle_new_gibs = gib_per_s(total, t.elapsed().as_secs_f64());
    std::hint::black_box(acc);

    let crc_speedup = crc_new_gibs / crc_seed_gibs;
    let cycle_speedup = cycle_new_gibs / cycle_seed_gibs;
    let path = Crc32::long_input_path();
    println!("CRC32 throughput        : seed {crc_seed_gibs:.2} GiB/s, {path} {crc_new_gibs:.2} GiB/s ({crc_speedup:.1}x)");
    let kernel_gibs = if kernel_ran {
        format!("{crc_kernel_gibs:.2} GiB/s")
    } else {
        "n/a on this CPU".to_string()
    };
    println!("  per path              : slice-by-8 {crc_table_gibs:.2} GiB/s, pclmulqdq fold-by-4 {kernel_gibs}");
    println!("seal+open cycle         : seed {cycle_seed_gibs:.2} GiB/s, zero-copy {cycle_new_gibs:.2} GiB/s ({cycle_speedup:.1}x)");
    assert!(
        cycle_speedup >= 5.0,
        "zero-copy seal+open must beat the seed path by >= 5x wall-clock \
         (got {cycle_speedup:.2}x)"
    );

    // -- 2. Allocations per message, and the zero-bulk-copy invariant. -----
    let req = sample_request();
    // Warm both paths so one-time setup isn't billed to either.
    std::hint::black_box(req.encode());
    let mut arena = EncodeBuf::new();
    std::hint::black_box(req.encode_into(&mut arena));

    let (naive_calls, _, _) = count_allocs(|| {
        for _ in 0..msgs {
            let p = Payload::from_vec(req.encode());
            std::hint::black_box(&p);
        }
    });
    let (arena_calls, _, _) = count_allocs(|| {
        for _ in 0..msgs {
            let p = Payload::from_bytes(req.encode_into(&mut arena));
            std::hint::black_box(&p);
        }
    });
    let naive_per_msg = naive_calls as f64 / msgs as f64;
    let arena_per_msg = arena_calls as f64 / msgs as f64;
    println!("\nencode allocations/msg  : fresh-Vec {naive_per_msg:.2}, arena {arena_per_msg:.2}");
    assert!(
        naive_per_msg >= 1.0,
        "fresh-Vec encode should allocate every message (got {naive_per_msg:.2}/msg)"
    );
    assert!(
        arena_per_msg < naive_per_msg / 2.0,
        "arena encode must at least halve allocations per message \
         (naive {naive_per_msg:.2}, arena {arena_per_msg:.2})"
    );

    let bulk = Payload::from_vec(vec![0xA5u8; 4 << 20]);
    let (_, seal_open_bytes, _) = count_allocs(|| {
        let sealed = seal_block(&bulk);
        let opened = open_block(&sealed).expect("bulk open failed");
        std::hint::black_box(&opened);
    });
    println!(
        "seal+open of 4 MiB block: {seal_open_bytes} heap bytes allocated \
         (payload {} bytes)",
        bulk.len()
    );
    assert!(
        seal_open_bytes < bulk.len() / 8,
        "seal+open must not copy the bulk payload \
         ({seal_open_bytes} heap bytes for a {} byte block)",
        bulk.len()
    );

    write_results(
        "ablation_codec",
        &Json::obj([
            (
                "title",
                Json::from("Ablation: zero-copy wire codec (seed vs shipped hot path)"),
            ),
            ("encode_allocs_per_msg_naive", Json::from(naive_per_msg)),
            ("encode_allocs_per_msg_arena", Json::from(arena_per_msg)),
            ("seal_open_4mib_heap_bytes", Json::from(seal_open_bytes)),
        ]),
    );
}
