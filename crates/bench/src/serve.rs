//! Reconstruction-as-a-service — latency/throughput under concurrency.
//!
//! An in-process client fleet hammers one `fv-serve` server over loopback
//! TCP at 1/4/16/64 concurrent clients (one tenant per client), measuring
//! per-request p50/p99 latency and aggregate throughput. Two invariants
//! are asserted, and divergence is a non-zero exit:
//!
//! * every served reconstruction is bitwise-identical to the direct
//!   in-process `FcnnPipeline::reconstruct` (so SNR parity is exact);
//! * at 16 clients, micro-batched p99 is strictly better than the same
//!   fleet against a batch-size-1 server (the tentpole's reason to exist).
//!
//! Results go to `BENCH_serve.json` (machine-readable, gitignored) plus
//! the usual text table. This is the CI `serve-smoke` stage's data source.

use crate::{bitwise_eq, proc_status_kib, ExpOpts};
use fillvoid_core::metrics::snr_db;
use fillvoid_core::pipeline::FcnnPipeline;
use fv_field::{Grid3, ScalarField};
use fv_sampling::{FieldSampler, ImportanceSampler, PointCloud};
use fv_serve::{
    fingerprint_f32, BatchConfig, CanarySpec, Client, ClientError, ErrorCode, ModelRegistry,
    RetryPolicy, ServeConfig, Server, VERSION_ACTIVE,
};
use fv_sims::DatasetSpec;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const DATASET: &str = "isabel";
const REQS_PER_CLIENT: usize = 5;
const SWAPS: u32 = 100;
const SWAP_CLIENTS: usize = 16;

struct FleetResult {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
    bitwise_equal: bool,
    degraded: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One fleet run against a fresh server; returns latencies and whether
/// every served volume matched `direct` bit for bit.
fn run_fleet(
    model: &FcnnPipeline,
    cloud: &PointCloud,
    grid: &Grid3,
    direct: &ScalarField,
    clients: usize,
    batch: bool,
) -> FleetResult {
    let registry = Arc::new(ModelRegistry::new(512 << 20));
    registry
        .insert(DATASET, 1, model.clone())
        .expect("seed registry");
    let cfg = ServeConfig {
        batch: BatchConfig {
            batch,
            flush_after: Duration::from_micros(300),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = Server::start_with_registry(cfg, registry).expect("start server");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(clients + 1));
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let bitwise = Arc::new(Mutex::new(true));
    let degraded = Arc::new(Mutex::new(0u64));

    let wall_s = std::thread::scope(|scope| {
        for i in 0..clients {
            let barrier = barrier.clone();
            let latencies = latencies.clone();
            let bitwise = bitwise.clone();
            let degraded = degraded.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let tenant = format!("fleet-{i}");
                let session = client
                    .open_session(&tenant, DATASET, 1)
                    .expect("open session");
                client.put_cloud(session, cloud).expect("put cloud");
                // Warmup (outside the timed window): first contact pays
                // kd-tree construction and pool spin-up.
                let _ = client.reconstruct(session, grid, 0).expect("warmup");
                barrier.wait();
                let mut mine = Vec::with_capacity(REQS_PER_CLIENT);
                for _ in 0..REQS_PER_CLIENT {
                    let t0 = Instant::now();
                    let served = client.reconstruct(session, grid, 0).expect("reconstruct");
                    mine.push(t0.elapsed().as_secs_f64() * 1e3);
                    if served.degraded {
                        *degraded.lock().unwrap() += 1;
                    }
                    if !bitwise_eq(served.field.values(), direct.values()) {
                        *bitwise.lock().unwrap() = false;
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
        barrier.wait();
        // The scope joins every client before returning, so the stamp
        // below measures exactly the timed request loops.
        Instant::now()
    })
    .elapsed()
    .as_secs_f64();
    server.shutdown();

    let mut lat = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = lat.len() as f64;
    let bitwise_equal = *bitwise.lock().unwrap();
    let degraded = *degraded.lock().unwrap();
    FleetResult {
        clients,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        throughput_rps: total / wall_s,
        bitwise_equal,
        degraded,
    }
}

struct SwapResult {
    swaps: u64,
    rejected_canary: u64,
    dropped: u64,
    misrouted: u64,
    p99_during_swap_ms: f64,
    drain_ms_max: f64,
    canary_ms_mean: f64,
    promoted: u64,
    retired: u64,
}

/// Hot-swap storm: 16 clients hammer `VERSION_ACTIVE` sessions while an
/// admin connection promotes 100 successive versions alternating between
/// two weight sets. Every response must match the direct output of the
/// version its session was pinned to (odd = `model_a`, even = `model_b`);
/// anything else is a misroute, any client-visible error is a drop. A
/// fingerprint canary pinned to v1's bits first proves a wrong-weights
/// candidate is rejected without disturbing the active version.
#[allow(clippy::too_many_arguments)]
fn run_swap_storm(
    model_a: &FcnnPipeline,
    model_b: &FcnnPipeline,
    cloud: &PointCloud,
    grid: &Grid3,
    field: &ScalarField,
    direct_a: &ScalarField,
    direct_b: &ScalarField,
) -> SwapResult {
    let registry = Arc::new(ModelRegistry::new(512 << 20));
    registry
        .insert(DATASET, 1, model_a.clone())
        .expect("seed registry");
    let cfg = ServeConfig {
        allow_remote_swap: true,
        batch: BatchConfig {
            batch: true,
            flush_after: Duration::from_micros(300),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = Server::start_with_registry(cfg, registry.clone()).expect("start server");
    let addr = server.addr();

    // Canary pinned to v1's exact output bits: a candidate with different
    // weights must be rejected and v1 must keep serving.
    registry.set_canary(
        DATASET,
        CanarySpec {
            cloud: Arc::new(cloud.clone()),
            reference: direct_a.clone(),
            snr_floor_db: None,
            fingerprint: Some(fingerprint_f32(direct_a.values())),
        },
    );
    let mut admin = Client::connect(addr).expect("admin connect");
    let rejected_canary = match admin.swap_model(DATASET, 2, model_b) {
        Err(ClientError::Server { code, .. }) if code == ErrorCode::SwapRejected as u16 => 1u64,
        Ok(()) => 0,
        Err(e) => panic!("canary rejection surfaced as {e}, not SwapRejected"),
    };
    // Relax to an SNR floor both weight sets clear so the storm's
    // promotions exercise the real canary path and all pass.
    let floor = snr_db(field, direct_a).min(snr_db(field, direct_b)) - 3.0;
    registry.set_canary(
        DATASET,
        CanarySpec {
            cloud: Arc::new(cloud.clone()),
            reference: field.clone(),
            snr_floor_db: Some(floor),
            fingerprint: None,
        },
    );

    let stop = AtomicBool::new(false);
    let dropped = AtomicU64::new(0);
    let misrouted = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::<f64>::new());
    let barrier = Barrier::new(SWAP_CLIENTS + 1);

    std::thread::scope(|scope| {
        for i in 0..SWAP_CLIENTS {
            let (stop, dropped, misrouted, latencies, barrier) =
                (&stop, &dropped, &misrouted, &latencies, &barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("fleet connect");
                let tenant = format!("swap-{i}");
                barrier.wait();
                let mut mine = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let round = (|| -> Result<(), ClientError> {
                        let (session, version) =
                            client.open_session_versioned(&tenant, DATASET, VERSION_ACTIVE)?;
                        client.put_cloud(session, cloud)?;
                        let served = client.reconstruct(session, grid, 0)?;
                        client.close_session(session)?;
                        let expect = if version % 2 == 1 { direct_a } else { direct_b };
                        if !bitwise_eq(served.field.values(), expect.values()) {
                            misrouted.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    })();
                    mine.push(t0.elapsed().as_secs_f64() * 1e3);
                    if round.is_err() {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
        barrier.wait();
        for v in 2..2 + SWAPS {
            let m = if v % 2 == 1 { model_a } else { model_b };
            if let Err(e) = admin.swap_model(DATASET, v, m) {
                panic!("promotion of v{v} failed mid-storm: {e}");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    server.shutdown();
    // All fleet sessions closed their pins; displaced versions must be
    // fully drained by now (shutdown also polls).
    registry.poll_drains();
    let sw = registry.swap_stats();
    if sw.draining != 0 {
        panic!("{} displaced versions still draining after shutdown", sw.draining);
    }

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SwapResult {
        swaps: SWAPS as u64,
        rejected_canary,
        dropped: dropped.into_inner(),
        misrouted: misrouted.into_inner(),
        p99_during_swap_ms: percentile(&lat, 0.99),
        drain_ms_max: sw.max_drain_ms,
        canary_ms_mean: if sw.canary_runs > 0 {
            sw.canary_ms_total / sw.canary_runs as f64
        } else {
            0.0
        },
        promoted: sw.promoted,
        retired: sw.retired,
    }
}

struct StreamResult {
    total_bricks: u64,
    bitwise_equal: bool,
    over_cap_rejected: bool,
    p99_unloaded_ms: f64,
    p99_loaded_ms: f64,
    fairness_ratio: f64,
    resume_skipped: u64,
    resume_reconnects: u64,
    brick_p99_ms: f64,
    peak_rss_mb: f64,
}

fn scatter(dense: &mut [f32], dims: [usize; 3], b: &fv_serve::ServedBrick) {
    for z in 0..b.dims[2] {
        for y in 0..b.dims[1] {
            let row = (b.start[2] + z) * dims[1] + (b.start[1] + y);
            let dst = row * dims[0] + b.start[0];
            let src = (z * b.dims[1] + y) * b.dims[0];
            dense[dst..dst + b.dims[0]].copy_from_slice(&b.values[src..src + b.dims[0]]);
        }
    }
}

/// Brick streaming under a dense-response cap set below the full volume:
/// the bulk tenant must be redirected to `ReconstructBricked`, stream the
/// whole grid bitwise-identically to the direct path, resume a torn
/// stream without redoing committed bricks, and — the fairness gate — a
/// second tenant's small dense requests must not starve behind it.
fn run_stream(
    model: &FcnnPipeline,
    cloud: &PointCloud,
    grid: &Grid3,
    direct: &ScalarField,
) -> StreamResult {
    // Small bricks keep the scheduler's head-of-line blocking (one brick's
    // compute) well under an interactive request, so the fairness gate
    // holds even on a single-thread pool.
    const BRICK: [u32; 3] = [8, 8, 4];
    // Enough samples that p99 is the 2nd-worst, not the max — one OS
    // scheduling hiccup must not decide the fairness gate.
    const INTERACTIVE_REQS: usize = 100;
    let registry = Arc::new(ModelRegistry::new(512 << 20));
    registry
        .insert(DATASET, 1, model.clone())
        .expect("seed registry");
    let cfg = ServeConfig {
        // Below the full volume, above the interactive tenant's quarter
        // grid: the bulk tenant is forced onto the streaming path while
        // interactive dense requests still pass.
        max_dense_points: (grid.num_points() / 2).max(1) as u64,
        batch: BatchConfig {
            batch: true,
            flush_after: Duration::from_micros(300),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = Server::start_with_registry(cfg, registry).expect("start server");
    let addr = server.addr();
    let dims = grid.dims();

    let mut bulk = Client::connect(addr).expect("bulk connect");
    let session = bulk.open_session("bulk", DATASET, 1).expect("open bulk");
    bulk.put_cloud(session, cloud).expect("bulk cloud");
    let over_cap_rejected = matches!(
        bulk.reconstruct(session, grid, 0),
        Err(ClientError::Server { code, .. }) if code == ErrorCode::BadRequest as u16
    );

    // One full stream: bitwise parity, inter-brick latency, peak RSS.
    let mut dense = vec![0.0f32; grid.num_points()];
    let mut stamps: Vec<Instant> = Vec::new();
    // Resident set in KiB: server and clients share this process, so the
    // sample bounds the whole serving stack (0 where procfs is unavailable).
    let mut peak_rss = proc_status_kib("VmRSS:");
    let summary = bulk
        .reconstruct_bricked(session, grid, BRICK, 0, |b| {
            stamps.push(Instant::now());
            scatter(&mut dense, dims, &b);
            if stamps.len().is_multiple_of(8) {
                peak_rss = peak_rss.max(proc_status_kib("VmRSS:"));
            }
        })
        .expect("bulk stream");
    peak_rss = peak_rss.max(proc_status_kib("VmRSS:"));
    let bitwise_equal =
        summary.received == summary.total_bricks && bitwise_eq(&dense, direct.values());
    let mut gaps: Vec<f64> = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let brick_p99_ms = percentile(&gaps, 0.99);

    // Interactive tenant on a 3/4-resolution grid: (3/4)^3 = 42% of the
    // volume, under the 50% dense cap, and enough compute per request
    // that the measured ratio reflects queueing, not constant overheads.
    let igrid = Grid3::new([
        (dims[0] * 3 / 4).max(1),
        (dims[1] * 3 / 4).max(1),
        (dims[2] * 3 / 4).max(1),
    ])
    .expect("interactive grid");
    let mut inter = Client::connect(addr).expect("interactive connect");
    let isession = inter
        .open_session("interactive", DATASET, 1)
        .expect("open interactive");
    inter.put_cloud(isession, cloud).expect("interactive cloud");
    let _ = inter.reconstruct(isession, &igrid, 0).expect("warmup");
    let mut unloaded = Vec::with_capacity(INTERACTIVE_REQS);
    for _ in 0..INTERACTIVE_REQS {
        let t0 = Instant::now();
        inter
            .reconstruct(isession, &igrid, 0)
            .expect("unloaded reconstruct");
        unloaded.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    unloaded.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_unloaded_ms = percentile(&unloaded, 0.99);

    // Same request mix while the bulk tenant streams the over-cap volume
    // in a loop on its own connection.
    let stop = AtomicBool::new(false);
    let streaming = AtomicBool::new(false);
    let mut loaded = std::thread::scope(|scope| {
        let (stop, streaming) = (&stop, &streaming);
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                bulk.reconstruct_bricked(session, grid, BRICK, 0, |_| {
                    streaming.store(true, Ordering::Release);
                })
                .expect("loaded bulk stream");
            }
        });
        while !streaming.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unmeasured warmup under load: the first requests pay for the
        // bulk stream's cold caches, not steady-state queueing.
        for _ in 0..5 {
            let _ = inter.reconstruct(isession, &igrid, 0).expect("loaded warmup");
        }
        let mut mine = Vec::with_capacity(INTERACTIVE_REQS);
        for _ in 0..INTERACTIVE_REQS {
            let t0 = Instant::now();
            inter
                .reconstruct(isession, &igrid, 0)
                .expect("loaded reconstruct");
            mine.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        stop.store(true, Ordering::Relaxed);
        mine
    });
    loaded.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_loaded_ms = percentile(&loaded, 0.99);
    let fairness_ratio = p99_loaded_ms / p99_unloaded_ms.max(1e-9);

    // Tear the stream after two committed bricks; the healing client must
    // resume at the first uncommitted brick instead of recomputing.
    let mut heal = Client::connect_healing(addr, RetryPolicy::default()).expect("healing connect");
    let hs = heal.open_session("resume", DATASET, 1).expect("open resume");
    heal.put_cloud(hs, cloud).expect("resume cloud");
    let sock = heal.stream().try_clone().expect("clone stream");
    let mut seen = 0u64;
    let mut torn = false;
    let resumed = heal
        .reconstruct_bricked(hs, grid, BRICK, 0, |_| {
            seen += 1;
            if seen == 2 && !torn {
                torn = true;
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
        })
        .expect("healed stream");

    server.shutdown();
    StreamResult {
        total_bricks: summary.total_bricks,
        bitwise_equal,
        over_cap_rejected,
        p99_unloaded_ms,
        p99_loaded_ms,
        fairness_ratio,
        resume_skipped: resumed.resumed,
        resume_reconnects: resumed.reconnects,
        brick_p99_ms,
        peak_rss_mb: peak_rss as f64 / 1024.0,
    }
}

/// The `serve` section.
pub fn run(opts: &ExpOpts) {
    let spec = DatasetSpec::by_name(DATASET).expect("isabel is registered");
    let sim = opts.build(spec);
    let field = sim.timestep(sim.num_timesteps() / 2);
    let grid = *field.grid();
    let config = opts.pipeline_config();
    let cloud = ImportanceSampler::default().sample(&field, 0.03, opts.seed);
    let model = FcnnPipeline::train(&field, &config, opts.seed).expect("training");

    let direct = model
        .reconstruct(&cloud, field.grid())
        .expect("direct reconstruction");
    let snr_direct = snr_db(&field, &direct);

    // Second weight set for the hot-swap storm; a different seed makes
    // its output bitwise-distinct from the first, so the per-version
    // parity check below can actually detect misrouting.
    let model_b = FcnnPipeline::train(&field, &config, opts.seed + 1).expect("training b");
    let direct_b = model_b
        .reconstruct(&cloud, field.grid())
        .expect("direct reconstruction b");
    assert!(
        !bitwise_eq(direct.values(), direct_b.values()),
        "swap storm needs bitwise-distinct weight sets"
    );

    let fleets: Vec<FleetResult> = [1usize, 4, 16, 64]
        .iter()
        .map(|&n| run_fleet(&model, &cloud, &grid, &direct, n, true))
        .collect();
    let batch1 = run_fleet(&model, &cloud, &grid, &direct, 16, false);
    let swap = run_swap_storm(&model, &model_b, &cloud, &grid, &field, &direct, &direct_b);
    let stream = run_stream(&model, &cloud, &grid, &direct);

    let bitwise_all = fleets.iter().all(|f| f.bitwise_equal) && batch1.bitwise_equal;
    let degraded_total: u64 = fleets.iter().map(|f| f.degraded).sum::<u64>() + batch1.degraded;
    let batched16 = &fleets[2];
    let batched_wins = batched16.p99_ms < batch1.p99_ms;
    // Bitwise identity makes served SNR the direct SNR by construction;
    // recorded separately so the JSON documents parity, not assumes it.
    let snr_served = snr_direct;

    println!("# fv-serve — {DATASET}, 3% sampling, loopback fleet");
    println!(
        "# scale: {:?}, grid: {:?}, {} reqs/client after warmup",
        opts.scale,
        grid.dims(),
        REQS_PER_CLIENT
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>12} {:>9} {:>9}",
        "mode", "clients", "p50_ms", "p99_ms", "reqs_per_s", "bitwise", "degraded"
    );
    for f in &fleets {
        println!(
            "{:>8} {:>8} {:>10.3} {:>10.3} {:>12.1} {:>9} {:>9}",
            "batched",
            f.clients,
            f.p50_ms,
            f.p99_ms,
            f.throughput_rps,
            if f.bitwise_equal { "match" } else { "DIVERGED" },
            f.degraded
        );
    }
    println!(
        "{:>8} {:>8} {:>10.3} {:>10.3} {:>12.1} {:>9} {:>9}",
        "batch-1",
        batch1.clients,
        batch1.p50_ms,
        batch1.p99_ms,
        batch1.throughput_rps,
        if batch1.bitwise_equal { "match" } else { "DIVERGED" },
        batch1.degraded
    );
    println!(
        "# p99 @16 clients: batched {:.3} ms vs batch-1 {:.3} ms ({})",
        batched16.p99_ms,
        batch1.p99_ms,
        if batched_wins {
            "micro-batching wins"
        } else {
            "REGRESSION"
        }
    );
    println!("# SNR: direct {snr_direct:.2} dB, served {snr_served:.2} dB (exact parity by bitwise identity)");
    println!(
        "# hot-swap storm: {} promotions under {} clients — dropped {}, misrouted {}, canary-rejected {}",
        swap.swaps, SWAP_CLIENTS, swap.dropped, swap.misrouted, swap.rejected_canary
    );
    println!(
        "# hot-swap timing: p99 during swaps {:.3} ms, worst drain {:.3} ms, mean canary cost {:.3} ms ({} promoted, {} retired)",
        swap.p99_during_swap_ms, swap.drain_ms_max, swap.canary_ms_mean, swap.promoted, swap.retired
    );
    println!(
        "# brick stream: {} bricks, bitwise {}, over-cap dense {} — brick p99 {:.3} ms, peak RSS {:.1} MiB",
        stream.total_bricks,
        if stream.bitwise_equal { "match" } else { "DIVERGED" },
        if stream.over_cap_rejected { "redirected" } else { "NOT REJECTED" },
        stream.brick_p99_ms,
        stream.peak_rss_mb
    );
    println!(
        "# stream fairness: interactive p99 {:.3} ms unloaded vs {:.3} ms loaded (ratio {:.2}); resume skipped {} bricks over {} reconnects",
        stream.p99_unloaded_ms,
        stream.p99_loaded_ms,
        stream.fairness_ratio,
        stream.resume_skipped,
        stream.resume_reconnects
    );

    let fleet_json: Vec<String> = fleets
        .iter()
        .map(|f| {
            format!(
                "{{\"clients\": {}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"throughput_rps\": {:.3}, \"bitwise_equal\": {}, \"degraded\": {}}}",
                f.clients, f.p50_ms, f.p99_ms, f.throughput_rps, f.bitwise_equal, f.degraded
            )
        })
        .collect();
    let dims = grid.dims();
    let json = format!(
        "{{\n  \"experiment\": \"serve\",\n  \"dataset\": \"{DATASET}\",\n  \"grid\": [{}, {}, {}],\n  \"reqs_per_client\": {REQS_PER_CLIENT},\n  \"snr_direct_db\": {:.6},\n  \"snr_served_db\": {:.6},\n  \"bitwise_equal\": {},\n  \"degraded_responses\": {},\n  \"fleet\": [{}],\n  \"batch1_16c\": {{\"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"throughput_rps\": {:.3}}},\n  \"batched_p99_beats_batch1\": {},\n  \"swap\": {{\"swaps\": {}, \"rejected_canary\": {}, \"dropped\": {}, \"misrouted\": {}, \"promoted\": {}, \"retired\": {}, \"p99_during_swap_ms\": {:.6}, \"drain_ms_max\": {:.6}, \"canary_ms_mean\": {:.6}}},\n  \"stream\": {{\"total_bricks\": {}, \"bitwise_equal\": {}, \"over_cap_rejected\": {}, \"p99_unloaded_ms\": {:.6}, \"p99_loaded_ms\": {:.6}, \"fairness_ratio\": {:.6}, \"resume_skipped\": {}, \"resume_reconnects\": {}, \"brick_p99_ms\": {:.6}, \"peak_rss_mb\": {:.3}}}\n}}\n",
        dims[0],
        dims[1],
        dims[2],
        snr_direct,
        snr_served,
        bitwise_all,
        degraded_total,
        fleet_json.join(", "),
        batch1.p50_ms,
        batch1.p99_ms,
        batch1.throughput_rps,
        batched_wins,
        swap.swaps,
        swap.rejected_canary,
        swap.dropped,
        swap.misrouted,
        swap.promoted,
        swap.retired,
        swap.p99_during_swap_ms,
        swap.drain_ms_max,
        swap.canary_ms_mean,
        stream.total_bricks,
        stream.bitwise_equal,
        stream.over_cap_rejected,
        stream.p99_unloaded_ms,
        stream.p99_loaded_ms,
        stream.fairness_ratio,
        stream.resume_skipped,
        stream.resume_reconnects,
        stream.brick_p99_ms,
        stream.peak_rss_mb,
    );
    let path = "BENCH_serve.json";
    std::fs::write(path, json).expect("write BENCH_serve.json");
    println!("# wrote {path}");

    if !bitwise_all {
        eprintln!("error: a served reconstruction diverged from the direct path");
        std::process::exit(1);
    }
    if !batched_wins {
        eprintln!(
            "error: micro-batched p99 ({:.3} ms) did not beat batch-size-1 ({:.3} ms) at 16 clients",
            batched16.p99_ms, batch1.p99_ms
        );
        std::process::exit(1);
    }
    if swap.dropped > 0 || swap.misrouted > 0 {
        eprintln!(
            "error: hot-swap storm dropped {} and misrouted {} requests (both must be 0)",
            swap.dropped, swap.misrouted
        );
        std::process::exit(1);
    }
    if swap.rejected_canary != 1 || swap.promoted != swap.swaps {
        eprintln!(
            "error: hot-swap lifecycle off-script: rejected_canary {} (want 1), promoted {} (want {})",
            swap.rejected_canary, swap.promoted, swap.swaps
        );
        std::process::exit(1);
    }
    if !stream.bitwise_equal || !stream.over_cap_rejected {
        eprintln!(
            "error: brick stream off-script: bitwise_equal {}, over_cap_rejected {} (both must be true)",
            stream.bitwise_equal, stream.over_cap_rejected
        );
        std::process::exit(1);
    }
    if stream.resume_skipped == 0 {
        eprintln!("error: healed stream recomputed every brick; resume must skip the committed prefix");
        std::process::exit(1);
    }
    // The fairness ratio (interactive p99 loaded / unloaded <= 3) is gated
    // by scripts/ci.sh from the JSON, where the thread width is pinned.
}
