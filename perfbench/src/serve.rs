//! `serve-interactive`: an in-process `fv-serve` server on loopback holds
//! the paper-width model. Two tenants, each on its own connection and
//! client thread, upload a 3% cloud from a different isabel timestep at
//! `Scale::Tiny` and request dense `Reconstruct`s of that grid (about
//! 4.8k void rows each, less than one prediction batch).
//!
//! * Phase A is an open loop at the fixed rate [`RATE`]: each tenant sends
//!   on its own schedule, latency counts from each request's due time, and
//!   the generator's lateness is reported.
//! * Phase B is a closed loop on the same two connections: capacity.
//!
//! The clouds differ, so cloud interning and flush-group dedup are
//! bypassed and every request pays for kNN, features and forward.

use crate::common::{
    isabel, median_and_tail, paper_width_config, peak_rss_mb, timed, Args, Report, CLOUD_FRACTION,
    SETUPS, SYSTEM_SEED,
};
use crate::model::{report_pretrain_layers, report_recon_layers, widths, ReconCase};
use crate::probes::{linear_reconstruct, queries};
use crate::stats::{due_time, fnv1a_f32, limit_misses, median, OpenLoopSample};
use crate::trace::{Tracer, ROOT};
use fillvoid_core::metrics::snr_db;
use fillvoid_core::pipeline::PipelineConfig;
use fillvoid_core::{FcnnPipeline, ReconstructWorkspace};
use fv_field::ScalarField;
use fv_sampling::{FieldSampler, ImportanceSampler, PointCloud};
use fv_serve::{Client, ModelRegistry, ServeConfig, Server, VERSION_ACTIVE};
use fv_sims::Scale;
use std::sync::Arc;
use std::time::Instant;

const WORKLOAD: &str = "serve-interactive";
/// Pretraining epochs (all void rows of one 3% sample).
const PRETRAIN_EPOCHS: usize = 5;
/// Phase A offered load, requests per second over both tenants. Set at
/// about 60% of the Phase B capacity measured at the seed commit.
pub const RATE: f64 = 16.0;
/// Phase A latency limit, seconds from the due time.
pub const LATENCY_LIMIT_S: f64 = 0.15;
/// Share of each round spent in Phase A; Phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.7;
/// Rounds per run (see [`run_rounds`]).
const ROUNDS: usize = 5;
/// In-process reconstructions of each tenant's request per round.
const COMPUTE_PER_ROUND: usize = 6;
/// A request sent later than this after its due time counts as late.
const LATE_S: f64 = 0.001;
const TENANTS: usize = 2;

struct Tenant {
    client: Client,
    session: u64,
    truth: ScalarField,
    cloud: PointCloud,
    fingerprint: u64,
}

struct Inputs {
    server: Server,
    model: FcnnPipeline,
    pretrain_field: ScalarField,
    tenants: Vec<Tenant>,
    sample_s: f64,
}

fn config() -> PipelineConfig {
    paper_width_config(CLOUD_FRACTION, 1.0, PRETRAIN_EPOCHS)
}

/// Data generation, model fit, server start, connections and uploads.
fn setup(seed: u64) -> Inputs {
    let sim = isabel(Scale::Tiny);
    let t = sim.num_timesteps() / 2;
    let pretrain_field = sim.timestep(t);
    let model = FcnnPipeline::train(&pretrain_field, &config(), SYSTEM_SEED)
        .expect("paper-width pretraining");
    let registry = Arc::new(ModelRegistry::new(256 << 20));
    registry
        .insert("isabel", 1, model.clone())
        .expect("register model");
    let server =
        Server::start_with_registry(ServeConfig::default(), registry).expect("start server");
    let mut sample_s = 0.0;
    let tenants = (0..TENANTS)
        .map(|i| {
            let truth = sim.timestep(t + 1 + i);
            let (cloud, s) = timed(|| {
                ImportanceSampler::default().sample(
                    &truth,
                    CLOUD_FRACTION,
                    seed.wrapping_add(i as u64),
                )
            });
            sample_s += s;
            let mut client = Client::connect(server.addr()).expect("connect");
            let session = client
                .open_session(&format!("tenant-{i}"), "isabel", VERSION_ACTIVE)
                .expect("open session");
            client.put_cloud(session, &cloud).expect("upload cloud");
            let reference = model
                .reconstruct(&cloud, truth.grid())
                .expect("reference reconstruct");
            Tenant {
                client,
                session,
                fingerprint: fnv1a_f32(reference.values()),
                truth,
                cloud,
            }
        })
        .collect();
    Inputs {
        server,
        model,
        pretrain_field,
        tenants,
        sample_s: sample_s / TENANTS as f64,
    }
}

/// One request on a tenant's connection, checked bitwise against the
/// in-process reconstruction. Returns whether it succeeded.
fn request(report: &mut Report, tenant: &mut Tenant) -> bool {
    let grid = *tenant.truth.grid();
    let served = tenant.client.reconstruct(tenant.session, &grid, 0);
    let ok = matches!(&served, Ok(f) if !f.degraded && fnv1a_f32(f.field.values()) == tenant.fingerprint);
    report.check(ok, || match &served {
        Ok(f) if f.degraded => format!("degraded response: {}", f.reason),
        Ok(_) => "served field differs from the in-process reconstruction".into(),
        Err(e) => format!("request failed: {e}"),
    });
    ok
}

/// Phase A on one tenant: `n` requests due every `period` seconds from
/// `origin + offset`, traced under request ids `first_id..`.
fn open_loop(
    tenant: &mut Tenant,
    origin: Instant,
    offset: f64,
    period: f64,
    n: usize,
    tracer: &mut Tracer,
    first_id: u64,
) -> (Report, Vec<OpenLoopSample>) {
    let mut report = Report::default();
    let samples = (0..n)
        .map(|i| {
            let due = due_time(offset, period, i);
            let now = origin.elapsed().as_secs_f64();
            if now < due {
                std::thread::sleep(std::time::Duration::from_secs_f64(due - now));
            }
            let sent_at = Instant::now();
            let ok = request(&mut report, tenant);
            let done_at = Instant::now();
            let rid = first_id + i as u64;
            let due_at = origin + std::time::Duration::from_secs_f64(due);
            let span = tracer.record("serve.request", due_at, done_at, ROOT, rid);
            tracer.record("serve.client_call", sent_at, done_at, span, rid);
            let at = |t: Instant| (t - origin).as_secs_f64();
            OpenLoopSample {
                due,
                sent: at(sent_at).max(due),
                done: ok.then(|| at(done_at)),
            }
        })
        .collect();
    (report, samples)
}

/// Everything a run measures, pooled over its rounds.
#[derive(Default)]
struct Measured {
    open: Vec<OpenLoopSample>,
    closed_requests: usize,
    closed_s: f64,
    compute: Vec<f64>,
    linear: Vec<f64>,
}

/// Run [`ROUNDS`] rounds of: a Phase A open-loop segment, a Phase B
/// closed-loop segment, then a few in-process reconstructions of each
/// tenant's request. Interleaving them means a slow spell on the host
/// touches every measurement alike instead of one phase.
fn run_rounds(
    report: &mut Report,
    tenants: &mut [Tenant],
    model: &FcnnPipeline,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured {
    let round_s = seconds / ROUNDS as f64;
    let per_tenant = ((RATE * round_s * PHASE_A_SHARE) / TENANTS as f64)
        .round()
        .max(2.0) as usize;
    let period = TENANTS as f64 / RATE;
    let mut m = Measured::default();
    let mut ws = ReconstructWorkspace::default();
    for round in 0..ROUNDS {
        let origin = Instant::now();
        let results: Vec<(Report, Vec<OpenLoopSample>, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = tenants
                .iter_mut()
                .enumerate()
                .map(|(i, t)| {
                    let (enabled, trace_origin) = (tracer.is_enabled(), tracer.origin());
                    s.spawn(move || {
                        let mut tr = Tracer::new(trace_origin, enabled);
                        let offset = 0.02 + period * i as f64 / TENANTS as f64;
                        let ids = ((i as u64 + 1) << 32) | (round * per_tenant) as u64;
                        let (r, samples) =
                            open_loop(t, origin, offset, period, per_tenant, &mut tr, ids);
                        (r, samples, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop client thread"))
                .collect()
        });
        for (r, samples, tr) in results {
            report.merge(r);
            m.open.extend(samples);
            tracer.absorb(tr);
        }

        let closed_s = round_s * (1.0 - PHASE_A_SHARE);
        let start = Instant::now();
        let counts: Vec<(Report, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = tenants
                .iter_mut()
                .map(|t| {
                    s.spawn(move || {
                        let mut r = Report::default();
                        let mut n = 0;
                        while start.elapsed().as_secs_f64() < closed_s {
                            n += usize::from(request(&mut r, t));
                        }
                        (r, n)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client thread"))
                .collect()
        });
        m.closed_s += start.elapsed().as_secs_f64();
        for (r, n) in counts {
            report.merge(r);
            m.closed_requests += n;
        }

        for t in tenants.iter() {
            let grid = *t.truth.grid();
            for _ in 0..COMPUTE_PER_ROUND {
                let (out, s) = timed(|| {
                    model
                        .reconstruct_with(&t.cloud, &grid, &mut ws)
                        .expect("reconstruct")
                });
                report.check(fnv1a_f32(out.values()) == t.fingerprint, || {
                    "in-process reconstruct differs from the first".into()
                });
                m.compute.push(s);
                // The linear baseline takes a few milliseconds here: more
                // samples keep its median steady.
                for _ in 0..3 {
                    m.linear.push(linear_reconstruct(report, &t.cloud, &grid).1);
                }
            }
        }
    }
    m
}

/// Pull `"<key>": <integer>` following the first occurrence of `anchor`
/// out of the server's JSON stats.
pub fn stats_number(stats: &str, anchor: &str, key: &str) -> Option<u64> {
    let rest = &stats[stats.find(anchor)? + anchor.len()..];
    let rest = &rest[rest.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut samples = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = inputs.take() {
            old.server.shutdown();
        }
        let (i, s) = timed(|| setup(args.seed));
        setups.push(s);
        samples.push(i.sample_s);
        inputs = Some(i);
    }
    let Inputs {
        mut server,
        model,
        pretrain_field,
        mut tenants,
        ..
    } = inputs.expect("at least one set-up");

    // Warm every connection and the batcher before timing.
    for t in tenants.iter_mut() {
        for _ in 0..3 {
            request(&mut report, t);
        }
    }
    let mut snrs = Vec::new();
    for t in tenants.iter_mut() {
        let grid = *t.truth.grid();
        let served = t.client.reconstruct(t.session, &grid, 0).map(|f| f.field);
        snrs.push(served.as_ref().map_or(f64::NAN, |f| snr_db(&t.truth, f)));
        crate::common::check_fingerprint(
            &mut report,
            WORKLOAD,
            &format!("recon{}", snrs.len() - 1),
            args.seed,
            served.map_or(0, |f| fnv1a_f32(f.values())),
        );
    }

    let mut tracer = Tracer::new(Instant::now(), args.trace);
    if args.trace {
        fv_runtime::telemetry::reset();
        fv_runtime::telemetry::set_enabled(true);
    }
    let phases = run_rounds(&mut report, &mut tenants, &model, args.seconds, &mut tracer);
    let closed_rps = phases.closed_requests as f64 / phases.closed_s;
    fv_runtime::telemetry::set_enabled(false);
    let latencies: Vec<f64> = phases.open.iter().map(OpenLoopSample::latency).collect();
    let (p50, tail, p) = median_and_tail(&latencies);
    let late: Vec<f64> = phases.open.iter().map(OpenLoopSample::lateness).collect();
    let (_, late_tail, _) = median_and_tail(&late);
    let misses = limit_misses(&phases.open, LATENCY_LIMIT_S);
    println!(
        "# phase A: {} requests at {RATE} req/s, p50 {:.2} ms, p{p} {:.2} ms, {misses} over the {:.0} ms limit, generator late p{p} {:.3} ms",
        phases.open.len(),
        p50 * 1e3,
        tail * 1e3,
        LATENCY_LIMIT_S * 1e3,
        late_tail * 1e3
    );
    println!(
        "# phase B: {} requests, {closed_rps:.2} req/s",
        phases.closed_requests
    );

    if args.trace {
        let stats = tenants[0].client.stats().unwrap_or_default();
        let jobs = stats_number(&stats, "\"name\": \"serve.batch.jobs\"", "value").unwrap_or(0);
        let flushes = stats_number(&stats, "\"name\": \"serve.flush\"", "count")
            .unwrap_or(0)
            .max(1);
        let dedup = stats_number(&stats, "\"name\": \"serve.batch.dedup\"", "value").unwrap_or(0);
        report.check(jobs > 0, || "server stats carry no batch counters".into());
        let rows_per_job = tenants
            .iter()
            .map(|t| t.cloud.void_indices().len())
            .sum::<usize>() as f64
            / TENANTS as f64;
        report.metric(
            "serve.batch.jobs_per_flush",
            jobs as f64 / flushes as f64,
            "count",
        );
        report.metric(
            "serve.batch.rows_per_flush",
            jobs as f64 * rows_per_job / flushes as f64,
            "count",
        );
        report.metric("serve.batch.dedup", dedup as f64, "count");
        let late_n = late.iter().filter(|&&l| l > LATE_S).count();
        report.metric(
            "serve.gen_late_share",
            late_n as f64 / late.len().max(1) as f64,
            "share",
        );
        report.metric(
            "serve.limit_miss_share",
            misses as f64 / phases.open.len().max(1) as f64,
            "share",
        );

        // One connection, nothing else in flight.
        let t0 = &mut tenants[0];
        let unloaded: Vec<f64> = (0..20)
            .map(|_| timed(|| request(&mut report, t0)).1)
            .collect();
        report.metric("task.unloaded_s", median(&unloaded), "s");
        report.metric("sampling.importance_s", median(&samples), "s");

        let t0 = &tenants[0];
        let grid = *t0.truth.grid();
        let rows = queries(&t0.cloud, &grid).len();
        let case = ReconCase {
            model: &model,
            cloud: &t0.cloud,
            target: &grid,
            fingerprint: t0.fingerprint,
            layer_rows: rows,
        };
        report_recon_layers(&mut report, &case, &mut tracer);

        report_pretrain_layers(&mut report, &pretrain_field, &config(), &widths(&model));
        let _ = tracer.write_jsonl(&crate::common::trace_path(WORKLOAD, args.seed));
    } else {
        report.metric("recon_s", median(&phases.compute), "s");
        report.metric("linear_recon_s", median(&phases.linear), "s");
        report.metric(
            "recon_snr_db",
            snrs.iter().sum::<f64>() / snrs.len() as f64,
            "dB",
        );
        report.metric("task_s", p50, "s");
        report.metric("task_rate", closed_rps, "1/s");
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    for t in tenants.iter_mut() {
        let _ = t.client.close_session(t.session);
    }
    drop(tenants);
    server.shutdown();
    report
}

/// The serve-layer metrics of a workload that runs no server.
pub fn report_no_server(report: &mut Report) {
    for name in [
        "serve.batch.jobs_per_flush",
        "serve.batch.rows_per_flush",
        "serve.batch.dedup",
    ] {
        report.metric(name, 0.0, "count");
    }
    report.metric("serve.gen_late_share", 0.0, "share");
    report.metric("serve.limit_miss_share", 0.0, "share");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_numbers_are_read_after_their_anchor() {
        let stats = r#"{"sites": [{"name": "serve.flush", "parent": null, "count": 42, "total_ns": 7}], "counters": [{"name": "serve.batch.dedup", "value": 0}, {"name": "serve.batch.jobs", "value": 84}]}"#;
        assert_eq!(
            stats_number(stats, "\"name\": \"serve.flush\"", "count"),
            Some(42)
        );
        assert_eq!(
            stats_number(stats, "\"name\": \"serve.batch.jobs\"", "value"),
            Some(84)
        );
        assert_eq!(
            stats_number(stats, "\"name\": \"serve.batch.dedup\"", "value"),
            Some(0)
        );
        assert_eq!(
            stats_number(stats, "\"name\": \"serve.nope\"", "value"),
            None
        );
    }
}
