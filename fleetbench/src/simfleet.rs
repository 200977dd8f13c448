//! Episodes of the simulated executor, `service::run_service` — the call
//! `aicd` makes in its default mode.

use std::sync::Arc;
use std::time::Instant;

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::service::{run_service, ServiceConfig, ServiceReport, TenantPolicy, TenantSpec};
use aic_ckpt::transport::TransportFaults;
use aic_memsim::PAGE_SIZE;
use aic_obs::Obs;

use crate::report::Tally;

/// One episode's shape: heterogeneous tenants (4/6/9/12 pages) sharing
/// `overlap`% of their pages, `rounds` cuts each; every 8th tenant
/// crashes once, the level cycling 1 → 2 → 3; seeded transport faults.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub tenants: usize,
    pub rounds: u64,
    pub overlap: u32,
    pub slots: usize,
    pub cores: usize,
}

/// `tenants` personas with the working-set sizes `aicd` gives them
/// (4, 6, 9, 12 pages, repeating).
pub fn aicd_shaped(tenants: usize, overlap: u32, seed: u64) -> SharedDatasetFleet {
    let pages = (0..tenants).map(|i| [4, 6, 9, 12][i % 4]).collect();
    SharedDatasetFleet::heterogeneous(pages, overlap, seed)
}

pub fn fleet(spec: &Spec, seed: u64) -> SharedDatasetFleet {
    aicd_shaped(spec.tenants, spec.overlap, seed)
}

pub fn config(spec: &Spec, seed: u64, obs: Option<Arc<Obs>>) -> ServiceConfig {
    let mut cfg = crate::workloads::service_config();
    cfg.slots = spec.slots;
    cfg.cores = spec.cores;
    cfg.faults = Some(TransportFaults::mixed(seed));
    cfg.obs = obs;
    cfg
}

pub fn specs(spec: &Spec) -> Vec<TenantSpec> {
    (0..spec.tenants)
        .map(|i| TenantSpec {
            persona: i,
            policy: TenantPolicy::Adaptive { bootstrap: 3.0 },
            join_at: 0.0,
            rounds: spec.rounds,
            crashes: if i % 8 == 7 {
                vec![(7.0, 1 + (i / 8) % 3)]
            } else {
                Vec::new()
            },
        })
        .collect()
}

/// What one episode produced.
pub struct Episode {
    pub report: ServiceReport,
    pub wall_s: f64,
    pub user_bytes: u64,
    /// The episode's Stable `fleet.*` registry.
    pub obs: Arc<Obs>,
}

/// Run one episode. A failed run, or one whose report is not `clean()`,
/// fails the tally.
pub fn episode(spec: &Spec, seed: u64, tally: &mut Tally) -> Option<Episode> {
    let fleet = fleet(spec, seed);
    let obs = Arc::new(Obs::new());
    let cfg = config(spec, seed, Some(Arc::clone(&obs)));
    let specs = specs(spec);
    tally.attempt();
    let t0 = Instant::now();
    let res = run_service(&fleet, &specs, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    match res {
        Ok(report) => {
            tally.check(report.clean(), || {
                format!(
                    "run_service seed {seed}: not clean ({} isolation violations)",
                    report.isolation_violations
                )
            });
            let user_bytes = report
                .per_tenant
                .iter()
                .map(|t| t.cuts * (fleet.pages_of(t.id) * PAGE_SIZE) as u64)
                .sum();
            Some(Episode {
                report,
                wall_s,
                user_bytes,
                obs,
            })
        }
        Err(e) => {
            tally.fail(format!("run_service seed {seed}: {e}"));
            None
        }
    }
}
