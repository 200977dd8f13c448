//! Fig. 7: NET² of L2L3 under different sharing-factor values and system
//! sizes (RMS application), with Moody as the profitability reference.
//!
//! The sharing factor SF is the number of computation cores sharing one
//! checkpointing core; the worst case (all SF processes checkpoint at
//! once, resources split evenly) stretches every transfer segment by SF.
//! The paper finds L2L3 stays profitable for SF up to ~3–15 depending on
//! system size.
//!
//! The stretched costs are the closed form
//! [`LevelCosts::with_sharing_factor`](aic_model::params::LevelCosts::with_sharing_factor),
//! `c1 + SF·(ck − c1)`. The discrete-event [`NetworkTransport`] the engine
//! commits through shares its link by the same [`SharingModel`], so a
//! lone transfer there drains in exactly `SF ×` its dedicated time.
//!
//! [`NetworkTransport`]: aic_ckpt::transport::NetworkTransport
//! [`SharingModel`]: aic_model::sharing::SharingModel

use aic_model::concurrent::{net2_at, ConcurrentModel};
use aic_model::moody::moody_optimize;
use aic_model::optimize::golden_minimize;
use aic_model::params::{AppType, CoastalProfile, SystemScale};

use crate::output::{f, markdown_table};

/// One (system size) row: NET² per sharing factor plus the Moody reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// System size multiplier.
    pub size: f64,
    /// `(sf, net2)` per sharing factor.
    pub by_sf: Vec<(f64, f64)>,
    /// Moody optimum at this size.
    pub moody: f64,
}

/// Default sharing factors (the paper plots 1..15-ish; 31 shows the cliff).
pub const DEFAULT_SFS: [f64; 5] = [1.0, 3.0, 7.0, 15.0, 31.0];

/// Default sizes.
pub const DEFAULT_SIZES: [f64; 4] = [1.0, 5.0, 10.0, 20.0];

/// Compute the figure.
pub fn run(sizes: &[f64], sfs: &[f64]) -> Vec<Fig7Row> {
    let p = CoastalProfile::default();
    sizes
        .iter()
        .map(|&size| {
            let scale = SystemScale {
                size,
                app: AppType::Rms,
            };
            let base_costs = scale.costs(&p.costs());
            let rates = scale.rates(&p.rates());
            let moody_lo = base_costs.c(3).max(100.0);
            let moody = moody_optimize(
                &base_costs,
                &rates,
                moody_lo,
                crate::experiments::fig5::w_ceiling(rates.total(), moody_lo),
            )
            .net2;
            let by_sf = sfs
                .iter()
                .map(|&sf| {
                    let costs = base_costs.with_sharing_factor(sf);
                    let w_lo = costs.transfer(3).max(60.0);
                    let net2 = golden_minimize(
                        |w| net2_at(ConcurrentModel::L2L3, w, &costs, &rates),
                        w_lo,
                        crate::experiments::fig5::w_ceiling(rates.total(), w_lo),
                        1e-6,
                    )
                    .value;
                    (sf, net2)
                })
                .collect();
            Fig7Row { size, by_sf, moody }
        })
        .collect()
}

/// Render as a markdown table (rows = sizes, columns = SFs + Moody).
pub fn render(rows: &[Fig7Row]) -> String {
    let mut headers: Vec<String> = vec!["size".into()];
    if let Some(first) = rows.first() {
        headers.extend(first.by_sf.iter().map(|(sf, _)| format!("SF={sf}")));
    }
    headers.push("Moody".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    markdown_table(
        &header_refs,
        &rows
            .iter()
            .map(|r| {
                let mut cells = vec![format!("{}x", r.size)];
                cells.extend(r.by_sf.iter().map(|(_, v)| f(*v)));
                cells.push(f(r.moody));
                cells
            })
            .collect::<Vec<_>>(),
    )
}

/// The largest SF at which L2L3 still beats Moody for each size — the
/// paper's "3–15 processes can share one checkpointing core" claim.
pub fn profitable_sf(rows: &[Fig7Row]) -> Vec<(f64, f64)> {
    rows.iter()
        .map(|r| {
            let best = r
                .by_sf
                .iter()
                .filter(|(_, v)| *v < r.moody)
                .map(|(sf, _)| *sf)
                .fold(0.0, f64::max);
            (r.size, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_degrades_monotonically() {
        let rows = run(&[1.0, 10.0], &DEFAULT_SFS);
        for r in &rows {
            for pair in r.by_sf.windows(2) {
                assert!(
                    pair[1].1 >= pair[0].1 - 1e-12,
                    "size {}: SF {} -> {} decreased NET²",
                    r.size,
                    pair[0].0,
                    pair[1].0
                );
            }
        }
    }

    #[test]
    fn some_sharing_remains_profitable() {
        // Paper: 3–15 processes can share one core and still beat Moody.
        let rows = run(&[1.0, 10.0], &DEFAULT_SFS);
        for (size, sf) in profitable_sf(&rows) {
            assert!(sf >= 3.0, "size {size}: profitable only to SF {sf}");
        }
    }

    #[test]
    fn sf1_matches_fig6_l2l3() {
        let rows = run(&[5.0], &[1.0]);
        let fig6 = crate::experiments::fig6::run(&[5.0]);
        assert!(
            (rows[0].by_sf[0].1 - fig6[0].l2l3).abs() < 1e-6,
            "fig7 SF=1 {} vs fig6 {}",
            rows[0].by_sf[0].1,
            fig6[0].l2l3
        );
    }
}
