//! Extension: online controllers on the timeline simulator.
//!
//! Where [`implementable`](crate::implementable) evaluates schemes
//! analytically from interval distributions, this experiment simulates
//! the *mechanisms* — decay timers that commit without foresight,
//! phase-dependent global drowsy ticks, quantized hierarchical counters
//! and feedback-adaptive thresholds — per frame on the timeline
//! (`leakage-online`). The comparison quantifies how much the analytic
//! idealizations matter and what adaptivity buys.

use crate::render::pct;
use crate::{Table, HEADLINE_NODE};
use leakage_core::CircuitParams;
use leakage_online::dri::{DriCacheSim, DriConfig};
use leakage_online::{Controller, OnlineReport, OnlineSink};
use leakage_trace::{MemoryAccess, TraceSink, TraceSource};
use leakage_workloads::{suite, Scale};

/// The controllers compared.
pub fn controllers() -> Vec<Controller> {
    vec![
        Controller::decay_idealized(10_000),
        Controller::decay(10_000),
        Controller::quantized_decay(10_000),
        Controller::adaptive_decay(),
        Controller::periodic_drowsy(4_000),
        Controller::drowsy_then_sleep(4_000, 100_000),
    ]
}

/// Runs every controller over every benchmark at `scale`; returns, per
/// controller, the suite-mean `(icache, dcache)` reports reduced to
/// `(saving %, induced misses per 1K accesses, stall cycles per access)`.
pub fn series(scale: Scale) -> Vec<(String, [f64; 3], [f64; 3])> {
    let params = CircuitParams::for_node(HEADLINE_NODE);
    controllers()
        .into_iter()
        .map(|controller| {
            let mut iacc = Vec::new();
            let mut dacc = Vec::new();
            for mut bench in suite(scale) {
                let mut sink = OnlineSink::new(params.clone(), controller.clone());
                bench.run(&mut sink);
                let (icache, dcache) = sink.finish();
                iacc.push(reduce(&icache));
                dacc.push(reduce(&dcache));
            }
            (controller.name(), mean3(&iacc), mean3(&dacc))
        })
        .collect()
}

fn reduce(report: &OnlineReport) -> [f64; 3] {
    [
        report.saving_percent(),
        report.induced_miss_per_kilo_access(),
        report.stall_per_access(),
    ]
}

fn mean3(rows: &[[f64; 3]]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for row in rows {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    if !rows.is_empty() {
        for o in &mut out {
            *o /= rows.len() as f64;
        }
    }
    out
}

/// Regenerates the online-controller comparison table.
pub fn generate(scale: Scale) -> Table {
    let mut table = Table::new(
        "Extension: online controllers on the timeline simulator (70nm, suite average)",
        vec![
            "Controller".to_string(),
            "I$ savings %".to_string(),
            "I$ misses/1K".to_string(),
            "D$ savings %".to_string(),
            "D$ misses/1K".to_string(),
            "D$ stall cy/acc".to_string(),
        ],
    );
    for (name, icache, dcache) in series(scale) {
        table.push_row(vec![
            name,
            pct(icache[0]),
            format!("{:.2}", icache[1]),
            pct(dcache[0]),
            format!("{:.2}", dcache[1]),
            format!("{:.3}", dcache[2]),
        ]);
    }
    table
}

/// DRI-style cache resizing (Powell et al.) on the data cache: sweep
/// the per-epoch miss bound and report leakage savings, the measured
/// resize penalty, and the time-averaged enabled associativity.
pub fn dri_table(scale: Scale) -> Table {
    struct DataSink {
        sim: DriCacheSim,
    }
    impl TraceSink for DataSink {
        fn accept(&mut self, access: MemoryAccess) {
            if access.kind.is_data() {
                self.sim.on_access(access.addr.line(6), access.cycle);
            }
        }
    }

    let params = CircuitParams::for_node(HEADLINE_NODE);
    let mut table = Table::new(
        "Extension: DRI-style D-cache resizing, 70nm (suite average)",
        vec![
            "Miss bound / epoch".to_string(),
            "Savings %".to_string(),
            "Extra misses / 1K acc".to_string(),
            "Avg enabled ways".to_string(),
        ],
    );
    for miss_bound in [50u64, 200, 1_000] {
        let mut savings = Vec::new();
        let mut extra = Vec::new();
        let mut ways = Vec::new();
        for mut bench in suite(scale) {
            let mut sink = DataSink {
                sim: DriCacheSim::new(
                    leakage_cachesim::CacheConfig::alpha_l1d(),
                    params.clone(),
                    DriConfig {
                        epoch: 50_000,
                        miss_bound,
                        min_ways: 1,
                    },
                ),
            };
            bench.run(&mut sink);
            let report = sink.sim.finish();
            savings.push(report.saving_percent());
            extra.push(report.extra_misses_per_kilo_access());
            ways.push(report.avg_ways);
        }
        table.push_row(vec![
            miss_bound.to_string(),
            pct(crate::eval::mean(&savings)),
            format!("{:.2}", crate::eval::mean(&extra)),
            format!("{:.2}", crate::eval::mean(&ways)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_table_has_all_controllers() {
        let table = generate(Scale::Test);
        assert_eq!(table.rows().len(), controllers().len());
        let names: Vec<&str> = table.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(names.iter().any(|n| n.contains("idealized")));
        assert!(names.iter().any(|n| n.contains("Adaptive")));
    }

    #[test]
    fn idealized_and_realistic_decay_agree_closely() {
        let rows = series(Scale::Test);
        let ideal = &rows[0];
        let real = &rows[1];
        assert!(
            (ideal.1[0] - real.1[0]).abs() < 3.0,
            "I$ idealization error"
        );
        assert!(
            (ideal.2[0] - real.2[0]).abs() < 3.0,
            "D$ idealization error"
        );
    }

    #[test]
    fn dri_table_trades_misses_for_savings() {
        let table = dri_table(Scale::Test);
        assert_eq!(table.rows().len(), 3);
        // A laxer miss bound shrinks more aggressively: savings must not
        // fall as the bound rises.
        let savings: Vec<f64> = table.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            savings.windows(2).all(|w| w[1] + 1.0 >= w[0]),
            "{savings:?}"
        );
        for row in table.rows() {
            let ways: f64 = row[3].parse().unwrap();
            assert!((1.0..=2.0).contains(&ways), "{row:?}");
        }
    }

    #[test]
    fn periodic_drowsy_induces_no_misses() {
        let rows = series(Scale::Test);
        let drowsy = rows.iter().find(|r| r.0.contains("Periodic")).unwrap();
        assert_eq!(drowsy.1[1], 0.0);
        assert_eq!(drowsy.2[1], 0.0);
    }
}
