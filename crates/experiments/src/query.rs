//! On-demand, single-artifact queries.
//!
//! The batch `repro` binary regenerates whole suites of tables; this
//! module is the query-facing extraction of the same generators: one
//! table, one figure pair, or one generalized-model sweep point at a
//! time, against an explicit [`ProfileStore`] so the caller controls
//! memoization. It is the API the `leakage-server` HTTP service fronts
//! — a served artifact goes through exactly the generator the batch
//! pipeline uses, so values are byte-identical between the two paths.

use crate::pipeline::suite_partial_with;
use crate::store::ProfileStore;
use crate::{fig7, fig8, fig9, table1, table2, table3, BenchmarkProfile, Table};
use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, GeneralizedModel, OptimalSavings, TechnologyNode};
use leakage_faults::StoreError;
use leakage_workloads::Scale;

/// Table numbers servable on demand.
pub const TABLE_IDS: [u8; 3] = [1, 2, 3];

/// Figure numbers servable on demand (the profile-driven pairs).
pub const FIGURE_IDS: [u8; 3] = [7, 8, 9];

/// Why an on-demand query could not be answered.
#[derive(Debug)]
pub enum QueryError {
    /// The requested table/figure number is not servable.
    UnknownArtifact {
        /// `"table"` or `"figure"`.
        kind: &'static str,
        /// The number asked for.
        id: u8,
    },
    /// The profile store could not produce a needed benchmark profile.
    Store(StoreError),
    /// The suite fan-out behind a table/figure lost benchmarks; a
    /// partial artifact would silently disagree with the batch
    /// pipeline, so the query refuses instead.
    Degraded {
        /// The benchmarks that failed, in suite order.
        failed: Vec<String>,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownArtifact { kind, id } => {
                write!(f, "no such {kind}: {id}")
            }
            QueryError::Store(err) => write!(f, "{err}"),
            QueryError::Degraded { failed } => {
                write!(
                    f,
                    "suite degraded; failed benchmarks: {}",
                    failed.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StoreError> for QueryError {
    fn from(err: StoreError) -> Self {
        QueryError::Store(err)
    }
}

/// Fetches the full healthy suite from `store`, refusing on any
/// benchmark failure (a served table must never silently average over
/// fewer benchmarks than the batch run).
fn full_suite(store: &ProfileStore, scale: Scale) -> Result<Vec<BenchmarkProfile>, QueryError> {
    let outcome = suite_partial_with(store, scale);
    if !outcome.all_healthy() {
        return Err(QueryError::Degraded {
            failed: outcome
                .failures
                .iter()
                .map(|f| f.benchmark.clone())
                .collect(),
        });
    }
    Ok(outcome.cloned_profiles())
}

/// Regenerates one paper table on demand. Tables 1 and 3 are analytic
/// (no simulation); Table 2 profiles the suite through `store` first
/// (memoized, so repeat queries are cache hits).
///
/// # Errors
///
/// [`QueryError::UnknownArtifact`] for numbers outside
/// [`TABLE_IDS`]; store/degradation errors for Table 2.
pub fn table(store: &ProfileStore, id: u8, scale: Scale) -> Result<Table, QueryError> {
    match id {
        1 => Ok(table1::generate()),
        2 => Ok(table2::generate(&full_suite(store, scale)?)),
        3 => Ok(table3::generate()),
        id => Err(QueryError::UnknownArtifact { kind: "table", id }),
    }
}

/// Regenerates one figure pair (instruction cache, data cache) on
/// demand; all three servable figures are profile-driven.
///
/// # Errors
///
/// [`QueryError::UnknownArtifact`] for numbers outside
/// [`FIGURE_IDS`]; store/degradation errors otherwise.
pub fn figure(store: &ProfileStore, id: u8, scale: Scale) -> Result<(Table, Table), QueryError> {
    let profiles = full_suite(store, scale)?;
    match id {
        7 => Ok(fig7::generate(&profiles)),
        8 => Ok(fig8::generate(&profiles)),
        9 => Ok(fig9::generate(&profiles)),
        id => Err(QueryError::UnknownArtifact { kind: "figure", id }),
    }
}

/// One generalized-model (Fig. 6) evaluation point: a benchmark's
/// cache-side interval distribution crossed with a technology node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Suite benchmark name (e.g. `"gzip"`).
    pub benchmark: String,
    /// Which L1 the distribution comes from.
    pub side: Level1,
    /// Circuit assumptions to evaluate under.
    pub node: TechnologyNode,
}

/// Answers one sweep point: fetches the benchmark's memoized profile
/// and runs the Fig. 6 generalized model over the chosen side's
/// interval distribution, once per profile, side and node
/// ([`sweep_point_profile`]).
///
/// # Errors
///
/// Store errors (unknown benchmark, simulation failure).
pub fn sweep_point(
    store: &ProfileStore,
    scale: Scale,
    point: &SweepPoint,
) -> Result<OptimalSavings, QueryError> {
    let profile = store.try_fetch(&point.benchmark, scale)?;
    Ok(sweep_point_profile(&profile, point))
}

/// Answers one sweep point from an already-fetched profile — the
/// store-free half of [`sweep_point`], for callers that front the
/// store with their own cache (the HTTP server's striped store front).
/// Reads through the profile's memo
/// ([`BenchmarkProfile::optimal_savings`]), so each (side, node) of a
/// profile is evaluated at most once.
pub fn sweep_point_profile(profile: &BenchmarkProfile, point: &SweepPoint) -> OptimalSavings {
    profile.optimal_savings(point.side, point.node)
}

/// The generalized model a sweep point of `node` is evaluated under:
/// the node's calibrated preset with the paper's strict accounting.
pub fn sweep_model(node: TechnologyNode) -> GeneralizedModel {
    GeneralizedModel::from_params(CircuitParams::for_node(node))
}

/// Parses a cache-side query token (`icache`/`i` or `dcache`/`d`).
pub fn parse_side(side: &str) -> Option<Level1> {
    match side {
        "icache" | "i" => Some(Level1::Instruction),
        "dcache" | "d" => Some(Level1::Data),
        _ => None,
    }
}

/// Parses a technology-node query token (`70nm`, `70`, ...).
pub fn parse_node(node: &str) -> Option<TechnologyNode> {
    let digits = node.strip_suffix("nm").unwrap_or(node);
    TechnologyNode::ALL
        .into_iter()
        .find(|n| n.feature_nm().to_string() == digits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_tables_match_batch_generators() {
        let store = ProfileStore::new();
        assert_eq!(table(&store, 1, Scale::Test).unwrap(), table1::generate());
        assert_eq!(table(&store, 3, Scale::Test).unwrap(), table3::generate());
        // Nothing was simulated for the analytic tables.
        assert_eq!(store.counters().total(), 0);
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let store = ProfileStore::new();
        assert!(matches!(
            table(&store, 4, Scale::Test),
            Err(QueryError::UnknownArtifact {
                kind: "table",
                id: 4
            })
        ));
        // The figure path profiles the suite before dispatching, so use
        // the global store's memoized profiles to keep this test cheap.
        let global = ProfileStore::global();
        let err = figure(global, 2, Scale::Test).unwrap_err();
        assert!(err.to_string().contains("figure"), "{err}");
    }

    #[test]
    fn table2_on_demand_matches_batch() {
        let store = ProfileStore::global();
        let served = table(store, 2, Scale::Test).unwrap();
        let batch = table2::generate(&full_suite(store, Scale::Test).unwrap());
        assert_eq!(served, batch);
    }

    #[test]
    fn sweep_point_matches_table2_cell() {
        let store = ProfileStore::global();
        let point = SweepPoint {
            benchmark: "gzip".to_string(),
            side: Level1::Instruction,
            node: TechnologyNode::N70,
        };
        let savings = sweep_point(store, Scale::Test, &point).unwrap();
        let profile = store.fetch("gzip", Scale::Test);
        let cell = table2::node_savings(TechnologyNode::N70, &[profile.as_ref().clone()]);
        assert!((savings.opt_drowsy - cell.icache.0).abs() < 1e-12);
        assert!((savings.opt_sleep - cell.icache.1).abs() < 1e-12);
        assert!((savings.opt_hybrid - cell.icache.2).abs() < 1e-12);
    }

    #[test]
    fn sweep_point_unknown_benchmark_is_store_error() {
        let store = ProfileStore::new();
        let point = SweepPoint {
            benchmark: "perlbmk".to_string(),
            side: Level1::Data,
            node: TechnologyNode::N100,
        };
        assert!(matches!(
            sweep_point(&store, Scale::Test, &point),
            Err(QueryError::Store(StoreError::UnknownBenchmark { .. }))
        ));
    }

    fn bits(savings: OptimalSavings) -> [u64; 3] {
        [
            savings.opt_drowsy.to_bits(),
            savings.opt_sleep.to_bits(),
            savings.opt_hybrid.to_bits(),
        ]
    }

    fn filled(profile: &BenchmarkProfile) -> usize {
        profile
            .memo
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    const SIDES: [Level1; 2] = [Level1::Instruction, Level1::Data];

    #[test]
    fn memo_answers_equal_the_direct_model_bit_for_bit() {
        let store = ProfileStore::global();
        let names = leakage_workloads::SUITE_NAMES
            .iter()
            .chain(leakage_workloads::ISA_SUITE_NAMES.iter());
        for name in names {
            // A clone starts with an empty memo, so the first call below
            // is the one that evaluates, whatever other tests asked the
            // shared profile.
            let profile = store.fetch(name, Scale::Test).as_ref().clone();
            assert_eq!(filled(&profile), 0, "{name}: a clone starts empty");
            for side in SIDES {
                for node in TechnologyNode::ALL {
                    let direct = sweep_model(node).optimal_savings(&profile.side(side).dist);
                    let first = profile.optimal_savings(side, node);
                    let again = profile.optimal_savings(side, node);
                    assert_eq!(bits(first), bits(direct), "{name} {side} {node}: first");
                    assert_eq!(bits(again), bits(direct), "{name} {side} {node}: repeat");
                }
            }
            assert_eq!(filled(&profile), 8, "{name}: one slot per (side, node)");
        }
    }

    #[test]
    fn racing_first_fills_agree_and_fill_one_slot() {
        let profile = ProfileStore::global()
            .fetch("gzip", Scale::Test)
            .as_ref()
            .clone();
        let barrier = std::sync::Barrier::new(2);
        let answers: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        bits(profile.optimal_savings(Level1::Data, TechnologyNode::N100))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let direct = sweep_model(TechnologyNode::N100).optimal_savings(&profile.dcache.dist);
        assert_eq!(answers, vec![bits(direct); 2]);
        assert_eq!(filled(&profile), 1);
    }

    #[test]
    fn edited_clone_answers_for_its_own_distribution() {
        let original = ProfileStore::global()
            .fetch("gzip", Scale::Test)
            .as_ref()
            .clone();
        let (side, node) = (Level1::Instruction, TechnologyNode::N70);
        let before = original.optimal_savings(side, node);
        let mut edited = original.clone();
        edited.icache.dist = original.dcache.dist.clone();
        let after = edited.optimal_savings(side, node);
        let direct = sweep_model(node).optimal_savings(&original.dcache.dist);
        assert_eq!(bits(after), bits(direct));
        assert_ne!(bits(after), bits(before), "the edit changes the answer");
        // The original keeps its own answer.
        assert_eq!(bits(original.optimal_savings(side, node)), bits(before));
    }

    #[test]
    fn side_and_node_tokens_parse() {
        assert_eq!(parse_side("icache"), Some(Level1::Instruction));
        assert_eq!(parse_side("d"), Some(Level1::Data));
        assert_eq!(parse_side("l2"), None);
        assert_eq!(parse_node("70nm"), Some(TechnologyNode::N70));
        assert_eq!(parse_node("180"), Some(TechnologyNode::N180));
        assert_eq!(parse_node("90nm"), None);
    }
}
