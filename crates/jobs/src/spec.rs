//! Job specifications: a compact axis-range description of up to
//! millions of generalized-model sweep points.
//!
//! A job never materializes its point list. The spec holds one value
//! list per axis — benchmarks, cache sides, technology nodes, and a
//! refetch-energy scaling range in permille of the node's calibrated
//! `C_D` — and a point is addressed by a single `u64` index decoded
//! with mixed-radix arithmetic ([`JobSpec::point`]). Chunks are
//! contiguous index ranges, so a checkpoint is fully described by
//! `(start, end)` plus its result rows.
//!
//! The default refetch axis is the single value `1000` (scale ×1.0);
//! such points are evaluated under the *identical* model as the
//! single-process `POST /v1/sweep` handler
//! ([`query::sweep_model`]), which is what makes the
//! differential-conformance guarantee ("a sharded job returns the
//! sweep handler's bytes") hold by construction rather than by test
//! luck.

use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, GeneralizedModel, OptimalSavings};
use leakage_energy::TechnologyNode;
use leakage_experiments::query;
use leakage_experiments::BenchmarkProfile;
use leakage_faults::checksum::Fnv64;
use leakage_telemetry::json::{self, Json};
use leakage_workloads::{is_known_benchmark, Scale, SUITE_NAMES};

/// Hard cap on a single axis value for the refetch scale, in permille
/// (×1000 ⇒ scaling `C_D` up to 1000×).
pub const MAX_REFETCH_PERMILLE: u32 = 1_000_000;

/// Largest accepted job name.
pub const MAX_NAME_LEN: usize = 64;

/// Default points per chunk when the spec does not choose.
pub const DEFAULT_CHUNK_POINTS: u32 = 4096;

/// Chunk size bounds: small enough to checkpoint often, large enough
/// that protocol overhead stays negligible.
pub const MIN_CHUNK_POINTS: u32 = 16;
/// See [`MIN_CHUNK_POINTS`].
pub const MAX_CHUNK_POINTS: u32 = 65_536;

/// An inclusive stepped integer range: `from`, `from+step`, … `≤ to`.
/// `from > to` is the legal empty axis (a zero-point job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermilleAxis {
    /// First value, permille.
    pub from: u32,
    /// Inclusive upper bound, permille.
    pub to: u32,
    /// Stride between values; at least 1.
    pub step: u32,
}

impl PermilleAxis {
    /// The default axis: the single untouched value ×1.0.
    pub const DEFAULT: PermilleAxis = PermilleAxis {
        from: 1000,
        to: 1000,
        step: 1,
    };

    /// Number of values on the axis.
    pub fn len(&self) -> u64 {
        if self.from > self.to {
            0
        } else {
            u64::from((self.to - self.from) / self.step) + 1
        }
    }

    /// Whether the axis is empty (`from > to`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The i-th value (callers index below [`PermilleAxis::len`]).
    pub fn value(&self, index: u64) -> u32 {
        self.from + self.step * u32::try_from(index).expect("axis index fits u32")
    }
}

/// A validated sweep-job specification. Construct through
/// [`JobSpec::from_json`] (the API path) or [`JobSpec::build`] (tests
/// and internal callers); both run the same validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Operator-chosen job name (`[a-z0-9._-]`, ≤ 64 chars).
    pub name: String,
    /// Profile scale every point is evaluated at.
    pub scale: Scale,
    /// Benchmark axis, in suite order of submission.
    pub benchmarks: Vec<String>,
    /// Cache-side axis.
    pub sides: Vec<Level1>,
    /// Technology-node axis.
    pub nodes: Vec<TechnologyNode>,
    /// Refetch-energy scale axis, permille of the node's `C_D`.
    pub refetch_permille: PermilleAxis,
    /// Points per chunk (resolved at submit; persisted so a resumed
    /// job keeps the exact same chunk boundaries).
    pub chunk_points: u32,
}

/// One decoded point of a job's sweep space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPoint {
    /// Suite benchmark name.
    pub benchmark: String,
    /// Which L1 the interval distribution comes from.
    pub side: Level1,
    /// Circuit assumptions to evaluate under.
    pub node: TechnologyNode,
    /// Refetch-energy scale, permille of the node's calibrated `C_D`.
    pub refetch_permille: u32,
}

/// Why a spec was rejected. The message is served verbatim as the
/// 400 body, so it names the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl JobSpec {
    /// Validates and normalizes the raw fields into a spec. Empty
    /// `benchmarks`/`sides`/`nodes` vectors and an empty permille axis
    /// are legal — they describe a zero-point job that completes
    /// immediately — but duplicates and unknown values are rejected.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the offending field.
    pub fn build(
        name: &str,
        scale: Scale,
        benchmarks: Vec<String>,
        sides: Vec<Level1>,
        nodes: Vec<TechnologyNode>,
        refetch_permille: PermilleAxis,
        chunk_points: u32,
    ) -> Result<JobSpec, SpecError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(bad(format!("name must be 1..={MAX_NAME_LEN} chars")));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
        {
            return Err(bad(format!(
                "bad name {name:?}: allowed characters are a-z 0-9 . _ -"
            )));
        }
        for benchmark in &benchmarks {
            // Synthetic suite members and executed isa:* programs are
            // both legal sweep-axis values.
            if !is_known_benchmark(benchmark) {
                return Err(bad(format!("unknown benchmark {benchmark:?}")));
            }
        }
        let mut seen = benchmarks.clone();
        seen.sort();
        seen.dedup();
        if seen.len() != benchmarks.len() {
            return Err(bad("duplicate entries in \"benchmarks\""));
        }
        if sides.len() > 2 || (sides.len() == 2 && sides[0] == sides[1]) {
            return Err(bad("duplicate entries in \"sides\""));
        }
        let mut node_ids: Vec<u32> = nodes.iter().map(|n| n.feature_nm()).collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        if node_ids.len() != nodes.len() {
            return Err(bad("duplicate entries in \"nodes\""));
        }
        if refetch_permille.step == 0 {
            return Err(bad("refetch_permille.step must be at least 1"));
        }
        if refetch_permille.to > MAX_REFETCH_PERMILLE {
            return Err(bad(format!(
                "refetch_permille.to above the cap of {MAX_REFETCH_PERMILLE}"
            )));
        }
        if !(MIN_CHUNK_POINTS..=MAX_CHUNK_POINTS).contains(&chunk_points) {
            return Err(bad(format!(
                "chunk_points must be in {MIN_CHUNK_POINTS}..={MAX_CHUNK_POINTS}"
            )));
        }
        Ok(JobSpec {
            name: name.to_string(),
            scale,
            benchmarks,
            sides,
            nodes,
            refetch_permille,
            chunk_points,
        })
    }

    /// A small all-defaults spec over the whole suite (tests and
    /// examples).
    pub fn default_axes(name: &str, scale: Scale) -> JobSpec {
        JobSpec::build(
            name,
            scale,
            SUITE_NAMES.iter().map(|s| s.to_string()).collect(),
            vec![Level1::Instruction, Level1::Data],
            TechnologyNode::ALL.to_vec(),
            PermilleAxis::DEFAULT,
            DEFAULT_CHUNK_POINTS,
        )
        .expect("default axes are valid")
    }

    /// Total points in the sweep space: the product of the axis
    /// lengths.
    pub fn point_count(&self) -> u64 {
        self.benchmarks.len() as u64
            * self.sides.len() as u64
            * self.nodes.len() as u64
            * self.refetch_permille.len()
    }

    /// Number of fixed-size chunks the space shards into.
    pub fn chunk_count(&self) -> u64 {
        self.point_count().div_ceil(u64::from(self.chunk_points))
    }

    /// The point index range `[start, end)` of one chunk.
    pub fn chunk_range(&self, chunk: u64) -> (u64, u64) {
        let cp = u64::from(self.chunk_points);
        let start = chunk * cp;
        (start, (start + cp).min(self.point_count()))
    }

    /// Decodes a point index (benchmark-major, permille innermost, so
    /// ordering is stable and pages read contiguous runs of one
    /// benchmark — one memoized profile serves a whole run).
    ///
    /// # Panics
    ///
    /// If `index >= point_count()`.
    pub fn point(&self, index: u64) -> JobPoint {
        assert!(index < self.point_count(), "point index out of range");
        let p = self.refetch_permille.len();
        let n = self.nodes.len() as u64;
        let s = self.sides.len() as u64;
        let permille = self.refetch_permille.value(index % p);
        let rest = index / p;
        let node = self.nodes[(rest % n) as usize];
        let rest = rest / n;
        let side = self.sides[(rest % s) as usize];
        let benchmark = self.benchmarks[(rest / s) as usize].clone();
        JobPoint {
            benchmark,
            side,
            node,
            refetch_permille: permille,
        }
    }

    /// Whether the spec sweeps the refetch axis (and result rows thus
    /// carry a `refetch_permille` field). Decided by the *spec*, never
    /// per-row, so row shape is uniform across a job.
    pub fn has_refetch_axis(&self) -> bool {
        self.refetch_permille != PermilleAxis::DEFAULT
    }

    /// The job id: `j` + 16 hex digits of FNV-1a over the canonical
    /// spec JSON. Identical resubmissions are therefore idempotent.
    pub fn id(&self) -> String {
        let mut hash = Fnv64::new();
        hash.update(self.to_json().as_bytes());
        format!("j{:016x}", hash.finish())
    }

    /// Canonical JSON — the persisted `job.json` body and the id hash
    /// input. Scale is stored as raw cycles so `"test"` and `"200000"`
    /// are the same job.
    pub fn to_json(&self) -> String {
        json::object([
            json::key("name") + &json::string(&self.name),
            json::key("scale_cycles") + &self.scale.cycles().to_string(),
            json::key("benchmarks") + &json::array(self.benchmarks.iter().map(|b| json::string(b))),
            json::key("sides")
                + &json::array(self.sides.iter().map(|s| json::string(side_token(*s)))),
            json::key("nodes")
                + &json::array(self.nodes.iter().map(|n| json::string(&n.to_string()))),
            json::key("refetch_permille")
                + &json::object([
                    json::key("from") + &self.refetch_permille.from.to_string(),
                    json::key("to") + &self.refetch_permille.to.to_string(),
                    json::key("step") + &self.refetch_permille.step.to_string(),
                ]),
            json::key("chunk_points") + &self.chunk_points.to_string(),
        ])
    }

    /// Parses a spec from a JSON document — the `POST /v1/jobs` body
    /// and the persisted `job.json` share this one parser. Missing
    /// axes default to the full suite / both sides / all nodes / the
    /// ×1.0 refetch value; *present but empty* axes are honored as
    /// empty (a zero-point job).
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, SpecError> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("job needs a \"name\" string"))?;
        let scale = match (doc.get("scale"), doc.get("scale_cycles")) {
            (Some(raw), _) => {
                let arg = raw
                    .as_str()
                    .ok_or_else(|| bad("\"scale\" must be a string"))?;
                Scale::parse_arg(arg).ok_or_else(|| bad(format!("bad scale {arg:?}")))?
            }
            (None, Some(raw)) => {
                let cycles = raw
                    .as_f64()
                    .filter(|c| c.fract() == 0.0 && *c >= 0.0)
                    .ok_or_else(|| bad("\"scale_cycles\" must be a whole number"))?
                    as u64;
                // Map preset cycle budgets back to their named scales
                // so `to_json` → `from_json` round-trips exactly.
                [Scale::Test, Scale::Small, Scale::Paper]
                    .into_iter()
                    .find(|preset| preset.cycles() == cycles)
                    .unwrap_or(Scale::Custom(cycles))
            }
            (None, None) => Scale::Test,
        };
        let benchmarks = match doc.get("benchmarks") {
            None => SUITE_NAMES.iter().map(|s| s.to_string()).collect(),
            Some(raw) => raw
                .as_array()
                .ok_or_else(|| bad("\"benchmarks\" must be an array"))?
                .iter()
                .map(|b| {
                    b.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("\"benchmarks\" entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let sides = match doc.get("sides") {
            None => vec![Level1::Instruction, Level1::Data],
            Some(raw) => raw
                .as_array()
                .ok_or_else(|| bad("\"sides\" must be an array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .and_then(query::parse_side)
                        .ok_or_else(|| bad("bad side: expected icache|dcache"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let nodes = match doc.get("nodes") {
            None => TechnologyNode::ALL.to_vec(),
            Some(raw) => raw
                .as_array()
                .ok_or_else(|| bad("\"nodes\" must be an array"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .and_then(query::parse_node)
                        .ok_or_else(|| bad("bad node: expected 70nm|100nm|130nm|180nm"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let axis_field = |axis: &Json, field: &str| -> Result<u32, SpecError> {
            axis.get(field)
                .and_then(Json::as_f64)
                .filter(|v| v.fract() == 0.0 && *v >= 0.0 && *v <= f64::from(u32::MAX))
                .map(|v| v as u32)
                .ok_or_else(|| bad(format!("refetch_permille.{field} must be a whole number")))
        };
        let refetch_permille = match doc.get("refetch_permille") {
            None => PermilleAxis::DEFAULT,
            Some(axis) => PermilleAxis {
                from: axis_field(axis, "from")?,
                to: axis_field(axis, "to")?,
                step: match axis.get("step") {
                    None => 1,
                    Some(_) => axis_field(axis, "step")?,
                },
            },
        };
        let chunk_points = match doc.get("chunk_points") {
            None => DEFAULT_CHUNK_POINTS,
            Some(raw) => raw
                .as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0 && *v <= f64::from(u32::MAX))
                .map(|v| v as u32)
                .ok_or_else(|| bad("\"chunk_points\" must be a whole number"))?,
        };
        JobSpec::build(
            name,
            scale,
            benchmarks,
            sides,
            nodes,
            refetch_permille,
            chunk_points,
        )
    }

    /// Parses the canonical text form (convenience over
    /// [`JobSpec::from_json`]).
    ///
    /// # Errors
    ///
    /// JSON syntax errors and every [`JobSpec::from_json`] rejection.
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        let doc = json::parse(text).map_err(|err| bad(err.to_string()))?;
        JobSpec::from_json(&doc)
    }
}

impl JobPoint {
    /// Evaluates the point against an already-fetched profile.
    pub fn evaluate(&self, profile: &BenchmarkProfile) -> OptimalSavings {
        self.model().optimal_savings(&profile.side(self.side).dist)
    }

    /// The generalized model the point is evaluated under.
    ///
    /// The untouched refetch value (1000‰) is
    /// [`query::sweep_model`] — the model behind `POST /v1/sweep` —
    /// so default-axis jobs are byte-identical to the sweep path by
    /// construction. Scaled points rebuild the node's circuit
    /// parameters with `C_D × permille/1000`; the points of one
    /// (benchmark, side, node) run therefore differ only in `C_D` and
    /// evaluate as one [`GeneralizedModel::optimal_savings_batch`].
    pub fn model(&self) -> GeneralizedModel {
        if self.refetch_permille == 1000 {
            return query::sweep_model(self.node);
        }
        let preset = CircuitParams::for_node(self.node);
        let scaled = preset.refetch_energy() * f64::from(self.refetch_permille) / 1000.0;
        let params = CircuitParams::builder()
            .derived_from(self.node)
            .powers(*preset.powers())
            .timings(*preset.timings())
            .transition_model(preset.transition_model())
            .refetch_energy(scaled)
            .build();
        GeneralizedModel::from_params(params)
    }
}

/// The cache-side wire token (`icache`/`dcache`).
pub fn side_token(side: Level1) -> &'static str {
    match side {
        Level1::Instruction => "icache",
        Level1::Data => "dcache",
    }
}

/// Finite f64 as canonical JSON (shortest round-trip form), `null`
/// otherwise — the one float formatter: sweep rows, job results and
/// every server route render floats through it, so no two paths can
/// drift.
pub fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one `/v1/sweep`-shaped result row. This is *the* renderer:
/// the server's sweep handler and the job workers both call it, which
/// is what makes "job results are byte-identical to the sweep path"
/// a structural property.
pub fn render_sweep_row(
    benchmark: &str,
    side: Level1,
    node: TechnologyNode,
    savings: &OptimalSavings,
) -> String {
    json::object([
        json::key("benchmark") + &json::string(benchmark),
        json::key("side") + &json::string(side_token(side)),
        json::key("node") + &json::string(&node.to_string()),
        json::key("opt_drowsy") + &num_f64(savings.opt_drowsy),
        json::key("opt_sleep") + &num_f64(savings.opt_sleep),
        json::key("opt_hybrid") + &num_f64(savings.opt_hybrid),
    ])
}

/// Renders one job result row: the sweep row, plus the
/// `refetch_permille` field when (and only when) the spec sweeps that
/// axis.
pub fn render_job_row(point: &JobPoint, savings: &OptimalSavings, with_permille: bool) -> String {
    if !with_permille {
        return render_sweep_row(&point.benchmark, point.side, point.node, savings);
    }
    json::object([
        json::key("benchmark") + &json::string(&point.benchmark),
        json::key("side") + &json::string(side_token(point.side)),
        json::key("node") + &json::string(&point.node.to_string()),
        json::key("refetch_permille") + &point.refetch_permille.to_string(),
        json::key("opt_drowsy") + &num_f64(savings.opt_drowsy),
        json::key("opt_sleep") + &num_f64(savings.opt_sleep),
        json::key("opt_hybrid") + &num_f64(savings.opt_hybrid),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_len_and_values() {
        let axis = PermilleAxis {
            from: 500,
            to: 2000,
            step: 250,
        };
        assert_eq!(axis.len(), 7);
        assert_eq!(axis.value(0), 500);
        assert_eq!(axis.value(6), 2000);
        assert!(PermilleAxis {
            from: 2,
            to: 1,
            step: 1
        }
        .is_empty());
        assert_eq!(PermilleAxis::DEFAULT.len(), 1);
    }

    #[test]
    fn point_enumeration_is_mixed_radix() {
        let spec = JobSpec::build(
            "enum",
            Scale::Test,
            vec!["gzip".into(), "mesa".into()],
            vec![Level1::Instruction, Level1::Data],
            vec![TechnologyNode::N70, TechnologyNode::N130],
            PermilleAxis {
                from: 1000,
                to: 1002,
                step: 1,
            },
            MIN_CHUNK_POINTS,
        )
        .unwrap();
        assert_eq!(spec.point_count(), 2 * 2 * 2 * 3);
        let first = spec.point(0);
        assert_eq!(first.benchmark, "gzip");
        assert_eq!(first.side, Level1::Instruction);
        assert_eq!(first.node, TechnologyNode::N70);
        assert_eq!(first.refetch_permille, 1000);
        // Permille is the innermost axis; benchmark the outermost.
        assert_eq!(spec.point(1).refetch_permille, 1001);
        assert_eq!(spec.point(3).node, TechnologyNode::N130);
        assert_eq!(spec.point(spec.point_count() - 1).benchmark, "mesa");
        // Full decode round-trip: every index yields a distinct point.
        let mut seen = std::collections::HashSet::new();
        for index in 0..spec.point_count() {
            assert!(seen.insert(format!("{:?}", spec.point(index))));
        }
    }

    #[test]
    fn chunk_ranges_tile_the_space() {
        let mut spec = JobSpec::default_axes("tile", Scale::Test);
        spec.chunk_points = MIN_CHUNK_POINTS;
        let total = spec.point_count();
        assert_eq!(total, 48);
        assert_eq!(spec.chunk_count(), 3);
        assert_eq!(spec.chunk_range(0), (0, 16));
        assert_eq!(spec.chunk_range(2), (32, 48));
    }

    #[test]
    fn canonical_json_round_trips_and_ids_are_stable() {
        let spec = JobSpec::default_axes("round-trip_1.0", Scale::Test);
        let parsed = JobSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.id(), spec.id());
        assert!(spec.id().starts_with('j') && spec.id().len() == 17);
        // Any axis change changes the id.
        let mut other = spec.clone();
        other.nodes.pop();
        assert_ne!(other.id(), spec.id());
    }

    #[test]
    fn defaults_and_empty_axes() {
        let spec = JobSpec::parse(r#"{"name":"defaults"}"#).unwrap();
        assert_eq!(spec.benchmarks.len(), SUITE_NAMES.len());
        assert_eq!(spec.sides.len(), 2);
        assert_eq!(spec.nodes.len(), 4);
        assert!(!spec.has_refetch_axis());
        assert_eq!(spec.scale, Scale::Test);

        let empty = JobSpec::parse(r#"{"name":"empty","benchmarks":[]}"#).unwrap();
        assert_eq!(empty.point_count(), 0);
        assert_eq!(empty.chunk_count(), 0);
    }

    #[test]
    fn isa_benchmarks_are_valid_axis_values() {
        let spec =
            JobSpec::parse(r#"{"name":"isa-mix","benchmarks":["gzip","isa:matmul","isa:chase"]}"#)
                .unwrap();
        assert_eq!(spec.benchmarks.len(), 3);
        assert!(spec.point_count() > 0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        for (body, what) in [
            (r#"{}"#, "missing name"),
            (r#"{"name":""}"#, "empty name"),
            (r#"{"name":"Bad Name"}"#, "bad characters"),
            (
                r#"{"name":"x","benchmarks":["perlbmk"]}"#,
                "unknown benchmark",
            ),
            (
                r#"{"name":"x","benchmarks":["gzip","gzip"]}"#,
                "duplicate benchmark",
            ),
            (
                r#"{"name":"x","sides":["icache","icache"]}"#,
                "duplicate side",
            ),
            (r#"{"name":"x","sides":["l2"]}"#, "unknown side"),
            (r#"{"name":"x","nodes":["90nm"]}"#, "unknown node"),
            (
                r#"{"name":"x","refetch_permille":{"from":1,"to":2,"step":0}}"#,
                "zero step",
            ),
            (
                r#"{"name":"x","refetch_permille":{"from":1,"to":2000000}}"#,
                "permille cap",
            ),
            (r#"{"name":"x","chunk_points":1}"#, "chunk floor"),
            (r#"{"name":"x","chunk_points":1000000}"#, "chunk cap"),
            (r#"{"name":"x","scale":"huge"}"#, "bad scale"),
            ("not json", "syntax"),
        ] {
            assert!(JobSpec::parse(body).is_err(), "{what}: {body}");
        }
    }

    #[test]
    fn default_permille_evaluates_through_the_sweep_path() {
        let store = leakage_experiments::ProfileStore::global();
        let profile = store.try_fetch("gzip", Scale::Test).unwrap();
        let point = JobPoint {
            benchmark: "gzip".into(),
            side: Level1::Instruction,
            node: TechnologyNode::N70,
            refetch_permille: 1000,
        };
        let via_job = point.evaluate(&profile);
        let via_sweep = query::sweep_point_profile(
            &profile,
            &query::SweepPoint {
                benchmark: "gzip".into(),
                side: Level1::Instruction,
                node: TechnologyNode::N70,
            },
        );
        assert_eq!(
            render_sweep_row("gzip", point.side, point.node, &via_job),
            render_sweep_row("gzip", point.side, point.node, &via_sweep),
            "default-permille rows are byte-identical to the sweep path"
        );
    }

    #[test]
    fn scaled_refetch_shifts_sleep_savings() {
        let store = leakage_experiments::ProfileStore::global();
        let profile = store.try_fetch("gzip", Scale::Test).unwrap();
        let at = |permille: u32| {
            JobPoint {
                benchmark: "gzip".into(),
                side: Level1::Data,
                node: TechnologyNode::N70,
                refetch_permille: permille,
            }
            .evaluate(&profile)
        };
        let cheap = at(100);
        let dear = at(10_000);
        // A cheaper refetch can only help the state-destroying
        // technique; a dearer one can only hurt it.
        assert!(cheap.opt_sleep >= dear.opt_sleep);
        assert!(cheap.opt_hybrid >= dear.opt_hybrid);
    }

    #[test]
    fn job_rows_extend_sweep_rows_only_with_an_armed_axis() {
        let savings = OptimalSavings {
            opt_drowsy: 10.5,
            opt_sleep: 20.25,
            opt_hybrid: 21.0,
        };
        let point = JobPoint {
            benchmark: "gzip".into(),
            side: Level1::Instruction,
            node: TechnologyNode::N100,
            refetch_permille: 1500,
        };
        let plain = render_job_row(&point, &savings, false);
        assert_eq!(
            plain,
            render_sweep_row("gzip", point.side, point.node, &savings)
        );
        let extended = render_job_row(&point, &savings, true);
        assert!(
            extended.contains("\"refetch_permille\": 1500"),
            "{extended}"
        );
        assert!(!plain.contains("refetch_permille"));
    }
}
