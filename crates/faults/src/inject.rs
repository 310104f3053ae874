//! The deterministic fault-injection plane.
//!
//! Production code instruments *named sites* — `suite/gzip`,
//! `store/write`, `trace/read` — with the free functions
//! [`panic_point`], [`io_point`], and [`corrupt_point`]. With no
//! faults armed (the default) every helper is a single atomic load;
//! the `LEAKAGE_FAULTS` environment variable arms sites for a run:
//!
//! ```text
//! LEAKAGE_FAULTS="suite/gzip=panic"                 one benchmark panics
//! LEAKAGE_FAULTS="store/write=truncate:16#1"        first write truncated
//! LEAKAGE_FAULTS="store/write=io:enospc"            every write ENOSPC
//! LEAKAGE_FAULTS="suite/*=latency:5;trace/read=io"  two clauses
//! ```
//!
//! # Spec grammar
//!
//! ```text
//! spec   = clause (';' clause)*
//! clause = site '=' kind [trigger]
//! site   = path, '*' suffix matches any site with that prefix
//! kind   = 'panic'
//!        | 'io' [':' ('enospc'|'interrupted'|'notfound'|'permission'|'timedout')]
//!        | 'truncate' ':' BYTES
//!        | 'latency' ':' MILLIS
//! trigger = '#' N          fire only on the N-th arrival (1-based)
//!         | '%' PERMILLE '@' SEED   fire pseudo-randomly, seeded
//! ```
//!
//! Without a trigger a clause fires on **every** arrival. All three
//! trigger forms are deterministic: per-arm arrival counters drive
//! `#N`, and `%` uses a SplitMix64 stream keyed by `(SEED, arrival)`,
//! so a failing run reproduces exactly from its spec string.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Environment variable holding the fault spec. Unset or empty means
/// no faults.
pub const FAULTS_ENV: &str = "LEAKAGE_FAULTS";

/// What an armed clause does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site.
    Panic,
    /// Surface an injected [`io::Error`] of the given flavor.
    Io(IoFlavor),
    /// Truncate the site's write buffer to this many bytes
    /// (simulating a crash mid-write).
    Truncate(usize),
    /// Sleep this many milliseconds before proceeding.
    Latency(u64),
}

/// Flavors of injected I/O errors, chosen to exercise both the
/// transient-retry path and the hard-failure path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFlavor {
    /// Generic failure (`ErrorKind::Other`).
    Other,
    /// Disk full; not transient.
    Enospc,
    /// `EINTR`; transient, the retry helper will retry it.
    Interrupted,
    /// Missing file.
    NotFound,
    /// Permission denied.
    Permission,
    /// Timed out; transient.
    TimedOut,
}

impl IoFlavor {
    fn to_error(self, site: &str) -> io::Error {
        let (kind, what) = match self {
            IoFlavor::Other => (io::ErrorKind::Other, "generic failure"),
            IoFlavor::Enospc => (io::ErrorKind::Other, "ENOSPC (no space left on device)"),
            IoFlavor::Interrupted => (io::ErrorKind::Interrupted, "EINTR (interrupted)"),
            IoFlavor::NotFound => (io::ErrorKind::NotFound, "file not found"),
            IoFlavor::Permission => (io::ErrorKind::PermissionDenied, "permission denied"),
            IoFlavor::TimedOut => (io::ErrorKind::TimedOut, "timed out"),
        };
        io::Error::new(kind, format!("injected fault at {site}: {what}"))
    }
}

/// When an armed clause fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Every arrival.
    Always,
    /// Only the n-th arrival (1-based).
    Nth(u64),
    /// Pseudo-randomly with probability `permille`/1000, keyed by
    /// `(seed, arrival)` — deterministic for a fixed spec.
    Permille { permille: u16, seed: u64 },
}

/// One parsed clause.
#[derive(Debug)]
struct Arm {
    site: String,
    /// `true` when `site` ends in `*`: prefix match on the rest.
    wildcard: bool,
    kind: FaultKind,
    trigger: Trigger,
    arrivals: AtomicU64,
}

impl Arm {
    fn matches(&self, site: &str) -> bool {
        if self.wildcard {
            site.starts_with(&self.site)
        } else {
            site == self.site
        }
    }

    /// Counts an arrival; returns the kind if this arrival fires.
    fn arrive(&self) -> Option<&FaultKind> {
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match self.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => arrival == n,
            Trigger::Permille { permille, seed } => {
                splitmix64(seed ^ arrival.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000
                    < u64::from(permille)
            }
        };
        fires.then_some(&self.kind)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A malformed `LEAKAGE_FAULTS` spec; the offending clause and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The clause that failed to parse.
    pub clause: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// A set of armed fault clauses. The process-wide plane behind
/// [`plane`] is parsed from [`FAULTS_ENV`] once; tests may install
/// their own with [`set_plane`] or build private planes and call the
/// site methods directly.
#[derive(Debug, Default)]
pub struct Plane {
    arms: Vec<Arm>,
}

impl Plane {
    /// A plane with nothing armed.
    pub fn empty() -> Self {
        Plane::default()
    }

    /// Whether nothing is armed (the fast-path check).
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// Parses a spec string (see the module docs for the grammar).
    /// An empty or all-whitespace spec is the empty plane.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first malformed clause.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let mut arms = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            arms.push(parse_clause(clause)?);
        }
        Ok(Plane { arms })
    }

    /// Applies every firing clause for `site`: sleeps out latencies,
    /// panics on an armed panic, and returns the first armed I/O
    /// error / truncation for the caller to surface.
    fn fire(&self, site: &str) -> Firing {
        let mut firing = Firing::default();
        for arm in self.arms.iter().filter(|arm| arm.matches(site)) {
            match arm.arrive() {
                Some(FaultKind::Latency(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(*ms));
                }
                Some(FaultKind::Panic) => {
                    panic!("injected fault: panic at {site}");
                }
                Some(FaultKind::Io(flavor)) => {
                    firing.io.get_or_insert(flavor.to_error(site));
                }
                Some(FaultKind::Truncate(bytes)) => {
                    firing.truncate.get_or_insert(*bytes);
                }
                None => {}
            }
        }
        firing
    }

    /// [`panic_point`] against this plane.
    pub fn panic_site(&self, site: &str) {
        if !self.is_empty() {
            let _ = self.fire(site);
        }
    }

    /// [`io_point`] against this plane.
    pub fn io_site(&self, site: &str) -> io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        match self.fire(site).io {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// [`corrupt_point`] against this plane.
    pub fn corrupt_site(&self, site: &str, bytes: &mut Vec<u8>) -> io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let firing = self.fire(site);
        if let Some(keep) = firing.truncate {
            bytes.truncate(keep);
        }
        match firing.io {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// The outcome of one site arrival (latency/panic handled in-line).
#[derive(Debug, Default)]
struct Firing {
    io: Option<io::Error>,
    truncate: Option<usize>,
}

fn parse_clause(clause: &str) -> Result<Arm, SpecError> {
    let err = |reason: &str| SpecError {
        clause: clause.to_string(),
        reason: reason.to_string(),
    };
    let (site, rest) = clause.split_once('=').ok_or_else(|| err("missing '='"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(err("empty site"));
    }
    // Split a trailing trigger off the kind.
    let rest = rest.trim();
    let (kind_text, trigger) = if let Some((kind, nth)) = rest.split_once('#') {
        let n: u64 = nth.trim().parse().map_err(|_| err("bad '#N' trigger"))?;
        if n == 0 {
            return Err(err("'#N' trigger is 1-based"));
        }
        (kind.trim(), Trigger::Nth(n))
    } else if let Some((kind, prob)) = rest.split_once('%') {
        let (permille, seed) = prob
            .split_once('@')
            .ok_or_else(|| err("'%' needs '@SEED'"))?;
        let permille: u16 = permille.trim().parse().map_err(|_| err("bad permille"))?;
        if permille > 1000 {
            return Err(err("permille above 1000"));
        }
        let seed: u64 = seed.trim().parse().map_err(|_| err("bad seed"))?;
        (kind.trim(), Trigger::Permille { permille, seed })
    } else {
        (rest, Trigger::Always)
    };
    let (name, arg) = match kind_text.split_once(':') {
        Some((name, arg)) => (name.trim(), Some(arg.trim())),
        None => (kind_text, None),
    };
    let kind = match (name, arg) {
        ("panic", None) => FaultKind::Panic,
        ("io", None) => FaultKind::Io(IoFlavor::Other),
        ("io", Some(flavor)) => FaultKind::Io(match flavor {
            "enospc" | "full" => IoFlavor::Enospc,
            "interrupted" | "eintr" => IoFlavor::Interrupted,
            "notfound" => IoFlavor::NotFound,
            "permission" => IoFlavor::Permission,
            "timedout" => IoFlavor::TimedOut,
            "other" => IoFlavor::Other,
            _ => return Err(err("unknown io flavor")),
        }),
        ("truncate", Some(bytes)) => {
            FaultKind::Truncate(bytes.parse().map_err(|_| err("bad truncate byte count"))?)
        }
        ("latency", Some(ms)) => {
            FaultKind::Latency(ms.parse().map_err(|_| err("bad latency millis"))?)
        }
        ("truncate", None) => return Err(err("truncate needs ':BYTES'")),
        ("latency", None) => return Err(err("latency needs ':MILLIS'")),
        _ => return Err(err("unknown fault kind")),
    };
    let (site, wildcard) = match site.strip_suffix('*') {
        Some(prefix) => (prefix.to_string(), true),
        None => (site.to_string(), false),
    };
    Ok(Arm {
        site,
        wildcard,
        kind,
        trigger,
        arrivals: AtomicU64::new(0),
    })
}

fn global() -> &'static RwLock<Arc<Plane>> {
    static GLOBAL: OnceLock<RwLock<Arc<Plane>>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let plane = match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => match Plane::parse(&spec) {
                Ok(plane) => plane,
                Err(err) => {
                    // A typo'd spec must not silently run fault-free:
                    // the operator asked for faults, so fail loudly.
                    panic!("{FAULTS_ENV}: {err}");
                }
            },
            _ => Plane::empty(),
        };
        RwLock::new(Arc::new(plane))
    })
}

/// The process-wide fault plane, parsed from [`FAULTS_ENV`] on first
/// use. A malformed spec panics at that first use — the operator asked
/// for faults, so running fault-free on a typo would silently void the
/// experiment.
pub fn plane() -> Arc<Plane> {
    Arc::clone(&global().read().unwrap_or_else(PoisonError::into_inner))
}

/// Replaces the process-wide plane (primarily for in-process tests;
/// CI arms real runs through the environment). Returns the previous
/// plane so tests can restore it.
pub fn set_plane(plane: Plane) -> Arc<Plane> {
    let mut slot = global().write().unwrap_or_else(PoisonError::into_inner);
    std::mem::replace(&mut slot, Arc::new(plane))
}

/// A site that can be killed: panics when a `panic` fault is armed
/// here, sleeps out armed latency, otherwise free.
pub fn panic_point(site: &str) {
    plane().panic_site(site);
}

/// A fallible-I/O site: returns an injected error when one is armed
/// here (after latency/panic handling).
///
/// # Errors
///
/// The injected [`io::Error`], when this arrival fires an `io` clause.
pub fn io_point(site: &str) -> io::Result<()> {
    plane().io_site(site)
}

/// A buffer-writing site: truncates `bytes` when a `truncate` fault
/// fires here (the crash-mid-write simulation), and can additionally
/// surface an injected I/O error.
///
/// # Errors
///
/// The injected [`io::Error`], when this arrival fires an `io` clause.
pub fn corrupt_point(site: &str, bytes: &mut Vec<u8>) -> io::Result<()> {
    plane().corrupt_site(site, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_specs_arm_nothing() {
        assert!(Plane::parse("").unwrap().is_empty());
        assert!(Plane::parse("  ;  ; ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for spec in [
            "no-equals",
            "=panic",
            "site=explode",
            "site=truncate",
            "site=latency:abc",
            "site=io:weird",
            "site=panic#0",
            "site=panic%1001@7",
            "site=panic%5",
            "site=drop",
            "site=dup",
        ] {
            assert!(Plane::parse(spec).is_err(), "{spec:?} should not parse");
        }
    }

    #[test]
    fn exact_and_wildcard_sites() {
        let plane = Plane::parse("suite/*=io;store/write=io:enospc").unwrap();
        assert!(plane.io_site("suite/gzip").is_err());
        assert!(plane.io_site("suite/gcc").is_err());
        assert!(plane.io_site("store/write").is_err());
        assert!(plane.io_site("store/read").is_ok());
        let err = plane.io_site("store/write").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plane = Plane::parse("store/write=io#2").unwrap();
        assert!(plane.io_site("store/write").is_ok());
        assert!(plane.io_site("store/write").is_err());
        assert!(plane.io_site("store/write").is_ok());
        assert!(plane.io_site("store/write").is_ok());
    }

    #[test]
    fn truncation_clips_buffers() {
        let plane = Plane::parse("store/write=truncate:3#1").unwrap();
        let mut bytes = vec![1, 2, 3, 4, 5];
        plane.corrupt_site("store/write", &mut bytes).unwrap();
        assert_eq!(bytes, vec![1, 2, 3]);
        let mut second = vec![1, 2, 3, 4, 5];
        plane.corrupt_site("store/write", &mut second).unwrap();
        assert_eq!(second.len(), 5, "#1 fires only on the first arrival");
    }

    #[test]
    fn armed_panic_fires() {
        let plane = Plane::parse("suite/gzip=panic").unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plane.panic_site("suite/gzip")
        }))
        .unwrap_err();
        let message = crate::panic_message(caught.as_ref());
        assert!(message.contains("suite/gzip"), "{message}");
        // Other sites are untouched.
        plane.panic_site("suite/gcc");
    }

    #[test]
    fn permille_stream_is_deterministic() {
        let a = Plane::parse("s=io%500@42").unwrap();
        let b = Plane::parse("s=io%500@42").unwrap();
        let pattern =
            |plane: &Plane| -> Vec<bool> { (0..64).map(|_| plane.io_site("s").is_err()).collect() };
        let first = pattern(&a);
        assert_eq!(first, pattern(&b), "same seed, same firing pattern");
        assert!(first.iter().any(|&fired| fired));
        assert!(first.iter().any(|&fired| !fired));
        // A different seed produces a different (still deterministic)
        // pattern.
        let c = Plane::parse("s=io%500@43").unwrap();
        assert_ne!(first, pattern(&c));
    }

    #[test]
    fn io_flavors_map_to_error_kinds() {
        let plane = Plane::parse("a=io:interrupted;b=io:notfound;c=io:timedout").unwrap();
        assert_eq!(
            plane.io_site("a").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            plane.io_site("b").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            plane.io_site("c").unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }
}
