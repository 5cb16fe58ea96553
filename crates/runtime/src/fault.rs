//! Deterministic fault injection for exercising the runtime's
//! fault-tolerance paths.
//!
//! A [`FaultPlan`] is a set of [`FaultSpec`]s, each naming a *site* (a
//! stable string like [`sites::SYNTHESIS`] checked at exactly one code
//! location), a fault kind, and a trigger deciding *which* invocations of
//! that site fault. Triggers are either explicit 1-based ordinals
//! (`@1,3`), an ordinal range (`@2-5`), or a seeded probability (`@p0.25`)
//! — the probabilistic mode hashes `(seed, site, ordinal)`, so a given
//! plan faults the same invocations on every run regardless of thread
//! interleaving.
//!
//! Plans are test-visible and config/env-constructed:
//!
//! ```text
//! NEURFILL_FAULT_PLAN="synthesis=transient@1;verify_forward=panic@2"
//! NEURFILL_FAULT_SEED=7
//! ```
//!
//! The spec grammar is `site=kind[@trigger]` joined by `;`, where `site`
//! is one of [`sites::ALL`] (anything else is a parse error — a typo must
//! not run a drill that injects nothing) and `kind` is one of `panic`,
//! `transient`, `nan`, `delayNN` (NN milliseconds), or one of the
//! durable-write kinds `short_write`, `torn_record`, and `crash` (checked
//! only at write sites via [`FaultPlan::inject_write`]).
//! An absent trigger fires on every invocation. [`FaultPlan::disabled`]
//! (the default everywhere) injects nothing and leaves every code path
//! bit-identical to an unfaulted run.

use crate::registry::fnv1a;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Stable site names checked by the runtime and data crates.
pub mod sites {
    /// Network hydration from bundle bytes (a pool worker's first job).
    pub const HYDRATE: &str = "hydrate";
    /// The synthesis stage of a job, before `FillingFlow` runs.
    pub const SYNTHESIS: &str = "synthesis";
    /// A job's verification forward over its filled layout.
    pub const VERIFY_FORWARD: &str = "verify_forward";
    /// Reading one record from a training-data shard.
    pub const SHARD_READ: &str = "shard_read";
    /// Appending one record to the service's write-ahead job journal.
    pub const JOURNAL_WRITE: &str = "journal_write";
    /// Finalizing one tile checkpoint of a full-chip run.
    pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
    /// Dispatching one tile of a full-chip run to a remote service.
    pub const TILE_DISPATCH: &str = "tile_dispatch";
    /// Opening or reusing a client connection to a remote service.
    pub const CONN_DROP: &str = "conn_drop";
    /// Every site above: the names [`super::FaultPlan::parse`] accepts.
    pub const ALL: &[&str] = &[
        HYDRATE,
        SYNTHESIS,
        VERIFY_FORWARD,
        SHARD_READ,
        JOURNAL_WRITE,
        CHECKPOINT_WRITE,
        TILE_DISPATCH,
        CONN_DROP,
    ];
}

/// What a firing fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises panic isolation / thread supervision).
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Fail the operation with a transient (retryable) error.
    Transient,
    /// Poison the site's numeric outputs with NaN (only meaningful at
    /// sites producing heights; elsewhere it is ignored).
    Nan,
    /// Interrupt a durable write partway through (the write self-heals in
    /// place — exercises retry logic, not recovery). Only meaningful at
    /// write sites checked via [`FaultPlan::inject_write`].
    ShortWrite,
    /// Leave a torn (truncated / corrupted) final record on disk while
    /// the writer believes the write succeeded — the state a real crash
    /// leaves behind when it lands mid-record. Write sites only.
    TornRecord,
    /// Abort-at-ordinal: freeze the durable layer as a kill at this exact
    /// write would, leaving a torn prefix on disk and failing this and
    /// every later write. Write sites only.
    Crash,
}

/// When a spec fires, relative to the per-site invocation counter.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTrigger {
    /// Fire on these exact 1-based invocation ordinals.
    Ordinals(Vec<u64>),
    /// Fire on every ordinal in `from..=to` (inclusive, 1-based).
    Range {
        /// First faulting ordinal.
        from: u64,
        /// Last faulting ordinal.
        to: u64,
    },
    /// Fire on each invocation independently with this probability,
    /// decided by a deterministic hash of `(seed, site, ordinal)`.
    Probability(f64),
    /// Fire on every invocation.
    Always,
}

/// One injection rule: `site=kind@trigger`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The site this rule applies to (see [`sites`]).
    pub site: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Which invocations fault.
    pub trigger: FaultTrigger,
}

impl FaultSpec {
    fn fires(&self, ordinal: u64, seed: u64) -> bool {
        match &self.trigger {
            FaultTrigger::Ordinals(list) => list.contains(&ordinal),
            FaultTrigger::Range { from, to } => (*from..=*to).contains(&ordinal),
            FaultTrigger::Probability(p) => {
                let h = splitmix(seed ^ fnv1a(self.site.as_bytes()) ^ ordinal);
                ((h >> 11) as f64 / (1u64 << 53) as f64) < *p
            }
            FaultTrigger::Always => true,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Marker substring carried by every injected transient error, used by
/// [`crate::error::classify`] to route the failure into the retry path.
pub const TRANSIENT_MARKER: &str = "transient fault injected";

/// A durable-write fault returned by [`FaultPlan::inject_write`], telling
/// the write site *how* to damage its own output. The site owns the
/// mechanics (what bytes land on disk); this enum only names the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Truncate the in-progress write, then redo it (self-healing).
    ShortWrite,
    /// Persist a torn final record but report success to the caller.
    TornRecord,
    /// Persist a torn prefix, then fail this and all later writes — the
    /// on-disk state of a process killed at this exact ordinal.
    Crash,
}

/// A seeded, deterministic set of injection rules shared by every thread
/// of a runtime. The disabled plan (no specs) is the default and injects
/// nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    seed: u64,
    counters: Mutex<HashMap<String, u64>>,
}

impl FaultPlan {
    /// The no-op plan: never fires, never perturbs behavior.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A plan from explicit specs and a seed (for probabilistic triggers).
    #[must_use]
    pub fn new(specs: Vec<FaultSpec>, seed: u64) -> Self {
        Self { specs, seed, counters: Mutex::new(HashMap::new()) }
    }

    /// Parses a plan from the `site=kind[@trigger];...` grammar (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns a message pinpointing the malformed clause; a site outside
    /// [`sites::ALL`] is malformed.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut specs = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (site, rest) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is missing '='"))?;
            let site = site.trim();
            if !sites::ALL.contains(&site) {
                return Err(format!(
                    "unknown fault site {site:?} in clause {clause:?}; valid sites: {}",
                    sites::ALL.join(", ")
                ));
            }
            let (kind_str, trigger_str) = match rest.split_once('@') {
                Some((k, t)) => (k.trim(), Some(t.trim())),
                None => (rest.trim(), None),
            };
            let kind = if kind_str == "panic" {
                FaultKind::Panic
            } else if kind_str == "transient" {
                FaultKind::Transient
            } else if kind_str == "nan" {
                FaultKind::Nan
            } else if kind_str == "short_write" {
                FaultKind::ShortWrite
            } else if kind_str == "torn_record" {
                FaultKind::TornRecord
            } else if kind_str == "crash" {
                FaultKind::Crash
            } else if let Some(ms) = kind_str.strip_prefix("delay") {
                let ms: u64 =
                    ms.parse().map_err(|_| format!("bad delay duration {ms:?} in clause {clause:?}"))?;
                FaultKind::Delay(Duration::from_millis(ms))
            } else {
                return Err(format!("unknown fault kind {kind_str:?} in clause {clause:?}"));
            };
            let trigger = match trigger_str {
                None => FaultTrigger::Always,
                Some(t) => {
                    if let Some(p) = t.strip_prefix('p') {
                        let p: f64 = p
                            .parse()
                            .map_err(|_| format!("bad probability {p:?} in clause {clause:?}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("probability {p} out of [0,1] in {clause:?}"));
                        }
                        FaultTrigger::Probability(p)
                    } else if let Some((from, to)) = t.split_once('-') {
                        let parse = |s: &str| {
                            s.parse::<u64>()
                                .map_err(|_| format!("bad ordinal {s:?} in clause {clause:?}"))
                        };
                        FaultTrigger::Range { from: parse(from)?, to: parse(to)? }
                    } else {
                        let ordinals = t
                            .split(',')
                            .map(|s| {
                                s.trim()
                                    .parse::<u64>()
                                    .map_err(|_| format!("bad ordinal {s:?} in clause {clause:?}"))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        FaultTrigger::Ordinals(ordinals)
                    }
                }
            };
            specs.push(FaultSpec { site: site.to_string(), kind, trigger });
        }
        Ok(Self::new(specs, seed))
    }

    /// Builds a plan from `NEURFILL_FAULT_PLAN` / `NEURFILL_FAULT_SEED`;
    /// absent or empty env yields the disabled plan.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from the env spec.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("NEURFILL_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => {
                let seed =
                    std::env::var("NEURFILL_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
                Self::parse(&spec, seed)
            }
            _ => Ok(Self::disabled()),
        }
    }

    /// Whether the plan has any rules at all (a cheap happy-path gate).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.specs.is_empty()
    }

    /// How many times `site` has been passed so far.
    #[must_use]
    pub fn invocations(&self, site: &str) -> u64 {
        self.counters.lock().get(site).copied().unwrap_or(0)
    }

    /// The injection point: call once per operation at the named site.
    ///
    /// Increments the site's invocation counter, then applies the first
    /// matching spec: `Delay` sleeps here and continues; `Panic` panics
    /// here (the caller's supervision is what's under test); `Transient`
    /// returns an `Err` carrying [`TRANSIENT_MARKER`]; `Nan` returns
    /// `Ok(true)`, asking the caller to poison its numeric outputs.
    /// Returns `Ok(false)` when nothing fires.
    ///
    /// # Errors
    ///
    /// Returns the injected transient error.
    ///
    /// # Panics
    ///
    /// Panics when a `Panic` fault fires (by design).
    pub fn inject(&self, site: &str) -> Result<bool, String> {
        if self.specs.is_empty() {
            return Ok(false);
        }
        let ordinal = {
            let mut counters = self.counters.lock();
            let c = counters.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        for spec in self.specs.iter().filter(|s| s.site == site) {
            if !spec.fires(ordinal, self.seed) {
                continue;
            }
            match spec.kind {
                FaultKind::Panic => {
                    panic!("fault injected: panic at '{site}' (invocation {ordinal})")
                }
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Transient => {
                    return Err(format!("{TRANSIENT_MARKER} at '{site}' (invocation {ordinal})"))
                }
                FaultKind::Nan => return Ok(true),
                // Durable-write kinds are only meaningful at write sites
                // (checked via `inject_write`); elsewhere they no-op so a
                // plan written for a write site cannot corrupt others.
                FaultKind::ShortWrite | FaultKind::TornRecord | FaultKind::Crash => {}
            }
        }
        Ok(false)
    }

    /// The injection point for durable-write sites (journal appends,
    /// checkpoint finalizes). Behaves like [`FaultPlan::inject`] for
    /// `panic`/`delay`/`transient` faults, and additionally surfaces the
    /// durable-write kinds: `Ok(Some(fault))` asks the caller to damage
    /// its write as described by the returned [`WriteFault`]. `Nan` is
    /// ignored here. Returns `Ok(None)` when nothing fires.
    ///
    /// # Errors
    ///
    /// Returns the injected transient error.
    ///
    /// # Panics
    ///
    /// Panics when a `Panic` fault fires (by design).
    pub fn inject_write(&self, site: &str) -> Result<Option<WriteFault>, String> {
        if self.specs.is_empty() {
            return Ok(None);
        }
        let ordinal = {
            let mut counters = self.counters.lock();
            let c = counters.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        for spec in self.specs.iter().filter(|s| s.site == site) {
            if !spec.fires(ordinal, self.seed) {
                continue;
            }
            match spec.kind {
                FaultKind::Panic => {
                    panic!("fault injected: panic at '{site}' (invocation {ordinal})")
                }
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Transient => {
                    return Err(format!("{TRANSIENT_MARKER} at '{site}' (invocation {ordinal})"))
                }
                FaultKind::Nan => {}
                FaultKind::ShortWrite => return Ok(Some(WriteFault::ShortWrite)),
                FaultKind::TornRecord => return Ok(Some(WriteFault::TornRecord)),
                FaultKind::Crash => return Ok(Some(WriteFault::Crash)),
            }
        }
        Ok(None)
    }

    /// [`FaultPlan::inject`] adapted to `io::Result` call sites: transient
    /// faults surface as [`std::io::ErrorKind::Interrupted`] (the kind the
    /// error classifier treats as retryable).
    ///
    /// # Errors
    ///
    /// Returns the injected transient error as an I/O error.
    ///
    /// # Panics
    ///
    /// Panics when a `Panic` fault fires (by design).
    pub fn inject_io(&self, site: &str) -> std::io::Result<bool> {
        self.inject(site).map_err(|e| std::io::Error::new(std::io::ErrorKind::Interrupted, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires_and_counts_nothing() {
        let plan = FaultPlan::disabled();
        for _ in 0..10 {
            assert_eq!(plan.inject(sites::SYNTHESIS), Ok(false));
        }
        assert!(!plan.is_enabled());
        assert_eq!(plan.invocations(sites::SYNTHESIS), 0, "disabled plan skips counting");
    }

    #[test]
    fn ordinal_trigger_fires_exactly_on_listed_invocations() {
        let plan = FaultPlan::parse("synthesis=transient@1,3", 0).unwrap();
        assert!(plan.inject(sites::SYNTHESIS).is_err());
        assert_eq!(plan.inject(sites::SYNTHESIS), Ok(false));
        assert!(plan.inject(sites::SYNTHESIS).is_err());
        assert_eq!(plan.inject(sites::SYNTHESIS), Ok(false));
        // Other sites are untouched.
        assert_eq!(plan.inject(sites::HYDRATE), Ok(false));
    }

    #[test]
    fn range_and_nan_and_delay_parse() {
        let plan = FaultPlan::parse("verify_forward=nan@2-3; hydrate=delay5@1", 0).unwrap();
        assert_eq!(plan.inject(sites::VERIFY_FORWARD), Ok(false));
        assert_eq!(plan.inject(sites::VERIFY_FORWARD), Ok(true));
        assert_eq!(plan.inject(sites::VERIFY_FORWARD), Ok(true));
        assert_eq!(plan.inject(sites::VERIFY_FORWARD), Ok(false));
        let t = std::time::Instant::now();
        assert_eq!(plan.inject(sites::HYDRATE), Ok(false), "delay continues normally");
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn probabilistic_trigger_is_deterministic_for_a_seed() {
        let a = FaultPlan::parse("shard_read=transient@p0.5", 42).unwrap();
        let b = FaultPlan::parse("shard_read=transient@p0.5", 42).unwrap();
        let seq_a: Vec<bool> = (0..64).map(|_| a.inject(sites::SHARD_READ).is_err()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.inject(sites::SHARD_READ).is_err()).collect();
        assert_eq!(seq_a, seq_b);
        let fired = seq_a.iter().filter(|f| **f).count();
        assert!(fired > 8 && fired < 56, "p=0.5 over 64 draws fired {fired} times");
    }

    #[test]
    fn panic_fault_panics_at_the_site() {
        let plan = FaultPlan::parse("synthesis=panic@1", 0).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.inject(sites::SYNTHESIS);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fault injected"), "{msg}");
    }

    #[test]
    fn write_faults_fire_only_through_inject_write() {
        let plan = FaultPlan::parse(
            "journal_write=crash@2; checkpoint_write=torn_record@1; shard_read=short_write",
            0,
        )
        .unwrap();
        // inject() treats durable-write kinds as no-ops (but still counts).
        assert_eq!(plan.inject(sites::SHARD_READ), Ok(false));
        assert_eq!(plan.invocations(sites::SHARD_READ), 1);
        // inject_write() surfaces them with their trigger semantics.
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(Some(WriteFault::Crash)));
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert_eq!(plan.inject_write(sites::CHECKPOINT_WRITE), Ok(Some(WriteFault::TornRecord)));
        assert_eq!(plan.inject_write(sites::CHECKPOINT_WRITE), Ok(None));
        assert_eq!(plan.inject_write(sites::SHARD_READ), Ok(Some(WriteFault::ShortWrite)));
    }

    #[test]
    fn inject_write_shares_transient_and_counter_semantics_with_inject() {
        let plan = FaultPlan::parse("journal_write=transient@2", 0).unwrap();
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert!(plan.inject_write(sites::JOURNAL_WRITE).is_err());
        assert_eq!(plan.invocations(sites::JOURNAL_WRITE), 2);
        let disabled = FaultPlan::disabled();
        assert_eq!(disabled.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert_eq!(disabled.invocations(sites::JOURNAL_WRITE), 0);
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "synthesis",
            "synthesis=warp",
            "synthesis=transient@p2.0",
            "synthesis=delayzz",
            "synthesis=transient@one",
        ] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert!(FaultPlan::parse("", 0).unwrap().specs.is_empty());
    }

    #[test]
    fn unknown_sites_are_rejected_and_every_known_site_parses() {
        // A renamed site and a typo: either would otherwise run a drill
        // that injects nothing and reports success.
        for bad in ["batch_forward=nan", "synthesys=panic", "synthesis=panic; x=nan"] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(err.contains("unknown fault site"), "{bad}: {err}");
            assert!(err.contains("verify_forward") && err.contains("synthesis"), "{bad}: {err}");
        }
        for site in sites::ALL {
            let plan = FaultPlan::parse(&format!(" {site} = transient@1"), 0).unwrap();
            assert!(plan.inject(site).is_err(), "{site}");
        }
    }
}
