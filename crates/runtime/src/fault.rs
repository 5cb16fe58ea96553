//! Deterministic fault injection for exercising the runtime's
//! fault-tolerance paths.
//!
//! A [`FaultPlan`] is a set of injection rules, each naming a *site* (a
//! stable string like [`sites::SYNTHESIS`] checked at exactly one code
//! location), a fault kind, and a trigger deciding *which* invocations of
//! that site fault. Triggers are either explicit 1-based ordinals
//! (`@1,3`), an ordinal range (`@2-5`), or a seeded probability (`@p0.25`)
//! — the probabilistic mode hashes `(seed, site, ordinal)`, so a given
//! plan faults the same invocations on every run regardless of thread
//! interleaving.
//!
//! A plan is parsed from a spec ([`FaultPlan::parse`], behind the
//! `--fault-plan` / `--fault-seed` flags of `runfill` and
//! `neurfill-serve`); [`FaultPlan::disabled`] and `parse` are its only
//! constructors:
//!
//! ```text
//! --fault-plan "synthesis=transient@1;verify_forward=panic@2" --fault-seed 7
//! ```
//!
//! The spec grammar is `site=kind[@trigger]` joined by `;`, where `site`
//! is one of [`sites::ALL`] and `kind` is one of `panic`, `transient`,
//! `delayNN` (NN milliseconds), `nan` (at `verify_forward` only), or one
//! of the durable-write kinds `short_write`, `torn_record`, and `crash`
//! (at the write sites only, [`sites::WRITES`]). Ordinals are 1-based
//! and a range runs upwards. Anything else is a parse error: a typo must
//! not run a drill that injects nothing. An absent trigger fires on
//! every invocation. [`FaultPlan::disabled`]
//! (the default everywhere) injects nothing and leaves every code path
//! bit-identical to an unfaulted run.

use neurfill_layout::io::fnv1a;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Stable site names, each checked by product code: the pool checks the
/// three job sites, and the two write sites are the ones an
/// [`AppendLog`](crate::applog::AppendLog) is opened at: the serve job
/// journal and the chip tile checkpoint.
pub mod sites {
    /// Network hydration from bundle bytes (a pool worker's first job).
    pub const HYDRATE: &str = "hydrate";
    /// The synthesis stage of a job, before `FillingFlow` runs.
    pub const SYNTHESIS: &str = "synthesis";
    /// A job's verification forward over its filled layout.
    pub const VERIFY_FORWARD: &str = "verify_forward";
    /// Appending one record to the service's write-ahead job journal.
    pub const JOURNAL_WRITE: &str = "journal_write";
    /// Appending one completed tile to a full-chip run's checkpoint log.
    pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
    /// Every site above: the names [`super::FaultPlan::parse`] accepts.
    pub const ALL: &[&str] = &[HYDRATE, SYNTHESIS, VERIFY_FORWARD, JOURNAL_WRITE, CHECKPOINT_WRITE];
    /// The write sites, checked through
    /// [`super::FaultPlan::inject_write`]: the only sites where the
    /// durable-write kinds can fire.
    pub const WRITES: &[&str] = &[JOURNAL_WRITE, CHECKPOINT_WRITE];
}

/// What a firing fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Panic at the site (exercises panic isolation / thread supervision).
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Fail the operation with an injected error. At a write site it
    /// emulates an I/O error that
    /// [`AppendLog::append`](crate::applog::AppendLog::append) can really
    /// return; at a job site it fails the job, which runs once.
    Transient,
    /// Poison the site's numeric outputs with NaN. `verify_forward` is
    /// the one site producing heights, and the only one it parses at.
    Nan,
    /// Interrupt a durable write partway through (the append truncates
    /// the torn bytes and redoes the record in place — exercises that
    /// redo, not recovery). Write sites only.
    ShortWrite,
    /// Leave a full-length record with a corrupted checksum on disk and
    /// fail this and every later write — replay must drop it by
    /// validation, not by size. Write sites only.
    TornRecord,
    /// Abort-at-ordinal: freeze the durable layer as a kill at this exact
    /// write would, leaving a torn prefix on disk and failing this and
    /// every later write. Write sites only.
    Crash,
}

/// When a spec fires, relative to the per-site invocation counter.
#[derive(Debug, Clone, PartialEq)]
enum FaultTrigger {
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
struct FaultSpec {
    /// The site this rule applies to (see [`sites`]).
    site: String,
    /// The fault to inject.
    kind: FaultKind,
    /// Which invocations fault.
    trigger: FaultTrigger,
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

/// One 1-based trigger ordinal of `clause`.
fn ordinal(s: &str, clause: &str) -> Result<u64, String> {
    match s.trim().parse::<u64>() {
        Ok(0) => Err(format!("ordinal 0 in clause {clause:?}; ordinals count from 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad ordinal {s:?} in clause {clause:?}")),
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Marker substring carried by every injected transient error, so a
/// failed job's or a failed append's message names the fault that caused
/// it. Nothing retries on it: a job that fails runs once.
pub const TRANSIENT_MARKER: &str = "transient fault injected";

/// A durable-write fault returned by [`FaultPlan::inject_write`], telling
/// the write site *how* to damage its own output. The one write site,
/// [`AppendLog::append`](crate::applog::AppendLog::append), owns the
/// mechanics (what bytes land on disk); this enum only names the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Truncate the in-progress write, then redo it (self-healing).
    ShortWrite,
    /// Persist a checksum-corrupt record, then fail this and all later
    /// writes.
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
                        let (from, to) = (ordinal(from, clause)?, ordinal(to, clause)?);
                        if from > to {
                            return Err(format!("reversed range {from}-{to} in clause {clause:?}"));
                        }
                        FaultTrigger::Range { from, to }
                    } else {
                        let ordinals =
                            t.split(',').map(|s| ordinal(s, clause)).collect::<Result<Vec<_>, _>>()?;
                        FaultTrigger::Ordinals(ordinals)
                    }
                }
            };
            let can_fire = match kind {
                FaultKind::Nan => site == sites::VERIFY_FORWARD,
                FaultKind::ShortWrite | FaultKind::TornRecord | FaultKind::Crash => {
                    sites::WRITES.contains(&site)
                }
                FaultKind::Panic | FaultKind::Transient | FaultKind::Delay(_) => true,
            };
            if !can_fire {
                return Err(format!(
                    "fault kind {kind_str:?} can never fire at site {site:?} in clause {clause:?}"
                ));
            }
            specs.push(FaultSpec { site: site.to_string(), kind, trigger });
        }
        Ok(Self { specs, seed, counters: Mutex::default() })
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
        Ok(self.fire(site)? == Some(FaultKind::Nan))
    }

    /// The injection point for durable-write sites (journal appends,
    /// checkpoint finalizes). Behaves like [`FaultPlan::inject`] for
    /// `panic`/`delay`/`transient` faults, and surfaces the durable-write
    /// kinds: `Ok(Some(fault))` asks the caller to damage its write as
    /// described by the returned [`WriteFault`]. Returns `Ok(None)` when
    /// nothing fires.
    ///
    /// # Errors
    ///
    /// Returns the injected transient error.
    ///
    /// # Panics
    ///
    /// Panics when a `Panic` fault fires (by design).
    pub fn inject_write(&self, site: &str) -> Result<Option<WriteFault>, String> {
        Ok(match self.fire(site)? {
            Some(FaultKind::ShortWrite) => Some(WriteFault::ShortWrite),
            Some(FaultKind::TornRecord) => Some(WriteFault::TornRecord),
            Some(FaultKind::Crash) => Some(WriteFault::Crash),
            _ => None,
        })
    }

    /// Counts one invocation of `site` and applies the first spec that
    /// fires: panics, sleeps, or fails here, and hands any other kind
    /// back for its site to apply.
    fn fire(&self, site: &str) -> Result<Option<FaultKind>, String> {
        if self.specs.is_empty() {
            return Ok(None);
        }
        let ordinal = {
            let mut counters = self.counters.lock();
            let c = counters.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        for spec in self.specs.iter().filter(|s| s.site == site && s.fires(ordinal, self.seed)) {
            match spec.kind {
                FaultKind::Panic => {
                    panic!("fault injected: panic at '{site}' (invocation {ordinal})")
                }
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Transient => {
                    return Err(format!("{TRANSIENT_MARKER} at '{site}' (invocation {ordinal})"))
                }
                kind => return Ok(Some(kind)),
            }
        }
        Ok(None)
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
        let a = FaultPlan::parse("synthesis=transient@p0.5", 42).unwrap();
        let b = FaultPlan::parse("synthesis=transient@p0.5", 42).unwrap();
        let seq_a: Vec<bool> = (0..64).map(|_| a.inject(sites::SYNTHESIS).is_err()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.inject(sites::SYNTHESIS).is_err()).collect();
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
            "journal_write=crash@2; checkpoint_write=torn_record@1; journal_write=short_write@4",
            0,
        )
        .unwrap();
        // inject() treats a firing durable-write kind as nothing (but
        // still counts the invocation).
        assert_eq!(plan.inject(sites::JOURNAL_WRITE), Ok(false));
        assert_eq!(plan.inject(sites::JOURNAL_WRITE), Ok(false));
        assert_eq!(plan.invocations(sites::JOURNAL_WRITE), 2);
        // inject_write() surfaces them with their trigger semantics.
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert_eq!(plan.inject_write(sites::JOURNAL_WRITE), Ok(Some(WriteFault::ShortWrite)));
        assert_eq!(plan.inject_write(sites::CHECKPOINT_WRITE), Ok(Some(WriteFault::TornRecord)));
        assert_eq!(plan.inject_write(sites::CHECKPOINT_WRITE), Ok(None));
        let crash = FaultPlan::parse("journal_write=crash@2", 0).unwrap();
        assert_eq!(crash.inject_write(sites::JOURNAL_WRITE), Ok(None));
        assert_eq!(crash.inject_write(sites::JOURNAL_WRITE), Ok(Some(WriteFault::Crash)));
        assert_eq!(crash.inject_write(sites::JOURNAL_WRITE), Ok(None));
    }

    #[test]
    fn drills_that_can_never_fire_are_refused() {
        let refused = [
            ("hydrate=nan", "can never fire"),
            ("synthesis=nan@1", "can never fire"),
            ("journal_write=nan", "can never fire"),
            ("checkpoint_write=nan@p0.5", "can never fire"),
            ("hydrate=short_write", "can never fire"),
            ("synthesis=torn_record@2", "can never fire"),
            ("verify_forward=crash", "can never fire"),
            ("synthesis=transient@0", "ordinal 0"),
            ("journal_write=crash@2,0", "ordinal 0"),
            ("checkpoint_write=crash@0-3", "ordinal 0"),
            ("synthesis=panic@5-2", "reversed range 5-2"),
        ];
        for (clause, why) in refused {
            let err = FaultPlan::parse(&format!("hydrate=delay1; {clause}"), 0).unwrap_err();
            assert!(err.contains(clause) && err.contains(why), "{clause}: {err}");
        }
        // The chaos suites count ordinals with a probability of 0, and a
        // one-ordinal range is a range.
        for kept in ["checkpoint_write=crash@p0", "journal_write=crash@p0", "synthesis=panic@3-3"] {
            assert!(FaultPlan::parse(kept, 0).is_ok(), "{kept}");
        }
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
        // Removed sites and a typo: any would otherwise run a drill that
        // injects nothing and reports success.
        for bad in
            ["batch_forward=nan", "shard_read=transient", "synthesys=panic", "synthesis=panic; x=nan"]
        {
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
