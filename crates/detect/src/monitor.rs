//! The public in-loop detection boundary: the [`Monitor`] trait.
//!
//! The guessing-game environments guard episodes with a monitor: every
//! [`CacheEvent`] the backend emits is fed to [`Monitor::observe`], and an
//! [`Verdict::Attack`] terminates (or penalizes) the episode. All three
//! paper detectors implement the trait, [`CompositeMonitor`] stacks any
//! number of them, and [`MonitorSpec`] is the serializable description a
//! scenario file uses to pick one.

use crate::autocorr::AutocorrDetector;
use crate::cyclone::CycloneFeatures;
use crate::misscount::MissCountDetector;
use crate::svm::LinearSvm;
use autocat_cache::CacheEvent;

/// A monitor's judgement after observing one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing suspicious about this event.
    Clean,
    /// This event pushed the monitor over its detection threshold.
    Attack,
}

impl Verdict {
    /// Whether this verdict signals an attack.
    pub fn is_attack(self) -> bool {
        self == Verdict::Attack
    }
}

/// An object-safe in-loop detector.
///
/// `observe` returns the verdict *attributable to the observed event*: a
/// monitor that is already past its threshold keeps returning
/// [`Verdict::Clean`] for events that do not themselves trip it, so an
/// environment can penalize per offending event rather than per step.
/// [`Monitor::score`] exposes the detector's running statistic (miss
/// count, max autocorrelation, SVM decision value) for reporting, and
/// [`Monitor::reset`] clears all accumulated state for a new episode:
///
/// ```
/// use autocat_cache::{CacheEvent, Domain};
/// use autocat_detect::{MissCountDetector, Monitor, Verdict};
///
/// let miss = |domain| CacheEvent::Access { domain, addr: 0, set: 0, hit: false };
/// let mut monitor: Box<dyn Monitor> = Box::new(MissCountDetector::new(2));
///
/// // Attacker misses never implicate the victim's hit rate.
/// assert_eq!(monitor.observe(&miss(Domain::Attacker)), Verdict::Clean);
/// // The first victim miss is below the threshold of 2...
/// assert_eq!(monitor.observe(&miss(Domain::Victim)), Verdict::Clean);
/// // ...the second trips it, and the verdict blames exactly that event.
/// assert_eq!(monitor.observe(&miss(Domain::Victim)), Verdict::Attack);
/// assert!(monitor.observe(&miss(Domain::Victim)).is_attack());
/// assert_eq!(monitor.score(), 3.0, "running statistic: victim misses seen");
///
/// // A new episode starts clean.
/// monitor.reset();
/// assert_eq!(monitor.score(), 0.0);
/// assert_eq!(monitor.observe(&miss(Domain::Victim)), Verdict::Clean);
/// ```
pub trait Monitor: std::fmt::Debug + Send {
    /// Feeds one cache event, returning the verdict it triggers.
    fn observe(&mut self, event: &CacheEvent) -> Verdict;

    /// Clears accumulated state for a new episode.
    fn reset(&mut self);

    /// The detector's running score (higher = more attack-like).
    fn score(&self) -> f64;

    /// Short human-readable detector name.
    fn name(&self) -> &'static str;

    /// Clones the monitor behind a fresh box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn Monitor>;
}

impl Clone for Box<dyn Monitor> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

impl Monitor for MissCountDetector {
    /// Flags every victim-program demand miss at or past the threshold
    /// (µarch-statistics detection, paper Sec. V-D).
    fn observe(&mut self, event: &CacheEvent) -> Verdict {
        let before = self.victim_misses();
        MissCountDetector::observe(self, event);
        if self.victim_misses() > before && self.is_attack() {
            Verdict::Attack
        } else {
            Verdict::Clean
        }
    }

    fn reset(&mut self) {
        MissCountDetector::reset(self);
    }

    fn score(&self) -> f64 {
        self.victim_misses() as f64
    }

    fn name(&self) -> &'static str {
        "miss-count"
    }

    fn box_clone(&self) -> Box<dyn Monitor> {
        Box::new(self.clone())
    }
}

impl Monitor for AutocorrDetector {
    /// Flags a cross-domain conflict miss that lifts the event train's
    /// autocorrelation past the threshold (CC-Hunter, paper Sec. V-D).
    fn observe(&mut self, event: &CacheEvent) -> Verdict {
        let before = self.train().len();
        self.observe_all(std::iter::once(event));
        if self.train().len() > before && self.is_attack() {
            Verdict::Attack
        } else {
            Verdict::Clean
        }
    }

    fn reset(&mut self) {
        AutocorrDetector::reset(self);
    }

    fn score(&self) -> f64 {
        self.max_autocorrelation()
    }

    fn name(&self) -> &'static str {
        "cc-hunter-autocorr"
    }

    fn box_clone(&self) -> Box<dyn Monitor> {
        Box::new(self.clone())
    }
}

/// Cyclone's cyclic-interference features fed to a linear SVM, packaged as
/// an in-loop [`Monitor`] (paper Sec. V-D).
///
/// Events are buffered for the episode; the SVM is re-evaluated on every
/// eviction event (the only events that add cyclic-interference marks).
#[derive(Clone, Debug)]
pub struct CycloneSvmMonitor {
    svm: LinearSvm,
    features: CycloneFeatures,
    events: Vec<CacheEvent>,
}

impl CycloneSvmMonitor {
    /// Wraps a trained SVM and a matching feature extractor.
    pub fn new(svm: LinearSvm, features: CycloneFeatures) -> Self {
        Self {
            svm,
            features,
            events: Vec::new(),
        }
    }

    /// The SVM decision value over the events observed so far.
    pub fn decision(&self) -> f32 {
        self.svm.decision(&self.features.extract(&self.events))
    }

    /// Whether the accumulated trace classifies as an attack.
    pub fn is_attack(&self) -> bool {
        self.svm.predict(&self.features.extract(&self.events)) == 1
    }
}

impl Monitor for CycloneSvmMonitor {
    fn observe(&mut self, event: &CacheEvent) -> Verdict {
        self.events.push(*event);
        if matches!(event, CacheEvent::Eviction { .. }) && self.is_attack() {
            Verdict::Attack
        } else {
            Verdict::Clean
        }
    }

    fn reset(&mut self) {
        self.events.clear();
    }

    fn score(&self) -> f64 {
        f64::from(self.decision())
    }

    fn name(&self) -> &'static str {
        "cyclone-svm"
    }

    fn box_clone(&self) -> Box<dyn Monitor> {
        Box::new(self.clone())
    }
}

/// Stacks several monitors: any member flagging an event flags the stack.
#[derive(Clone, Debug, Default)]
pub struct CompositeMonitor {
    monitors: Vec<Box<dyn Monitor>>,
}

impl CompositeMonitor {
    /// Builds a stack from already-boxed monitors.
    pub fn new(monitors: Vec<Box<dyn Monitor>>) -> Self {
        Self { monitors }
    }

    /// Adds a monitor to the stack.
    pub fn push(&mut self, monitor: Box<dyn Monitor>) {
        self.monitors.push(monitor);
    }

    /// The stacked monitors.
    pub fn members(&self) -> &[Box<dyn Monitor>] {
        &self.monitors
    }
}

impl Monitor for CompositeMonitor {
    fn observe(&mut self, event: &CacheEvent) -> Verdict {
        let mut verdict = Verdict::Clean;
        for m in &mut self.monitors {
            if m.observe(event).is_attack() {
                verdict = Verdict::Attack;
            }
        }
        verdict
    }

    fn reset(&mut self) {
        for m in &mut self.monitors {
            m.reset();
        }
    }

    /// The maximum member score (0.0 for an empty stack; negative member
    /// scores such as benign SVM decision values are preserved).
    fn score(&self) -> f64 {
        if self.monitors.is_empty() {
            return 0.0;
        }
        self.monitors
            .iter()
            .map(|m| m.score())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn name(&self) -> &'static str {
        "composite"
    }

    fn box_clone(&self) -> Box<dyn Monitor> {
        Box::new(self.clone())
    }
}

/// Serializable description of an in-loop monitor (what scenario files
/// store). [`MonitorSpec::build`] instantiates the described detector.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum MonitorSpec {
    /// No in-loop detection.
    #[default]
    Off,
    /// µarch-statistics detection: flag when the victim program's demand
    /// misses reach `threshold` (the paper uses 1).
    VictimMiss {
        /// Victim misses at or above which an attack is signalled.
        threshold: u64,
    },
    /// CC-Hunter autocorrelation over the conflict-miss event train.
    Autocorr {
        /// Detection threshold on the autocorrelation coefficient.
        threshold: f64,
        /// Maximum lag examined.
        max_lag: usize,
    },
    /// Cyclone cyclic-interference features through a linear SVM with the
    /// given (pre-trained) weights.
    CycloneSvm {
        /// SVM weight vector (one weight per feature interval).
        w: Vec<f32>,
        /// SVM bias.
        b: f32,
        /// Feature dimensionality (trace intervals).
        num_intervals: usize,
        /// Cyclic-interference proximity window.
        proximity_window: usize,
    },
    /// A stack of monitors; any member flagging flags the stack.
    Composite(
        /// Member specifications.
        Vec<MonitorSpec>,
    ),
}

impl MonitorSpec {
    /// The paper's strictest µarch-statistics detector: any victim miss is
    /// an attack.
    pub fn strict_miss() -> Self {
        MonitorSpec::VictimMiss { threshold: 1 }
    }

    /// CC-Hunter with the paper's parameters (threshold 0.75, lags ≤ 30).
    pub fn cc_hunter() -> Self {
        MonitorSpec::Autocorr {
            threshold: 0.75,
            max_lag: 30,
        }
    }

    /// Whether this spec describes "no detection".
    pub fn is_off(&self) -> bool {
        match self {
            MonitorSpec::Off => true,
            MonitorSpec::Composite(members) => members.iter().all(MonitorSpec::is_off),
            _ => false,
        }
    }

    /// Checks the spec for values [`MonitorSpec::build`] cannot honor, so
    /// malformed scenario files fail at configuration time instead of
    /// panicking mid-training.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MonitorSpec::Off => Ok(()),
            MonitorSpec::VictimMiss { threshold } => {
                if *threshold == 0 {
                    Err("victim-miss threshold must be positive".into())
                } else {
                    Ok(())
                }
            }
            MonitorSpec::Autocorr { threshold, max_lag } => {
                if *max_lag == 0 {
                    Err("autocorr max_lag must be positive".into())
                } else if !(*threshold > 0.0 && *threshold <= 1.0) {
                    // Autocorrelation coefficients are bounded in [-1, 1];
                    // anything outside (0, 1] flags everything or nothing.
                    Err(format!(
                        "autocorr threshold must be in (0, 1], got {threshold}"
                    ))
                } else {
                    Ok(())
                }
            }
            MonitorSpec::CycloneSvm {
                w, num_intervals, ..
            } => {
                if *num_intervals == 0 {
                    Err("cyclone-svm num_intervals must be positive".into())
                } else if w.len() != *num_intervals {
                    Err(format!(
                        "cyclone-svm weight vector has {} entries but num_intervals is {}",
                        w.len(),
                        num_intervals
                    ))
                } else {
                    Ok(())
                }
            }
            MonitorSpec::Composite(members) => members.iter().try_for_each(MonitorSpec::validate),
        }
    }

    /// Instantiates the described monitor (`None` when off).
    ///
    /// Call [`MonitorSpec::validate`] first for a graceful error: building
    /// an invalid spec clamps or panics (e.g. an SVM weight/interval
    /// mismatch panics on the first evaluated event).
    pub fn build(&self) -> Option<Box<dyn Monitor>> {
        match self {
            MonitorSpec::Off => None,
            MonitorSpec::VictimMiss { threshold } => {
                Some(Box::new(MissCountDetector::new((*threshold).max(1))))
            }
            MonitorSpec::Autocorr { threshold, max_lag } => {
                Some(Box::new(AutocorrDetector::new(*threshold, *max_lag)))
            }
            MonitorSpec::CycloneSvm {
                w,
                b,
                num_intervals,
                proximity_window,
            } => Some(Box::new(CycloneSvmMonitor::new(
                LinearSvm {
                    w: w.clone(),
                    b: *b,
                },
                CycloneFeatures::new(*num_intervals).with_proximity_window(*proximity_window),
            ))),
            MonitorSpec::Composite(members) => {
                let built: Vec<Box<dyn Monitor>> =
                    members.iter().filter_map(MonitorSpec::build).collect();
                if built.is_empty() {
                    None
                } else {
                    Some(Box::new(CompositeMonitor::new(built)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_cache::Domain;

    fn victim_miss() -> CacheEvent {
        CacheEvent::Access {
            domain: Domain::Victim,
            addr: 0,
            set: 0,
            hit: false,
        }
    }

    fn attacker_hit() -> CacheEvent {
        CacheEvent::Access {
            domain: Domain::Attacker,
            addr: 1,
            set: 0,
            hit: true,
        }
    }

    fn conflict(victim: Domain, evictor: Domain, evicted: u64, incoming: u64) -> CacheEvent {
        CacheEvent::Eviction {
            victim_domain: victim,
            evictor_domain: evictor,
            evicted_addr: evicted,
            incoming_addr: incoming,
            set: 0,
        }
    }

    #[test]
    fn misscount_monitor_flags_only_the_offending_event() {
        let mut m: Box<dyn Monitor> = Box::new(MissCountDetector::strict());
        assert_eq!(m.observe(&attacker_hit()), Verdict::Clean);
        assert_eq!(m.observe(&victim_miss()), Verdict::Attack);
        // Past the threshold, unrelated events stay clean...
        assert_eq!(m.observe(&attacker_hit()), Verdict::Clean);
        // ...but every further victim miss flags again.
        assert_eq!(m.observe(&victim_miss()), Verdict::Attack);
        assert_eq!(m.score(), 2.0);
        m.reset();
        assert_eq!(m.score(), 0.0);
    }

    #[test]
    fn autocorr_monitor_flags_periodic_conflict_train() {
        let mut m: Box<dyn Monitor> = Box::new(AutocorrDetector::new(0.7, 10));
        let mut flagged = false;
        // Strictly alternating A→V / V→A conflicts: maximal periodicity.
        for i in 0..40 {
            let ev = if i % 2 == 0 {
                conflict(Domain::Victim, Domain::Attacker, 0, 4)
            } else {
                conflict(Domain::Attacker, Domain::Victim, 4, 0)
            };
            flagged |= m.observe(&ev).is_attack();
        }
        assert!(
            flagged,
            "periodic train must trip CC-Hunter (C = {})",
            m.score()
        );
        assert!(m.score() > 0.7);
        // Non-conflict events never flag.
        assert_eq!(m.observe(&victim_miss()), Verdict::Clean);
    }

    #[test]
    fn composite_flags_when_any_member_flags() {
        let mut m = CompositeMonitor::new(vec![
            Box::new(AutocorrDetector::new(0.99, 5)),
            Box::new(MissCountDetector::new(2)),
        ]);
        assert_eq!(Monitor::observe(&mut m, &victim_miss()), Verdict::Clean);
        assert_eq!(Monitor::observe(&mut m, &victim_miss()), Verdict::Attack);
        assert_eq!(m.members().len(), 2);
        assert_eq!(Monitor::score(&m), 2.0, "max member score");
        Monitor::reset(&mut m);
        assert_eq!(Monitor::score(&m), 0.0);
    }

    #[test]
    fn cyclone_monitor_flags_ping_pong_with_biased_svm() {
        // An SVM that fires once any interval holds ≥ 2 cyclic marks.
        let svm = LinearSvm {
            w: vec![1.0; 4],
            b: -1.5,
        };
        let mut m = CycloneSvmMonitor::new(svm, CycloneFeatures::new(4));
        let mut flagged = false;
        for _ in 0..8 {
            flagged |= Monitor::observe(&mut m, &conflict(Domain::Victim, Domain::Attacker, 0, 4))
                .is_attack();
            flagged |= Monitor::observe(&mut m, &conflict(Domain::Attacker, Domain::Victim, 4, 0))
                .is_attack();
        }
        assert!(flagged, "tight ping-pong must trip the toy SVM");
        Monitor::reset(&mut m);
        assert!(!m.is_attack());
    }

    #[test]
    fn spec_builds_the_described_monitor() {
        assert!(MonitorSpec::Off.build().is_none());
        assert!(MonitorSpec::Off.is_off());
        assert!(MonitorSpec::Composite(vec![]).build().is_none());
        assert!(MonitorSpec::Composite(vec![MonitorSpec::Off]).is_off());
        let m = MonitorSpec::strict_miss().build().unwrap();
        assert_eq!(m.name(), "miss-count");
        let m = MonitorSpec::cc_hunter().build().unwrap();
        assert_eq!(m.name(), "cc-hunter-autocorr");
        let m = MonitorSpec::CycloneSvm {
            w: vec![0.5; 8],
            b: -1.0,
            num_intervals: 8,
            proximity_window: 12,
        }
        .build()
        .unwrap();
        assert_eq!(m.name(), "cyclone-svm");
        let m = MonitorSpec::Composite(vec![
            MonitorSpec::strict_miss(),
            MonitorSpec::cc_hunter(),
            MonitorSpec::Off,
        ])
        .build()
        .unwrap();
        assert_eq!(m.name(), "composite");
    }

    #[test]
    fn validate_rejects_unbuildable_specs() {
        assert!(MonitorSpec::Off.validate().is_ok());
        assert!(MonitorSpec::strict_miss().validate().is_ok());
        assert!(MonitorSpec::cc_hunter().validate().is_ok());
        assert!(MonitorSpec::VictimMiss { threshold: 0 }.validate().is_err());
        assert!(MonitorSpec::Autocorr {
            threshold: 0.75,
            max_lag: 0
        }
        .validate()
        .is_err());
        // Autocorrelation is bounded in [-1, 1]: a sign typo or an
        // impossible threshold must fail at configuration time.
        for threshold in [-0.75, 0.0, 1.5, f64::NAN] {
            assert!(
                MonitorSpec::Autocorr {
                    threshold,
                    max_lag: 30
                }
                .validate()
                .is_err(),
                "threshold {threshold} must be rejected"
            );
        }
        // SVM weight vector must match the feature dimensionality, or the
        // monitor would panic on its first evaluated event.
        let mismatched = MonitorSpec::CycloneSvm {
            w: vec![1.0; 4],
            b: -1.5,
            num_intervals: 8,
            proximity_window: 12,
        };
        assert!(mismatched.validate().unwrap_err().contains("4 entries"));
        // Composite validation recurses into members.
        assert!(
            MonitorSpec::Composite(vec![MonitorSpec::strict_miss(), mismatched])
                .validate()
                .is_err()
        );
    }

    #[test]
    fn boxed_monitor_clones_independently() {
        let mut a: Box<dyn Monitor> = Box::new(MissCountDetector::strict());
        a.observe(&victim_miss());
        let b = a.clone();
        a.observe(&victim_miss());
        assert_eq!(a.score(), 2.0);
        assert_eq!(b.score(), 1.0);
    }
}
