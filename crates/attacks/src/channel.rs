//! Cycle-level covert-channel model (Table X and Fig. 5).
//!
//! The paper measures StealthyStreamline and LRU address-based covert
//! channels on four Intel machines. We cannot run on those machines, so
//! this module models the channel at cycle granularity:
//!
//! ```text
//! cycles/iteration = pacing · overhead + n_unmeasured · c_hit + n_measured · c_measure
//! bit rate (Mbps)  = bits/iteration · f_GHz·10⁹ / cycles/iteration · 10⁻⁶
//! ```
//!
//! Per-machine constants (`overhead`, `c_hit`, `c_measure`) are calibrated
//! once against the paper's Table X operating points — mirroring how the
//! real attack calibrates its timing loop per machine — and the *model*
//! then produces the full bit-rate-vs-error-rate curves of Fig. 5 and the
//! associativity trend (the 12-way gain exceeds the 8-way gain because only
//! 4 of 14 rather than 4 of 10 accesses are timed; timed accesses cost
//! `c_measure ≫ c_hit`). Error rates come from Monte-Carlo transmission
//! through the actual cache model with a noise level that rises as pacing
//! shrinks (rushed synchronization misclassifies more timings).

use crate::stealthy::StealthyStreamline;
use autocat_cache::PolicyKind;

/// Replacement-policy model for the channel simulation.
///
/// The real machines have tree-PLRU L1s; the paper tunes its sequences to
/// each tree (and still reports the 3-bit variant suffering from it). The
/// exact tuned sequences are not published, so the simulated channel runs
/// on true LRU, where the generic LRU-state sequence is exact — the access
/// and cycle arithmetic (what Table X / Fig. 5 measure) is identical.
fn policy_for_ways(_ways: usize) -> PolicyKind {
    PolicyKind::Lru
}

/// Which channel is being modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// The LRU address-based covert channel (1 bit per iteration).
    LruAddrBased,
    /// StealthyStreamline with 2-bit symbols.
    StealthyStreamline2,
    /// StealthyStreamline with 3-bit symbols.
    StealthyStreamline3,
}

impl ChannelKind {
    /// Bits transmitted per iteration.
    pub fn bits(&self) -> usize {
        match self {
            ChannelKind::LruAddrBased => 1,
            ChannelKind::StealthyStreamline2 => 2,
            ChannelKind::StealthyStreamline3 => 3,
        }
    }
}

/// A modelled machine (rows of Table X).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineModel {
    /// Machine name as in Table X.
    pub name: &'static str,
    /// Microarchitecture.
    pub uarch: &'static str,
    /// L1D associativity.
    pub l1_ways: usize,
    /// Effective clock in GHz.
    pub ghz: f64,
    /// Per-iteration synchronization/encode overhead in cycles (calibrated).
    pub overhead: f64,
    /// Unmeasured (plain) access cost in cycles.
    pub c_hit: f64,
    /// Timed access cost in cycles (serialize + rdtscp pair + load).
    pub c_measure: f64,
    /// Baseline probability a timed access is misclassified at pacing 1.0.
    pub base_flip: f64,
    /// How quickly flips grow as pacing is reduced below 1.0.
    pub rush_flip: f64,
}

impl MachineModel {
    /// Xeon E5-2687W v2 (IvyBridge), 8-way 32KB L1D.
    pub fn xeon_e5_2687w() -> Self {
        Self {
            name: "Xeon E5-2687W v2",
            uarch: "IvyBridge",
            l1_ways: 8,
            ghz: 3.4,
            overhead: 356.0,
            c_hit: 8.0,
            c_measure: 120.0,
            base_flip: 0.004,
            rush_flip: 0.3,
        }
    }

    /// Core i7-6700 (Skylake), 8-way 32KB L1D.
    pub fn core_i7_6700() -> Self {
        Self {
            name: "Core i7-6700",
            uarch: "Skylake",
            l1_ways: 8,
            ghz: 3.4,
            overhead: 663.0,
            c_hit: 8.0,
            c_measure: 209.0,
            base_flip: 0.004,
            rush_flip: 0.3,
        }
    }

    /// Core i5-11600K (RocketLake), 12-way 48KB L1D.
    pub fn core_i5_11600k() -> Self {
        Self {
            name: "Core i5-11600K",
            uarch: "RocketLake",
            l1_ways: 12,
            ghz: 3.9,
            overhead: 961.0,
            c_hit: 8.0,
            c_measure: 82.0,
            base_flip: 0.004,
            rush_flip: 0.3,
        }
    }

    /// Xeon W-1350P (RocketLake), 12-way 48KB L1D.
    pub fn xeon_w_1350p() -> Self {
        Self {
            name: "Xeon W-1350P",
            uarch: "RocketLake",
            l1_ways: 12,
            ghz: 4.0,
            overhead: 1600.0,
            c_hit: 8.0,
            c_measure: 90.0,
            base_flip: 0.004,
            rush_flip: 0.3,
        }
    }

    /// All four Table X machines.
    pub fn table10_machines() -> Vec<MachineModel> {
        vec![
            Self::xeon_e5_2687w(),
            Self::core_i7_6700(),
            Self::core_i5_11600k(),
            Self::xeon_w_1350p(),
        ]
    }
}

/// An operating point on the bit-rate/error-rate curve (Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatingPoint {
    /// Pacing factor (1.0 = calibrated; smaller = faster + noisier).
    pub pacing: f64,
    /// Bit rate in Mbps.
    pub bit_rate_mbps: f64,
    /// Bit error rate (0..1).
    pub error_rate: f64,
}

/// The covert-channel model for one machine and channel kind.
#[derive(Clone, Debug)]
pub struct CovertChannelModel {
    /// Machine constants.
    pub machine: MachineModel,
    /// Channel kind.
    pub kind: ChannelKind,
}

impl CovertChannelModel {
    /// Creates a model.
    pub fn new(machine: MachineModel, kind: ChannelKind) -> Self {
        Self { machine, kind }
    }

    /// `(unmeasured, measured)` accesses per iteration.
    pub fn accesses(&self) -> (usize, usize) {
        match self.kind {
            // LRU addr-based: fill `ways` lines + 1 evictor, 1 timed reload.
            ChannelKind::LruAddrBased => (self.machine.l1_ways, 1),
            ChannelKind::StealthyStreamline2 => {
                let ss = StealthyStreamline::new(
                    self.machine.l1_ways,
                    policy_for_ways(self.machine.l1_ways),
                    2,
                );
                let total = ss.accesses_per_iteration();
                let measured = ss.measured_per_iteration();
                (total - measured, measured)
            }
            ChannelKind::StealthyStreamline3 => {
                let ss = StealthyStreamline::new(
                    self.machine.l1_ways,
                    policy_for_ways(self.machine.l1_ways),
                    3,
                );
                let total = ss.accesses_per_iteration();
                let measured = ss.measured_per_iteration();
                (total - measured, measured)
            }
        }
    }

    /// Cycles per iteration at a pacing factor.
    pub fn cycles_per_iteration(&self, pacing: f64) -> f64 {
        let (unmeasured, measured) = self.accesses();
        pacing * self.machine.overhead
            + unmeasured as f64 * self.machine.c_hit
            + measured as f64 * self.machine.c_measure
    }

    /// Bit rate in Mbps at a pacing factor.
    pub fn bit_rate_mbps(&self, pacing: f64) -> f64 {
        let bits = self.kind.bits() as f64;
        bits * self.machine.ghz * 1e3 / self.cycles_per_iteration(pacing)
    }

    /// Per-measurement flip probability at a pacing factor (rushing the
    /// sync window misclassifies more timings).
    pub fn flip_prob(&self, pacing: f64) -> f64 {
        let rush = if pacing < 1.0 {
            self.machine.rush_flip * (1.0 / pacing - 1.0)
        } else {
            0.0
        };
        (self.machine.base_flip + rush).min(0.5)
    }

    /// Bit error rate at a pacing factor, via Monte-Carlo transmission
    /// through the cache model.
    pub fn error_rate(&self, pacing: f64, message_symbols: usize, seed: u64) -> f64 {
        let flip = self.flip_prob(pacing);
        let bits = self.kind.bits();
        match self.kind {
            ChannelKind::LruAddrBased => {
                // Single measured bit per iteration: analytic.
                flip
            }
            _ => {
                let ss = StealthyStreamline::new(
                    self.machine.l1_ways,
                    policy_for_ways(self.machine.l1_ways),
                    bits,
                );
                let symbol_err = ss.symbol_error_rate(message_symbols, flip, seed);
                // A symbol error corrupts about half its bits on average.
                (symbol_err * 0.5 * bits as f64 / bits as f64).min(1.0) + symbol_err * 0.5
            }
        }
    }

    /// Sweeps pacing factors producing the Fig. 5 curve.
    pub fn sweep(&self, pacings: &[f64], message_symbols: usize, seed: u64) -> Vec<OperatingPoint> {
        pacings
            .iter()
            .map(|&p| OperatingPoint {
                pacing: p,
                bit_rate_mbps: self.bit_rate_mbps(p),
                error_rate: self.error_rate(p, message_symbols, seed),
            })
            .collect()
    }

    /// The highest bit rate whose error rate stays below `max_error`
    /// (Table X's "bit rate when the average error rate < 5%").
    pub fn best_rate_under(&self, max_error: f64, message_symbols: usize, seed: u64) -> f64 {
        // Pacing below ~0.8 desynchronizes sender and receiver on real
        // machines (the timing loop needs its calibrated settle window), so
        // the achievable operating points start there.
        let pacings = [0.8, 0.9, 1.0, 1.1, 1.25, 1.5];
        self.sweep(&pacings, message_symbols, seed)
            .into_iter()
            .filter(|p| p.error_rate < max_error)
            .map(|p| p.bit_rate_mbps)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table10_operating_points_match_paper_shape() {
        // On every machine StealthyStreamline must beat the LRU channel at
        // the <5% error operating point, and the improvement must be larger
        // on the 12-way machines than the 8-way ones (paper: 22-24% vs
        // 67-71%).
        let mut improvements = Vec::new();
        for m in MachineModel::table10_machines() {
            let lru = CovertChannelModel::new(m.clone(), ChannelKind::LruAddrBased);
            let ss = CovertChannelModel::new(m.clone(), ChannelKind::StealthyStreamline2);
            let r_lru = lru.best_rate_under(0.05, 150, 1);
            let r_ss = ss.best_rate_under(0.05, 150, 1);
            assert!(
                r_ss > r_lru,
                "{}: SS {r_ss:.2} must beat LRU {r_lru:.2}",
                m.name
            );
            improvements.push((m.l1_ways, r_ss / r_lru - 1.0));
        }
        let avg_8: f64 = improvements
            .iter()
            .filter(|(w, _)| *w == 8)
            .map(|(_, i)| i)
            .sum::<f64>()
            / 2.0;
        let avg_12: f64 = improvements
            .iter()
            .filter(|(w, _)| *w == 12)
            .map(|(_, i)| i)
            .sum::<f64>()
            / 2.0;
        assert!(
            avg_12 > avg_8,
            "12-way improvement {avg_12:.2} must exceed 8-way {avg_8:.2}"
        );
    }

    #[test]
    fn calibrated_rates_are_in_paper_ballpark() {
        // i7-6700: paper reports LRU 3.6 / SS 4.5 Mbps at <5% error.
        let m = MachineModel::core_i7_6700();
        let lru = CovertChannelModel::new(m.clone(), ChannelKind::LruAddrBased).bit_rate_mbps(1.0);
        let ss = CovertChannelModel::new(m, ChannelKind::StealthyStreamline2).bit_rate_mbps(1.0);
        assert!((lru - 3.6).abs() < 0.8, "LRU rate {lru:.2} vs paper 3.6");
        assert!((ss - 4.5).abs() < 1.0, "SS rate {ss:.2} vs paper 4.5");
    }

    #[test]
    fn faster_pacing_raises_rate_and_error() {
        let m = MachineModel::core_i5_11600k();
        let c = CovertChannelModel::new(m, ChannelKind::StealthyStreamline2);
        assert!(c.bit_rate_mbps(0.5) > c.bit_rate_mbps(1.0));
        assert!(c.flip_prob(0.5) > c.flip_prob(1.0));
    }

    #[test]
    fn sweep_is_monotone_in_rate() {
        let m = MachineModel::xeon_e5_2687w();
        let c = CovertChannelModel::new(m, ChannelKind::LruAddrBased);
        let pts = c.sweep(&[0.5, 1.0, 1.5], 50, 2);
        assert!(pts[0].bit_rate_mbps > pts[1].bit_rate_mbps);
        assert!(pts[1].bit_rate_mbps > pts[2].bit_rate_mbps);
    }

    #[test]
    fn ss_access_arithmetic_follows_ways() {
        let m8 = MachineModel::core_i7_6700();
        let m12 = MachineModel::core_i5_11600k();
        let c8 = CovertChannelModel::new(m8, ChannelKind::StealthyStreamline2);
        let c12 = CovertChannelModel::new(m12, ChannelKind::StealthyStreamline2);
        assert_eq!(c8.accesses(), (6, 4), "8-way: 4 of 10 measured");
        assert_eq!(c12.accesses(), (10, 4), "12-way: 4 of 14 measured");
    }
}
