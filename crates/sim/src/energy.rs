//! Per-device energy accounting.
//!
//! The paper's cost measure: the energy of a device is the number of slots
//! in which it listens or transmits; the energy of an algorithm is the
//! maximum over devices. The meter tracks listening and transmitting
//! separately (useful for the "other energy models" discussion, where
//! transmissions are costlier), plus elapsed slots, so both the paper's
//! metric and time complexity fall out of one structure.

use serde::{Deserialize, Serialize};

/// How listening and transmitting slots convert into energy cost.
///
/// The paper's main model charges one unit for either (the default); its
/// "other energy models" discussion considers radios whose transmissions are
/// costlier than listening. The meter always tracks the two counters
/// separately, so the model is applied at read time and one run can be
/// summarised under any model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnergyModel {
    /// `listen = transmit = 1` (the paper's default).
    #[default]
    Uniform,
    /// Per-slot integer weights, e.g. `{ listen: 1, transmit: 3 }` for a
    /// radio whose power amplifier dominates its budget.
    Weighted {
        /// Cost of one listening slot.
        listen: u64,
        /// Cost of one transmitting slot.
        transmit: u64,
    },
}

impl EnergyModel {
    /// The cost of `listen_slots` listens plus `transmit_slots` transmits.
    ///
    /// ```
    /// use radio_sim::EnergyModel;
    ///
    /// assert_eq!(EnergyModel::Uniform.cost(4, 2), 6);
    /// let amplifier_heavy = EnergyModel::Weighted { listen: 1, transmit: 3 };
    /// assert_eq!(amplifier_heavy.cost(4, 2), 10);
    /// ```
    pub fn cost(&self, listen_slots: u64, transmit_slots: u64) -> u64 {
        match self {
            EnergyModel::Uniform => listen_slots + transmit_slots,
            EnergyModel::Weighted { listen, transmit } => {
                listen * listen_slots + transmit * transmit_slots
            }
        }
    }

    /// A printable label (used by scenario records and capability tables).
    pub fn label(&self) -> String {
        match self {
            EnergyModel::Uniform => "uniform".into(),
            EnergyModel::Weighted { listen, transmit } => format!("w{listen}l{transmit}t"),
        }
    }
}

/// Tracks per-device energy and global time.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyMeter {
    listen: Vec<u64>,
    transmit: Vec<u64>,
    slots: u64,
}

impl EnergyMeter {
    /// A meter for `n` devices, all counters zero.
    pub fn new(n: usize) -> Self {
        EnergyMeter {
            listen: vec![0; n],
            transmit: vec![0; n],
            slots: 0,
        }
    }

    /// Number of devices tracked.
    pub fn num_devices(&self) -> usize {
        self.listen.len()
    }

    /// Records that device `v` listened for one slot.
    pub fn charge_listen(&mut self, v: usize) {
        self.listen[v] += 1;
    }

    /// Records that device `v` transmitted for one slot.
    pub fn charge_transmit(&mut self, v: usize) {
        self.transmit[v] += 1;
    }

    /// Advances global time by one slot.
    pub fn tick(&mut self) {
        self.slots += 1;
    }

    /// Total elapsed slots (the algorithm's time complexity so far).
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Energy of device `v`: slots spent listening or transmitting.
    pub fn energy(&self, v: usize) -> u64 {
        self.listen[v] + self.transmit[v]
    }

    /// Per-device listening slots (indexed by device id).
    pub fn listen_counts(&self) -> &[u64] {
        &self.listen
    }

    /// Per-device transmitting slots (indexed by device id).
    pub fn transmit_counts(&self) -> &[u64] {
        &self.transmit
    }

    /// Maximum per-device energy — the paper's energy cost of the algorithm.
    pub fn max_energy(&self) -> u64 {
        (0..self.num_devices())
            .map(|v| self.energy(v))
            .max()
            .unwrap_or(0)
    }

    /// Sum of all devices' energy (an upper bound on the number of messages
    /// successfully received, per the information-theoretic remark in the
    /// paper's introduction).
    pub fn total_energy(&self) -> u64 {
        (0..self.num_devices()).map(|v| self.energy(v)).sum()
    }

    /// Mean per-device energy.
    pub fn mean_energy(&self) -> f64 {
        if self.num_devices() == 0 {
            0.0
        } else {
            self.total_energy() as f64 / self.num_devices() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = EnergyMeter::new(3);
        m.charge_listen(0);
        m.charge_listen(0);
        m.charge_transmit(1);
        m.tick();
        m.tick();
        assert_eq!(m.energy(0), 2);
        assert_eq!(m.energy(1), 1);
        assert_eq!(m.energy(2), 0);
        assert_eq!(m.listen_counts(), &[2, 0, 0]);
        assert_eq!(m.transmit_counts(), &[0, 1, 0]);
        assert_eq!(m.max_energy(), 2);
        assert_eq!(m.total_energy(), 3);
        assert_eq!(m.slots(), 2);
        assert!((m.mean_energy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_is_all_zero() {
        let m = EnergyMeter::new(0);
        assert_eq!(m.max_energy(), 0);
        assert_eq!(m.total_energy(), 0);
        assert_eq!(m.mean_energy(), 0.0);
    }

    #[test]
    fn the_default_model_is_the_papers_uniform_one() {
        assert_eq!(EnergyModel::default(), EnergyModel::Uniform);
        // Unit weights reproduce it exactly.
        let unit = EnergyModel::Weighted {
            listen: 1,
            transmit: 1,
        };
        for (l, t) in [(0, 0), (3, 0), (0, 5), (7, 2)] {
            assert_eq!(unit.cost(l, t), EnergyModel::Uniform.cost(l, t));
        }
    }
}
