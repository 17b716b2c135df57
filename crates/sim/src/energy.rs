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
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
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

    /// Advances global time by `k` slots.
    pub fn tick_by(&mut self, k: u64) {
        self.slots += k;
    }

    /// Total elapsed slots (the algorithm's time complexity so far).
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Energy of device `v`: slots spent listening or transmitting.
    pub fn energy(&self, v: usize) -> u64 {
        self.listen[v] + self.transmit[v]
    }

    /// Listening slots of device `v`.
    pub fn listen_count(&self, v: usize) -> u64 {
        self.listen[v]
    }

    /// Transmitting slots of device `v`.
    pub fn transmit_count(&self, v: usize) -> u64 {
        self.transmit[v]
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

    /// Merges another meter's counters into this one (device-wise addition;
    /// time is added too). Panics if the sizes differ.
    pub fn absorb(&mut self, other: &EnergyMeter) {
        assert_eq!(self.num_devices(), other.num_devices());
        for v in 0..self.num_devices() {
            self.listen[v] += other.listen[v];
            self.transmit[v] += other.transmit[v];
        }
        self.slots += other.slots;
    }

    /// Produces an immutable summary.
    pub fn report(&self) -> EnergyReport {
        EnergyReport {
            devices: self.num_devices(),
            slots: self.slots,
            max_energy: self.max_energy(),
            total_energy: self.total_energy(),
            mean_energy: self.mean_energy(),
            max_listen: self.listen.iter().copied().max().unwrap_or(0),
            max_transmit: self.transmit.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Immutable summary of an [`EnergyMeter`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Number of devices.
    pub devices: usize,
    /// Elapsed slots (time complexity).
    pub slots: u64,
    /// Maximum per-device energy (the paper's energy complexity).
    pub max_energy: u64,
    /// Aggregate energy over all devices.
    pub total_energy: u64,
    /// Mean per-device energy.
    pub mean_energy: f64,
    /// Maximum per-device listening slots.
    pub max_listen: u64,
    /// Maximum per-device transmitting slots.
    pub max_transmit: u64,
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
        m.tick_by(4);
        assert_eq!(m.energy(0), 2);
        assert_eq!(m.energy(1), 1);
        assert_eq!(m.energy(2), 0);
        assert_eq!(m.listen_count(0), 2);
        assert_eq!(m.transmit_count(1), 1);
        assert_eq!(m.max_energy(), 2);
        assert_eq!(m.total_energy(), 3);
        assert_eq!(m.slots(), 5);
        assert!((m.mean_energy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_adds_counters() {
        let mut a = EnergyMeter::new(2);
        a.charge_listen(0);
        a.tick();
        let mut b = EnergyMeter::new(2);
        b.charge_transmit(0);
        b.charge_listen(1);
        b.tick_by(3);
        a.absorb(&b);
        assert_eq!(a.energy(0), 2);
        assert_eq!(a.energy(1), 1);
        assert_eq!(a.slots(), 4);
    }

    #[test]
    fn report_summarizes() {
        let mut m = EnergyMeter::new(4);
        for _ in 0..5 {
            m.charge_listen(2);
        }
        m.charge_transmit(3);
        m.tick_by(7);
        let r = m.report();
        assert_eq!(r.devices, 4);
        assert_eq!(r.slots, 7);
        assert_eq!(r.max_energy, 5);
        assert_eq!(r.total_energy, 6);
        assert_eq!(r.max_listen, 5);
        assert_eq!(r.max_transmit, 1);
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

    #[test]
    #[should_panic]
    fn absorb_rejects_meters_of_different_sizes() {
        EnergyMeter::new(2).absorb(&EnergyMeter::new(3));
    }
}
