//! An aging hash table: the MAC-learning store of the reference switch.
//!
//! Entries carry a last-touched timestamp; anything older than the aging
//! interval is treated as absent and its slot reclaimable — the standard
//! 802.1D learning-table behaviour. The table is open-addressed with linear
//! probing over a fixed power-of-two slot count (what a BRAM-backed
//! hardware table does), so insertion can fail under collision pressure
//! even when the table is not full.

use netfpga_core::hash::Fnv1a64;
use netfpga_core::time::Time;
use std::hash::Hasher;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    touched: Time,
}

/// A fixed-size aging hash table.
#[derive(Debug, Clone)]
pub struct AgingTable<K: Eq + Clone, V: Clone> {
    slots: Vec<Option<Slot<K, V>>>,
    mask: usize,
    max_probe: usize,
    age_limit: Time,
    inserts: u64,
    insert_failures: u64,
    lookups: u64,
    hits: u64,
}

impl<K: Eq + Clone + std::hash::Hash, V: Clone> AgingTable<K, V> {
    /// A table of `capacity` slots (rounded up to a power of two) whose
    /// entries expire `age_limit` after their last refresh. Probe depth is
    /// fixed at 8, like a hardware multi-way read.
    pub fn new(capacity: usize, age_limit: Time) -> AgingTable<K, V> {
        let cap = capacity.next_power_of_two().max(8);
        AgingTable {
            slots: vec![None; cap],
            mask: cap - 1,
            max_probe: 8,
            age_limit,
            inserts: 0,
            insert_failures: 0,
            lookups: 0,
            hits: 0,
        }
    }

    fn index(&self, key: &K) -> usize {
        // FNV-1a in place of the default hasher, for determinism across
        // runs (std's SipHash is randomly keyed per process). The offset
        // basis XORed in on top permutes the slots; every learning-table
        // trace depends on exactly this index.
        let mut f = Fnv1a64::default();
        key.hash(&mut f);
        let h = Fnv1a64::OFFSET_BASIS ^ f.finish();
        (h as usize) & self.mask
    }

    fn live(&self, slot: &Slot<K, V>, now: Time) -> bool {
        now.saturating_sub(slot.touched) <= self.age_limit
    }

    /// Look up `key` at time `now`, refreshing its age on hit.
    pub fn lookup(&mut self, key: &K, now: Time) -> Option<V> {
        self.lookups += 1;
        let base = self.index(key);
        for p in 0..self.max_probe {
            let i = (base + p) & self.mask;
            if let Some(slot) = &mut self.slots[i] {
                if slot.key == *key {
                    if now.saturating_sub(slot.touched) <= self.age_limit {
                        slot.touched = now;
                        self.hits += 1;
                        return Some(slot.value.clone());
                    }
                    return None; // expired
                }
            }
        }
        None
    }

    /// Insert or refresh `key` at time `now`. Expired entries in the probe
    /// window are evicted to make room. Returns `false` if every slot in
    /// the window holds a live entry for another key.
    pub fn insert(&mut self, key: K, value: V, now: Time) -> bool {
        self.inserts += 1;
        let base = self.index(&key);
        let mut free: Option<usize> = None;
        for p in 0..self.max_probe {
            let i = (base + p) & self.mask;
            match &self.slots[i] {
                Some(slot) if slot.key == key => {
                    self.slots[i] = Some(Slot {
                        key,
                        value,
                        touched: now,
                    });
                    return true;
                }
                Some(slot) if !self.live(slot, now) => {
                    if free.is_none() {
                        free = Some(i);
                    }
                }
                Some(_) => {}
                None => {
                    if free.is_none() {
                        free = Some(i);
                    }
                }
            }
        }
        match free {
            Some(i) => {
                self.slots[i] = Some(Slot {
                    key,
                    value,
                    touched: now,
                });
                true
            }
            None => {
                self.insert_failures += 1;
                false
            }
        }
    }

    /// Count of live entries at `now` (scans; for stats/tests).
    pub fn live_entries(&self, now: Time) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| self.live(s, now))
            .count()
    }

    /// Table capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// (inserts, insert_failures, lookups, hits).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.inserts, self.insert_failures, self.lookups, self.hits)
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        for s in self.slots.iter_mut() {
            *s = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn learn_and_lookup() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(64, t(100));
        assert!(tab.insert(0xaabb, 3, t(0)));
        assert_eq!(tab.lookup(&0xaabb, t(10)), Some(3));
        assert_eq!(tab.lookup(&0xdead, t(10)), None);
    }

    #[test]
    fn entries_expire() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(64, t(100));
        tab.insert(1, 1, t(0));
        assert_eq!(tab.lookup(&1, t(100)), Some(1), "exactly at limit: alive");
        // The hit at t=100 refreshed it; expire from there.
        assert_eq!(tab.lookup(&1, t(201)), None);
        assert_eq!(tab.live_entries(t(201)), 0);
    }

    #[test]
    fn lookup_refreshes_age() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(64, t(100));
        tab.insert(1, 1, t(0));
        for step in 1..10 {
            assert_eq!(tab.lookup(&1, t(step * 60)), Some(1), "step {step}");
        }
    }

    #[test]
    fn update_moves_value() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(64, t(100));
        tab.insert(5, 1, t(0));
        tab.insert(5, 2, t(1));
        assert_eq!(tab.lookup(&5, t(2)), Some(2));
        assert_eq!(tab.live_entries(t(2)), 1);
    }

    #[test]
    fn expired_slots_are_reclaimed() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(8, t(10));
        // Fill all 8 slots.
        for k in 0..64u64 {
            tab.insert(k, 0, t(0));
        }
        let filled = tab.live_entries(t(0));
        assert!(filled > 0);
        // After expiry, new keys can land everywhere again.
        let mut ok = 0;
        for k in 100..164u64 {
            if tab.insert(k, 1, t(1000)) {
                ok += 1;
            }
        }
        assert!(ok > 0);
        assert_eq!(tab.live_entries(t(1000)), ok);
    }

    #[test]
    fn collision_pressure_can_fail() {
        // 8-slot table, probe depth 8: the 9th live key mapping anywhere
        // must fail somewhere; verify failures are counted.
        let mut tab: AgingTable<u64, u8> = AgingTable::new(8, t(1_000_000));
        let mut failures = 0;
        for k in 0..100u64 {
            if !tab.insert(k, 0, t(0)) {
                failures += 1;
            }
        }
        assert!(failures > 0);
        let (_, fail_stat, _, _) = tab.stats();
        assert_eq!(fail_stat, failures);
    }

    #[test]
    fn clear_empties() {
        let mut tab: AgingTable<u64, u8> = AgingTable::new(16, t(10));
        tab.insert(1, 1, t(0));
        tab.clear();
        assert_eq!(tab.lookup(&1, t(0)), None);
        assert_eq!(tab.live_entries(t(0)), 0);
        assert_eq!(tab.capacity(), 16);
    }
}
