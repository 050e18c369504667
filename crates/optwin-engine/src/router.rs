//! The stream → shard routing table.
//!
//! Historically a stream was pinned to shard `id % shards` by arithmetic
//! scattered through the submit path. [`RouterTable`] turns that placement
//! into a first-class, *rebalanceable* table owned by the engine: the routing
//! function stays total (any stream id always routes somewhere — unknown ids
//! fall back to the modulo default, so first-sight auto-registration keeps
//! working with zero writes on the hot path) while **pins** recorded by
//! restore ([`crate::EngineBuilder::restore`], wire format v3) and by
//! [`crate::EngineHandle::rebalance`] override the default for individual
//! streams.
//!
//! # Locking protocol
//!
//! The handle holds the table behind a readers–writer lock with a strict
//! discipline:
//!
//! * Every handle operation that **sends messages to shard workers** (submit,
//!   register, flush, query, snapshot, shutdown) holds the *read* lock across
//!   its whole partition-and-send sequence.
//! * A rebalance holds the *write* lock across its entire
//!   query → plan → extract → install → repin sequence.
//!
//! Because per-shard channels are FIFO, this makes every rebalance a clean
//! cut in each worker's message stream: everything sent before the write
//! lock was acquired is processed before the migration, everything sent
//! after it was released is processed after — so per-stream record order
//! (and therefore every `DriftEvent` and its `seq`) is bit-exact regardless
//! of how many rebalances interleave with ingestion. Workers never take the
//! lock, so producers blocked on queue backpressure cannot deadlock a
//! migration.

use std::collections::HashMap;

/// The routing state: the shard count plus explicit per-stream pins.
///
/// Streams without a pin route to `id % shards` — the engine's historical
/// static placement, now merely the default rule of the table.
pub(crate) struct RouterTable {
    shards: usize,
    pins: HashMap<u64, usize>,
}

impl RouterTable {
    /// A table over `shards` shards with the given initial pins (restored
    /// or pre-registered placements; modulo-equal entries are elided).
    pub(crate) fn new(shards: usize, pins: impl IntoIterator<Item = (u64, usize)>) -> Self {
        let mut table = Self {
            shards,
            pins: HashMap::new(),
        };
        table.repin(pins);
        table
    }

    /// The shard records for `stream` route to.
    #[inline]
    pub(crate) fn shard_of(&self, stream: u64) -> usize {
        match self.pins.get(&stream) {
            Some(&shard) => shard,
            None => (stream % self.shards as u64) as usize,
        }
    }

    /// Replaces the pin set wholesale with a freshly computed assignment
    /// (the rebalance path). Assignments equal to the modulo default are
    /// dropped so the table only stores genuine overrides.
    pub(crate) fn repin(&mut self, assignment: impl IntoIterator<Item = (u64, usize)>) {
        self.pins.clear();
        for (stream, shard) in assignment {
            debug_assert!(shard < self.shards);
            if shard != (stream % self.shards as u64) as usize {
                self.pins.insert(stream, shard);
            }
        }
    }

    /// Number of explicit pins currently held.
    pub(crate) fn pin_count(&self) -> usize {
        self.pins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpinned_streams_route_by_modulo() {
        let table = RouterTable::new(4, []);
        for stream in 0..16u64 {
            assert_eq!(table.shard_of(stream), (stream % 4) as usize);
        }
        assert_eq!(table.pin_count(), 0);
    }

    #[test]
    fn pins_override_the_default_and_modulo_pins_are_elided() {
        let table = RouterTable::new(4, [(0, 3), (1, 1), (6, 0)]);
        assert_eq!(table.shard_of(0), 3);
        assert_eq!(table.shard_of(1), 1);
        assert_eq!(table.shard_of(6), 0);
        // (1 % 4 == 1): that pin agrees with the default and is elided, so
        // only streams 0 and 6 hold a pin.
        assert_eq!(table.pin_count(), 2);
    }

    #[test]
    fn repin_replaces_the_whole_pin_set() {
        let mut table = RouterTable::new(2, [(5, 0)]);
        assert_eq!(table.shard_of(5), 0);
        table.repin([(8, 1), (9, 1)]);
        // The old pin is gone; stream 5 is back on its modulo shard.
        assert_eq!(table.shard_of(5), 1);
        assert_eq!(table.shard_of(8), 1);
        // (9 % 2 == 1): elided again.
        assert_eq!(table.pin_count(), 1);
    }
}
