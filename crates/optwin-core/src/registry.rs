//! Process-wide sharing of [`CutTable`]s.
//!
//! A cut table's entries depend only on `(δ, warning δ, ρ, w_min)` — never
//! on the data, and never on `w_max` — so every OPTWIN detector built from a
//! configuration with those four fields equal can share one table. The
//! multi-stream engine runs *thousands* of concurrent detectors, where
//! per-detector tables would multiply both memory (a full `w_max = 25 000`
//! table is ~2 MiB) and the one-off quantile computation.
//! [`CutTableRegistry`] keeps one table per key behind an [`Arc`]. A table is
//! computed in full when it is first served, and a request for a larger
//! `w_max` swaps in a longer copy; each detector still bounds its lookups by
//! its own `w_max`. [`CutTableRegistry::global`] is the process-wide
//! instance [`crate::Optwin::new`] uses.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cut::CutTable;
use crate::{OptwinConfig, Result};

/// The configuration fields a cut table's entries depend on, compared
/// bit-exactly so that `f64` parameters hash and compare reliably. `w_max`
/// is deliberately absent: Equation 1 never reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    delta_bits: u64,
    warning_delta_bits: Option<u64>,
    rho_bits: u64,
    w_min: usize,
}

impl TableKey {
    fn of(config: &OptwinConfig) -> Self {
        Self {
            delta_bits: config.delta.to_bits(),
            warning_delta_bits: config.warning_delta.map(f64::to_bits),
            rho_bits: config.rho.to_bits(),
            w_min: config.w_min,
        }
    }
}

/// One key's table. The slot has its own lock, so filling or growing one
/// key's table never holds up a lookup of another key.
type Slot = Arc<Mutex<Arc<CutTable>>>;

/// An interning cache of [`CutTable`]s keyed by the configuration fields
/// that determine their contents: δ, warning δ, ρ and `w_min`.
#[derive(Debug, Default)]
pub struct CutTableRegistry {
    tables: Mutex<HashMap<TableKey, Slot>>,
}

impl CutTableRegistry {
    /// Creates an empty registry. Most callers want
    /// [`CutTableRegistry::global`] instead.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static CutTableRegistry {
        static GLOBAL: OnceLock<CutTableRegistry> = OnceLock::new();
        GLOBAL.get_or_init(CutTableRegistry::new)
    }

    /// Returns the shared table for `config`, complete up to at least
    /// `config.w_max`.
    ///
    /// The first request for a key computes its table; a request for a
    /// larger `w_max` than the key's table covers builds a longer copy (the
    /// held entries are copied, only the new lengths are computed) and swaps
    /// it in. Both happen under that key's lock only, on the calling thread
    /// and the scoped threads it spawns. Detectors holding the shorter table
    /// keep using it: it still covers their `w_max`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] if the configuration is
    /// invalid, or a wrapped statistics error if an entry cannot be computed
    /// (practically unreachable for valid configurations).
    pub fn get_or_build(&self, config: &OptwinConfig) -> Result<Arc<CutTable>> {
        config.validate()?;
        let slot = Arc::clone(
            self.tables
                .lock()
                .entry(TableKey::of(config))
                .or_insert_with(|| Arc::new(Mutex::new(Arc::new(CutTable::empty(config))))),
        );
        let mut table = slot.lock();
        if table.w_max() < config.w_max {
            *table = Arc::new(table.grown_to(config.w_max)?);
        }
        Ok(Arc::clone(&table))
    }

    /// Number of distinct keys interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.lock().len()
    }

    /// `true` when no table is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every interned table. Detectors holding an [`Arc`] keep their
    /// table alive; only the registry's references are released.
    pub fn clear(&self) {
        self.tables.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftDirection;

    fn config(rho: f64, w_max: usize) -> OptwinConfig {
        OptwinConfig::builder()
            .robustness(rho)
            .max_window(w_max)
            .build()
            .unwrap()
    }

    #[test]
    fn same_key_shares_one_table() {
        let registry = CutTableRegistry::new();
        let a = registry.get_or_build(&config(0.5, 400)).unwrap();
        let b = registry.get_or_build(&config(0.5, 400)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn distinct_parameters_get_distinct_tables() {
        let registry = CutTableRegistry::new();
        let base = registry.get_or_build(&config(0.5, 400)).unwrap();
        let other_rho = registry.get_or_build(&config(1.0, 400)).unwrap();
        assert!(!Arc::ptr_eq(&base, &other_rho));
        assert_eq!(registry.len(), 2);

        // w_max is not part of the key: a larger window cap grows the key's
        // one table instead of adding another, and a smaller one is served
        // from the grown table.
        let other_window = registry.get_or_build(&config(0.5, 500)).unwrap();
        assert_eq!(other_window.w_max(), 500);
        assert_eq!(
            &other_window.entries()[..base.entries().len()],
            base.entries()
        );
        assert_eq!(registry.len(), 2);
        let smaller = registry.get_or_build(&config(0.5, 400)).unwrap();
        assert!(Arc::ptr_eq(&smaller, &other_window));

        // δ, warning δ and w_min participate in the key (they change
        // entries), so no detector runs on a table built for other values.
        let mut other_delta = config(0.5, 400);
        other_delta.delta = 0.999;
        let mut no_warn = config(0.5, 400);
        no_warn.warning_delta = None;
        let mut other_w_min = config(0.5, 400);
        other_w_min.w_min = 40;
        for (i, other) in [other_delta, no_warn, other_w_min].iter().enumerate() {
            let table = registry.get_or_build(other).unwrap();
            assert!(!Arc::ptr_eq(&base, &table));
            assert_eq!(registry.len(), 3 + i);
        }
    }

    #[test]
    fn direction_and_eta_do_not_split_the_cache() {
        // Fields that never influence table entries must share one table.
        let registry = CutTableRegistry::new();
        let a = registry.get_or_build(&config(0.5, 400)).unwrap();
        let mut symmetric = config(0.5, 400);
        symmetric.direction = DriftDirection::Both;
        symmetric.eta = 1e-3;
        let b = registry.get_or_build(&symmetric).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn clear_releases_registry_references() {
        let registry = CutTableRegistry::new();
        let held = registry.get_or_build(&config(0.5, 300)).unwrap();
        assert!(!registry.is_empty());
        registry.clear();
        assert!(registry.is_empty());
        // The held Arc is still usable after the registry drops its copy.
        assert_eq!(held.w_max(), 300);
        // A re-build creates a fresh table.
        let fresh = registry.get_or_build(&config(0.5, 300)).unwrap();
        assert!(!Arc::ptr_eq(&held, &fresh));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let registry = CutTableRegistry::new();
        let mut bad = config(0.5, 300);
        bad.rho = -1.0;
        assert!(registry.get_or_build(&bad).is_err());
        assert!(registry.is_empty());
    }

    #[test]
    fn global_registry_is_shared_across_threads() {
        let cfg = config(0.25, 123);
        let a = CutTableRegistry::global().get_or_build(&cfg).unwrap();
        let cfg2 = cfg.clone();
        let b = std::thread::spawn(move || CutTableRegistry::global().get_or_build(&cfg2).unwrap())
            .join()
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
