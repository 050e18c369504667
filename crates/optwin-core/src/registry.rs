//! Process-wide sharing of pre-computed [`CutTable`]s.
//!
//! A cut table's entries depend only on `(δ, warning δ, ρ, w_min)` — never
//! on the data, and never on `w_max` — so every OPTWIN detector built from a
//! configuration with those four fields equal can share one table. The
//! evaluation harness always did this by hand for its 30 repetitions; the
//! multi-stream engine runs *thousands* of concurrent detectors, where
//! per-detector tables would multiply both memory (a full `w_max = 25 000`
//! table is ~2 MiB) and the one-off quantile computation.
//! [`CutTableRegistry`] interns one table per key behind an [`Arc`], grown
//! on demand to the largest `w_max` requested; each detector still bounds
//! its lookups by its own `w_max`. [`CutTableRegistry::global`] is the
//! process-wide instance [`crate::Optwin::new`] uses.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cut::{CutTable, TableKey};
use crate::{OptwinConfig, Result};

/// An interning cache of [`CutTable`]s keyed by the configuration fields
/// that determine their contents: δ, warning δ, ρ and `w_min`.
#[derive(Debug, Default)]
pub struct CutTableRegistry {
    tables: Mutex<HashMap<TableKey, Arc<CutTable>>>,
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

    /// Returns the shared table for `config`, building and interning it on
    /// first use and growing it to cover `config.w_max`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn get_or_build(&self, config: &OptwinConfig) -> Result<Arc<CutTable>> {
        config.validate()?;
        let table = match self.tables.lock().entry(TableKey::of(config)) {
            Entry::Occupied(slot) => Arc::clone(slot.get()),
            Entry::Vacant(slot) => Arc::clone(slot.insert(Arc::new(CutTable::new(config)?))),
        };
        table.serve(config)?;
        Ok(table)
    }

    /// Number of distinct tables currently interned.
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

        // w_max is not part of the key: a larger window cap grows the one
        // table instead of building another.
        let other_window = registry.get_or_build(&config(0.5, 500)).unwrap();
        assert!(Arc::ptr_eq(&base, &other_window));
        assert_eq!(base.w_max(), 500);
        assert_eq!(registry.len(), 2);

        // Warning confidence participates in the key (it changes entries).
        let mut no_warn = config(0.5, 400);
        no_warn.warning_delta = None;
        let warnless = registry.get_or_build(&no_warn).unwrap();
        assert!(!Arc::ptr_eq(&base, &warnless));
        assert_eq!(registry.len(), 3);
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
