//! Cut-table pins: every entry of six `(δ, warning δ, ρ, w_max)` tables,
//! bit for bit, through each way a table gets filled.
//!
//! Each table is reduced to one FNV-1a 64 hash over the little-endian bytes
//! of, for each window length `w_min..=w_max` in order: `window_len` and
//! `split` as `u64`, `nu`, `exact` as `u64`, `t_crit`, `f_crit`, `df`,
//! `t_warn` and `f_warn`. Floats enter as `to_bits()`, an absent warning
//! value as `1`. The pinned hashes were taken from a sequential,
//! one-table-per-`w_max` build, so they hold the shared, parallel and lazy
//! fills to the exact bits of the original entries.
//!
//! The three fill paths:
//! * a private table (`CutTable::new`) filled by `precompute_all`;
//! * a fresh `CutTableRegistry` grown in increasing `w_max` order, where
//!   configurations that differ only in `w_max` share one table;
//! * a cold table filled lazily by `entries_range`, in chunks from the top
//!   length down, so no chunk can warm-start from an entry below it.
//!
//! The paper-default pins (`w_max` 25 000 and 10 000) take a few seconds in
//! a debug build and run in release with
//!
//! ```text
//! cargo test --release --test cut_table_pins -- --ignored
//! ```

use std::sync::Arc;

use optwin::core::CutEntry;
use optwin::{CutTable, CutTableRegistry, OptwinConfig};

/// One pinned table: its configuration and the hash of its entries.
struct Pin {
    delta: f64,
    warning: Option<f64>,
    rho: f64,
    w_max: usize,
    hash: u64,
}

const fn pin(delta: f64, warning: Option<f64>, rho: f64, w_max: usize, hash: u64) -> Pin {
    Pin {
        delta,
        warning,
        rho,
        w_max,
        hash,
    }
}

const PINS: [Pin; 6] = [
    pin(0.99, Some(0.95), 0.5, 2_000, 0xf71c_c837_c48a_31e5),
    pin(0.99, Some(0.95), 0.5, 1_200, 0x971c_89d9_c9fe_4b61),
    pin(0.99, Some(0.95), 1.0, 2_000, 0x69d6_e226_b414_9284),
    pin(0.99, Some(0.95), 0.25, 1_500, 0x65e9_dd80_024b_6128),
    pin(0.99, None, 0.5, 1_000, 0x8f44_6d00_86b3_0302),
    pin(0.95, Some(0.9), 2.0, 1_000, 0xc1b3_0d14_8b7d_35ca),
];

const PAPER_PINS: [Pin; 2] = [
    pin(0.99, Some(0.95), 0.5, 10_000, 0x5001_23a7_ecc6_3127),
    pin(0.99, Some(0.95), 0.5, 25_000, 0x6a3b_a567_4d75_7a01),
];

impl Pin {
    fn config(&self) -> OptwinConfig {
        OptwinConfig::builder()
            .confidence(self.delta)
            .warning_confidence(self.warning)
            .robustness(self.rho)
            .max_window(self.w_max)
            .build()
            .unwrap()
    }

    /// Hashes `table`'s entries over this pin's range and checks the pin.
    fn check(&self, table: &CutTable, path: &str) {
        let entries = table.entries_range(table.w_min(), self.w_max).unwrap();
        assert_eq!(
            table_hash(&entries),
            self.hash,
            "{path}: δ={} warning δ={:?} ρ={} w_max={}",
            self.delta,
            self.warning,
            self.rho,
            self.w_max
        );
    }
}

/// FNV-1a 64 over the entries' fields, as described in the module docs.
fn table_hash(entries: &[CutEntry]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in entries {
        put(e.window_len as u64);
        put(e.split as u64);
        put(e.nu.to_bits());
        put(u64::from(e.exact));
        put(e.t_crit.to_bits());
        put(e.f_crit.to_bits());
        put(e.df.to_bits());
        put(e.t_warn.map_or(1, f64::to_bits));
        put(e.f_warn.map_or(1, f64::to_bits));
    }
    hash
}

fn check_private_precompute(pins: &[Pin]) {
    for pin in pins {
        let table = CutTable::new(&pin.config()).unwrap();
        table.precompute_all().unwrap();
        pin.check(&table, "private precompute_all");
    }
}

/// Grows one fresh registry in increasing `w_max` order, precomputing after
/// each step, and returns the tables in `pins` order.
fn check_registry_growth(pins: &[Pin]) -> Vec<Arc<CutTable>> {
    let registry = CutTableRegistry::new();
    let mut order: Vec<usize> = (0..pins.len()).collect();
    order.sort_by_key(|&i| pins[i].w_max);
    let mut tables = vec![None; pins.len()];
    for i in order {
        let table = registry.get_or_build(&pins[i].config()).unwrap();
        table.precompute_all().unwrap();
        pins[i].check(&table, "registry, just grown");
        tables[i] = Some(table);
    }
    // Growing a shared table for a later w_max leaves earlier ranges intact.
    let tables: Vec<Arc<CutTable>> = tables.into_iter().map(Option::unwrap).collect();
    for (pin, table) in pins.iter().zip(&tables) {
        pin.check(table, "registry, fully grown");
    }
    tables
}

fn check_cold_top_down_fill(pins: &[Pin]) {
    const CHUNK: usize = 97;
    for pin in pins {
        let config = pin.config();
        let table = CutTable::new(&config).unwrap();
        let mut chunks = Vec::new();
        let mut hi = config.w_max;
        loop {
            let lo = hi.saturating_sub(CHUNK - 1).max(config.w_min);
            chunks.push(table.entries_range(lo, hi).unwrap());
            if lo == config.w_min {
                break;
            }
            hi = lo - 1;
        }
        let entries: Vec<CutEntry> = chunks.into_iter().rev().flatten().collect();
        assert_eq!(table_hash(&entries), pin.hash, "cold top-down fill");
        pin.check(&table, "cold top-down fill, cached");
    }
}

#[test]
fn private_precompute_reproduces_pinned_tables() {
    check_private_precompute(&PINS);
}

#[test]
fn registry_grown_across_w_max_reproduces_pinned_tables() {
    let tables = check_registry_growth(&PINS);
    // The two ρ = 0.5 configurations differ only in w_max: one table.
    assert!(Arc::ptr_eq(&tables[0], &tables[1]));
    assert_eq!(tables[0].w_max(), 2_000);
    for (i, table) in tables.iter().enumerate().skip(2) {
        for other in &tables[..i] {
            assert!(!Arc::ptr_eq(table, other));
        }
    }
}

#[test]
fn cold_top_down_range_fill_reproduces_pinned_tables() {
    check_cold_top_down_fill(&PINS);
}

#[test]
#[ignore = "paper-default tables; run in release"]
fn paper_default_tables_reproduce_pins() {
    check_private_precompute(&PAPER_PINS);
    let tables = check_registry_growth(&PAPER_PINS);
    assert!(Arc::ptr_eq(&tables[0], &tables[1]));
}
