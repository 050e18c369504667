//! Cut-table pins: every entry of eight `(δ, warning δ, ρ, w_max)` tables,
//! the paper defaults (`w_max` 10 000 and 25 000) among them, bit for bit,
//! through each way a table gets filled.
//!
//! Each table is reduced to one FNV-1a 64 hash over the little-endian bytes
//! of, for each window length `w_min..=w_max` in order: `window_len` and
//! `split` as `u64`, `nu`, `exact` as `u64`, `t_crit`, `f_crit`, `df`,
//! `t_warn` and `f_warn`. Floats enter as `to_bits()`, an absent warning
//! value as `1`. The hashes were last re-taken when the quantile solver
//! stopped bisecting: the critical values and degrees of freedom moved in
//! their last digits, and no `split` or `exact` flag changed.
//!
//! The two fill routes:
//! * a private table, computed in full by `CutTable::new`;
//! * a fresh `CutTableRegistry` grown in increasing `w_max` order, where
//!   configurations that differ only in `w_max` share one key, and a longer
//!   copy of that key's table, computing only the added lengths, replaces
//!   the shorter one.

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
    pin(0.99, Some(0.95), 0.5, 2_000, 0x435e_4989_b760_eadb),
    pin(0.99, Some(0.95), 0.5, 1_200, 0xace4_42aa_c58a_d7df),
    pin(0.99, Some(0.95), 1.0, 2_000, 0xb1bb_1332_e677_f1d2),
    pin(0.99, Some(0.95), 0.25, 1_500, 0xd45e_c4c1_5cf2_1585),
    pin(0.99, None, 0.5, 1_000, 0x539f_c4e0_9652_7a0f),
    pin(0.95, Some(0.9), 2.0, 1_000, 0x839e_2346_dd60_1ad4),
];

const PAPER_PINS: [Pin; 2] = [
    pin(0.99, Some(0.95), 0.5, 10_000, 0x96d8_6fa4_e343_a04d),
    pin(0.99, Some(0.95), 0.5, 25_000, 0x3495_059a_26a6_f298),
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
        let entries = &table.entries()[..=self.w_max - table.w_min()];
        assert_eq!(
            table_hash(entries),
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
        assert_eq!(table.w_max(), pin.w_max);
        pin.check(&table, "private CutTable::new");
    }
}

/// Grows one fresh registry in increasing `w_max` order, checking each
/// table as it is served, then checks every pin again on its key's final,
/// fully grown table. Returns the registry.
fn check_registry_growth(pins: &[Pin]) -> CutTableRegistry {
    let registry = CutTableRegistry::new();
    let mut order: Vec<&Pin> = pins.iter().collect();
    order.sort_by_key(|pin| pin.w_max);
    for pin in order {
        let table = registry.get_or_build(&pin.config()).unwrap();
        assert!(table.w_max() >= pin.w_max);
        pin.check(&table, "registry, just grown");
    }
    for pin in pins {
        let table = registry.get_or_build(&pin.config()).unwrap();
        pin.check(&table, "registry, fully grown");
    }
    registry
}

#[test]
fn private_precompute_reproduces_pinned_tables() {
    check_private_precompute(&PINS);
}

#[test]
fn registry_grown_across_w_max_reproduces_pinned_tables() {
    let registry = check_registry_growth(&PINS);
    // The two ρ = 0.5 configurations differ only in w_max: one key.
    assert_eq!(registry.len(), PINS.len() - 1);
    let shared = registry.get_or_build(&PINS[1].config()).unwrap();
    assert_eq!(shared.w_max(), 2_000);
}

#[test]
fn paper_default_tables_reproduce_pins() {
    check_private_precompute(&PAPER_PINS);
    let registry = check_registry_growth(&PAPER_PINS);
    assert_eq!(registry.len(), 1);
}
