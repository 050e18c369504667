//! Composite detectors: cheap-first [`Cascade`]s and k-of-N [`Ensemble`]s.
//!
//! The paper's eight detectors differ by orders of magnitude in per-element
//! cost (DDM, EDDM and Page–Hinkley are a handful of accumulator updates;
//! OPTWIN and KSWIN maintain large windows and run expensive cut/KS scans)
//! while differing far less in *when* they first raise a warning. The two
//! composites in this module exploit that asymmetry:
//!
//! * [`Cascade`] pairs a cheap **guard** with an expensive **confirmer**. On
//!   the stable path only the guard runs; the confirmer is *dormant* — not
//!   fed, not allocated. When the guard leaves [`DriftStatus::Stable`] the
//!   cascade **escalates**: the confirmer is rebuilt from its
//!   [`DetectorSpec`] and warm-started from a small bounded replay ring of
//!   the most recent values, then runs element-wise until it either confirms
//!   a drift or judges the stream stable for a configurable cooldown of
//!   consecutive elements, at which point it is dropped again (while
//!   escalated the confirmer's verdict alone drives the cooldown — a twitchy
//!   guard cannot hold the expensive detector live). A drift the confirmer finds *in the ring
//!   itself* during warm-start confirms the escalation on the spot — a slow
//!   guard may escalate only once the ring already spans the change. The
//!   guard arbitrates *escalation*; the confirmer alone arbitrates *drift*.
//! * [`Ensemble`] runs N child detectors on every element and reports drift
//!   (or warning) when at least `vote` of them agree — the robustness play
//!   to the cascade's throughput play. Because detectors fire at slightly
//!   different points even on the same abrupt shift, a member's drift vote
//!   stays live for `horizon` elements rather than counting only
//!   exact-same-element coincidences.
//!
//! Both implement the full [`DriftDetector`] contract — batch/element
//! bit-exactness, snapshot/restore exactness (nested child state, with the
//! dormant-confirmer flag persisted as a `null` child), and
//! capacity-counting [`DriftDetector::mem_footprint`] — so they ride the
//! engine's ingestion, hibernation, checkpoint and migration machinery
//! unchanged. They are built declaratively through the
//! [`DetectorSpec`] grammar's nested forms (see [`crate::spec`]):
//!
//! ```text
//! cascade:guard=ddm,confirm=optwin:delta=0.01
//! ensemble:vote=2,members=[ddm|ecdd|ph]
//! ```
//!
//! # Determinism of escalation
//!
//! The cascade never resets or rewinds the guard: the guard's trajectory
//! depends only on the input stream, which is what makes the batch path
//! exact (one `guard.add_batch` over the whole slice) and keeps the guard's
//! own calibration (e.g. DDM's running minima) intact across escalations.
//! Escalation points, the replay ring contents used to warm-start the
//! confirmer, and de-escalation points are all pure functions of the input
//! prefix, so a cascade snapshotted mid-escalation restores bit-exactly.

use std::collections::VecDeque;

use optwin_core::snapshot::{check_version, encode_f64_seq, f64_seq_field, field, invalid};
use optwin_core::{BatchOutcome, CoreError, DriftDetector, DriftStatus};

use crate::spec::DetectorSpec;

/// Serialization format version of [`Cascade`]'s and [`Ensemble`]'s state
/// snapshots.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration of a [`Cascade`]: the guard and confirmer specs plus the
/// escalation-protocol knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// The always-on cheap detector whose non-stable statuses trigger
    /// escalation (boxed: specs nest recursively).
    pub guard: Box<DetectorSpec>,
    /// The expensive detector woken inside warning zones; its drifts are the
    /// cascade's drifts.
    pub confirm: Box<DetectorSpec>,
    /// Capacity of the replay ring: how many of the most recent values (since
    /// the last confirmed drift) warm-start a freshly woken confirmer
    /// (default 256).
    pub replay: usize,
    /// Consecutive confirmer-stable elements after which an escalated cascade
    /// drops its confirmer again (default 256).
    pub cooldown: u32,
}

impl Default for CascadeConfig {
    /// DDM guarding OPTWIN — the pairing named by the roadmap — with a
    /// 256-element replay ring and cooldown.
    fn default() -> Self {
        Self {
            guard: Box::new(DetectorSpec::default_for("ddm").expect("ddm is a valid id")),
            confirm: Box::new(DetectorSpec::default_for("optwin").expect("optwin is a valid id")),
            replay: 256,
            cooldown: 256,
        }
    }
}

/// Configuration of an [`Ensemble`]: the member specs, the vote threshold,
/// and the drift-vote horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleConfig {
    /// Minimum number of members that must agree for the ensemble to report
    /// a drift (or warning) — `k` of N (default 2).
    pub vote: usize,
    /// The child detector specs, all fed every element.
    pub members: Vec<DetectorSpec>,
    /// How many elements a member's drift vote stays live (default 256).
    /// Detectors fire at slightly different points even on the same abrupt
    /// shift, so requiring `vote` drifts on the *same element*
    /// (`horizon=1`) would almost never trigger; the ensemble instead
    /// counts members that drifted within the last `horizon` elements.
    pub horizon: u32,
}

impl Default for EnsembleConfig {
    /// A 2-of-3 vote over the three cheapest binary baselines, with drift
    /// votes latched for 256 elements.
    fn default() -> Self {
        Self {
            vote: 2,
            members: vec![
                DetectorSpec::default_for("ddm").expect("ddm is a valid id"),
                DetectorSpec::default_for("ecdd").expect("ecdd is a valid id"),
                DetectorSpec::default_for("page_hinkley").expect("page_hinkley is a valid id"),
            ],
            horizon: 256,
        }
    }
}

/// A cheap-first cascade: guard always on, confirmer woken on demand. See
/// the [module documentation](self) for the protocol.
pub struct Cascade {
    guard: Box<dyn DriftDetector + Send>,
    /// `None` while dormant — the persisted dormant flag is a `null`
    /// confirmer entry in the snapshot.
    confirmer: Option<Box<dyn DriftDetector + Send>>,
    /// Spec the confirmer is rebuilt from at every escalation (and at
    /// restore of a mid-escalation snapshot).
    confirm_spec: DetectorSpec,
    /// The most recent ≤ `replay_cap` values since the last confirmed drift.
    replay: VecDeque<f64>,
    replay_cap: usize,
    cooldown: u32,
    /// Consecutive both-stable elements while escalated.
    stable_streak: u32,
    elements_seen: u64,
    drifts_detected: u64,
    /// Lifetime dormant→escalated transitions.
    escalations: u64,
    last_status: DriftStatus,
}

impl Cascade {
    /// Builds the cascade: the guard is constructed immediately, the
    /// confirmer spec is validated but stays dormant. Its OPTWIN cut tables
    /// are taken from the registry here
    /// ([`DetectorSpec::warm_cut_tables`]), so an escalation rebuilds the
    /// confirmer without computing a cut-table entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// [`DetectorSpec::validate`]: a child spec is invalid, `replay` is zero
    /// or above [`optwin_core::MAX_WINDOW`], `cooldown` is zero, or
    /// composites nest deeper than two levels.
    pub fn new(config: CascadeConfig) -> Result<Self, CoreError> {
        DetectorSpec::Cascade {
            config: config.clone(),
        }
        .validate()?;
        let guard = config.guard.build()?;
        config.confirm.warm_cut_tables()?;
        Ok(Self {
            guard,
            confirmer: None,
            confirm_spec: (*config.confirm).clone(),
            replay: VecDeque::with_capacity(config.replay),
            replay_cap: config.replay,
            cooldown: config.cooldown,
            stable_streak: 0,
            elements_seen: 0,
            drifts_detected: 0,
            escalations: 0,
            last_status: DriftStatus::Stable,
        })
    }

    /// `true` while the confirmer is live (between an escalation and the
    /// next confirmed drift or cooldown expiry).
    #[must_use]
    pub fn is_escalated(&self) -> bool {
        self.confirmer.is_some()
    }

    /// Lifetime dormant→escalated transitions.
    #[must_use]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Pushes one value into the bounded replay ring.
    fn push_replay(&mut self, value: f64) {
        if self.replay.len() == self.replay_cap {
            self.replay.pop_front();
        }
        self.replay.push_back(value);
    }

    /// Extends the ring with a run of values known to be drift-free — the
    /// batch fast path's equivalent of per-element [`Cascade::push_replay`].
    fn extend_replay(&mut self, values: &[f64]) {
        if values.len() >= self.replay_cap {
            self.replay.clear();
            self.replay
                .extend(values[values.len() - self.replay_cap..].iter().copied());
        } else {
            while self.replay.len() + values.len() > self.replay_cap {
                self.replay.pop_front();
            }
            self.replay.extend(values.iter().copied());
        }
    }

    /// The escalation-protocol step for one element, *after* the guard has
    /// ingested it. `guard_status` is the guard's verdict for this element;
    /// `value` has not yet been pushed into the replay ring.
    fn step_after_guard(&mut self, value: f64, guard_status: DriftStatus) -> DriftStatus {
        if self.confirmer.is_none() && guard_status != DriftStatus::Stable {
            // Wake the confirmer: rebuild from spec (validated at
            // construction, so this cannot fail) and warm-start it from the
            // replay ring.
            let mut confirmer = self
                .confirm_spec
                .build()
                .expect("confirm spec validated at construction");
            let (front, back) = self.replay.as_slices();
            let front_fired = !confirmer.add_batch(front).drift_indices.is_empty();
            let back_fired = !confirmer.add_batch(back).drift_indices.is_empty();
            self.escalations += 1;
            self.stable_streak = 0;
            if front_fired || back_fired {
                // The ring alone already holds a confirmable change: a slow
                // guard escalated late enough that the confirmer fires during
                // warm-start. Discarding that verdict would swallow exactly
                // the escalations with the strongest evidence (the reset
                // confirmer would only ever see the post-change regime), so
                // it confirms this escalation immediately.
                self.drifts_detected += 1;
                self.replay.clear();
                self.last_status = DriftStatus::Drift;
                return DriftStatus::Drift;
            }
            self.confirmer = Some(confirmer);
        }
        let status = match self.confirmer.as_mut() {
            None => DriftStatus::Stable,
            Some(confirmer) => match confirmer.add_element(value) {
                DriftStatus::Drift => {
                    // The confirmer confirmed: drop it (the next escalation
                    // starts fresh) and clear the ring — post-drift values
                    // belong to the new concept. The guard is deliberately
                    // *not* reset; see the module docs.
                    self.drifts_detected += 1;
                    self.confirmer = None;
                    self.replay.clear();
                    self.stable_streak = 0;
                    DriftStatus::Drift
                }
                confirm_status => {
                    // While escalated the confirmer is the authority: only
                    // its verdict drives the cooldown streak. A twitchy guard
                    // (DDM right after its own self-reset warns sparsely for
                    // thousands of elements) must not hold the expensive
                    // detector live — that pays confirmer prices exactly when
                    // the guard is least reliable. If the guard was right
                    // after all, its next warning re-escalates with a warm
                    // start from the ring.
                    if confirm_status == DriftStatus::Warning {
                        self.stable_streak = 0;
                    } else {
                        self.stable_streak += 1;
                        if self.stable_streak >= self.cooldown {
                            self.confirmer = None;
                            self.stable_streak = 0;
                        }
                    }
                    if guard_status != DriftStatus::Stable || confirm_status == DriftStatus::Warning
                    {
                        DriftStatus::Warning
                    } else {
                        DriftStatus::Stable
                    }
                }
            },
        };
        if status != DriftStatus::Drift {
            self.push_replay(value);
        }
        self.last_status = status;
        status
    }
}

impl DriftDetector for Cascade {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        let guard_status = self.guard.add_element(value);
        self.step_after_guard(value, guard_status)
    }

    /// Native batch path. The guard ingests the whole slice through its own
    /// `add_batch` first — exact because the cascade never mutates the
    /// guard — and when it stayed entirely stable over a dormant cascade
    /// (the common case), the only remaining work is extending the replay
    /// ring. Otherwise the escalation protocol walks the elements using the
    /// guard statuses reconstructed from the batch outcome — but every
    /// stretch where the cascade is dormant and the guard stayed stable is
    /// still handled in bulk (elements there can only extend the ring), so
    /// one early warning does not demote the rest of a large batch to the
    /// element-wise path.
    fn add_batch(&mut self, values: &[f64]) -> BatchOutcome {
        let guard_outcome = self.guard.add_batch(values);
        if self.confirmer.is_none()
            && guard_outcome.drift_indices.is_empty()
            && guard_outcome.warning_indices.is_empty()
        {
            self.elements_seen += values.len() as u64;
            self.extend_replay(values);
            if !values.is_empty() {
                self.last_status = DriftStatus::Stable;
            }
            return BatchOutcome::default();
        }
        let mut outcome = BatchOutcome::default();
        let mut drifts = guard_outcome.drift_indices.iter().copied().peekable();
        let mut warnings = guard_outcome.warning_indices.iter().copied().peekable();
        let mut i = 0;
        while i < values.len() {
            if self.confirmer.is_none() {
                // Dormant: bulk-extend the ring up to the guard's next
                // non-stable element (bit-identical to stepping each stable
                // element, which only pushes into the ring).
                let next = drifts
                    .peek()
                    .copied()
                    .unwrap_or(values.len())
                    .min(warnings.peek().copied().unwrap_or(values.len()));
                if next > i {
                    self.elements_seen += (next - i) as u64;
                    self.extend_replay(&values[i..next]);
                    self.last_status = DriftStatus::Stable;
                    i = next;
                    continue;
                }
            }
            let guard_status = if drifts.peek() == Some(&i) {
                drifts.next();
                DriftStatus::Drift
            } else if warnings.peek() == Some(&i) {
                warnings.next();
                DriftStatus::Warning
            } else {
                DriftStatus::Stable
            };
            self.elements_seen += 1;
            outcome.record(i, self.step_after_guard(values[i], guard_status));
            i += 1;
        }
        outcome
    }

    fn name(&self) -> &'static str {
        "CASCADE"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Struct size plus the replay ring at capacity, the guard's full
    /// footprint, and the confirmer's footprint while it is live. A dormant
    /// confirmer costs nothing — but the ring that would warm-start it stays
    /// counted, so the hibernation audit never reads an idle cascade as
    /// guard-only.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self)
            + self.replay.capacity() * std::mem::size_of::<f64>()
            + self.guard.mem_footprint()
            + self
                .confirmer
                .as_ref()
                .map_or(0, |confirmer| confirmer.mem_footprint())
    }

    /// Nested snapshot: the guard's (and, when live, the confirmer's) own
    /// state embedded as sub-objects, the replay ring as a blob, and a
    /// `null` confirmer as the persisted dormant flag. `elements_seen` /
    /// `drifts_detected` stay top-level so the engine's hibernation tier can
    /// audit sleeping cascades.
    fn snapshot_state(&self) -> serde::Value {
        let guard = self.guard.snapshot_state();
        let confirmer = match self.confirmer.as_ref() {
            Some(confirmer) => confirmer.snapshot_state(),
            None => serde::Value::Null,
        };
        use serde::Serialize as _;
        let replay: Vec<f64> = self.replay.iter().copied().collect();
        serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            (
                "escalations".to_string(),
                serde::Value::UInt(self.escalations),
            ),
            (
                "stable_streak".to_string(),
                serde::Value::UInt(u64::from(self.stable_streak)),
            ),
            ("replay".to_string(), encode_f64_seq(&replay)),
            ("last_status".to_string(), self.last_status.to_value()),
            ("guard".to_string(), guard),
            ("confirmer".to_string(), confirmer),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "CASCADE")?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let escalations: u64 = field(state, "escalations")?;
        let stable_streak: u32 = field(state, "stable_streak")?;
        let replay = f64_seq_field(state, "replay")?;
        if replay.len() > self.replay_cap {
            return Err(invalid(format!(
                "replay ring has {} entries, configuration allows {}",
                replay.len(),
                self.replay_cap
            )));
        }
        let last_status: DriftStatus = field(state, "last_status")?;
        let guard_state = state
            .get("guard")
            .ok_or_else(|| invalid("missing field `guard`"))?;
        let confirmer_state = state
            .get("confirmer")
            .ok_or_else(|| invalid("missing field `confirmer`"))?;
        // Rebuild + restore the confirmer before touching `self`, and
        // restore the guard (itself all-or-nothing) last among the fallible
        // steps, so a bad snapshot leaves the cascade unchanged.
        let confirmer = match confirmer_state {
            serde::Value::Null => None,
            live => {
                let mut confirmer = self.confirm_spec.build().map_err(|e| {
                    invalid(format!("rebuilding confirmer from its spec failed: {e}"))
                })?;
                confirmer.restore_state(live)?;
                Some(confirmer)
            }
        };
        self.guard.restore_state(guard_state)?;
        self.confirmer = confirmer;
        self.replay = {
            let mut ring = VecDeque::with_capacity(self.replay_cap);
            ring.extend(replay);
            ring
        };
        self.stable_streak = stable_streak;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.escalations = escalations;
        self.last_status = last_status;
        Ok(())
    }
}

/// A k-of-N voting ensemble over independent child detectors. See the
/// [module documentation](self).
pub struct Ensemble {
    members: Vec<Box<dyn DriftDetector + Send>>,
    /// Specs the members are rebuilt from on restore (all-or-nothing).
    member_specs: Vec<DetectorSpec>,
    vote: usize,
    horizon: u32,
    /// Per member: how many more elements its latest drift vote stays live
    /// (0 = no recent drift). Cleared across the board when the ensemble
    /// itself reports a drift, so one burst yields one ensemble drift.
    drift_ttls: Vec<u32>,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Ensemble {
    /// Builds every member. Members are fully independent: each self-resets
    /// on its own drifts, and an ensemble-level drift does not reset anyone
    /// (only the latched drift votes are cleared).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// [`DetectorSpec::validate`]: `members` is empty, `vote` is outside
    /// `1..=members.len()`, `horizon` is zero, a member spec is invalid, or
    /// composites nest deeper than two levels.
    pub fn new(config: EnsembleConfig) -> Result<Self, CoreError> {
        DetectorSpec::Ensemble {
            config: config.clone(),
        }
        .validate()?;
        let members = config
            .members
            .iter()
            .map(DetectorSpec::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            drift_ttls: vec![0; members.len()],
            members,
            member_specs: config.members,
            vote: config.vote,
            horizon: config.horizon,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        })
    }

    /// The ensemble verdict for one element, after every member's
    /// drift-vote TTL has been updated for it. `warning_votes` counts the
    /// members at [`DriftStatus::Warning`] or above *on this element*;
    /// drift votes are the latched TTLs.
    fn verdict(&mut self, warning_votes: usize) -> DriftStatus {
        let drift_votes = self.drift_ttls.iter().filter(|&&ttl| ttl > 0).count();
        let status = if drift_votes >= self.vote {
            self.drifts_detected += 1;
            self.drift_ttls.fill(0);
            DriftStatus::Drift
        } else if warning_votes >= self.vote {
            DriftStatus::Warning
        } else {
            DriftStatus::Stable
        };
        self.last_status = status;
        status
    }
}

impl DriftDetector for Ensemble {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        let mut warning_votes = 0usize;
        for (member, ttl) in self.members.iter_mut().zip(&mut self.drift_ttls) {
            match member.add_element(value) {
                DriftStatus::Drift => {
                    *ttl = self.horizon;
                    warning_votes += 1;
                }
                DriftStatus::Warning => {
                    *ttl = ttl.saturating_sub(1);
                    warning_votes += 1;
                }
                DriftStatus::Stable => *ttl = ttl.saturating_sub(1),
            }
        }
        self.verdict(warning_votes)
    }

    fn name(&self) -> &'static str {
        "ENSEMBLE"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Struct size plus the member and vote tables and every member's own
    /// footprint.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self)
            + self.members.capacity() * std::mem::size_of::<Box<dyn DriftDetector + Send>>()
            + self.drift_ttls.capacity() * std::mem::size_of::<u32>()
            + self
                .members
                .iter()
                .map(|member| member.mem_footprint())
                .sum::<usize>()
    }

    fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize as _;
        let members = self
            .members
            .iter()
            .map(|member| member.snapshot_state())
            .collect();
        serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            ("last_status".to_string(), self.last_status.to_value()),
            (
                "drift_ttls".to_string(),
                serde::Value::Array(
                    self.drift_ttls
                        .iter()
                        .map(|&ttl| serde::Value::UInt(u64::from(ttl)))
                        .collect(),
                ),
            ),
            ("members".to_string(), serde::Value::Array(members)),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        use serde::Deserialize as _;
        check_version(state, SNAPSHOT_VERSION, "ENSEMBLE")?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;
        let serde::Value::Array(member_states) = state
            .get("members")
            .ok_or_else(|| invalid("missing field `members`"))?
        else {
            return Err(invalid("field `members` must be an array"));
        };
        if member_states.len() != self.member_specs.len() {
            return Err(invalid(format!(
                "snapshot has {} member states, configuration has {} members",
                member_states.len(),
                self.member_specs.len()
            )));
        }
        let serde::Value::Array(ttl_values) = state
            .get("drift_ttls")
            .ok_or_else(|| invalid("missing field `drift_ttls`"))?
        else {
            return Err(invalid("field `drift_ttls` must be an array"));
        };
        if ttl_values.len() != self.member_specs.len() {
            return Err(invalid(format!(
                "snapshot has {} drift_ttls entries, configuration has {} members",
                ttl_values.len(),
                self.member_specs.len()
            )));
        }
        let mut drift_ttls = Vec::with_capacity(ttl_values.len());
        for value in ttl_values {
            let ttl = u32::from_value(value).map_err(|e| invalid(e.to_string()))?;
            if ttl > self.horizon {
                return Err(invalid(format!(
                    "drift_ttls entry {ttl} exceeds the configured horizon {}",
                    self.horizon
                )));
            }
            drift_ttls.push(ttl);
        }
        // Restore into freshly built members and swap in only on full
        // success, so a bad snapshot leaves the ensemble unchanged.
        let mut members = Vec::with_capacity(self.member_specs.len());
        for (spec, member_state) in self.member_specs.iter().zip(member_states) {
            let mut member = spec
                .build()
                .map_err(|e| invalid(format!("rebuilding member from its spec failed: {e}")))?;
            member.restore_state(member_state)?;
            members.push(member);
        }
        self.members = members;
        self.drift_ttls = drift_ttls;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.last_status = last_status;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{assert_batch_equivalence, assert_snapshot_equivalence, bernoulli};

    /// A binary error stream whose error rate jumps from 5 % to 45 % at
    /// `drift_at` — enough to escalate and confirm on every pairing.
    fn drifting_stream(len: usize, drift_at: usize) -> Vec<f64> {
        (0..len)
            .map(|i| bernoulli(i as u64, if i < drift_at { 0.05 } else { 0.45 }))
            .collect()
    }

    fn cascade_config(guard: &str, confirm: &str) -> CascadeConfig {
        CascadeConfig {
            guard: Box::new(guard.parse().unwrap()),
            confirm: Box::new(confirm.parse().unwrap()),
            ..CascadeConfig::default()
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let zero_replay = CascadeConfig {
            replay: 0,
            ..CascadeConfig::default()
        };
        assert!(Cascade::new(zero_replay).is_err());
        let zero_cooldown = CascadeConfig {
            cooldown: 0,
            ..CascadeConfig::default()
        };
        assert!(Cascade::new(zero_cooldown).is_err());
        let oversized_replay = CascadeConfig {
            replay: optwin_core::MAX_WINDOW + 1,
            ..CascadeConfig::default()
        };
        assert!(matches!(
            Cascade::new(oversized_replay),
            Err(CoreError::InvalidConfig {
                field: "replay",
                ..
            })
        ));

        let no_members = EnsembleConfig {
            members: Vec::new(),
            ..EnsembleConfig::default()
        };
        assert!(Ensemble::new(no_members).is_err());
        let vote_too_high = EnsembleConfig {
            vote: 4,
            ..EnsembleConfig::default()
        };
        assert!(Ensemble::new(vote_too_high).is_err());
        let vote_zero = EnsembleConfig {
            vote: 0,
            ..EnsembleConfig::default()
        };
        assert!(Ensemble::new(vote_zero).is_err());
    }

    #[test]
    fn cascade_metadata_and_input_domain() {
        let d = Cascade::new(CascadeConfig::default()).unwrap();
        assert_eq!(d.name(), "CASCADE");
        // DDM guard is binary-only, so the cascade is too.
        let spec = |config| DetectorSpec::Cascade { config };
        assert!(spec(CascadeConfig::default()).binary_only());
        let real = spec(cascade_config("adwin", "kswin"));
        real.build().unwrap();
        assert!(!real.binary_only());
    }

    #[test]
    fn cascade_escalates_confirms_and_deescalates() {
        let mut d = Cascade::new(CascadeConfig::default()).unwrap();
        let stream = drifting_stream(6_000, 3_000);
        assert!(!d.is_escalated());
        let outcome = d.add_batch(&stream[..3_000]);
        // A quiet stream may still brush the guard's warning level, but a
        // confirmed drift before the shift would be a false positive.
        assert_eq!(outcome.drifts(), 0, "false positive before the shift");
        let outcome = d.add_batch(&stream[3_000..]);
        assert!(outcome.has_drift(), "missed the error-rate jump");
        assert!(d.escalations() >= 1);
        assert!(d.drifts_detected() >= 1);
        // After the drift the ring was cleared and the confirmer dropped;
        // feeding a long quiet tail keeps (or returns) the cascade dormant.
        let tail: Vec<f64> = (0..4_000).map(|i| bernoulli(90_000 + i, 0.05)).collect();
        d.add_batch(&tail);
        assert!(!d.is_escalated(), "cooldown must de-escalate on quiet data");
    }

    #[test]
    fn guard_warning_alone_never_confirms_drift() {
        // A cascade whose confirmer needs far more evidence than the guard:
        // the guard's solo warnings surface as cascade warnings, never as
        // drifts.
        let mut d = Cascade::new(cascade_config(
            "ddm:warning_level=0.5,drift_level=8",
            "optwin",
        ))
        .unwrap();
        let stream = drifting_stream(2_000, 1_000);
        let mut fold_drifts = 0;
        let mut fold_warnings = 0;
        for &x in &stream {
            match d.add_element(x) {
                DriftStatus::Drift => fold_drifts += 1,
                DriftStatus::Warning => fold_warnings += 1,
                DriftStatus::Stable => {}
            }
        }
        assert!(fold_warnings > 0, "guard must at least warn on the shift");
        assert_eq!(
            fold_drifts as u64,
            d.drifts_detected(),
            "cascade drift count must match reported drifts"
        );
    }

    #[test]
    fn cascade_batch_matches_element_fold() {
        let stream = drifting_stream(4_000, 2_000);
        for (guard, confirm) in [
            ("ddm", "optwin:w_max=500"),
            ("ecdd", "kswin"),
            ("page_hinkley", "adwin"),
            ("ddm", "stepd"),
        ] {
            assert_batch_equivalence(
                || Cascade::new(cascade_config(guard, confirm)).unwrap(),
                &stream,
            );
        }
    }

    #[test]
    fn cascade_snapshot_restore_resumes_identically() {
        let stream = drifting_stream(4_000, 2_000);
        // Cuts on the stable path, right around the escalation zone, and
        // after the confirmed drift.
        assert_snapshot_equivalence(
            || Cascade::new(cascade_config("ddm", "optwin:w_max=500")).unwrap(),
            &stream,
            &[0, 500, 2_010, 2_050, 2_400, 4_000],
        );
    }

    #[test]
    fn cascade_snapshot_persists_dormant_flag_mid_escalation() {
        let mut d = Cascade::new(cascade_config("ddm", "optwin:w_max=500")).unwrap();
        let stream = drifting_stream(4_000, 2_000);
        let mut cut = None;
        for (i, &x) in stream.iter().enumerate() {
            d.add_element(x);
            if d.is_escalated() {
                cut = Some(i);
                break;
            }
        }
        let cut = cut.expect("the shift must escalate the cascade");
        let state = d.snapshot_state();
        assert!(
            !matches!(state.get("confirmer"), Some(serde::Value::Null)),
            "live confirmer must serialize its state"
        );
        let mut restored = Cascade::new(cascade_config("ddm", "optwin:w_max=500")).unwrap();
        restored.restore_state(&state).unwrap();
        assert!(restored.is_escalated(), "restore must wake the confirmer");
        assert_eq!(restored.escalations(), d.escalations());
        let rest = &stream[cut + 1..];
        assert_eq!(d.add_batch(rest), restored.add_batch(rest));

        // A dormant cascade round-trips its `null` confirmer.
        let fresh = Cascade::new(cascade_config("ddm", "optwin:w_max=500")).unwrap();
        let state = fresh.snapshot_state();
        assert!(matches!(state.get("confirmer"), Some(serde::Value::Null)));
    }

    #[test]
    fn cascade_mem_footprint_counts_ring_and_live_confirmer() {
        let mut d = Cascade::new(cascade_config("ddm", "optwin:w_max=500")).unwrap();
        let guard_only = "ddm".parse::<DetectorSpec>().unwrap().build().unwrap();
        let dormant = d.mem_footprint();
        // The dormant footprint still carries the replay ring (satellite:
        // dormant confirmers are not zero-cost while the ring is resident).
        assert!(
            dormant >= guard_only.mem_footprint() + 256 * std::mem::size_of::<f64>(),
            "dormant footprint {dormant} must cover guard + ring"
        );
        let stream = drifting_stream(4_000, 2_000);
        for &x in &stream {
            d.add_element(x);
            if d.is_escalated() {
                break;
            }
        }
        assert!(d.is_escalated());
        assert!(
            d.mem_footprint() > dormant,
            "a live confirmer must grow the footprint"
        );
    }

    #[test]
    fn cascade_restore_rejects_bad_snapshots() {
        let mut d = Cascade::new(CascadeConfig::default()).unwrap();
        assert!(d.restore_state(&serde::Value::Null).is_err());

        let mut donor = Cascade::new(CascadeConfig {
            replay: 512,
            ..CascadeConfig::default()
        })
        .unwrap();
        let stream = drifting_stream(1_000, 400);
        donor.add_batch(&stream);
        let state = donor.snapshot_state();
        // A smaller replay capacity rejects the oversized ring.
        let mut small = Cascade::new(CascadeConfig {
            replay: 16,
            ..CascadeConfig::default()
        })
        .unwrap();
        let err = small.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("replay ring"), "{err}");
    }

    #[test]
    fn ensemble_votes_k_of_n() {
        let mut d = Ensemble::new(EnsembleConfig::default()).unwrap();
        assert_eq!(d.name(), "ENSEMBLE");
        let spec = |config| DetectorSpec::Ensemble { config };
        assert!(
            spec(EnsembleConfig::default()).binary_only(),
            "ddm member is binary-only"
        );
        let stream = drifting_stream(6_000, 3_000);
        let outcome = d.add_batch(&stream);
        assert!(outcome.has_drift(), "2-of-3 must confirm the jump");
        assert!(outcome.drift_indices[0] >= 3_000, "no false positive");

        let real = spec(EnsembleConfig {
            vote: 1,
            members: vec!["adwin".parse().unwrap(), "kswin".parse().unwrap()],
            ..EnsembleConfig::default()
        });
        real.build().unwrap();
        assert!(!real.binary_only());
    }

    #[test]
    fn ensemble_batch_matches_element_fold() {
        let stream = drifting_stream(4_000, 2_000);
        assert_batch_equivalence(
            || Ensemble::new(EnsembleConfig::default()).unwrap(),
            &stream,
        );
        assert_batch_equivalence(
            || {
                Ensemble::new(EnsembleConfig {
                    vote: 2,
                    members: vec![
                        "ddm".parse().unwrap(),
                        "stepd".parse().unwrap(),
                        "optwin:w_max=500".parse().unwrap(),
                        "ecdd".parse().unwrap(),
                    ],
                    ..EnsembleConfig::default()
                })
                .unwrap()
            },
            &stream,
        );
    }

    #[test]
    fn ensemble_snapshot_restore_resumes_identically() {
        let stream = drifting_stream(4_000, 2_000);
        assert_snapshot_equivalence(
            || Ensemble::new(EnsembleConfig::default()).unwrap(),
            &stream,
            &[0, 700, 2_050, 3_000, 4_000],
        );
    }

    #[test]
    fn ensemble_restore_rejects_bad_snapshots() {
        let mut d = Ensemble::new(EnsembleConfig::default()).unwrap();
        assert!(d.restore_state(&serde::Value::Null).is_err());
        let donor = Ensemble::new(EnsembleConfig {
            vote: 1,
            members: vec!["ddm".parse().unwrap()],
            ..EnsembleConfig::default()
        })
        .unwrap();
        let state = donor.snapshot_state();
        let err = d.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("member states"), "{err}");
    }

    #[test]
    fn composites_nest_one_level() {
        // A cascade inside an ensemble (depth 2) builds and keeps the
        // batch/element contract.
        let stream = drifting_stream(3_000, 1_500);
        assert_batch_equivalence(
            || {
                Ensemble::new(EnsembleConfig {
                    vote: 1,
                    members: vec![
                        "cascade:guard=ddm,confirm=optwin:w_max=500"
                            .parse()
                            .unwrap(),
                        "ecdd".parse().unwrap(),
                    ],
                    ..EnsembleConfig::default()
                })
                .unwrap()
            },
            &stream,
        );
    }
}
