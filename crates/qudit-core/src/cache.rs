//! A thread-safe, optionally bounded lowering cache keyed by `(gate kind,
//! dimension, width-class)`.
//!
//! The synthesis constructions emit the same conjugated gadgets thousands of
//! times per circuit — every two-controlled swap of the same dimension
//! expands to the same Fig. 2 / Fig. 5 gadget up to a renaming of the wires.
//! [`LoweringCache`] exploits that: a lowering site is *canonicalised* (its
//! qudits renamed to `0, 1, 2, …` in role order), looked up by the canonical
//! description, and the cached expansion is renamed back to the actual
//! wires.  The cache is shared across threads behind an [`RwLock`], so the
//! jobs of a batch and the service's workers can all feed the same table,
//! and hit/miss counts are kept both globally (atomics, for the cache
//! lifetime) and per pass run (via [`CacheCounters`], surfaced in pass
//! statistics).
//!
//! # Service-grade features
//!
//! The compile service (`qudit-synthesis::service`) keeps one cache alive
//! across thousands of jobs, which needs two things a per-run cache does
//! not:
//!
//! * **A size bound** — [`LoweringCache::with_capacity`] caps the entry
//!   count; inserting past the bound evicts the least-recently-used entry
//!   and tallies it in [`CacheMetrics::evictions`].  Unbounded caches
//!   ([`LoweringCache::new`]) never evict.
//! * **Contention visibility** — [`LoweringCache::metrics`] reports lock
//!   acquisitions that had to block ([`CacheMetrics::contended`]) and
//!   insert races lost ([`CacheMetrics::race_losses`]), the numbers that
//!   justify sharding when they grow.
//!
//! # Example
//!
//! ```
//! use qudit_core::cache::{CacheCounters, LoweringCache};
//! use qudit_core::lowering::lower_circuit_cached;
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 3);
//! // The same gate kind on two different wire pairs: one miss, one hit.
//! for target in [1, 2] {
//!     circuit.push(Gate::controlled(
//!         SingleQuditOp::Add(1),
//!         QuditId::new(target),
//!         vec![Control::level(QuditId::new(0), 2)],
//!     ))?;
//! }
//! let cache = LoweringCache::new();
//! let mut counters = CacheCounters::default();
//! let lowered = lower_circuit_cached(&circuit, &cache, &mut counters)?;
//! assert_eq!(counters.hits, 1);
//! assert_eq!(counters.misses, 1);
//! assert_eq!(lowered, qudit_core::lowering::lower_circuit(&circuit)?);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::control::{Control, ControlPredicate};
use crate::dimension::Dimension;
use crate::error::Result;
use crate::gate::{Gate, GateOp};
use crate::ops::SingleQuditOp;
use crate::qudit::QuditId;

/// Which lowering stage produced a cached expansion.
///
/// The macro → elementary stage (`qudit-synthesis`) and the elementary →
/// G-gate stage (`qudit_core::lowering`) share one cache; tagging the stage
/// keeps their entries in disjoint key spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoweringStage {
    /// Macro gates → elementary gates (Fig. 2 / Fig. 5 gadget expansion).
    Elementary,
    /// Elementary gates → the G-gate set `{Xij} ∪ {|0⟩-X01}`.
    GGates,
}

/// Width class of a lowering site: whether the register offers a spare wire
/// usable as a borrowed ancilla (the even-`d` gadgets need one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidthClass {
    /// Fewer than four wires: no spare qudit beyond two controls + target.
    Narrow,
    /// Four or more wires: a borrowed qudit is always available.
    Wide,
}

impl WidthClass {
    /// Classifies a register width.
    pub fn of(width: usize) -> Self {
        if width >= 4 {
            WidthClass::Wide
        } else {
            WidthClass::Narrow
        }
    }
}

/// The gate-kind component of a [`CacheKey`] — the target operation with
/// qudit identities abstracted away.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CachedOpKind {
    /// `Xij`.
    Swap(u32, u32),
    /// `X+y`.
    Add(u32),
    /// `X_eo^e`.
    ParityFlipEven,
    /// `X_eo^o`.
    ParityFlipOdd,
    /// An arbitrary level permutation (by its level map).
    Perm(Vec<u32>),
    /// The value-controlled shift `X±⋆` (source position is implicit in the
    /// canonical wire order).
    AddFrom {
        /// `true` for `X−⋆`, `false` for `X+⋆`.
        negate: bool,
    },
}

impl CachedOpKind {
    /// The key component of a gate operation, or `None` when the operation
    /// is uncacheable (general unitaries have no hashable description).
    fn of(op: &GateOp) -> Option<Self> {
        match op {
            GateOp::Single(SingleQuditOp::Swap(i, j)) => Some(CachedOpKind::Swap(*i, *j)),
            GateOp::Single(SingleQuditOp::Add(y)) => Some(CachedOpKind::Add(*y)),
            GateOp::Single(SingleQuditOp::ParityFlipEven) => Some(CachedOpKind::ParityFlipEven),
            GateOp::Single(SingleQuditOp::ParityFlipOdd) => Some(CachedOpKind::ParityFlipOdd),
            GateOp::Single(SingleQuditOp::Perm(p)) => Some(CachedOpKind::Perm(p.as_map().to_vec())),
            GateOp::Single(SingleQuditOp::Unitary(_)) => None,
            GateOp::AddFrom { negate, .. } => Some(CachedOpKind::AddFrom { negate: *negate }),
        }
    }
}

/// Cache key: `(gate kind, dimension, width-class)`, where the gate kind is
/// the canonicalised operation plus the control predicates in role order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    stage: LoweringStage,
    dimension: u32,
    width_class: WidthClass,
    op: CachedOpKind,
    controls: Vec<ControlPredicate>,
}

/// A lowering site in canonical coordinates: the gate with its qudits
/// renamed to `0, 1, 2, …` in role order (controls, `AddFrom` source,
/// target, then any extra wires such as a borrowed ancilla), plus the table
/// renaming the canonical wires back to the actual ones.
#[derive(Debug, Clone)]
pub struct CanonicalSite {
    key: CacheKey,
    gate: Gate,
    wires: Vec<QuditId>,
}

impl CanonicalSite {
    /// Canonicalises a lowering site, or returns `None` when the gate kind
    /// is uncacheable (general unitaries).
    ///
    /// `extra` lists wires the lowering may touch beyond the gate's own
    /// (for example the borrowed qudit of the even-`d` gadgets), in the order
    /// they should receive canonical indices after the gate's qudits.
    pub fn of(
        stage: LoweringStage,
        gate: &Gate,
        dimension: Dimension,
        width_class: WidthClass,
        extra: &[QuditId],
    ) -> Option<Self> {
        let op = CachedOpKind::of(gate.op())?;
        let mut wires = gate.qudits();
        wires.extend_from_slice(extra);
        let canonical_of = |q: QuditId| {
            QuditId::new(
                wires
                    .iter()
                    .position(|w| *w == q)
                    .expect("gate qudits are in the wire table"),
            )
        };
        let canonical_op = match gate.op() {
            GateOp::Single(op) => GateOp::Single(op.clone()),
            GateOp::AddFrom { source, negate } => GateOp::AddFrom {
                source: canonical_of(*source),
                negate: *negate,
            },
        };
        let canonical_controls: Vec<Control> = gate
            .controls()
            .iter()
            .map(|c| Control::new(canonical_of(c.qudit), c.predicate))
            .collect();
        let canonical_gate = Gate::new(
            canonical_op,
            canonical_of(gate.target()),
            canonical_controls,
        );
        Some(CanonicalSite {
            key: CacheKey {
                stage,
                dimension: dimension.get(),
                width_class,
                op,
                controls: gate.controls().iter().map(|c| c.predicate).collect(),
            },
            gate: canonical_gate,
            wires,
        })
    }

    /// The cache key of this site.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// The gate in canonical coordinates (qudits `0, 1, 2, …`).
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// The canonical register width (gate qudits plus extra wires).
    pub fn width(&self) -> usize {
        self.wires.len()
    }

    /// Renames a cached canonical expansion back to the actual wires.
    pub fn restore(&self, canonical_gates: &[Gate]) -> Vec<Gate> {
        canonical_gates
            .iter()
            .map(|g| g.map_qudits(|q| self.wires[q.index()]))
            .collect()
    }
}

/// Per-run cache hit/miss tally, recorded in pass statistics.
///
/// Unlike the cache's own counters (which are global, atomic and live as
/// long as the cache), a `CacheCounters` value tallies one pass execution,
/// so merged batch statistics stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then insert) the expansion.
    pub misses: u64,
}

impl CacheCounters {
    /// Total number of cache lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Lifetime metrics of a [`LoweringCache`], read with
/// [`LoweringCache::metrics`].
///
/// `misses` counts exactly the insertions, so `misses - evictions` always
/// equals the live entry count — the invariant the service's consistency
/// checks pin.  A thread that computed an expansion but lost the insert
/// race to a peer is tallied as a *hit* (it returns the winner's entry)
/// **and** in `race_losses`, never as a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from the cache (including lost insert races).
    pub hits: u64,
    /// Lookups that computed and inserted a new entry.
    pub misses: u64,
    /// Insert races lost: the thread computed an expansion a peer had
    /// inserted first (its result is discarded, the lookup counts as a hit).
    pub race_losses: u64,
    /// Entries evicted to honour the capacity bound.
    pub evictions: u64,
    /// Lock acquisitions that could not proceed immediately (read or
    /// write) — the contention signal that justifies sharding.
    pub contended: u64,
    /// Live entries at the time of the read.
    pub entries: usize,
    /// The configured capacity bound, if any.
    pub capacity: Option<usize>,
}

/// One cached expansion plus its recency stamp (updated on every hit under
/// the read lock, which is why it is atomic).
#[derive(Debug)]
struct CacheEntry {
    gates: Arc<Vec<Gate>>,
    stamp: AtomicU64,
}

/// A thread-safe map from canonical lowering sites to their expansions.
///
/// Shared across threads behind an [`RwLock`]: lookups take the read lock,
/// and only a miss's insertion takes the write lock, so the hot path (hits)
/// never serialises readers.  See the module docs for the capacity bound
/// and metrics the long-running service leans on.
#[derive(Debug, Default)]
pub struct LoweringCache {
    map: RwLock<HashMap<CacheKey, CacheEntry>>,
    capacity: Option<usize>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    race_losses: AtomicU64,
    evictions: AtomicU64,
    contended: AtomicU64,
}

impl LoweringCache {
    /// Creates an empty, unbounded cache (entries are never evicted).
    pub fn new() -> Self {
        LoweringCache::default()
    }

    /// Creates an empty cache bounded to at most `capacity` entries
    /// (clamped to at least one): inserting past the bound evicts the
    /// least-recently-used entry.
    pub fn with_capacity(capacity: usize) -> Self {
        LoweringCache {
            capacity: Some(capacity.max(1)),
            ..LoweringCache::default()
        }
    }

    /// Creates an empty unbounded cache behind an [`Arc`], ready to share
    /// across threads and passes.
    pub fn shared() -> Arc<Self> {
        Arc::new(LoweringCache::new())
    }

    /// [`LoweringCache::with_capacity`] behind an [`Arc`].
    pub fn shared_with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(LoweringCache::with_capacity(capacity))
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of cached expansions.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global hit/miss counters accumulated over the cache's lifetime.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Full lifetime metrics: hits/misses plus the race, eviction and
    /// contention tallies the service dashboards read.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            race_losses: self.race_losses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Takes the read lock, counting the acquisition as contended when it
    /// could not proceed immediately.
    fn read_map(&self) -> RwLockReadGuard<'_, HashMap<CacheKey, CacheEntry>> {
        match self.map.try_read() {
            Ok(guard) => guard,
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map.read().expect("cache lock")
            }
        }
    }

    /// Takes the write lock, counting the acquisition as contended when it
    /// could not proceed immediately.
    fn write_map(&self) -> RwLockWriteGuard<'_, HashMap<CacheKey, CacheEntry>> {
        match self.map.try_write() {
            Ok(guard) => guard,
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map.write().expect("cache lock")
            }
        }
    }

    /// The next recency stamp.
    fn next_stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts least-recently-used entries until the map honours the
    /// capacity bound.  Called with the write lock held, after an insert.
    fn evict_over_capacity(&self, map: &mut HashMap<CacheKey, CacheEntry>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while map.len() > capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone())
            else {
                return;
            };
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a canonical site, computing and inserting the expansion with
    /// `compute` on a miss.  Returns the expansion (in canonical
    /// coordinates) and whether the lookup was a hit, tallying into both the
    /// global counters and `counters`.
    ///
    /// A thread that computes an expansion but finds a racing peer inserted
    /// the key first keeps the peer's entry and tallies a **hit** (plus
    /// [`CacheMetrics::race_losses`] globally) — never a second miss, so
    /// `misses` equals insertions exactly.
    ///
    /// # Errors
    ///
    /// Propagates `compute` errors; failed computations are not cached.
    pub fn get_or_insert_with(
        &self,
        key: &CacheKey,
        counters: &mut CacheCounters,
        compute: impl FnOnce() -> Result<Vec<Gate>>,
    ) -> Result<Arc<Vec<Gate>>> {
        if let Some(entry) = self.read_map().get(key) {
            entry.stamp.store(self.next_stamp(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.hits += 1;
            return Ok(entry.gates.clone());
        }
        // Compute outside any lock: expansions are pure and two racing
        // threads computing the same entry produce identical values.
        let computed = Arc::new(compute()?);
        let mut map = self.write_map();
        match map.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                // A racing thread won the insert; its entry (one shared
                // allocation) is the canonical one and this lookup was,
                // effectively, a hit.
                entry
                    .get()
                    .stamp
                    .store(self.next_stamp(), Ordering::Relaxed);
                self.race_losses.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                counters.hits += 1;
                Ok(entry.get().gates.clone())
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                counters.misses += 1;
                let gates = computed.clone();
                slot.insert(CacheEntry {
                    gates: computed,
                    stamp: AtomicU64::new(self.next_stamp()),
                });
                self.evict_over_capacity(&mut map);
                Ok(gates)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn controlled_add(control: usize, target: usize, level: u32) -> Gate {
        Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(target),
            vec![Control::level(QuditId::new(control), level)],
        )
    }

    fn site_for_level(level: u32) -> CanonicalSite {
        CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, level),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap()
    }

    #[test]
    fn same_kind_different_wires_share_a_key() {
        let a = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, 2),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let b = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(4, 2, 2),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.gate(), b.gate());
    }

    #[test]
    fn key_distinguishes_dimension_stage_width_class_and_levels() {
        let gate = controlled_add(0, 1, 2);
        let base = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_dim = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(4),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_stage = CanonicalSite::of(
            LoweringStage::Elementary,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_width =
            CanonicalSite::of(LoweringStage::GGates, &gate, dim(3), WidthClass::Wide, &[]).unwrap();
        let other_level = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, 1),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        for other in [other_dim, other_stage, other_width, other_level] {
            assert_ne!(base.key(), other.key());
        }
    }

    #[test]
    fn unitary_ops_are_uncacheable() {
        use crate::math::SquareMatrix;
        let gate = Gate::single(
            SingleQuditOp::Unitary(SquareMatrix::identity(3)),
            QuditId::new(0),
        );
        assert!(CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[]
        )
        .is_none());
    }

    #[test]
    fn restore_renames_back_to_actual_wires() {
        let gate = controlled_add(5, 3, 1);
        let site = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Wide,
            &[QuditId::new(7)],
        )
        .unwrap();
        assert_eq!(site.width(), 3);
        let canonical = vec![
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(1)),
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(2)),
        ];
        let restored = site.restore(&canonical);
        assert_eq!(restored[0].target(), QuditId::new(5));
        assert_eq!(restored[1].target(), QuditId::new(3));
        assert_eq!(restored[2].target(), QuditId::new(7));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let mut counters = CacheCounters::default();
        let expansion = vec![Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0))];
        let first = cache
            .get_or_insert_with(site.key(), &mut counters, || Ok(expansion.clone()))
            .unwrap();
        let second = cache
            .get_or_insert_with(site.key(), &mut counters, || {
                panic!("second lookup must be a hit")
            })
            .unwrap();
        assert_eq!(*first, *second);
        assert_eq!(counters, CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.counters(), counters);
        assert_eq!(cache.len(), 1);
        assert!((counters.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let mut counters = CacheCounters::default();
        let failed: Result<Arc<Vec<Gate>>> =
            cache.get_or_insert_with(site.key(), &mut counters, || {
                Err(crate::error::QuditError::NotClassical)
            });
        assert!(failed.is_err());
        assert!(cache.is_empty());
        // A later successful computation still populates the entry.
        cache
            .get_or_insert_with(site.key(), &mut counters, || Ok(Vec::new()))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn counters_merge() {
        let mut a = CacheCounters { hits: 2, misses: 1 };
        a.merge(CacheCounters { hits: 3, misses: 4 });
        assert_eq!(a, CacheCounters { hits: 5, misses: 5 });
        assert_eq!(a.total(), 10);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn racing_inserts_count_one_miss_and_the_losers_as_hits() {
        use std::sync::Barrier;
        // Every thread computes the expansion and races the insert; exactly
        // one may win.  The losers must tally as hits (plus race_losses),
        // never as extra misses, so `misses` equals map growth.
        let threads = 8;
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let barrier = Barrier::new(threads);
        let per_thread: Vec<CacheCounters> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut counters = CacheCounters::default();
                        barrier.wait();
                        cache
                            .get_or_insert_with(site.key(), &mut counters, || {
                                Ok(vec![Gate::single(
                                    SingleQuditOp::Swap(0, 2),
                                    QuditId::new(0),
                                )])
                            })
                            .unwrap();
                        counters
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut total = CacheCounters::default();
        for counters in per_thread {
            total.merge(counters);
        }
        let metrics = cache.metrics();
        assert_eq!(total.misses, 1, "exactly one thread inserts");
        assert_eq!(
            total.hits,
            threads as u64 - 1,
            "losers and late readers hit"
        );
        assert_eq!(metrics.misses, 1);
        assert_eq!(metrics.hits, threads as u64 - 1);
        assert_eq!(metrics.entries, 1);
        assert!(metrics.race_losses <= metrics.hits);
        assert_eq!(
            metrics.misses - metrics.evictions,
            metrics.entries as u64,
            "misses equal insertions equal map growth"
        );
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = LoweringCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let mut counters = CacheCounters::default();
        let sites: Vec<CanonicalSite> = (0..3).map(site_for_level).collect();
        let expansion = |level: u32| {
            vec![Gate::single(
                SingleQuditOp::Swap(0, level.min(2)),
                QuditId::new(0),
            )]
        };
        for (level, site) in sites.iter().enumerate().take(2) {
            cache
                .get_or_insert_with(site.key(), &mut counters, || Ok(expansion(level as u32)))
                .unwrap();
        }
        // Touch site 0 so site 1 becomes the LRU entry, then insert site 2.
        cache
            .get_or_insert_with(sites[0].key(), &mut counters, || unreachable!())
            .unwrap();
        cache
            .get_or_insert_with(sites[2].key(), &mut counters, || Ok(expansion(2)))
            .unwrap();
        let metrics = cache.metrics();
        assert_eq!(metrics.entries, 2);
        assert_eq!(metrics.evictions, 1);
        assert_eq!(metrics.misses - metrics.evictions, metrics.entries as u64);
        // Site 0 survived (recently used), site 1 was evicted.
        let mut check = CacheCounters::default();
        cache
            .get_or_insert_with(sites[0].key(), &mut check, || unreachable!())
            .unwrap();
        assert_eq!(check, CacheCounters { hits: 1, misses: 0 });
        cache
            .get_or_insert_with(sites[1].key(), &mut check, || Ok(expansion(1)))
            .unwrap();
        assert_eq!(check.misses, 1, "the LRU entry was evicted");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = LoweringCache::with_capacity(0);
        assert_eq!(cache.capacity(), Some(1));
        let mut counters = CacheCounters::default();
        for level in 0..3 {
            cache
                .get_or_insert_with(
                    site_for_level(level).key(),
                    &mut counters,
                    || Ok(Vec::new()),
                )
                .unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.metrics().evictions, 2);
    }

    #[test]
    fn contention_counter_moves_under_pressure() {
        use std::sync::Barrier;
        // Hammer one bounded cache from many threads; we cannot force a
        // specific interleaving, but the metrics must stay consistent.
        let cache = LoweringCache::with_capacity(4);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &cache;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut counters = CacheCounters::default();
                    barrier.wait();
                    for round in 0..64u32 {
                        let level = (t + round) % 3;
                        cache
                            .get_or_insert_with(site_for_level(level).key(), &mut counters, || {
                                Ok(Vec::new())
                            })
                            .unwrap();
                    }
                });
            }
        });
        let metrics = cache.metrics();
        assert_eq!(metrics.hits + metrics.misses, 8 * 64);
        assert_eq!(metrics.misses - metrics.evictions, metrics.entries as u64);
        assert!(metrics.entries <= 4);
    }
}
