//! Fingerprint-keyed, bounded, single-flight LRU caches for expensive
//! precomputations.
//!
//! A fleet serving heterogeneous jobs pays one dominant cold cost per
//! job: assembling the floorplan's thermal influence operator
//! (`O(n²·images)` kernel evaluations, ~tens of milliseconds at 64
//! blocks) and, for transients, LU-factoring the implicit propagator.
//! Both are **pure functions of a small key** — the content fingerprints
//! of `ptherm_floorplan::fingerprint` — so a cache turns a fleet of `J`
//! jobs over `F` distinct floorplans from `J` factorizations into `F`.
//!
//! Design points of [`Lru`]:
//!
//! * **bounded** — at most `capacity` ready entries; the least recently
//!   *used* (not inserted) is evicted, and evictions are counted,
//! * **single-flight** — when several workers miss the same key at
//!   once, exactly one builds while the rest block on a condvar and
//!   share the result; a fleet ramping 16 workers onto 16 floorplans
//!   never builds an operator twice,
//! * **value-immutable** — values live behind `Arc`, shared read-only,
//!   which is safe precisely because fingerprint equality implies the
//!   build output is bit-identical (a cache hit can never change any
//!   temperature; the test suite asserts this bitwise).

use ptherm_core::cosim::{
    infer_grid, operator_fingerprint, propagator_fingerprint, spectral_operator_fingerprint,
    SpectralGridError, SpectralOperator, SweepReport, ThermalOperator, TransientError,
    TransientOperator,
};
use ptherm_core::thermal::capacitance::silicon_block_capacitances;
use ptherm_core::thermal::map::{map_operator_fingerprint, MapOperator};
use ptherm_floorplan::Floorplan;
use ptherm_math::ode::ImplicitScheme;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Monotonic counters of one cache's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that ran a build — exactly the cold work performed.
    /// A caller that blocked on another worker's in-flight build counts
    /// as a *hit* once the entry lands: no build ran on its behalf.
    pub misses: u64,
    /// Ready entries discarded to respect the capacity bound.
    pub evictions: u64,
}

/// One slot: a ready value with its note, or a reservation for an
/// in-flight build.
#[derive(Debug)]
struct Entry<V, R> {
    /// `None` while the owning worker is still building.
    value: Option<(Arc<V>, R)>,
    /// Tick of the last hit (or the insertion), for LRU ordering.
    last_used: u64,
}

#[derive(Debug)]
struct Inner<K, V, R> {
    map: HashMap<K, Entry<V, R>>,
    tick: u64,
}

/// Bounded single-flight LRU cache (see the [module docs](self)).
///
/// Each ready entry carries a note `R` its build recorded next to the
/// value (the fleet stores rebuild recipes there), so an evicted or
/// flushed entry drops its note with it.
#[derive(Debug)]
pub struct Lru<K, V, R = ()> {
    inner: Mutex<Inner<K, V, R>>,
    ready: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V, R> Lru<K, V, R> {
    /// An empty cache holding at most `capacity` ready entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing
    /// would still advertise hits).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Capacity bound (ready entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ready entries currently cached.
    pub fn len(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|e| e.value.is_some())
            .count()
    }

    /// True when no ready entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V, R>> {
        // A builder that panics leaves its reservation behind; recovery
        // below removes it, so the poisoned-lock state itself is benign.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The value under `key`, building it with `build` on a miss.
    ///
    /// Exactly one caller runs `build` per missing key at a time; every
    /// concurrent caller for the same key blocks until the build lands
    /// and shares the same `Arc`. `build` runs **outside** the cache
    /// lock, so builds for different keys proceed in parallel. A failed
    /// build caches nothing: the error is returned to the builder, one
    /// blocked waiter retries the build, and later lookups miss again.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn get_or_build<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<Arc<V>, E>
    where
        R: Default,
    {
        self.get_or_build_noted(key, || build().map(|value| (value, R::default())))
    }

    /// [`Self::get_or_build`] whose `build` also returns the note stored
    /// next to the new entry.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub(crate) fn get_or_build_noted<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, R), E>,
    ) -> Result<Arc<V>, E> {
        let mut inner = self.lock();
        loop {
            // One probe, no re-lookup: splitting the guard lets the LRU
            // clock advance while the entry stays mutably borrowed.
            let probe = {
                let inner = &mut *inner;
                match inner.map.get_mut(&key) {
                    Some(entry) => match entry.value.as_ref().map(|(v, _)| Arc::clone(v)) {
                        Some(value) => {
                            inner.tick += 1;
                            entry.last_used = inner.tick;
                            Some(Some(value))
                        }
                        None => Some(None),
                    },
                    None => None,
                }
            };
            match probe {
                Some(Some(value)) => {
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                // Another worker is building this key: wait for the
                // slot to resolve (ready, or removed on failure), then
                // re-examine it.
                Some(None) => {
                    inner = self
                        .ready
                        .wait(inner)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                None => break,
            }
        }
        // Reserve the key and build outside the lock.
        inner.tick += 1;
        let reserved_at = inner.tick;
        inner.map.insert(
            key.clone(),
            Entry {
                value: None,
                last_used: reserved_at,
            },
        );
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (built, note) = BuildGuard::run(self, &key, build)?;

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.value = Some((Arc::clone(&built), note));
            entry.last_used = tick;
        }
        self.evict_over_capacity(&mut inner);
        drop(inner);
        self.ready.notify_all();
        Ok(built)
    }

    /// Discards every **ready** entry, counting each as an eviction,
    /// and returns how many were dropped. In-flight reservations are
    /// left alone — their builders are about to insert, and removing a
    /// reservation out from under its `BuildGuard` would break the
    /// single-flight protocol. The fault-injection harness uses this
    /// ([`Fault::EvictCaches`](crate::Fault::EvictCaches)) to force
    /// rebuild-under-traffic; correctness is unaffected because
    /// fingerprint-keyed builds are deterministic.
    pub fn clear(&self) -> u64 {
        let mut inner = self.lock();
        let ready: Vec<K> = inner
            .map
            .iter()
            .filter(|(_, e)| e.value.is_some())
            .map(|(k, _)| k.clone())
            .collect();
        let dropped = ready.len() as u64;
        for key in ready {
            inner.map.remove(&key);
        }
        drop(inner);
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// The notes of every ready entry, with their keys (unordered).
    pub(crate) fn notes(&self) -> Vec<(K, R)>
    where
        R: Clone,
    {
        self.lock()
            .map
            .iter()
            .filter_map(|(k, e)| e.value.as_ref().map(|(_, note)| (k.clone(), note.clone())))
            .collect()
    }

    /// Evicts least-recently-used ready entries until the ready count
    /// respects the capacity. In-flight reservations are never evicted
    /// (their builders are about to insert) and do not count against
    /// the bound.
    fn evict_over_capacity(&self, inner: &mut Inner<K, V, R>) {
        loop {
            let ready = inner.map.values().filter(|e| e.value.is_some()).count();
            if ready <= self.capacity {
                return;
            }
            if let Some(oldest) = inner
                .map
                .iter()
                .filter(|(_, e)| e.value.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                return;
            }
        }
    }
}

/// Removes a reservation if its build unwinds or errors, so waiters are
/// released instead of deadlocking on a slot nobody will fill.
struct BuildGuard<'a, K: Eq + Hash + Clone, V, R> {
    cache: &'a Lru<K, V, R>,
    key: &'a K,
    armed: bool,
}

impl<'a, K: Eq + Hash + Clone, V, R> BuildGuard<'a, K, V, R> {
    fn run<E>(
        cache: &'a Lru<K, V, R>,
        key: &'a K,
        build: impl FnOnce() -> Result<(V, R), E>,
    ) -> Result<(Arc<V>, R), E> {
        let mut guard = BuildGuard {
            cache,
            key,
            armed: true,
        };
        let value = build();
        match value {
            Ok((v, note)) => {
                guard.armed = false;
                Ok((Arc::new(v), note))
            }
            Err(e) => Err(e), // guard drops armed: reservation removed, waiters woken
        }
    }
}

impl<K: Eq + Hash + Clone, V, R> Drop for BuildGuard<'_, K, V, R> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.lock();
            // Only remove our own reservation, never a ready entry a
            // retrying waiter may have installed since.
            if inner.map.get(self.key).is_some_and(|e| e.value.is_none()) {
                inner.map.remove(self.key);
            }
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

/// How to rebuild one cached operator from its floorplan.
#[derive(Debug, Clone, PartialEq)]
pub enum RecipeKind {
    /// Dense steady-state [`ThermalOperator`] (the cache's image orders
    /// are part of the fingerprint, not the recipe).
    Steady,
    /// [`SpectralOperator`] at a refinement tolerance (the tile grid is
    /// re-inferred from the floorplan).
    Spectral {
        /// Refinement tolerance the operator was built at.
        tolerance: f64,
    },
    /// Transient propagator over the floorplan's steady operator and
    /// its silicon block capacitances.
    Transient {
        /// Time step, s.
        dt_s: f64,
        /// Implicit scheme.
        scheme: ImplicitScheme,
    },
    /// Pixel-grid [`MapOperator`].
    Map {
        /// Horizontal pixel count.
        nx: usize,
        /// Vertical pixel count.
        ny: usize,
    },
}

/// One cached operator's rebuild recipe: the floorplan it was built
/// from plus the kind-specific parameters.
#[derive(Debug, Clone)]
pub struct CacheRecipe {
    /// The floorplan the operator was built from.
    pub floorplan: Arc<Floorplan>,
    /// Kind-specific rebuild parameters.
    pub kind: RecipeKind,
}

/// The recipe a miss records next to its entry: the floorplan is copied
/// only when a build actually runs.
fn recipe(floorplan: &Floorplan, kind: RecipeKind) -> Option<CacheRecipe> {
    Some(CacheRecipe {
        floorplan: Arc::new(floorplan.clone()),
        kind,
    })
}

/// An operator cache whose entries carry their rebuild recipes.
type RecipeLru<V> = Lru<u64, V, Option<CacheRecipe>>;

/// The fleet's operator caches, keyed by content fingerprint.
///
/// This is the one place that knows how each operator kind is keyed
/// and rebuilt: every acquisition computes its fingerprint here, and a
/// build records its [`CacheRecipe`] next to the entry, so the
/// recipes a [manifest](crate::persist::manifest) lists are exactly
/// what the caches hold.
#[derive(Debug)]
pub struct OperatorCache {
    steady: RecipeLru<ThermalOperator>,
    transient: RecipeLru<TransientOperator>,
    map: RecipeLru<MapOperator>,
    spectral: RecipeLru<SpectralOperator>,
    results: Lru<u64, SweepReport>,
}

impl OperatorCache {
    /// Caches holding at most `capacity` entries **each** (steady
    /// operators, transient propagators, map kernels, spectral
    /// operators and steady results age independently).
    pub fn new(capacity: usize) -> Self {
        OperatorCache {
            steady: Lru::new(capacity),
            transient: Lru::new(capacity),
            map: Lru::new(capacity),
            spectral: Lru::new(capacity),
            results: Lru::new(capacity),
        }
    }

    /// The influence operator of `floorplan` at the given image orders:
    /// cached under [`operator_fingerprint`], built serially
    /// (`threads = 1`) on a miss — fleet workers are the parallelism,
    /// so a job's build must not oversubscribe its siblings.
    pub fn steady_operator(
        &self,
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
    ) -> Arc<ThermalOperator> {
        self.steady_operator_hooked(floorplan, lateral_order, z_order, || {})
    }

    /// [`Self::steady_operator`] with a `hook` run at the start of a
    /// cold build, **inside** the single-flight reservation. This is
    /// the fault-injection seam: a hook that panics exercises exactly
    /// the builder-panic path a real build failure would take — the
    /// reservation is released by the build guard, waiters wake, and
    /// one of them retries the build. Hits never run the hook.
    pub fn steady_operator_hooked(
        &self,
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        hook: impl FnOnce(),
    ) -> Arc<ThermalOperator> {
        let key = operator_fingerprint(floorplan, lateral_order, z_order);
        infallible(self.steady.get_or_build_noted(key, || {
            hook();
            let op =
                ThermalOperator::with_image_orders_threaded(floorplan, lateral_order, z_order, 1);
            Ok((op, recipe(floorplan, RecipeKind::Steady)))
        }))
    }

    /// The implicit transient propagator for `(op, capacitances, dt,
    /// scheme)`: cached under [`propagator_fingerprint`]. An entry built
    /// here records no rebuild recipe (it has no floorplan).
    ///
    /// # Errors
    ///
    /// See [`TransientError`] — a failed factorization caches nothing.
    pub fn transient_operator(
        &self,
        op: &ThermalOperator,
        capacitances: &[f64],
        dt: f64,
        scheme: ImplicitScheme,
    ) -> Result<Arc<TransientOperator>, TransientError> {
        self.propagator(op, capacitances, dt, scheme, || None)
    }

    /// [`Self::transient_operator`] over `floorplan`'s steady operator
    /// `op` and its silicon block capacitances — how fleet jobs acquire
    /// a propagator, recording its rebuild recipe.
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub(crate) fn floorplan_propagator(
        &self,
        floorplan: &Floorplan,
        op: &ThermalOperator,
        dt: f64,
        scheme: ImplicitScheme,
    ) -> Result<Arc<TransientOperator>, TransientError> {
        let caps = silicon_block_capacitances(floorplan);
        self.propagator(op, &caps, dt, scheme, || {
            recipe(floorplan, RecipeKind::Transient { dt_s: dt, scheme })
        })
    }

    fn propagator(
        &self,
        op: &ThermalOperator,
        capacitances: &[f64],
        dt: f64,
        scheme: ImplicitScheme,
        recipe: impl FnOnce() -> Option<CacheRecipe>,
    ) -> Result<Arc<TransientOperator>, TransientError> {
        let key = propagator_fingerprint(op, capacitances, dt, scheme);
        self.transient.get_or_build_noted(key, || {
            Ok((
                TransientOperator::new(op, capacitances, dt, scheme)?,
                recipe(),
            ))
        })
    }

    /// The spatial map operator of `floorplan` on an `nx × ny` tile
    /// grid at the given image orders: cached under
    /// [`map_operator_fingerprint`], built serially on a miss (fleet
    /// workers are the parallelism, like [`Self::steady_operator`]).
    pub fn map_operator(
        &self,
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        nx: usize,
        ny: usize,
    ) -> Arc<MapOperator> {
        let key = map_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny);
        infallible(self.map.get_or_build_noted(key, || {
            let op = MapOperator::with_image_orders_threaded(
                floorplan,
                nx,
                ny,
                lateral_order,
                z_order,
                1,
            );
            Ok((op, recipe(floorplan, RecipeKind::Map { nx, ny })))
        }))
    }

    /// The spectral (FFT) steady operator of `floorplan` at the given
    /// image orders and refinement tolerance: cached under
    /// [`spectral_operator_fingerprint`] with the inferred coincident
    /// grid, built serially on a miss (fleet workers are the
    /// parallelism, like [`Self::steady_operator`]).
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when no uniform tile grid aligns every
    /// block centre — nothing is cached, so the caller can fall back to
    /// the dense path (or report a typed job error).
    pub fn spectral_operator(
        &self,
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        tolerance: f64,
    ) -> Result<Arc<SpectralOperator>, SpectralGridError> {
        self.spectral_operator_hooked(floorplan, lateral_order, z_order, tolerance, || {})
    }

    /// [`Self::spectral_operator`] with a `hook` run at the start of a
    /// cold build, inside the single-flight reservation — the same
    /// fault-injection seam as [`Self::steady_operator_hooked`].
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when no coincident tile grid exists.
    pub fn spectral_operator_hooked(
        &self,
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        tolerance: f64,
        hook: impl FnOnce(),
    ) -> Result<Arc<SpectralOperator>, SpectralGridError> {
        let (nx, ny) = infer_grid(floorplan)?;
        let key =
            spectral_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny, tolerance);
        self.spectral.get_or_build_noted(key, || {
            hook();
            let op = SpectralOperator::with_image_orders_threaded(
                floorplan,
                lateral_order,
                z_order,
                tolerance,
                1,
            )?;
            Ok((op, recipe(floorplan, RecipeKind::Spectral { tolerance })))
        })
    }

    /// Rebuilds the entry `recipe` describes at the given image orders,
    /// unless it is stale: the recipe must still key to the `recorded`
    /// fingerprint (same orders, same tolerance, same floorplan
    /// content), or nothing is built. Returns whether the entry is now
    /// cached.
    pub(crate) fn rebuild(
        &self,
        recorded: u64,
        recipe: &CacheRecipe,
        lateral_order: usize,
        z_order: usize,
    ) -> bool {
        let plan = recipe.floorplan.as_ref();
        match recipe.kind {
            RecipeKind::Steady => {
                operator_fingerprint(plan, lateral_order, z_order) == recorded && {
                    self.steady_operator(plan, lateral_order, z_order);
                    true
                }
            }
            RecipeKind::Spectral { tolerance } => {
                infer_grid(plan).is_ok_and(|(nx, ny)| {
                    spectral_operator_fingerprint(plan, lateral_order, z_order, nx, ny, tolerance)
                        == recorded
                }) && self
                    .spectral_operator(plan, lateral_order, z_order, tolerance)
                    .is_ok()
            }
            RecipeKind::Transient { dt_s, scheme } => {
                // The propagator is keyed on the steady operator it
                // factors through, so that comes first.
                let op = self.steady_operator(plan, lateral_order, z_order);
                let caps = silicon_block_capacitances(plan);
                propagator_fingerprint(&op, &caps, dt_s, scheme) == recorded
                    && self.floorplan_propagator(plan, &op, dt_s, scheme).is_ok()
            }
            RecipeKind::Map { nx, ny } => {
                map_operator_fingerprint(plan, lateral_order, z_order, nx, ny) == recorded && {
                    self.map_operator(plan, lateral_order, z_order, nx, ny);
                    true
                }
            }
        }
    }

    /// The rebuild recipe of every operator the caches hold, keyed by
    /// its fingerprint. Propagators acquired through
    /// [`Self::transient_operator`] carry no recipe and are left out.
    pub(crate) fn recipes(&self) -> BTreeMap<u64, CacheRecipe> {
        (self.steady.notes().into_iter())
            .chain(self.transient.notes())
            .chain(self.map.notes())
            .chain(self.spectral.notes())
            .filter_map(|(key, recipe)| Some((key, recipe?)))
            .collect()
    }

    /// The **cold** steady result of a resolved delta-base request:
    /// cached under the base's steady-request fingerprint
    /// ([`crate::jobs::steady_result_fingerprint`]), solved
    /// single-flight by `build` on a miss.
    ///
    /// # Keying rules
    ///
    /// Unlike the operator caches, the key covers the **whole resolved
    /// request** — floorplan content fingerprint, power budgets, power
    /// law (and θ), every scenario axis and the resolved backend —
    /// because the cached value is the solved report itself, not a
    /// reusable kernel (see [`crate::jobs::steady_result_fingerprint`]
    /// for the full include/exclude contract). Deadlines, job names
    /// and cancellation state are deliberately **excluded**: they
    /// shape scheduling, not the fixed point, and `build` must solve
    /// cold (no faults, no deadline token) so a recalled entry and a
    /// re-solved one are bitwise identical — the determinism contract
    /// `delta` jobs pin in `tests/delta_determinism.rs`.
    pub fn steady_result(&self, key: u64, build: impl FnOnce() -> SweepReport) -> Arc<SweepReport> {
        infallible(self.results.get_or_build(key, || Ok(build())))
    }

    /// Flushes every ready entry from all five caches (steady,
    /// transient, map, spectral, results), counting each as an
    /// eviction, and returns the total dropped. In-flight builds are
    /// untouched; see [`Lru::clear`].
    pub fn evict_all(&self) -> u64 {
        self.steady.clear()
            + self.transient.clear()
            + self.map.clear()
            + self.spectral.clear()
            + self.results.clear()
    }

    /// Counter snapshots of all five caches under their report names
    /// (the keys of the serve `stats` record's `caches` object).
    pub fn named_stats(&self) -> [(&'static str, CacheStats); 5] {
        [
            ("steady", self.steady_stats()),
            ("transient", self.transient_stats()),
            ("map", self.map_stats()),
            ("spectral", self.spectral_stats()),
            ("results", self.result_stats()),
        ]
    }

    /// Counter snapshot for the steady-operator cache.
    pub fn steady_stats(&self) -> CacheStats {
        self.steady.stats()
    }

    /// Counter snapshot for the transient-propagator cache.
    pub fn transient_stats(&self) -> CacheStats {
        self.transient.stats()
    }

    /// Counter snapshot for the map-operator cache.
    pub fn map_stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Counter snapshot for the spectral-operator cache.
    pub fn spectral_stats(&self) -> CacheStats {
        self.spectral.stats()
    }

    /// Counter snapshot for the steady-result cache.
    pub fn result_stats(&self) -> CacheStats {
        self.results.stats()
    }
}

/// The value of a build that cannot fail.
fn infallible<T>(built: Result<T, Infallible>) -> T {
    match built {
        Ok(value) => value,
        Err(never) => match never {},
    }
}
