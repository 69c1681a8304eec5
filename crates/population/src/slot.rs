//! Inline state slots: the flat storage behind the erased run path.
//!
//! [`DynState`] is the type-erased per-agent state used by the
//! [`crate::scenario`] layer.  Its first incarnation was a plain
//! `Box<dyn ErasedState>`: correct, but every access paid a heap-pointer
//! chase and every transition two of them, with the states of a population
//! scattered across the allocator — millions of cache misses per trial once
//! every figure binary started running through the erased path.
//!
//! This module replaces the box with a **fixed-size inline slot**:
//!
//! * a [`DynState`] is `{ ops: &'static StateOps, storage: [40 bytes] }` —
//!   48 bytes total, so a `Configuration<DynState>` is one contiguous,
//!   cache-friendly buffer;
//! * states with `size <= 40` and `align <= 8` (every Table 1 protocol state;
//!   the largest, `PplState`, is exactly 40 bytes) are stored **in-line** in
//!   the slot — no heap allocation, no pointer chase;
//! * oversized or over-aligned states transparently fall back to a boxed
//!   representation behind the same API ([`DynState::is_inline`] tells which
//!   path a value took, [`fits_inline`] decides per type at compile time);
//! * per-type behaviour (clone/drop/eq/debug/hash/type-identity) lives in a
//!   `&'static` ops table — a hand-rolled vtable — so `DynState` itself needs
//!   no trait object.
//!
//! Two salted 64-bit hashes serve different readers.
//! [`DynState::fingerprint`] feeds the state's derived `Hash` into one
//! fixed, deterministic hasher: it is the cheap per-step key of recurrence
//! detection and configuration interning, never persisted, and every match
//! on it is confirmed with `==`.  [`DynState::digest`] streams the state's
//! `Debug` text through FNV-1a: twenty to thirty times slower, but stable
//! across builds, so it is the value written into livelock certificates
//! and is computed once per certificate, never per step.
//!
//! Type identity is checked on every downcast exactly as `dyn Any` would:
//! each `DynState` stores its `TypeId` by value, so the check is a
//! constant-folded 16-byte compare (no indirect call), and mixing states of
//! different protocols still fails loudly rather than reinterpreting
//! memory.
//!
//! This is the only module in the crate that uses `unsafe`; every unsafe
//! block is justified inline and the invariants are summarized on
//! [`DynState`].

#![allow(unsafe_code)]

use std::any::{Any, TypeId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{align_of, needs_drop, size_of, MaybeUninit};

/// Number of bytes a state may occupy to be stored in-line.
///
/// Sized to fit the largest Table 1 protocol state (`PplState`, 40 bytes)
/// so that all four measured protocols take the inline path; see the
/// `all_table1_states_take_the_inline_path` test in
/// `crates/bench/tests/scenario_equivalence.rs`, which pins this.
pub const INLINE_SLOT_BYTES: usize = 40;

/// Maximum alignment of an inline state.
pub const INLINE_SLOT_ALIGN: usize = 8;

/// The raw slot: 40 bytes with 8-byte alignment, always reserved in-line.
type RawSlot = [MaybeUninit<u64>; INLINE_SLOT_BYTES / 8];

/// Returns `true` if values of type `S` are stored in-line in the slot
/// (rather than boxed).  This is a compile-time property of `S`.
pub const fn fits_inline<S>() -> bool {
    size_of::<S>() <= INLINE_SLOT_BYTES && align_of::<S>() <= INLINE_SLOT_ALIGN
}

/// The bounds a typed state must satisfy to be erased into a [`DynState`]:
/// the [`crate::protocol::Protocol::State`] bounds plus `Hash` (for
/// [`DynState::fingerprint`]) and `'static`.  `Hash` must agree with `==`,
/// as a derived `Hash` next to a derived `PartialEq` always does.
///
/// Blanket-implemented; user code never implements it directly.
pub trait SlotState: Any + Clone + PartialEq + Hash + fmt::Debug + Send + Sync {}

impl<S> SlotState for S where S: Any + Clone + PartialEq + Hash + fmt::Debug + Send + Sync {}

/// Either the state value itself (inline) or a pointer to its heap box.
///
/// Which variant is live is a compile-time property of the stored type
/// (`fits_inline::<S>()`), recorded in the ops table — the union carries no
/// discriminant of its own.
union Storage {
    /// In-line representation: the state's bytes, written at offset 0.
    inline: RawSlot,
    /// Boxed fallback: an owning pointer created by `Box::into_raw`.
    boxed: *mut u8,
}

/// The hand-rolled vtable of one erased state type.
struct StateOps {
    /// `true` if values of this type live in-line in the slot.
    inline: bool,
    /// `true` if dropping a value of this type runs any code (lets
    /// `Drop for DynState` skip the indirect call for plain-old-data states,
    /// which all the protocol states are).
    needs_drop: bool,
    /// Drops the stored value (in place for inline, freeing the box
    /// otherwise).  Safety: `storage` must hold a live value of this type.
    drop: unsafe fn(&mut Storage),
    /// Clones the stored value into a fresh storage of the same
    /// representation.  Safety: `storage` must hold a live value of this type.
    clone: unsafe fn(&Storage) -> Storage,
    /// Structural equality.  Safety: both storages must hold live values of
    /// this type.
    eq: unsafe fn(&Storage, &Storage) -> bool,
    /// Debug-formats the stored value.  Safety: `storage` must hold a live
    /// value of this type.
    debug: unsafe fn(&Storage, &mut fmt::Formatter<'_>) -> fmt::Result,
    /// FNV-1a digest of the stored value's `Debug` byte stream, salted.
    /// Safety: `storage` must hold a live value of this type.
    digest: unsafe fn(&Storage, u64) -> u64,
    /// The stored value's `Hash` through the fixed fingerprint hasher,
    /// salted.  Safety: `storage` must hold a live value of this type.
    fingerprint: unsafe fn(&Storage, u64) -> u64,
}

/// Per-type ops-table factory: `&Ops::<S>::TABLE` is the promoted `'static`
/// vtable of `S`.
struct Ops<S>(std::marker::PhantomData<S>);

impl<S: SlotState> Ops<S> {
    const TABLE: StateOps = StateOps {
        inline: fits_inline::<S>(),
        needs_drop: !fits_inline::<S>() || needs_drop::<S>(),
        drop: drop_storage::<S>,
        clone: clone_storage::<S>,
        eq: eq_storage::<S>,
        debug: debug_storage::<S>,
        digest: digest_storage::<S>,
        fingerprint: fingerprint_storage::<S>,
    };
}

/// Writes `state` into a fresh storage, in-line if it fits.
fn make_storage<S: SlotState>(state: S) -> Storage {
    if fits_inline::<S>() {
        let mut slot: RawSlot = [MaybeUninit::uninit(); INLINE_SLOT_BYTES / 8];
        // SAFETY: `fits_inline::<S>()` guarantees `S` fits in the slot's size
        // and alignment, so the cast pointer is valid and suitably aligned
        // for one `S`; the slot is freshly uninitialized, so nothing is
        // overwritten.
        unsafe { slot.as_mut_ptr().cast::<S>().write(state) };
        Storage { inline: slot }
    } else {
        Storage {
            boxed: Box::into_raw(Box::new(state)).cast(),
        }
    }
}

/// Pointer to the live `S` inside `storage`.
///
/// # Safety
///
/// `storage` must have been created by `make_storage::<S>` (i.e. hold a live
/// value of exactly type `S`).
unsafe fn value_ptr<S: SlotState>(storage: &Storage) -> *const S {
    if fits_inline::<S>() {
        // SAFETY (union read): the inline variant is live per the contract.
        unsafe { storage.inline.as_ptr().cast::<S>() }
    } else {
        // SAFETY (union read): the boxed variant is live per the contract.
        unsafe { storage.boxed.cast::<S>() }
    }
}

/// Mutable variant of [`value_ptr`]; same safety contract.
unsafe fn value_ptr_mut<S: SlotState>(storage: &mut Storage) -> *mut S {
    if fits_inline::<S>() {
        // SAFETY (union read): the inline variant is live per the contract.
        unsafe { storage.inline.as_mut_ptr().cast::<S>() }
    } else {
        // SAFETY (union read): the boxed variant is live per the contract.
        unsafe { storage.boxed.cast::<S>() }
    }
}

/// Ops-table entry: drop.  Safety contract as on [`StateOps::drop`].
unsafe fn drop_storage<S: SlotState>(storage: &mut Storage) {
    if fits_inline::<S>() {
        // SAFETY: the slot holds a live `S`; dropping it in place ends its
        // lifetime exactly once (the caller never touches it again).
        unsafe { std::ptr::drop_in_place(value_ptr_mut::<S>(storage)) };
    } else {
        // SAFETY: the pointer came from `Box::into_raw` in `make_storage`
        // and has not been freed; re-owning the box drops and frees it.
        drop(unsafe { Box::from_raw(storage.boxed.cast::<S>()) });
    }
}

/// Ops-table entry: clone.  Safety contract as on [`StateOps::clone`].
unsafe fn clone_storage<S: SlotState>(storage: &Storage) -> Storage {
    // SAFETY: the storage holds a live `S` per the contract.
    make_storage(unsafe { &*value_ptr::<S>(storage) }.clone())
}

/// Ops-table entry: equality.  Safety contract as on [`StateOps::eq`].
unsafe fn eq_storage<S: SlotState>(a: &Storage, b: &Storage) -> bool {
    // SAFETY: both storages hold live `S` values per the contract.
    unsafe { *value_ptr::<S>(a) == *value_ptr::<S>(b) }
}

/// Ops-table entry: debug.  Safety contract as on [`StateOps::debug`].
unsafe fn debug_storage<S: SlotState>(
    storage: &Storage,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    // SAFETY: the storage holds a live `S` per the contract.
    write!(f, "{:?}", unsafe { &*value_ptr::<S>(storage) })
}

/// FNV-1a over the bytes a value writes through `fmt::Write` — the
/// no-allocation hasher behind the `digest` op (the `Debug` output is hashed
/// as it is produced, never materialized).
struct FnvWriter {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FnvWriter {
    fn mix_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.mix_bytes(s.as_bytes());
        Ok(())
    }
}

/// Ops-table entry: digest.  Safety contract as on [`StateOps::digest`].
unsafe fn digest_storage<S: SlotState>(storage: &Storage, salt: u64) -> u64 {
    use fmt::Write as _;
    let mut writer = FnvWriter { hash: FNV_OFFSET };
    writer.mix_bytes(&salt.to_le_bytes());
    // SAFETY: the storage holds a live `S` per the contract.
    write!(writer, "{:?}", unsafe { &*value_ptr::<S>(storage) })
        .expect("hashing a Debug stream cannot fail");
    writer.hash
}

/// The fingerprint hasher: FxHash's rotate-xor-multiply step per written
/// word — one multiply per field of a derived `Hash` — finished by the
/// murmur3 avalanche, so every input bit reaches every output bit.  A
/// fixed function: the same in every run and on every thread.  SipHash
/// (`DefaultHasher`) pays its rounds per field write: about 150 ns for a
/// 19-field `PplState` against about 20 ns here, and a detecting step
/// fingerprints four states.
struct FingerprintHasher(u64);

impl FingerprintHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Ops-table entry: fingerprint.  Safety contract as on
/// [`StateOps::fingerprint`].
unsafe fn fingerprint_storage<S: SlotState>(storage: &Storage, salt: u64) -> u64 {
    let mut hasher = FingerprintHasher(0);
    hasher.add(salt);
    // SAFETY: the storage holds a live `S` per the contract.
    unsafe { &*value_ptr::<S>(storage) }.hash(&mut hasher);
    hasher.finish()
}

/// A type-erased per-agent state with inline small-state storage.
///
/// Satisfies the [`crate::protocol::Protocol::State`] bounds, so
/// `Configuration<DynState>` plugs into the ordinary
/// [`crate::simulation::Simulation`] engine — as one flat 48-bytes-per-agent
/// buffer rather than a vector of heap pointers.
///
/// # Invariants (maintained by every constructor and upheld by the unsafe
/// blocks in this module)
///
/// * `storage` always holds a live value of exactly the type identified by
///   `type_id`, which is also the type `ops` was instantiated for.
/// * The representation (inline vs boxed) matches `fits_inline` for that
///   type, i.e. `ops.inline`.
/// * The stored type is `Send + Sync` (required by [`DynState::new`]), which
///   justifies the manual `Send`/`Sync` impls below.
///
/// The type id is stored by value (not behind the ops table) so the two
/// downcasts of every erased interaction are a constant-folded 16-byte
/// compare instead of an indirect call; together with the 40-byte slot and
/// the ops pointer this makes `DynState` exactly one 64-byte cache line.
pub struct DynState {
    ops: &'static StateOps,
    type_id: TypeId,
    storage: Storage,
}

// SAFETY: a `DynState` owns exactly one value of a type that was required to
// be `Send + Sync` at construction ([`SlotState`]); the raw pointer in the
// boxed variant is an owning pointer to that value, never shared.
unsafe impl Send for DynState {}
// SAFETY: as above; `&DynState` only exposes `&S` views of a `Sync` value.
unsafe impl Sync for DynState {}

impl DynState {
    /// Erases a typed state, storing it in-line if it fits the slot.
    pub fn new<S: SlotState>(state: S) -> Self {
        DynState {
            ops: &Ops::<S>::TABLE,
            type_id: TypeId::of::<S>(),
            storage: make_storage(state),
        }
    }

    /// `true` if this value is stored in-line (no heap allocation).
    pub fn is_inline(&self) -> bool {
        self.ops.inline
    }

    /// `true` if the stored value has type `S`.
    #[inline]
    fn is<S: SlotState>(&self) -> bool {
        self.type_id == TypeId::of::<S>()
    }

    /// Borrows the underlying state if it has type `S`.
    #[inline]
    pub fn downcast_ref<S: SlotState>(&self) -> Option<&S> {
        if self.is::<S>() {
            // SAFETY: the type check passed, so the storage holds a live `S`
            // (struct invariant); the reference borrows `self`.
            Some(unsafe { &*value_ptr::<S>(&self.storage) })
        } else {
            None
        }
    }

    /// A salted 64-bit digest of the stored value, computed by streaming its
    /// `Debug` output through an FNV-1a hasher (no allocation).
    ///
    /// Equal states always produce equal digests (derived `Debug` output is a
    /// deterministic function of the value); unequal states *may* collide, so
    /// digests are recurrence **candidates** only — callers must confirm with
    /// `==` before trusting a match.  The digest is meaningful only when the
    /// state's `Debug` representation is injective, which every
    /// `#[derive(Debug)]` state satisfies.
    ///
    /// This is the certificate-grade hash: stable across builds and
    /// toolchains, but it formats the whole state.  Per-step callers use
    /// [`DynState::fingerprint`] instead.
    pub fn digest(&self, salt: u64) -> u64 {
        // SAFETY: the storage holds a live value of the ops table's type.
        unsafe { (self.ops.digest)(&self.storage, salt) }
    }

    /// A salted 64-bit fingerprint of the stored value: its derived `Hash`
    /// fed, after the salt, into one fixed, deterministic hasher.
    ///
    /// Equal states always have equal fingerprints; unequal states *may*
    /// collide, so a fingerprint match is a candidate only — callers confirm
    /// it with `==`, and no outcome depends on the hash function.  Unlike
    /// [`DynState::digest`] the value is not promised to survive a toolchain
    /// change, so it is never persisted.
    #[inline]
    pub fn fingerprint(&self, salt: u64) -> u64 {
        // SAFETY: the storage holds a live value of the ops table's type.
        unsafe { (self.ops.fingerprint)(&self.storage, salt) }
    }

    /// Mutably borrows the underlying state if it has type `S`.
    #[inline]
    pub fn downcast_mut<S: SlotState>(&mut self) -> Option<&mut S> {
        if self.is::<S>() {
            // SAFETY: as in `downcast_ref`, plus exclusivity from `&mut self`.
            Some(unsafe { &mut *value_ptr_mut::<S>(&mut self.storage) })
        } else {
            None
        }
    }
}

impl Drop for DynState {
    fn drop(&mut self) {
        if self.ops.needs_drop {
            // SAFETY: the storage holds a live value of the ops table's type
            // (struct invariant) and is never used after `drop`.
            unsafe { (self.ops.drop)(&mut self.storage) };
        }
    }
}

impl Clone for DynState {
    fn clone(&self) -> Self {
        DynState {
            ops: self.ops,
            type_id: self.type_id,
            // SAFETY: the storage holds a live value of the ops table's type.
            storage: unsafe { (self.ops.clone)(&self.storage) },
        }
    }
}

impl PartialEq for DynState {
    fn eq(&self, other: &Self) -> bool {
        // Different stored types never compare equal.
        self.type_id == other.type_id
            // SAFETY: both storages hold live values of the same type.
            && unsafe { (self.ops.eq)(&self.storage, &other.storage) }
    }
}

impl fmt::Debug for DynState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // SAFETY: the storage holds a live value of the ops table's type.
        unsafe { (self.ops.debug)(&self.storage, f) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A state that is far too big for the slot: exercises the boxed path.
    #[derive(Clone, Debug, PartialEq, Hash)]
    struct Big([u64; 16]);

    /// A small state with a non-trivial drop: exercises inline drop.
    #[derive(Clone, Debug)]
    struct Counting(Arc<AtomicUsize>);

    impl PartialEq for Counting {
        fn eq(&self, other: &Self) -> bool {
            Arc::ptr_eq(&self.0, &other.0)
        }
    }

    impl Hash for Counting {
        fn hash<H: Hasher>(&self, state: &mut H) {
            Arc::as_ptr(&self.0).hash(state);
        }
    }

    impl Drop for Counting {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn small_states_are_inline_and_big_states_are_boxed() {
        assert!(fits_inline::<bool>());
        assert!(fits_inline::<u64>());
        assert!(fits_inline::<[u8; 40]>());
        assert!(!fits_inline::<[u8; 41]>());
        assert!(!fits_inline::<Big>());
        assert!(fits_inline::<()>(), "zero-sized states are inline");

        assert!(DynState::new(5u32).is_inline());
        assert!(DynState::new(()).is_inline());
        assert!(!DynState::new(Big([0; 16])).is_inline());
    }

    #[test]
    fn digests_agree_for_equal_states_and_salt_is_load_bearing() {
        // Inline path.
        assert_eq!(
            DynState::new(42u32).digest(7),
            DynState::new(42u32).digest(7)
        );
        assert_ne!(
            DynState::new(42u32).digest(7),
            DynState::new(43u32).digest(7)
        );
        assert_ne!(
            DynState::new(42u32).digest(0),
            DynState::new(42u32).digest(1),
            "the salt must perturb the digest"
        );
        // Boxed path.
        let big = Big([3; 16]);
        assert_eq!(
            DynState::new(big.clone()).digest(9),
            DynState::new(big.clone()).digest(9)
        );
        assert_ne!(
            DynState::new(big).digest(9),
            DynState::new(Big([4; 16])).digest(9)
        );
    }

    #[test]
    fn fingerprints_agree_for_equal_states_and_salt_is_load_bearing() {
        // Inline path.
        let a = DynState::new(42u32);
        assert_eq!(a.fingerprint(7), a.clone().fingerprint(7));
        assert_eq!(a.fingerprint(7), DynState::new(42u32).fingerprint(7));
        assert_ne!(a.fingerprint(7), DynState::new(43u32).fingerprint(7));
        assert_ne!(
            a.fingerprint(0),
            a.fingerprint(1),
            "the salt must perturb the fingerprint"
        );
        // Boxed path.
        let big = DynState::new(Big([3; 16]));
        assert_eq!(big.fingerprint(9), big.clone().fingerprint(9));
        assert_ne!(
            big.fingerprint(9),
            DynState::new(Big([4; 16])).fingerprint(9)
        );
    }

    #[test]
    fn dyn_state_is_exactly_one_cache_line() {
        // ops pointer (8) + type id (16) + slot (40) = 64 bytes.
        assert_eq!(size_of::<DynState>(), 64);
        assert_eq!(align_of::<DynState>(), INLINE_SLOT_ALIGN);
    }

    #[test]
    fn clone_eq_debug_and_downcast_inline() {
        let a = DynState::new(5u32);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, DynState::new(6u32));
        assert_ne!(
            a,
            DynState::new(5u64),
            "different types never compare equal"
        );
        assert_eq!(format!("{a:?}"), "5");
        assert_eq!(a.downcast_ref::<u32>(), Some(&5));
        assert_eq!(a.downcast_ref::<u64>(), None);
        let mut c = a.clone();
        *c.downcast_mut::<u32>().unwrap() = 9;
        assert_eq!(c.downcast_ref::<u32>(), Some(&9));
        assert_eq!(a.downcast_ref::<u32>(), Some(&5), "clones are independent");
    }

    #[test]
    fn clone_eq_debug_and_downcast_boxed() {
        let a = DynState::new(Big([7; 16]));
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, DynState::new(Big([8; 16])));
        assert!(format!("{a:?}").starts_with("Big"));
        assert_eq!(a.downcast_ref::<Big>(), Some(&Big([7; 16])));
        assert_eq!(a.downcast_ref::<u32>(), None);
        let mut c = b.clone();
        c.downcast_mut::<Big>().unwrap().0[0] = 1;
        assert_ne!(b, c, "boxed clones are independent");
    }

    #[test]
    fn inline_drop_runs_exactly_once_per_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        assert!(fits_inline::<Counting>(), "Arc-sized state must be inline");
        {
            let a = DynState::new(Counting(Arc::clone(&drops)));
            let _b = a.clone();
            let _c = a.clone();
        }
        // 3 DynState values dropped => 3 Counting drops (no double frees,
        // no leaks: each would show up as a wrong count here or under miri).
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn boxed_drop_frees_the_box() {
        /// The array only exists to push the size past the slot.
        #[derive(Clone, Debug)]
        struct BigCounting(#[allow(dead_code)] [u64; 8], Arc<AtomicUsize>);
        impl PartialEq for BigCounting {
            fn eq(&self, _: &Self) -> bool {
                true
            }
        }
        impl Hash for BigCounting {
            fn hash<H: Hasher>(&self, _: &mut H) {}
        }
        impl Drop for BigCounting {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        assert!(!fits_inline::<BigCounting>());
        {
            let a = DynState::new(BigCounting([0; 8], Arc::clone(&drops)));
            let _b = a.clone();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn vectors_of_dyn_states_behave_like_typed_vectors() {
        // The shape `Configuration<DynState>` relies on.
        let states: Vec<DynState> = (0..64u32).map(DynState::new).collect();
        let cloned = states.clone();
        assert_eq!(states, cloned);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.downcast_ref::<u32>(), Some(&(i as u32)));
            assert!(s.is_inline());
        }
    }

    #[test]
    fn over_aligned_states_fall_back_to_the_box() {
        #[derive(Clone, Debug, PartialEq, Hash)]
        #[repr(align(16))]
        struct Wide(u8);
        assert!(
            !fits_inline::<Wide>(),
            "align 16 exceeds the slot's align 8"
        );
        let a = DynState::new(Wide(3));
        assert!(!a.is_inline());
        assert_eq!(a.downcast_ref::<Wide>(), Some(&Wide(3)));
    }

    #[test]
    fn send_and_sync_across_threads() {
        let a = DynState::new(41u64);
        let handle = std::thread::spawn(move || a.downcast_ref::<u64>().copied());
        assert_eq!(handle.join().unwrap(), Some(41));
    }
}
