//! A counting `#[global_allocator]`: calls and requested bytes, summed
//! over every thread of the process.
//!
//! Counting is off until [`enable`] is called, so the end-to-end runs pay
//! one relaxed load per allocation and nothing else; only the traced pass
//! and the layer replays count. Each thread claims a cache-line-sized slot
//! of its own on its first allocation and updates it with a plain
//! load/store (it is the slot's only writer); threads past the last slot —
//! the fetch pool spawns four per request on `net_overlap` — share one
//! overflow slot with an atomic add. Nothing here has a destructor or
//! allocates, which is what makes it safe to run inside the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;
const OVERFLOW: usize = SLOTS - 1;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The process allocator: `System`, counted.
pub struct Counting;

#[inline]
fn note(bytes: usize) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    // `try_with` fails only while the thread's locals are being torn
    // down; those few calls go to the shared slot.
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed).min(OVERFLOW));
            }
            s.get()
        })
        .unwrap_or(OVERFLOW);
    let cell = &TABLE[slot];
    if slot == OVERFLOW {
        cell.calls.fetch_add(1, Relaxed);
        cell.bytes.fetch_add(bytes as u64, Relaxed);
    } else {
        cell.calls.store(cell.calls.load(Relaxed) + 1, Relaxed);
        cell.bytes
            .store(cell.bytes.load(Relaxed) + bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` touches only statics and a destructor-free
// thread-local `Cell`, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) and requested
/// bytes so far, over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// Counters now. Exact once the threads that allocated have been
    /// joined (or are this thread).
    pub fn now() -> AllocCount {
        TABLE
            .iter()
            .fold(AllocCount::default(), |acc, s| AllocCount {
                calls: acc.calls + s.calls.load(Relaxed),
                bytes: acc.bytes + s.bytes.load(Relaxed),
            })
    }

    /// What was allocated since `earlier`.
    pub fn since(&self, earlier: &AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
