//! The reference work: a fixed piece of computation that uses nothing of
//! the simulator, timed before and after every repetition so that host
//! times can be stated in *reference seconds* — what the repetition would
//! have taken had the box been running at its nominal speed.
//!
//! Why: the benchmark box is a small share of a busy host. Its speed moves
//! by a quarter from one half-minute to the next (clock speed steps between
//! two levels, and the shared cache is sometimes someone else's), which no
//! median over one run removes, because the whole run sits in the same
//! weather. Ten runs of unchanged code spread 15–20 % on the raw host
//! clock and 3–8 % in reference seconds.
//!
//! The work is half arithmetic (a dependent xorshift chain: clock speed)
//! and half memory latency (a dependent walk round an 8 MiB table: the
//! cache beyond L2), the two things the simulator's host time is made of.
//! Both halves are weighted equally; of the mixes tried it is the one that
//! steadied all four workloads at once.

use sleds_sim_core::DetRng;

use crate::hostclock::HostClock;

/// Steps of the arithmetic chain, and what they take on the reference box
/// in its usual state.
const ALU_STEPS: u64 = 10_000_000;
const ALU_NOMINAL_NS: f64 = 25.0e6;

/// Entries of the walked table (8 MiB of `u32`), steps of the walk, and
/// what they take on the reference box in its usual state.
const TABLE_ENTRIES: usize = 2 << 20;
const WALK_STEPS: u64 = 400_000;
const WALK_NOMINAL_NS: f64 = 37.5e6;

pub struct Reference {
    /// One cycle through every entry (Sattolo's shuffle), so the walk never
    /// settles into a short loop the cache could hold.
    next: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..TABLE_ENTRIES as u32).collect();
        let mut rng = DetRng::new(0x7ef);
        for i in (1..TABLE_ENTRIES).rev() {
            next.swap(i, rng.range_usize(0, i));
        }
        Reference { next }
    }

    /// Runs the reference work and returns how slow the box is right now:
    /// 1.0 is nominal, 1.25 a quarter slower. About 60 ms.
    pub fn slowness(&self, clock: &HostClock) -> f64 {
        let t0 = clock.now_ns();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
        for i in 0..ALU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let t1 = clock.now_ns();
        let mut at = 0u32;
        for _ in 0..WALK_STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        let t2 = clock.now_ns();
        0.5 * (t1 - t0) as f64 / ALU_NOMINAL_NS + 0.5 * (t2 - t1) as f64 / WALK_NOMINAL_NS
    }
}
