//! The host's pace: how long a fixed reference kernel takes right now.
//!
//! The reference host is a shared two-core VM whose speed drifts for
//! minutes at a time, so the same work takes up to 1.5 times as long in one
//! run as in another.  The learn and match pipelines therefore
//! [`probe`] the pace after each of their runs, when nothing else runs, and
//! the run quotes every time metric at the reference pace:
//! `raw × REFERENCE_S / pace`, with `pace` the median of all probes of the
//! run.  Their parts interleave with the serve parts, so the probes cover
//! the run; the serve pipeline takes none itself, because inside its window
//! the reader's own load would move them and back-to-back probes outside
//! it find the cycle cached.  The kernel belongs to this package, not to
//! the program: a change to the program moves the raw times and not the
//! pace, so it shows in full, while a drift of the host moves both.
//!
//! A pass chases pointers through a 4 MiB random cycle, beyond L2: on the
//! reference host the drift is mostly contention for the shared cache and
//! memory.  Over eight minutes there, medians of matching runs over about
//! 37 s moved with the pass time (correlation 0.94), and their quartile
//! spread fell from 0.150 to 0.058 of their median when quoted at its pace;
//! when the host later slowed by a fifth, the matching runs slowed by 21%
//! and the pass by 23%, while a walk within L2 slowed by 7%.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the pointer cycle: 4 MiB of `u32`.
const CHASE_LEN: usize = 1 << 20;
/// Steps per pass: 1.5 to 1.9 ms on the reference host.
const CHASE_STEPS: usize = 10_000;
/// One pass on the reference host (two-core Intel Xeon VM at 2.0 GHz,
/// typical median of a run): the pace every time metric is quoted at.
pub const REFERENCE_S: f64 = 1.7e-3;

/// `chase()[i]` is the next index of one random cycle through every
/// entry.
fn chase() -> &'static [u32] {
    static CHASE: OnceLock<Vec<u32>> = OnceLock::new();
    CHASE.get_or_init(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0u32; CHASE_LEN];
        for (at, &from) in order.iter().enumerate() {
            chase[from as usize] = order[(at + 1) % CHASE_LEN];
        }
        chase
    })
}

fn pass(chase: &[u32]) -> u32 {
    // each pass goes on where the last one stopped, so that it keeps
    // reaching lines no recent pass has cached
    static AT: AtomicU32 = AtomicU32::new(0);
    let mut at = AT.load(Ordering::Relaxed);
    for _ in 0..CHASE_STEPS {
        at = chase[at as usize];
    }
    AT.store(at, Ordering::Relaxed);
    at
}

/// Builds the cycle (about 20 ms), so that no timed span pays for it.
pub fn prepare() {
    chase();
}

/// Seconds of one kernel pass now.  Take it right after the program ran,
/// as every probe of a run is: back-to-back passes find more of the cycle
/// cached and run faster.
pub fn probe() -> f64 {
    let chase = chase();
    let start = Instant::now();
    black_box(pass(black_box(chase)));
    start.elapsed().as_secs_f64()
}

/// The factor that quotes a time measured at `pace` (the median probe) at
/// the reference pace.
pub fn factor(pace: f64) -> f64 {
    REFERENCE_S / pace
}
