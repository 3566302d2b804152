//! # crowd4u-sim — deterministic discrete-event simulation kernel
//!
//! Crowd4U's task-assignment workflow is deadline-driven: the controller
//! "waits for a sufficient number of workers to show interest", and "unless
//! all suggested workers start to perform the collaborative task by the
//! specified deadline, task assignment is re-executed" (paper §2.2.1).
//! Reproducing that offline needs a clock we control. This crate provides:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — logical seconds;
//! * [`engine::Simulation`] — a time-ordered event queue, FIFO within a
//!   tick, that a driver pops one tick at a time;
//! * [`rng::SimRng`] — seeded RNG with gaussian/exponential/weighted helpers;
//! * [`stats::Counters`] — named monotonic counters.
//!
//! Determinism guarantee: a simulation with the same seed, same initial
//! events and same handler logic replays identically, tick for tick.
//!
//! ```
//! use crowd4u_sim::prelude::*;
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime(0), "worker-arrives");
//! let mut arrivals = 0;
//! while let Some((now, batch)) = sim.next_batch() {
//!     for _event in batch {
//!         arrivals += 1;
//!         if arrivals < 3 {
//!             sim.schedule(now + SimDuration::minutes(5), "worker-arrives");
//!         }
//!     }
//! }
//! assert_eq!(arrivals, 3);
//! assert_eq!(sim.now(), SimTime(600));
//! ```

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

pub mod prelude {
    pub use crate::engine::Simulation;
    pub use crate::rng::SimRng;
    pub use crate::stats::Counters;
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;

    proptest! {
        /// Batches pop in increasing time order, each event at its own
        /// time, FIFO within a tick.
        #[test]
        fn queue_orders_events(times in proptest::collection::vec(0u64..100, 1..200)) {
            let mut sim = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule(SimTime(t), i);
            }
            let mut last: Option<SimTime> = None;
            while let Some((t, batch)) = sim.next_batch() {
                prop_assert!(last.is_none_or(|lt| t > lt), "ticks out of order");
                prop_assert_eq!(sim.now(), t);
                prop_assert!(batch.iter().all(|&i| SimTime(times[i]) == t));
                prop_assert!(batch.windows(2).all(|w| w[0] < w[1]), "FIFO violated on tie");
                last = Some(t);
            }
        }

        /// Every scheduled event pops exactly once (no feedback).
        #[test]
        fn engine_visits_all(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut sim = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule(SimTime(t), i);
            }
            let mut seen = vec![0u32; times.len()];
            while let Some((_, batch)) = sim.next_batch() {
                for i in batch {
                    seen[i] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&n| n == 1));
        }

        /// Two RNGs with the same seed agree on any mix of draws.
        #[test]
        fn rng_replay(seed in any::<u64>(), ops in proptest::collection::vec(0u8..5, 0..50)) {
            let mut a = SimRng::seed_from(seed);
            let mut b = SimRng::seed_from(seed);
            for op in ops {
                match op {
                    0 => prop_assert_eq!(a.unit(), b.unit()),
                    1 => prop_assert_eq!(a.gaussian(), b.gaussian()),
                    2 => prop_assert_eq!(a.exponential(2.0), b.exponential(2.0)),
                    3 => prop_assert_eq!(a.chance(0.5), b.chance(0.5)),
                    _ => prop_assert_eq!(a.index(10), b.index(10)),
                }
            }
        }
    }
}
