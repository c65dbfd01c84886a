//! Resources simulated entities contend for: the cluster scheduler models
//! the shared GPU fleet as a [`CapacityPool`].

/// A counting resource: `total` interchangeable units (the cluster's
/// GPUs), of which some are granted out.
#[derive(Clone, Copy, Debug)]
pub struct CapacityPool {
    total: usize,
    in_use: usize,
}

impl CapacityPool {
    /// A pool of `total` units, all free.
    pub fn new(total: usize) -> Self {
        CapacityPool { total, in_use: 0 }
    }

    /// Units not currently granted.
    pub fn free(&self) -> usize {
        self.total - self.in_use
    }

    /// Units currently granted.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Pool size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Takes `units` from the pool; returns false (and takes nothing) if
    /// not enough are free.
    pub fn acquire(&mut self, units: usize) -> bool {
        if units <= self.free() {
            self.in_use += units;
            true
        } else {
            false
        }
    }

    /// Returns `units` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more units are released than were acquired.
    pub fn release(&mut self, units: usize) {
        assert!(units <= self.in_use, "released {units} of {} in use", self.in_use);
        self.in_use -= units;
    }

    /// Releases everything, returning the pool to fully free.
    pub fn release_all(&mut self) {
        self.in_use = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_pool_accounts_units() {
        let mut pool = CapacityPool::new(8);
        assert!(pool.acquire(5));
        assert!(!pool.acquire(4), "over-subscription must fail");
        assert_eq!(pool.free(), 3);
        assert_eq!(pool.in_use(), 5);
        pool.release(2);
        assert_eq!(pool.free(), 5);
        pool.release_all();
        assert_eq!(pool.free(), pool.total());
    }
}
