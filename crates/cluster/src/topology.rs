//! Cluster interconnect topology.
//!
//! A [`Topology`] tells the discrete-event simulator how long a message of a
//! given size takes between two ranks.  The presets correspond to the
//! interconnects of the paper's testbeds (Table II and Table IV): Gigabit
//! Ethernet for clusters A and B, InfiniBand EDR 100 Gb/s for cluster C and
//! InfiniBand QDR 40 Gb/s for the GPU cluster.

use crate::{Rank, SimTime};

/// Latency/bandwidth description of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// Creates a link spec.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        Self {
            latency_s,
            bandwidth_bps,
        }
    }

    /// Gigabit Ethernet: ~125 MB/s usable, ~120 µs latency (kernel TCP).
    pub fn gigabit_ethernet() -> Self {
        Self::new(120e-6, 117e6)
    }

    /// InfiniBand EDR 100 Gb/s: ~11 GB/s usable, ~1.5 µs latency.
    pub fn infiniband_edr() -> Self {
        Self::new(1.5e-6, 11e9)
    }

    /// InfiniBand QDR 40 Gb/s: ~4 GB/s usable, ~2 µs latency.
    pub fn infiniband_qdr() -> Self {
        Self::new(2.0e-6, 4e9)
    }

    /// Loopback (same-node) transfer: memcpy-class bandwidth.
    pub fn loopback() -> Self {
        Self::new(0.2e-6, 20e9)
    }

    /// Transfer time for a message of `bytes` bytes over this link.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Interconnect topology for a cluster of `n` ranks.
///
/// A uniform full-duplex switch: every ordered pair of distinct ranks uses
/// the same [`LinkSpec`].
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    default_link: LinkSpec,
}

impl Topology {
    /// A uniform topology where every inter-rank link has spec `link`.
    pub fn uniform(n: usize, link: LinkSpec) -> Self {
        Self {
            n,
            default_link: link,
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// The spec of the directed link `src → dst`.  Messages a rank sends to
    /// itself use a loopback link.
    pub fn link(&self, src: Rank, dst: Rank) -> LinkSpec {
        if src == dst {
            LinkSpec::loopback()
        } else {
            self.default_link
        }
    }

    /// Transfer time for `bytes` from `src` to `dst`.
    pub fn transfer_time(&self, src: Rank, dst: Rank, bytes: u64) -> SimTime {
        self.link(src, dst).transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let l = LinkSpec::new(1e-3, 1e6);
        let t = l.transfer_time(2_000_000);
        assert!((t - 2.001).abs() < 1e-9);
    }

    #[test]
    fn gigabit_is_slower_than_infiniband() {
        let bytes = 32 * 1024;
        assert!(
            LinkSpec::gigabit_ethernet().transfer_time(bytes)
                > LinkSpec::infiniband_edr().transfer_time(bytes) * 10.0
        );
    }

    #[test]
    fn uniform_topology() {
        let t = Topology::uniform(4, LinkSpec::gigabit_ethernet());
        assert_eq!(t.n_ranks(), 4);
        assert_eq!(t.link(0, 1), LinkSpec::gigabit_ethernet());
        assert_eq!(t.link(1, 0), LinkSpec::gigabit_ethernet());
    }

    #[test]
    fn self_link_is_loopback() {
        let t = Topology::uniform(2, LinkSpec::gigabit_ethernet());
        assert_eq!(t.link(1, 1), LinkSpec::loopback());
        assert!(t.transfer_time(1, 1, 1024) < 1e-5);
    }

    #[test]
    fn latency_dominates_small_messages_on_ethernet() {
        let l = LinkSpec::gigabit_ethernet();
        let small = l.transfer_time(64);
        assert!(small < 2.0 * l.latency_s);
        let big = l.transfer_time(10_000_000);
        assert!(big > 0.05);
    }
}
