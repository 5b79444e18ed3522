//! Hardware presets reproducing the paper's testbeds.
//!
//! Table II (CPU clusters):
//!
//! | Cluster | Max nodes | CPUs | RAM | Interconnect |
//! |---|---|---|---|---|
//! | A | 8  | 2× Xeon E5-2650 | 128 GB DDR3-1600 | Gigabit Ethernet |
//! | B | 13 | heterogeneous (2nd/4th-gen i5/i7 + 2× Xeon E5-2650) | 8 GB DDR3 | Gigabit Ethernet |
//! | C | 32 | 2× Xeon Gold 6140 | 384 GB DDR4-2666 | InfiniBand EDR 100 Gb/s |
//!
//! Table IV (GPU cluster): 4 nodes, 2× Xeon E5-2640 v3, InfiniBand QDR,
//! one GPU per node (AMD MI60, Tesla P40, Titan V, RTX 3090).
//!
//! Bandwidth and FLOP figures are *effective* values for llama.cpp-class
//! quantized inference kernels (NUMA effects, dequantization overhead and
//! imperfect vectorisation included), not peak hardware numbers — they are
//! calibrated so that single-request decoding speed and the batch size at
//! which evaluation turns compute-bound land in the regime the paper
//! reports.  The shapes of the paper's figures depend on the *ratios*
//! between nodes and between compute and interconnect, which these presets
//! preserve.

use pi_cluster::{LinkSpec, Topology};

/// Compute/memory description of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name.
    pub name: String,
    /// Sustained memory (or VRAM) bandwidth in bytes per second.
    pub mem_bandwidth_bps: f64,
    /// Sustained compute throughput in FLOP/s for the precision used at
    /// inference time.
    pub compute_flops: f64,
    /// Installed memory in bytes (used for feasibility/memory reporting).
    pub memory_bytes: u64,
}

impl NodeSpec {
    /// Dual-socket Intel Xeon Gold 6140 (cluster C): ≈ 45 GB/s effective
    /// weight-streaming bandwidth, ≈ 1.2 TFLOP/s effective quantized-kernel
    /// throughput.
    pub fn xeon_gold_6140_dual() -> Self {
        Self {
            name: "2x Xeon Gold 6140".into(),
            mem_bandwidth_bps: 45e9,
            compute_flops: 1.2e12,
            memory_bytes: 384 * 1024 * 1024 * 1024,
        }
    }

    /// Dual-socket Intel Xeon E5-2650 (cluster A): ≈ 25 GB/s effective
    /// streaming bandwidth, ≈ 0.35 TFLOP/s effective throughput.
    pub fn xeon_e5_2650_dual() -> Self {
        Self {
            name: "2x Xeon E5-2650".into(),
            mem_bandwidth_bps: 25e9,
            compute_flops: 0.35e12,
            memory_bytes: 128 * 1024 * 1024 * 1024,
        }
    }

    /// Dell Optiplex with a 2nd-generation Core i5 and dual-channel DDR3:
    /// ≈ 10 GB/s effective, ≈ 60 GFLOP/s effective.
    pub fn optiplex_i5_gen2() -> Self {
        Self {
            name: "Optiplex i5-2400".into(),
            mem_bandwidth_bps: 10e9,
            compute_flops: 60e9,
            memory_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// Dell Optiplex with a 4th-generation Core i7 and dual-channel DDR3:
    /// ≈ 13 GB/s effective, ≈ 130 GFLOP/s effective.
    pub fn optiplex_i7_gen4() -> Self {
        Self {
            name: "Optiplex i7-4770".into(),
            mem_bandwidth_bps: 13e9,
            compute_flops: 130e9,
            memory_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// AMD Instinct MI60: ≈ 700 GB/s effective HBM2 bandwidth, ≈ 10 TFLOP/s
    /// effective.
    pub fn gpu_mi60() -> Self {
        Self {
            name: "AMD Instinct MI60".into(),
            mem_bandwidth_bps: 700e9,
            compute_flops: 10e12,
            memory_bytes: 32 * 1024 * 1024 * 1024,
        }
    }

    /// NVIDIA Tesla P40: ≈ 250 GB/s effective GDDR5 bandwidth, ≈ 8 TFLOP/s
    /// effective.
    pub fn gpu_tesla_p40() -> Self {
        Self {
            name: "NVIDIA Tesla P40".into(),
            mem_bandwidth_bps: 250e9,
            compute_flops: 8e12,
            memory_bytes: 24 * 1024 * 1024 * 1024,
        }
    }

    /// NVIDIA Titan V: ≈ 450 GB/s effective HBM2 bandwidth, ≈ 10 TFLOP/s
    /// effective.
    pub fn gpu_titan_v() -> Self {
        Self {
            name: "NVIDIA Titan V".into(),
            mem_bandwidth_bps: 450e9,
            compute_flops: 10e12,
            memory_bytes: 12 * 1024 * 1024 * 1024,
        }
    }

    /// NVIDIA RTX 3090: ≈ 650 GB/s effective GDDR6X bandwidth, ≈ 20 TFLOP/s
    /// effective.
    pub fn gpu_rtx_3090() -> Self {
        Self {
            name: "NVIDIA RTX 3090".into(),
            mem_bandwidth_bps: 650e9,
            compute_flops: 20e12,
            memory_bytes: 24 * 1024 * 1024 * 1024,
        }
    }
}

/// A cluster: a list of node specifications and an interconnect.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Cluster name ("A", "B", "C", "GPU").
    pub name: String,
    /// Node specifications in rank order (rank 0 first).
    pub nodes: Vec<NodeSpec>,
    /// Interconnect link spec (uniform switch).
    pub interconnect: LinkSpec,
}

impl ClusterSpec {
    /// Cluster A: up to 8 dual-Xeon E5-2650 nodes on Gigabit Ethernet.
    pub fn cluster_a(n_nodes: usize) -> Self {
        assert!((1..=8).contains(&n_nodes), "cluster A has at most 8 nodes");
        Self {
            name: "A".into(),
            nodes: vec![NodeSpec::xeon_e5_2650_dual(); n_nodes],
            interconnect: LinkSpec::gigabit_ethernet(),
        }
    }

    /// Cluster B: 13 heterogeneous nodes on Gigabit Ethernet — 8 Xeon E5
    /// nodes plus 5 old Dell Optiplexes (three 2nd-gen i5, two 4th-gen i7).
    /// Requesting fewer nodes keeps the fastest nodes first, matching the
    /// paper's "adding additional nodes beyond the 8 Xeon E5 nodes"
    /// narrative.
    pub fn cluster_b(n_nodes: usize) -> Self {
        assert!(
            (1..=13).contains(&n_nodes),
            "cluster B has at most 13 nodes"
        );
        let mut nodes = vec![NodeSpec::xeon_e5_2650_dual(); 8];
        nodes.push(NodeSpec::optiplex_i7_gen4());
        nodes.push(NodeSpec::optiplex_i7_gen4());
        nodes.push(NodeSpec::optiplex_i5_gen2());
        nodes.push(NodeSpec::optiplex_i5_gen2());
        nodes.push(NodeSpec::optiplex_i5_gen2());
        nodes.truncate(n_nodes);
        Self {
            name: "B".into(),
            nodes,
            interconnect: LinkSpec::gigabit_ethernet(),
        }
    }

    /// Cluster C: up to 32 dual-Xeon Gold 6140 nodes on InfiniBand EDR.
    pub fn cluster_c(n_nodes: usize) -> Self {
        assert!(
            (1..=32).contains(&n_nodes),
            "cluster C has at most 32 nodes"
        );
        Self {
            name: "C".into(),
            nodes: vec![NodeSpec::xeon_gold_6140_dual(); n_nodes],
            interconnect: LinkSpec::infiniband_edr(),
        }
    }

    /// The 4-node GPU cluster of Table IV (one GPU per node, InfiniBand QDR).
    pub fn gpu_cluster() -> Self {
        Self {
            name: "GPU".into(),
            nodes: vec![
                NodeSpec::gpu_rtx_3090(),
                NodeSpec::gpu_mi60(),
                NodeSpec::gpu_titan_v(),
                NodeSpec::gpu_tesla_p40(),
            ],
            interconnect: LinkSpec::infiniband_qdr(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node spec of rank `r`.
    pub fn node(&self, r: usize) -> &NodeSpec {
        &self.nodes[r]
    }

    /// Builds the interconnect topology for the simulator.
    pub fn topology(&self) -> Topology {
        Topology::uniform(self.n_nodes(), self.interconnect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sizes_match_table2() {
        assert_eq!(ClusterSpec::cluster_a(8).n_nodes(), 8);
        assert_eq!(ClusterSpec::cluster_b(13).n_nodes(), 13);
        assert_eq!(ClusterSpec::cluster_c(32).n_nodes(), 32);
        assert_eq!(ClusterSpec::gpu_cluster().n_nodes(), 4);
    }

    #[test]
    #[should_panic]
    fn cluster_a_rejects_too_many_nodes() {
        let _ = ClusterSpec::cluster_a(9);
    }

    #[test]
    fn cluster_c_nodes_are_faster_than_cluster_a() {
        let a = ClusterSpec::cluster_a(4);
        let c = ClusterSpec::cluster_c(4);
        assert!(c.node(0).mem_bandwidth_bps > 1.5 * a.node(0).mem_bandwidth_bps);
        assert!(c.node(0).compute_flops > a.node(0).compute_flops);
    }

    #[test]
    fn cluster_b_is_heterogeneous_with_slow_tail() {
        let b = ClusterSpec::cluster_b(13);
        let first = b.node(0).mem_bandwidth_bps;
        let last = b.node(12).mem_bandwidth_bps;
        assert!(
            first > 2.0 * last,
            "Optiplexes must be much slower than Xeons"
        );
        // First 8 are homogeneous Xeons.
        assert!(b.nodes[..8].iter().all(|n| n.name.contains("E5-2650")));
    }

    #[test]
    fn cluster_b_truncation_keeps_xeons_first() {
        let b = ClusterSpec::cluster_b(8);
        assert!(b.nodes.iter().all(|n| n.name.contains("E5-2650")));
    }

    #[test]
    fn interconnects_match_table2() {
        assert_eq!(
            ClusterSpec::cluster_a(2).interconnect,
            LinkSpec::gigabit_ethernet()
        );
        assert_eq!(
            ClusterSpec::cluster_b(2).interconnect,
            LinkSpec::gigabit_ethernet()
        );
        assert_eq!(
            ClusterSpec::cluster_c(2).interconnect,
            LinkSpec::infiniband_edr()
        );
        assert_eq!(
            ClusterSpec::gpu_cluster().interconnect,
            LinkSpec::infiniband_qdr()
        );
    }

    #[test]
    fn gpu_nodes_have_high_bandwidth() {
        let g = ClusterSpec::gpu_cluster();
        assert!(g.nodes.iter().all(|n| n.mem_bandwidth_bps > 200e9));
    }

    #[test]
    fn topology_has_matching_rank_count() {
        let spec = ClusterSpec::cluster_c(15);
        assert_eq!(spec.topology().n_ranks(), 15);
    }
}
