//! Topologies: where latency comes from.

/// Node address in the simulator (dense index).
pub type NodeId = usize;

/// A latency/bandwidth model over `n` nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    kind: Kind,
    /// Bytes per microsecond per link; `None` = infinite bandwidth
    /// (latency-only model).
    bandwidth: Option<f64>,
}

#[derive(Debug, Clone)]
enum Kind {
    /// Same latency between every pair.
    Uniform { latency_us: u64 },
    /// Nodes grouped into clusters (LANs); cheap links within a
    /// cluster, expensive links between clusters. Cluster assignment is
    /// round-robin (`node % clusters`), which keeps it deterministic
    /// and independent of any RNG.
    Clustered {
        clusters: usize,
        intra_us: u64,
        inter_us: u64,
    },
}

impl Topology {
    /// Uniform latency between all pairs (self-sends cost 0).
    pub fn uniform(n: usize, latency_us: u64) -> Self {
        Topology {
            n,
            kind: Kind::Uniform { latency_us },
            bandwidth: None,
        }
    }

    /// Clustered topology: `clusters` LANs with `intra_us` latency
    /// inside and `inter_us` between them — the "geographic locality"
    /// the garage-sale scenario assumes (§2).
    pub fn clustered(n: usize, clusters: usize, intra_us: u64, inter_us: u64) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        Topology {
            n,
            kind: Kind::Clustered {
                clusters,
                intra_us,
                inter_us,
            },
            bandwidth: None,
        }
    }

    /// Adds a bandwidth model: transfer time = bytes / `bytes_per_us`,
    /// added to propagation latency.
    pub fn with_bandwidth(mut self, bytes_per_us: f64) -> Self {
        assert!(bytes_per_us > 0.0, "bandwidth must be positive");
        self.bandwidth = Some(bytes_per_us);
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The cluster a node belongs to (0 for uniform topologies).
    fn cluster_of(&self, node: NodeId) -> usize {
        match self.kind {
            Kind::Uniform { .. } => 0,
            Kind::Clustered { clusters, .. } => node % clusters,
        }
    }

    /// Propagation latency between two nodes in microseconds.
    fn latency(&self, from: NodeId, to: NodeId) -> u64 {
        assert!(from < self.n && to < self.n, "node out of range");
        if from == to {
            return 0;
        }
        match self.kind {
            Kind::Uniform { latency_us } => latency_us,
            Kind::Clustered {
                intra_us, inter_us, ..
            } => {
                if self.cluster_of(from) == self.cluster_of(to) {
                    intra_us
                } else {
                    inter_us
                }
            }
        }
    }

    /// Total delivery time for a message of `bytes` bytes.
    pub(crate) fn transit_time(&self, from: NodeId, to: NodeId, bytes: usize) -> u64 {
        let prop = self.latency(from, to);
        match self.bandwidth {
            Some(bw) if from != to => prop + (bytes as f64 / bw).ceil() as u64,
            _ => prop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency() {
        let t = Topology::uniform(4, 50_000);
        assert_eq!(t.latency(0, 1), 50_000);
        assert_eq!(t.latency(3, 2), 50_000);
        assert_eq!(t.latency(2, 2), 0);
    }

    #[test]
    fn clustered_latency() {
        let t = Topology::clustered(6, 2, 1_000, 80_000);
        // Round-robin assignment: 0,2,4 in cluster 0; 1,3,5 in cluster 1.
        assert_eq!(t.latency(0, 2), 1_000);
        assert_eq!(t.latency(1, 5), 1_000);
        assert_eq!(t.latency(0, 1), 80_000);
        assert_eq!(t.cluster_of(4), 0);
        assert_eq!(t.cluster_of(5), 1);
    }

    #[test]
    fn bandwidth_adds_transfer_time() {
        let t = Topology::uniform(2, 1_000).with_bandwidth(10.0); // 10 B/µs
        assert_eq!(t.transit_time(0, 1, 0), 1_000);
        assert_eq!(t.transit_time(0, 1, 100), 1_000 + 10);
        assert_eq!(t.transit_time(0, 1, 105), 1_000 + 11); // ceil
        assert_eq!(t.transit_time(1, 1, 1_000_000), 0); // self-send free
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        Topology::uniform(2, 1).latency(0, 5);
    }
}
