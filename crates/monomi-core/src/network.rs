//! The client/server link the planner prices plans with.
//!
//! The paper's evaluation throttles the client/server link to 10 Mbit/s with
//! `tc`. The cost model (`CostModel`, and through it the `Planner` and the
//! `Designer`) predicts transfer time from byte counts as
//! `bytes / bandwidth`. This is a prediction only: the executor reports
//! measured time (`QueryTimings::wire_seconds` on a real socket), and no
//! harness adds this link to it; the `paper` bench target prints each run's
//! transferred bytes beside its measured time instead. Server I/O is never
//! modeled; run the server on the segment store (`MONOMI_STORAGE=disk`) to
//! measure real disk reads.

/// Bandwidth of the client/server link the planner prices plans with.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Client/server link bandwidth in bits per second (paper: 10 Mbit/s).
    pub bandwidth_bits_per_sec: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            bandwidth_bits_per_sec: 10_000_000.0,
        }
    }
}

impl NetworkModel {
    /// A model with the paper's 10 Mbit/s link.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Seconds to transfer `bytes` over the link.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / self.bandwidth_bits_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_bandwidth() {
        let net = NetworkModel::paper_default();
        // 10 Mbit/s => 1.25 MB/s => 1 MB takes 0.8 s.
        let t = net.transfer_seconds(1_000_000);
        assert!((t - 0.8).abs() < 1e-9);
    }
}
