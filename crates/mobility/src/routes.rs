//! Reverse-path pointers that expire.

use std::collections::{BTreeMap, VecDeque};

use rebeca_sim::NodeId;

/// The next hop a relocation or history replay travels back over, per key;
/// the latest record of a key wins, and each expires after a timeout.
#[derive(Debug, Clone)]
pub struct ReplayRoutes<K> {
    /// Key → `(next hop, broker time in microseconds it was recorded at)`.
    routes: BTreeMap<K, (NodeId, u64)>,
    /// Every record as `(recorded_at, key)`, oldest first.
    expiry: VecDeque<(u64, K)>,
}

impl<K> Default for ReplayRoutes<K> {
    fn default() -> Self {
        Self {
            routes: BTreeMap::new(),
            expiry: VecDeque::new(),
        }
    }
}

impl<K: Ord + Clone> ReplayRoutes<K> {
    /// Records `next_hop` for `key` at broker time `now_micros`.
    pub fn record(&mut self, key: K, next_hop: NodeId, now_micros: u64) {
        self.expiry.push_back((now_micros, key.clone()));
        self.routes.insert(key, (next_hop, now_micros));
    }

    /// The recorded next hop for `key`, if any.
    pub fn next_hop(&self, key: &K) -> Option<NodeId> {
        self.routes.get(key).map(|&(next_hop, _)| next_hop)
    }

    /// Removes the route for `key`, returning its next hop.
    pub fn take(&mut self, key: &K) -> Option<NodeId> {
        self.routes.remove(key).map(|(next_hop, _)| next_hop)
    }

    /// Number of live routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when no route is live.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Drops every route recorded more than `timeout_micros` before
    /// `now_micros` (exactly `timeout_micros` old is kept).
    pub fn expire(&mut self, now_micros: u64, timeout_micros: u64) {
        while let Some(&(recorded_at, _)) = self.expiry.front() {
            if now_micros.saturating_sub(recorded_at) <= timeout_micros {
                break;
            }
            let (_, key) = self.expiry.pop_front().expect("front exists");
            // A later record of the same key is further back in the queue.
            if self
                .routes
                .get(&key)
                .is_some_and(|&(_, at)| at == recorded_at)
            {
                self.routes.remove(&key);
            }
        }
    }
}
