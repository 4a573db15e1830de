//! Checks shared by the simulator integration tests.
//!
//! Each integration-test binary uses its own subset of these helpers.
#![allow(dead_code)]

use rebeca_core::MobilitySystem;
use rebeca_filter::Filter;
use rebeca_sim::NodeId;

/// Checks that every broker's entries from each neighbouring broker are,
/// as a multiset, exactly what that neighbour's engine holds as sent to it
/// (its `held()` table): no `Subscribe`, `Unsubscribe`, `Relocate`,
/// `Fetch` or `Resync` left an entry the sender does not know about.
pub fn check_held(sys: &MobilitySystem) -> Result<(), String> {
    let nodes: Vec<NodeId> = (0..sys.broker_count())
        .map(|b| sys.broker_node(b).unwrap())
        .collect();
    for (b, &node) in nodes.iter().enumerate() {
        let core = sys.broker(b).unwrap().core();
        for link in core.broker_links() {
            let m = nodes.iter().position(|n| n == link).unwrap();
            let mut entries = core.engine().table().filters_for(link);
            let neighbour = sys.broker(m).unwrap().core();
            let mut held = neighbour.engine().held().filters_for(&node);
            entries.sort_unstable();
            held.sort_unstable();
            if entries != held {
                return Err(format!(
                    "broker {b} holds {} from broker {m}, which holds {} as sent",
                    list(&entries),
                    list(&held)
                ));
            }
        }
    }
    Ok(())
}

fn list(filters: &[&Filter]) -> String {
    let shown: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
    format!("[{}]", shown.join(", "))
}
