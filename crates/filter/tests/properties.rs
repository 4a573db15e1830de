//! Property-based tests for the filter model: covering is consistent with
//! matching, merging produces covers, and the covering relation behaves like
//! a preorder.

use proptest::prelude::*;
use rebeca_filter::{Constraint, Filter, Notification, Value};

/// Strategy for small integer values (shared domain so that constraints and
/// notifications actually interact).
fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (0u32..10).prop_map(Value::Location),
        prop_oneof![
            Just("parking"),
            Just("weather"),
            Just("traffic"),
            Just("stock")
        ]
        .prop_map(|s| Value::Str(s.to_string())),
    ]
}

fn int_value() -> impl Strategy<Value = Value> {
    (-20i64..20).prop_map(Value::Int)
}

fn constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        small_value().prop_map(Constraint::Eq),
        int_value().prop_map(Constraint::Lt),
        int_value().prop_map(Constraint::Le),
        int_value().prop_map(Constraint::Gt),
        int_value().prop_map(Constraint::Ge),
        (-20i64..20, 0i64..20)
            .prop_map(|(lo, len)| Constraint::Between(Value::Int(lo), Value::Int(lo + len))),
        prop::collection::btree_set(small_value(), 1..5).prop_map(Constraint::In),
        Just(Constraint::Exists),
    ]
}

/// A filter over a small fixed attribute alphabet so that random filters and
/// notifications overlap frequently.
fn filter() -> impl Strategy<Value = Filter> {
    prop::collection::btree_map(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("location")],
        constraint(),
        0..4,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Filter>()
    })
}

fn notification() -> impl Strategy<Value = Notification> {
    prop::collection::btree_map(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("location")],
        small_value(),
        0..5,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Notification>()
    })
}

proptest! {
    /// Soundness of covering: if F1 covers F2, every notification matched by
    /// F2 is matched by F1.  This is the property the routing correctness of
    /// covering/merging routing depends on.
    #[test]
    fn covering_implies_match_inclusion(f1 in filter(), f2 in filter(), n in notification()) {
        if f1.covers(&f2) && f2.matches(&n) {
            prop_assert!(f1.matches(&n), "{f1} covers {f2} but does not match {n}");
        }
    }

    /// Covering is reflexive.
    #[test]
    fn covering_is_reflexive(f in filter()) {
        prop_assert!(f.covers(&f));
    }

    /// Covering is transitive.
    #[test]
    fn covering_is_transitive(f1 in filter(), f2 in filter(), f3 in filter()) {
        if f1.covers(&f2) && f2.covers(&f3) {
            prop_assert!(f1.covers(&f3));
        }
    }

    /// The universal filter covers and matches everything.
    #[test]
    fn universal_filter_is_top(f in filter(), n in notification()) {
        prop_assert!(Filter::universal().covers(&f));
        prop_assert!(Filter::universal().matches(&n));
    }

    /// A perfect merger covers both of its inputs, and never matches a
    /// notification that neither input matches *unless* it had to widen —
    /// for the constraint kinds we merge (covers, finite sets, adjacent
    /// integer intervals, complementary half-lines) the merger is exact, so
    /// it matches exactly the union.
    #[test]
    fn merging_produces_exact_covers(f1 in filter(), f2 in filter(), n in notification()) {
        if let Some(m) = f1.try_merge(&f2) {
            prop_assert!(m.covers(&f1), "merger {m} must cover {f1}");
            prop_assert!(m.covers(&f2), "merger {m} must cover {f2}");
            if m.matches(&n) {
                // Exactness: the merger accepts only notifications accepted
                // by at least one of the inputs.
                prop_assert!(f1.matches(&n) || f2.matches(&n),
                    "merger {m} of {f1} and {f2} wrongly matches {n}");
            }
        }
    }

    /// If two filters do not overlap, no notification matches both.
    #[test]
    fn non_overlap_means_disjoint(f1 in filter(), f2 in filter(), n in notification()) {
        if !f1.overlaps(&f2) {
            prop_assert!(!(f1.matches(&n) && f2.matches(&n)),
                "{f1} and {f2} reported disjoint but both match {n}");
        }
    }

    /// Constraint-level covering soundness over the integer domain.
    #[test]
    fn constraint_covering_sound(c1 in constraint(), c2 in constraint(), v in small_value()) {
        if c1.covers(&c2) && c2.matches_value(&v) {
            prop_assert!(c1.matches_value(&v), "{c1} covers {c2} but rejects {v}");
        }
    }

    /// Constraint-level overlap soundness: disjointness is real.
    #[test]
    fn constraint_overlap_sound(c1 in constraint(), c2 in constraint(), v in small_value()) {
        if !c1.overlaps(&c2) {
            prop_assert!(!(c1.matches_value(&v) && c2.matches_value(&v)));
        }
    }
}
