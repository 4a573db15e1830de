//! Conjunctive content-based filters.
//!
//! A [`Filter`] is a conjunction of [`Constraint`]s over distinct attribute
//! names, exactly like the subscriptions in the paper:
//! `(service = "parking"), (location ∈ {…}), (cost < 3)`.
//!
//! Filters are the unit of subscription, of routing-table entries and of the
//! covering/merging optimizations used by the Rebeca routing strategies.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::constraint::Constraint;
use crate::notification::Notification;
use crate::value::Value;

/// A conjunction of per-attribute constraints.
///
/// The empty filter matches every notification (it is the *universal* filter
/// used to model flooding).
///
/// # Examples
///
/// ```
/// use rebeca_filter::{Filter, Constraint, Notification};
///
/// let parking_nearby = Filter::new()
///     .with("service", Constraint::Eq("parking".into()))
///     .with("cost", Constraint::Lt(3.into()));
///
/// let n = Notification::builder()
///     .attr("service", "parking")
///     .attr("cost", 2)
///     .build();
/// assert!(parking_nearby.matches(&n));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Filter {
    constraints: BTreeMap<String, Constraint>,
}

impl Filter {
    /// Creates the universal filter (matches everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// The universal filter, matching every notification.  Used to express
    /// flooding as a degenerate subscription.
    pub fn universal() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the constraint for one attribute, consuming `self`.
    pub fn with(mut self, attribute: impl Into<String>, constraint: Constraint) -> Self {
        self.constraints.insert(attribute.into(), constraint);
        self
    }

    /// Adds (or replaces) the constraint for one attribute in place.
    pub fn set(&mut self, attribute: impl Into<String>, constraint: Constraint) {
        self.constraints.insert(attribute.into(), constraint);
    }

    /// Removes the constraint on `attribute`, if any, and returns it.
    pub fn remove(&mut self, attribute: &str) -> Option<Constraint> {
        self.constraints.remove(attribute)
    }

    /// Returns the constraint on `attribute`, if any.
    pub fn constraint(&self, attribute: &str) -> Option<&Constraint> {
        self.constraints.get(attribute)
    }

    /// Iterates over `(attribute, constraint)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Constraint)> {
        self.constraints.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of constrained attributes.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` when this is the universal filter.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Evaluates the filter against a notification.
    ///
    /// Every constrained attribute must be present in the notification and
    /// satisfy its constraint (standard conjunctive semantics).
    pub fn matches(&self, notification: &Notification) -> bool {
        self.constraints.iter().all(|(name, constraint)| {
            notification
                .get(name)
                .map(|value| constraint.matches_value(value))
                .unwrap_or(false)
        })
    }

    /// Returns `true` when this filter provably accepts every notification
    /// the other filter accepts (the *covering* relation, written
    /// `self ⊇ other` in the paper).
    ///
    /// For conjunctive filters, `F1` covers `F2` iff every attribute
    /// constrained by `F1` is also constrained by `F2` with a constraint
    /// whose accepted value set is included in `F1`'s.  The per-attribute
    /// check is delegated to [`Constraint::covers`], which is sound but not
    /// complete; a `false` result therefore means "not provably covering".
    pub fn covers(&self, other: &Filter) -> bool {
        self.constraints.iter().all(|(name, c1)| {
            other
                .constraint(name)
                .map(|c2| c1.covers(c2))
                .unwrap_or(false)
        })
    }

    /// Returns `true` when the two filters may both match some notification.
    /// Conservative: `true` when an overlap cannot be ruled out.
    pub fn overlaps(&self, other: &Filter) -> bool {
        self.constraints.iter().all(|(name, c1)| {
            other
                .constraint(name)
                .map(|c2| c1.overlaps(c2))
                .unwrap_or(true)
        })
    }

    /// Attempts a *perfect merge* of two filters (Mühl-style merging used by
    /// Rebeca's merging routing strategy).
    ///
    /// Two filters can be perfectly merged when they constrain the same set
    /// of attributes and differ in **at most one** attribute whose
    /// constraints can be combined into a single constraint accepting
    /// exactly the union of the two accepted sets.  When one filter covers
    /// the other, the covering filter is returned.
    ///
    /// Returns `None` when no perfect merger exists.
    pub fn try_merge(&self, other: &Filter) -> Option<Filter> {
        if self.covers(other) {
            return Some(self.clone());
        }
        if other.covers(self) {
            return Some(other.clone());
        }
        // Same attribute sets required for a perfect merger of conjunctions.
        if self.constraints.len() != other.constraints.len()
            || !self
                .constraints
                .keys()
                .all(|k| other.constraints.contains_key(k))
        {
            return None;
        }
        let differing: Vec<&String> = self
            .constraints
            .iter()
            .filter(|(k, c)| other.constraints.get(*k) != Some(c))
            .map(|(k, _)| k)
            .collect();
        if differing.len() != 1 {
            return None;
        }
        let attr = differing[0];
        let merged_constraint =
            merge_constraints(&self.constraints[attr], &other.constraints[attr])?;
        let mut merged = self.clone();
        merged.set(attr.clone(), merged_constraint);
        Some(merged)
    }
}

/// Merges two constraints into one accepting exactly the union of their
/// accepted sets, when such a single constraint exists.
fn merge_constraints(a: &Constraint, b: &Constraint) -> Option<Constraint> {
    use Constraint::*;
    if a.covers(b) {
        return Some(a.clone());
    }
    if b.covers(a) {
        return Some(b.clone());
    }
    // Finite value sets merge into their union.
    if let (Some(s1), Some(s2)) = (a.as_value_set(), b.as_value_set()) {
        let union: std::collections::BTreeSet<Value> = s1.union(&s2).cloned().collect();
        return Some(In(union));
    }
    match (a, b) {
        // Adjacent or overlapping intervals merge into their hull when the
        // hull contains no gap.
        (Between(lo1, hi1), Between(lo2, hi2)) => {
            let (first_hi, second_lo) = if le(lo1, lo2) { (hi1, lo2) } else { (hi2, lo1) };
            if ge(first_hi, second_lo) || adjacent_ints(first_hi, second_lo) {
                let lo = if le(lo1, lo2) { lo1 } else { lo2 };
                let hi = if ge(hi1, hi2) { hi1 } else { hi2 };
                Some(Between(lo.clone(), hi.clone()))
            } else {
                None
            }
        }
        // Complementary half-lines (x < a ∪ x ≥ b with b ≤ a) would merge
        // into "any numeric value", but the data model is dynamically typed
        // and has no such constraint, so an exact merger does not exist and
        // we decline (keeping `try_merge` a *perfect* merge operator).
        _ => None,
    }
}

fn le(a: &Value, b: &Value) -> bool {
    matches!(
        a.partial_cmp_value(b),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    )
}
fn ge(a: &Value, b: &Value) -> bool {
    matches!(
        a.partial_cmp_value(b),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    )
}

/// `true` when `a` and `b` are integers and `b == a + 1` (so the intervals
/// `[.., a]` and `[b, ..]` are adjacent without a gap).
fn adjacent_ints(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => *b == a + 1,
        _ => false,
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "(true)");
        }
        for (i, (name, c)) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "({name} {c})")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, Constraint)> for Filter {
    fn from_iter<T: IntoIterator<Item = (String, Constraint)>>(iter: T) -> Self {
        Filter {
            constraints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parking_filter(max_cost: i64) -> Filter {
        Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("cost", Constraint::Lt(max_cost.into()))
    }

    fn parking_notification(cost: i64) -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("cost", cost)
            .attr("location", Value::Location(4))
            .build()
    }

    #[test]
    fn universal_filter_matches_everything() {
        let f = Filter::universal();
        assert!(f.matches(&Notification::new()));
        assert!(f.matches(&parking_notification(10)));
        assert!(f.is_empty());
    }

    #[test]
    fn conjunction_requires_all_constraints() {
        let f = parking_filter(3);
        assert!(f.matches(&parking_notification(2)));
        assert!(!f.matches(&parking_notification(5)));
        let missing = Notification::builder().attr("service", "parking").build();
        assert!(!f.matches(&missing));
    }

    #[test]
    fn paper_example_subscription() {
        // (service = "parking"), (location ∈ {4,5}), (cost < 3)
        let f = Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("location", Constraint::any_location_of([4, 5]))
            .with("cost", Constraint::Lt(3.into()));
        assert!(f.matches(&parking_notification(2)));
        let far_away = parking_notification(2).with_attr("location", Value::Location(9));
        assert!(!f.matches(&far_away));
    }

    #[test]
    fn covering_requires_weaker_constraints_on_fewer_attributes() {
        let wide = parking_filter(10);
        let narrow = parking_filter(3);
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));

        // A filter constraining fewer attributes covers one constraining more.
        let service_only = Filter::new().with("service", Constraint::Eq("parking".into()));
        assert!(service_only.covers(&narrow));
        assert!(!narrow.covers(&service_only));

        // Universal filter covers everything.
        assert!(Filter::universal().covers(&narrow));
        assert!(!narrow.covers(&Filter::universal()));
    }

    #[test]
    fn covering_is_reflexive() {
        let f = parking_filter(3);
        assert!(f.covers(&f));
        assert!(Filter::universal().covers(&Filter::universal()));
    }

    #[test]
    fn covering_implies_matching_inclusion() {
        let wide = parking_filter(10);
        let narrow = parking_filter(3);
        for cost in 0..10 {
            let n = parking_notification(cost);
            if narrow.matches(&n) {
                assert!(wide.matches(&n));
            }
        }
    }

    #[test]
    fn overlap_is_conservative_but_detects_disjoint_point_sets() {
        let f1 = Filter::new().with("service", Constraint::Eq("parking".into()));
        let f2 = Filter::new().with("service", Constraint::Eq("weather".into()));
        assert!(!f1.overlaps(&f2));
        let f3 = Filter::new().with("cost", Constraint::Lt(3.into()));
        assert!(f1.overlaps(&f3));
    }

    #[test]
    fn merge_returns_cover_when_one_covers_the_other() {
        let wide = parking_filter(10);
        let narrow = parking_filter(3);
        assert_eq!(wide.try_merge(&narrow), Some(wide.clone()));
        assert_eq!(narrow.try_merge(&wide), Some(wide));
    }

    #[test]
    fn merge_unions_location_sets() {
        let f1 = Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("location", Constraint::any_location_of([1, 2]));
        let f2 = Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("location", Constraint::any_location_of([3]));
        let merged = f1.try_merge(&f2).expect("perfect merger must exist");
        assert_eq!(
            merged.constraint("location"),
            Some(&Constraint::any_location_of([1, 2, 3]))
        );
        // The merger covers both inputs.
        assert!(merged.covers(&f1));
        assert!(merged.covers(&f2));
    }

    #[test]
    fn merge_fails_when_two_attributes_differ() {
        let f1 = Filter::new()
            .with("a", Constraint::Eq(1.into()))
            .with("b", Constraint::Eq(1.into()));
        let f2 = Filter::new()
            .with("a", Constraint::Eq(2.into()))
            .with("b", Constraint::Eq(2.into()));
        assert_eq!(f1.try_merge(&f2), None);
    }

    #[test]
    fn merge_fails_when_attribute_sets_differ_without_covering() {
        let f1 = Filter::new().with("a", Constraint::Eq(1.into()));
        let f2 = Filter::new()
            .with("a", Constraint::Eq(2.into()))
            .with("b", Constraint::Eq(2.into()));
        assert_eq!(f1.try_merge(&f2), None);
    }

    #[test]
    fn merge_adjacent_integer_intervals() {
        let f1 = Filter::new().with("x", Constraint::Between(0.into(), 5.into()));
        let f2 = Filter::new().with("x", Constraint::Between(6.into(), 10.into()));
        let merged = f1.try_merge(&f2).expect("adjacent intervals merge");
        assert_eq!(
            merged.constraint("x"),
            Some(&Constraint::Between(0.into(), 10.into()))
        );
    }

    #[test]
    fn merge_disjoint_intervals_with_gap_fails() {
        let f1 = Filter::new().with("x", Constraint::Between(0.into(), 5.into()));
        let f2 = Filter::new().with("x", Constraint::Between(8.into(), 10.into()));
        assert_eq!(f1.try_merge(&f2), None);
    }

    #[test]
    fn merge_complementary_half_lines_is_declined() {
        // x < 5 ∪ x ≥ 5 covers all numbers but not all values (the data model
        // is dynamically typed), so no *perfect* merger exists.
        let f1 = Filter::new().with("x", Constraint::Lt(5.into()));
        let f2 = Filter::new().with("x", Constraint::Ge(5.into()));
        assert_eq!(f1.try_merge(&f2), None);
    }

    #[test]
    fn set_and_remove_constraints() {
        let mut f = Filter::new();
        f.set("a", Constraint::Eq(1.into()));
        assert_eq!(f.len(), 1);
        assert_eq!(f.remove("a"), Some(Constraint::Eq(1.into())));
        assert!(f.is_empty());
        assert_eq!(f.remove("a"), None);
    }

    #[test]
    fn display_is_readable() {
        let f = parking_filter(3);
        assert_eq!(f.to_string(), "(cost < 3) ∧ (service = \"parking\")");
        assert_eq!(Filter::universal().to_string(), "(true)");
    }

    #[test]
    fn from_iterator_builds_filter() {
        let f: Filter = vec![("a".to_string(), Constraint::Exists)]
            .into_iter()
            .collect();
        assert_eq!(f.constraint("a"), Some(&Constraint::Exists));
    }
}
