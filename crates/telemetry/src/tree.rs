//! Hierarchical view over a flat list of recorded spans.
//!
//! Spans carry an optional explicit parent id; spans recorded without one
//! (e.g. per-kernel device spans exported from a machine timeline) are
//! attached by *interval containment*: the candidate parent must sit at a
//! strictly higher [`SpanLevel`] and fully contain the child's interval,
//! and among candidates the smallest (tightest) interval wins.

use crate::span::Span;
use crate::time::SimTime;

/// Containment on the integer clock: a child that ends at its parent's
/// end instant is inside it, one picosecond later is not.
fn contains(parent: &Span, child: &Span) -> bool {
    parent.t_start <= child.t_start && child.t_end <= parent.t_end
}

/// A parent/child index over a span slice.
pub struct SpanTree<'a> {
    spans: &'a [Span],
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl<'a> SpanTree<'a> {
    /// Builds the tree: explicit parent ids are honoured; parentless
    /// spans get the tightest containing span of a strictly higher level
    /// (ties broken by lowest id); everything else becomes a root.
    pub fn build(spans: &'a [Span]) -> Self {
        let n = spans.len();
        let mut parent: Vec<Option<usize>> = vec![None; n];

        for (i, s) in spans.iter().enumerate() {
            if let Some(pid) = s.parent {
                parent[i] = spans.iter().position(|p| p.id == pid);
            } else {
                let mut best: Option<usize> = None;
                for (j, p) in spans.iter().enumerate() {
                    if j == i || p.level <= s.level || !contains(p, s) {
                        continue;
                    }
                    best = match best {
                        None => Some(j),
                        Some(b) => {
                            let (bd, pd) = (spans[b].duration(), p.duration());
                            if pd < bd || (pd == bd && p.id < spans[b].id) {
                                Some(j)
                            } else {
                                Some(b)
                            }
                        }
                    };
                }
                parent[i] = best;
            }
        }

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, p) in parent.iter().enumerate() {
            match p {
                Some(j) => children[*j].push(i),
                None => roots.push(i),
            }
        }
        SpanTree {
            spans,
            parent,
            children,
            roots,
        }
    }

    /// Indices of spans with no parent.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Child indices of span `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Parent index of span `i`, if any.
    pub fn parent_of(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Root-to-`i` chain of span names (used for folded-stack export).
    pub fn path(&self, i: usize) -> Vec<&str> {
        let mut rev = vec![self.spans[i].name.as_str()];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            rev.push(self.spans[p].name.as_str());
            cur = p;
        }
        rev.reverse();
        rev
    }

    /// Span duration minus the summed duration of its direct children —
    /// the "self time" a flamegraph attributes to the frame itself.
    pub fn self_time(&self, i: usize) -> SimTime {
        let kids: SimTime = self.children[i]
            .iter()
            .map(|&c| self.spans[c].duration())
            .sum();
        self.spans[i].duration().saturating_sub(kids)
    }

    /// Checks the structural invariants the exporters rely on:
    ///
    /// 1. every span has `t_start <= t_end`;
    /// 2. every child's interval is contained in its parent's;
    /// 3. spans sharing a parent (or both roots) *and* a track do not
    ///    overlap — they render on one Perfetto line.
    ///
    /// Returns the first violation as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        for s in self.spans {
            if s.t_end < s.t_start {
                return Err(format!(
                    "span {} '{}' ends before it starts ({} > {} ps)",
                    s.id, s.name, s.t_start.0, s.t_end.0
                ));
            }
        }
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(j) = p {
                let (child, parent) = (&self.spans[i], &self.spans[*j]);
                if !contains(parent, child) {
                    return Err(format!(
                        "span {} '{}' [{}, {}] ps escapes parent {} '{}' [{}, {}] ps",
                        child.id,
                        child.name,
                        child.t_start.0,
                        child.t_end.0,
                        parent.id,
                        parent.name,
                        parent.t_start.0,
                        parent.t_end.0
                    ));
                }
            }
        }
        // Sibling groups: same parent slot (None == virtual root).
        let n = self.spans.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&a| self.spans[a].t_start);
        for (oi, &a) in order.iter().enumerate() {
            for &b in order.iter().skip(oi + 1) {
                if self.parent[a] != self.parent[b] || self.spans[a].track != self.spans[b].track {
                    continue;
                }
                let (first, second) = (&self.spans[a], &self.spans[b]);
                if second.t_start < first.t_end {
                    return Err(format!(
                        "siblings overlap on track '{}': {} '{}' [{}, {}] ps vs {} '{}' [{}, {}] ps",
                        first.track,
                        first.id,
                        first.name,
                        first.t_start.0,
                        first.t_end.0,
                        second.id,
                        second.name,
                        second.t_start.0,
                        second.t_end.0
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sum of root-span durations — the tree's total covered time.
    pub fn total_root(&self) -> SimTime {
        self.roots.iter().map(|&r| self.spans[r].duration()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLevel;

    fn span(id: u64, parent: Option<u64>, level: SpanLevel, track: &str, t0: u64, t1: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            level,
            category: "test",
            track: track.to_string(),
            t_start: SimTime(t0),
            t_end: SimTime(t1),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn derives_tightest_containing_parent() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 100),
            span(2, Some(1), SpanLevel::Fabric, "m", 0, 60),
            span(3, None, SpanLevel::Device, "m/gpu0", 10, 20),
        ];
        let tree = SpanTree::build(&spans);
        // The device span nests under the tighter phase span, not the root.
        assert_eq!(tree.parent_of(2), Some(1));
        assert_eq!(tree.roots(), &[0]);
        tree.validate().expect("valid tree");
    }

    #[test]
    fn rejects_child_escaping_parent() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 50),
            span(2, Some(1), SpanLevel::Device, "m/gpu0", 40, 80),
        ];
        let tree = SpanTree::build(&spans);
        assert!(tree.validate().is_err());
    }

    #[test]
    fn rejects_overlapping_siblings_on_one_track() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 100),
            span(2, Some(1), SpanLevel::Fabric, "m", 0, 60),
            span(3, Some(1), SpanLevel::Fabric, "m", 50, 90),
        ];
        let tree = SpanTree::build(&spans);
        assert!(tree.validate().is_err());
    }

    #[test]
    fn siblings_on_distinct_tracks_may_overlap() {
        let spans = vec![
            span(1, None, SpanLevel::Device, "m/gpu0", 0, 60),
            span(2, None, SpanLevel::Device, "m/gpu1", 0, 60),
        ];
        let tree = SpanTree::build(&spans);
        tree.validate().expect("parallel devices are fine");
        assert_eq!(tree.total_root(), SimTime(120));
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 100),
            span(2, Some(1), SpanLevel::Fabric, "m", 0, 30),
            span(3, Some(1), SpanLevel::Fabric, "m", 40, 80),
        ];
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.self_time(0), SimTime(30));
        assert_eq!(tree.path(2), vec!["s1", "s3"]);
    }

    #[test]
    fn child_ending_at_its_parents_end_is_attached() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 100),
            span(2, None, SpanLevel::Device, "m/gpu0", 40, 100),
        ];
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.parent_of(1), Some(0));
        tree.validate().expect("valid tree");
    }

    #[test]
    fn child_ending_one_picosecond_late_is_a_root() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 0, 100),
            span(2, None, SpanLevel::Device, "m/gpu0", 40, 101),
        ];
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.parent_of(1), None);
        assert_eq!(tree.roots(), &[0, 1]);
    }

    #[test]
    fn zero_length_span_on_a_parents_boundary_is_attached() {
        let spans = vec![
            span(1, None, SpanLevel::Fabric, "m", 10, 100),
            span(2, None, SpanLevel::Device, "m/gpu0", 100, 100),
            span(3, None, SpanLevel::Device, "m/gpu0", 10, 10),
        ];
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.parent_of(1), Some(0));
        assert_eq!(tree.parent_of(2), Some(0));
        tree.validate().expect("valid tree");
    }
}
