//! Typed proof-stage DAGs and their validity rules.
//!
//! A [`ProofDag`] is the schedulable shape of one proof: nodes are
//! stages tagged with a [`StageKind`] (the resource they occupy), edges
//! are data dependencies. Validation enforces the two invariants every
//! downstream scheduler relies on:
//!
//! * **acyclicity** — a topological order exists, so "run ready stages"
//!   always terminates;
//! * **totally ordered barriers** — transcript barriers are the points
//!   where Fiat–Shamir challenges are drawn, so any two barriers must be
//!   reachability-ordered. With that, *every* valid execution order
//!   drives the transcript through the identical state sequence, which
//!   is what makes DAG-scheduled proofs bit-identical to monolithic
//!   ones.

use std::fmt;

use unintt_gpu_sim::ResourceClass;

/// The resource a stage occupies while it runs (used for scheduling and
/// for per-kind time attribution in traces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// An NTT batch (interpolation, coset evaluation, LDE).
    Ntt,
    /// A multi-scalar multiplication (commitment).
    Msm,
    /// A hashing kernel (Merkle commit).
    Hash,
    /// An element-wise kernel (evaluations, combinations).
    Pointwise,
    /// One FRI fold layer (hash + fold kernels).
    Fold,
    /// A transcript barrier / assembly point: host-only, charge-free,
    /// never occupies a device lease.
    Barrier,
}

impl StageKind {
    /// Parses the tag strings used by `unintt_zkp::StageDesc` and
    /// `unintt_fri::staged::StageDesc`.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "ntt" => Some(StageKind::Ntt),
            "msm" => Some(StageKind::Msm),
            "hash" => Some(StageKind::Hash),
            "pointwise" => Some(StageKind::Pointwise),
            "fold" => Some(StageKind::Fold),
            "barrier" => Some(StageKind::Barrier),
            _ => None,
        }
    }

    /// Stable lowercase name (the inverse of [`StageKind::from_tag`]).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Ntt => "ntt",
            StageKind::Msm => "msm",
            StageKind::Hash => "hash",
            StageKind::Pointwise => "pointwise",
            StageKind::Fold => "fold",
            StageKind::Barrier => "barrier",
        }
    }

    /// Barriers run inline at their dependencies' completion time and
    /// never occupy a lease.
    pub fn is_barrier(self) -> bool {
        self == StageKind::Barrier
    }

    /// The interference [`ResourceClass`] this stage occupies when
    /// co-resident with another stage on a multi-queue device (see
    /// [`unintt_gpu_sim::StreamSet`]): MSMs are compute-bound, NTTs are
    /// memory/shuffle-bound, and the remaining charged kinds sit in
    /// between. Barriers are charge-free and never occupy a queue; they
    /// map to [`ResourceClass::Mixed`] only so the function is total.
    pub fn resource_class(self) -> ResourceClass {
        match self {
            StageKind::Msm => ResourceClass::Compute,
            StageKind::Ntt => ResourceClass::Memory,
            StageKind::Hash | StageKind::Pointwise | StageKind::Fold | StageKind::Barrier => {
                ResourceClass::Mixed
            }
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage of a proof DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageNode {
    /// Display name, stable across runs (used in traces and tables).
    pub name: String,
    /// The resource kind.
    pub kind: StageKind,
    /// Indices of stages that must complete before this one starts.
    pub deps: Vec<usize>,
}

/// Why a stage graph was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// A dependency index points outside the node list.
    DepOutOfRange {
        /// The offending node.
        node: usize,
        /// The out-of-range dependency index.
        dep: usize,
    },
    /// A node depends on itself.
    SelfDependency {
        /// The offending node.
        node: usize,
    },
    /// The graph has a dependency cycle (no topological order exists).
    Cycle {
        /// A node on the cycle.
        node: usize,
    },
    /// Two transcript barriers are not reachability-ordered, so
    /// different execution orders could drive the transcript through
    /// different states.
    UnorderedBarriers {
        /// First barrier.
        a: usize,
        /// Second barrier.
        b: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DepOutOfRange { node, dep } => {
                write!(f, "stage {node} depends on out-of-range stage {dep}")
            }
            DagError::SelfDependency { node } => {
                write!(f, "stage {node} depends on itself")
            }
            DagError::Cycle { node } => {
                write!(f, "dependency cycle through stage {node}")
            }
            DagError::UnorderedBarriers { a, b } => write!(
                f,
                "transcript barriers {a} and {b} are not reachability-ordered"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated proof-stage DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofDag {
    nodes: Vec<StageNode>,
}

impl ProofDag {
    /// Validates and wraps a node list.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] if any dependency is out of range or
    /// self-referential, the graph is cyclic, or two barrier nodes are
    /// not reachability-ordered.
    pub fn new(nodes: Vec<StageNode>) -> Result<Self, DagError> {
        // Edge sanity.
        for (i, node) in nodes.iter().enumerate() {
            for &d in &node.deps {
                if d >= nodes.len() {
                    return Err(DagError::DepOutOfRange { node: i, dep: d });
                }
                if d == i {
                    return Err(DagError::SelfDependency { node: i });
                }
            }
        }

        // Kahn's algorithm: acyclicity. An edge d → i exists for each
        // dep d of node i.
        let mut indegree = vec![0usize; nodes.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            indegree[i] = node.deps.len();
            for &d in &node.deps {
                dependents[d].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            seen += 1;
            for &v in &dependents[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != nodes.len() {
            let node = (0..nodes.len())
                .find(|&i| indegree[i] > 0)
                .expect("some node is on a cycle");
            return Err(DagError::Cycle { node });
        }

        // Barriers must be totally ordered by reachability.
        let barriers: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind.is_barrier())
            .map(|(i, _)| i)
            .collect();
        let reach = |from: usize, to: usize| -> bool {
            // DFS along dependency edges from `to` back toward `from`.
            let mut stack = vec![to];
            let mut visited = vec![false; nodes.len()];
            while let Some(u) = stack.pop() {
                if u == from {
                    return true;
                }
                if std::mem::replace(&mut visited[u], true) {
                    continue;
                }
                stack.extend(nodes[u].deps.iter().copied());
            }
            false
        };
        for (ai, &a) in barriers.iter().enumerate() {
            for &b in &barriers[ai + 1..] {
                if !reach(a, b) && !reach(b, a) {
                    return Err(DagError::UnorderedBarriers { a, b });
                }
            }
        }

        Ok(Self { nodes })
    }

    /// The stage nodes.
    pub fn nodes(&self) -> &[StageNode] {
        &self.nodes
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A deterministic topological order (lowest ready index first).
    pub fn topo_order(&self) -> Vec<usize> {
        let mut done = vec![false; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        while order.len() < self.nodes.len() {
            let next = (0..self.nodes.len())
                .find(|&i| !done[i] && self.nodes[i].deps.iter().all(|&d| done[d]))
                .expect("validated DAGs always have a ready stage");
            done[next] = true;
            order.push(next);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, kind: StageKind, deps: &[usize]) -> StageNode {
        StageNode {
            name: name.to_string(),
            kind,
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn chain_validates_and_orders() {
        let dag = ProofDag::new(vec![
            node("a", StageKind::Ntt, &[]),
            node("b", StageKind::Barrier, &[0]),
            node("c", StageKind::Msm, &[1]),
        ])
        .unwrap();
        assert_eq!(dag.topo_order(), vec![0, 1, 2]);
    }

    #[test]
    fn cycle_rejected() {
        let err = ProofDag::new(vec![
            node("a", StageKind::Ntt, &[1]),
            node("b", StageKind::Ntt, &[0]),
        ])
        .unwrap_err();
        assert!(matches!(err, DagError::Cycle { .. }));
    }

    #[test]
    fn self_dependency_rejected() {
        let err = ProofDag::new(vec![node("a", StageKind::Ntt, &[0])]).unwrap_err();
        assert_eq!(err, DagError::SelfDependency { node: 0 });
    }

    #[test]
    fn out_of_range_dep_rejected() {
        let err = ProofDag::new(vec![node("a", StageKind::Ntt, &[7])]).unwrap_err();
        assert_eq!(err, DagError::DepOutOfRange { node: 0, dep: 7 });
    }

    #[test]
    fn unordered_barriers_rejected() {
        // Two barriers hanging off the same root with no path between
        // them: a scheduler could draw challenges in either order.
        let err = ProofDag::new(vec![
            node("root", StageKind::Ntt, &[]),
            node("b1", StageKind::Barrier, &[0]),
            node("b2", StageKind::Barrier, &[0]),
        ])
        .unwrap_err();
        assert_eq!(err, DagError::UnorderedBarriers { a: 1, b: 2 });
    }

    #[test]
    fn ordered_barriers_accepted() {
        ProofDag::new(vec![
            node("root", StageKind::Ntt, &[]),
            node("b1", StageKind::Barrier, &[0]),
            node("mid", StageKind::Msm, &[1]),
            node("b2", StageKind::Barrier, &[2]),
        ])
        .unwrap();
    }

    #[test]
    fn kind_tags_roundtrip() {
        for kind in [
            StageKind::Ntt,
            StageKind::Msm,
            StageKind::Hash,
            StageKind::Pointwise,
            StageKind::Fold,
            StageKind::Barrier,
        ] {
            assert_eq!(StageKind::from_tag(kind.name()), Some(kind));
        }
        assert_eq!(StageKind::from_tag("warp"), None);
    }
}
