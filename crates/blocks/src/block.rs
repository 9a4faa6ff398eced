//! Composable reliability block diagrams.

use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

use crate::kofn::k_of_n_heterogeneous;

/// A node in a reliability block diagram.
///
/// A block is *up* according to its structure:
///
/// * [`Block::Unit`] — a leaf component, up with its own availability;
/// * [`Block::Series`] — up iff *every* child is up;
/// * [`Block::Parallel`] — up iff *at least one* child is up;
/// * [`Block::KOfN`] — up iff at least `k` children are up.
///
/// Evaluation assumes children fail independently, the same assumption the
/// paper's algebra makes. Shared-infrastructure correlation (a rack hosting
/// several nodes) is handled one level up by conditional decomposition (see
/// `sdnav-core`), not inside the diagram.
///
/// ```
/// use sdnav_blocks::Block;
///
/// // The paper's Database quorum: 2-of-3 nodes, in series with a rack.
/// let db = Block::k_of_n(2, Block::unit("db", 0.9995).replicate(3));
/// let system = Block::series(vec![db, Block::unit("rack", 0.99999)]);
/// assert!(system.availability() > 0.99998);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A leaf component with a fixed availability.
    Unit {
        /// Human-readable component name (what [`Block::is_up`] and
        /// [`Block::availability_pinned`] look units up by).
        name: String,
        /// Steady-state availability in `[0, 1]`.
        availability: f64,
    },
    /// All children required.
    Series {
        /// The child blocks, all of which must be up.
        children: Vec<Block>,
    },
    /// At least one child required.
    Parallel {
        /// The child blocks, at least one of which must be up.
        children: Vec<Block>,
    },
    /// At least `k` children required.
    KOfN {
        /// Minimum number of children that must be up.
        k: u32,
        /// The child blocks.
        children: Vec<Block>,
    },
}

impl Block {
    /// Creates a leaf component.
    ///
    /// # Panics
    ///
    /// Panics if `availability` is outside `[0, 1]`.
    #[must_use]
    pub fn unit(name: impl Into<String>, availability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&availability),
            "availability must lie in [0, 1], got {availability}"
        );
        Block::Unit {
            name: name.into(),
            availability,
        }
    }

    /// Creates a series group (all children required).
    #[must_use]
    pub fn series(children: Vec<Block>) -> Self {
        Block::Series { children }
    }

    /// Creates a parallel group (any one child suffices).
    #[must_use]
    pub fn parallel(children: Vec<Block>) -> Self {
        Block::Parallel { children }
    }

    /// Creates a `k`-of-`n` group over `children` (`n = children.len()`).
    #[must_use]
    pub fn k_of_n(k: u32, children: Vec<Block>) -> Self {
        Block::KOfN { k, children }
    }

    /// Clones this block `n` times, appending `-1`, `-2`, … to unit names so
    /// replicas stay distinguishable.
    ///
    /// ```
    /// use sdnav_blocks::Block;
    /// let nodes = Block::unit("node", 0.99).replicate(3);
    /// assert_eq!(nodes.len(), 3);
    /// assert_eq!(nodes[0].unit_names(), vec!["node-1"]);
    /// ```
    #[must_use]
    pub fn replicate(&self, n: usize) -> Vec<Block> {
        (1..=n)
            .map(|i| {
                let mut copy = self.clone();
                copy.suffix_names(&format!("-{i}"));
                copy
            })
            .collect()
    }

    fn suffix_names(&mut self, suffix: &str) {
        match self {
            Block::Unit { name, .. } => name.push_str(suffix),
            Block::Series { children }
            | Block::Parallel { children }
            | Block::KOfN { children, .. } => {
                for child in children {
                    child.suffix_names(suffix);
                }
            }
        }
    }

    /// Exact availability of this block under component independence.
    ///
    /// Empty groups follow the k-of-n convention: an empty series (or
    /// `0`-of-`0`) is up; an empty parallel is down.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.availability_pinned(&mut |_| None)
    }

    /// Names of every leaf unit, in depth-first order.
    #[must_use]
    pub fn unit_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_unit_names(&mut names);
        names
    }

    fn collect_unit_names(&self, out: &mut Vec<String>) {
        match self {
            Block::Unit { name, .. } => out.push(name.clone()),
            Block::Series { children }
            | Block::Parallel { children }
            | Block::KOfN { children, .. } => {
                for child in children {
                    child.collect_unit_names(out);
                }
            }
        }
    }

    /// Number of leaf units in the diagram.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        match self {
            Block::Unit { .. } => 1,
            Block::Series { children }
            | Block::Parallel { children }
            | Block::KOfN { children, .. } => children.iter().map(Block::unit_count).sum(),
        }
    }

    /// Evaluates the boolean structure function: is the block up given the
    /// per-unit up/down states returned by `state`?
    ///
    /// `state` is called with each unit's name; `true` means up. Units the
    /// caller does not recognize should default to `true` (healthy).
    pub fn is_up<F: FnMut(&str) -> bool>(&self, state: &mut F) -> bool {
        match self {
            Block::Unit { name, .. } => state(name),
            Block::Series { children } => children.iter().all(|c| c.is_up(state)),
            Block::Parallel { children } => {
                !children.is_empty() && children.iter().any(|c| c.is_up(state))
            }
            Block::KOfN { k, children } => {
                let up = children.iter().filter(|c| c.is_up(state)).count();
                up >= *k as usize
            }
        }
    }

    /// Availability with some units pinned up or down.
    ///
    /// `pin` maps a unit name to `Some(true)` (force up), `Some(false)`
    /// (force down), or `None` (use the unit's own availability). Pinning
    /// nothing is [`Block::availability`]; pinning one unit each way is the
    /// structural Birnbaum measure `sdnav-audit` checks units with.
    pub fn availability_pinned<F: FnMut(&str) -> Option<bool>>(&self, pin: &mut F) -> f64 {
        match self {
            Block::Unit { name, availability } => match pin(name) {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => *availability,
            },
            Block::Series { children } => children
                .iter()
                .map(|c| c.availability_pinned(pin))
                .product(),
            Block::Parallel { children } => {
                if children.is_empty() {
                    0.0
                } else {
                    1.0 - children
                        .iter()
                        .map(|c| 1.0 - c.availability_pinned(pin))
                        .product::<f64>()
                }
            }
            Block::KOfN { k, children } => {
                let avails: Vec<f64> = children
                    .iter()
                    .map(|c| c.availability_pinned(pin))
                    .collect();
                k_of_n_heterogeneous(*k as usize, &avails)
            }
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Block::Unit { name, availability } => {
                writeln!(f, "{pad}[{name} A={availability}]")
            }
            Block::Series { children } => {
                writeln!(f, "{pad}series")?;
                children.iter().try_for_each(|c| c.render(f, indent + 1))
            }
            Block::Parallel { children } => {
                writeln!(f, "{pad}parallel")?;
                children.iter().try_for_each(|c| c.render(f, indent + 1))
            }
            Block::KOfN { k, children } => {
                writeln!(f, "{pad}{k}-of-{n}", n = children.len())?;
                children.iter().try_for_each(|c| c.render(f, indent + 1))
            }
        }
    }
}

impl fmt::Display for Block {
    /// Renders the diagram as an indented ASCII tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

impl ToJson for Block {
    fn to_json(&self) -> Json {
        match self {
            Block::Unit { name, availability } => Json::obj(vec![
                ("kind", Json::str("unit")),
                ("name", Json::str(name.clone())),
                ("availability", Json::Num(*availability)),
            ]),
            Block::Series { children } => Json::obj(vec![
                ("kind", Json::str("series")),
                ("children", children.to_json()),
            ]),
            Block::Parallel { children } => Json::obj(vec![
                ("kind", Json::str("parallel")),
                ("children", children.to_json()),
            ]),
            Block::KOfN { k, children } => Json::obj(vec![
                ("kind", Json::str("k_of_n")),
                ("k", k.to_json()),
                ("children", children.to_json()),
            ]),
        }
    }
}

impl FromJson for Block {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value.field("kind")?.as_str().map_err(|e| e.ctx("kind"))?;
        match kind {
            "unit" => Ok(Block::Unit {
                name: String::from_json(value.field("name")?).map_err(|e| e.ctx("name"))?,
                availability: value
                    .field("availability")?
                    .as_f64()
                    .map_err(|e| e.ctx("availability"))?,
            }),
            "series" => Ok(Block::Series {
                children: Vec::from_json(value.field("children")?)
                    .map_err(|e| e.ctx("children"))?,
            }),
            "parallel" => Ok(Block::Parallel {
                children: Vec::from_json(value.field("children")?)
                    .map_err(|e| e.ctx("children"))?,
            }),
            "k_of_n" => Ok(Block::KOfN {
                k: u32::from_json(value.field("k")?).map_err(|e| e.ctx("k"))?,
                children: Vec::from_json(value.field("children")?)
                    .map_err(|e| e.ctx("children"))?,
            }),
            other => Err(JsonError::decode(format!(
                "unknown block kind `{other}` (expected unit, series, parallel, or k_of_n)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn unit_availability_is_identity() {
        assert_eq!(Block::unit("x", 0.75).availability(), 0.75);
    }

    #[test]
    #[should_panic(expected = "availability must lie in [0, 1]")]
    fn unit_rejects_bad_availability() {
        let _ = Block::unit("x", 1.5);
    }

    #[test]
    fn series_multiplies() {
        let b = Block::series(vec![Block::unit("a", 0.9), Block::unit("b", 0.8)]);
        assert!((b.availability() - 0.72).abs() < EPS);
    }

    #[test]
    fn parallel_complements() {
        let b = Block::parallel(vec![Block::unit("a", 0.9), Block::unit("b", 0.8)]);
        assert!((b.availability() - 0.98).abs() < EPS);
    }

    #[test]
    fn empty_groups() {
        assert_eq!(Block::series(vec![]).availability(), 1.0);
        assert_eq!(Block::parallel(vec![]).availability(), 0.0);
        assert_eq!(Block::k_of_n(0, vec![]).availability(), 1.0);
        assert_eq!(Block::k_of_n(1, vec![]).availability(), 0.0);
    }

    #[test]
    fn kofn_matches_quorum_formula() {
        let b = Block::k_of_n(2, Block::unit("db", 0.9995).replicate(3));
        let a: f64 = 0.9995;
        let expected = a * a * (3.0 - 2.0 * a);
        assert!((b.availability() - expected).abs() < EPS);
    }

    #[test]
    fn nested_structure() {
        // (1-of-2 of (a,b)) in series with c.
        let b = Block::series(vec![
            Block::parallel(vec![Block::unit("a", 0.9), Block::unit("b", 0.9)]),
            Block::unit("c", 0.99),
        ]);
        assert!((b.availability() - 0.99 * (1.0 - 0.01)).abs() < EPS);
    }

    #[test]
    fn replicate_renames_units() {
        let reps = Block::unit("node", 0.9).replicate(3);
        let names: Vec<_> = reps.iter().flat_map(Block::unit_names).collect();
        assert_eq!(names, vec!["node-1", "node-2", "node-3"]);
    }

    #[test]
    fn replicate_renames_nested_units() {
        let inner = Block::series(vec![Block::unit("a", 0.9), Block::unit("b", 0.9)]);
        let reps = inner.replicate(2);
        assert_eq!(reps[1].unit_names(), vec!["a-2", "b-2"]);
    }

    #[test]
    fn unit_count_and_names() {
        let b = Block::series(vec![
            Block::unit("x", 1.0),
            Block::parallel(vec![Block::unit("y", 1.0), Block::unit("z", 1.0)]),
        ]);
        assert_eq!(b.unit_count(), 3);
        assert_eq!(b.unit_names(), vec!["x", "y", "z"]);
    }

    #[test]
    fn is_up_structure_function() {
        let b = Block::k_of_n(2, Block::unit("n", 1.0).replicate(3));
        let all_up = b.is_up(&mut |_| true);
        assert!(all_up);
        let one_down = b.is_up(&mut |name| name != "n-2");
        assert!(one_down);
        let two_down = b.is_up(&mut |name| name == "n-1");
        assert!(!two_down);
    }

    #[test]
    fn pinned_availability() {
        let b = Block::series(vec![Block::unit("a", 0.9), Block::unit("b", 0.8)]);
        let up = b.availability_pinned(&mut |n| (n == "a").then_some(true));
        assert!((up - 0.8).abs() < EPS);
        let down = b.availability_pinned(&mut |n| (n == "a").then_some(false));
        assert_eq!(down, 0.0);
        let neutral = b.availability_pinned(&mut |_| None);
        assert!((neutral - b.availability()).abs() < EPS);
    }

    #[test]
    fn display_tree() {
        let b = Block::k_of_n(2, Block::unit("db", 0.9995).replicate(3));
        let s = b.to_string();
        assert!(s.contains("2-of-3"));
        assert!(s.contains("db-1"));
    }

    #[test]
    fn json_round_trip() {
        let b = Block::series(vec![
            Block::unit("a", 0.9),
            Block::k_of_n(2, Block::unit("n", 0.99).replicate(3)),
        ]);
        let json = sdnav_json::to_string(&b);
        assert!(json.contains(r#""kind":"series""#));
        assert!(json.contains(r#""kind":"k_of_n""#));
        let back: Block = sdnav_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn json_rejects_unknown_kind() {
        let err = sdnav_json::from_str::<Block>(r#"{"kind":"mesh"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown block kind"));
    }
}
