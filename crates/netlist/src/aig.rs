//! And-Inverter Graphs with complemented edges and structural hashing.

use std::collections::HashMap;
use std::fmt;

/// Index of a node inside an [`Aig`].  Node 0 is always the constant-false
/// node; inputs and AND gates follow in creation order, so every AND node's
/// fanins have strictly smaller indices and index order is a valid
/// topological order.
pub type NodeId = usize;

/// An AIGER-style literal: `2 * node + complement`.
///
/// ```
/// use netlist::Lit;
///
/// let lit = Lit::new(3, true);
/// assert_eq!(lit.node(), 3);
/// assert!(lit.is_complemented());
/// assert_eq!(!lit, Lit::new(3, false));
/// assert_eq!(lit.index(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal (node 0, not complemented).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: Lit = Lit(1);

    /// Creates a literal from a node index and a complement flag.
    pub fn new(node: NodeId, complemented: bool) -> Self {
        Lit((node as u32) << 1 | complemented as u32)
    }

    /// Creates a positive (non-complemented) literal.
    pub fn positive(node: NodeId) -> Self {
        Lit::new(node, false)
    }

    /// Reconstructs a literal from its AIGER integer encoding.
    pub fn from_index(index: u32) -> Self {
        Lit(index)
    }

    /// The AIGER integer encoding `2 * node + complement`.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The node this literal refers to.
    pub fn node(self) -> NodeId {
        (self.0 >> 1) as NodeId
    }

    /// Whether the literal is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns this literal with the complement flag set to `value`.
    #[must_use]
    pub fn with_complement(self, value: bool) -> Self {
        Lit(self.0 & !1 | value as u32)
    }

    /// Returns the literal complemented iff `flip` is true.
    #[must_use]
    pub fn complement_if(self, flip: bool) -> Self {
        Lit(self.0 ^ flip as u32)
    }

    /// `true` if this is one of the two constant literals.
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A node of an [`Aig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false node (always node 0).
    Const0,
    /// A primary input with its position in the input list.
    Input {
        /// Position of this input in [`Aig::inputs`].
        position: usize,
    },
    /// A two-input AND gate over two literals.
    And {
        /// First fanin literal.
        fanin0: Lit,
        /// Second fanin literal.
        fanin1: Lit,
    },
}

impl AigNode {
    /// `true` if the node is an AND gate.
    pub fn is_and(&self) -> bool {
        matches!(self, AigNode::And { .. })
    }

    /// `true` if the node is a primary input.
    pub fn is_input(&self) -> bool {
        matches!(self, AigNode::Input { .. })
    }

    /// The fanin literals of an AND node (empty for other nodes).
    pub fn fanins(&self) -> Vec<Lit> {
        match self {
            AigNode::And { fanin0, fanin1 } => vec![*fanin0, *fanin1],
            _ => Vec::new(),
        }
    }
}

/// A primary output: a named literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Output name.
    pub name: String,
    /// The literal driving the output.
    pub lit: Lit,
}

/// Initial (time-zero) value of a latch.
///
/// AIGER 1.9 reset semantics: a latch starts at 0, at 1, or undefined
/// (`X`), in which case any Boolean initial value must be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatchInit {
    /// Starts at 0 (the AIGER default).
    #[default]
    Zero,
    /// Starts at 1.
    One,
    /// Uninitialised: both initial values are possible.
    X,
}

/// A latch (sequential state element) of an [`Aig`].
///
/// Latches are represented *on top of* the combinational view: the latch's
/// current-state value is an ordinary primary input (so every combinational
/// algorithm — simulation, sweeping, cut enumeration — sees it without
/// special cases) and its next-state function is an ordinary primary output.
/// This struct records which input/output positions play those roles plus
/// the initial value; sequential algorithms interpret it, combinational ones
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latch {
    /// Position (in [`Aig::inputs`] order) of the current-state input.
    pub state_input: usize,
    /// Position (in [`Aig::outputs`] order) of the next-state output.
    pub next_output: usize,
    /// Initial value at time zero.
    pub init: LatchInit,
}

/// An And-Inverter Graph.
///
/// Construction performs constant propagation (`a ∧ 0 = 0`, `a ∧ 1 = a`,
/// `a ∧ a = a`, `a ∧ ¬a = 0`) and structural hashing, so structurally
/// identical AND gates share one node.
///
/// ```
/// use netlist::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let g1 = aig.and(a, b);
/// let g2 = aig.and(b, a);
/// assert_eq!(g1, g2, "structural hashing canonicalises operand order");
/// assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
/// # use netlist::Lit;
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Output>,
    latches: Vec<Latch>,
    strash: HashMap<(Lit, Lit), NodeId>,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const0],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        let id = self.nodes.len();
        self.nodes.push(AigNode::Input {
            position: self.inputs.len(),
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        Lit::positive(id)
    }

    /// Adds `count` primary inputs named `prefix0 … prefix{count-1}`.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Registers a primary output driven by `lit`.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        debug_assert!(lit.node() < self.nodes.len(), "output literal out of range");
        self.outputs.push(Output {
            name: name.into(),
            lit,
        });
    }

    /// Adds a latch and returns the (positive) literal of its current-state
    /// value.
    ///
    /// The current state becomes a primary input named `name`; the
    /// next-state function becomes a primary output named `{name}_next`,
    /// initially the latch's own state (a self-loop) until
    /// [`Aig::set_latch_next`] installs the real transition function.
    pub fn add_latch(&mut self, name: impl Into<String>, init: LatchInit) -> Lit {
        let name = name.into();
        let state_input = self.inputs.len();
        let state = self.add_input(name.clone());
        let next_output = self.outputs.len();
        self.add_output(format!("{name}_next"), state);
        self.latches.push(Latch {
            state_input,
            next_output,
            init,
        });
        state
    }

    /// Installs the next-state function of latch `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_latch_next(&mut self, index: usize, next: Lit) {
        let position = self.latches[index].next_output;
        self.set_output_lit(position, next);
    }

    /// Registers an *existing* input/output pair as a latch.  This is the
    /// low-level form used by the AIGER reader, which creates the state
    /// inputs while parsing the latch section but can only attach the
    /// next-state outputs once the gate section has been read.
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range or if the input position is
    /// already claimed by another latch.
    pub fn define_latch(&mut self, state_input: usize, next_output: usize, init: LatchInit) {
        assert!(state_input < self.inputs.len(), "latch input out of range");
        assert!(
            next_output < self.outputs.len(),
            "latch output out of range"
        );
        assert!(
            self.latches.iter().all(|l| l.state_input != state_input),
            "input {state_input} is already a latch state"
        );
        self.latches.push(Latch {
            state_input,
            next_output,
            init,
        });
    }

    /// The latches, in declaration order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// The (positive) literal of latch `index`'s current-state input.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn latch_state_lit(&self, index: usize) -> Lit {
        Lit::positive(self.inputs[self.latches[index].state_input])
    }

    /// The literal driving latch `index`'s next-state function.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn latch_next_lit(&self, index: usize) -> Lit {
        self.outputs[self.latches[index].next_output].lit
    }

    /// The latch (if any) whose current state is input `position`.
    pub fn latch_of_input(&self, position: usize) -> Option<usize> {
        self.latches.iter().position(|l| l.state_input == position)
    }

    /// `true` if output `index` is the next-state function of some latch
    /// (as opposed to a real primary output).
    pub fn is_latch_next_output(&self, index: usize) -> bool {
        self.latches.iter().any(|l| l.next_output == index)
    }

    /// Creates (or reuses) the AND of two literals.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either literal refers to a node that does
    /// not exist yet.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        debug_assert!(a.node() < self.nodes.len() && b.node() < self.nodes.len());
        // Constant and trivial propagation.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (f0, f1) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&node) = self.strash.get(&(f0, f1)) {
            return Lit::positive(node);
        }
        let id = self.nodes.len();
        self.nodes.push(AigNode::And {
            fanin0: f0,
            fanin1: f1,
        });
        self.strash.insert((f0, f1), id);
        Lit::positive(id)
    }

    /// Appends an AND node with exactly these fanins, skipping constant
    /// propagation and the structural-hash lookup.
    ///
    /// The node is appended even when an identical or foldable one exists,
    /// so this builds networks that [`Aig::and`] never produces, such as
    /// fixtures for [`Aig::cleanup`], which folds and shares them.  The
    /// structural hash stays coherent — the new node registers itself unless
    /// an equal node is already registered — so later [`Aig::and`] calls
    /// still deduplicate against the network.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either literal refers to a node that does
    /// not exist yet.
    pub fn and_raw(&mut self, a: Lit, b: Lit) -> Lit {
        debug_assert!(a.node() < self.nodes.len() && b.node() < self.nodes.len());
        let (f0, f1) = if a <= b { (a, b) } else { (b, a) };
        let id = self.nodes.len();
        self.nodes.push(AigNode::And {
            fanin0: f0,
            fanin1: f1,
        });
        self.strash.entry((f0, f1)).or_insert(id);
        Lit::positive(id)
    }

    /// OR of two literals (built from AND and inverters).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.or(a, b)
    }

    /// Multiplexer `if s then t else e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Majority of three literals.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// AND over an arbitrary number of literals (balanced tree).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => Lit::TRUE,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let (left, right) = lits.split_at(mid);
                let l = self.and_many(left);
                let r = self.and_many(right);
                self.and(l, r)
            }
        }
    }

    /// OR over an arbitrary number of literals (balanced tree).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let inverted: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&inverted)
    }

    /// Number of nodes including the constant node.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and()).count()
    }

    /// The node table.
    pub fn node(&self, id: NodeId) -> &AigNode {
        &self.nodes[id]
    }

    /// Node ids of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The name of input `position`.
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Replaces the literal driving output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_output_lit(&mut self, index: usize, lit: Lit) {
        self.outputs[index].lit = lit;
    }

    /// Iterator over all node ids in topological order (index order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// Iterator over the ids of AND nodes in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(move |&id| self.nodes[id].is_and())
    }

    /// Logic level of every node (inputs and constant are level 0).
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.nodes.len()];
        for id in 0..self.nodes.len() {
            if let AigNode::And { fanin0, fanin1 } = self.nodes[id] {
                levels[id] = 1 + levels[fanin0.node()].max(levels[fanin1.node()]);
            }
        }
        levels
    }

    /// The depth of the network (maximum level over the outputs).
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.lit.node()])
            .max()
            .unwrap_or(0)
    }

    /// Collects the transitive fanin of `node` (the node itself excluded),
    /// stopping once `limit` nodes have been gathered.  The result is in
    /// reverse-DFS order; constant and input nodes are included.
    pub fn transitive_fanin(&self, node: NodeId, limit: usize) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = Vec::new();
        let mut result = Vec::new();
        visited[node] = true;
        for f in self.nodes[node].fanins() {
            if !visited[f.node()] {
                visited[f.node()] = true;
                stack.push(f.node());
            }
        }
        while let Some(id) = stack.pop() {
            result.push(id);
            if result.len() >= limit {
                break;
            }
            for f in self.nodes[id].fanins() {
                if !visited[f.node()] {
                    visited[f.node()] = true;
                    stack.push(f.node());
                }
            }
        }
        result
    }

    /// `true` if `maybe_ancestor` lies in the transitive fanin of `node`.
    pub fn in_transitive_fanin(&self, node: NodeId, maybe_ancestor: NodeId) -> bool {
        if node == maybe_ancestor {
            return false;
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.nodes[node].fanins().iter().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if visited[id] {
                continue;
            }
            visited[id] = true;
            if id == maybe_ancestor {
                return true;
            }
            for f in self.nodes[id].fanins() {
                stack.push(f.node());
            }
        }
        false
    }

    /// Redirects every reference to `old` (in AND fanins and outputs) to the
    /// literal `replacement`, preserving complement polarity.
    ///
    /// This is the merge operation of SAT-sweeping: after `old ≡ replacement`
    /// has been proved, `old` becomes dead and a later [`Aig::cleanup`] can
    /// remove it.
    ///
    /// # Panics
    ///
    /// Panics if `replacement.node() >= old` (which would create a cycle,
    /// since references to `old` can only occur in nodes with larger ids) or
    /// if `old` is not an AND node.
    pub fn replace_node(&mut self, old: NodeId, replacement: Lit) {
        assert!(
            replacement.node() < old,
            "replacement must precede the replaced node in topological order"
        );
        assert!(self.nodes[old].is_and(), "only AND nodes can be replaced");
        for id in (old + 1)..self.nodes.len() {
            if let AigNode::And { fanin0, fanin1 } = self.nodes[id] {
                let mut new0 = fanin0;
                let mut new1 = fanin1;
                if fanin0.node() == old {
                    new0 = replacement.complement_if(fanin0.is_complemented());
                }
                if fanin1.node() == old {
                    new1 = replacement.complement_if(fanin1.is_complemented());
                }
                if new0 != fanin0 || new1 != fanin1 {
                    self.nodes[id] = AigNode::And {
                        fanin0: new0,
                        fanin1: new1,
                    };
                }
            }
        }
        for output in &mut self.outputs {
            if output.lit.node() == old {
                output.lit = replacement.complement_if(output.lit.is_complemented());
            }
        }
        // The structural hash is stale after in-place edits.
        self.strash.clear();
    }

    /// Rebuilds the AIG keeping only the logic reachable from the outputs,
    /// re-running constant propagation and structural hashing.  Returns the
    /// cleaned AIG together with a map from old node ids to new literals
    /// (dead nodes map to `None`).  The result is its own cleanup: no
    /// constant to fold, no structure to share, no dead AND.
    ///
    /// Inputs and outputs keep their order and count, so latches survive
    /// unchanged (their next-state cones are output cones and hence live).
    pub fn cleanup(&self) -> (Aig, Vec<Option<Lit>>) {
        let mut new = Aig::new();
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        // Inputs are always kept so that PI ordering is stable.
        for (pos, &id) in self.inputs.iter().enumerate() {
            let lit = new.add_input(self.input_names[pos].clone());
            map[id] = Some(lit);
        }
        let live = self.live();
        for id in 0..self.nodes.len() {
            if !live[id] {
                continue;
            }
            if let AigNode::And { fanin0, fanin1 } = self.nodes[id] {
                let f0 = map[fanin0.node()]
                    .expect("fanin precedes node in topological order")
                    .complement_if(fanin0.is_complemented());
                let f1 = map[fanin1.node()]
                    .expect("fanin precedes node in topological order")
                    .complement_if(fanin1.is_complemented());
                map[id] = Some(new.and(f0, f1));
            }
        }
        for output in &self.outputs {
            let lit = map[output.lit.node()]
                .expect("output driver is reachable")
                .complement_if(output.lit.is_complemented());
            new.add_output(output.name.clone(), lit);
        }
        new.latches = self.latches.clone();
        // Folding strands a node whose fanouts all folded away.  Copying
        // once more drops it, and that copy folds nothing, so it is final.
        let live = new.live();
        if new.and_ids().any(|id| !live[id]) {
            let (again, remap) = new.cleanup();
            for lit in &mut map {
                *lit =
                    lit.and_then(|l| remap[l.node()].map(|r| r.complement_if(l.is_complemented())));
            }
            return (again, map);
        }
        (new, map)
    }

    /// Marks the nodes that some output reaches.
    fn live(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        for output in &self.outputs {
            live[output.lit.node()] = true;
        }
        // Fanins precede their fanouts, so a node's mark is final when the
        // reverse sweep reaches it.
        for id in (0..self.nodes.len()).rev() {
            if let AigNode::And { fanin0, fanin1 } = self.nodes[id] {
                if live[id] {
                    live[fanin0.node()] = true;
                    live[fanin1.node()] = true;
                }
            }
        }
        live
    }

    /// Copies the logic of `other` into this AIG, driving `other`'s primary
    /// inputs with the literals in `input_map` (one per input of `other`, in
    /// declaration order).  Returns the literals corresponding to `other`'s
    /// outputs.  `other`'s output names are not registered; the caller
    /// decides what to do with the returned literals (e.g. build a miter).
    ///
    /// Latch *state* inputs of `other` count as ordinary inputs here — the
    /// caller supplies their frame values through `input_map`, which is
    /// exactly what a sequential unrolling needs.  No latches are registered
    /// on `self`.
    ///
    /// # Panics
    ///
    /// Panics if `input_map` is shorter than `other`'s input count.
    pub fn append(&mut self, other: &Aig, input_map: &[Lit]) -> Vec<Lit> {
        assert!(
            input_map.len() >= other.num_inputs(),
            "input map must cover every input of the appended network"
        );
        let mut map: Vec<Lit> = vec![Lit::FALSE; other.num_nodes()];
        for id in other.node_ids() {
            map[id] = match other.node(id) {
                AigNode::Const0 => Lit::FALSE,
                AigNode::Input { position } => input_map[*position],
                AigNode::And { fanin0, fanin1 } => {
                    let f0 = map[fanin0.node()].complement_if(fanin0.is_complemented());
                    let f1 = map[fanin1.node()].complement_if(fanin1.is_complemented());
                    self.and(f0, f1)
                }
            };
        }
        other
            .outputs()
            .iter()
            .map(|o| map[o.lit.node()].complement_if(o.lit.is_complemented()))
            .collect()
    }

    /// Summary statistics of the network.
    pub fn stats(&self) -> crate::NetworkStats {
        crate::NetworkStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            gates: self.num_ands(),
            depth: self.depth(),
            latches: self.num_latches(),
        }
    }

    /// Evaluates the network on a single input assignment (one Boolean per
    /// primary input, in declaration order), returning one Boolean per
    /// output.  Intended for tests and tiny examples; simulators should use
    /// the `bitsim` or `stp_sweep` crates.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the number of inputs.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length must equal the number of inputs"
        );
        let mut values = vec![false; self.nodes.len()];
        for id in 0..self.nodes.len() {
            values[id] = match self.nodes[id] {
                AigNode::Const0 => false,
                AigNode::Input { position } => assignment[position],
                AigNode::And { fanin0, fanin1 } => {
                    let v0 = values[fanin0.node()] ^ fanin0.is_complemented();
                    let v1 = values[fanin1.node()] ^ fanin1.is_complemented();
                    v0 && v1
                }
            };
        }
        self.outputs
            .iter()
            .map(|o| values[o.lit.node()] ^ o.lit.is_complemented())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> (Aig, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.xor(a, b);
        aig.add_output("y", y);
        (aig, y)
    }

    #[test]
    fn literal_encoding() {
        let l = Lit::new(5, true);
        assert_eq!(l.index(), 11);
        assert_eq!(Lit::from_index(11), l);
        assert_eq!((!l).index(), 10);
        assert_eq!(l.with_complement(false), Lit::new(5, false));
        assert_eq!(l.complement_if(true), !l);
        assert_eq!(l.complement_if(false), l);
        assert!(Lit::TRUE.is_constant());
    }

    #[test]
    fn constant_propagation() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        let g2 = aig.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn raw_append_preserves_structure() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        // A raw append of an existing AND creates a duplicate node...
        let g2 = aig.and_raw(b, a);
        assert_ne!(g1, g2);
        assert_eq!(aig.num_ands(), 2);
        assert_eq!(aig.node(g2.node()).fanins(), aig.node(g1.node()).fanins());
        // ...but the structural hash still resolves to the first occurrence.
        assert_eq!(aig.and(a, b), g1);
        // A raw append of a fresh AND registers itself for later dedup.
        let g3 = aig.and_raw(a, !b);
        assert_eq!(aig.and(a, !b), g3);
    }

    #[test]
    fn evaluate_xor() {
        let (aig, _) = xor_aig();
        assert_eq!(aig.evaluate(&[false, false]), vec![false]);
        assert_eq!(aig.evaluate(&[true, false]), vec![true]);
        assert_eq!(aig.evaluate(&[false, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    // The expected majority value must stay in its textbook two-level form.
    #[allow(clippy::nonminimal_bool)]
    fn derived_gates_are_correct() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let or = aig.or(a, b);
        let nand = aig.nand(a, b);
        let nor = aig.nor(a, b);
        let xnor = aig.xnor(a, b);
        let mux = aig.mux(a, b, c);
        let maj = aig.maj(a, b, c);
        for gate in [or, nand, nor, xnor, mux, maj] {
            aig.add_output("o", gate);
        }
        for i in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            let (a, b, c) = (assignment[0], assignment[1], assignment[2]);
            let values = aig.evaluate(&assignment);
            assert_eq!(values[0], a || b);
            assert_eq!(values[1], !(a && b));
            assert_eq!(values[2], !(a || b));
            assert_eq!(values[3], a == b);
            assert_eq!(values[4], if a { b } else { c });
            assert_eq!(values[5], (a && b) || (a && c) || (b && c));
        }
    }

    #[test]
    fn and_or_many() {
        let mut aig = Aig::new();
        let lits = aig.add_inputs("x", 5);
        let all = aig.and_many(&lits);
        let any = aig.or_many(&lits);
        aig.add_output("all", all);
        aig.add_output("any", any);
        for i in 0..32usize {
            let assignment: Vec<bool> = (0..5).map(|j| (i >> j) & 1 == 1).collect();
            let values = aig.evaluate(&assignment);
            assert_eq!(values[0], assignment.iter().all(|&b| b));
            assert_eq!(values[1], assignment.iter().any(|&b| b));
        }
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g1 = aig.and(a, b);
        let g2 = aig.and(g1, c);
        aig.add_output("y", g2);
        let levels = aig.levels();
        assert_eq!(levels[g1.node()], 1);
        assert_eq!(levels[g2.node()], 2);
        assert_eq!(aig.depth(), 2);
    }

    #[test]
    fn transitive_fanin_limit() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 8);
        let root = aig.and_many(&xs);
        aig.add_output("y", root);
        let full = aig.transitive_fanin(root.node(), usize::MAX);
        assert!(full.len() >= 8);
        let limited = aig.transitive_fanin(root.node(), 3);
        assert_eq!(limited.len(), 3);
        assert!(aig.in_transitive_fanin(root.node(), xs[0].node()));
        assert!(!aig.in_transitive_fanin(xs[0].node(), root.node()));
    }

    #[test]
    fn replace_node_redirects_references() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        // g1 = a & b; g_red = (a & b) & b is structurally distinct but
        // functionally equal to g1.
        let g1 = aig.and(a, b);
        let g_red = aig.and(g1, b);
        let top = aig.and(g_red, c);
        aig.add_output("y", top);
        assert_ne!(g1, g_red);
        aig.replace_node(g_red.node(), g1);
        let (cleaned, _) = aig.cleanup();
        assert!(cleaned.num_ands() < aig.num_ands());
        for i in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            let expected = (assignment[0] && assignment[1]) && assignment[2];
            assert_eq!(cleaned.evaluate(&assignment), vec![expected]);
        }
    }

    #[test]
    fn cleanup_removes_dead_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let _dead = aig.xor(a, b);
        let live = aig.and(a, b);
        aig.add_output("y", live);
        let (cleaned, map) = aig.cleanup();
        assert_eq!(cleaned.num_ands(), 1);
        assert_eq!(cleaned.num_inputs(), 2);
        assert!(map[live.node()].is_some());
    }

    #[test]
    fn cleanup_drops_nodes_that_folding_strands() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 3);
        let p = aig.and(xs[0], xs[1]);
        let q = aig.and(xs[0], xs[2]);
        let h = aig.and(p, q);
        let y = aig.or(h, xs[2]);
        aig.add_output("y", y);
        // `h` becomes `p & !p`, which folds to false and strands `p`.
        aig.replace_node(q.node(), !p);
        let (cleaned, map) = aig.cleanup();
        assert_eq!(cleaned.num_ands(), 0);
        assert_eq!(cleaned.outputs()[0].lit, xs[2]);
        assert_eq!(map[p.node()], None);
        assert_eq!(map[h.node()], Some(Lit::FALSE));
        assert_eq!(cleaned.cleanup().0.num_ands(), 0);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn replace_node_rejects_forward_reference() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        let g2 = aig.xor(a, b);
        aig.add_output("y", g2);
        // g2's node id is larger than g1's: replacing g1 by g2 must panic.
        aig.replace_node(g1.node(), g2);
    }

    #[test]
    fn append_builds_a_miter() {
        let (left, _) = xor_aig();
        let (right, _) = xor_aig();
        let mut miter = Aig::new();
        let a = miter.add_input("a");
        let b = miter.add_input("b");
        let lo = miter.append(&left, &[a, b]);
        let ro = miter.append(&right, &[a, b]);
        let diff = miter.xor(lo[0], ro[0]);
        miter.add_output("diff", diff);
        for i in 0..4usize {
            let assignment: Vec<bool> = (0..2).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(miter.evaluate(&assignment), vec![false]);
        }
    }

    #[test]
    fn stats_report() {
        let (aig, _) = xor_aig();
        let stats = aig.stats();
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.gates, 3);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.latches, 0);
    }

    #[test]
    fn latches_ride_on_the_combinational_view() {
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        let q = aig.add_latch("q", LatchInit::Zero);
        let next = aig.mux(en, !q, q); // toggle while enabled
        aig.set_latch_next(0, next);
        aig.add_output("o", q);

        assert_eq!(aig.num_latches(), 1);
        assert_eq!(aig.num_inputs(), 2, "latch state is an input");
        assert_eq!(aig.num_outputs(), 2, "latch next-state is an output");
        assert_eq!(aig.latch_state_lit(0), q);
        assert_eq!(aig.latch_next_lit(0), next);
        assert_eq!(aig.latch_of_input(1), Some(0));
        assert_eq!(aig.latch_of_input(0), None);
        assert!(aig.is_latch_next_output(0));
        assert!(!aig.is_latch_next_output(1));
        assert_eq!(aig.latches()[0].init, LatchInit::Zero);
        assert_eq!(aig.stats().latches, 1);
    }

    #[test]
    fn cleanup_preserves_latches() {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let q = aig.add_latch("q", LatchInit::One);
        let _dead = aig.xor(d, q);
        let next = aig.and(d, !q);
        aig.set_latch_next(0, next);
        aig.add_output("o", q);
        let (cleaned, _) = aig.cleanup();
        assert_eq!(cleaned.num_latches(), 1);
        assert_eq!(cleaned.latches(), aig.latches());
        assert_eq!(cleaned.num_inputs(), 2);
        assert_eq!(cleaned.num_outputs(), 2);
        // The next-state cone is an output cone, so it survived the sweep.
        assert!(!cleaned.latch_next_lit(0).is_constant());
    }

    #[test]
    fn cleanup_shares_folds_and_drops_dangling_nodes() {
        let mut aig = Aig::new();
        let d = aig.add_input("d");
        let q = aig.add_latch("q", LatchInit::X);
        let _dead = aig.xor(d, q);
        let g1 = aig.and(d, q);
        let g2 = aig.and_raw(q, d); // a structural duplicate of `g1`
        let next = aig.and(g1, !g2); // folds to false once `g2` is shared
        aig.set_latch_next(0, next);
        aig.add_output("o", g2);
        let (cleaned, _) = aig.cleanup();
        assert_eq!(cleaned.num_ands(), 1);
        assert_eq!(cleaned.latches(), aig.latches());
        assert_eq!(cleaned.num_inputs(), 2);
        assert_eq!(cleaned.num_outputs(), 2);
    }

    #[test]
    #[should_panic(expected = "already a latch state")]
    fn define_latch_rejects_double_claims() {
        let mut aig = Aig::new();
        let q = aig.add_latch("q", LatchInit::X);
        aig.add_output("o", q);
        aig.define_latch(0, 1, LatchInit::Zero);
    }
}
