//! k-LUT networks: nodes carrying explicit truth tables.

use std::fmt;
use truthtable::TruthTable;

/// Index of a node inside a [`LutNetwork`].  Node 0 is the constant-false
/// node; inputs and LUTs follow in creation order, so index order is a valid
/// topological order (every LUT's fanins have smaller indices).
pub type LutNodeId = usize;

/// A node of a [`LutNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LutNode {
    /// The constant-false node (always node 0).
    Const0,
    /// A primary input with its position in the input list.
    Input {
        /// Position of this input in the input list.
        position: usize,
    },
    /// A lookup table over its fanins.  The truth table's variable `i`
    /// corresponds to `fanins[i]`.
    Lut {
        /// Fanin node ids, ordered to match the truth table variables.
        fanins: Vec<LutNodeId>,
        /// The LUT function.
        function: TruthTable,
    },
}

impl LutNode {
    /// `true` if the node is a LUT.
    pub fn is_lut(&self) -> bool {
        matches!(self, LutNode::Lut { .. })
    }

    /// `true` if the node is a primary input.
    pub fn is_input(&self) -> bool {
        matches!(self, LutNode::Input { .. })
    }

    /// Fanin ids (empty for inputs and the constant).
    pub fn fanins(&self) -> &[LutNodeId] {
        match self {
            LutNode::Lut { fanins, .. } => fanins,
            _ => &[],
        }
    }

    /// The LUT function, if the node is a LUT.
    pub fn function(&self) -> Option<&TruthTable> {
        match self {
            LutNode::Lut { function, .. } => Some(function),
            _ => None,
        }
    }
}

/// A primary output of a [`LutNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutOutput {
    /// Output name.
    pub name: String,
    /// Driving node.
    pub node: LutNodeId,
    /// Whether the output value is the complement of the node value.
    pub complemented: bool,
}

/// A k-LUT network: the representation the paper's STP simulator operates
/// on (Section III).
///
/// ```
/// use netlist::LutNetwork;
/// use truthtable::TruthTable;
///
/// let mut net = LutNetwork::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let nand = TruthTable::from_binary_str(2, "0111")?;
/// let g = net.add_lut(vec![a, b], nand);
/// net.add_output("y", g, false);
/// assert_eq!(net.evaluate(&[true, true]), vec![false]);
/// # Ok::<(), truthtable::ParseTruthTableError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LutNetwork {
    nodes: Vec<LutNode>,
    inputs: Vec<LutNodeId>,
    input_names: Vec<String>,
    outputs: Vec<LutOutput>,
}

impl LutNetwork {
    /// Creates an empty network containing only the constant node.
    pub fn new() -> Self {
        LutNetwork {
            nodes: vec![LutNode::Const0],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Adds a primary input and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> LutNodeId {
        let id = self.nodes.len();
        self.nodes.push(LutNode::Input {
            position: self.inputs.len(),
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Adds a LUT node.
    ///
    /// # Panics
    ///
    /// Panics if the number of fanins differs from the truth table's variable
    /// count or if any fanin id does not precede the new node.
    pub fn add_lut(&mut self, fanins: Vec<LutNodeId>, function: TruthTable) -> LutNodeId {
        assert_eq!(
            fanins.len(),
            function.num_vars(),
            "LUT fanin count must equal the truth table variable count"
        );
        let id = self.nodes.len();
        assert!(
            fanins.iter().all(|&f| f < id),
            "LUT fanins must precede the node (topological construction)"
        );
        self.nodes.push(LutNode::Lut { fanins, function });
        id
    }

    /// Registers a primary output.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn add_output(&mut self, name: impl Into<String>, node: LutNodeId, complemented: bool) {
        assert!(node < self.nodes.len(), "output node out of range");
        self.outputs.push(LutOutput {
            name: name.into(),
            node,
            complemented,
        });
    }

    /// Number of nodes, including the constant node.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.outputs.len()
    }

    /// Number of LUT nodes.
    pub fn num_luts(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_lut()).count()
    }

    /// The largest LUT fanin count in the network (the `k` of "k-LUT").
    pub fn max_fanin(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.fanins().len())
            .max()
            .unwrap_or(0)
    }

    /// Node accessor.
    pub fn node(&self, id: LutNodeId) -> &LutNode {
        &self.nodes[id]
    }

    /// Primary input node ids in declaration order.
    pub fn inputs(&self) -> &[LutNodeId] {
        &self.inputs
    }

    /// Name of the input at `position`.
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[LutOutput] {
        &self.outputs
    }

    /// Iterator over node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = LutNodeId> {
        0..self.nodes.len()
    }

    /// Iterator over LUT node ids in topological order.
    pub fn lut_ids(&self) -> impl Iterator<Item = LutNodeId> + '_ {
        (0..self.nodes.len()).filter(move |&id| self.nodes[id].is_lut())
    }

    /// Logic level of every node (inputs and constant are level 0).
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.nodes.len()];
        for id in 0..self.nodes.len() {
            if let LutNode::Lut { fanins, .. } = &self.nodes[id] {
                levels[id] = 1 + fanins.iter().map(|&f| levels[f]).max().unwrap_or(0);
            }
        }
        levels
    }

    /// Depth of the network.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.node])
            .max()
            .unwrap_or(0)
    }

    /// Summary statistics.
    pub fn stats(&self) -> crate::NetworkStats {
        crate::NetworkStats {
            inputs: self.num_pis(),
            outputs: self.num_pos(),
            gates: self.num_luts(),
            depth: self.depth(),
            latches: 0,
        }
    }

    /// Evaluates the network on a single assignment (one Boolean per primary
    /// input, declaration order), returning one Boolean per output.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the number of inputs.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        let values = self.evaluate_nodes(assignment);
        self.outputs
            .iter()
            .map(|o| values[o.node] ^ o.complemented)
            .collect()
    }

    /// Evaluates the network on a single assignment and returns the value of
    /// every node.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the number of inputs.
    pub fn evaluate_nodes(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length must equal the number of inputs"
        );
        let mut values = vec![false; self.nodes.len()];
        for id in 0..self.nodes.len() {
            values[id] = match &self.nodes[id] {
                LutNode::Const0 => false,
                LutNode::Input { position } => assignment[*position],
                LutNode::Lut { fanins, function } => {
                    let args: Vec<bool> = fanins.iter().map(|&f| values[f]).collect();
                    function.evaluate(&args)
                }
            };
        }
        values
    }
}

impl fmt::Display for LutNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LutNetwork({} PIs, {} POs, {} LUTs, depth {})",
            self.num_pis(),
            self.num_pos(),
            self.num_luts(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the example network of Fig. 1(a): five PIs, six NAND LUTs.
    fn figure1_network() -> LutNetwork {
        let nand = TruthTable::from_binary_str(2, "0111").unwrap();
        let mut net = LutNetwork::new();
        let pis: Vec<LutNodeId> = (1..=5).map(|i| net.add_input(format!("{i}"))).collect();
        // Paper node numbering: PIs are 1..5, internal nodes are 6..11.
        let n6 = net.add_lut(vec![pis[0], pis[2]], nand.clone()); // 6 = NAND(1, 3)
        let n7 = net.add_lut(vec![pis[1], pis[2]], nand.clone()); // 7 = NAND(2, 3)
        let n8 = net.add_lut(vec![pis[2], pis[3]], nand.clone()); // 8 = NAND(3, 4)
        let n9 = net.add_lut(vec![pis[3], pis[4]], nand.clone()); // 9 = NAND(4, 5)
        let n10 = net.add_lut(vec![n6, n7], nand.clone()); // 10 = NAND(6, 7)
        let n11 = net.add_lut(vec![n8, n9], nand); // 11 = NAND(8, 9)
        net.add_output("po1", n10, false);
        net.add_output("po2", n11, false);
        net
    }

    #[test]
    fn figure1_structure() {
        let net = figure1_network();
        assert_eq!(net.num_pis(), 5);
        assert_eq!(net.num_pos(), 2);
        assert_eq!(net.num_luts(), 6);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.max_fanin(), 2);
    }

    #[test]
    fn evaluate_nand_tree() {
        let net = figure1_network();
        // First simulation pattern of the paper: inputs (1..5) = 0,1,1,0,0.
        let outs = net.evaluate(&[false, true, true, false, false]);
        // po1 = NAND(NAND(1,3), NAND(2,3)) = NAND(1, 0) = 1
        // po2 = NAND(NAND(3,4), NAND(4,5)) = NAND(1, 1) = 0
        assert_eq!(outs, vec![true, false]);
    }

    #[test]
    fn complemented_outputs() {
        let mut net = LutNetwork::new();
        let a = net.add_input("a");
        net.add_output("y", a, true);
        assert_eq!(net.evaluate(&[true]), vec![false]);
        assert_eq!(net.evaluate(&[false]), vec![true]);
    }

    #[test]
    #[should_panic(expected = "fanin count must equal")]
    fn fanin_arity_mismatch() {
        let mut net = LutNetwork::new();
        let a = net.add_input("a");
        let nand = TruthTable::from_binary_str(2, "0111").unwrap();
        net.add_lut(vec![a], nand);
    }

    #[test]
    fn stats_and_display() {
        let net = figure1_network();
        let stats = net.stats();
        assert_eq!(stats.gates, 6);
        assert_eq!(stats.depth, 2);
        assert!(net.to_string().contains("6 LUTs"));
    }
}
