//! BLIF (Berkeley Logic Interchange Format) reader and writer for k-LUT
//! networks.
//!
//! The paper's simulator operates on k-LUT networks; BLIF is the standard
//! interchange format for such networks (ABC's `write_blif`, mockturtle's
//! `blif_reader`), so the substrate supports it alongside AIGER.  Only the
//! combinational subset is implemented: `.model`, `.inputs`, `.outputs`,
//! `.names` with single-output covers, and `.end`.  Latches are rejected.

use crate::{LutNetwork, LutNode};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;
use truthtable::TruthTable;

/// Errors produced while reading or writing BLIF files.
#[derive(Debug)]
pub enum BlifError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not follow the supported BLIF subset.
    Format(String),
}

impl fmt::Display for BlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlifError::Io(e) => write!(f, "blif i/o error: {e}"),
            BlifError::Format(msg) => write!(f, "invalid blif file: {msg}"),
        }
    }
}

impl Error for BlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BlifError::Io(e) => Some(e),
            BlifError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for BlifError {
    fn from(e: std::io::Error) -> Self {
        BlifError::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> BlifError {
    BlifError::Format(msg.into())
}

/// Serialises a k-LUT network to BLIF text.
///
/// Node names are synthesised as `n<id>`; primary inputs and outputs keep
/// their registered names.
pub fn write_blif_string(net: &LutNetwork, model_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {model_name}\n"));

    let node_name = |id: usize| -> String {
        match net.node(id) {
            LutNode::Input { position } => net.input_name(*position).to_string(),
            _ => format!("n{id}"),
        }
    };

    out.push_str(".inputs");
    for &input in net.inputs() {
        out.push_str(&format!(" {}", node_name(input)));
    }
    out.push('\n');

    out.push_str(".outputs");
    for output in net.outputs() {
        out.push_str(&format!(" {}", output.name));
    }
    out.push('\n');

    // The constant node, only when referenced.
    let const_used = net.node_ids().any(|id| net.node(id).fanins().contains(&0))
        || net.outputs().iter().any(|o| o.node == 0);
    if const_used {
        out.push_str(".names n0\n");
        // An empty cover is constant 0.
    }

    for id in net.lut_ids() {
        let node = net.node(id);
        let fanins = node.fanins();
        let function = node.function().expect("lut node has a function");
        out.push_str(".names");
        for &f in fanins {
            out.push_str(&format!(" {}", node_name(f)));
        }
        out.push_str(&format!(" {}\n", node_name(id)));
        for minterm in 0..function.num_bits() {
            if function.get_bit(minterm) {
                let row: String = (0..fanins.len())
                    .map(|j| if (minterm >> j) & 1 == 1 { '1' } else { '0' })
                    .collect();
                out.push_str(&format!("{row} 1\n"));
            }
        }
    }

    // Output drivers: a buffer or inverter per primary output.
    for output in net.outputs() {
        out.push_str(&format!(
            ".names {} {}\n",
            node_name(output.node),
            output.name
        ));
        if output.complemented {
            out.push_str("0 1\n");
        } else {
            out.push_str("1 1\n");
        }
    }
    out.push_str(".end\n");
    out
}

/// Writes a k-LUT network to a BLIF file.
///
/// # Errors
///
/// Returns [`BlifError::Io`] on I/O failure.
pub fn write_blif(
    net: &LutNetwork,
    model_name: &str,
    path: impl AsRef<Path>,
) -> Result<(), BlifError> {
    fs::write(path, write_blif_string(net, model_name))?;
    Ok(())
}

/// Parses BLIF text into a k-LUT network.
///
/// # Errors
///
/// Returns [`BlifError::Format`] when the text is not in the supported
/// combinational subset (unknown directives, latches, multi-output covers,
/// cyclic definitions).
pub fn read_blif_str(text: &str) -> Result<LutNetwork, BlifError> {
    // Join continuation lines and strip comments.
    let mut logical_lines: Vec<String> = Vec::new();
    let mut current = String::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if let Some(stripped) = line.strip_suffix('\\') {
            current.push_str(stripped);
            current.push(' ');
            continue;
        }
        current.push_str(line);
        if !current.trim().is_empty() {
            logical_lines.push(current.trim().to_string());
        }
        current = String::new();
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    struct Cover {
        fanins: Vec<String>,
        target: String,
        rows: Vec<(String, char)>,
    }
    let mut covers: Vec<Cover> = Vec::new();
    let mut i = 0usize;
    while i < logical_lines.len() {
        let line = logical_lines[i].clone();
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or("");
        match head {
            ".model" => {}
            ".inputs" => inputs.extend(tokens.map(|s| s.to_string())),
            ".outputs" => outputs.extend(tokens.map(|s| s.to_string())),
            ".names" => {
                let signals: Vec<String> = tokens.map(|s| s.to_string()).collect();
                if signals.is_empty() {
                    return Err(format_err(".names needs at least an output signal"));
                }
                let target = signals.last().expect("non-empty").clone();
                let fanins = signals[..signals.len() - 1].to_vec();
                let mut rows = Vec::new();
                while i + 1 < logical_lines.len() && !logical_lines[i + 1].starts_with('.') {
                    i += 1;
                    let row_line = &logical_lines[i];
                    let parts: Vec<&str> = row_line.split_whitespace().collect();
                    match (fanins.is_empty(), parts.len()) {
                        (true, 1) => rows.push((String::new(), parts[0].chars().next().unwrap())),
                        (false, 2) => {
                            rows.push((parts[0].to_string(), parts[1].chars().next().unwrap()))
                        }
                        _ => return Err(format_err(format!("malformed cover row '{row_line}'"))),
                    }
                }
                covers.push(Cover {
                    fanins,
                    target,
                    rows,
                });
            }
            ".end" => break,
            ".latch" => return Err(format_err("latches are not supported")),
            other => return Err(format_err(format!("unsupported directive '{other}'"))),
        }
        i += 1;
    }

    // Build the network: inputs first, then covers in dependency order.
    let mut net = LutNetwork::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for name in &inputs {
        let id = net.add_input(name.clone());
        by_name.insert(name.clone(), id);
    }

    let mut pending: Vec<Option<Cover>> = covers.into_iter().map(Some).collect();
    let mut remaining = pending.iter().filter(|c| c.is_some()).count();
    while remaining > 0 {
        let mut progressed = false;
        for slot in pending.iter_mut() {
            let ready = match slot {
                Some(cover) => cover.fanins.iter().all(|f| by_name.contains_key(f)),
                None => false,
            };
            if !ready {
                continue;
            }
            let cover = slot.take().expect("checked above");
            let fanin_ids: Vec<usize> = cover.fanins.iter().map(|f| by_name[f]).collect();
            let num_vars = fanin_ids.len();
            if num_vars > TruthTable::MAX_VARS {
                return Err(format_err(format!(
                    ".names with {num_vars} fanins exceeds the {}-input limit",
                    TruthTable::MAX_VARS
                )));
            }
            let mut table = TruthTable::zeros(num_vars);
            for (pattern, value) in &cover.rows {
                if *value != '1' {
                    return Err(format_err("only on-set ('1') cover rows are supported"));
                }
                if pattern.len() != num_vars {
                    return Err(format_err("cover row width does not match fanin count"));
                }
                let (mut fixed, mut free) = (0usize, 0usize);
                for (j, ch) in pattern.chars().enumerate() {
                    match ch {
                        '0' => {}
                        '1' => fixed |= 1 << j,
                        '-' => free |= 1 << j,
                        _ => return Err(format_err(format!("invalid cover character '{ch}'"))),
                    }
                }
                // Expand the '-' wildcards: set every index that agrees with
                // the fixed bits, walking the subsets of the free bits.
                let mut sub = free;
                loop {
                    table.set_bit(fixed | sub, true);
                    if sub == 0 {
                        break;
                    }
                    sub = (sub - 1) & free;
                }
            }
            let id = if num_vars == 0 {
                // A constant: model it as a zero-input LUT.
                net.add_lut(Vec::new(), table)
            } else {
                net.add_lut(fanin_ids, table)
            };
            by_name.insert(cover.target.clone(), id);
            remaining -= 1;
            progressed = true;
        }
        if !progressed {
            return Err(format_err(
                "cyclic or dangling .names definitions (undriven signal)",
            ));
        }
    }

    for name in &outputs {
        let id = *by_name
            .get(name)
            .ok_or_else(|| format_err(format!("output '{name}' is never driven")))?;
        net.add_output(name.clone(), id, false);
    }
    Ok(net)
}

/// Reads a BLIF file into a k-LUT network.
///
/// # Errors
///
/// Returns [`BlifError`] on I/O failure or malformed content.
pub fn read_blif(path: impl AsRef<Path>) -> Result<LutNetwork, BlifError> {
    let text = fs::read_to_string(path)?;
    read_blif_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lutmap;

    fn sample_network() -> LutNetwork {
        let mut aig = crate::Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g = aig.xor(a, b);
        let h = aig.mux(g, b, c);
        aig.add_output("y", h);
        aig.add_output("ny", !g);
        lutmap::map_to_luts(&aig, 4)
    }

    #[test]
    fn round_trip_preserves_function() {
        let net = sample_network();
        let text = write_blif_string(&net, "sample");
        let parsed = read_blif_str(&text).expect("own output parses");
        assert_eq!(parsed.num_pis(), net.num_pis());
        assert_eq!(parsed.num_pos(), net.num_pos());
        for bits in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (bits >> j) & 1 == 1).collect();
            assert_eq!(parsed.evaluate(&assignment), net.evaluate(&assignment));
        }
    }

    #[test]
    fn parses_hand_written_blif() {
        let text = "\
# a tiny example
.model tiny
.inputs a b sel
.outputs f
.names a b andab
11 1
.names sel a b f
1-1 1
01- 1
.end
";
        let net = read_blif_str(text).expect("valid blif");
        assert_eq!(net.num_pis(), 3);
        assert_eq!(net.num_pos(), 1);
        // f = sel ? b : a  (rows: sel=1,b=1 -> 1; sel=0,a=1 -> 1)
        for bits in 0..8usize {
            let a = bits & 1 == 1;
            let b = bits & 2 == 2;
            let sel = bits & 4 == 4;
            let expected = if sel { b } else { a };
            assert_eq!(
                net.evaluate(&[a, b, sel]),
                vec![expected],
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn wildcards_expand() {
        let text = ".model w\n.inputs x y z\n.outputs o\n.names x y z o\n--1 1\n.end\n";
        let net = read_blif_str(text).expect("valid blif");
        for bits in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (bits >> j) & 1 == 1).collect();
            assert_eq!(net.evaluate(&assignment)[0], assignment[2]);
        }
    }

    #[test]
    fn rejects_unsupported_content() {
        assert!(read_blif_str(".model m\n.latch a b\n.end\n").is_err());
        assert!(read_blif_str(".model m\n.gate nand a b\n.end\n").is_err());
        assert!(read_blif_str(".model m\n.inputs a\n.outputs y\n.end\n").is_err());
        // Cyclic definition.
        let cyclic = ".model m\n.inputs a\n.outputs y\n.names y a y\n11 1\n.end\n";
        assert!(read_blif_str(cyclic).is_err());
        // More fanins than a truth table holds.
        let names: Vec<String> = (0..25).map(|i| format!("x{i}")).collect();
        let wide = format!(
            ".model m\n.inputs {0}\n.outputs y\n.names {0} y\n{1} 1\n.end\n",
            names.join(" "),
            "1".repeat(25)
        );
        assert!(matches!(read_blif_str(&wide), Err(BlifError::Format(_))));
        // A one-fanin cover whose row holds 36 wildcards.
        let wild = format!(
            ".model m\n.inputs a\n.outputs y\n.names a y\n{} 1\n.end\n",
            "-".repeat(36)
        );
        assert_eq!(wild.len(), 85);
        assert!(matches!(read_blif_str(&wild), Err(BlifError::Format(_))));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("netlist_blif_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.blif");
        let net = sample_network();
        write_blif(&net, "sample", &path).unwrap();
        let parsed = read_blif(&path).unwrap();
        assert_eq!(parsed.num_pos(), net.num_pos());
        std::fs::remove_file(&path).ok();
    }
}
