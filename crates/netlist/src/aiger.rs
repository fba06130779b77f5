//! AIGER readers and writers (ASCII `aag` and binary `aig` formats).
//!
//! Sequential elements (latches) are read and written first-class, AIGER 1.9
//! style: a latch line is `Q next [init]`, where the optional reset value is
//! `0` (the default), `1`, or the latch's own literal for an uninitialised
//! (`X`) latch.  Inside the [`Aig`] the latch keeps the *combinational
//! abstraction* the sweeping engines rely on — its current state is an extra
//! primary input, its next-state function an extra primary output — plus a
//! [`crate::Latch`] record tying the two together with the reset value, so
//! sequential algorithms (ternary initialisation, k-step unrolling) see the
//! full transition system.
//!
//! Writers renumber canonically — real inputs first, then latch states,
//! then AND gates in topological order — which is exactly the numbering the
//! binary format mandates, and makes `write ∘ read` the identity on written
//! files for the ASCII format too.

use crate::{Aig, AigNode, LatchInit, Lit};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Errors produced while reading or writing AIGER files.
#[derive(Debug)]
pub enum AigerError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not follow the AIGER format.
    Format(String),
}

impl fmt::Display for AigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigerError::Io(e) => write!(f, "aiger i/o error: {e}"),
            AigerError::Format(msg) => write!(f, "invalid aiger file: {msg}"),
        }
    }
}

impl Error for AigerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AigerError::Io(e) => Some(e),
            AigerError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for AigerError {
    fn from(e: std::io::Error) -> Self {
        AigerError::Io(e)
    }
}

/// The most inputs a binary (`aig`) header may declare.  Binary inputs are
/// implicit, so unlike every other count the body length does not bound
/// them; this cap keeps a hostile few-byte header from allocating
/// gigabytes (reading 2^20 implicit inputs peaks at about 90 MB).  The
/// ASCII format spells every input out and has no such cap.
pub const MAX_BINARY_INPUTS: usize = 1 << 20;

fn format_err(msg: impl Into<String>) -> AigerError {
    AigerError::Format(msg.into())
}

/// Reads an AIGER file (ASCII or binary, detected from the header).
///
/// # Errors
///
/// Returns [`AigerError`] on I/O failure or malformed content.
pub fn read_aiger(path: impl AsRef<Path>) -> Result<Aig, AigerError> {
    let bytes = fs::read(path)?;
    read_aiger_bytes(&bytes)
}

/// Parses an ASCII AIGER description from a string.
///
/// # Errors
///
/// Returns [`AigerError::Format`] on malformed content.
pub fn read_aiger_str(text: &str) -> Result<Aig, AigerError> {
    read_aiger_bytes(text.as_bytes())
}

/// Parses AIGER content from raw bytes (ASCII `aag` or binary `aig`).
///
/// # Errors
///
/// Returns [`AigerError::Format`] on malformed content.
pub fn read_aiger_bytes(bytes: &[u8]) -> Result<Aig, AigerError> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| format_err("missing header line"))?;
    let header =
        std::str::from_utf8(&bytes[..header_end]).map_err(|_| format_err("header is not utf-8"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 6 {
        return Err(format_err("header must be '<fmt> M I L O A'"));
    }
    let parse = |s: &str| -> Result<usize, AigerError> {
        s.parse::<usize>()
            .map_err(|_| format_err(format!("invalid number '{s}' in header")))
    };
    let m = parse(fields[1])?;
    let i = parse(fields[2])?;
    let l = parse(fields[3])?;
    let o = parse(fields[4])?;
    let a = parse(fields[5])?;
    let overflow = || format_err("header counts overflow");
    let defined = i
        .checked_add(l)
        .and_then(|n| n.checked_add(a))
        .ok_or_else(overflow)?;
    // The ASCII format allows M to exceed I+L+A (unused variable indices);
    // the binary format requires equality.
    let ascii = fields[0] == "aag";
    if m < defined || (!ascii && m != defined) {
        return Err(format_err(format!(
            "inconsistent header: M={m} but I+L+A={defined}"
        )));
    }
    // A node literal is 32 bits wide: two per variable.
    if m > (u32::MAX / 2) as usize {
        return Err(format_err(format!(
            "M={m} exceeds the {} variables a literal can address",
            u32::MAX / 2
        )));
    }
    // Every entry takes at least two bytes of body: a one-digit line plus
    // its newline, or a binary AND's two deltas.  Binary inputs are
    // implicit, so they are capped instead.  A header that declares more
    // than this is rejected before anything is allocated for it.
    if !ascii && i > MAX_BINARY_INPUTS {
        return Err(format_err(format!(
            "binary header declares {i} inputs, more than the {MAX_BINARY_INPUTS} \
             a binary file may (write it as ascii instead)"
        )));
    }
    let body = &bytes[header_end + 1..];
    let entries = if ascii {
        defined.checked_add(o)
    } else {
        l.checked_add(o).and_then(|n| n.checked_add(a))
    }
    .ok_or_else(overflow)?;
    if entries.saturating_mul(2) > body.len() + 1 {
        return Err(format_err(format!(
            "header declares {entries} entries but the body has only {} bytes",
            body.len()
        )));
    }
    match fields[0] {
        "aag" => {
            let body =
                std::str::from_utf8(body).map_err(|_| format_err("ascii body is not utf-8"))?;
            read_ascii(body, m, i, l, o, a)
        }
        "aig" => read_binary(body, m, i, l, o, a),
        other => Err(format_err(format!("unknown format tag '{other}'"))),
    }
}

/// Parses a literal field and range-checks it against the header's `M`:
/// AIGER literals run from 0 to `2M + 1`.
fn parse_lit(text: &str, m: usize, what: &str) -> Result<usize, AigerError> {
    let lit: usize = text
        .trim()
        .parse()
        .map_err(|_| format_err(format!("invalid {what} '{text}'")))?;
    if lit / 2 > m {
        return Err(format_err(format!(
            "{what} {lit} exceeds the largest literal 2M+1 = {}",
            m.saturating_mul(2).saturating_add(1)
        )));
    }
    Ok(lit)
}

/// Maps an AIGER literal to a [`Lit`], given the node literal of its
/// variable (`None` if the variable is undefined).
fn map_lit(aiger_lit: usize, base: Option<Lit>) -> Result<Lit, AigerError> {
    let base = base.ok_or_else(|| {
        format_err(format!(
            "literal {aiger_lit} references undefined var {}",
            aiger_lit / 2
        ))
    })?;
    Ok(base.complement_if(aiger_lit % 2 == 1))
}

/// Parses the optional reset field of a latch line.  `q` is the latch's own
/// (even) literal: AIGER 1.9 spells an uninitialised latch by using it as
/// the reset value.
fn parse_latch_init(field: Option<&str>, q: usize) -> Result<LatchInit, AigerError> {
    match field {
        None => Ok(LatchInit::Zero),
        Some("0") => Ok(LatchInit::Zero),
        Some("1") => Ok(LatchInit::One),
        Some(text) => {
            let value: usize = text
                .parse()
                .map_err(|_| format_err(format!("invalid latch reset value '{text}'")))?;
            if value == q {
                Ok(LatchInit::X)
            } else {
                Err(format_err(format!(
                    "latch reset must be 0, 1 or the latch literal {q}, got {value}"
                )))
            }
        }
    }
}

/// Adds the outputs and latch next-state functions; `var` looks up the node
/// literal of an AIGER variable.
fn finish(
    mut aig: Aig,
    var: impl Fn(usize) -> Option<Lit>,
    latches: &[(usize, LatchInit)],
    output_lits: &[usize],
) -> Result<Aig, AigerError> {
    for (idx, &lit) in output_lits.iter().enumerate() {
        let lit = map_lit(lit, var(lit / 2))?;
        aig.add_output(format!("po{idx}"), lit);
    }
    // Latch state inputs were created right after the real inputs; the
    // next-state outputs go right after the real outputs.
    let input_base = aig.num_inputs() - latches.len();
    for (idx, &(next, init)) in latches.iter().enumerate() {
        let lit = map_lit(next, var(next / 2))?;
        let next_output = aig.num_outputs();
        aig.add_output(format!("latch_next{idx}"), lit);
        aig.define_latch(input_base + idx, next_output, init);
    }
    Ok(aig)
}

fn read_ascii(
    body: &str,
    m: usize,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
) -> Result<Aig, AigerError> {
    let mut lines = body.lines();
    let mut next_line = |what: &str| -> Result<&str, AigerError> {
        lines
            .next()
            .ok_or_else(|| format_err(format!("unexpected end of file while reading {what}")))
    };
    let mut aig = Aig::new();
    // ASCII variable indices may leave gaps up to `M`, so the map holds
    // only the variables the body defines.
    let mut var_map: HashMap<usize, Lit> = HashMap::with_capacity(i + l + a + 1);
    var_map.insert(0, Lit::FALSE);

    // Inputs.
    for idx in 0..i {
        let lit = parse_lit(next_line("inputs")?, m, "input literal")?;
        if lit % 2 != 0 {
            return Err(format_err("input literal must be even"));
        }
        let input = aig.add_input(format!("pi{idx}"));
        var_map.insert(lit / 2, input);
    }
    // Latches: the state side becomes an extra PI; the reset field is kept.
    let mut latches = Vec::with_capacity(l);
    for idx in 0..l {
        let line = next_line("latches")?;
        let mut parts = line.split_whitespace();
        let q = parse_lit(
            parts
                .next()
                .ok_or_else(|| format_err("latch line missing literal"))?,
            m,
            "latch literal",
        )?;
        if q % 2 != 0 {
            return Err(format_err("latch literal must be even"));
        }
        let next = parse_lit(
            parts
                .next()
                .ok_or_else(|| format_err("latch line missing next-state literal"))?,
            m,
            "latch next-state literal",
        )?;
        let init = parse_latch_init(parts.next(), q)?;
        let latch = aig.add_input(format!("latch{idx}"));
        var_map.insert(q / 2, latch);
        latches.push((next, init));
    }
    // Outputs.
    let mut output_lits = Vec::with_capacity(o);
    for _ in 0..o {
        output_lits.push(parse_lit(next_line("outputs")?, m, "output literal")?);
    }
    // AND gates.  The ASCII format allows definitions in any order, so gather
    // them first and insert in passes until every fanin is defined.
    let mut pending: Vec<(usize, usize, usize)> = Vec::with_capacity(a);
    for _ in 0..a {
        let line = next_line("and gates")?;
        let mut parts = line.split_whitespace();
        let mut next_num = |what: &str| -> Result<usize, AigerError> {
            let field = parts
                .next()
                .ok_or_else(|| format_err(format!("and line missing {what}")))?;
            parse_lit(field, m, what)
        };
        let lhs = next_num("lhs")?;
        let rhs0 = next_num("rhs0")?;
        let rhs1 = next_num("rhs1")?;
        if lhs % 2 != 0 {
            return Err(format_err("and gate lhs must be even"));
        }
        pending.push((lhs, rhs0, rhs1));
    }
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&(lhs, rhs0, rhs1)| {
            let (Some(&f0), Some(&f1)) = (var_map.get(&(rhs0 / 2)), var_map.get(&(rhs1 / 2)))
            else {
                return true;
            };
            // Constant folding or structural hashing may return any
            // literal (possibly complemented); the map stores it as-is.
            let lit = aig.and(
                f0.complement_if(rhs0 % 2 == 1),
                f1.complement_if(rhs1 % 2 == 1),
            );
            var_map.insert(lhs / 2, lit);
            false
        });
        if pending.len() == before {
            return Err(format_err(
                "cyclic or dangling and-gate definitions in aag body",
            ));
        }
    }
    finish(
        aig,
        |var| var_map.get(&var).copied(),
        &latches,
        &output_lits,
    )
}

fn read_binary(
    body: &[u8],
    m: usize,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
) -> Result<Aig, AigerError> {
    let mut aig = Aig::new();
    // Binary variables are dense (`M = I + L + A`), and the header checks
    // bounded `L + A` by the body length and `I` by `MAX_BINARY_INPUTS`.
    let mut var_map: Vec<Option<Lit>> = vec![None; m + 1];
    var_map[0] = Some(Lit::FALSE);
    // In the binary format inputs are implicitly variables 1..=i.
    for idx in 0..i {
        let input = aig.add_input(format!("pi{idx}"));
        var_map[idx + 1] = Some(input);
    }
    let mut cursor = 0usize;
    let read_line = |cursor: &mut usize| -> Result<String, AigerError> {
        let start = *cursor;
        while *cursor < body.len() && body[*cursor] != b'\n' {
            *cursor += 1;
        }
        let line = std::str::from_utf8(&body[start..*cursor])
            .map_err(|_| format_err("non-utf8 text section"))?
            .to_string();
        *cursor += 1; // skip newline
        Ok(line)
    };
    // Latches: "<next> [init]" per line; latch states are variables
    // i+1..=i+l, which is also how an uninitialised reset value is spelled.
    let mut latches = Vec::with_capacity(l);
    for idx in 0..l {
        let line = read_line(&mut cursor)?;
        let mut parts = line.split_whitespace();
        let next = parse_lit(
            parts
                .next()
                .ok_or_else(|| format_err("latch line missing next-state literal"))?,
            m,
            "latch next-state literal",
        )?;
        let init = parse_latch_init(parts.next(), 2 * (i + idx + 1))?;
        let latch = aig.add_input(format!("latch{idx}"));
        var_map[i + idx + 1] = Some(latch);
        latches.push((next, init));
    }
    // Outputs.
    let mut output_lits = Vec::with_capacity(o);
    for _ in 0..o {
        output_lits.push(parse_lit(&read_line(&mut cursor)?, m, "output literal")?);
    }
    // AND gates, delta-encoded.
    let read_delta = |cursor: &mut usize| -> Result<usize, AigerError> {
        let mut value = 0usize;
        let mut shift = 0u32;
        loop {
            if *cursor >= body.len() {
                return Err(format_err("unexpected end of binary and-gate section"));
            }
            let byte = body[*cursor];
            *cursor += 1;
            value |= ((byte & 0x7f) as usize) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    };
    for idx in 0..a {
        let lhs = 2 * (i + l + idx + 1);
        let delta0 = read_delta(&mut cursor)?;
        let delta1 = read_delta(&mut cursor)?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .ok_or_else(|| format_err("invalid delta0"))?;
        let rhs1 = rhs0
            .checked_sub(delta1)
            .ok_or_else(|| format_err("invalid delta1"))?;
        // Both fanins are at most `lhs`, so they are in range.
        let f0 = map_lit(rhs0, var_map[rhs0 / 2])?;
        let f1 = map_lit(rhs1, var_map[rhs1 / 2])?;
        let lit = aig.and(f0, f1);
        var_map[lhs / 2] = Some(lit);
    }
    finish(
        aig,
        |var| var_map.get(var).copied().flatten(),
        &latches,
        &output_lits,
    )
}

/// The canonical AIGER numbering shared by both writers: real inputs (in
/// input order), then latch state inputs (in latch order), then AND nodes in
/// topological (index) order — exactly what the binary format mandates.
struct WriterPlan {
    /// AIGER variable index of every node.
    var_of_node: Vec<usize>,
    /// AND node ids in emission order.
    and_nodes: Vec<usize>,
    /// Output indices that are *real* primary outputs (not latch-next).
    real_outputs: Vec<usize>,
    /// Number of real (non-latch) inputs.
    num_real_inputs: usize,
}

impl WriterPlan {
    fn new(aig: &Aig) -> Self {
        let mut is_latch_input = vec![false; aig.num_inputs()];
        let mut is_latch_output = vec![false; aig.num_outputs()];
        for latch in aig.latches() {
            is_latch_input[latch.state_input] = true;
            is_latch_output[latch.next_output] = true;
        }
        let mut var_of_node: Vec<usize> = vec![0; aig.num_nodes()];
        let mut next_var = 1usize;
        for (position, &id) in aig.inputs().iter().enumerate() {
            if !is_latch_input[position] {
                var_of_node[id] = next_var;
                next_var += 1;
            }
        }
        for latch in aig.latches() {
            var_of_node[aig.inputs()[latch.state_input]] = next_var;
            next_var += 1;
        }
        let mut and_nodes = Vec::new();
        for id in aig.node_ids() {
            if aig.node(id).is_and() {
                var_of_node[id] = next_var;
                next_var += 1;
                and_nodes.push(id);
            }
        }
        let real_outputs = (0..aig.num_outputs())
            .filter(|&idx| !is_latch_output[idx])
            .collect();
        WriterPlan {
            var_of_node,
            and_nodes,
            real_outputs,
            num_real_inputs: aig.num_inputs() - aig.num_latches(),
        }
    }

    fn lit_of(&self, lit: Lit) -> usize {
        2 * self.var_of_node[lit.node()] + lit.is_complemented() as usize
    }

    /// The `M I L O A` header fields.
    fn header(&self, aig: &Aig) -> (usize, usize, usize, usize, usize) {
        (
            self.num_real_inputs + aig.num_latches() + self.and_nodes.len(),
            self.num_real_inputs,
            aig.num_latches(),
            self.real_outputs.len(),
            self.and_nodes.len(),
        )
    }

    /// The latch line body `next [init]` (the reset field is omitted for the
    /// default 0, `1` for one, and the latch's own literal for `X`).
    fn latch_line(&self, aig: &Aig, index: usize) -> String {
        let latch = aig.latches()[index];
        let next = self.lit_of(aig.outputs()[latch.next_output].lit);
        let q = 2 * self.var_of_node[aig.inputs()[latch.state_input]];
        match latch.init {
            LatchInit::Zero => format!("{next}"),
            LatchInit::One => format!("{next} 1"),
            LatchInit::X => format!("{next} {q}"),
        }
    }
}

/// Serialises an AIG to the ASCII AIGER format (latches written AIGER 1.9
/// style, with reset values).
pub fn write_aiger_string(aig: &Aig) -> String {
    let plan = WriterPlan::new(aig);
    let (m, i, l, o, a) = plan.header(aig);
    let mut out = String::new();
    out.push_str(&format!("aag {m} {i} {l} {o} {a}\n"));
    let mut is_latch_input = vec![false; aig.num_inputs()];
    for latch in aig.latches() {
        is_latch_input[latch.state_input] = true;
    }
    for (position, &id) in aig.inputs().iter().enumerate() {
        if !is_latch_input[position] {
            out.push_str(&format!("{}\n", 2 * plan.var_of_node[id]));
        }
    }
    for index in 0..aig.num_latches() {
        let latch = aig.latches()[index];
        let q = 2 * plan.var_of_node[aig.inputs()[latch.state_input]];
        out.push_str(&format!("{q} {}\n", plan.latch_line(aig, index)));
    }
    for &idx in &plan.real_outputs {
        out.push_str(&format!("{}\n", plan.lit_of(aig.outputs()[idx].lit)));
    }
    for &id in &plan.and_nodes {
        if let AigNode::And { fanin0, fanin1 } = aig.node(id) {
            out.push_str(&format!(
                "{} {} {}\n",
                2 * plan.var_of_node[id],
                plan.lit_of(*fanin0),
                plan.lit_of(*fanin1)
            ));
        }
    }
    out
}

/// Serialises an AIG to the binary AIGER format (`aig` header, implicit
/// input/latch variables, delta-coded AND gates).
pub fn write_aiger_binary_bytes(aig: &Aig) -> Vec<u8> {
    let plan = WriterPlan::new(aig);
    let (m, i, l, o, a) = plan.header(aig);
    let mut out = Vec::new();
    out.extend_from_slice(format!("aig {m} {i} {l} {o} {a}\n").as_bytes());
    for index in 0..aig.num_latches() {
        out.extend_from_slice(format!("{}\n", plan.latch_line(aig, index)).as_bytes());
    }
    for &idx in &plan.real_outputs {
        out.extend_from_slice(format!("{}\n", plan.lit_of(aig.outputs()[idx].lit)).as_bytes());
    }
    let mut write_delta = |mut value: usize| {
        while value >= 0x80 {
            out.push((value & 0x7f) as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    };
    for &id in &plan.and_nodes {
        if let AigNode::And { fanin0, fanin1 } = aig.node(id) {
            let lhs = 2 * plan.var_of_node[id];
            let (e0, e1) = (plan.lit_of(*fanin0), plan.lit_of(*fanin1));
            // The binary format wants rhs0 >= rhs1; both are smaller than
            // lhs because fanin variables are assigned before the gate's.
            let (rhs0, rhs1) = if e0 >= e1 { (e0, e1) } else { (e1, e0) };
            write_delta(lhs - rhs0);
            write_delta(rhs0 - rhs1);
        }
    }
    out
}

/// Writes an AIG to a file in ASCII AIGER format.
///
/// # Errors
///
/// Returns [`AigerError::Io`] on I/O failure.
pub fn write_aiger(aig: &Aig, path: impl AsRef<Path>) -> Result<(), AigerError> {
    fs::write(path, write_aiger_string(aig))?;
    Ok(())
}

/// Writes an AIG to a file in binary AIGER format.
///
/// # Errors
///
/// Returns [`AigerError::Io`] on I/O failure.
pub fn write_aiger_binary(aig: &Aig, path: impl AsRef<Path>) -> Result<(), AigerError> {
    fs::write(path, write_aiger_binary_bytes(aig))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.xor(a, b);
        let y = aig.and(x, c);
        aig.add_output("po0", y);
        aig.add_output("po1", !x);
        aig
    }

    #[test]
    fn ascii_round_trip_preserves_function() {
        let original = sample_aig();
        let text = write_aiger_string(&original);
        let parsed = read_aiger_str(&text).unwrap();
        assert_eq!(parsed.num_inputs(), original.num_inputs());
        assert_eq!(parsed.num_outputs(), original.num_outputs());
        for i in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(parsed.evaluate(&assignment), original.evaluate(&assignment));
        }
    }

    #[test]
    fn parses_reference_ascii_example() {
        // Half adder from the AIGER specification.
        let text = "aag 7 2 0 2 3\n2\n4\n6\n12\n6 13 15\n12 2 4\n14 3 5\n";
        let aig = read_aiger_str(text).unwrap();
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_outputs(), 2);
        // Output 0 is the sum (xor), output 1 is the carry (and).
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = aig.evaluate(&[a, b]);
            assert_eq!(values[0], a ^ b, "sum for {a} {b}");
            assert_eq!(values[1], a && b, "carry for {a} {b}");
        }
    }

    #[test]
    fn binary_round_trip_via_reference_bytes() {
        // The same half adder in binary format: header + delta-coded ANDs.
        // and gates: lhs 8: rhs 2,4 -> deltas 6,? ... easier: encode with our
        // own writer is ASCII-only, so craft the binary content manually.
        // Variables: inputs 1,2; ands 3,4,5.
        //   6 = 2 & 4        (lhs 6, deltas 4, 2)... lhs must be 2*(i+l+idx+1)
        // idx0: lhs=6 rhs0=4 rhs1=2 -> deltas 2,2
        // idx1: lhs=8 rhs0=5 rhs1=3 -> deltas 3,2
        // idx2: lhs=10 rhs0=9 rhs1=7 -> deltas 1,2
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"aig 5 2 0 2 3\n");
        bytes.extend_from_slice(b"10\n6\n"); // outputs: po0=10 (xor), po1=6 (carry-ish)
        for delta in [2u8, 2, 3, 2, 1, 2] {
            bytes.push(delta);
        }
        let aig = read_aiger_bytes(&bytes).unwrap();
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_outputs(), 2);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = aig.evaluate(&[a, b]);
            // out0 = !( (a&b) ... ) construction: node6 = a&b, node8 = !a&!b,
            // node10 = !node6 & !node8 = xor
            assert_eq!(values[0], a ^ b);
            assert_eq!(values[1], a && b);
        }
    }

    #[test]
    fn latches_become_inputs_and_outputs() {
        let text = "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 4\n";
        let aig = read_aiger_str(text).unwrap();
        // One real PI plus one latch-output PI; one PO plus one latch-next PO.
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_outputs(), 2);
        // ...and the latch itself is registered first-class.
        assert_eq!(aig.num_latches(), 1);
        let latch = aig.latches()[0];
        assert_eq!(latch.state_input, 1);
        assert_eq!(latch.next_output, 1);
        assert_eq!(latch.init, crate::LatchInit::Zero);
    }

    /// A toggle-with-enable register plus an uninitialised shadow latch.
    fn sequential_aig() -> Aig {
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        let q = aig.add_latch("q", crate::LatchInit::One);
        let s = aig.add_latch("s", crate::LatchInit::X);
        let next = aig.mux(en, !q, q);
        aig.set_latch_next(0, next);
        aig.set_latch_next(1, !s);
        let o = aig.and(q, s);
        aig.add_output("o", o);
        aig
    }

    #[test]
    fn ascii_latch_round_trip_is_identity() {
        let original = sequential_aig();
        let text = write_aiger_string(&original);
        let parsed = read_aiger_str(&text).unwrap();
        assert_eq!(parsed.num_latches(), 2);
        assert_eq!(parsed.latches()[0].init, crate::LatchInit::One);
        assert_eq!(parsed.latches()[1].init, crate::LatchInit::X);
        // write ∘ read is the identity on written files.
        assert_eq!(write_aiger_string(&parsed), text);
    }

    #[test]
    fn binary_latch_round_trip_preserves_the_transition_system() {
        let original = sequential_aig();
        let bytes = write_aiger_binary_bytes(&original);
        let parsed = read_aiger_bytes(&bytes).unwrap();
        assert_eq!(parsed.num_latches(), 2);
        assert_eq!(parsed.latches()[0].init, crate::LatchInit::One);
        assert_eq!(parsed.latches()[1].init, crate::LatchInit::X);
        assert_eq!(parsed.num_inputs(), original.num_inputs());
        assert_eq!(parsed.num_outputs(), original.num_outputs());
        // Same transition system.  The reader orders real POs before
        // latch-next outputs, so compare by role instead of raw position.
        let eval_roles = |aig: &Aig, assignment: &[bool]| {
            let values = aig.evaluate(assignment);
            let pos: Vec<bool> = (0..aig.num_outputs())
                .filter(|&idx| !aig.is_latch_next_output(idx))
                .map(|idx| values[idx])
                .collect();
            let nexts: Vec<bool> = aig
                .latches()
                .iter()
                .map(|l| values[l.next_output])
                .collect();
            (pos, nexts)
        };
        for i in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(
                eval_roles(&parsed, &assignment),
                eval_roles(&original, &assignment)
            );
        }
        // And the binary writer is a fixpoint of its own read-back.
        assert_eq!(write_aiger_binary_bytes(&parsed), bytes);
    }

    #[test]
    fn binary_writer_agrees_with_ascii_writer() {
        let original = sequential_aig();
        let via_binary = read_aiger_bytes(&write_aiger_binary_bytes(&original)).unwrap();
        let via_ascii = read_aiger_str(&write_aiger_string(&original)).unwrap();
        assert_eq!(
            write_aiger_string(&via_binary),
            write_aiger_string(&via_ascii)
        );
    }

    #[test]
    fn rejects_bad_latch_resets() {
        // Reset literal that is neither 0, 1 nor the latch's own literal.
        assert!(read_aiger_str("aag 3 1 1 1 1\n2\n4 6 2\n6\n6 2 4\n").is_err());
        // Odd latch literal.
        assert!(read_aiger_str("aag 3 1 1 1 1\n2\n5 6\n6\n6 2 4\n").is_err());
        // Garbage reset field.
        assert!(read_aiger_str("aag 3 1 1 1 1\n2\n4 6 zz\n6\n6 2 4\n").is_err());
    }

    #[test]
    fn uninitialised_reset_uses_the_latch_literal() {
        // "4 6 4": latch var 2 with reset = its own literal → X.
        let aig = read_aiger_str("aag 3 1 1 1 1\n2\n4 6 4\n6\n6 2 4\n").unwrap();
        assert_eq!(aig.latches()[0].init, crate::LatchInit::X);
        // "4 6 1": constant-one reset.
        let aig = read_aiger_str("aag 3 1 1 1 1\n2\n4 6 1\n6\n6 2 4\n").unwrap();
        assert_eq!(aig.latches()[0].init, crate::LatchInit::One);
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(read_aiger_str("garbage\n").is_err());
        assert!(read_aiger_str("aag 1 1 0 0\n").is_err());
        assert!(read_aiger_str("aag 5 1 0 0 1\n2\n").is_err());
        assert!(read_aiger_str("xyz 0 0 0 0 0\n").is_err());
    }

    #[test]
    fn hostile_headers_fail_before_allocating() {
        // A 24-byte header whose M would size a multi-gigabyte variable map.
        assert!(matches!(
            read_aiger_bytes(b"aag 3000000000 0 0 0 0\n"),
            Err(AigerError::Format(_))
        ));
        // Counts the body cannot hold, and counts that overflow.
        assert!(read_aiger_bytes(b"aag 1000000 1000000 0 0 0\n2\n").is_err());
        assert!(read_aiger_bytes(b"aig 1000 0 0 0 1000\n\x02\x01").is_err());
        assert!(read_aiger_bytes(b"aag 5 18446744073709551615 1 0 0\n").is_err());
        // Binary inputs are implicit, so the body cannot bound them.
        for header in [
            &b"aig 2000000000 2000000000 0 0 0\n"[..],
            &b"aig 1048577 1048577 0 0 0\n"[..],
        ] {
            assert!(matches!(
                read_aiger_bytes(header),
                Err(AigerError::Format(_))
            ));
        }
        // A sparse ASCII file is still read.
        let sparse = read_aiger_str("aag 1000 1 0 1 0\n2000\n2001\n").expect("valid");
        assert_eq!((sparse.num_inputs(), sparse.num_outputs()), (1, 1));
    }

    #[test]
    fn out_of_range_literals_are_errors_not_panics() {
        // AND fanin 9 exceeds 2M+1 = 7.
        assert!(matches!(
            read_aiger_str("aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n"),
            Err(AigerError::Format(_))
        ));
        // The same for an output, a latch next-state and a binary output.
        assert!(read_aiger_str("aag 1 1 0 1 0\n2\n5\n").is_err());
        assert!(read_aiger_str("aag 2 1 1 0 0\n2\n4 7\n").is_err());
        assert!(read_aiger_bytes(b"aig 1 1 0 1 0\n9\n").is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("netlist_aiger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.aag");
        let original = sample_aig();
        write_aiger(&original, &path).unwrap();
        let parsed = read_aiger(&path).unwrap();
        assert_eq!(parsed.num_ands(), original.num_ands());
        std::fs::remove_file(&path).ok();
    }
}
