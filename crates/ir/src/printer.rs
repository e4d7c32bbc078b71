//! Pretty-printer: regenerates pseudo-language source from the IR.
//!
//! Used to display transformed programs (the paper's Figure 2(c) output) and
//! exercised by round-trip tests (`print → parse → same IR`).

use crate::ast::{ArrayRef, LoopNest, Program, Statement};
use crate::parser::DEFAULT_STMT_COST;

/// Renders a whole program as parseable pseudo-language source.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    out.push_str(&format!("program {};\n\n", p.name));
    for a in &p.arrays {
        out.push_str(&format!(
            "array {}{} : {};\n",
            a.name,
            a.dims.iter().map(|d| format!("[{d}]")).collect::<String>(),
            type_name(a.elem_bytes),
        ));
    }
    for n in &p.nests {
        out.push('\n');
        out.push_str(&print_nest(p, n));
    }
    out
}

fn type_name(elem_bytes: u32) -> String {
    match elem_bytes {
        8 => "f64".to_string(),
        4 => "f32".to_string(),
        2 => "i16".to_string(),
        1 => "i8".to_string(),
        n => format!("bytes({n})"),
    }
}

/// Renders one loop nest.
pub fn print_nest(p: &Program, n: &LoopNest) -> String {
    let names: Vec<&str> = n.var_names();
    let mut out = format!("nest {} {{\n", n.name);
    for (d, l) in n.loops.iter().enumerate() {
        let indent = "  ".repeat(d + 1);
        out.push_str(&format!(
            "{indent}for {} = {} .. {} {{\n",
            l.var,
            l.lo.display_with(&names),
            l.hi.display_with(&names),
        ));
    }
    let indent = "  ".repeat(n.depth() + 1);
    for s in &n.body {
        out.push_str(&format!("{indent}{}\n", print_statement(p, s, &names)));
    }
    for d in (0..n.depth()).rev() {
        out.push_str(&format!("{}}}\n", "  ".repeat(d + 1)));
    }
    out.push_str("}\n");
    out
}

/// Renders one statement.
pub fn print_statement(p: &Program, s: &Statement, names: &[&str]) -> String {
    let mut out = format!("{}: ", s.label);
    let write = s.refs.iter().position(|r| r.kind.is_write());
    let reads: Vec<&ArrayRef> = s.refs.iter().filter(|r| !r.kind.is_write()).collect();
    if let Some(w) = write {
        out.push_str(&print_ref(p, &s.refs[w], names));
        out.push_str(" = ");
    }
    if reads.is_empty() {
        if write.is_some() {
            out.push('0');
        } else {
            out.push_str("f()");
        }
    } else {
        let parts: Vec<String> = reads.iter().map(|r| print_ref(p, r, names)).collect();
        if write.is_none() {
            out.push_str(&format!("f({})", parts.join(", ")));
        } else {
            out.push_str(&parts.join(" + "));
        }
    }
    if s.cost_cycles != DEFAULT_STMT_COST {
        out.push_str(&format!(" @ {}", s.cost_cycles));
    }
    out.push(';');
    out
}

/// Renders one array reference, e.g. `U1[i + 2][j - 3]`.
pub fn print_ref(p: &Program, r: &ArrayRef, names: &[&str]) -> String {
    let mut out = p.arrays[r.array].name.clone();
    for ix in &r.indices {
        out.push_str(&format!("[{}]", ix.display_with(names)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SRC: &str = "program rt;
const N = 8;
array U1[N][N] : f64;
array U2[N][N] : f32;
nest L1 {
  for i = 0 .. N-1 {
    for j = 1 .. i {
      S1: U1[i][j] = U2[j][i] + U1[i][j-1] @ 250;
      S2: U2[i][j] = 0;
    }
  }
}
nest L2 {
  for i = 0 .. N-1 {
    f(U1[i][0]);
  }
}
";

    #[test]
    fn round_trip_preserves_ir() {
        let p1 = parse_program(SRC).unwrap();
        let printed = print_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(p1.arrays, p2.arrays);
        assert_eq!(p1.nests.len(), p2.nests.len());
        for (n1, n2) in p1.nests.iter().zip(&p2.nests) {
            assert_eq!(n1.loops, n2.loops);
            assert_eq!(n1.body.len(), n2.body.len());
            for (s1, s2) in n1.body.iter().zip(&n2.body) {
                assert_eq!(s1.cost_cycles, s2.cost_cycles);
                // Reference multisets agree (print may reorder write first).
                let mut r1 = s1.refs.clone();
                let mut r2 = s2.refs.clone();
                let key = |r: &crate::ast::ArrayRef| format!("{r:?}");
                r1.sort_by_key(&key);
                r2.sort_by_key(&key);
                assert_eq!(r1, r2);
            }
        }
    }

    #[test]
    fn printed_source_mentions_all_arrays() {
        let p = parse_program(SRC).unwrap();
        let s = print_program(&p);
        assert!(s.contains("array U1[8][8] : f64;"));
        assert!(s.contains("array U2[8][8] : f32;"));
        assert!(s.contains("@ 250"));
    }
}
