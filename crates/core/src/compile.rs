//! Array references compiled once per pass.
//!
//! Every static pass that maps an array reference at an iteration point to
//! volume bytes goes through [`CompiledProgram`]: this crate's disk masks
//! and layout-aware parallelizer, the trace generator in dpm-trace, and the
//! energy oracle and hint verifier in dpm-analyze. The IR keeps subscripts as [`LinExpr`](dpm_poly::LinExpr)s
//! evaluated in `i128` into a coordinate buffer, then linearized and
//! searched for in the layout's segments; doing that per access cost more
//! than everything else those passes do. [`CompiledProgram`] flattens each
//! reference once: per array dimension a constant, an extent, and the
//! non-zero coefficients with their loop variables. An access is then a
//! few checked `i64` multiply-adds and one [`LayoutMap::linear_offset`]
//! lookup. A pass compiles the program once and keeps the result for the
//! whole walk.
//!
//! The compiled form keeps the IR's failure modes: subscript overflow
//! panics with the same message as `LinExpr::eval`, and an out-of-bounds
//! coordinate panics with `ArrayDecl::linearize`'s message, naming the
//! array.

use dpm_ir::{AccessKind, ArrayId, ArrayRef, NestId, Program};
use dpm_layout::LayoutMap;

/// One array dimension of a compiled reference.
#[derive(Clone, Copy, Debug)]
struct Dim {
    constant: i64,
    extent: u64,
    /// End of this dimension's terms in [`CompiledRef::terms`]; they start
    /// where the previous dimension's end.
    terms_end: usize,
}

/// One array reference in flat affine form.
#[derive(Debug)]
pub struct CompiledRef {
    array: ArrayId,
    /// Whether the reference reads or writes.
    pub kind: AccessKind,
    /// Bytes per element of the array.
    pub elem_bytes: u64,
    /// Number of loop variables the subscripts range over. A reference
    /// whose subscripts disagree with each other or with the array's rank
    /// gets `usize::MAX`, so its first evaluation takes the panic path.
    depth: usize,
    /// Why the reference is malformed, when it is.
    malformed: Option<&'static str>,
    dims: Box<[Dim]>,
    /// `(loop variable, coefficient)` for every non-zero coefficient,
    /// dimension by dimension. Zero terms can neither change a subscript
    /// nor overflow it, so leaving them out changes no result and no panic.
    terms: Box<[(usize, i64)]>,
}

impl CompiledRef {
    fn new(program: &Program, r: &ArrayRef) -> CompiledRef {
        let decl = &program.arrays[r.array];
        let depth = r.indices.first().map_or(0, |e| e.dim());
        let malformed = if r.indices.iter().any(|e| e.dim() != depth) {
            Some("point dimension mismatch in eval")
        } else if r.indices.len() != decl.rank() {
            Some("coordinate rank mismatch")
        } else {
            None
        };
        let mut dims = Vec::with_capacity(decl.rank());
        let mut terms = Vec::new();
        if malformed.is_none() {
            for (e, &extent) in r.indices.iter().zip(&decl.dims) {
                terms.extend(
                    e.coeffs()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a != 0)
                        .map(|(v, &a)| (v, a)),
                );
                dims.push(Dim {
                    constant: e.constant_term(),
                    extent,
                    terms_end: terms.len(),
                });
            }
        }
        CompiledRef {
            array: r.array,
            kind: r.kind,
            elem_bytes: u64::from(decl.elem_bytes),
            depth: if malformed.is_some() {
                usize::MAX
            } else {
                depth
            },
            malformed,
            dims: dims.into_boxed_slice(),
            terms: terms.into_boxed_slice(),
        }
    }

    /// Row-major linearized index of the element this reference touches at
    /// iteration `iter` — `decl.linearize(&r.element_at(iter))`.
    ///
    /// # Panics
    ///
    /// Panics on an iteration of the wrong arity, on subscript overflow,
    /// and on an out-of-bounds coordinate (naming the array).
    #[inline]
    pub(crate) fn linear_index(&self, program: &Program, iter: &[i64]) -> u64 {
        if iter.len() != self.depth {
            self.reject();
        }
        let mut lin = 0u64;
        let mut start = 0;
        for dim in &*self.dims {
            let mut c = dim.constant;
            for &(v, a) in &self.terms[start..dim.terms_end] {
                c = match a.checked_mul(iter[v]).and_then(|t| c.checked_add(t)) {
                    Some(c) => c,
                    None => overflow(),
                };
            }
            start = dim.terms_end;
            if c < 0 || c as u64 >= dim.extent {
                out_of_bounds(c, dim.extent, &program.arrays[self.array].name);
            }
            lin = lin * dim.extent + c as u64;
        }
        lin
    }

    /// Volume byte offset of the element touched at `iter` —
    /// `layout.element_offset(program, r.array, &r.element_at(iter))`.
    ///
    /// # Panics
    ///
    /// Panics on an iteration of the wrong arity, on subscript overflow,
    /// and on an out-of-bounds coordinate (naming the array).
    #[inline]
    pub fn offset(&self, program: &Program, layout: &LayoutMap, iter: &[i64]) -> u64 {
        layout.linear_offset(
            self.array,
            self.linear_index(program, iter),
            self.elem_bytes,
        )
    }

    /// The disks holding part of the element touched at `iter`, as a
    /// bitmask — `layout.disk_mask_of_element(program, r.array,
    /// &r.element_at(iter))`.
    ///
    /// # Panics
    ///
    /// As [`offset`](Self::offset), and if a touched disk id is ≥ 64.
    #[inline]
    pub fn disk_mask(&self, program: &Program, layout: &LayoutMap, iter: &[i64]) -> u64 {
        layout.disk_mask_of_bytes(self.offset(program, layout, iter), self.elem_bytes)
    }

    #[cold]
    #[inline(never)]
    fn reject(&self) -> ! {
        panic!(
            "{}",
            self.malformed.unwrap_or("point dimension mismatch in eval")
        )
    }
}

#[cold]
#[inline(never)]
fn overflow() -> ! {
    panic!("overflow evaluating LinExpr")
}

#[cold]
#[inline(never)]
fn out_of_bounds(c: i64, extent: u64, array: &str) -> ! {
    panic!("coordinate {c} out of bounds for extent {extent} in array {array}")
}

/// One statement: its compiled references in body order, and its compute
/// cost.
#[derive(Debug)]
pub struct CompiledStmt {
    /// The statement's references, in body order.
    pub refs: Vec<CompiledRef>,
    /// Compute cycles of one execution.
    pub cost_cycles: u64,
}

/// Every statement of every nest, compiled.
#[derive(Debug)]
pub struct CompiledProgram {
    nests: Vec<Vec<CompiledStmt>>,
}

impl CompiledProgram {
    /// Compiles every array reference of `program`.
    pub fn new(program: &Program) -> CompiledProgram {
        CompiledProgram {
            nests: program
                .nests
                .iter()
                .map(|nest| {
                    nest.body
                        .iter()
                        .map(|stmt| CompiledStmt {
                            refs: stmt
                                .refs
                                .iter()
                                .map(|r| CompiledRef::new(program, r))
                                .collect(),
                            cost_cycles: stmt.cost_cycles,
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// The statements of `nest`, in body order.
    ///
    /// # Panics
    ///
    /// Panics if `nest` is out of range.
    #[inline]
    pub fn nest(&self, nest: NestId) -> &[CompiledStmt] {
        &self.nests[nest]
    }

    /// The disks iteration `iter` of `nest` touches, as a bitmask (bit `d`
    /// set ⇔ some reference accesses a byte on disk `d`) —
    /// [`iteration_disk_mask`](crate::iteration_disk_mask).
    ///
    /// # Panics
    ///
    /// As [`CompiledRef::disk_mask`].
    #[inline]
    pub fn disk_mask(
        &self,
        program: &Program,
        layout: &LayoutMap,
        nest: NestId,
        iter: &[i64],
    ) -> u64 {
        self.nest(nest)
            .iter()
            .flat_map(|stmt| &stmt.refs)
            .fold(0, |mask, r| mask | r.disk_mask(program, layout, iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_layout::{FileMapping, Striping};

    /// Checks every reference of every iteration of `program` against the
    /// IR's own evaluation under `layout`, and every iteration's compiled
    /// disk mask against `iteration_disk_mask`.
    fn assert_offsets_match(program: &Program, layout: &LayoutMap) -> u64 {
        let compiled = CompiledProgram::new(program);
        let mut checked = 0;
        for (ni, nest) in program.nests.iter().enumerate() {
            let stmts = compiled.nest(ni);
            nest.walk(|it| {
                for (stmt, cstmt) in nest.body.iter().zip(stmts) {
                    for (r, cr) in stmt.refs.iter().zip(&cstmt.refs) {
                        let want = layout.element_offset(program, r.array, &r.element_at(it));
                        assert_eq!(cr.offset(program, layout, it), want, "nest {ni} at {it:?}");
                        checked += 1;
                    }
                }
                assert_eq!(
                    compiled.disk_mask(program, layout, ni, it),
                    crate::iteration_disk_mask(program, layout, ni, it),
                    "nest {ni} at {it:?}"
                );
            });
        }
        checked
    }

    #[test]
    fn offsets_match_the_ir_on_every_tiny_app() {
        for app in dpm_apps::suite(dpm_apps::Scale::Tiny) {
            let program = app.program();
            let layout = LayoutMap::new(&program, dpm_apps::paper_striping());
            assert!(assert_offsets_match(&program, &layout) > 0, "{}", app.name);
        }
    }

    #[test]
    fn offsets_match_the_ir_under_a_multi_segment_mapping() {
        let program = dpm_ir::parse_program(
            "program t; array A[16][16] : f64; array B[16][16] : f64;
             nest L { for i = 0 .. 15 { for j = 0 .. 15 { A[i][j] = B[15 - i][j] + A[i][15 - j]; } } }",
        )
        .unwrap();
        let striping = Striping::new(512, 3, 0);
        for mapping in [
            FileMapping::split_rows(&program, 0, 3),
            FileMapping::shared(&program, &[vec![1, 0]]),
        ] {
            let layout = LayoutMap::with_mapping(&program, striping, &mapping);
            assert_eq!(assert_offsets_match(&program, &layout), 3 * 256);
        }
    }

    #[test]
    #[should_panic(expected = "overflow evaluating LinExpr")]
    fn subscript_overflow_panics() {
        let program = dpm_ir::parse_program(
            "program t; array A[8] : f64;
             nest L { for i = 0 .. 7 { A[4 * i] = 1; } }",
        )
        .unwrap();
        let compiled = CompiledProgram::new(&program);
        compiled.nest(0)[0].refs[0].linear_index(&program, &[i64::MAX / 2]);
    }
}
