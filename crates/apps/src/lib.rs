//! # dpm-apps — the six disk-intensive benchmark applications
//!
//! Synthetic reconstructions of the applications in Table 2 of the CGO 2006
//! paper (AST, FFT, Cholesky, Visuo, SCF 3.0, RSense 2.0). The originals
//! are proprietary scientific codes; the paper characterizes them only by
//! domain, data size, request count, and regular array access patterns, so
//! each reconstruction reproduces the *access-pattern structure* its domain
//! is known for:
//!
//! | App      | Pattern skeleton                                              |
//! |----------|---------------------------------------------------------------|
//! | AST      | stencil advection sweeps + flux + checkpoint phases           |
//! | FFT      | row passes with twiddle reads + full transposes               |
//! | Cholesky | triangular sweeps + a dependence-carrying panel update        |
//! | Visuo    | 3-D volume transform + slab sampling + image rotation         |
//! | SCF      | symmetric (triangular) integral sweeps + transposed symmetrize|
//! | RSense   | band arithmetic + transposed column profiles + classification |
//!
//! Arrays are declared at *page-block granularity* (`bytes(4096)` elements):
//! one element = one 4 KB disk block, matching the paper's "access to
//! disk-resident data is made at a page block granularity" (§7.1). Data
//! sizes are scaled down from the paper's 87–153 GB so traces stay
//! laptop-sized; average request sizes and the compute/I-O balance (75–82 %
//! I/O) are preserved. Per-statement `@ cycles` costs stand in for the
//! paper's measured UltraSPARC-III cycle estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpm_ir::Program;
use dpm_layout::Striping;

/// How large to build the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full evaluation scale (~0.5–1 M iterations, a few GB of data per
    /// application) — used by the experiment harness.
    Paper,
    /// 1/2 linear scale — large enough that point-enumeration costs
    /// dominate; the geometry of the closed-form counting and cached
    /// projection-chain microbenches (`cargo bench --bench poly_ops`).
    Large,
    /// 1/8 linear scale — fast enough for integration tests.
    Small,
    /// 1/32 linear scale — unit-test speed.
    Tiny,
    /// Arbitrary linear divisor (1 = Paper).
    Custom(u64),
}

impl Scale {
    /// Linear divisor applied to array extents.
    ///
    /// # Panics
    ///
    /// Panics on `Scale::Custom(0)`.
    pub fn divisor(self) -> u64 {
        match self {
            Scale::Paper => 1,
            Scale::Large => 2,
            Scale::Small => 8,
            Scale::Tiny => 32,
            Scale::Custom(d) => {
                assert!(d > 0, "custom scale divisor must be positive");
                d
            }
        }
    }
}

/// One benchmark application: name, paper description, and source text.
#[derive(Clone, Debug)]
pub struct BenchApp {
    /// Short name as in Table 2 (e.g. `"AST"`).
    pub name: &'static str,
    /// The paper's one-line description.
    pub description: &'static str,
    /// Pseudo-language source.
    pub source: String,
}

impl BenchApp {
    /// Parses the source into IR.
    ///
    /// # Panics
    ///
    /// Panics if the built-in source fails to parse (a bug in this crate).
    pub fn program(&self) -> Program {
        dpm_ir::parse_program(&self.source)
            .unwrap_or_else(|e| panic!("builtin app {} failed to parse: {e}", self.name))
    }
}

/// The Table 1 striping every experiment uses: 32 KB stripe unit, 8 disks,
/// starting at the first disk.
pub fn paper_striping() -> Striping {
    Striping::paper_default()
}

/// All six applications at the given scale, in Table 2 order.
pub fn suite(scale: Scale) -> Vec<BenchApp> {
    vec![
        ast(scale),
        fft(scale),
        cholesky(scale),
        visuo(scale),
        scf(scale),
        rsense(scale),
    ]
}

/// Looks up one application by its Table 2 name (case-insensitive).
pub fn by_name(name: &str, scale: Scale) -> Option<BenchApp> {
    suite(scale)
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

/// AST — astrophysics: stencil advection over a ghost-padded grid, a flux
/// evaluation phase, and a checkpoint phase.
pub fn ast(scale: Scale) -> BenchApp {
    let n = 1024 / scale.divisor();
    let source = format!(
        "program ast;
const N = {n};
array GRID[N+2][N] : bytes(4096);
array NEXT[N+2][N] : bytes(4096);
array FLUX[N][N] : bytes(4096);
array CHK[N][N] : bytes(4096);
nest advect {{
  for i = 1 .. N {{
    for j = 0 .. N-1 {{
      NEXT[i][j] = f(GRID[i][j], GRID[i-1][j], GRID[i+1][j]) @ 90000;
    }}
  }}
}}
nest flux {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      FLUX[i][j] = g(NEXT[i+1][j]) @ 60000;
    }}
  }}
}}
nest checkpoint {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      CHK[i][j] = NEXT[i+1][j] + FLUX[j][i] @ 40000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "AST",
        description: "Astrophysics",
        source,
    }
}

/// FFT — row butterfly passes with a twiddle table plus the two full
/// transposes of the classic out-of-core four-step method.
pub fn fft(scale: Scale) -> BenchApp {
    let n = 896 / scale.divisor();
    let source = format!(
        "program fft;
const N = {n};
array A[N][N] : bytes(4096);
array B[N][N] : bytes(4096);
array W[2][N] : bytes(4096);
nest rowfft1 {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      A[i][j] = f(A[i][j], W[0][j]) @ 120000;
    }}
  }}
}}
nest transpose1 {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      B[i][j] = A[j][i] @ 20000;
    }}
  }}
}}
nest rowfft2 {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      B[i][j] = f(B[i][j], W[1][j]) @ 120000;
    }}
  }}
}}
nest transpose2 {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      A[i][j] = B[j][i] @ 20000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "FFT",
        description: "Fast Fourier Transform",
        source,
    }
}

/// Cholesky — triangular factorization sweeps, including a
/// dependence-carrying panel update (distance `(1, 0)`), a scaling pass
/// over the diagonal blocks, and the triangular output write.
pub fn cholesky(scale: Scale) -> BenchApp {
    let n = 1024 / scale.divisor();
    let source = format!(
        "program cholesky;
const N = {n};
array L[N][N] : bytes(4096);
array S[N][N] : bytes(4096);
array OUT[N][N] : bytes(4096);
nest panel {{
  for i = 1 .. N-1 {{
    for j = 0 .. i {{
      L[i][j] = f(L[i-1][j], L[i][j]) @ 110000;
    }}
  }}
}}
nest scale {{
  for i = 0 .. N-1 {{
    for j = 0 .. i {{
      S[i][j] = g(L[i][j], L[j][i]) @ 70000;
    }}
  }}
}}
nest write_out {{
  for i = 0 .. N-1 {{
    for j = 0 .. i {{
      OUT[i][j] = S[i][j] @ 40000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "Cholesky",
        description: "Cholesky Factorization",
        source,
    }
}

/// Visuo — 3-D visualization: per-voxel volume transform, slab sampling
/// into a frame, image rotation (transposed write), and display copy.
pub fn visuo(scale: Scale) -> BenchApp {
    let d = (8 / scale.divisor()).max(2);
    let n = 640 / scale.divisor();
    let source = format!(
        "program visuo;
const D = {d};
const N = {n};
array V[D][N][N] : bytes(4096);
array T[D][N][N] : bytes(4096);
array F[N][N] : bytes(4096);
array R[N][N] : bytes(4096);
nest transform {{
  for d = 0 .. D-1 {{
    for x = 0 .. N-1 {{
      for y = 0 .. N-1 {{
        T[d][x][y] = f(V[d][x][y]) @ 80000;
      }}
    }}
  }}
}}
nest sample {{
  for x = 0 .. N-1 {{
    for y = 0 .. N-1 {{
      F[x][y] = g(T[0][x][y], T[D-1][x][y]) @ 60000;
    }}
  }}
}}
nest rotate {{
  for x = 0 .. N-1 {{
    for y = 0 .. N-1 {{
      R[y][x] = F[x][y] @ 25000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "Visuo",
        description: "3D Visualization",
        source,
    }
}

/// SCF — quantum chemistry self-consistent field: symmetric (triangular)
/// integral sweeps building the Fock matrix, a transposed symmetrization,
/// and the density update.
pub fn scf(scale: Scale) -> BenchApp {
    let n = 896 / scale.divisor();
    let source = format!(
        "program scf;
const N = {n};
array INTS[N][N] : bytes(4096);
array FOCK[N][N] : bytes(4096);
array SYM[N][N] : bytes(4096);
array DENS[N][N] : bytes(4096);
nest fock_build {{
  for i = 0 .. N-1 {{
    for j = 0 .. i {{
      FOCK[i][j] = f(INTS[i][j], DENS[i][j]) @ 130000;
    }}
  }}
}}
nest symmetrize {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      SYM[i][j] = FOCK[j][i] @ 25000;
    }}
  }}
}}
nest density {{
  for i = 0 .. N-1 {{
    for j = 0 .. N-1 {{
      DENS[i][j] = g(SYM[i][j]) @ 50000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "SCF 3.0",
        description: "Quantum Chemistry",
        source,
    }
}

/// RSense — remote sensing database: per-pixel band arithmetic, transposed
/// column profiles, and a classification pass.
pub fn rsense(scale: Scale) -> BenchApp {
    let n = 896 / scale.divisor();
    let source = format!(
        "program rsense;
const N = {n};
array BAND1[N][N] : bytes(4096);
array BAND2[N][N] : bytes(4096);
array NDVI[N][N] : bytes(4096);
array PROF[N][N] : bytes(4096);
array CLASS[N][N] : bytes(4096);
nest band_math {{
  for r = 0 .. N-1 {{
    for c = 0 .. N-1 {{
      NDVI[r][c] = f(BAND1[r][c], BAND2[r][c]) @ 70000;
    }}
  }}
}}
nest column_profile {{
  for c = 0 .. N-1 {{
    for r = 0 .. N-1 {{
      PROF[c][r] = NDVI[r][c] @ 25000;
    }}
  }}
}}
nest classify {{
  for r = 0 .. N-1 {{
    for c = 0 .. N-1 {{
      CLASS[r][c] = g(NDVI[r][c], PROF[c][r]) @ 45000;
    }}
  }}
}}
"
    );
    BenchApp {
        name: "RSense 2.0",
        description: "Remote Sensing Database",
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_parse_and_validate() {
        for app in suite(Scale::Tiny) {
            let p = app.program();
            assert!(p.validate().is_ok(), "{}", app.name);
            assert!(p.nests.len() >= 3, "{} has too few nests", app.name);
            assert!(p.total_iterations() > 0, "{}", app.name);
        }
    }

    #[test]
    fn suite_matches_table2_names() {
        let names: Vec<&str> = suite(Scale::Tiny).iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec!["AST", "FFT", "Cholesky", "Visuo", "SCF 3.0", "RSense 2.0"]
        );
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("ast", Scale::Tiny).is_some());
        assert!(by_name("CHOLESKY", Scale::Tiny).is_some());
        assert!(by_name("nope", Scale::Tiny).is_none());
    }

    #[test]
    fn custom_scale_divides_linearly() {
        let full = ast(Scale::Paper).program().total_data_bytes();
        let half = ast(Scale::Custom(2)).program().total_data_bytes();
        // Quadratic in the linear divisor (2-D arrays), within rounding.
        let ratio = full as f64 / half as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_scale_data_sizes_are_gigabytes() {
        for app in suite(Scale::Paper) {
            let p = app.program();
            let gb = p.total_data_bytes() as f64 / (1 << 30) as f64;
            assert!(gb > 2.0 && gb < 32.0, "{}: {gb:.2} GB", app.name);
        }
    }

    #[test]
    fn cholesky_carries_a_dependence() {
        let p = by_name("Cholesky", Scale::Tiny).unwrap().program();
        let deps = dpm_ir::analyze(&p);
        assert!(deps.nest_exact_distances(0).contains(&vec![1, 0]));
    }

    #[test]
    fn fft_transpose_creates_cross_nest_dependence() {
        let p = by_name("FFT", Scale::Tiny).unwrap().program();
        let deps = dpm_ir::analyze(&p);
        assert!(!deps.cross.is_empty());
    }

    /// Printer→parser round trip is lossless for every app: the whole
    /// `Program` compares equal (equality deliberately ignores source
    /// positions, which the reparse legitimately moves), and the reparse
    /// records real positions for every declaration and statement.
    #[test]
    fn apps_round_trip_through_printer() {
        for app in suite(Scale::Tiny) {
            let p1 = app.program();
            let printed = dpm_ir::printer::print_program(&p1);
            let p2 = dpm_ir::parse_program(&printed)
                .unwrap_or_else(|e| panic!("{} reparse: {e}", app.name));
            assert_eq!(p1, p2, "{}\n--- printed ---\n{printed}", app.name);
            for a in 0..p2.arrays.len() {
                assert!(p2.src.array(a).is_known(), "{}: array {a}", app.name);
            }
            for (ni, nest) in p2.nests.iter().enumerate() {
                assert!(p2.src.nest(ni).is_known(), "{}: nest {ni}", app.name);
                for si in 0..nest.body.len() {
                    assert!(p2.src.stmt(ni, si).is_known(), "{}: {ni}/{si}", app.name);
                }
            }
        }
    }
}
