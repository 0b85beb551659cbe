//! Seeded input generation. The generator lives in the benchmark, not in
//! the program, so a change to the program's own generators cannot change
//! what is measured; the program only ever reads the edge-list file.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// R-MAT quadrant probabilities (a, b, c); d is the remainder. The skew the
/// repository's dataset stand-ins use.
const SKEW: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// Shape of one workload's input graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// `2^scale` vertex ids.
    pub scale: u32,
    /// Distinct edges drawn: directed pairs, or unordered pairs when
    /// `symmetric`, in which case both directions are written.
    pub edges: u64,
    /// Write every edge in both directions.
    pub symmetric: bool,
}

impl Shape {
    /// Directed edges in the written file.
    pub fn file_edges(&self) -> u64 {
        if self.symmetric {
            2 * self.edges
        } else {
            self.edges
        }
    }
}

/// SplitMix64 (Steele et al.): tiny, seedable, and fixed here so inputs
/// repeat by seed across program versions.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `shape.edges` distinct R-MAT edges without self-loops, in draw order.
/// Symmetric shapes draw unordered pairs, stored as `(min, max)`.
pub fn rmat_edges(shape: Shape, seed: u64) -> Vec<(u32, u32)> {
    let n = 1u64 << shape.scale;
    assert!(
        shape.edges <= n * (n - 1) / 4,
        "too many edges for 2^{} vertices",
        shape.scale
    );
    let (a, b, c) = SKEW;
    let mut rng = SplitMix64(seed);
    let mut seen = HashSet::with_capacity(shape.edges as usize);
    let mut edges = Vec::with_capacity(shape.edges as usize);
    while (edges.len() as u64) < shape.edges {
        let (mut src, mut dst) = (0u64, 0u64);
        for _ in 0..shape.scale {
            let r = rng.next_f64();
            let (right, down) = if r < a {
                (0, 0)
            } else if r < a + b {
                (1, 0)
            } else if r < a + b + c {
                (0, 1)
            } else {
                (1, 1)
            };
            src = src << 1 | right;
            dst = dst << 1 | down;
        }
        let (mut s, mut t) = (src as u32, dst as u32);
        if s == t {
            continue;
        }
        if shape.symmetric && s > t {
            std::mem::swap(&mut s, &mut t);
        }
        if seen.insert((s, t)) {
            edges.push((s, t));
        }
    }
    edges
}

/// Write `edges` as a SNAP-style edge list, both directions when
/// `symmetric`.
pub fn write_edge_list(out: impl Write, edges: &[(u32, u32)], symmetric: bool) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "# perfbench input: {} edges", edges.len())?;
    for &(s, t) in edges {
        writeln!(out, "{s}\t{t}")?;
        if symmetric {
            writeln!(out, "{t}\t{s}")?;
        }
    }
    out.flush()
}

/// Generate the input of `shape` for `seed` into `path`.
pub fn generate(shape: Shape, seed: u64, path: &Path) -> io::Result<()> {
    write_edge_list(
        File::create(path)?,
        &rmat_edges(shape, seed),
        shape.symmetric,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_repeats_by_seed_and_has_the_requested_shape() {
        let shape = Shape {
            scale: 8,
            edges: 1000,
            symmetric: true,
        };
        let a = rmat_edges(shape, 7);
        assert_eq!(a, rmat_edges(shape, 7));
        assert_ne!(a, rmat_edges(shape, 8));
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&(s, t)| s < t && t < 256));
        let distinct: HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn written_edge_list_loads_as_the_generated_graph() {
        let shape = Shape {
            scale: 6,
            edges: 100,
            symmetric: true,
        };
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &rmat_edges(shape, 1), shape.symmetric).unwrap();
        let g = sg_graph::io::read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.num_edges(), shape.file_edges());
        assert!(g.is_symmetric());
    }
}
