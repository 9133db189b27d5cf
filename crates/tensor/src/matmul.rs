//! Dense matrix multiplication kernels.
//!
//! Three layout variants cover everything the layers need without ever
//! materialising a transpose. All matrices are row-major `f32` slices.
//!
//! Every variant is a thin wrapper over one strided GEMM with two tiers:
//!
//! * **small** (`m·k·n < BLOCKED_MIN_MACS`): a simple loop nest — the
//!   blocked path's packing overhead is not worth it for the tiny matmuls
//!   on the elastic executor's latency path (e.g. `1×256 · 256×10`).
//! * **blocked** otherwise: a BLIS-style cache-blocked kernel. `B` is
//!   packed once into column panels and each strip of `A` rows into an
//!   interleaved tile, then a register micro-kernel of up to `MR×NR`
//!   accumulators — exactly as many rows as the strip has — runs over the
//!   full `k` extent. Its `NR` vector lanes normally run along `C`'s
//!   columns; a `C` narrower than one lane panel is computed with the
//!   operands' roles swapped, lanes along its rows, when that pads less
//!   ([`panel_width`]). Strips of `C` rows are distributed over the worker
//!   pool (`parallel.rs`) above `PAR_MIN_WORK`.
//!
//! [`Conv2d`](crate::Conv2d) writes its lowered input straight into the
//! packed layout ([`PackedB`]) and enters the blocked tier below the packing
//! step ([`mm_packed_into`]), whatever the product's size.
//!
//! Determinism: each output element is one accumulation chain in `p = 0..k`
//! order — a multiply, then an add into the element's single accumulator —
//! in both tiers (the micro-kernel's `MR·NR` accumulators belong to `MR·NR`
//! *different* elements). An element's bits therefore depend on its row of
//! `A` and its column of `B` alone: not on the tier, the tile it fell into,
//! the lane axis, the worker count (the work grid depends only on the
//! problem shape), or which other columns share the product — which is why
//! stacking a batch's columns into one GEMM cannot change any sample's
//! result. Zero inputs are **not** skipped: `0.0 * x` must stay
//! IEEE-faithful (`0 * inf = NaN`), and a data-dependent branch in the inner
//! loop would block vectorisation anyway.

use std::ops::Range;

use crate::parallel::{for_each_chunk_with, num_threads, PAR_MIN_WORK};

/// Rows per register tile of the micro-kernel.
const MR: usize = 6;
/// Columns per register tile (and per packed `B` panel).
const NR: usize = 16;
/// Below this many multiply-accumulates the simple loop nest wins over
/// packing (≈ a `32×32 · 32×32` product).
const BLOCKED_MIN_MACS: usize = 32 * 32 * 32;

/// A constant-stride view of a row-major buffer: element `(r, c)` lives at
/// `data[r * rs + c * cs]`. Lets one kernel serve `A·B`, `A·Bᵀ` and `Aᵀ·B`
/// without copying.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl MatRef<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// `C[m,n] = A[m,k] * B[k,n]`.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    mm_into(a, b, &mut c, m, k, n);
    c
}

/// [`mm`] writing into a caller-provided buffer (overwritten, not
/// accumulated) so hot loops can reuse allocations.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "mm: lhs size mismatch");
    assert_eq!(b.len(), k * n, "mm: rhs size mismatch");
    assert_eq!(c.len(), m * n, "mm: out size mismatch");
    gemm(
        MatRef {
            data: a,
            rs: k,
            cs: 1,
        },
        MatRef {
            data: b,
            rs: n,
            cs: 1,
        },
        c,
        m,
        k,
        n,
    );
}

/// `C[m,n] = A[m,k] * B[n,k]^T` — i.e. rows of `B` are dotted with rows of `A`.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    mm_a_bt_into(a, b, &mut c, m, k, n);
    c
}

/// [`mm_a_bt`] writing into a caller-provided buffer.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "mm_a_bt: lhs size mismatch");
    assert_eq!(b.len(), n * k, "mm_a_bt: rhs size mismatch");
    assert_eq!(c.len(), m * n, "mm_a_bt: out size mismatch");
    gemm(
        MatRef {
            data: a,
            rs: k,
            cs: 1,
        },
        // Logical B[k,n] with B[p][j] = b[j*k + p].
        MatRef {
            data: b,
            rs: 1,
            cs: k,
        },
        c,
        m,
        k,
        n,
    );
}

/// `C[m,n] = A[k,m]^T * B[k,n]`.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    mm_at_b_into(a, b, &mut c, m, k, n);
    c
}

/// [`mm_at_b`] writing into a caller-provided buffer.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn mm_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "mm_at_b: lhs size mismatch");
    assert_eq!(b.len(), k * n, "mm_at_b: rhs size mismatch");
    assert_eq!(c.len(), m * n, "mm_at_b: out size mismatch");
    gemm(
        // Logical A[m,k] with A[i][p] = a[p*m + i].
        MatRef {
            data: a,
            rs: 1,
            cs: m,
        },
        MatRef {
            data: b,
            rs: n,
            cs: 1,
        },
        c,
        m,
        k,
        n,
    );
}

/// Strided GEMM dispatcher: `c = a * b`, overwriting `c`.
fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m * k * n < BLOCKED_MIN_MACS {
        gemm_small(a, b, c, m, k, n);
        return;
    }
    if panel_width(m, n) == NR {
        blocked_tiles::<MR, NR>(a, &pack_b::<NR>(b, k, n), c, m, k, n);
    } else {
        blocked_tiles::<NR, MR>(a, &pack_b::<MR>(b, k, n), c, m, k, n);
    }
}

/// Packs `B[k,n]` into `⌈n/W⌉` contiguous panels of `W` columns.
fn pack_b<const W: usize>(b: MatRef<'_>, k: usize, n: usize) -> Vec<f32> {
    let mut bpack = vec![0.0_f32; n.div_ceil(W) * k * W];
    for (jp, panel) in bpack.chunks_exact_mut(k * W).enumerate() {
        pack_panel::<W>(b, jp * W, (n - jp * W).min(W), panel);
    }
    bpack
}

/// The simple tier: plain loop nests picked by `B`'s layout so the
/// innermost loop is always unit-stride.
fn gemm_small(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    if b.cs == 1 {
        // i-k-j: stream C's row and B's row together.
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a.at(i, p);
                let b_row = &b.data[p * b.rs..p * b.rs + n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    } else {
        // B columns are contiguous (the A·Bᵀ case): dot-product order.
        for i in 0..m {
            for j in 0..n {
                let b_col = &b.data[j * b.cs..j * b.cs + k];
                let mut acc = 0.0_f32;
                for (p, &bv) in b_col.iter().enumerate() {
                    acc += a.at(i, p) * bv;
                }
                c[i * n + j] = acc;
            }
        }
    }
}

/// The panel width the blocked tier packs the right operand of an
/// `m×k · k×n` product with: `NR` when the vector lanes run along `C`'s
/// columns, `MR` when they run along its rows.
///
/// Lanes along the columns is the default. With fewer than `NR` columns most
/// of every lane panel is padding, so when padding `m` up to whole lane
/// panels wastes less than padding `n` does, the operands swap roles: `B`
/// is packed as the strip operand and `Aᵀ` as the lane operand. The choice
/// depends only on the shape and cannot change a result bit (module docs).
pub(crate) fn panel_width(m: usize, n: usize) -> usize {
    if n < NR && n * m.next_multiple_of(NR) < m * NR {
        MR
    } else {
        NR
    }
}

/// A `[k, n]` right operand held in the blocked tier's packed layout, for
/// callers that can produce it directly instead of building a row-major
/// matrix for [`mm_into`] to pack. The layout stays private to this module:
/// callers address the logical matrix through a [`PanelCursor`] and move
/// whole row segments with [`PackedB::write_row`] / [`PackedB::read_row`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
    width: usize,
}

/// A position `(row, column)` of the logical matrix in a [`PackedB`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PanelCursor {
    idx: usize,
    /// Columns left in the current panel.
    room: usize,
    width: usize,
    /// Buffer distance between one panel and the next, `k * width`.
    panel_len: usize,
}

impl PanelCursor {
    /// The cursor `rows` rows further down, same column.
    pub(crate) fn below(self, rows: usize) -> Self {
        PanelCursor {
            idx: self.idx + rows * self.width,
            ..self
        }
    }

    /// Advances along the row by the longest run of at most `want` columns
    /// that is contiguous in the buffer, and returns the run's range.
    #[inline]
    fn take(&mut self, want: usize) -> Range<usize> {
        let len = want.min(self.room);
        let run = self.idx..self.idx + len;
        self.idx += len;
        self.room -= len;
        if self.room == 0 {
            // Same row, first lane of the next panel.
            self.idx += self.panel_len - self.width;
            self.room = self.width;
        }
        run
    }
}

impl PackedB {
    /// Re-shapes the operand for an `m×k · k×n` product, reusing the
    /// allocation. Padding lanes are zeroed; every real element keeps
    /// whatever an earlier product left there and must be overwritten.
    pub(crate) fn reshape(&mut self, m: usize, k: usize, n: usize) {
        let width = panel_width(m, n);
        (self.k, self.n, self.width) = (k, n, width);
        self.data.resize(n.div_ceil(width) * k * width, 0.0);
        let used = n % width;
        if used > 0 {
            let last = self.data.len() - k * width;
            for row in self.data[last..].chunks_exact_mut(width) {
                row[used..].fill(0.0);
            }
        }
    }

    /// A cursor at row `p`, column `col`.
    pub(crate) fn cursor(&self, p: usize, col: usize) -> PanelCursor {
        let (panel, lane) = (col / self.width, col % self.width);
        PanelCursor {
            idx: (panel * self.k + p) * self.width + lane,
            room: self.width - lane,
            width: self.width,
            panel_len: self.k * self.width,
        }
    }

    /// Writes `src` into the row at `cur`, from the cursor's column on.
    #[inline]
    pub(crate) fn write_row(&mut self, mut cur: PanelCursor, mut src: &[f32]) {
        while !src.is_empty() {
            let dst = &mut self.data[cur.take(src.len())];
            let (head, rest) = src.split_at(dst.len());
            dst.copy_from_slice(head);
            src = rest;
        }
    }

    /// Fills `dst` from the row at `cur`, from the cursor's column on.
    #[inline]
    pub(crate) fn read_row(&self, mut cur: PanelCursor, mut dst: &mut [f32]) {
        while !dst.is_empty() {
            let src = &self.data[cur.take(dst.len())];
            let (head, rest) = dst.split_at_mut(src.len());
            head.copy_from_slice(src);
            dst = rest;
        }
    }
}

/// `C[m,n] = A[m,k] * B[k,n]` with `B` already packed for this `m`
/// ([`PackedB::reshape`]). Enters the blocked tier whatever the size: the
/// operand is packed already, which is the cost the small tier exists to
/// avoid.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions, or `b` was shaped
/// for an `m` that packs differently.
pub(crate) fn mm_packed_into(a: &[f32], b: &PackedB, c: &mut [f32], m: usize) {
    assert_eq!(a.len(), m * b.k, "mm_packed: lhs size mismatch");
    assert_eq!(c.len(), m * b.n, "mm_packed: out size mismatch");
    assert_eq!(
        b.width,
        panel_width(m, b.n),
        "mm_packed: rhs packed for another m"
    );
    if m == 0 || b.n == 0 {
        return;
    }
    let a = MatRef {
        data: a,
        rs: b.k,
        cs: 1,
    };
    if b.width == NR {
        blocked_tiles::<MR, NR>(a, &b.data, c, m, b.k, b.n);
    } else {
        blocked_tiles::<NR, MR>(a, &b.data, c, m, b.k, b.n);
    }
}

/// The blocked tier below the packing of `B`, for one assignment of roles:
/// `Aᵀ` is packed `WA` wide, one panel per `WA`-row strip of `C`, against
/// `bpack`, the `[k, n]` right operand in panels of `WB` columns.
/// `(MR, NR)` runs the lanes along `C`'s columns, `(NR, MR)` along its rows.
fn blocked_tiles<const WA: usize, const WB: usize>(
    a: MatRef<'_>,
    bpack: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let at = MatRef {
        data: a.data,
        rs: a.cs,
        cs: a.rs,
    };
    let threads = if m * k * n >= PAR_MIN_WORK {
        num_threads()
    } else {
        1
    };
    // Each `WA`-row strip of C is one chunk; the strip grid depends only on
    // the shape, never on `threads`.
    for_each_chunk_with(
        c,
        WA * n,
        threads,
        || vec![0.0_f32; WA * k],
        |strip, c_strip, apack| {
            let i0 = strip * WA;
            let rows = (m - i0).min(WA);
            pack_panel::<WA>(at, i0, rows, apack);
            for (jp, bpanel) in bpack.chunks_exact(k * WB).enumerate() {
                let j0 = jp * WB;
                let cols = (n - j0).min(WB);
                if WB == NR {
                    let acc = micro_kernel(apack, bpanel, rows);
                    for (c_row, acc_row) in c_strip.chunks_mut(n).zip(&acc) {
                        c_row[j0..j0 + cols].copy_from_slice(&acc_row[..cols]);
                    }
                } else {
                    // The tile comes out transposed: `acc[col][row]`.
                    let acc = micro_kernel(bpanel, apack, cols);
                    for (r, c_row) in c_strip.chunks_mut(n).enumerate() {
                        for (cv, acc_row) in c_row[j0..j0 + cols].iter_mut().zip(&acc) {
                            *cv = acc_row[r];
                        }
                    }
                }
            }
        },
    );
}

/// Packs columns `j0 .. j0+cols` of a logical `[k, _]` matrix into one
/// panel: `p`-major with `W` interleaved columns per step, so the
/// micro-kernel reads it as one forward stream. Columns past `cols` are
/// zeroed. `src` must have unit stride along one axis.
fn pack_panel<const W: usize>(src: MatRef<'_>, j0: usize, cols: usize, panel: &mut [f32]) {
    if cols < W {
        panel.fill(0.0);
    }
    if src.cs == 1 {
        for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
            dst[..cols].copy_from_slice(&src.data[p * src.rs + j0..p * src.rs + j0 + cols]);
        }
    } else {
        // The logical column is a contiguous run of the buffer.
        let k = panel.len() / W;
        for col in 0..cols {
            let run = &src.data[(j0 + col) * src.cs..(j0 + col) * src.cs + k];
            for (dst, &v) in panel.chunks_exact_mut(W).zip(run) {
                dst[col] = v;
            }
        }
    }
}

/// The register tile: `R×NR` independent accumulator chains over the full
/// `k` extent, `R` rows of an `MR`-wide `strip` panel against an `NR`-wide
/// `lanes` panel. `R`/`NR` are compile-time constants and `chunks_exact`
/// erases all bounds checks, so the two inner loops fully unroll into
/// `R·NR` independent FMA chains the compiler can vectorise (`6×16` =
/// twelve 8-wide AVX2 accumulators, the classic Haswell tile) — without
/// ever splitting a single element's chain (which would change rounding).
#[inline(always)]
fn tile<const R: usize>(strip: &[f32], lanes: &[f32], out: &mut [[f32; NR]; MR]) {
    let mut acc = [[0.0_f32; NR]; R];
    for (sv, lv) in strip.chunks_exact(MR).zip(lanes.chunks_exact(NR)) {
        for (r, row) in acc.iter_mut().enumerate() {
            let s = sv[r];
            for (x, &l) in row.iter_mut().zip(lv) {
                *x += s * l;
            }
        }
    }
    out[..R].copy_from_slice(&acc);
}

/// [`tile`] over exactly the `rows` a strip holds (`1..=MR`), so an edge
/// strip — or an `m = 3` product — pays for no padding rows. Rows of the
/// result past `rows` are unspecified.
#[inline]
fn micro_kernel(strip: &[f32], lanes: &[f32], rows: usize) -> [[f32; NR]; MR] {
    let mut out = [[0.0_f32; NR]; MR];
    match rows {
        1 => tile::<1>(strip, lanes, &mut out),
        2 => tile::<2>(strip, lanes, &mut out),
        3 => tile::<3>(strip, lanes, &mut out),
        4 => tile::<4>(strip, lanes, &mut out),
        5 => tile::<5>(strip, lanes, &mut out),
        _ => tile::<MR>(strip, lanes, &mut out),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn mm_small_known() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let c = mm(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn mm_rectangular() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect(); // 2x3
        let b: Vec<f32> = (0..12).map(|v| v as f32).collect(); // 3x4
        assert_eq!(mm(&a, &b, 2, 3, 4), mm_ref(&a, &b, 2, 3, 4));
    }

    #[test]
    fn transposed_variants_agree_with_reference() {
        let a: Vec<f32> = (0..12).map(|v| (v as f32) * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..12).map(|v| (v as f32) * -0.25 + 1.0).collect();
        // A is 3x4, B as 3x4; A^T * B is 4x4.
        let mut at = vec![0.0; 12];
        for i in 0..3 {
            for j in 0..4 {
                at[j * 3 + i] = a[i * 4 + j];
            }
        }
        assert_eq!(mm_at_b(&a, &b, 4, 3, 4), mm_ref(&at, &b, 4, 3, 4));

        // A 3x4 times B(2x4)^T is 3x2.
        let b2: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let mut b2t = vec![0.0; 8];
        for i in 0..2 {
            for j in 0..4 {
                b2t[j * 2 + i] = b2[i * 4 + j];
            }
        }
        assert_eq!(mm_a_bt(&a, &b2, 3, 4, 2), mm_ref(&a, &b2t, 3, 4, 2));
    }

    #[test]
    #[should_panic(expected = "lhs size mismatch")]
    fn mm_panics_on_bad_size() {
        mm(&[1.0], &[1.0, 2.0], 2, 1, 2);
    }

    #[test]
    fn identity_is_neutral() {
        let a: Vec<f32> = (0..9).map(|v| v as f32).collect();
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(mm(&a, &eye, 3, 3, 3), a);
        assert_eq!(mm(&eye, &a, 3, 3, 3), a);
    }

    #[test]
    fn zero_times_inf_propagates_nan() {
        // A data-dependent skip of zero entries would turn these NaNs into
        // 0.0; IEEE says 0 * inf = NaN and the kernel must preserve that.
        let c = mm(&[0.0, 1.0], &[f32::INFINITY, 0.0, 0.0, 1.0], 1, 2, 2);
        assert!(c[0].is_nan(), "0*inf must contaminate the dot product");
        assert_eq!(c[1], 1.0);
        let c = mm_at_b(&[0.0, 1.0], &[f32::INFINITY, 0.0, 0.0, 1.0], 1, 2, 2);
        assert!(c[0].is_nan());
        let c = mm_a_bt(&[0.0, 1.0], &[f32::INFINITY, 0.0], 1, 2, 1);
        assert!(c[0].is_nan());
    }

    #[test]
    fn blocked_tier_matches_reference() {
        // Big enough for the blocked (and threaded) path, with dimensions
        // that are not multiples of MR/NR.
        let (m, k, n) = (45, 67, 53);
        let a: Vec<f32> = (0..m * k)
            .map(|v| ((v * 37 + 11) % 83) as f32 * 0.03 - 1.2)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|v| ((v * 53 + 7) % 97) as f32 * 0.02 - 0.9)
            .collect();
        let reference = mm_ref(&a, &b, m, k, n);
        let got = mm(&a, &b, m, k, n);
        for (x, y) in got.iter().zip(&reference) {
            assert!((x - y).abs() < 1e-3, "blocked {x} vs ref {y}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(mm(&[], &[], 0, 0, 0), Vec::<f32>::new());
        assert_eq!(mm(&[], &[1.0, 2.0], 0, 1, 2), Vec::<f32>::new());
        // k = 0: the empty sum is 0.
        assert_eq!(mm(&[], &[], 2, 0, 3), vec![0.0; 6]);
        assert_eq!(mm(&[2.0], &[3.0], 1, 1, 1), vec![6.0]);
    }
}
