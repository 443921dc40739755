//! The PLONK permutation argument (copy constraints).
//!
//! Wire cells form a `3×n` grid (columns A, B, C). Copy constraints
//! partition cells into equality classes; the argument encodes the
//! partition as a permutation `σ` whose cycles traverse each class, and
//! proves `w(cell) = w(σ(cell))` for all cells via the grand-product
//! polynomial
//!
//! ```text
//! z(ω⁰) = 1,   z(ω^{i+1}) = z(ω^i) · Π_j (w_j(i) + β·id_j(i) + γ)
//!                                   / (w_j(i) + β·σ_j(i) + γ)
//! ```
//!
//! where `id_j(x) = k_j·x` labels cell `(j, i)` with `k_j·ωⁱ` and the
//! three `k_j` place the columns on pairwise-disjoint cosets of `H`.

use serde::{Deserialize, Serialize};
use unintt_ff::{batch_inverse, Bn254Fr, Field, PrimeField};

use crate::Polynomial;

/// A wire column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Column {
    /// Left wires.
    A,
    /// Right wires.
    B,
    /// Output wires.
    C,
}

impl Column {
    /// Column index 0..3.
    pub fn index(self) -> usize {
        match self {
            Column::A => 0,
            Column::B => 1,
            Column::C => 2,
        }
    }

    /// All columns in order.
    pub const ALL: [Column; 3] = [Column::A, Column::B, Column::C];
}

/// A wire cell: `(column, row)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cell {
    /// Which wire column.
    pub column: Column,
    /// Gate row.
    pub row: usize,
}

impl Cell {
    /// Constructs a cell.
    pub fn new(column: Column, row: usize) -> Self {
        Self { column, row }
    }

    fn flat(&self, n: usize) -> usize {
        self.column.index() * n + self.row
    }
}

/// The column coset labels `k_j`: `k_0 = 1`, `k_1 = g`, `k_2 = g²` where
/// `g` is the multiplicative generator. `g` has full order `r − 1`, so
/// neither `g` nor `g²` (nor their ratio) lies in any power-of-two
/// subgroup `H`, making `H`, `k_1·H`, `k_2·H` pairwise disjoint.
pub fn column_shifts() -> [Bn254Fr; 3] {
    let g = Bn254Fr::GENERATOR;
    [Bn254Fr::ONE, g, g * g]
}

/// The permutation over the `3n` wire cells, built from equality classes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirePermutation {
    n: usize,
    /// `sigma[flat(cell)] = flat(σ(cell))`.
    sigma: Vec<usize>,
}

impl WirePermutation {
    /// The identity permutation for an `n`-row circuit (no constraints).
    pub fn identity(n: usize) -> Self {
        Self {
            n,
            sigma: (0..3 * n).collect(),
        }
    }

    /// Builds the permutation from pairwise equalities: each equality
    /// class becomes one cycle of `σ`.
    ///
    /// # Panics
    ///
    /// Panics if any cell's row is out of range.
    pub fn from_copies(n: usize, copies: &[(Cell, Cell)]) -> Self {
        // Union-find over flat cell indices.
        let mut parent: Vec<usize> = (0..3 * n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (a, b) in copies {
            assert!(a.row < n && b.row < n, "copy constraint row out of range");
            let (ra, rb) = (find(&mut parent, a.flat(n)), find(&mut parent, b.flat(n)));
            if ra != rb {
                parent[ra] = rb;
            }
        }

        // Gather classes, then link each class into one cycle.
        let mut classes: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..3 * n {
            let root = find(&mut parent, x);
            classes.entry(root).or_default().push(x);
        }
        let mut sigma: Vec<usize> = (0..3 * n).collect();
        for members in classes.values() {
            if members.len() > 1 {
                for (i, &m) in members.iter().enumerate() {
                    sigma[m] = members[(i + 1) % members.len()];
                }
            }
        }
        Self { n, sigma }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The image of a cell under σ, as a flat index.
    pub fn image_flat(&self, cell: Cell) -> usize {
        self.sigma[cell.flat(self.n)]
    }

    /// Checks that a wire assignment respects the permutation (every cell
    /// equals its σ-image — equivalent to equality on each class).
    pub fn is_respected<W: AsRef<[Bn254Fr]>>(&self, wires: &[W; 3]) -> bool {
        let n = self.n;
        let value = |flat: usize| wires[flat / n].as_ref()[flat % n];
        (0..3 * n).all(|x| value(x) == value(self.sigma[x]))
    }

    /// The three σ-polynomials: `σ_j` interpolates, over row `i`, the
    /// *label* `k_{j'}·ω^{i'}` of the σ-image of cell `(j, i)`.
    pub fn sigma_polynomials(&self, omega: Bn254Fr) -> [Polynomial<Bn254Fr>; 3] {
        let n = self.n;
        let shifts = column_shifts();
        let omega_pows: Vec<Bn254Fr> = {
            let mut v = Vec::with_capacity(n);
            let mut cur = Bn254Fr::ONE;
            for _ in 0..n {
                v.push(cur);
                cur *= omega;
            }
            v
        };
        let label = |flat: usize| shifts[flat / n] * omega_pows[flat % n];

        let mut out = Vec::with_capacity(3);
        for j in 0..3 {
            let evals: Vec<Bn254Fr> = (0..n).map(|i| label(self.sigma[j * n + i])).collect();
            out.push(Polynomial::interpolate(&evals));
        }
        out.try_into().expect("exactly three columns")
    }

    /// Builds the grand-product column `z(ω⁰)..z(ω^{n−1})` for a wire
    /// assignment and challenges `β, γ`. `z(ω⁰) = 1`; for a valid witness
    /// the product telescopes back to 1 after the last row.
    pub fn grand_product<W: AsRef<[Bn254Fr]>>(
        &self,
        wires: &[W; 3],
        omega: Bn254Fr,
        beta: Bn254Fr,
        gamma: Bn254Fr,
    ) -> Vec<Bn254Fr> {
        let n = self.n;
        let shifts = column_shifts();
        let omega_pows: Vec<Bn254Fr> = {
            let mut v = Vec::with_capacity(n);
            let mut cur = Bn254Fr::ONE;
            for _ in 0..n {
                v.push(cur);
                cur *= omega;
            }
            v
        };
        let label = |flat: usize| shifts[flat / n] * omega_pows[flat % n];

        // Denominators first, batch-inverted.
        let mut denom = Vec::with_capacity(n);
        for i in 0..n {
            let mut d = Bn254Fr::ONE;
            for (j, wire) in wires.iter().enumerate() {
                d *= wire.as_ref()[i] + beta * label(self.sigma[j * n + i]) + gamma;
            }
            denom.push(d);
        }
        batch_inverse(&mut denom);

        let mut z = Vec::with_capacity(n);
        let mut acc = Bn254Fr::ONE;
        for i in 0..n {
            z.push(acc);
            let mut numer = Bn254Fr::ONE;
            for (j, shift) in shifts.iter().enumerate() {
                numer *= wires[j].as_ref()[i] + beta * *shift * omega_pows[i] + gamma;
            }
            acc *= numer * denom[i];
        }
        debug_assert!(
            !self.is_respected(wires) || acc.is_one(),
            "grand product must telescope to 1 for a valid witness"
        );
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::TwoAdicField;

    fn omega(n: usize) -> Bn254Fr {
        Bn254Fr::two_adic_generator(n.trailing_zeros())
    }

    #[test]
    fn column_shifts_give_disjoint_cosets() {
        let [k0, k1, k2] = column_shifts();
        // k_i / k_j must lie outside every power-of-two subgroup: check
        // the largest one (order 2^28) by exponentiation.
        for (x, y) in [(k1, k0), (k2, k0), (k2, k1)] {
            let ratio = x * y.inverse().unwrap();
            let mut p = ratio;
            for _ in 0..28 {
                p = p.square();
            }
            assert!(!p.is_one(), "coset label ratio lies in H");
        }
    }

    #[test]
    fn identity_permutation_respected_by_anything() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 8;
        let perm = WirePermutation::identity(n);
        let wires = [
            (0..n)
                .map(|_| Bn254Fr::random(&mut rng))
                .collect::<Vec<_>>(),
            (0..n).map(|_| Bn254Fr::random(&mut rng)).collect(),
            (0..n).map(|_| Bn254Fr::random(&mut rng)).collect(),
        ];
        assert!(perm.is_respected(&wires));
        let z = perm.grand_product(&wires, omega(n), Bn254Fr::from_u64(7), Bn254Fr::from_u64(9));
        assert!(z.iter().all(|v| v.is_one()), "identity σ gives z ≡ 1");
    }

    #[test]
    fn copies_build_cycles_and_detect_violations() {
        let n = 4;
        let copies = vec![
            (Cell::new(Column::A, 0), Cell::new(Column::B, 1)),
            (Cell::new(Column::B, 1), Cell::new(Column::C, 2)),
        ];
        let perm = WirePermutation::from_copies(n, &copies);

        let mut wires = [
            vec![Bn254Fr::from_u64(5); n],
            vec![Bn254Fr::from_u64(5); n],
            vec![Bn254Fr::from_u64(5); n],
        ];
        assert!(perm.is_respected(&wires));

        // Distinct values elsewhere are fine…
        wires[0][3] = Bn254Fr::from_u64(99);
        assert!(perm.is_respected(&wires));
        // …but breaking a constrained cell is caught.
        wires[1][1] = Bn254Fr::from_u64(6);
        assert!(!perm.is_respected(&wires));
    }

    #[test]
    fn grand_product_telescopes_iff_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 8;
        let copies = vec![
            (Cell::new(Column::A, 0), Cell::new(Column::C, 3)),
            (Cell::new(Column::B, 2), Cell::new(Column::B, 5)),
        ];
        let perm = WirePermutation::from_copies(n, &copies);

        let v = Bn254Fr::random(&mut rng);
        let w = Bn254Fr::random(&mut rng);
        let mut wires = [
            (0..n)
                .map(|_| Bn254Fr::random(&mut rng))
                .collect::<Vec<_>>(),
            (0..n).map(|_| Bn254Fr::random(&mut rng)).collect(),
            (0..n).map(|_| Bn254Fr::random(&mut rng)).collect(),
        ];
        wires[0][0] = v;
        wires[2][3] = v;
        wires[1][2] = w;
        wires[1][5] = w;
        assert!(perm.is_respected(&wires));

        let (beta, gamma) = (Bn254Fr::random(&mut rng), Bn254Fr::random(&mut rng));
        let z = perm.grand_product(&wires, omega(n), beta, gamma);
        assert!(z[0].is_one());
        // Final wrap: z(ω^{n-1}) · ratio(n-1) must return to 1.
        let om = omega(n);
        let shifts = column_shifts();
        let mut last = z[n - 1];
        let mut numer = Bn254Fr::ONE;
        let mut denom = Bn254Fr::ONE;
        let omn = om.pow(n as u64 - 1);
        let label = |flat: usize| shifts[flat / n] * om.pow((flat % n) as u64);
        for j in 0..3 {
            numer *= wires[j][n - 1] + beta * shifts[j] * omn + gamma;
            denom *= wires[j][n - 1] + beta * label(perm.sigma[j * n + n - 1]) + gamma;
        }
        last *= numer * denom.inverse().unwrap();
        assert!(last.is_one(), "grand product must wrap to 1");
    }

    #[test]
    fn sigma_polynomials_interpolate_labels() {
        let n = 8;
        let copies = vec![(Cell::new(Column::A, 1), Cell::new(Column::C, 6))];
        let perm = WirePermutation::from_copies(n, &copies);
        let om = omega(n);
        let polys = perm.sigma_polynomials(om);
        let shifts = column_shifts();
        // Unconstrained cell: σ is identity, label is k_j·ω^i.
        assert_eq!(polys[1].evaluate(om.pow(3)), shifts[1] * om.pow(3));
        // Constrained cells point at each other.
        assert_eq!(polys[0].evaluate(om.pow(1)), shifts[2] * om.pow(6));
        assert_eq!(polys[2].evaluate(om.pow(6)), shifts[0] * om.pow(1));
    }
}
