//! The staircase: LBT's quadratic worst case (Theorem 3.2 tightness).
//!
//! `staircase(m)` builds `m` pairwise-concurrent writes with staggered
//! finishes, plus one read per write squeezed between consecutive write
//! finishes:
//!
//! ```text
//! w_i  = [ 2·i , B + 3·i ]          (B = 10·m, so all writes overlap)
//! ρ_i  = [ B + 3·i + 1 , B + 3·i + 2 ]   (reads w_i's value)
//! ```
//!
//! The history is 1-atomic (commit each `w_i` just before `ρ_i`), yet LBT
//! with the default increasing-finish candidate order does `Θ(m²)` work:
//!
//! * every remaining write is in the candidate set `C` (they all overlap,
//!   and each finishes after the maximum start), so `|C| = Θ(m)`;
//! * an epoch starting at candidate `w_j` scans `ρ_j` (own read), then
//!   `ρ_{j+1}` (forces `w' = w_{j+1}`), then `ρ_{j+2}` — a second foreign
//!   dictating write — and fails; only the top one or two candidates
//!   succeed, so `Θ(m)` candidates fail cheaply per epoch, over `Θ(m)`
//!   epochs.
//!
//! Trying candidates in decreasing finish order reduces the *trials* to
//! one per epoch (the successful candidate comes first) — the
//! candidate-order ablation of experiment E10 (`exp_lbt_ablation`) — but
//! the total running time stays `Θ(c·n)` either way, because merely
//! identifying the candidate set costs `O(c)` per epoch (exactly how
//! Theorem 3.2 charges line 3 of Figure 2). The staircase therefore shows the `O(n log n + c·n)` bound
//! of Theorem 3.2 to be tight, while FZF sees `m` disjoint forward zones —
//! `m` singleton chunks — and stays `O(n log n)` (Theorem 4.6).

use kav_history::{History, HistoryBuilder};

/// Builds the `m`-step staircase (`2·m` operations). See the module docs.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use kav_core::{Verifier, GkOneAv};
/// use kav_workloads::staircase;
///
/// let h = staircase(50);
/// assert_eq!(h.len(), 100);
/// assert_eq!(h.max_concurrent_writes(), 50);
/// assert!(GkOneAv.verify(&h).is_k_atomic());
/// ```
pub fn staircase(m: usize) -> History {
    assert!(m >= 1, "staircase needs at least one step");
    let m64 = m as u64;
    let base = 10 * m64;
    let mut b = HistoryBuilder::new();
    for i in 0..m64 {
        b = b.write(i + 1, 2 * i, base + 3 * i);
        b = b.read(i + 1, base + 3 * i + 1, base + 3 * i + 2);
    }
    b.build().expect("staircase is anomaly-free by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kav_core::{
        check_witness, CandidateOrder, Fzf, GkOneAv, Lbt, LbtConfig, Verifier,
    };

    #[test]
    fn staircase_shape() {
        let h = staircase(20);
        assert_eq!(h.len(), 40);
        assert_eq!(h.num_writes(), 20);
        assert_eq!(h.max_concurrent_writes(), 20, "all writes overlap");
    }

    #[test]
    fn staircase_is_1_atomic_hence_2_atomic() {
        let h = staircase(15);
        let gk = GkOneAv.verify(&h);
        check_witness(&h, gk.witness().expect("1-atomic"), 1).unwrap();
        let (fzf, report) = Fzf.verify_detailed(&h);
        check_witness(&h, fzf.witness().expect("2-atomic"), 2).unwrap();
        assert_eq!(report.chunks, 15, "each step is its own singleton chunk");
        let lbt = Lbt::new().verify(&h);
        check_witness(&h, lbt.witness().expect("2-atomic"), 2).unwrap();
    }

    #[test]
    fn increasing_finish_order_does_quadratic_candidate_work() {
        let small = staircase(20);
        let large = staircase(40);
        let cfg = LbtConfig {
            candidate_order: CandidateOrder::IncreasingFinish,
            ..LbtConfig::default()
        };
        let (_, rs) = Lbt::with_config(cfg).verify_detailed(&small);
        let (_, rl) = Lbt::with_config(cfg).verify_detailed(&large);
        // Quadratic: doubling m should ~quadruple candidate trials.
        let ratio = rl.candidates_tried as f64 / rs.candidates_tried as f64;
        assert!(
            ratio > 3.0,
            "expected ~4x candidate growth, got {ratio:.2} ({} -> {})",
            rs.candidates_tried,
            rl.candidates_tried
        );
    }

    #[test]
    fn decreasing_finish_order_tries_one_candidate_per_epoch() {
        let h = staircase(40);
        let cfg = LbtConfig {
            candidate_order: CandidateOrder::DecreasingFinish,
            ..LbtConfig::default()
        };
        let (verdict, report) = Lbt::with_config(cfg).verify_detailed(&h);
        assert!(verdict.is_k_atomic());
        assert!(
            report.candidates_tried <= 2 * 40,
            "decreasing order should succeed on the first candidate per epoch, tried {}",
            report.candidates_tried
        );
    }
}
