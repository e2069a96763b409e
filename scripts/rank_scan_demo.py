"""Plant a CP tensor at a known rank, scan candidates, and print the table.

Shows the raw material rank selection works from: best reconstruction error
and cross-restart similarity per candidate rank, the backward differences,
and the rank the selector lands on.

Usage:
    python scripts/rank_scan_demo.py --rank 3 --noise 0.05 --seed 0
"""
import argparse

from sectorspace import synth, tca
from sectorspace.errors import AnalysisError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rank", type=int, default=3, help="planted rank")
    parser.add_argument("--shape", default="120x20x12",
                        help="tensor shape IxSxK")
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--max-rank", type=int, default=8)
    args = parser.parse_args()

    n_inv, n_sec, n_years = (int(v) for v in args.shape.split("x"))
    tensor, truth = synth.generate_cp_tensor(n_inv, n_sec, n_years, args.rank,
                                             noise=args.noise, seed=args.seed)
    ranks = range(1, args.max_rank + 1)
    diag = tca.rank_scan(tensor, ranks, restarts=args.restarts, seed=args.seed,
                         tol=1e-7, max_iter=2000, similarity_threshold=0.0)
    try:
        chosen = tca.select_rank(diag.ranks, diag.best_error, diag.similarity, 0.8)
    except AnalysisError:
        chosen = None

    print(f"planted rank {args.rank}, shape {n_inv}x{n_sec}x{n_years}, "
          f"noise {args.noise}, seed {args.seed}")
    print(f"{'R':>3} {'error':>8} {'drop':>8} {'similarity':>10}")
    prev = 1.0
    for rank in diag.ranks:
        err = diag.best_error[rank]
        mark = "  <- selected" if rank == chosen else ""
        print(f"{rank:>3} {err:8.4f} {prev - err:8.4f} "
              f"{diag.similarity[rank]:10.3f}{mark}")
        prev = err

    if chosen is None:
        print("no rank passed the similarity gate")
        return 1
    if chosen == args.rank:
        match = tca.factor_match_score(diag.best_models[chosen], truth.cp_model())
        print(f"factor match against planted truth: {match:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
