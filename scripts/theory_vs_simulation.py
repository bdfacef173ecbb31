"""Cross-validate theoretical extremal indices against path estimators.

Two experiments:

  * GARCH(1,1) volatility (alpha1 = 0.1, beta1 = 0.89): solve for the
    Kesten index, evaluate theta_sigma by both routes, and compare the
    m-truncated theta_|X| sequence with blocks / runs / intervals
    estimates on long simulated paths.
  * Two-term moving average volatility with t(4) noise: compare the
    moving-average formula with intervals estimates at high thresholds.

The m-sequence converges from above while path estimators at reachable
thresholds carry positive bias, so the two should bracket the limit.

Usage: python scripts/theory_vs_simulation.py [--seed 1] [--n 100000]
       [--mc-reps 400000] [--quick]
"""

import argparse

import numpy as np

import svextremes as sv


def garch_block(seed: int, n: int, mc_reps: int, threads: int):
    pair = sv.Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                          eta=sv.std_normal())
    cfg = sv.SreSvConfig(p=2.0, pair_source=pair, z=sv.std_normal())
    problem = sv.KestenProblem(pair)

    root = sv.kesten_index(problem, mc_reps=max(mc_reps, 200_000),
                           seed=sv.RngSeed(seed, 1))
    print(f"kesten index        kappa = {root.kappa:.4f}  "
          f"(f stderr {root.f_stderr:.2e})")

    ts = sv.theta_sigma_sre(problem, root.kappa, mc_reps=mc_reps // 2,
                            seed=sv.RngSeed(seed, 2), threads=threads)
    tq = sv.theta_sigma_sre_quadrature(problem, root.kappa,
                                       mc_reps=mc_reps // 2,
                                       seed=sv.RngSeed(seed, 3))
    print(f"theta_sigma         mc = {ts.value:.4f}  (risk "
          f"{ts.truncation['risk_fraction']:.4f})  quad = {tq.value:.4f}  "
          f"(risk {tq.truncation['risk_fraction']:.4f})")

    tx = sv.theta_x_sre(problem, cfg.z, root.kappa, cfg.p, m=50,
                        mc_reps=mc_reps, seed=sv.RngSeed(seed, 4),
                        threads=threads)
    shown = [1, 2, 5, 10, 25, 50]
    print("theta_x m-sequence  " +
          "  ".join(f"m={m}: {tx.sequence[m - 1]:.3f}" for m in shown) +
          f"  (live at m=50 {tx.truncation['live_fraction']:.4f})")

    path = sv.simulate(cfg, n, seed=sv.RngSeed(seed, 5))
    v = np.abs(path.x)
    for q in (0.99, 0.995):
        u = float(np.quantile(v, q))
        bl = sv.blocks_theta(v, u, 100)
        rn = sv.runs_theta(v, u, 10)
        iv = sv.intervals_theta(v, u)
        print(f"path q={q}          blocks = {bl.theta_hat:.3f}  "
              f"runs = {rn.theta_hat:.3f}  intervals = {iv.theta_hat:.3f}")


def ma_block(seed: int, n: int, mc_reps: int, threads: int):
    # z needs E|Z|^{alpha p + delta} finite, so t(4) is out at alpha p = 4
    psi = (1.0, 0.5)
    cfg = sv.MaSvConfig(p=1.0, psi=psi, eta=sv.pareto(4.0),
                        z=sv.std_normal())
    th = sv.theta_x_ma(psi, alpha=4.0, p=1.0, z=cfg.z, mc_reps=mc_reps,
                       seed=sv.RngSeed(seed, 6), threads=threads)
    print(f"theta_x_ma formula  {th.value:.4f}  (stderr {th.mc_stderr:.4f})")
    path = sv.simulate(cfg, n, seed=sv.RngSeed(seed, 7))
    v = np.abs(path.x)
    for q in (0.995, 0.999):
        u = float(np.quantile(v, q))
        iv = sv.intervals_theta(v, u)
        print(f"path q={q}          intervals = {iv.theta_hat:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--mc-reps", type=int, default=400_000)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="small sizes for a fast sanity pass")
    args = ap.parse_args()
    n, reps = args.n, args.mc_reps
    if args.quick:
        n, reps = 20_000, 50_000

    print("== GARCH(1,1) volatility, alpha = kesten root ==")
    garch_block(args.seed, n, reps, args.threads)
    print()
    print("== moving average volatility, psi = (1, 0.5), alpha p = 4 ==")
    ma_block(args.seed, n, reps, args.threads)


if __name__ == "__main__":
    main()
