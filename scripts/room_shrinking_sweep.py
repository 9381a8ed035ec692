"""Sweep rooms and seeds, compare measured target RT60 with the harmonic law.

python scripts/room_shrinking_sweep.py --seeds 5
prints one row per (rt60, seed) and a worst-case deviation summary.
"""

import argparse

from rirshape import ShapingParams, Strategy, estimate_rt60, shape_rir, synth_rir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rt60s", type=float, nargs="+",
                        default=[0.3, 0.6, 1.0, 1.5])
    parser.add_argument("--rd", type=float, default=0.2)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--csv", default=None, help="also write rows to this file")
    args = parser.parse_args()

    params = ShapingParams(Strategy.DECAYED, rd=args.rd)
    rows = ["r0_nominal,seed,r0_estimate,r1_predicted,r1_estimate,deviation"]
    print(f"{'r0':>5} {'seed':>4} {'r0_est':>8} {'r1_pred':>8} {'r1_est':>8} {'dev':>7}")
    worst = 0.0
    for r0 in args.rt60s:
        predicted = params.predicted_rt60(r0)
        for seed in range(args.seeds):
            h0 = synth_rir(r0, seed=seed)
            r0_est = estimate_rt60(h0)
            r1_est = estimate_rt60(shape_rir(h0, params))
            deviation = abs(r1_est - predicted) / predicted
            worst = max(worst, deviation)
            print(f"{r0:5.2f} {seed:4d} {r0_est:8.3f} {predicted:8.4f} "
                  f"{r1_est:8.4f} {deviation:6.2%}")
            rows.append(f"{r0},{seed},{r0_est:.6g},{predicted:.6g},"
                        f"{r1_est:.6g},{deviation:.6g}")
    print(f"worst deviation: {worst:.2%}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
