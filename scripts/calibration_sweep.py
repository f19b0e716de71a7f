#!/usr/bin/env python3
"""Sweep the generator's miscalibration factor and check what the fit recovers.

For each true temperature, generates a clean corpus, refits the scalar, and
reports the calibration error before and after rescaling.

Usage:
    python3 scripts/calibration_sweep.py --n 3000 --seed 11
"""

import argparse

import numpy as np

from hallguard.calibration import (
    compute_ece,
    fit_temperature,
    logit_label_pairs,
    score_outcome_pairs,
)
from hallguard.mockgen import MockSpec, generate_corpus
from hallguard.uncertainty import apply_temperature


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3000, help="records per sweep point")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--temperatures", type=float, nargs="+", default=[0.7, 1.0, 1.5, 2.5])
    args = ap.parse_args()

    print(f"{'T_true':>7}  {'T_fit':>7}  {'nll':>8}  {'ece_pre':>8}  {'ece_post':>9}")
    for t_true in args.temperatures:
        spec = MockSpec(
            n_records=args.n, samples_per_record=2,
            true_temperature=t_true, seed=args.seed,
        )
        records = generate_corpus(spec)
        logit_sets, labels = logit_label_pairs(records)
        model = fit_temperature(logit_sets, labels)

        ece_pre = compute_ece(score_outcome_pairs(records)).ece
        post = []
        for z, y in zip(logit_sets, labels):
            p = apply_temperature(z, model.T)
            top = int(np.argmax(p))
            post.append((float(p[top]), top == y))
        ece_post = compute_ece(post).ece
        print(f"{t_true:>7.2f}  {model.T:>7.3f}  {model.fit_nll:>8.4f}  {ece_pre:>8.4f}  {ece_post:>9.4f}")


if __name__ == "__main__":
    main()
