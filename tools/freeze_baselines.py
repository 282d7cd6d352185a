#!/usr/bin/env python3
"""Measure the frozen regression baselines printed in favlab/baselines.py.

Run once on a reference machine; paste the reported values (with the noted
safety factors) into src/favlab/baselines.py.
"""

import time

import numpy as np

from favlab import ifs, lemmas, spectral, stacks, verify


def doubling_sweep():
    system = ifs.preset("gasket")
    tf = spectral.t_form(system)
    worst = 0.0
    t0 = time.time()
    for t in np.linspace(0.0, 1.0, 100):
        for xp in np.linspace(1.0, 30.0, 100):
            for k in range(6):
                r = lemmas.doubling_ratio(tf.poly(float(t)), float(xp), k=k)
                worst = max(worst, r)
    print(f"doubling sweep max ratio: {worst!r}  ({time.time()-t0:.0f}s)")
    print("  -> DOUBLING_RATIO_CEILING = above * 1.10")


def product_baseline():
    thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
    pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
    worst = 0.0
    for name in ("corner4", "gasket"):
        rep = stacks.product_inequality_report(ifs.preset(name), 4, thetas, pairs)
        print(f"  {name}: worst {rep.worst_ratio!r} at {rep.worst_at}")
        worst = max(worst, rep.worst_ratio)
    print(f"product worst ratio: {worst!r}")
    print("  -> PRODUCT_RATIO_BASELINE = above")


def ssv_baseline():
    system = ifs.preset("gasket")
    tf = spectral.t_form(system)
    spec = spectral.ProductSpec(10, 3, 6)
    thr = 3.0**-6
    worst = 0.0
    t0 = time.time()
    # Dense sweep plus the slopes whose sum has exact real zeros in range.
    sweep = np.concatenate(
        [
            np.linspace(0.0, 1.0, 199),
            np.linspace(0.0, 1.0, 50),
            [2 / 4, 2 / 7, 5 / 7, 2 / 10, 8 / 10, 2 / 13, 5 / 13, 8 / 13, 11 / 13, 2 / 16, 5 / 16],
        ]
    )
    for t in sweep:
        cover = spectral.ssv_scan(tf.poly(float(t)), spec, thr, 200_000)
        worst = max(worst, cover.count / 3.0**spec.m)
    print(f"ssv components per L^m ({sweep.size}-pt t sweep): {worst!r}  ({time.time()-t0:.0f}s)")
    print("  -> SSV_COMPONENTS_PER_LM = above * 1.25")


def cet_corollary_baseline():
    import numpy as _np

    from favlab.lemmas import cetsq_ratio
    from favlab.verify import _clustered_frequencies, _max_per_unit_interval

    rng = _np.random.Generator(_np.random.Philox(123))
    worst = 0.0
    for _ in range(120):
        freqs = _clustered_frequencies(rng)
        phases = rng.uniform(0.0, 2.0 * _np.pi, freqs.size)
        lhs, _, _ = cetsq_ratio(freqs, _np.exp(1j * phases))
        worst = max(worst, lhs / (freqs.size * _max_per_unit_interval(freqs)))
    print(f"CET corollary worst: {worst!r}")
    print("  -> CET_COROLLARY_CEILING comfortably above")


def bootstrap_baseline():
    rep = stacks.bootstrap_report(ifs.preset("corner4"), 0.2, 2, 4)
    print(f"bootstrap residual: {rep.residual!r} (a={rep.geom_a:.4f}, rho={rep.geom_rho:.4f})")
    print("  -> BOOTSTRAP_RESIDUAL_CEILING = above * 2")


def turan_cetsq_spread():
    rep = verify.run_suite("turan", 500, seed=20250809)
    print(f"turan 500-trial worst A: {rep['worst_case']!r}")
    rep = verify.run_suite("cetsq", 120, seed=20250809)
    print(f"cetsq 120-trial worst ratio: {rep['worst_case']!r}")


if __name__ == "__main__":
    product_baseline()
    bootstrap_baseline()
    turan_cetsq_spread()
    cet_corollary_baseline()
    ssv_baseline()
    doubling_sweep()
