#!/usr/bin/env python3
"""Parameter search behind the frozen pinwheel counterexample.

The pinwheel family has four shape parameters (tip radius fixed to 1):

    center_height  height of the Y-center above the tip plane
    ring_height    height of the central-triangle ring
    ring_radius    horizontal radius of the ring
    twist          azimuth of each ring vertex relative to its arm tip
                   (negative: twisted clockwise, so a counterclockwise
                   rotation of the central triangle shortens)

A candidate is accepted when, simultaneously,

  1. the PL saddle predicate passes (all vertex-triple planes with nudged
     offsets plus seeded random planes),
  2. the 1-skeleton with pinned boundary passes the first-order
     minimization certificate exactly (descent value 0 at the ring,
     angle sums above a full turn),
  3. rotating the central triangle counterclockwise by every eps in the
     validated grid is entrywise non-increasing on the vertex length
     matrix with a strict decrease of at least 1e-4.

Run:  python3 tools/search_hexagon.py [--fine] [--write-fixture PATH]

The shipped constants in catmin.saddle.HEXAGON_PARAMS are the recorded
winner of this search (robust interior point of the feasible region).
"""

import argparse
import itertools
import json
import sys

from catmin.minimize import certify_conditions
from catmin.saddle import hexagon_counterexample, hexagon_graph, is_saddle_pl, shorten_by_rotation

EPS_GRID = (0.005, 0.01, 0.02, 0.05, 0.08, 0.1)
MIN_STRICT_DECREASE = 1e-4


def evaluate(params: dict, extra_planes: int = 200) -> dict | None:
    try:
        disc = hexagon_counterexample(params)
    except Exception:
        return None
    verdict = is_saddle_pl(disc, extra_planes=extra_planes, seed=0)
    if not verdict.saddle:
        return None
    cert = certify_conditions(hexagon_graph(disc))
    if not cert.valid or cert.worst_t_star > 1e-10:
        return None
    decreases = []
    for eps in EPS_GRID:
        if eps > params["max_epsilon"]:
            continue
        _, rep = shorten_by_rotation(disc, eps)
        if not rep["pareto"] or not rep["boundary_unchanged"]:
            return None
        decreases.append(rep["max_strict_decrease"])
    if not decreases or min(decreases) < MIN_STRICT_DECREASE:
        return None
    return {
        "params": dict(params),
        "min_strict_decrease": min(decreases),
        "min_angle_sum": min(cert.angle_sums.values()),
        "planes_tested": verdict.planes_tested,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fine", action="store_true", help="denser grid and more random planes")
    ap.add_argument("--write-fixture", metavar="PATH", help="write the winner as instance JSON")
    args = ap.parse_args(argv)

    if args.fine:
        heights = (0.8, 0.9, 1.0, 1.1, 1.3)
        ring_frac = (0.3, 0.4, 0.5, 0.6)
        radii = (0.15, 0.2, 0.25, 0.3, 0.35)
        twists = (-0.1, -0.15, -0.2, -0.3, -0.4)
        extra = 600
    else:
        heights = (0.8, 1.0, 1.3)
        ring_frac = (0.25, 0.4, 0.55)
        radii = (0.15, 0.25, 0.35)
        twists = (-0.1, -0.2, -0.35)
        extra = 200

    winners = []
    for hc, frac, rho, twist in itertools.product(heights, ring_frac, radii, twists):
        params = {
            "tip_radius": 1.0,
            "center_height": hc,
            "ring_radius": rho,
            "ring_height": frac * hc,
            "twist": twist,
            "epsilon": 0.05,
            "max_epsilon": 0.1,
            "refinement": 2,
        }
        result = evaluate(params, extra_planes=extra)
        if result:
            winners.append(result)
            p = result["params"]
            print(
                f"PASS hc={p['center_height']:.2f} hq={p['ring_height']:.2f} "
                f"rho={p['ring_radius']:.2f} twist={p['twist']:+.2f} "
                f"strict_dec={result['min_strict_decrease']:.2e} "
                f"angle={result['min_angle_sum']:.4f}"
            )
    print(f"\n{len(winners)} candidates pass all checks")
    if not winners:
        return 1
    # the shipped constants are an interior point of the feasible region;
    # re-validate them and prefer them when they pass, otherwise fall back
    # to the largest shortening margin
    from catmin.saddle import HEXAGON_PARAMS

    shipped = evaluate(dict(HEXAGON_PARAMS), extra_planes=extra)
    if shipped:
        best = shipped
        print("shipped constants re-validated")
    else:
        best = max(winners, key=lambda r: r["min_strict_decrease"])
        print("shipped constants FAILED revalidation; falling back")
    print("selected:", json.dumps(best["params"], indent=2))
    if args.write_fixture:
        from catmin.instances import instance_to_json, mapped_disc_instance

        disc = hexagon_counterexample(best["params"])
        payload = mapped_disc_instance(disc, metadata={"pinwheel_params": best["params"]})
        with open(args.write_fixture, "w", encoding="utf-8") as fh:
            fh.write(instance_to_json(payload))
        print("fixture written to", args.write_fixture)
    return 0


if __name__ == "__main__":
    sys.exit(main())
