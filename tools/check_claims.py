#!/usr/bin/env python3
"""Checks the paper's qualitative orderings that this reproduction holds.

Reads the BENCH_*.json summaries that fig3_inference and fig4_proberror
write with --json (one file per seed; paper scale is what the claims are
about) and checks, by name, each ordering below in every file of its
figure:

  fig3.bayes_indep_highest_detection
      Bayes-Indep has the highest mean detection rate in every Fig. 3
      arm (all five scenarios).
  fig4b.no_independence_corr_beats_independence
      In Fig. 4(b)'s No Independence arm (Sparse topologies), both
      Corr-heuristic and Corr-complete have a lower mean absolute error
      than Independence.

The orderings that do not hold at every seed are documented in the
README and deliberately not checked here.

Usage:
  tools/check_claims.py build/BENCH_fig3_paper_s42.json \\
      build/BENCH_fig4_paper_s42.json ...

Exit status: 0 when every claim holds in every file, 1 when one fails,
2 when an input is missing, unreadable, or lacks a cell a claim reads.
Standard library only.
"""

import argparse
import json
import sys

FIG3_ARMS = ["Random Congestion", "Concentrated Congestion", "No Independence",
             "No Stationarity", "Sparse Topology"]
FIG3_SERIES = ["Sparsity", "Bayes-Indep", "Bayes-Corr"]
FIG4B_ARM = "Sparse/No Independence"


class InputError(Exception):
    pass


def cell_means(doc, metric):
    """{(label, series): mean} for one metric."""
    return {(c["label"], c["series"]): c["mean"]
            for c in doc.get("cells", []) if c.get("metric") == metric}


def need(means, label, series, path):
    if (label, series) not in means:
        raise InputError(f"{path}: no cell {label!r} / {series!r}")
    return means[(label, series)]


def check_fig3(doc, path):
    """Yields (claim, ok, detail) for one Fig. 3 summary."""
    means = cell_means(doc, "detection_rate")
    for arm in FIG3_ARMS:
        rates = {s: need(means, arm, s, path) for s in FIG3_SERIES}
        others = [s for s in FIG3_SERIES if s != "Bayes-Indep"]
        ok = all(rates["Bayes-Indep"] > rates[s] for s in others)
        detail = f"{arm}: " + ", ".join(
            f"{s} {rates[s]:.4f}" for s in FIG3_SERIES)
        yield "fig3.bayes_indep_highest_detection", ok, detail


def check_fig4(doc, path):
    """Yields (claim, ok, detail) for one Fig. 4 summary."""
    means = cell_means(doc, "mean_abs_error")
    indep = need(means, FIG4B_ARM, "Independence", path)
    heur = need(means, FIG4B_ARM, "Corr-heuristic", path)
    complete = need(means, FIG4B_ARM, "Corr-complete", path)
    ok = heur < indep and complete < indep
    detail = (f"{FIG4B_ARM}: Corr-heuristic {heur:.4f}, "
              f"Corr-complete {complete:.4f}, Independence {indep:.4f}")
    yield "fig4b.no_independence_corr_beats_independence", ok, detail


CHECKS = {"fig3_inference": check_fig3, "fig4_proberror": check_fig4}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("inputs", nargs="+",
                        help="BENCH_*.json from fig3_inference and "
                             "fig4_proberror --json")
    args = parser.parse_args(argv)

    failed = 0
    seen = set()
    try:
        for path in args.inputs:
            try:
                with open(path, encoding="utf-8") as f:
                    doc = json.load(f)
            except (OSError, ValueError) as e:
                raise InputError(f"{path}: {e}") from e
            bench = doc.get("bench")
            if bench not in CHECKS:
                raise InputError(f"{path}: bench {bench!r} has no claims "
                                 f"(expected one of {sorted(CHECKS)})")
            seen.add(bench)
            params = doc.get("params", {})
            where = (f"{path} (scale={params.get('scale', '?')}, "
                     f"seed={params.get('seed', '?')}, "
                     f"replicas={params.get('replicas', '?')})")
            for claim, ok, detail in CHECKS[bench](doc, path):
                print(f"{'OK  ' if ok else 'FAIL'} {claim}  {where}  {detail}")
                failed += not ok
        for bench in sorted(set(CHECKS) - seen):
            raise InputError(f"no {bench} summary among the inputs")
    except InputError as e:
        print(f"check_claims: {e}", file=sys.stderr)
        return 2
    print(f"{'FAIL' if failed else 'OK'}: {failed} claim check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
