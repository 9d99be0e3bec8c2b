"""End-to-end and per-layer metrics of the leibnizalg benchmark."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
CERTIFICATES = ("exhaustive", "lemma_aa", "witness", "nilpotent_self", "abelian",
                "dimension", "unknown")


def tail_percentile(n: int, beyond: int = TAIL_BEYOND):
    """Highest whole percentile whose nearest-rank sample has at least
    ``beyond`` samples above it, or None when ``n`` is too small."""
    if n <= beyond:
        return None
    return 100 * (n - beyond) // n


def percentile(values, p: int):
    """Nearest-rank percentile: the ceil(p * n / 100)-th smallest value."""
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def end_to_end(times, failed: int, setup_times, peak_rss_mb: float) -> dict:
    """End-to-end metrics; ``times`` holds each operation's time in seconds
    (the median of its passes, scaled to the reference host speed),
    ``setup_times`` the scaled set-up times and ``failed`` the operations
    that failed in any pass."""
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((len(times) - failed) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
    }
    p = tail_percentile(len(times))
    if p is not None:
        out["op_tail_ms"] = (percentile(times, p) * 1000, "ms")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def _self(summary, *names):
    return sum(v for k, v in summary["self_s"].items() if k in names)


def _layer_self(summary, layer):
    return sum(v for k, v in summary["self_s"].items() if k.startswith(layer + "."))


def per_layer(summary: dict, field_counts: dict, corpus_build_s: float,
              overhead_frac: float) -> dict:
    """Per-layer metrics from a span summary (see tracer.Tracer.summary) and
    the counts of a field-counting pass."""
    calls = summary["calls"]
    counts = summary["counts"]
    fc = field_counts

    def fsum(cls, methods=("add", "sub", "mul", "neg", "inv", "div")):
        return sum(fc.get(f"{cls}.{m}", 0) for m in methods)

    visited = counts.get("enumeration.echelon_bases.yields", 0)
    accepted = sum(counts.get(f"enumeration.iter_{k}.yields", 0)
                   for k in ("subspaces", "subalgebras", "ideals"))
    out = {
        "fields.ext_neg_calls": (fc.get("ExtensionField.neg", 0), "count"),
        "fields.ext_sub_calls": (fc.get("ExtensionField.sub", 0), "count"),
        "fields.ext_add_calls": (fc.get("ExtensionField.add", 0), "count"),
        "fields.ext_mul_calls": (fc.get("ExtensionField.mul", 0), "count"),
        "fields.prime_ops": (fsum("PrimeField"), "count"),
        "fields.rational_ops": (fsum("Rationals"), "count"),
        "fields.is_zero_calls": (sum(fsum(c, ("is_zero",)) for c in
                                     ("PrimeField", "ExtensionField", "Rationals")), "count"),
        "linalg.rref_calls": (calls.get("linalg.rref", 0), "count"),
        "linalg.rref_self_s": (_self(summary, "linalg.rref"), "s"),
        "linalg.reduce_calls": (calls.get("linalg.reduce", 0), "count"),
        "linalg.reduce_self_s": (_self(summary, "linalg.reduce"), "s"),
        "linalg.intersect_calls": (calls.get("linalg.intersect", 0), "count"),
        "linalg.kernel_calls": (calls.get("linalg.kernel", 0), "count"),
        "linalg.self_s": (_layer_self(summary, "linalg"), "s"),
        "core.bracket_calls": (calls.get("core.bracket", 0), "count"),
        "core.bracket_self_s": (_self(summary, "core.bracket"), "s"),
        "core.product_calls": (calls.get("core.product", 0), "count"),
        "core.closure_calls": (calls.get("core.closure", 0), "count"),
        "core.self_s": (_layer_self(summary, "core"), "s"),
        "enumeration.subspaces_visited": (visited, "count"),
        "enumeration.spaces_accepted": (accepted, "count"),
        "enumeration.accept_ratio": (accepted / visited if visited else 0.0, "ratio"),
        "enumeration.enumerate_calls": (calls.get("enumeration.enumerate_spaces", 0), "count"),
        "enumeration.scan_self_s": (_self(summary, "enumeration.enumerate_spaces",
                                          "enumeration.iter_subspaces",
                                          "enumeration.iter_subalgebras",
                                          "enumeration.iter_ideals"), "s"),
        "enumeration.lattice_self_s": (_self(summary, "enumeration.maximal_subalgebras",
                                             "enumeration.socle_analysis",
                                             "enumeration.frattini_ideal"), "s"),
        "series.nilpotent_space_calls": (calls.get("series.is_nilpotent_space", 0), "count"),
        "series.nilradical_self_s": (_self(summary, "series.nilradical"), "s"),
        "series.self_s": (_layer_self(summary, "series"), "s"),
        "decompose.max_nilpotent_self_s": (
            _self(summary, "decompose.max_nilpotent_subalgebras"), "s"),
        "decompose.cartan_self_s": (_self(summary, "decompose.cartan_subalgebra",
                                          "decompose.enumerated_cartan_subalgebras"), "s"),
        "decompose.triangular_self_s": (_self(summary, "decompose.triangular_decomposition"), "s"),
        "decompose.clauses_self_s": (sum(v for k, v in summary["self_s"].items()
                                         if k.startswith("decompose.check_")), "s"),
        "decompose.self_s": (_layer_self(summary, "decompose"), "s"),
        "aalgebra.verdict_calls": (calls.get("aalgebra.is_a_algebra", 0), "count"),
        "aalgebra.verdict_self_s": (_self(summary, "aalgebra.is_a_algebra"), "s"),
        "aalgebra.witness_search_self_s": (_self(summary, "aalgebra.witness_search"), "s"),
        "aalgebra.battery_self_s": (_self(summary, "aalgebra.theorem_battery"), "s"),
    }
    for cert in CERTIFICATES:
        name = f"aalgebra.certificate.{cert}"
        out[name] = (counts.get(name, 0), "count")
    out.update({
        "poly.factor_calls": (calls.get("poly.poly_factor", 0), "count"),
        "poly.factor_self_s": (_self(summary, "poly.poly_factor"), "s"),
        "cyclic.classify_self_s": (_self(summary, "cyclic.classify_cyclic"), "s"),
        "cli.startup_s": (summary.get("startup_s", 0.0), "s"),
        "algfile.load_self_s": (_self(summary, "algfile.load_algebra_path"), "s"),
        "cli.render_self_s": (_self(summary, "cli.render"), "s"),
        "corpus.build_s": (corpus_build_s, "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return out
