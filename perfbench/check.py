"""Correctness check of one pipeline run, read from its output directory.

The check uses only the emitted files, so it holds for any implementation
that keeps the output format:

* every sha256 in ``manifest.json`` matches the file it names;
* for each fitness null model, the expected link count recomputed from the
  emitted ``z`` and fitness vectors matches the observed link count to 1e-10
  relative;
* the BiCM expected degrees match their targets to 1e-8;
* optionally, each fitted grid cell's estimates and standard errors match a
  recorded reference to 1e-6 relative. A cell without a reference (one that
  newly succeeds) passes; a cell with a reference that no longer fits fails.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

LINK_COUNT_REL_TOL = 1e-10
BICM_DEGREE_TOL = 1e-8
REFERENCE_REL_TOL = 1e-6


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path) -> str:
    # not creditnet.report.sha256_file: a broken writer must not vouch for
    # its own output
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def expected_links(z, s, t) -> float:
    st = z * np.outer(np.asarray(s, float), np.asarray(t, float))
    return float((st / (1.0 + st)).sum())


def bicm_residual(x, y, k, h) -> float:
    """Largest absolute gap between BiCM expected and target degrees."""
    xy = np.outer(np.asarray(x, float), np.asarray(y, float))
    p = xy / (1.0 + xy)
    return float(max(np.abs(p.sum(axis=1) - np.asarray(k, float)).max(),
                     np.abs(p.sum(axis=0) - np.asarray(h, float)).max()))


def cell_estimates(out_dir: str) -> dict[str, dict[str, list]]:
    """``{cell: {coefficient: [estimate, std_error]}}`` of every fitted cell."""
    regress = os.path.join(out_dir, "regress")
    out = {}
    if not os.path.isdir(regress):
        return out
    for fname in sorted(os.listdir(regress)):
        if fname.endswith(".json"):
            coefs = _load(os.path.join(regress, fname))["coefficients"]
            out[fname[:-5]] = {name: [c["estimate"], c["std_error"]]
                               for name, c in coefs.items()}
    return out


def _close(a, b) -> bool:
    if a is None or b is None:  # NaN is written as null
        return a is None and b is None
    return abs(a - b) <= REFERENCE_REL_TOL * max(abs(a), abs(b), 1e-300)


def check_run(out_dir: str, input_paths: dict[str, str],
              reference: dict | None = None) -> list[str]:
    """Return the list of problems found; empty means the run is correct."""
    problems: list[str] = []
    manifest = _load(os.path.join(out_dir, "manifest.json"))
    for name, digest in manifest["inputs"].items():
        if _sha256(input_paths[name]) != digest:
            problems.append(f"input {name}: sha256 mismatch")
    for rel, digest in manifest["outputs"].items():
        if _sha256(os.path.join(out_dir, rel)) != digest:
            problems.append(f"output {rel}: sha256 mismatch")

    n_links = _load(os.path.join(out_dir, "summary_stats.json"))["n_links"]
    for variant in manifest["config"]["null_variants"]:
        path = os.path.join(out_dir, f"nullmodel_{variant}.json")
        if not os.path.exists(path):
            continue  # a failed variant; counted by the caller
        spec = _load(path)["spec"]
        if spec["model"] == "fitness":
            total = expected_links(spec["z"], spec["firm_fitness"],
                                   spec["bank_fitness"])
            rel = abs(total - n_links) / n_links
            if not rel <= LINK_COUNT_REL_TOL:
                problems.append(f"nullmodel_{variant}: sum p = {total!r} vs "
                                f"{n_links} links (rel {rel:.2e})")
        elif spec["model"] == "bicm":
            res = bicm_residual(spec["firm_multipliers"],
                                spec["bank_multipliers"],
                                spec["target_firm_degrees"],
                                spec["target_bank_degrees"])
            if not res < BICM_DEGREE_TOL:
                problems.append(f"nullmodel_{variant}: degree residual "
                                f"{res:.2e}")

    if reference is not None:
        fitted = cell_estimates(out_dir)
        for cell in sorted(set(reference) - set(fitted)):
            problems.append(f"{cell}: fitted in reference, failed now")
        for cell, coefs in fitted.items():
            ref = reference.get(cell)
            if ref is None:
                continue  # newly succeeding cell: nothing to compare
            if set(ref) != set(coefs):
                problems.append(f"{cell}: coefficient names differ")
                continue
            for name, (est, se) in coefs.items():
                if not (_close(est, ref[name][0]) and _close(se, ref[name][1])):
                    problems.append(f"{cell}.{name}: {est!r} ({se!r}) vs "
                                    f"reference {ref[name][0]!r} "
                                    f"({ref[name][1]!r})")
    return problems


def manifest_failures(out_dir: str) -> dict[str, str]:
    """The failures a run recorded in its manifest, by operation name."""
    return _load(os.path.join(out_dir, "manifest.json"))["failures"]


def operations(failures: dict, n_variants: int,
               cells: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations of a completed run.

    Operations are the null variants, the grid cells and the VIF diagnostic
    on ``loan_sizing_m3_a`` (when that cell is in the grid). A VIF whose base
    cell failed counts as failed.
    """
    attempted = n_variants + len(cells)
    failed = len(failures)
    if "loan_sizing_m3_a" in cells:
        attempted += 1
        if "loan_sizing_m3_a" in failures and "vif" not in failures:
            failed += 1
    return attempted, failed
