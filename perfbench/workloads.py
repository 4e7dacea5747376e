"""The benchmark workloads: their inputs, the study call and its outputs.

Each workload is one study a user of cnflow runs to check a claim of the
paper.  ``setup`` brings a fresh interpreter to "ready" for it and
``study`` runs it once, returning the outputs the check compares.
"""

import csv
import os

# Stock configs, with the overrides that make the NSE ladder affordable.
FLOW = {
    "nse_incompatible": ("configs/case_ii_weighted.cfg",
                         {"k_list": "0.02,0.01,0.005", "refinement": "4"}),
    "stokes_manufactured": ("configs/stokes_manufactured.cfg", {}),
}
VERIFY_TARGETS = ("spectral-stability", "spectral-smoothing", "euler-rates", "temporal")
WORKLOADS = ("nse_incompatible", "stokes_manufactured", "spectral_verify")


def flow_config(root, workload, out):
    from cnflow import cli

    path, overrides = FLOW[workload]
    with open(os.path.join(root, path)) as fh:
        mapping = cli.parse_config_text(fh.read())
    mapping.update(overrides)
    mapping.update(out=out, threads="1")
    return cli.build_run_config(mapping)


def setup(root, workload, out):
    """Import cnflow and, for a flow workload, parse the config and assemble."""
    from cnflow import cli

    if workload in FLOW:
        config = flow_config(root, workload, out)
        space = cli.build_space(config.domain, config.nx, config.ny)
        # the operators are assembled lazily, on first access
        _ = (space.mass, space.stiffness, space.divergence, space.pressure_mass,
             space.mean_vector)


def prepare(root, workload, seed, out):
    """Everything the study needs that is not part of the timed call."""
    if workload in FLOW:
        return flow_config(root, workload, out)
    return seed


def study(workload, prepared, out):
    """Run the study once and return its outputs as plain JSON data.

    Raises ``cnflow.fem2d.SolverError`` when a solve fails.
    """
    from cnflow import cli

    if workload in FLOW:
        record, failures, _ = cli.run_convergence(prepared)
        errors, rates = {}, {}
        for row in record.rows:
            errors.setdefault(row.norm, {})[repr(row.k)] = row.error
        for norm in record.norms():
            rates[norm] = record.fit(norm).slope
        return {"errors": errors, "rates": rates,
                "failures": [f"k={k!r}: {msg}" for k, msg in failures]}

    rates, ratios, lines, codes = {}, {}, [], {}
    for target in VERIFY_TARGETS:
        codes[target], target_lines = cli.run_verify(target, out, prepared)
        lines.extend(target_lines)
        with open(os.path.join(out, f"verify_{target}.csv")) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if target == "euler-rates":
                rates[f"euler-rates:{row['r']},{row['s']},{row['s0']}"] = float(row["slope"])
            elif target == "temporal":
                rates[f"temporal:{row['operator']}"] = float(row["slope"])
            else:
                key = f"{target}:s={row['s']},l={row['ell']},N={row['N']}"
                ratios[key] = float(row["max_ratio"])
    return {"rates": rates, "ratios": ratios, "lines": lines, "codes": codes}
