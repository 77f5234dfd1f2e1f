"""Command-line front end.

Subcommands map to the experiment families: ``session`` (one market
run), ``quiver`` (phase-space drift field of one adaptive buyer/seller
pair), ``coevolve`` (many adaptive traders, recurrence analysis of the
strategy log), ``stgp`` (multi-generation strategy evolution).  All
output files are rendered in memory first, so a failing run writes
nothing.
"""

import argparse
import io
import sys
from pathlib import Path

from . import analysis, coevo, harness, lob, stgp

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coevomarket",
        description="market sessions with minimal-intelligence and "
                    "coevolving adaptive traders")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("session", "run one market session"),
                       ("quiver", "sample the adaptive-pair drift field"),
                       ("coevolve", "run adaptive traders and analyze "
                                    "strategy recurrence"),
                       ("stgp", "evolve quote expressions over generations")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        doc = harness.load_config(args.config)
        outputs = _HANDLERS[args.command](doc, args.seed)
    except (harness.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            (outdir / name).write_text(content, encoding="utf8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0

def _session_cmd(doc: dict, seed) -> dict:
    cfg = harness.parse_session_config(doc, seed=seed)
    result = harness.run_session(cfg)
    tape = io.StringIO()
    lob.export_tape(result.tape, tape)
    profits = io.StringIO()
    profits.write("trader_id,side,profit\n")
    for entry in cfg.roster:
        profits.write(f"{entry.tid},{entry.side},{result.profits[entry.tid]}\n")
    return {"tape.csv": tape.getvalue(), "profits.csv": profits.getvalue()}

def _quiver_cmd(doc: dict, seed) -> dict:
    f = harness.read_fields(doc, "quiver config", {
        "grid_res": (int, 21), "horizon": (int, 1000), "reps": (int, 5),
        "workers": (int, 1), "seed": (int, 0),
        "session": (dict, harness.REQUIRED),
    })
    template = harness.parse_session_config(f["session"])
    field = coevo.quiver_sample(template, grid_res=f["grid_res"],
                                horizon=f["horizon"], reps=f["reps"],
                                seed=seed if seed is not None else f["seed"],
                                workers=f["workers"])
    out = io.StringIO()
    coevo.export_quiver(field, out)
    return {"quiver.csv": out.getvalue()}

def _coevolve_cmd(doc: dict, seed) -> dict:
    f = harness.read_fields(doc, "coevolve config", {
        "eps_frac": (float, 0.1), "theiler": (int, 1), "l_min": (int, 2),
        "v_min": (int, 2), "session": (dict, harness.REQUIRED),
    })
    cfg = harness.parse_session_config(f["session"], seed=seed)
    result = harness.run_session(cfg)
    log = result.strategy_log
    if log is None:
        raise harness.ConfigError("coevolve roster has no adaptive (PRZI_SHC) "
                                  "traders to log")
    eps = analysis.default_epsilon(log, frac=f["eps_frac"])
    matrix = analysis.recurrence_matrix(log, eps, theiler_w=f["theiler"])
    metrics = analysis.rqa_metrics(matrix, l_min=f["l_min"], v_min=f["v_min"])

    log_ids = [e.tid for e in cfg.roster if e.strategy.kind == "PRZI_SHC"]
    strategies = io.StringIO()
    strategies.write("time," + ",".join(log_ids) + "\n")
    for t, row in zip(log.times, log.samples):
        strategies.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")
    pbm = io.StringIO()
    analysis.write_pbm(matrix, pbm)
    rqa = io.StringIO()
    analysis.export_rqa(metrics, rqa)
    return {"strategies.csv": strategies.getvalue(),
            "recurrence.pbm": pbm.getvalue(),
            "rqa.csv": rqa.getvalue()}

def _stgp_cmd(doc: dict, seed) -> dict:
    f = harness.read_fields(doc, "stgp config", {
        "generations": (int, harness.REQUIRED),
        "seed_genome": (str, harness.REQUIRED),
        "p_x": (float, 0.9), "p_mut": (float, 0.05), "max_depth": (int, 8),
        "const_pool": (list, [1, 7]), "eps_sel": (float, 1e-6),
        "seed": (int, 0), "session": (dict, harness.REQUIRED),
    })
    if not all(stgp.is_const(c) for c in f["const_pool"]):
        raise harness.ConfigError("stgp config key 'const_pool' must be a "
                                  "list of numbers")
    template = harness.parse_session_config(f["session"], template=True)
    params = stgp.GenParams(p_x=f["p_x"], p_mut=f["p_mut"],
                            max_depth=f["max_depth"],
                            const_pool=tuple(f["const_pool"]),
                            eps_sel=f["eps_sel"])
    genome = stgp.parse_tree(f["seed_genome"])
    series = stgp.run_experiment(template, genome, f["generations"], params,
                                 seed if seed is not None else f["seed"])
    stats = io.StringIO()
    stgp.export_genstats(series, stats)
    elites = io.StringIO()
    for row in series:
        elites.write(f"gen={row.gen} fitness={row.max_fitness!r} "
                     f"{stgp.format_tree(row.elite)}\n")
    return {"genstats.csv": stats.getvalue(), "elites.txt": elites.getvalue()}

_HANDLERS = {
    "session": _session_cmd,
    "quiver": _quiver_cmd,
    "coevolve": _coevolve_cmd,
    "stgp": _stgp_cmd,
}

if __name__ == "__main__":
    sys.exit(main())
