"""One cold set-up, in a fresh interpreter: import coevomarket, then load
and validate a workload config the way its subcommand does.  Prints the
monotonic clock at the end, which the parent compares with its own
reading taken just before it started this process.

    PYTHONPATH=src python3 perfbench/setup_probe.py perfbench/workloads/stgp.json stgp
"""

import sys
import time

from coevomarket import cli


def main(path: str, workload: str):
    doc = cli.harness.load_config(path)
    cli.harness.parse_session_config(doc["session"],
                                     template=workload == "stgp")
    if workload == "stgp":
        cli.stgp.parse_tree(doc["seed_genome"])
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(*sys.argv[1:])
