"""Set-up cost every subcommand pays, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG pipeline|table

Times ``import surveysense.cli``, ``load_config`` and then either
``report.build_pipeline`` (survey workloads) or ``data.load_table``
(detection workloads, which build no pipeline), and prints them as JSON.
"""

import json
import sys
from time import perf_counter


def main(config: str, stage: str) -> None:
    t0 = perf_counter()
    import surveysense.cli  # noqa: F401

    t1 = perf_counter()
    from surveysense.config import load_config

    cfg, _ = load_config(config)
    t2 = perf_counter()
    if stage == "pipeline":
        from surveysense.report import build_pipeline

        build_pipeline(cfg)
    else:
        from surveysense.data import load_table

        load_table(cfg.survey, cfg.schema)
    t3 = perf_counter()
    print(json.dumps({
        "import_s": t1 - t0, "config_s": t2 - t1, "build_s": t3 - t2, "total_s": t3 - t0,
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
