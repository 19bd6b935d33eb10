"""Cold set-up of a loop sampler, as a user's fresh interpreter pays it.

Run as a script it builds one sampler (target, knowledge base, loop
library, scoring stack and ``gpu`` backend) and prints ``ready``; the
parent times it from process start to that line.  The benchmark's own
process builds its samplers through :func:`build_sampler` as well, so both
measure the same path.

    python3 perfbench/setup_probe.py <src dir> <target> <config json>
"""

from __future__ import annotations

import json
import sys


def build_sampler(target_name: str, config: dict, multi_score=None):
    """A ``gpu``-backend sampler for ``target_name`` with ``config``."""
    from repro.config import SamplingConfig
    from repro.loops.targets import get_target
    from repro.moscem.sampler import MOSCEMSampler

    return MOSCEMSampler(
        get_target(target_name),
        config=SamplingConfig(**config),
        multi_score=multi_score,
        backend_kind="gpu",
    )


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    build_sampler(sys.argv[2], json.loads(sys.argv[3]))
    print("ready", flush=True)
