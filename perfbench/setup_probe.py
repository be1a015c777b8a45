"""Set-up probe: import the CLI, load a workload config, build its Scenario and
realise the initial datum, then exit.  Its spawn-to-exit time is `setup_s`.

Usage: python3 perfbench/setup_probe.py CONFIG [SEED]
"""

import sys

from decaylab.cli import build_scenario, load_config
from decaylab.evolve import make_initial

scenario = build_scenario(load_config(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else None)
datum = make_initial(scenario.initial, scenario.grid, scenario.params, scenario.seed)
sys.exit(0 if datum.values.max() > 0.0 else 1)
