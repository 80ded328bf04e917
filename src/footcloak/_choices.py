"""The cloaking strategy and spillover population names.

The stages compare against them and the CLI offers them as flag choices.
This module imports nothing, so the CLI builds its parser before numpy
loads.
"""

STRATEGY_FG = "FG"
STRATEGY_MF = "MF"
STRATEGY_DOMAIN_MF = "DOMAIN_MF"
STRATEGY_FG_TOL = "FG_TOL"

# spillover measures the cost on the cloaked users, or on every test user
POPULATION_CLOAKED = "cloaked"
POPULATION_ALL_TEST = "all-test"
