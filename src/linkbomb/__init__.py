"""Link-bomb analysis for pagerank-style ranking.

Builds and measures coordinated link attacks on a directed multigraph:
the dangling-aware score solver, flow-fraction calculus, optimal direct
and disguised attack construction, link-farm configuration, random graph
models, and a seeded experiment harness.
"""
from .attacks import (
    AttackResult,
    AttackSpec,
    apply_attack,
    attack_magnitude,
    build_pattern,
    enumerate_alternative_attacks,
)
from .disguise import (
    DisguisedAttackPlan,
    ForwardValueMap,
    candidate_set,
    forward_values,
    optimal_disguised_joint,
    optimal_disguised_single,
    optimal_link_farm,
    value_of,
)
from .experiment import (
    ExperimentConfig,
    SelectionRule,
    TrialRecord,
    pagerank_histogram,
    parse_experiment_config,
    run_experiment,
    run_trial,
)
from .flow import (
    FlowQuery,
    FlowResult,
    attack_magnitude_formula,
    flow_fraction,
    flow_fraction_bruteforce,
)
from .generators import GeneratorConfig, gen_ba, gen_er, gen_mwdta, generate
from .graph import DirectedMultigraph, dumps_edgelist, load_edgelist, loads_edgelist, save_edgelist
from .pagerank import (
    ConvergenceError,
    PageRankConfig,
    PageRankVector,
    closed_form_isolated,
    compute_pagerank,
    compute_pageranks,
    rank_of,
    verify_sum_identity,
)

__version__ = "0.1.0"
