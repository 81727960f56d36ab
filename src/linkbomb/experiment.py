"""Trial harness for measuring attacks on random graphs.

One trial: generate a graph, pick a victim and attackers, strip the
attackers' out-edges, apply each requested attack pattern, then solve
the baseline and every attacked graph together at each alpha. Per
attack the record carries

    magnitude          victim_after - victim_before
    gain               magnitude / victim_before
    norm_gain          magnitude / std of the baseline score distribution
    discrepancy        gain(individual) / gain(attack)
    norm_discrepancy   norm_gain(individual) - norm_gain(attack)

A zero-gain attack makes the discrepancy undefined; it is emitted as an
empty field with a flag column rather than raised, since alpha = 0 and
unreachable victims are legitimate sweep points.

Everything is deterministic given the master seed: trial t derives its
own seeds from (master_seed, t), and the same graph and node selection
are reused across the alpha sweep so alpha effects are paired.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attacks import PATTERNS, apply_attack, build_pattern
from .generators import GeneratorConfig, generate
from .graph import _integers, _reals, _write_table
from .pagerank import (
    MAX_ITERATIONS,
    TOLERANCE,
    PageRankConfig,
    PageRankVector,
    _check_limits,
    compute_pagerank,
    compute_pageranks,
    rank_of,
)

__all__ = [
    "SelectionRule",
    "ExperimentConfig",
    "AttackOutcome",
    "TrialRecord",
    "run_trial",
    "run_experiment",
    "pagerank_histogram",
    "write_trials_csv",
    "write_summary_csv",
    "summarize",
    "parse_experiment_config",
]

TRIALS_COLUMNS = [
    "trial",
    "alpha",
    "model",
    "seed",
    "victim",
    "p0",
    "p_attacker_mean",
    "sigma_p",
    "rank_before",
    "attack",
    "magnitude",
    "gain",
    "norm_gain",
    "rank_after",
    "discrepancy",
    "norm_discrepancy",
    "discrepancy_undefined",
]

SUMMARY_COLUMNS = [
    "model",
    "alpha",
    "attack",
    "trials",
    "mean_magnitude",
    "std_magnitude",
    "mean_gain",
    "std_gain",
    "mean_norm_gain",
    "std_norm_gain",
    "mean_discrepancy",
    "std_discrepancy",
    "undefined_discrepancies",
    "rank1_fraction",
]


@dataclass(frozen=True)
class SelectionRule:
    """How the victim or the attackers are drawn.

    mode "uniform" picks uniformly at random; mode "quantile" picks from
    the [lo, hi) band of nodes ordered by their pre-strip baseline score,
    which is how attacker/victim prominence is controlled.
    """

    mode: str = "uniform"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.mode not in ("uniform", "quantile"):
            raise ValueError(f"selection mode must be uniform or quantile, got {self.mode!r}")
        _reals("lo", [self.lo], 0, 1)
        _reals("hi", [self.hi], 0, 1)
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got lo={self.lo}, hi={self.hi}")

    @classmethod
    def parse(cls, text: str) -> "SelectionRule":
        text = text.strip()
        if text == "uniform":
            return cls()
        parts = text.split(":")
        if parts[0] == "quantile" and len(parts) == 3:
            return cls(mode="quantile", lo=float(parts[1]), hi=float(parts[2]))
        raise ValueError(f"cannot parse selection rule {text!r}")

    def __str__(self) -> str:
        if self.mode == "uniform":
            return "uniform"
        return f"quantile:{self.lo}:{self.hi}"


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig
    alphas: tuple[float, ...] = (0.85,)
    trials: int = 20
    n_attackers: int = 10
    attacks: tuple[str, ...] = ("individual", "cycle")
    attacker_selection: SelectionRule = SelectionRule()
    victim_selection: SelectionRule = SelectionRule()
    master_seed: int = 0
    tolerance: float = TOLERANCE
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(_reals("alphas", self.alphas, 0, 1, "[)")))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        _integers("trials", [self.trials], 1)
        _integers("n_attackers", [self.n_attackers], 1)
        _integers("master_seed", [self.master_seed], 0)
        if self.n_attackers + 1 > self.generator.n:
            raise ValueError(
                f"need n_attackers + 1 <= n, got {self.n_attackers} attackers on {self.generator.n} nodes"
            )
        if not self.alphas:
            raise ValueError("alpha sweep must not be empty")
        # A repeat would merge its summary cells and solve its graphs twice.
        for name, values in (("alphas", self.alphas), ("attacks", self.attacks)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        unknown = [a for a in self.attacks if a not in PATTERNS]
        if unknown:
            raise ValueError(f"unknown attack {unknown[0]!r}, expected one of {PATTERNS}")
        if "individual" not in self.attacks:
            raise ValueError("attack list must include 'individual' (discrepancy baseline)")
        if "cycle" in self.attacks and self.n_attackers == 1:
            raise ValueError("cycle pattern needs at least 2 attackers")
        _check_limits(self.tolerance, self.max_iterations)


@dataclass(slots=True)
class AttackOutcome:
    pattern: str
    magnitude: float
    gain: float
    norm_gain: float
    rank_after: int
    discrepancy: float | None = None
    norm_discrepancy: float = 0.0
    discrepancy_undefined: bool = False


@dataclass(slots=True)
class TrialRecord:
    trial: int
    alpha: float
    model: str
    seed: int
    victim: int
    attackers: tuple[int, ...]
    p0: float
    p_attacker_mean: float
    sigma_p: float
    rank_before: int
    outcomes: dict[str, AttackOutcome] = field(default_factory=dict)


def _pick(rng, pool: np.ndarray, k: int) -> list[int]:
    if len(pool) < k:
        raise ValueError(f"selection pool has {len(pool)} nodes, need {k}")
    idx = rng.choice(len(pool), size=k, replace=False)
    return [int(pool[i]) for i in idx]


def _selection_pool(rule: SelectionRule, order: np.ndarray, n: int) -> np.ndarray:
    if rule.mode == "uniform":
        return np.arange(n)
    lo = int(np.floor(rule.lo * n))
    hi = int(np.ceil(rule.hi * n))
    return order[lo:hi]


def run_trial(cfg: ExperimentConfig, trial_index: int) -> list[TrialRecord]:
    """Run one trial, returning a record per alpha in the sweep.

    The graph, the victim/attacker choice and the attacked graphs are
    fixed once per trial; only the solves depend on alpha. Per alpha the
    baseline and every attacked graph are solved together in one
    `compute_pageranks` call.
    """
    ss = np.random.SeedSequence((cfg.master_seed, trial_index))
    graph_seed, select_seed = (int(s) for s in ss.generate_state(2))
    gen_cfg = dataclasses.replace(cfg.generator, seed=graph_seed)
    g = generate(gen_cfg)
    n = g.node_count
    rng = np.random.default_rng(select_seed)

    needs_scores = "quantile" in (cfg.attacker_selection.mode, cfg.victim_selection.mode)
    if needs_scores:
        # Prominence bands refer to scores before the attackers are stripped.
        sel = compute_pagerank(g, PageRankConfig(cfg.alphas[0], cfg.tolerance, cfg.max_iterations))
        order = np.lexsort((np.arange(n), sel.scores))
    else:
        order = np.arange(n)

    victim = _pick(rng, _selection_pool(cfg.victim_selection, order, n), 1)[0]
    attacker_pool = _selection_pool(cfg.attacker_selection, order, n)
    attacker_pool = attacker_pool[attacker_pool != victim]
    attackers = tuple(_pick(rng, attacker_pool, cfg.n_attackers))

    stripped = g._splice(attackers)
    attacked = [apply_attack(stripped, build_pattern(pattern, attackers, victim)) for pattern in cfg.attacks]

    records = []
    for alpha in cfg.alphas:
        prcfg = PageRankConfig(alpha, cfg.tolerance, cfg.max_iterations)
        base, *afters = compute_pageranks([stripped, *attacked], prcfg)
        p0 = float(base.scores[victim])
        p_att = float(base.scores[list(attackers)].mean())
        sigma = float(base.scores.std())
        record = TrialRecord(
            trial=trial_index,
            alpha=alpha,
            model=cfg.generator.model,
            seed=graph_seed,
            victim=victim,
            attackers=attackers,
            p0=p0,
            p_attacker_mean=p_att,
            sigma_p=sigma,
            rank_before=rank_of(base, victim),
        )
        for pattern, after in zip(cfg.attacks, afters):
            magnitude = float(after.scores[victim]) - p0
            gain = magnitude / p0
            norm_gain = magnitude / sigma if sigma > 0.0 else 0.0
            record.outcomes[pattern] = AttackOutcome(
                pattern=pattern,
                magnitude=magnitude,
                gain=gain,
                norm_gain=norm_gain,
                rank_after=rank_of(after, victim),
            )
        ind = record.outcomes["individual"]
        for pattern, oc in record.outcomes.items():
            if pattern == "individual":
                oc.discrepancy = 1.0
                oc.norm_discrepancy = 0.0
            elif oc.gain == 0.0:
                oc.discrepancy = None
                oc.discrepancy_undefined = True
                oc.norm_discrepancy = ind.norm_gain - oc.norm_gain
            else:
                oc.discrepancy = ind.gain / oc.gain
                oc.norm_discrepancy = ind.norm_gain - oc.norm_gain
        records.append(record)
    return records


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """All trials, in trial order. Trials are independent; the fold is
    deterministic."""
    records: list[TrialRecord] = []
    for t in range(cfg.trials):
        records.extend(run_trial(cfg, t))
    return records


def summarize(cfg: ExperimentConfig, records: list[TrialRecord]) -> list[dict]:
    """Mean/std per (model, alpha, attack) cell, in sweep order."""
    rows = []
    for alpha in cfg.alphas:
        for pattern in cfg.attacks:
            cell = [r.outcomes[pattern] for r in records if r.alpha == alpha]
            if not cell:
                continue
            mags = np.array([oc.magnitude for oc in cell])
            gains = np.array([oc.gain for oc in cell])
            ngains = np.array([oc.norm_gain for oc in cell])
            defined = np.array([oc.discrepancy for oc in cell if oc.discrepancy is not None])
            rows.append(
                {
                    "model": cfg.generator.model,
                    "alpha": alpha,
                    "attack": pattern,
                    "trials": len(cell),
                    "mean_magnitude": float(mags.mean()),
                    "std_magnitude": _std(mags),
                    "mean_gain": float(gains.mean()),
                    "std_gain": _std(gains),
                    "mean_norm_gain": float(ngains.mean()),
                    "std_norm_gain": _std(ngains),
                    "mean_discrepancy": float(defined.mean()) if len(defined) else None,
                    "std_discrepancy": _std(defined) if len(defined) else None,
                    "undefined_discrepancies": len(cell) - len(defined),
                    "rank1_fraction": float(np.mean([oc.rank_after == 1 for oc in cell])),
                }
            )
    return rows


def _std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if len(values) > 1 else 0.0


def pagerank_histogram(prv: PageRankVector, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram of the scores over [min, max]; counts sum to N."""
    [bins] = _integers("bins", [bins], 1)
    scores = prv.scores
    counts, edges = np.histogram(scores, bins=bins, range=(float(scores.min()), float(scores.max())))
    return counts, edges


# ---- CSV emission -------------------------------------------------------------


def trials_rows(records: list[TrialRecord]):
    for r in records:
        for pattern, oc in r.outcomes.items():
            yield [
                r.trial,
                r.alpha,
                r.model,
                r.seed,
                r.victim,
                r.p0,
                r.p_attacker_mean,
                r.sigma_p,
                r.rank_before,
                pattern,
                oc.magnitude,
                oc.gain,
                oc.norm_gain,
                oc.rank_after,
                oc.discrepancy,
                oc.norm_discrepancy,
                int(oc.discrepancy_undefined),
            ]


def write_trials_csv(records: list[TrialRecord], path) -> None:
    _write_table(path, TRIALS_COLUMNS, trials_rows(records))


def write_summary_csv(cfg: ExperimentConfig, records: list[TrialRecord], path) -> None:
    rows = summarize(cfg, records)
    _write_table(path, SUMMARY_COLUMNS, ([row[c] for c in SUMMARY_COLUMNS] for row in rows))


# ---- flat key-value config files ----------------------------------------------

_GENERATOR_KEYS = {
    "model": str,
    "n": int,
    "p": float,
    "m": int,
    "beta": float,
    "tau": float,
    "d_max": int,
    "target_edges": float,
}

_EXPERIMENT_KEYS = {
    "alphas": lambda text: tuple(float(a) for a in text.split(",")),
    "trials": int,
    "n_attackers": int,
    "attacks": lambda text: tuple(a.strip() for a in text.split(",")),
    "attacker_selection": SelectionRule.parse,
    "victim_selection": SelectionRule.parse,
    "master_seed": int,
    "tolerance": float,
    "max_iterations": int,
}


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines ('#' comments) into an ExperimentConfig.

    A value that does not convert fails with its line number and key.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key not in _GENERATOR_KEYS and key not in _EXPERIMENT_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = (lineno, val)

    if "model" not in values or "n" not in values:
        raise ValueError("config must set at least 'model' and 'n'")

    def convert(keys: dict) -> dict:
        out = {}
        for key, conv in keys.items():
            if key in values:
                lineno, val = values[key]
                try:
                    out[key] = conv(val)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {key}: {exc}") from None
        return out

    gen_kwargs = convert(_GENERATOR_KEYS)
    if "target_edges" in gen_kwargs:
        gen_kwargs["target_expected_edges"] = gen_kwargs.pop("target_edges")
    return ExperimentConfig(generator=GeneratorConfig(**gen_kwargs), **convert(_EXPERIMENT_KEYS))


def read_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(Path(path).read_text())
