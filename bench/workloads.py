"""The three workloads: seeded inputs and the CLI invocations run on them.

Each workload is a fixed *pass*: a list of ops (one ``oddtrans`` CLI
invocation each, with its output check) built from the workload seed.
The ops of a pass form three cost classes of similar ops (each a quarter
to two fifths of the ops), so that the median op and the p90 op each fall inside
a class rather than on a gap between two sizes that machine noise could
move them across.  The seed moves sizes by a few units, relabels vertices
and draws the random inputs of exact-sparse; the amount of work per pass
barely depends on it.  ``reduced`` keeps only the first entry of every list, for the
benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import families
from families import Instance


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], None]  # (exit code, stdout); raises on a wrong output


@dataclass
class Workload:
    name: str
    ops: list[Op]
    instances: list[Instance]
    inputs_sha256: str


class _References:
    """Reference results per instance, computed on first use (outside timing)."""

    def __init__(self) -> None:
        self._cache: dict[int, checks.Reference] = {}

    def __call__(self, inst: Instance) -> checks.Reference:
        ref = self._cache.get(id(inst))
        if ref is None:
            ref = self._cache[id(inst)] = checks.reference(inst)
        return ref


def _file_op(command: list[str], checker, refs: _References, inst: Instance) -> Op:
    def check(rc: int, out: str) -> None:
        checker(inst, refs(inst), rc, out)

    return Op([*command, inst.path], check)


def _layer_probe(command: str, rng: random.Random) -> tuple[str, Instance]:
    """One small op that touches the layers a workload otherwise leaves idle.

    Every per-layer metric is then measured on every workload, at under
    one percent of the pass time: a small minimal cycle power for
    ``spectral`` in exact-sparse, a small cut chain for the cut queries and
    the edge injection in the spectra workloads.
    """
    if command == "spectra":
        return command, families.cycle_power(5 + 2 * rng.randrange(2), 4, rng)
    return command, families.cut_chain(12 + rng.randrange(3), 14 + rng.randrange(3), 10)


def _exact_sparse(rng: random.Random, pick) -> tuple[list[Instance], list]:
    """Big banded and sparse eliminations plus quadratic cut queries."""

    def near(base: int, parity: int) -> int:
        n = base + 2 * rng.randrange(4)
        return n if n % 2 == parity else n + 1

    def window(base: int, k: int, parity: int) -> Instance:
        return families.window(near(base, parity), k)

    def tworeg(m: int) -> Instance:
        return families.two_regular(8, m + 2 * rng.randrange(3), rng)

    def chain(a: int, b: int, c: int) -> Instance:
        return families.cut_chain(a + rng.randrange(6), b + rng.randrange(6), c + rng.randrange(6))

    cheap = [window(230, 4 + 2 * (i % 2), i // 2 % 2) for i in range(6)] + [
        tworeg(250 + 60 * i) for i in range(4)
    ]
    middle = (
        [window(110, 4 + 2 * (i % 2), i // 2 % 2) for i in range(5)]
        + [chain(30, 36, 30) for _ in range(2)]
        + [tworeg(45) for _ in range(3)]
    )
    top_checks = [window(1000, 6, 0), window(751, 4, 1)]
    top_analyses = [window(240, 6, 1), tworeg(101), chain(80, 100, 70)]
    plan = (
        [("check", inst) for inst in pick(cheap)]
        + [("analyze", inst) for inst in pick(middle)]
        + [("check", inst) for inst in pick(top_checks)]
        + [("analyze", inst) for inst in pick(top_analyses)]
    )
    sweep_n_max = 40 + rng.randrange(6)
    plan.append((
        ["sweep", "dreg-gcd", "--json", "--k", "6", "--n-max", str(sweep_n_max)],
        partial(checks.check_sweep_dreg, 6, sweep_n_max),
    ))
    plan.append(_layer_probe("spectra", rng))
    return [target for _, target in plan if isinstance(target, Instance)], plan


def _spectra_minimal(rng: random.Random, pick) -> tuple[list[Instance], list]:
    """Descent and flips on minimal regular even-uniform inputs."""
    cheap = [families.cycle_power(5 + 2 * (i % 2), 4, rng) for i in range(4)]
    middle = (
        [families.relabeled_window(11 + 2 * (i % 2), 4, rng) for i in range(5)]
        + [families.cycle_power(11 + 2 * (i % 2), 4, rng) for i in range(6)]
    )
    top = (
        [families.projective_plane(5, rng)]
        + [families.relabeled_window(19, 4, rng), families.relabeled_window(17, 6, rng)]
        + [families.cycle_power(17, 4, rng), families.cycle_power(19, 4, rng)]
        + [families.relabeled_window(17, 4, rng)]
    )
    plan = [("spectra", inst) for inst in pick(cheap) + pick(middle) + pick(top)]
    for lengths in pick([[3, 5], [3, 5], [3, 7], [5, 7]]):
        plan.append((
            ["sweep", "beta-trend", "--json", "--m-list", ",".join(map(str, lengths))],
            partial(checks.check_sweep_beta, 4, lengths),
        ))
    plan.append(_layer_probe("analyze", rng))
    return [target for _, target in plan if isinstance(target, Instance)], plan


def _spectra_nonregular(rng: random.Random, pick) -> tuple[list[Instance], list]:
    """Power iteration and descent on non-regular, non-minimal graph powers.

    Classes at n = 48, 88 and 128, and one op at n = 256 that lies beyond
    the p90: a whole class of such ops (0.5-0.8 s each) would leave too few
    samples in a run for a p90 tail.  The class sizes put the p50 and the
    p90 near the middle of a class.

    The graphs come from a fixed stream and the workload seed relabels
    them.  Random graphs of one size differ by about 10% in cost, so graphs
    drawn from the seed would let the seed move the p50 and the tail by
    that much, where the runs should show the program.
    """
    bases = pick([24] * 8) + pick([44] * 10) + pick([64] * 7) + [128]
    graphs = random.Random("spectra-nonregular/graphs")
    plan = []
    for b in bases:
        inst = families.random_graph_power(b, b // 2, 4, graphs)
        inst.edges = families.relabel(inst.n, inst.edges, rng)
        plan.append(("spectra", inst))
    plan.append(_layer_probe("analyze", rng))
    return [target for _, target in plan], plan


WORKLOADS = {
    "exact-sparse": _exact_sparse,
    "spectra-minimal": _spectra_minimal,
    "spectra-nonregular": _spectra_nonregular,
}

_FILE_COMMANDS = {
    "analyze": (["analyze", "--json"], checks.check_analyze),
    "check": (["check"], checks.check_check),
    "spectra": (["spectra", "--json"], checks.check_spectra),
}


def build(name: str, seed: int, directory: Path, reduced: bool = False) -> Workload:
    """Generate the workload's inputs under ``directory`` and its pass of ops."""
    rng = random.Random(f"{name}/{seed}")
    pick = (lambda xs: list(xs)[:1]) if reduced else list
    instances, plan = WORKLOADS[name](rng, pick)
    digest = families.write_all(instances, directory)
    refs = _References()
    ops = []
    for command, target in plan:
        if isinstance(target, Instance):
            argv, checker = _FILE_COMMANDS[command]
            ops.append(_file_op(argv, checker, refs, target))
        else:
            ops.append(Op(command, target))
    return Workload(name, ops, instances, digest)
